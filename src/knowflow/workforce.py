"""Knowledge workers: competence vectors, interest masks, abilities."""

from __future__ import annotations

import numpy as np

from ._contract import _as_array, _as_float, _as_int, _as_pair, _as_rng

__all__ = [
    "Population",
    "WorkforceError",
    "init_workers",
]


class WorkforceError(ValueError):
    """Invalid worker parameter."""


class Population:
    """Column-oriented store for a workforce of equal-length competence vectors.

    Worker i is row i of every column: its competences, mask, cognitive and
    social ability and forgetting rate. Invariants: competences finite and
    >= 0, mask entries in {0, 1}, abilities in [0, 1], forgetting rate in
    [0, 1). The constructor keeps read-only copies of its inputs (an input
    already read-only and owning its memory is kept as is), so a population
    it validated cannot change. ``_trusted`` keeps what it is given; the
    diffusion step and a batch hand it read-only arrays.
    """

    _columns = ("competences", "masks", "cognitive", "social", "forgetting")

    def __init__(
        self,
        competences: np.ndarray,
        masks: np.ndarray,
        cognitive: np.ndarray,
        social: np.ndarray,
        forgetting: np.ndarray,
    ):
        self.competences = _frozen(competences, "competences", (None, None), lo=0.0)
        n, m = self.competences.shape
        if m < 1:
            raise WorkforceError(f"competences: expected at least one competence, got shape {self.competences.shape}")
        self.masks = _frozen(masks, "masks", (n, m))
        stray = self.masks[(self.masks != 0.0) & (self.masks != 1.0)]
        if stray.size:
            raise WorkforceError(f"masks: entries must be 0 or 1, got {stray[0]}")
        self.cognitive = _frozen(cognitive, "cognitive", (n,), lo=0.0, hi=1.0)
        self.social = _frozen(social, "social", (n,), lo=0.0, hi=1.0)
        self.forgetting = _frozen(forgetting, "forgetting", (n,), lo=0.0, lt=1.0)

    @classmethod
    def _trusted(cls, *columns: np.ndarray) -> "Population":
        """A population from its five columns, in the constructor's order and already valid; no checks."""
        pop = cls.__new__(cls)
        pop.competences, pop.masks, pop.cognitive, pop.social, pop.forgetting = columns
        return pop

    @property
    def n_competences(self) -> int:
        return self.competences.shape[1]

    def __len__(self) -> int:
        return self.competences.shape[0]


def _frozen(values, name: str, shape: tuple, **bounds: float) -> np.ndarray:
    """``values`` as a read-only float array of ``shape`` within ``bounds`` that no one else can write into."""
    array = _as_array(values, name, WorkforceError, shape, **bounds)
    if array.flags.writeable or array.base is not None:
        array = array.copy()
        array.flags.writeable = False
    return array


def init_workers(
    n_workers: int,
    n_competences: int,
    competence_range: tuple[float, float],
    mask_density: float,
    cognitive_range: tuple[float, float],
    social_range: tuple[float, float],
    forgetting: float,
    rng: np.random.Generator,
) -> Population:
    """Draw a fresh workforce: uniform competences, Bernoulli masks, uniform abilities.

    Draw order is fixed (competences, masks, cognitive, social) so one seed
    always reproduces the same population.
    """
    n_workers = _as_int(n_workers, "n_workers", WorkforceError, lo=1)
    n_competences = _as_int(n_competences, "n_competences", WorkforceError, lo=1)
    competence_range = _as_pair(competence_range, "competence_range", WorkforceError, lo=0.0)
    mask_density = _as_float(mask_density, "mask_density", WorkforceError, lo=0.0, hi=1.0)
    cognitive_range = _as_pair(cognitive_range, "cognitive_range", WorkforceError, lo=0.0, hi=1.0)
    social_range = _as_pair(social_range, "social_range", WorkforceError, lo=0.0, hi=1.0)
    forgetting = _as_float(forgetting, "forgetting", WorkforceError, lo=0.0, lt=1.0)
    rng = _as_rng(rng, "rng", WorkforceError)

    competences = rng.uniform(*competence_range, size=(n_workers, n_competences))
    masks = (rng.random(size=(n_workers, n_competences)) < mask_density).astype(float)
    cognitive = rng.uniform(*cognitive_range, size=n_workers)
    social = rng.uniform(*social_range, size=n_workers)
    columns = (competences, masks, cognitive, social, np.full(n_workers, forgetting))
    for column in columns:  # fresh arrays: the population keeps them rather than copies
        column.flags.writeable = False
    return Population(*columns)
