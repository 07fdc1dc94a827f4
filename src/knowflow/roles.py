"""Role allocation: node ranking strategies and expert/facilitator/collector actions."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .diffusion import SimulationState
from .netgraph import (
    GraphError,
    WeightedGraph,
    coauthor_utility,
    weighted_betweenness_all,
    weighted_closeness_all,
)
from .workforce import Population

__all__ = [
    "ROLES",
    "RoleAssignment",
    "RoleError",
    "Strategy",
    "apply_collector",
    "apply_expert",
    "apply_facilitator",
    "rank_nodes",
    "select_top",
]


class RoleError(ValueError):
    """Invalid role or selection parameter."""


class Strategy(str, Enum):
    """Node ranking strategies for picking role holders."""

    RANDOM = "random"
    DEGREE = "degree"
    CLOSENESS = "closeness"
    BETWEENNESS = "betweenness"
    TIME_SHARING = "timesharing"
    DISSEMINATION = "dissemination"

    @classmethod
    def parse(cls, token: str) -> "Strategy":
        try:
            return cls(token)
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise RoleError(f"unknown strategy {token!r}; expected one of: {valid}") from None


ROLES = ("expert", "facilitator", "collector")


@dataclass(frozen=True)
class RoleAssignment:
    """Outcome of a role plan: the role and the nodes that got it."""

    role: str
    nodes: tuple[int, ...]


def rank_nodes(
    g: WeightedGraph,
    strategy: Strategy | str,
    rng: np.random.Generator | None = None,
) -> list[int]:
    """Full node ranking under a strategy; deterministic given graph (and rng).

    Score ties break toward the smaller node id. ``random`` is a seeded
    shuffle and requires ``rng``. ``timesharing`` prefers high collaboration
    utility (exclusive attention), ``dissemination`` the lowest, i.e. nodes of
    modest degree attached to well-connected neighbors.
    """
    strategy = Strategy.parse(strategy) if isinstance(strategy, str) else strategy
    nodes = list(g.nodes())
    if strategy is Strategy.RANDOM:
        if rng is None:
            raise RoleError("random strategy needs a seeded random generator")
        return [int(v) for v in rng.permutation(g.node_count)]
    if strategy is Strategy.DEGREE:
        scores = np.bincount(g.directed_edge_arrays()[1], minlength=g.node_count).tolist()
    elif strategy is Strategy.CLOSENESS:
        scores = list(weighted_closeness_all(g))
    elif strategy is Strategy.BETWEENNESS:
        scores = list(weighted_betweenness_all(g))
    else:
        utilities = coauthor_utility(g).tolist()
        if strategy is Strategy.TIME_SHARING:
            scores = utilities
        else:  # DISSEMINATION ranks ascending
            scores = [-u for u in utilities]
    return sorted(nodes, key=lambda v: (-scores[v], v))


def select_top(ranking: Sequence[int], count_or_fraction: int | float) -> list[int]:
    """Leading portion of a ranking.

    An int is an absolute count; a float is a fraction of the ranking length,
    rounded half-up to the nearest integer with a minimum of one node.
    """
    n = len(ranking)
    if n == 0:
        raise RoleError("ranking is empty")
    if isinstance(count_or_fraction, bool):
        raise RoleError("count must be an int or fraction, not bool")
    if isinstance(count_or_fraction, int):
        count = count_or_fraction
        if not (1 <= count <= n):
            raise RoleError(f"count must lie in [1, {n}], got {count}")
    else:
        fraction = float(count_or_fraction)
        if not (0.0 < fraction <= 1.0):
            raise RoleError(f"fraction must lie in (0, 1], got {fraction}")
        count = max(1, min(n, math.floor(fraction * n + 0.5)))
    return list(ranking[:count])


def apply_expert(
    workers: Population,
    nodes: Sequence[int],
    boost_range: tuple[float, float],
    rng: np.random.Generator,
    boost_all: bool = False,
) -> Population:
    """Re-draw the selected workers' masked competences uniformly in boost_range.

    Values are replaced, not added. ``boost_all`` ignores the mask and
    refreshes the whole vector. Returns a new population; ``workers`` is left
    untouched.
    """
    lo, hi = float(boost_range[0]), float(boost_range[1])
    if lo < 0.0 or hi < lo:
        raise RoleError(f"boost range must satisfy 0 <= low <= high, got [{lo}, {hi}]")
    n = len(workers)
    competences = workers.competences.copy()
    for v in nodes:
        if not (0 <= v < n):
            raise RoleError(f"unknown worker id {v}")
        if boost_all:
            idx = np.arange(workers.n_competences)
        else:
            idx = np.flatnonzero(workers.masks[v] == 1.0)
        if idx.size:
            competences[v, idx] = rng.uniform(lo, hi, size=idx.size)
    return Population(competences, workers.masks, workers.cognitive, workers.social, workers.forgetting)


def apply_facilitator(g: WeightedGraph, nodes: Sequence[int], factor: float) -> WeightedGraph:
    """Scale every edge incident to any selected node by ``factor``, exactly once.

    An edge between two selected nodes is still scaled a single time. Returns
    a new graph; topology is untouched.
    """
    if not (factor > 0.0):
        raise RoleError(f"facilitator weight factor must be > 0, got {factor}")
    selected = np.zeros(g.node_count, dtype=bool)
    for v in nodes:
        if not (0 <= v < g.node_count):
            raise RoleError(f"unknown node {v}")
        selected[v] = True
    senders, receivers, weights = g.directed_edge_arrays()
    with np.errstate(over="ignore", invalid="ignore"):  # a weight that is not finite is rejected below
        scaled = np.where(selected[senders] | selected[receivers], weights * factor, weights)
    bad = ~np.isfinite(scaled) & (senders > receivers)
    if bad.any():  # name the first in ascending (u, v) order
        i = int(np.argmax(bad))
        edge = (int(receivers[i]), int(senders[i]), float(scaled[i]))
        raise GraphError(f"edge {edge} rejected: edge weight must be finite and >= 0")
    return WeightedGraph._from_arrays(g.node_count, senders, receivers, scaled)


def apply_collector(state: SimulationState, nodes: Sequence[int]) -> SimulationState:
    """Flag nodes as collectors; the engine accrues their per-step intake."""
    n = state.graph.node_count
    flagged = set()
    for v in nodes:
        if not (0 <= v < n):
            raise RoleError(f"unknown node {v}")
        flagged.add(int(v))
    return replace(state, collectors=frozenset(state.collectors | flagged))
