"""Worker population: initialization and invariants."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowflow import (
    Population,
    WorkforceError,
    init_workers,
)


def make_population(n=6, m=4, seed=0, density=0.5):
    return init_workers(
        n_workers=n,
        n_competences=m,
        competence_range=(0.0, 10.0),
        mask_density=density,
        cognitive_range=(0.3, 0.7),
        social_range=(0.3, 0.7),
        forgetting=0.006,
        rng=np.random.default_rng(seed),
    )


def test_init_shapes_and_ranges():
    pop = make_population(n=40, m=10)
    assert pop.competences.shape == (40, 10)
    assert pop.masks.shape == (40, 10)
    assert np.all((pop.competences >= 0.0) & (pop.competences <= 10.0))
    assert set(np.unique(pop.masks)) <= {0.0, 1.0}
    assert np.all((pop.cognitive >= 0.3) & (pop.cognitive <= 0.7))
    assert np.all((pop.social >= 0.3) & (pop.social <= 0.7))
    assert np.all(pop.forgetting == 0.006)
    assert len(pop) == 40
    assert pop.n_competences == 10


def test_init_deterministic_per_seed():
    a = make_population(seed=9)
    b = make_population(seed=9)
    assert np.array_equal(a.competences, b.competences)
    assert np.array_equal(a.masks, b.masks)
    assert np.array_equal(a.cognitive, b.cognitive)
    c = make_population(seed=10)
    assert not np.array_equal(a.competences, c.competences)


def test_mask_density_extremes():
    assert np.all(make_population(density=0.0).masks == 0.0)
    assert np.all(make_population(density=1.0).masks == 1.0)


def test_init_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(WorkforceError):
        init_workers(0, 3, (0, 1), 0.5, (0, 1), (0, 1), 0.0, rng)
    with pytest.raises(WorkforceError):
        init_workers(3, 0, (0, 1), 0.5, (0, 1), (0, 1), 0.0, rng)
    with pytest.raises(WorkforceError):
        init_workers(3, 3, (0, 1), 1.5, (0, 1), (0, 1), 0.0, rng)
    with pytest.raises(WorkforceError):
        init_workers(3, 3, (0, 1), 0.5, (0, 1), (0, 1), 1.0, rng)  # forgetting < 1 required
    with pytest.raises(WorkforceError):
        init_workers(3, 3, (5, 2), 0.5, (0, 1), (0, 1), 0.0, rng)
    with pytest.raises(WorkforceError):
        init_workers(3, 3, (0, 1), 0.5, (0, 1.2), (0, 1), 0.0, rng)  # abilities capped at 1


@pytest.mark.parametrize(
    "density, forgetting, name",
    [("0.5", 0.0, "mask density"), (True, 0.0, "mask density"), (0.5, None, "forgetting rate"), (0.5, False, "forgetting rate")],
    ids=repr,
)
def test_init_scalars_are_real_numbers(density, forgetting, name):
    key, bad = ("mask_density", density) if name == "mask density" else ("forgetting", forgetting)
    with pytest.raises(WorkforceError, match=f"^{re.escape(f'{key}: expected a number, got {bad!r}')}$"):
        init_workers(3, 3, (0, 1), density, (0, 1), (0, 1), forgetting, np.random.default_rng(0))
    numpy_floats = init_workers(3, 3, (0, 1), np.float32(0.5), (0, 1), (0, 1), np.float64(0.25), np.random.default_rng(1))
    plain = init_workers(3, 3, (0, 1), 0.5, (0, 1), (0, 1), 0.25, np.random.default_rng(1))
    assert np.array_equal(numpy_floats.masks, plain.masks) and np.array_equal(numpy_floats.forgetting, plain.forgetting)


@pytest.mark.parametrize("n, m", [(4.0, 3), (4, 3.0), (True, 3), (4, np.float64(3.0)), ("4", 3)], ids=repr)
def test_init_counts_are_integers(n, m):
    key, bad = ("n_competences", m) if type(n) is int else ("n_workers", n)
    with pytest.raises(WorkforceError, match=f"^{re.escape(f'{key}: expected an integer, got {bad!r}')}$"):
        init_workers(n, m, (0, 1), 0.5, (0, 1), (0, 1), 0.0, np.random.default_rng(0))
    numpy_ints = init_workers(np.int64(4), np.int32(3), (0, 1), 0.5, (0, 1), (0, 1), 0.0, np.random.default_rng(1))
    assert np.array_equal(
        numpy_ints.competences, init_workers(4, 3, (0, 1), 0.5, (0, 1), (0, 1), 0.0, np.random.default_rng(1)).competences
    )


def test_population_invariants_enforced():
    ones = np.ones((2, 3))
    half = np.full(2, 0.5)
    with pytest.raises(WorkforceError):
        Population(-ones, ones, half, half, half)
    with pytest.raises(WorkforceError):
        Population(ones, ones * 0.5, half, half, half)  # masks must be 0/1
    with pytest.raises(WorkforceError):
        Population(ones, ones, half * 3, half, half)
    with pytest.raises(WorkforceError):
        Population(ones, np.ones((3, 3)), half, half, half)
    # A column that numpy cannot read as numbers is named, not left to numpy's own error.
    for args, name in ((("a", ones, half, half, half), "competences"), ((ones, ones, half, [0.5, None], half), "social")):
        with pytest.raises(WorkforceError, match=f"^{name}: expected a rectangular array of numbers, got "):
            Population(*args)
    nan = np.array([0.5, np.nan])
    for args in [
        (ones * np.nan, ones, half, half, half),
        (ones * np.inf, ones, half, half, half),
        (ones, ones, nan, half, half),
        (ones, ones, half, nan, half),
        (ones, ones, half, half, nan),
    ]:
        with pytest.raises(WorkforceError):
            Population(*args)


ONES, HALF = np.ones((2, 3)), np.full(2, 0.5)


@pytest.mark.parametrize(
    "column, value, message",
    [
        (0, np.ones(3), "competences: expected shape (n, n), got (3,)"),
        (0, np.ones((2, 0)), "competences: expected at least one competence, got shape (2, 0)"),
        (0, -ONES, "competences: must be >= 0.0, got -1.0"),
        (0, ONES * np.inf, "competences: expected a finite number, got inf"),
        (1, np.ones((3, 3)), "masks: expected shape (2, 3), got (3, 3)"),
        (1, ONES * 0.5, "masks: entries must be 0 or 1, got 0.5"),
        (1, ONES * np.nan, "masks: entries must be 0 or 1, got nan"),
        (2, HALF * 3, "cognitive: must be <= 1.0, got 1.5"),
        (3, np.full(3, 0.5), "social: expected shape (2,), got (3,)"),
        (4, np.ones(2), "forgetting: must be < 1.0, got 1.0"),
        (4, [0.5, np.nan], "forgetting: expected a finite number, got nan"),
    ],
)
def test_population_names_the_column_and_the_value_it_rejects(column, value, message):
    columns = [ONES, ONES, HALF, HALF, HALF]
    columns[column] = value
    with pytest.raises(WorkforceError, match=f"^{re.escape(message)}$"):
        Population(*columns)


def test_worker_rows_are_read_only_views():
    pop = make_population()
    for row in (pop.competences[2], pop.masks[2]):
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 99.0


def test_a_population_keeps_its_own_read_only_arrays():
    drawn = make_population()
    inputs = [a.copy() for a in (drawn.competences, drawn.masks, drawn.cognitive, drawn.social, drawn.forgetting)]
    pop = Population(*inputs)
    for given in inputs:  # the caller's arrays stay writable, and writing into them changes nothing
        given[...] = np.nan if given.ndim == 2 else 7.0
    for kept, original in zip(
        (pop.competences, pop.masks, pop.cognitive, pop.social, pop.forgetting),
        (drawn.competences, drawn.masks, drawn.cognitive, drawn.social, drawn.forgetting),
    ):
        assert np.array_equal(kept, original) and not kept.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 0.0
    # A read-only view of a writable array is copied too; another population's arrays are shared.
    base = drawn.competences.copy()
    view = base[:]
    view.flags.writeable = False
    pop = Population(view, drawn.masks, drawn.cognitive, drawn.social, drawn.forgetting)
    base[...] = np.nan
    assert np.array_equal(pop.competences, drawn.competences)
    assert all(kept is given for kept, given in ((pop.masks, drawn.masks), (pop.social, drawn.social)))


def test_population_sequence_protocol():
    # A worker is row i of every column; there is no per-worker view to index or iterate.
    pop = make_population(n=4)
    assert len(pop) == 4 and pop.n_competences == 4
    for attempt in (lambda: pop[3], lambda: list(pop), lambda: 3 in pop):
        with pytest.raises(TypeError):
            attempt()


def test_workers_and_populations_compare_by_identity_without_raising():
    # Element-wise array equality has no single truth value; populations compare by identity.
    pop = make_population(n=4)
    assert pop == pop and pop != make_population(n=4)
    assert not hasattr(pop, "index") and not hasattr(pop, "count")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 1.0))
def test_mask_density_is_respected_on_average(seed, density):
    pop = init_workers(60, 8, (0, 1), density, (0, 1), (0, 1), 0.0, np.random.default_rng(seed))
    observed = pop.masks.mean()
    assert abs(observed - density) < 0.25  # loose: 480 Bernoulli draws
