"""Role allocation: ranking strategies, top-k selection, role application."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowflow import (
    Population,
    ROLES,
    GraphError,
    RoleError,
    STRATEGIES,
    WeightedGraph,
    add_edge,
    apply_collector,
    apply_expert,
    apply_facilitator,
    assign_weights,
    generate_watts_strogatz,
    init_workers,
    rank_nodes,
    select_top,
    SimulationState,
    weighted_betweenness_all,
    weighted_closeness_all,
)


def star(n=4):
    g = WeightedGraph(n)
    for v in range(1, n):
        g = add_edge(g, 0, v, 1.0)
    return g


def path3():
    g = WeightedGraph(3)
    g = add_edge(g, 0, 1, 1.0)
    return add_edge(g, 1, 2, 1.0)


def small_population(n=6, seed=0):
    return init_workers(n, 4, (0.0, 10.0), 0.5, (0.3, 0.7), (0.3, 0.7), 0.006, np.random.default_rng(seed))


def test_strategy_parsing():
    assert STRATEGIES == ("random", "degree", "closeness", "betweenness", "timesharing", "dissemination")
    assert ROLES == ("expert", "facilitator", "collector")
    choices = "['betweenness', 'closeness', 'degree', 'dissemination', 'random', 'timesharing']"
    for token, expected in [
        ("popularity", f"strategy: expected one of {choices}, got 'popularity'"),
        ("Degree", f"strategy: expected one of {choices}, got 'Degree'"),  # names are exact strings
        (3, "strategy: expected a string, got 3"),
        (None, "strategy: expected a string, got None"),
    ]:
        with pytest.raises(RoleError, match=f"^{re.escape(expected)}$"):
            rank_nodes(star(5), token)


def test_degree_ranking_puts_hub_first():
    assert rank_nodes(star(5), "degree")[0] == 0
    # leaves tie on degree -> ascending id
    assert rank_nodes(star(5), "degree") == [0, 1, 2, 3, 4]


def test_degree_ranking_counts_every_edge():
    # A zero-weight edge still counts toward degree; an isolated node scores 0.
    g = WeightedGraph(6, [(0, 1, 0.0), (0, 4, 0.0), (1, 2, 1.0), (2, 3, 2.0)])
    assert rank_nodes(g, "degree") == sorted(g.nodes(), key=lambda v: (-g.degree(v), v)) == [0, 1, 2, 3, 4, 5]


def test_centrality_rankings_on_a_path():
    assert rank_nodes(path3(), "betweenness") == [1, 0, 2]
    assert rank_nodes(path3(), "closeness") == [1, 0, 2]


def test_utility_rankings_on_a_path():
    # the middle node enjoys exclusive attention; the ends are cheap to reach
    assert rank_nodes(path3(), "timesharing") == [1, 0, 2]
    assert rank_nodes(path3(), "dissemination") == [0, 2, 1]


def test_symmetric_ring_falls_back_to_id_order():
    # degree and the utility scores are exact on a ring; betweenness is left
    # out because its accumulation order perturbs the last float bits
    ring = generate_watts_strogatz(10, 4, 0.0, np.random.default_rng(0))
    for strategy in ("degree", "closeness", "timesharing", "dissemination"):
        assert rank_nodes(ring, strategy) == list(range(10))
    # exactly tied betweenness (all leaves at 0.0) also breaks toward low ids
    assert rank_nodes(star(5), "betweenness") == [0, 1, 2, 3, 4]


def test_random_ranking_is_a_seeded_permutation():
    g = star(6)
    a = rank_nodes(g, "random", np.random.default_rng(4))
    b = rank_nodes(g, "random", np.random.default_rng(4))
    assert a == b
    assert sorted(a) == list(range(6))
    with pytest.raises(RoleError):
        rank_nodes(g, "random")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 50.0))
def test_rankings_ignore_global_weight_scale(seed, factor):
    """Rescaling every tie strength by one factor preserves the centrality
    order wherever scores are decisively separated (exact ties live at the
    mercy of float rounding, so they are excluded)."""
    rng = np.random.default_rng(seed)
    g = assign_weights(generate_watts_strogatz(14, 4, 0.3, rng), (0.1, 1.0), rng)
    scaled = WeightedGraph(14, [(u, v, w * factor) for u, v, w in g.edges()])
    for score_all in (weighted_closeness_all, weighted_betweenness_all):
        base = score_all(g)
        moved = score_all(scaled)
        for a in range(14):
            for b in range(14):
                gap = abs(base[a] - base[b])
                if gap > 1e-6 * max(1.0, abs(base[a])):
                    assert (base[a] > base[b]) == (moved[a] > moved[b])


def test_select_top_counts_and_fractions():
    ranking = list(range(484))
    assert select_top(ranking, 0.10) == list(range(48))  # half-up rounding of 48.4
    assert select_top(ranking, 50) == list(range(50))
    assert select_top(ranking, 1.0) == ranking
    assert select_top(list(range(5)), 0.5) == [0, 1, 2]
    assert select_top(list(range(30)), 0.001) == [0]  # never empty
    assert select_top(range(10), np.int64(2)) == [0, 1]  # a numpy integer is a count
    assert select_top(range(10), np.uint8(10)) == list(range(10))


def test_select_top_validation():
    ranking = list(range(10))
    with pytest.raises(RoleError):
        select_top(ranking, 0)
    with pytest.raises(RoleError):
        select_top(ranking, 11)
    with pytest.raises(RoleError):
        select_top(ranking, 0.0)
    with pytest.raises(RoleError):
        select_top(ranking, True)
    with pytest.raises(RoleError):
        select_top(ranking, np.bool_(True))
    with pytest.raises(RoleError, match=re.escape("count: must be <= 10, got 11")):
        select_top(ranking, np.int64(11))
    with pytest.raises(RoleError):
        select_top([], 1)


def test_apply_expert_redraws_masked_slots_only():
    drawn = small_population()
    masks = drawn.masks.copy()
    masks[2] = [1.0, 0.0, 1.0, 0.0]
    pop = Population(drawn.competences, masks, drawn.cognitive, drawn.social, drawn.forgetting)
    before = pop.competences.copy()
    out = apply_expert(pop, [2], (10.0, 50.0), np.random.default_rng(1))
    assert np.array_equal(pop.competences, before)  # the input is untouched
    assert np.all((out.competences[2, [0, 2]] >= 10.0) & (out.competences[2, [0, 2]] <= 50.0))
    assert np.array_equal(out.competences[2, [1, 3]], before[2, [1, 3]])
    others = [i for i in range(len(pop)) if i != 2]
    assert np.array_equal(out.competences[others], before[others])


def test_apply_expert_boost_all_and_degenerate_range():
    pop = small_population(seed=3)
    out = apply_expert(pop, [0, 4], (25.0, 25.0), np.random.default_rng(0), boost_all=True)
    assert np.all(out.competences[0] == 25.0)
    assert np.all(out.competences[4] == 25.0)


def test_apply_expert_validation():
    pop = small_population()
    with pytest.raises(RoleError):
        apply_expert(pop, [0], (5.0, 1.0), np.random.default_rng(0))
    with pytest.raises(RoleError):
        apply_expert(pop, [99], (1.0, 2.0), np.random.default_rng(0))


@pytest.mark.parametrize(
    "boost_range",
    [(0.0, np.inf), (0.0, np.nan), (np.nan, 1.0), (np.inf, np.inf), (-1.0, 2.0), (-np.inf, 1.0)]
    # exactly a pair: no third value is ignored, and a short or scalar range is no IndexError
    + [(1.0, 2.0, 99.0), (1.0,), (), 3.0, None, ("low", "high")],
)
def test_apply_expert_takes_a_finite_boost_range(boost_range):
    message = {
        "(0.0, inf)": "boost_range[1]: expected a finite number, got inf",
        "(0.0, nan)": "boost_range[1]: expected a finite number, got nan",
        "(nan, 1.0)": "boost_range[0]: expected a finite number, got nan",
        "(inf, inf)": "boost_range[0]: expected a finite number, got inf",
        "(-1.0, 2.0)": "boost_range[0]: must be >= 0.0, got -1.0",
        "(-inf, 1.0)": "boost_range[0]: expected a finite number, got -inf",
        "('low', 'high')": "boost_range[0]: expected a number, got 'low'",
    }.get(repr(boost_range), "boost_range: expected a [low, high] pair")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RoleError, match=f"^{re.escape(message)}$"):
            apply_expert(small_population(), [0], boost_range, np.random.default_rng(0))


def test_apply_facilitator_scales_each_incident_edge_once():
    g = WeightedGraph(3, [(0, 1, 0.5), (1, 2, 1.0)])
    boosted = apply_facilitator(g, [0, 1], 1.2)
    # both endpoints selected, still a single application: 0.5 -> 0.6
    assert boosted.weight(0, 1) == pytest.approx(0.6)
    assert boosted.weight(1, 2) == pytest.approx(1.2)
    assert g.weight(0, 1) == 0.5  # original untouched


def test_apply_facilitator_leaves_far_edges_alone():
    g = WeightedGraph(4)
    g = add_edge(g, 0, 1, 1.0)
    g = add_edge(g, 2, 3, 1.0)
    boosted = apply_facilitator(g, [0], 2.0)
    assert boosted.weight(0, 1) == 2.0
    assert boosted.weight(2, 3) == 1.0
    assert boosted.edge_count == g.edge_count


def test_apply_facilitator_validation():
    g = path3()
    with pytest.raises(RoleError):
        apply_facilitator(g, [0], 0.0)
    with pytest.raises(RoleError):
        apply_facilitator(g, [7], 1.1)
    for bad in (True, np.bool_(True), "2", None):
        with pytest.raises(RoleError, match=f"^{re.escape(f'factor: expected a number, got {bad!r}')}$"):
            apply_facilitator(g, [0], bad)
    for nodes in (b"\x00\x01", bytearray(b"\x00\x01")):  # a byte string is not a list of ids
        with pytest.raises(RoleError, match="^nodes: expected a list$"):
            apply_facilitator(g, nodes, 2.0)
    assert apply_facilitator(g, [0], np.float32(2.0)).weight(0, 1) == apply_facilitator(g, [0], 2.0).weight(0, 1)
    heavy = WeightedGraph(4, [(0, 1, 1e300), (1, 2, 0.0), (2, 3, 1e300)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GraphError, match=r"edge \(0, 1, inf\) rejected: edge weight must be finite"):
            apply_facilitator(heavy, [1, 2], 1e10)
        # A factor that is not finite is refused before any weight is scaled: an integer beyond the float range too.
        for factor, shown in ((10**400, "inf"), (np.inf, "inf"), (np.nan, "nan")):
            with pytest.raises(RoleError, match=f"^factor: expected a finite number, got {shown}$"):
                apply_facilitator(heavy, [1, 2], factor)


@pytest.mark.parametrize("bad", [1.5, True, np.float64(1.0), np.bool_(True), -1, 5, "1"])
def test_role_actions_take_only_integer_node_ids(bad):
    pop = small_population(n=5)
    g = generate_watts_strogatz(5, 2, 0.0, np.random.default_rng(0))
    state = SimulationState.batch([(g, pop)])
    actions = [
        lambda ids: apply_collector(state, ids),
        lambda ids: apply_facilitator(g, ids, 2.0),
        lambda ids: apply_expert(pop, ids, (10.0, 20.0), np.random.default_rng(0)),
    ]
    rule = {-1: "must be >= 0", 5: "must be < 5"}[bad] if type(bad) is int else "expected an integer"
    for act in actions:
        with pytest.raises(RoleError, match=f"^{re.escape(f'nodes[1]: {rule}, got {bad!r}')}$"):
            act([0, bad])
    # numpy integers are ids like ints
    numpy_ids = [np.int64(1), np.int32(3)]
    assert apply_collector(state, numpy_ids).collectors == frozenset({1, 3})
    scaled = apply_facilitator(g, numpy_ids, 2.0).directed_edge_arrays()
    assert all(map(np.array_equal, scaled, apply_facilitator(g, [1, 3], 2.0).directed_edge_arrays()))
    boosted = [apply_expert(pop, ids, (10.0, 20.0), np.random.default_rng(0)) for ids in (numpy_ids, [1, 3])]
    assert np.array_equal(boosted[0].competences, boosted[1].competences)


def test_apply_collector_unions_flags():
    pop = small_population(n=5)
    g = generate_watts_strogatz(5, 2, 0.0, np.random.default_rng(0))
    state = SimulationState.batch([(g, pop)])
    state = apply_collector(state, [1, 3])
    state = apply_collector(state, [3, 4])
    assert state.collectors == frozenset({1, 3, 4})
    with pytest.raises(RoleError):
        apply_collector(state, [5])
