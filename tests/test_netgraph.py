"""Graph construction, metrics, and interchange, cross-checked against the
brute-force oracles for small instances."""

import dataclasses
import hashlib
import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from knowflow import netgraph
from knowflow import (
    GraphError,
    WeightSpec,
    WeightedGraph,
    add_edge,
    apply_facilitator,
    assign_weights,
    average_edge_weight,
    coauthor_utility,
    generate_watts_strogatz,
    load_fixture,
    read_edge_list,
    shortest_hop_path,
    weighted_betweenness_all,
    weighted_closeness_all,
    write_edge_list,
)
from knowflow.scenario import _graph_for


def build(n, weighted_edges):
    g = WeightedGraph(n)
    out = g
    for (u, v), w in weighted_edges.items():
        out = add_edge(out, u, v, w)
    return out


def path3(wa=1.0, wb=1.0):
    return build(3, {(0, 1): wa, (1, 2): wb})


# -- basic structure ---------------------------------------------------------


def test_graph_basics():
    g = build(4, {(0, 1): 0.5, (1, 2): 2.0})
    assert g.node_count == 4
    assert g.edge_count == 2
    assert g.has_edge(1, 0) and g.has_edge(0, 1)
    assert not g.has_edge(0, 2)
    assert g.weight(0, 1) == 0.5
    assert g.weight(0, 3) == 0.0  # absent edge reads as zero strength
    assert g.neighbors(1) == [0, 2]
    assert g.degree(3) == 0
    assert list(g.edges()) == [(0, 1, 0.5), (1, 2, 2.0)]


def test_scalar_queries_read_each_row():
    g = assign_weights(generate_watts_strogatz(30, 6, 0.5, np.random.default_rng(1)),
                       WeightSpec.uniform(0.1, 1.0), np.random.default_rng(2))
    g = add_edge(g, *next((u, v) for u in range(30) for v in range(u + 1, 30) if not g.has_edge(u, v)), 0.0)
    table = {}
    for u, v, w in g.edges():
        table[u, v] = table[v, u] = w
    for u in range(30):
        assert g.neighbors(u) == sorted(v for a, v in table if a == u)
        assert g.degree(u) == len(g.neighbors(u))
        for v in range(30):
            assert g.has_edge(u, v) == ((u, v) in table)
            assert g.weight(u, v) == table.get((u, v), 0.0)
    for query in (lambda: g.has_edge(0, 30), lambda: g.weight(-1, 3), lambda: g.neighbors(30), lambda: g.degree(-1)):
        with pytest.raises(GraphError, match=r"unknown node (30|-1) \(graph has 30 nodes\)"):
            query()


def test_node_ids_must_be_integers():
    g = build(3, {(0, 1): 1.0, (1, 2): 1.0})
    queries = (
        lambda v: g.has_edge(0, v),
        lambda v: g.weight(v, 1),
        lambda v: g.neighbors(v),
        lambda v: g.degree(v),
        lambda v: shortest_hop_path(g, v, 2),
    )
    for query in queries:
        for bad in (1.5, 0.5, True, np.float64(1.0)):
            with pytest.raises(GraphError, match="node id must be an integer"):
                query(bad)
    assert g.has_edge(np.int64(0), np.int32(1)) and g.neighbors(np.int64(1)) == [0, 2]
    assert shortest_hop_path(g, np.int64(0), 2).nodes == (0, 1, 2)


def test_graph_rejects_self_loops_and_duplicates():
    g = build(3, {(0, 1): 1.0})
    with pytest.raises(GraphError):
        add_edge(g, 1, 1, 1.0)
    with pytest.raises(GraphError):
        add_edge(g, 1, 0, 1.0)
    with pytest.raises(GraphError):
        add_edge(g, 0, 5, 1.0)


def test_edge_weights_must_be_finite_and_non_negative():
    g = build(3, {(0, 1): 1.0})
    assert add_edge(g, 2, 1, 0.0).weight(1, 2) == 0.0
    with pytest.raises(GraphError, match="finite"):
        add_edge(g, 1, 2, -0.1)
    with pytest.raises(GraphError, match="finite"):
        add_edge(g, 1, 2, float("nan"))
    with pytest.raises(GraphError, match="finite"):
        WeightedGraph(3, [(0, 1, math.inf)])


def test_graphs_are_immutable_values():
    g = assign_weights(generate_watts_strogatz(12, 4, 0.3, np.random.default_rng(2)),
                       WeightSpec.uniform(0.1, 1.0), np.random.default_rng(3))
    before = list(g.edges())
    for array in (*g.directed_edge_arrays(), g._indptr):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    derived = [
        add_edge(g, *next((u, v) for u in range(12) for v in range(u + 1, 12) if not g.has_edge(u, v)), 0.5),
        assign_weights(g, WeightSpec.constant(2.0), np.random.default_rng(4)),
        apply_facilitator(g, [0, 5], 1.5),
    ]
    assert list(g.edges()) == before
    assert all(list(h.edges()) != before for h in derived)


@pytest.mark.parametrize(
    "make, rejection",
    [
        (lambda: WeightedGraph(3, [(0, 1.5, 1.0)]), "edge (0, 1.5, 1.0) rejected: expected (u, v, weight)"),
        (lambda: WeightedGraph(2.7, [(0, 1, 1.0)]), "node count must be an integer, got 2.7"),
        (lambda: WeightedGraph(True), "node count must be an integer, got True"),
        (lambda: WeightedGraph(3, [(False, True, 1.0)]), "edge (False, True, 1.0) rejected: expected (u, v, weight)"),
        (lambda: WeightedGraph(3, [(0, 1, "2")]), "edge (0, 1, '2') rejected: expected (u, v, weight)"),
        (lambda: WeightedGraph(3, [(0, 1, True)]), "edge (0, 1, True) rejected: expected (u, v, weight)"),
        (lambda: add_edge(WeightedGraph(3), 0, 1.5, 1.0), "edge (0, 1.5, 1.0) rejected: expected (u, v, weight)"),
        (lambda: WeightedGraph(3, [(0, 1, 10**400)]), f"edge (0, 1, {10**400}) rejected: edge weight must be finite"),
        (lambda: WeightedGraph(3, [(0, 2, 1.0), (0, 1)]), "edge (0, 1) rejected: expected (u, v, weight)"),
        (lambda: WeightedGraph(3, [(0, 2, 1.0), 7]), "edge 7 rejected: expected (u, v, weight)"),
        # accepted: numpy integers and reals, and Python ints as weights
        (lambda: WeightedGraph(np.int64(3), [(np.int32(0), np.uint8(2), np.float32(0.5)), (1, 2, 3)]), None),
        (lambda: add_edge(WeightedGraph(3), np.int64(0), np.intp(1), np.float64(2.0)), None),
    ],
)
def test_constructors_accept_integer_ids_and_real_weights_only(make, rejection):
    if rejection is None:
        assert make().edge_count >= 1
    else:
        with pytest.raises(GraphError, match=re.escape(rejection)):
            make()


def test_directed_edge_arrays_lists_both_orientations():
    g = build(3, {(0, 1): 0.5, (1, 2): 2.0})
    s, r, w = g.directed_edge_arrays()
    pairs = sorted(zip(s.tolist(), r.tolist(), w.tolist()))
    assert pairs == [(0, 1, 0.5), (1, 0, 0.5), (1, 2, 2.0), (2, 1, 2.0)]


def test_average_edge_weight():
    g = build(3, {(0, 1): 1.0, (1, 2): 3.0})
    assert average_edge_weight(g) == 2.0
    with pytest.raises(GraphError):
        average_edge_weight(WeightedGraph(3))


def _scaled_network(fixture, nodes, seed):
    return _graph_for(dataclasses.replace(load_fixture(fixture).network, nodes=nodes), seed)


@pytest.mark.parametrize(
    "graph",
    [
        lambda: _scaled_network("fig9", 25, 1),
        lambda: _scaled_network("fig2", 484, 2),
        lambda: _scaled_network("fig2", 4840, 3),
        lambda: WeightedGraph(7, [(1, 2, 0.3), (1, 4, 0.7), (2, 4, 0.1), (4, 5, 0.9), (4, 6, 0.2)]),  # 0 and 3 isolated
    ],
    ids=["25", "484", "4840", "isolated-nodes"],
)
def test_array_utility_and_average_weight_match_the_sequential_loops_bit_for_bit(graph):
    g = graph()
    assert np.array_equal(coauthor_utility(g), oracles.sequential_utility(g))
    assert average_edge_weight(g) == oracles.sequential_average_weight(g)


def _state(g):
    return (*g.directed_edge_arrays(), g._indptr)


def test_add_edge_equals_a_full_rebuild():
    g = _scaled_network("fig9", 25, 4)
    missing = [(u, v) for u in range(25) for v in range(u + 1, 25) if not g.has_edge(u, v)]
    for u, v in (missing[0], missing[len(missing) // 2], missing[-1][::-1]):
        added, rebuilt = add_edge(g, u, v, 0.25), WeightedGraph(25, [*g.edges(), (u, v, 0.25)])
        assert all(np.array_equal(a, b) for a, b in zip(_state(added), _state(rebuilt)))
    empty = add_edge(WeightedGraph(4), 3, 1, 2.0)
    assert all(np.array_equal(a, b) for a, b in zip(_state(empty), _state(WeightedGraph(4, [(1, 3, 2.0)]))))


@pytest.mark.parametrize("n, k, p, seed", [(8, 2, 0.0, 0), (30, 4, 0.3, 7), (60, 6, 1.0, 2), (484, 4, 0.1, 11), (5, 4, 0.5, 3)])
def test_generator_arrays_equal_the_tuple_constructor_path(n, k, p, seed):
    g = generate_watts_strogatz(n, k, p, np.random.default_rng(seed))
    reference = WeightedGraph(n, oracles.tuple_watts_strogatz(n, k, p, np.random.default_rng(seed)))
    assert all(np.array_equal(a, b) for a, b in zip(_state(g), _state(reference)))


# -- small-world generator ---------------------------------------------------


def test_ring_lattice_exact_when_p_zero():
    rng = np.random.default_rng(0)
    g = generate_watts_strogatz(8, 4, 0.0, rng)
    expected = set()
    for u in range(8):
        for j in (1, 2):
            a, b = u, (u + j) % 8
            expected.add((min(a, b), max(a, b)))
    assert {(u, v) for u, v, _ in g.edges()} == expected
    assert all(w == 1.0 for _, _, w in g.edges())


def test_ws_edge_count_invariant_across_rewiring():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(6, 40))
        k = int(rng.integers(1, min(n // 2, 5))) * 2
        g = generate_watts_strogatz(n, k, float(rng.uniform(0, 1)), rng)
        assert g.edge_count == n * k // 2


def test_ws_deterministic_per_seed():
    a = generate_watts_strogatz(30, 4, 0.3, np.random.default_rng(7))
    b = generate_watts_strogatz(30, 4, 0.3, np.random.default_rng(7))
    assert list(a.edges()) == list(b.edges())
    c = generate_watts_strogatz(30, 4, 0.3, np.random.default_rng(8))
    assert list(a.edges()) != list(c.edges())


def test_ws_saturated_node_keeps_lattice_edge():
    # triangle: every node already adjacent to all others, so p=1 changes nothing
    g = generate_watts_strogatz(3, 2, 1.0, np.random.default_rng(5))
    assert {(u, v) for u, v, _ in g.edges()} == {(0, 1), (0, 2), (1, 2)}


def test_ws_parameter_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(GraphError):
        generate_watts_strogatz(10, 3, 0.1, rng)  # odd k
    with pytest.raises(GraphError):
        generate_watts_strogatz(4, 4, 0.1, rng)  # k >= n
    with pytest.raises(GraphError):
        generate_watts_strogatz(10, 4, 1.5, rng)


def test_assign_weights_deterministic_and_validated():
    g = generate_watts_strogatz(20, 4, 0.2, np.random.default_rng(1))
    spec = WeightSpec.uniform(0.1, 0.9)
    a = assign_weights(g, spec, np.random.default_rng(3))
    b = assign_weights(g, spec, np.random.default_rng(3))
    assert list(a.edges()) == list(b.edges())
    assert all(0.1 <= w <= 0.9 for _, _, w in a.edges())
    const = assign_weights(g, WeightSpec.constant(0.4), np.random.default_rng(0))
    assert all(w == 0.4 for _, _, w in const.edges())
    with pytest.raises(GraphError):
        WeightSpec.uniform(0.0, 1.0).validate()
    with pytest.raises(GraphError):
        WeightSpec.uniform(0.8, 0.2).validate()


def test_assign_weights_reuses_the_topology_and_rejects_non_finite_draws():
    g = generate_watts_strogatz(40, 6, 0.3, np.random.default_rng(5))
    weighted = assign_weights(g, WeightSpec.uniform(0.1, 0.9), np.random.default_rng(6))
    draws = WeightSpec.uniform(0.1, 0.9).draw(g.edge_count, np.random.default_rng(6)).tolist()
    rebuilt = WeightedGraph(40, [(u, v, w) for (u, v, _), w in zip(g.edges(), draws)])
    assert list(weighted.edges()) == list(rebuilt.edges())
    for mine, theirs in zip(weighted.directed_edge_arrays(), rebuilt.directed_edge_arrays()):
        assert np.array_equal(mine, theirs) and not mine.flags.writeable
    assert all(weighted.neighbors(v) == rebuilt.neighbors(v) for v in range(40))
    assert weighted.weight(7, weighted.neighbors(7)[0]) == rebuilt.weight(7, rebuilt.neighbors(7)[0])
    assert all(np.shares_memory(a, b) for a, b in zip(weighted.directed_edge_arrays()[:2], g.directed_edge_arrays()[:2]))
    for spec in (WeightSpec.constant(math.inf), WeightSpec.uniform(1.0, math.inf), WeightSpec.uniform(1.0, math.nan)):
        with pytest.raises(GraphError, match="finite"):
            assign_weights(g, spec, np.random.default_rng(0))


# -- distances and centralities ------------------------------------------------


def test_distance_uses_inverse_weight():
    # strong ties are short: d(0,2) = 1/1 + 1/0.5 = 3
    g = path3(1.0, 0.5)
    assert weighted_closeness_all(g)[0] == pytest.approx(2.0 / (1.0 + 3.0))


def test_closeness_hand_values():
    g = path3()
    assert weighted_closeness_all(g)[0] == pytest.approx(2.0 / 3.0)
    assert weighted_closeness_all(g)[1] == pytest.approx(1.0)
    assert weighted_closeness_all(WeightedGraph(1))[0] == 0.0


def test_closeness_disconnected_falls_back_to_harmonic():
    g = build(4, {(0, 1): 1.0, (2, 3): 0.5})
    # node 0 reaches only node 1 at distance 1
    assert weighted_closeness_all(g)[0] == pytest.approx(1.0)
    assert weighted_closeness_all(g)[2] == pytest.approx(0.5)


def test_betweenness_hand_values():
    assert weighted_betweenness_all(path3())[1] == pytest.approx(1.0)
    assert weighted_betweenness_all(path3())[0] == 0.0
    tri = build(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})
    assert weighted_betweenness_all(tri)[0] == 0.0
    star = build(4, {(0, 1): 1.0, (0, 2): 1.0, (0, 3): 1.0})
    assert weighted_betweenness_all(star)[0] == pytest.approx(3.0)


def test_betweenness_splits_over_equal_paths():
    # two parallel 2-hop routes between 0 and 2 share the credit
    g = build(4, {(0, 1): 1.0, (1, 2): 1.0, (0, 3): 1.0, (2, 3): 1.0})
    assert weighted_betweenness_all(g)[1] == pytest.approx(0.5)
    assert weighted_betweenness_all(g)[3] == pytest.approx(0.5)


def test_centralities_are_pinned_bit_for_bit_on_the_fig2_graph():
    # These floats decide the closeness and betweenness role holders of the
    # expert fixtures, so any change to the summation order shows up here.
    g = _graph_for(load_fixture("fig2").network, 1)
    digests = [hashlib.sha256(f(g).tobytes()).hexdigest() for f in (weighted_closeness_all, weighted_betweenness_all)]
    assert digests == [
        "e5277c6c57c1cc65de528483417460b15b0cd73bb6838947040b102d763102d2",
        "a917eff9c6cedff62064ea2c0949ad28d5abdd41b9fe30beccde81c03f30f1bb",
    ]


@pytest.mark.parametrize(
    "graph, digests",
    [
        (
            lambda: _graph_for(load_fixture("fig2").network, 2),
            [
                "95640ada5cb9228a1a1b3a6dc05403f3c8fd8097f0a0298619733cc185a284be",
                "1be30c0c7fcc40467747f628f1605f45a4508c4bc4fca96ee2694fdffb20d3bc",
            ],
        ),
        (
            lambda: _graph_for(load_fixture("fig2").network, 3),
            [
                "181124968b3936677ea9bf0071420b7e1660317b5b61f56d212b0bfc6e3e6a39",
                "431a261d73ae5ba71ebacfb413c2dc6d5c04089c7b59e368aeceae5f17a92232",
            ],
        ),
        (  # every weight 1.0, so equal-length paths and tied scores abound
            lambda: generate_watts_strogatz(120, 4, 0.2, np.random.default_rng(3)),
            [
                "64e7024bfe2a97622c21fb9e64deb1ec1e498123b175902755821f358f4120c8",
                "9346bf644cf8d24d562973374a0a83a964622d7a852f7f071442de781df28846",
            ],
        ),
    ],
    ids=["fig2-seed2", "fig2-seed3", "constant-weights"],
)
def test_centralities_are_pinned_bit_for_bit_on_more_graphs(graph, digests):
    g = graph()
    assert [hashlib.sha256(f(g).tobytes()).hexdigest() for f in (weighted_closeness_all, weighted_betweenness_all)] == digests


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 8))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    # Weights from a small set make equal-length paths, so the tie branch of
    # the relaxation (and with it the order of sigma and preds) is exercised.
    # A weight of 1e300 beside O(1) ones gives a distance that absorbs an
    # edge (fl(d + 1e-300) == d), which sends the sweep to the heap loop.
    weight = draw(
        st.sampled_from(
            [st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.01, 10.0), st.sampled_from([0.5, 1.0, 1e300])]
        )
    )
    return WeightedGraph(n, [(u, v, draw(weight)) for (u, v), k in zip(pairs, keep) if k])


ABSORBING = WeightedGraph(5, [(0, 1, 1.0), (1, 2, 1e300), (2, 3, 0.5), (1, 3, 1.0), (3, 4, 1e300)])


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.sampled_from([1, 6, 20, netgraph._BLOCK_ELEMENTS]))
@example(WeightedGraph(5), 20)  # edgeless
@example(WeightedGraph(6, [(0, 1, 1.0), (1, 2, 0.5), (3, 4, 2.0), (4, 5, 1.0), (3, 5, 1.0)]), 20)  # two components
@example(WeightedGraph(4, [(0, 1, 1.0), (1, 2, 0.0), (2, 3, 1.0), (0, 3, 2.0)]), 20)  # a zero-weight edge
@example(ABSORBING, netgraph._BLOCK_ELEMENTS)  # the heap loop
@example(WeightedGraph(7, [(u, v, 1.0) for u, v in itertools.combinations(range(7), 2) if (u + v) % 3]), 6)  # one source per block
@example(WeightedGraph(8, [(u, (u + 1) % 8, 0.5 + u % 3) for u in range(8)]), 20)  # blocks of two sources
@example(  # seen from node 2, its successors 7, 1 and 6 settle in one round, 6 nearest
    WeightedGraph(8, [(0, 2, 0.7), (0, 3, 0.7), (0, 4, 0.3), (1, 2, 0.3), (1, 3, 0.3), (1, 4, 0.7), (2, 5, 0.7), (2, 6, 1 / 3), (2, 7, 0.3)]),
    netgraph._BLOCK_ELEMENTS,
)
def test_one_sweep_matches_the_two_sweep_reference_bit_for_bit(g, budget):
    # The budget sets how many sources a block sweeps at once: budget // n.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(netgraph, "_BLOCK_ELEMENTS", budget)
        closeness, betweenness = netgraph._centralities(g)
    assert np.array_equal(closeness, oracles.two_sweep_closeness_all(g))
    assert np.array_equal(betweenness, oracles.two_sweep_betweenness_all(g))


def test_one_sweep_matches_the_reference_where_distances_tie_in_every_round():
    # The inverses of these weights round, and with 40 nodes many paths of
    # different hops tie in length: rounds then pass back large groups of
    # shares that must keep (distance, id) order.
    rnd = random.Random(1)
    pairs = [(u, v) for u, v in itertools.combinations(range(40), 2) if rnd.random() < 0.3]
    g = WeightedGraph(40, [(u, v, rnd.choice([0.1, 0.2, 0.3, 1 / 3, 0.7])) for u, v in pairs])
    assert np.array_equal(weighted_closeness_all(g), oracles.two_sweep_closeness_all(g))
    assert np.array_equal(weighted_betweenness_all(g), oracles.two_sweep_betweenness_all(g))


def test_only_a_graph_whose_distances_absorb_an_edge_takes_the_heap_loop(monkeypatch):
    heap_sweeps = []
    heap_sweep = netgraph._heap_sweep
    monkeypatch.setattr(netgraph, "_heap_sweep", lambda g: heap_sweeps.append(g) or heap_sweep(g))
    for g in (ABSORBING, _graph_for(load_fixture("fig2").network, 1), WeightedGraph(3, [(0, 1, 1e300), (1, 2, 1e300)])):
        weighted_closeness_all(g)
    # 1 + 1e-300 == 1; 1e-300 + 1e-300 is exact, so the third graph stays in the blocks.
    assert heap_sweeps == [ABSORBING]


def _counts_past_2_53() -> tuple[WeightedGraph, int, list[int]]:
    """A graph whose node ``u`` has three predecessors with path counts past 2**53.

    Seen from node 0, 34 diamonds of width 3 make about 3**34 paths, and three
    branches end in predecessors of ``u`` with ids opposite to their
    distance order. Adding their counts in id order gives another float.
    """
    edges: list[tuple[int, int, float]] = []
    size = 1

    def diamond(hub: int, width: int) -> int:
        nonlocal size
        end = size + width
        edges.extend(e for k in range(size, end) for e in ((hub, k, 1.0), (k, end, 1.0)))
        size = end + 1
        return end

    def chain(node: int, length: int) -> int:
        nonlocal size
        for _ in range(length):
            edges.append((node, size, 1.0))
            node, size = size, size + 1
        return node

    hub = 0
    for _ in range(34):
        hub = diamond(hub, 3)
    preds = [chain(diamond(hub, width), extra) for width, extra in ((3, 3), (2, 2), (2, 0))]
    u = size
    edges += [(preds[0], u, 1.0), (preds[1], u, 0.5), (preds[2], u, 0.25)]
    return WeightedGraph(u + 1, edges), u, preds


def test_path_counts_past_2_53_are_summed_in_the_heap_order():
    g, u, preds = _counts_past_2_53()
    n = g.node_count
    sweep = netgraph._BlockSweep(g, n)
    assert sweep.settle(np.arange(n))
    adj = oracles._inverse_adjacency(g)
    for s in range(n):
        dist, sigma, _, _ = oracles._dijkstra(adj, s)
        assert np.array_equal(sweep.dist[s * n : (s + 1) * n], dist)
        assert np.array_equal(sweep.sigma[s * n : (s + 1) * n], sigma)
    dist, sigma, _, _ = oracles._dijkstra(adj, 0)
    assert sigma[u] > 2**53 and sigma[preds[0]] + sigma[preds[1]] + sigma[preds[2]] != sigma[u]
    assert [dist[p] for p in preds] == [dist[u] - 1.0, dist[u] - 2.0, dist[u] - 4.0]
    assert np.array_equal(weighted_betweenness_all(g), oracles.two_sweep_betweenness_all(g))


def test_one_sweep_per_graph_serves_both_centralities(monkeypatch):
    sweeps = []
    sweep = netgraph._centralities
    monkeypatch.setattr(netgraph, "_centralities", lambda g: sweeps.append(g) or sweep(g))
    g = build(4, {(0, 1): 1.0, (1, 2): 0.5, (2, 3): 2.0})
    closeness, betweenness = weighted_closeness_all(g), weighted_betweenness_all(g)
    assert sweeps == [g]
    assert np.array_equal(weighted_closeness_all(g), closeness) and sweeps == [g]
    # Graphs derived from g are new values and sweep for themselves.
    for derived in (add_edge(g, 0, 3, 1.0), apply_facilitator(g, [1], 2.0)):
        weighted_betweenness_all(derived)
        weighted_closeness_all(derived)
        assert sweeps[-1] is derived
    assert len(sweeps) == 3
    assert not np.array_equal(weighted_betweenness_all(sweeps[1]), betweenness)
    assert not np.array_equal(weighted_closeness_all(sweeps[2]), closeness)


def test_returned_centralities_are_copies():
    g = path3(1.0, 0.5)
    closeness, betweenness = weighted_closeness_all(g), weighted_betweenness_all(g)
    kept = closeness.copy(), betweenness.copy()
    closeness[:] = -1.0
    betweenness[:] = -1.0
    assert np.array_equal(weighted_closeness_all(g), kept[0])
    assert np.array_equal(weighted_betweenness_all(g), kept[1])


def test_coauthor_utility_hand_values():
    tri = build(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})
    for v in range(3):
        assert coauthor_utility(tri)[v] == pytest.approx(2.5)
    g = path3()
    assert coauthor_utility(g)[1] == pytest.approx(4.0)
    assert coauthor_utility(g)[0] == pytest.approx(2.0)
    assert coauthor_utility(build(2, {}))[0] == 0.0


def test_utility_of_a_star_matches_the_oracle_in_memory_linear_in_the_edges():
    star = WeightedGraph(2000, [(0, v, 1.0) for v in range(1, 2000)])
    tracemalloc.start()
    try:
        utility = coauthor_utility(star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(utility, oracles.sequential_utility(star))
    assert peak < 2 * 2**20  # a node-by-degree matrix would take 30 MiB


def test_utility_ignores_weights():
    a = path3(1.0, 1.0)
    b = path3(0.2, 5.0)
    for v in range(3):
        assert coauthor_utility(a)[v] == coauthor_utility(b)[v]


# -- hop-shortest paths ---------------------------------------------------------


def test_hop_path_prefers_fewest_hops():
    # direct weak edge beats a strong 2-hop detour
    g = build(3, {(0, 2): 0.1, (0, 1): 5.0, (1, 2): 5.0})
    assert shortest_hop_path(g, 0, 2).nodes == (0, 2)


def test_hop_path_breaks_hop_ties_by_score_then_lex():
    sq = build(4, {(0, 1): 1.0, (1, 2): 1.0, (0, 3): 1.0, (2, 3): 1.0})
    assert shortest_hop_path(sq, 0, 2).nodes == (0, 1, 2)  # lexicographic tie
    scored = build(4, {(0, 1): 1.0, (1, 2): 1.0, (0, 3): 2.0, (2, 3): 2.0})
    assert shortest_hop_path(scored, 0, 2).nodes == (0, 3, 2)


def test_hop_path_custom_score_and_result_shape():
    g = build(4, {(0, 1): 1.0, (1, 2): 1.0, (0, 3): 1.0, (2, 3): 1.0})
    res = shortest_hop_path(g, 0, 2, edge_score=lambda a, b: float(a + b))
    assert res.nodes == (0, 3, 2)
    assert res.hop_length == 3
    assert res.edge_count == 2


def test_hop_path_unreachable_and_bad_endpoints():
    g = build(4, {(0, 1): 1.0, (2, 3): 1.0})
    assert shortest_hop_path(g, 0, 3) is None
    with pytest.raises(GraphError):
        shortest_hop_path(g, 1, 1)


# -- oracle spot checks (the exhaustive sweep lives in the acceptance suite) -----


def _as_graph(n, edges, weights):
    g = WeightedGraph(n)
    for e in edges:
        g = add_edge(g, e[0], e[1], weights[e])
    return g


def test_metrics_match_oracles_on_all_four_node_graphs():
    rnd = random.Random(11)
    for edges in oracles.all_connected_graphs(4):
        weights = {e: rnd.choice([0.25, 0.5, 1.0, 2.0]) for e in edges}
        g = _as_graph(4, edges, weights)
        adj = oracles.adjacency(4, weights)
        closeness = weighted_closeness_all(g)
        betweenness = weighted_betweenness_all(g)
        for v in range(4):
            assert g.degree(v) == oracles.oracle_degree(adj, v)
            assert closeness[v] == pytest.approx(
                oracles.oracle_closeness(4, adj, v), rel=1e-12
            )
            assert betweenness[v] == pytest.approx(
                oracles.oracle_betweenness(4, adj, v), rel=1e-12, abs=1e-12
            )
            assert coauthor_utility(g)[v] == pytest.approx(
                oracles.oracle_utility(adj, v), rel=1e-12
            )


def test_hop_paths_match_oracle_on_random_five_node_graphs():
    rnd = random.Random(23)
    for _ in range(40):
        edges = oracles.random_connected_graph(5, rnd)
        weights = {e: rnd.choice([0.5, 1.0, 2.0]) for e in edges}
        g = _as_graph(5, edges, weights)
        adj = oracles.adjacency(5, weights)
        for s in range(5):
            for t in range(5):
                if s == t:
                    continue
                got = shortest_hop_path(g, s, t)
                assert got.nodes == oracles.oracle_hop_path(5, adj, s, t)


# -- interchange --------------------------------------------------------------


def test_edge_list_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    g = assign_weights(generate_watts_strogatz(16, 4, 0.25, rng), WeightSpec.uniform(0.1, 1.0), rng)
    p = tmp_path / "net.txt"
    write_edge_list(g, p)
    h = read_edge_list(p)
    assert h.node_count == g.node_count
    assert list(h.edges()) == list(g.edges())  # repr floats survive exactly


def test_edge_list_diagnostics(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0,1,0.5\n")
    with pytest.raises(GraphError, match="header"):
        read_edge_list(p)
    p.write_text("# nodes=3\n0,1\n")
    with pytest.raises(GraphError, match="line 2"):
        read_edge_list(p)
    for weight in ("inf", "-0.5"):
        p.write_text(f"# nodes=3\n0,1,{weight}\n")
        with pytest.raises(GraphError, match="line 2.*finite and >= 0"):
            read_edge_list(p)
    # the first rejected edge in file order is the one named
    for body, message in [
        ("0,1,1.0\n2,2,1.0\n1,0,2.0\n", r"line 3: edge \(2, 2, 1.0\) rejected: self-loop"),
        ("0,1,1.0\n1,0,1.0\n0,1,1.0\n1,0,1.0\n", r"line 3: edge \(1, 0, 1.0\) rejected: edge already exists"),
        ("0,1,1.0\n1,2,1.0\n1,0,2.0\n0,7,1.0\n", r"line 4: edge \(1, 0, 2.0\) rejected: edge already exists"),
        (f"0,1,1.0\n0,{10**30},1.0\n", rf"line 3: edge \(0, {10**30}, 1.0\) rejected: unknown node"),
        ("0,1,1.0\n-1,2,1.0\n0,2,1.0\n", r"line 3: edge \(-1, 2, 1.0\) rejected: unknown node"),
    ]:
        p.write_text("# nodes=3\n" + body)
        with pytest.raises(GraphError, match=f"bad.txt: {message}"):
            read_edge_list(p)
    p.write_text("# nodes=-1\n")
    with pytest.raises(GraphError, match="bad.txt: node count must be >= 0"):
        read_edge_list(p)


def test_isolated_nodes_survive_round_trip(tmp_path):
    g = build(5, {(0, 1): 1.0})
    p = tmp_path / "sparse.txt"
    write_edge_list(g, p)
    assert read_edge_list(p).node_count == 5
