"""Interest communities: detection, knowledge energy, transfer efficiency, and
the tie accelerator."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowflow import (
    Community,
    CommunityError,
    Population,
    WeightedGraph,
    accelerate_loop,
    add_edge,
    assign_weights,
    detect_communities,
    energy_ranking,
    generate_watts_strogatz,
    init_workers,
    jaccard_similarity,
    knowledge_energy,
    shortest_hop_path,
    transfer_efficiency,
)

import oracles


def population_with(masks, competences=None, social=None, cognitive=None):
    masks = np.asarray(masks, dtype=float)
    n, m = masks.shape
    comp = np.ones((n, m)) if competences is None else np.asarray(competences, dtype=float)
    soc = np.full(n, 0.5) if social is None else np.asarray(social, dtype=float)
    cog = np.full(n, 0.5) if cognitive is None else np.asarray(cognitive, dtype=float)
    return Population(comp, masks, cog, soc, np.zeros(n))


# -- similarity and detection ---------------------------------------------------


def test_jaccard_hand_values():
    assert jaccard_similarity(np.array([1, 1, 0]), np.array([1, 0, 1])) == pytest.approx(1 / 3)
    assert jaccard_similarity(np.array([1, 0]), np.array([1, 0])) == 1.0
    assert jaccard_similarity(np.zeros(3), np.zeros(3)) == 1.0  # empty interests agree


@pytest.mark.parametrize("b", [np.ones(1), np.ones(2), np.ones((3, 1))])
def test_jaccard_masks_must_share_a_shape(b):
    with pytest.raises(CommunityError, match=f"^{re.escape(f'b: expected shape (3,), got {b.shape}')}$"):
        jaccard_similarity(np.ones(3), b)


@pytest.mark.parametrize("a, b, name", [("ab", "cd", "a"), ([1, 0], "cd", "b"), ([1, 0], [[1], [0, 1]], "b")])
def test_jaccard_masks_must_be_arrays_of_numbers(a, b, name):
    message = f"{name}: expected a rectangular array of numbers, got {({'a': a, 'b': b}[name])!r}"
    with pytest.raises(CommunityError, match=f"^{re.escape(message)}$"):
        jaccard_similarity(a, b)


def test_fixture_communities():
    pop = population_with(np.ones((6, 4)))
    out = detect_communities(pop, method="fixture", fixture=[((0, 2, 4), (1,)), ((1, 3), (0, 3))])
    assert [c.members for c in out] == [(0, 2, 4), (1, 3)]
    assert out[0].core_mask.tolist() == [0.0, 1.0, 0.0, 0.0]
    assert out[1].core_mask.tolist() == [1.0, 0.0, 0.0, 1.0]
    assert [c.id for c in out] == [0, 1]


def test_fixture_validation():
    pop = population_with(np.ones((4, 3)))
    for fixture, message in [
        (None, "fixture: expected a non-empty list"),
        ([], "fixture: expected a non-empty list"),
        (5, "fixture: expected a non-empty list"),
        ([(0, 1, 2)], "fixture[0]: expected a (members, core) pair"),
        ([((0, 1),)], "fixture[0]: expected a (members, core) pair"),
        ([((0, 9), (0,))], "fixture[0].members[1]: must be < 4, got 9"),
        ([((0, 1), (5,))], "fixture[0].core[0]: must be < 3, got 5"),
        ([((0, 0), (0,))], "fixture[0].members[1]: duplicate member 0; entries must be unique"),
        ([((0,), ()), ((), (0,))], "fixture[1].members: expected a non-empty list"),
    ]:
        with pytest.raises(CommunityError, match=f"^{re.escape(message)}$"):
            detect_communities(pop, method="fixture", fixture=fixture)
    expected = "method: expected one of ['fixture', 'jaccard'], got 'louvain'"
    with pytest.raises(CommunityError, match=f"^{re.escape(expected)}$"):
        detect_communities(pop, method="louvain")


def test_fixture_ids_are_integers():
    pop = population_with(np.ones((4, 3)))
    for members, core, message in [
        ([0, 1.5], [0], "fixture[0].members[1]: expected an integer, got 1.5"),
        ([True, 1], [0], "fixture[0].members[0]: expected an integer, got True"),
        ([0, 1], [0.7], "fixture[0].core[0]: expected an integer, got 0.7"),
        ([0, 1], [True], "fixture[0].core[0]: expected an integer, got True"),
    ]:
        with pytest.raises(CommunityError, match=f"^{re.escape(message)}$"):
            detect_communities(pop, method="fixture", fixture=[(members, core)])
    (community,) = detect_communities(pop, method="fixture", fixture=[([np.int64(2), 0], [np.int32(1)])])
    assert community.members == (0, 2) and all(type(v) is int for v in community.members)
    assert community.core_mask.tolist() == [0.0, 1.0, 0.0]


def test_jaccard_detection_groups_shared_interests():
    masks = [
        [1, 1, 0, 0],
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 1, 1],
        [1, 1, 0, 0],
    ]
    out = detect_communities(population_with(masks), threshold=0.5)
    assert [c.members for c in out] == [(0, 1, 4), (2, 3)]
    assert out[0].core_mask.tolist() == [1, 1, 0, 0]


def test_jaccard_detection_allows_overlap():
    masks = [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [1, 1, 1, 1],  # half-similar to both cores
    ]
    out = detect_communities(population_with(masks), threshold=0.5)
    assert [c.members for c in out] == [(0, 2), (1, 2)]


def test_majority_core_rule():
    masks = [[1, 1, 0], [1, 0, 0], [1, 0, 1]]
    out = detect_communities(
        population_with(masks), threshold=0.1, core_rule="majority", core_theta=0.5
    )
    assert len(out) == 1
    assert out[0].core_mask.tolist() == [1.0, 0.0, 0.0]
    with pytest.raises(CommunityError):
        detect_communities(population_with(masks), core_rule="majority", core_theta=0.0)
    with pytest.raises(CommunityError):
        detect_communities(population_with(masks), core_rule="plurality")
    with pytest.raises(CommunityError):
        detect_communities(population_with(masks), threshold=1.5)


# -- energy and efficiency ------------------------------------------------------


def test_knowledge_energy_hand_value():
    pop = population_with(np.ones((1, 3)), competences=[[2.0, 3.0, 4.0]])
    # (2 + 4) * 0.5 * 0.5
    assert knowledge_energy(pop, 0, np.array([1.0, 0.0, 1.0])) == pytest.approx(1.5)
    with pytest.raises(CommunityError):
        knowledge_energy(pop, 0, np.array([1.0, 0.0]))
    with pytest.raises(CommunityError, match="^core_mask: expected a rectangular array of numbers, got 'ab'$"):
        knowledge_energy(pop, 0, "ab")


def test_knowledge_energy_takes_only_integer_ids():
    pop = population_with(np.ones((4, 1)), competences=[[1.0], [2.0], [3.0], [4.0]])
    assert knowledge_energy(pop, np.int64(3), np.ones(1)) == knowledge_energy(pop, 3, np.ones(1)) == 1.0
    for bad, rule in ((1.5, "expected an integer"), (True, "expected an integer"),
                      (np.float64(2.0), "expected an integer"), (-1, "must be >= 0"), (4, "must be < 4")):
        with pytest.raises(CommunityError, match=f"^{re.escape(f'v: {rule}, got {bad!r}')}$"):
            knowledge_energy(pop, bad, np.ones(1))
    with pytest.raises(CommunityError, match=re.escape("v: must be < 4, got 4")):
        energy_ranking(Community(id=0, members=(0, 4), core_mask=np.ones(1)), pop)


def test_energy_ranking_breaks_ties_by_id():
    pop = population_with(
        np.ones((3, 2)), competences=[[1.0, 0.0], [3.0, 0.0], [1.0, 0.0]]
    )
    community = Community(id=0, members=(0, 1, 2), core_mask=np.array([1.0, 0.0]))
    assert energy_ranking(community, pop) == [
        (1, pytest.approx(0.75)),
        (0, pytest.approx(0.25)),
        (2, pytest.approx(0.25)),
    ]


def test_edge_efficiency_hand_value():
    pop = population_with(np.ones((2, 1)))
    g = add_edge(WeightedGraph(2), 0, 1, 0.8)
    assert oracles.edge_efficiency(g, pop, 0, 1) == pytest.approx(0.2)  # 0.5 * 0.8 * 0.5
    assert transfer_efficiency(g, pop, 0, 1) == oracles.edge_efficiency(g, pop, 0, 1)


def test_transfer_efficiency_division_modes():
    # chain 0-1-2 with per-edge transfer scores 0.2 and 0.1
    pop = population_with(
        np.ones((3, 1)),
        social=[0.5, 0.25, 0.5],
        cognitive=[0.5, 0.8, 0.8],
    )
    g = add_edge(add_edge(WeightedGraph(3), 0, 1, 0.5), 1, 2, 0.5)
    # 0.5*0.5*0.8 = 0.2, then 0.25*0.5*0.8 = 0.1
    assert transfer_efficiency(g, pop, 0, 2) == pytest.approx(0.3 / 4)
    assert transfer_efficiency(g, pop, 0, 2, single_division=True) == pytest.approx(0.3 / 2)
    # one hop reduces to the plain edge efficiency in either mode
    assert transfer_efficiency(g, pop, 0, 1) == pytest.approx(oracles.edge_efficiency(g, pop, 0, 1))
    assert transfer_efficiency(g, pop, 0, 1, single_division=True) == pytest.approx(
        oracles.edge_efficiency(g, pop, 0, 1)
    )


def test_transfer_efficiency_unreachable_is_none():
    pop = population_with(np.ones((3, 1)))
    g = add_edge(WeightedGraph(3), 0, 1, 1.0)
    assert transfer_efficiency(g, pop, 0, 2) is None


def test_transfer_route_maximizes_transfer_score_not_weight():
    # two 2-hop routes from 0 to 2; the relay's cognitive ability decides
    pop = population_with(
        np.ones((4, 1)),
        social=[0.5, 0.5, 0.5, 0.5],
        cognitive=[0.5, 0.1, 0.5, 0.9],
    )
    g = WeightedGraph(4)
    for u, v in ((0, 1), (1, 2), (0, 3), (3, 2)):
        g = add_edge(g, u, v, 1.0)
    via_3 = (0.5 * 1.0 * 0.9) + (0.5 * 1.0 * 0.5)
    assert transfer_efficiency(g, pop, 0, 2) == pytest.approx(via_3 / 4)


@st.composite
def scored_graphs(draw):
    """A graph on 2-8 nodes and a population of its size, from value sets that make equal path sums likely."""
    n = draw(st.integers(2, 8))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    weight = draw(st.sampled_from([st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.01, 10.0)]))
    ability = draw(st.sampled_from([st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.0, 1.0)]))
    g = WeightedGraph(n, [(u, v, draw(weight)) for (u, v), k in zip(pairs, keep) if k])
    social, cognitive = ([draw(ability) for _ in range(n)] for _ in range(2))
    return g, population_with(np.ones((n, 1)), social=social, cognitive=cognitive)


@settings(max_examples=40, deadline=None)
@given(scored_graphs())
def test_array_scored_paths_equal_the_callable_scored_oracle_bit_for_bit(case):
    g, pop = case
    for u, v in itertools.permutations(range(g.node_count), 2):
        path = shortest_hop_path(g, u, v)
        want = oracles.callable_hop_path(g, u, v)
        assert path == (None if want is None else (want, oracles.path_score(want, g.weight)))
        for single in (False, True):
            got = transfer_efficiency(g, pop, u, v, single_division=single)
            assert got == oracles.resummed_transfer_efficiency(g, pop, u, v, single_division=single)


def test_community_functions_need_one_worker_per_node():
    g = add_edge(add_edge(add_edge(WeightedGraph(4), 0, 1, 1.0), 1, 2, 1.0), 2, 3, 1.0)
    community = Community(id=0, members=(0, 1, 2), core_mask=np.array([1.0]))
    for size in (3, 5):
        pop = population_with(np.ones((size, 1)), competences=[[float(size - i)] for i in range(size)])
        message = f"population has {size} workers but the graph has 4 nodes"
        calls = [
            lambda: transfer_efficiency(g, pop, 0, 3),
            lambda: accelerate_loop(community, g, pop, budget=1),
            lambda: accelerate_loop(community, g, pop, budget=0),
        ]
        for call in calls:
            with pytest.raises(CommunityError, match=message):
                call()


# -- the accelerator ------------------------------------------------------------


def accelerate(community, g, pop, **options):
    """The accelerator's first proposal, or None when no pair qualifies."""
    _, proposals = accelerate_loop(community, g, pop, budget=1, **options)
    return proposals[0] if proposals else None


def bridge_setup():
    """Two pairs joined by one bridge; energies strictly decreasing in id."""
    pop = population_with(
        np.ones((4, 1)),
        competences=[[4.0], [3.0], [2.0], [1.0]],
    )
    g = WeightedGraph(4)
    for u, v in ((0, 1), (2, 3), (1, 2)):
        g = add_edge(g, u, v, 1.0)
    community = Community(id=0, members=(0, 1, 2, 3), core_mask=np.array([1.0]))
    return g, pop, community


def test_accelerate_picks_least_efficient_ordered_pair():
    g, pop, community = bridge_setup()
    proposal = accelerate(community, g, pop)
    # (0, 3) runs over three hops: 0.75/9 beats the 2-hop pairs' 0.5/4
    assert set(proposal) == {"community", "from", "to", "weight", "efficiency_before"}
    assert (proposal["from"], proposal["to"]) == (0, 3)
    assert proposal["efficiency_before"] == pytest.approx(0.75 / 9)
    assert proposal["weight"] == pytest.approx(1.0)  # defaults to the average tie strength
    assert proposal["community"] == 0


def test_accelerate_tie_breaks_by_source_then_target():
    g, pop, community = bridge_setup()
    # one division flattens all candidates to 0.25, so ids decide
    proposal = accelerate(community, g, pop, single_division=True)
    assert (proposal["from"], proposal["to"]) == (0, 2)


def test_accelerate_requires_reachability_and_energy_order():
    pop = population_with(np.ones((4, 1)), competences=[[4.0], [3.0], [2.0], [1.0]])
    g = add_edge(add_edge(WeightedGraph(4), 0, 1, 1.0), 2, 3, 1.0)
    community = Community(id=0, members=(0, 1, 2, 3), core_mask=np.array([1.0]))
    assert accelerate(community, g, pop) is None  # nothing reachable across components
    flat = population_with(np.ones((3, 1)))
    g2 = add_edge(WeightedGraph(3), 0, 1, 1.0)
    c2 = Community(id=0, members=(0, 1, 2), core_mask=np.array([1.0]))
    assert accelerate(c2, g2, flat) is None  # equal energies never qualify


def test_accelerate_loop_reevaluates_after_each_tie():
    g, pop, community = bridge_setup()
    out, proposals = accelerate_loop(community, g, pop, budget=2)
    assert [(p["from"], p["to"]) for p in proposals] == [(0, 3), (0, 2)]
    assert out.has_edge(0, 3) and out.has_edge(0, 2)
    assert not g.has_edge(0, 3)  # input graph untouched


def test_accelerate_loop_budget_and_threshold():
    g, pop, community = bridge_setup()
    _, none_allowed = accelerate_loop(community, g, pop, budget=0)
    assert none_allowed == []
    # first candidate sits below 0.1, the re-evaluated second one does not
    _, stopped = accelerate_loop(community, g, pop, budget=5, min_efficiency=0.1)
    assert [(p["from"], p["to"]) for p in stopped] == [(0, 3)]
    for budget in (-1, True, np.bool_(True), 1.5, 1.0, np.float64(2.0), None):
        message = "budget: must be >= 0, got -1" if budget == -1 else f"budget: expected an integer, got {budget!r}"
        with pytest.raises(CommunityError, match=f"^{re.escape(message)}$"):
            accelerate_loop(community, g, pop, budget=budget)
    _, two = accelerate_loop(community, g, pop, budget=np.int64(2))
    assert [(p["from"], p["to"]) for p in two] == [(0, 3), (0, 2)]


def test_accelerate_loop_exhausts_candidates():
    g, pop, community = bridge_setup()
    _, proposals = accelerate_loop(community, g, pop, budget=50)
    out_pairs = {(p["from"], p["to"]) for p in proposals}
    assert out_pairs == {(0, 2), (0, 3), (1, 3)}  # every orderable non-edge, once


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_proposals_are_always_valid(seed, single):
    rng = np.random.default_rng(seed)
    g = assign_weights(generate_watts_strogatz(12, 4, 0.3, rng), (0.1, 1.0), rng)
    pop = init_workers(12, 5, (0.0, 10.0), 0.6, (0.2, 0.9), (0.2, 0.9), 0.0, rng)
    community = Community(id=0, members=tuple(range(12)), core_mask=np.array([1.0, 0, 1.0, 0, 0]))
    proposal = accelerate(community, g, pop, single_division=single)
    if proposal is not None:
        assert not g.has_edge(proposal["from"], proposal["to"])
        e_src = knowledge_energy(pop, proposal["from"], community.core_mask)
        e_dst = knowledge_energy(pop, proposal["to"], community.core_mask)
        assert e_src > e_dst
        assert proposal["weight"] > 0.0
