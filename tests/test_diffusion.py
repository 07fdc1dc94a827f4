"""Diffusion engine: broadcast/attenuate/gate kernels, the synchronous step,
collector accounting, probes, and the time series container."""

import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowflow import (
    DiffusionConfig,
    DiffusionError,
    Population,
    Probe,
    SimulationState,
    TimeSeries,
    WeightedGraph,
    add_edge,
    apply_collector,
    apply_expert,
    apply_facilitator,
    collector_probes,
    generate_watts_strogatz,
    init_workers,
    probe_average,
    probe_mask,
    probe_node,
    run,
    step,
)
from oracles import KnowledgeResource, assimilate, create_resource, reference_step, transmit


def pair_state(c_a, c_b, *, weight=0.5, social=(0.5, 0.5), cognitive=(1.0, 1.0),
               forgetting=0.0, masks=None):
    """Two workers joined by one edge; competence vectors of length 1 by default."""
    c = np.array([np.atleast_1d(c_a), np.atleast_1d(c_b)], dtype=float)
    m = np.ones_like(c) if masks is None else np.asarray(masks, dtype=float)
    pop = Population(
        c, m,
        np.asarray(cognitive, dtype=float),
        np.asarray(social, dtype=float),
        np.full(2, float(forgetting)),
    )
    g = add_edge(WeightedGraph(2), 0, 1, weight)
    return SimulationState.initial(g, pop)


def random_state(seed, n=30, k=4, p=0.3, density=0.6, forgetting=0.006):
    rng = np.random.default_rng(seed)
    lattice = generate_watts_strogatz(n, k, p, rng)
    g = WeightedGraph(n, [(u, v, float(rng.uniform(0.1, 1.0))) for u, v, _ in lattice.edges()])
    pop = init_workers(n, 8, (0.0, 10.0), density, (0.2, 0.9), (0.2, 0.9), forgetting, rng)
    return SimulationState.initial(g, pop)


# -- kernels -------------------------------------------------------------------


def test_create_resource_scales_masked_competences():
    st_ = pair_state([4.0, 6.0], [1.0, 1.0], masks=[[1, 0], [1, 1]])
    res = create_resource(st_.population.worker(0))
    assert res.sender == 0
    assert res.payload.tolist() == [2.0, 0.0]  # 0.5 * 4, mask kills the second slot


def test_transmit_attenuates_by_tie_strength():
    st_ = pair_state(4.0, 1.0, weight=0.3)
    res = create_resource(st_.population.worker(0))
    out = transmit(res, st_.graph, 0)
    assert set(out) == {1}
    assert out[1].payload.tolist() == [pytest.approx(0.6)]
    lonely = SimulationState.initial(
        WeightedGraph(1),
        Population(np.array([[1.0]]), np.array([[1.0]]), np.ones(1), np.ones(1), np.zeros(1)),
    )
    assert transmit(create_resource(lonely.population.worker(0)), lonely.graph, 0) == {}


def test_assimilate_hand_example():
    # receiver at 2.0 gets a qualifying 1.5 from a sender at 5.0:
    # 0.994 * 2 + 1.5 = 3.488
    st_ = pair_state(5.0, 2.0, forgetting=0.006)
    worker = st_.population.worker(1)
    inbox = [(KnowledgeResource(sender=0, payload=np.array([1.5])), np.array([5.0]))]
    out = assimilate(worker, inbox)
    assert out[0] == pytest.approx(3.488, rel=1e-12)


def test_assimilate_gate_is_strict_per_competence():
    st_ = pair_state([5.0, 2.0], [5.0, 1.0], forgetting=0.0)
    worker = st_.population.worker(1)
    inbox = [(KnowledgeResource(sender=0, payload=np.array([9.0, 0.5])), np.array([5.0, 2.0]))]
    out = assimilate(worker, inbox)
    assert out[0] == 5.0  # equal sender snapshot does not qualify
    assert out[1] == pytest.approx(1.5)


def test_assimilate_sums_gains_across_senders():
    st_ = pair_state(0.0, 1.0, forgetting=0.0)
    worker = st_.population.worker(1)
    inbox = [
        (KnowledgeResource(sender=0, payload=np.array([0.25])), np.array([2.0])),
        (KnowledgeResource(sender=2, payload=np.array([0.5])), np.array([3.0])),
    ]
    assert assimilate(worker, inbox)[0] == pytest.approx(1.75)


def test_assimilate_respects_receiver_mask_and_cognitive():
    state = pair_state([2.0, 2.0], [0.0, 0.0], cognitive=(1.0, 0.4), masks=[[1, 1], [1, 0]])
    worker = state.population.worker(1)
    inbox = [(KnowledgeResource(sender=0, payload=np.array([1.0, 1.0])), np.array([2.0, 2.0]))]
    out = assimilate(worker, inbox)
    assert out[0] == pytest.approx(0.4)  # cognitive ability scales the gain
    assert out[1] == 0.0  # masked-out slot ignores incoming knowledge
    flat = assimilate(worker, inbox, cognitive_gain=False)
    assert flat[0] == pytest.approx(1.0)


# -- synchronous step -------------------------------------------------------------


def test_step_matches_hand_computation():
    # sender 0: payload 0.5*4=2, attenuated to 1.0; receiver gains it fully
    state = pair_state(4.0, 1.0, weight=0.5, forgetting=0.0)
    nxt = step(state)
    assert nxt.population.competences[1, 0] == pytest.approx(2.0)
    assert nxt.population.competences[0, 0] == pytest.approx(4.0)  # nothing qualifies upstream
    assert nxt.step == 1


def test_step_no_flow_between_equals():
    state = pair_state(3.0, 3.0, forgetting=0.0)
    nxt = step(state)
    assert nxt.population.competences.tolist() == [[3.0], [3.0]]


def test_pure_decay_closed_form():
    state = random_state(1, forgetting=0.01)
    # zero masks silence every broadcast and every assimilation
    pop = state.population
    silent = Population(pop.competences.copy(), np.zeros_like(pop.masks), pop.cognitive, pop.social, pop.forgetting)
    state = SimulationState.initial(state.graph, silent)
    c0 = silent.competences.copy()
    for _ in range(100):
        state = step(state)
    expected = (1.0 - 0.01) ** 100 * c0
    assert np.allclose(state.population.competences, expected, rtol=1e-12, atol=0)


def test_step_is_immutable_on_inputs():
    state = pair_state(4.0, 1.0)
    before = state.population.competences.copy()
    step(state)
    assert np.array_equal(state.population.competences, before)
    assert state.step == 0


def test_vectorized_step_equals_reference():
    for seed in (0, 1, 2):
        state = random_state(seed)
        for _ in range(5):
            expected, _ = reference_step(state)
            state = step(state)
            assert np.array_equal(state.population.competences, expected)


def test_reference_step_order_independent():
    state = random_state(3)
    rng = np.random.default_rng(99)
    base, _ = reference_step(state)
    for _ in range(3):
        order = list(rng.permutation(len(state.population)))
        shuffled, _ = reference_step(state, node_order=order)
        assert np.array_equal(base, shuffled)
    with pytest.raises(ValueError):
        reference_step(state, node_order=[0, 0, 2])


def _kept(st_: SimulationState) -> tuple[SimulationState, np.ndarray, np.ndarray]:
    return st_, st_.population.competences.copy(), st_.collector_ledger.copy()


def test_states_stay_unchanged_after_later_steps():
    # Later steps reuse work buffers; no state handed out may change or share them.
    start = apply_collector(random_state(7), [2, 7])
    stepped = [_kept(start)]
    for _ in range(4):
        stepped.append(_kept(step(stepped[-1][0])))
    probed = []
    run(start, 4, [Probe("average_competence", "all", lambda st_: probed.append(_kept(st_)) or 0.0)])
    for kept in (stepped, probed):
        assert len(kept) == 5
        for i, (st_, competences, ledger) in enumerate(kept):
            assert np.array_equal(st_.population.competences, competences)
            assert np.array_equal(st_.collector_ledger, ledger)
            for later, _, _ in kept[i + 1:]:
                assert not np.shares_memory(st_.population.competences, later.population.competences)


# -- collectors --------------------------------------------------------------------


def test_collector_intake_accrues_raw_deliveries():
    state = pair_state(4.0, 1.0, weight=0.5, forgetting=0.0, social=(0.5, 0.0))
    state = apply_collector(state, [1])
    assert state.collectors == frozenset({1})
    state = step(state)
    assert state.collector_ledger[1] == pytest.approx(1.0)  # 0.5 * 4 * 0.5
    state = step(state)
    assert state.collector_ledger[1] == pytest.approx(2.0)


def test_collector_intake_ignores_the_gate():
    # receiver already ahead: competences only decay, yet intake still counts
    state = pair_state(1.0, 5.0, weight=0.5, forgetting=0.0, social=(0.5, 0.0))
    state = apply_collector(state, [1])
    nxt = step(state)
    assert nxt.population.competences[1, 0] == 5.0
    assert nxt.collector_ledger[1] == pytest.approx(0.25)


def test_collector_flags_do_not_alter_dynamics():
    plain = random_state(11)
    flagged = apply_collector(random_state(11), [0, 5, 9])
    for _ in range(20):
        plain = step(plain)
        flagged = step(flagged)
    assert np.array_equal(plain.population.competences, flagged.population.competences)


def test_collector_matches_reference_ledger():
    state = apply_collector(random_state(13), [2, 4])
    a = step(state)
    _, ledger = reference_step(state)
    assert np.allclose(a.collector_ledger, ledger, rtol=1e-12)


def test_collector_ledger_bytes_are_pinned():
    # Recorded from the kernel that streamed all E x m pairs; the live-pair
    # kernel sums each collector's incoming rows in the same order.
    state = apply_collector(random_state(13), [2, 4])
    for _ in range(20):
        state = step(state)
    digest = hashlib.sha256(state.collector_ledger.tobytes()).hexdigest()
    assert digest == "883516126206886b2c177b650a35d094e115efa4389a1262ff45e457d5d2b016"
    # The ledger grows to about 5e4, whose ulp hides a change in the order
    # of one step's per-row intake sum; each step's intake into a zeroed
    # ledger does not.
    state = apply_collector(random_state(13), [2, 4])
    intakes = []
    for _ in range(20):
        state = step(replace(state, collector_ledger=np.zeros_like(state.collector_ledger)))
        intakes.append(state.collector_ledger)
    digest = hashlib.sha256(np.stack(intakes).tobytes()).hexdigest()
    assert digest == "1dadf5f25908c28452c3aec2dc484ab0a76f38ab7a206ed1552222e5c6772cda"


# -- probes and series -------------------------------------------------------------


def test_probe_values():
    state = random_state(5)
    pop = state.population
    assert probe_average().measure(state) == pytest.approx(pop.competences.mean())
    assert probe_node(3).measure(state) == pytest.approx(pop.competences[3].mean())
    p = probe_mask("core", [1, 4], members=[0, 2, 6])
    assert p.scope == "mask:core"
    assert p.measure(state) == pytest.approx(pop.competences[[0, 2, 6]][:, [1, 4]].mean())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 60), st.integers(1, 30), st.booleans())
def test_probes_equal_ndarray_mean_bit_for_bit(seed, n, m, all_members):
    # The probes sum in the memory order of the selections below, so their
    # pairwise sums, and the report values, are those of ndarray.mean.
    rng = np.random.default_rng(seed)
    pop = init_workers(n, m, (0.0, 10.0), 0.6, (0.2, 0.9), (0.2, 0.9), 0.006, rng)
    state = SimulationState.initial(WeightedGraph(n), pop)
    c = pop.competences
    comps = sorted(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False).tolist())
    members = None if all_members else sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
    expected = c[:, comps].mean() if members is None else c[members][:, comps].mean()
    assert probe_mask("x", comps, members).measure(state) == float(expected)
    assert probe_average().measure(state) == float(c.mean())
    assert probe_node(n - 1).measure(state) == float(c[n - 1].mean())


def test_probes_reject_out_of_range_ids():
    state = random_state(5, n=6)
    with pytest.raises(DiffusionError, match="node id -1"):
        probe_node(-1)
    for node in (1.5, True, "2"):
        with pytest.raises(DiffusionError, match=f"node id {node!r} is not an integer"):
            probe_node(node)
    with pytest.raises(DiffusionError, match="node id 9 .* 6 workers"):
        probe_node(9).measure(state)
    with pytest.raises(DiffusionError, match="competence id -2"):
        probe_mask("x", [-2, 1])
    with pytest.raises(DiffusionError, match="node id -1"):
        probe_mask("x", [1], members=[0, -1])
    with pytest.raises(DiffusionError, match="competence id 8 .* 8 competences"):
        probe_mask("x", [1, 8]).measure(state)
    with pytest.raises(DiffusionError, match="node id 6 .* 6 workers"):
        probe_mask("x", [1], members=[2, 6]).measure(state)
    assert probe_node(5).measure(state) == probe_node(np.int64(5)).measure(state) == float(state.population.competences[5].mean())


def test_mask_probes_reject_ids_that_are_not_integers():
    state = random_state(5, n=6)
    for bad in (1.5, True, "2", np.float64(1.0)):
        with pytest.raises(DiffusionError, match=re.escape(f"competence id {bad!r} is not an integer")):
            probe_mask("x", [0, bad])
        with pytest.raises(DiffusionError, match=re.escape(f"node id {bad!r} is not an integer")):
            probe_mask("x", [0], members=[bad, 3])
    with pytest.raises(DiffusionError, match=f"competence id {2**63} is out of range"):
        probe_mask("x", [0, 2**63])
    exact = probe_mask("x", [1, 4], members=[0, 5]).measure(state)
    assert probe_mask("x", np.array([4, 1]), members=(np.int64(5), np.int32(0))).measure(state) == exact


def test_collector_probes_total_is_sum_of_parts():
    state = apply_collector(random_state(17), [1, 3, 8])
    for _ in range(10):
        state = step(state)
    probes = collector_probes([1, 3, 8])
    total = probes[0].measure(state)
    parts = [p.measure(state) for p in probes[1:]]
    assert total == pytest.approx(sum(parts))
    assert [p.scope for p in probes] == ["all", "collector:1", "collector:3", "collector:8"]


def test_timeseries_records_and_exports():
    ts = TimeSeries([("average_competence", "all"), ("collector_intake", "all")])
    ts.record(0, {("average_competence", "all"): 1.5, ("collector_intake", "all"): 0.0})
    ts.record(1, {("average_competence", "all"): 1.25, ("collector_intake", "all"): 0.5})
    assert len(ts) == 2
    assert ts.column("average_competence").tolist() == [1.5, 1.25]
    assert ts.csv_lines() == [
        "step,metric,scope,value",
        "0,average_competence,all,1.5",
        "0,collector_intake,all,0.0",
        "1,average_competence,all,1.25",
        "1,collector_intake,all,0.5",
    ]
    with pytest.raises(DiffusionError):
        ts.column("average_competence", "node:0")
    with pytest.raises(DiffusionError):
        TimeSeries([("a", "all"), ("a", "all")])


def test_run_records_initial_state_and_counts_steps():
    state = random_state(19)
    final, series = run(state, 10, [probe_average()])
    assert len(series) == 11
    assert series.steps == list(range(11))
    assert series.column("average_competence")[0] == pytest.approx(
        state.population.competences.mean()
    )
    assert final.step == 10
    _, empty = run(state, 0, [probe_average()])
    assert len(empty) == 1
    with pytest.raises(DiffusionError):
        run(state, -1, [probe_average()])


def test_run_applies_interventions_between_records():
    state = pair_state(2.0, 2.0, forgetting=0.0)

    def boost(st_: SimulationState) -> SimulationState:
        st_.population.competences[0, 0] = 7.0
        return st_

    _, series = run(state, 2, [probe_node(0)], interventions={0: boost})
    curve = series.column("average_competence", "node:0")
    assert curve[0] == 2.0  # recorded before the intervention kicks in
    assert curve[1] == 7.0
    assert curve[2] == 7.0


@pytest.mark.parametrize("role", ["facilitator", "expert", "collector"])
def test_run_matches_bare_steps_across_a_mid_run_intervention(role):
    # The run's plan must be rebuilt when an intervention changes the graph,
    # the competences or the collector set.
    nodes = [1, 4, 9]

    def intervene(st_: SimulationState) -> SimulationState:
        if role == "facilitator":
            return replace(st_, graph=apply_facilitator(st_.graph, nodes, 1.5))
        if role == "expert":
            boosted = apply_expert(st_.population, nodes, (10.0, 50.0), np.random.default_rng(5))
            return replace(st_, population=boosted)
        return apply_collector(st_, nodes)

    start = random_state(23)
    final, _ = run(start, 12, [probe_average()], interventions={5: intervene})
    state = start
    for _ in range(12):
        if state.step == 5:
            state = intervene(state)
        state = step(state)
    assert np.array_equal(final.population.competences, state.population.competences)
    assert np.array_equal(final.collector_ledger, state.collector_ledger)


def test_state_initial_validates_sizes():
    g = WeightedGraph(3)
    pop = Population(np.ones((2, 2)), np.ones((2, 2)), np.ones(2), np.ones(2), np.zeros(2))
    with pytest.raises(DiffusionError):
        SimulationState.initial(g, pop)


# -- properties ---------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_competences_never_go_negative(seed):
    state = random_state(seed, n=20)
    for _ in range(30):
        state = step(state)
    assert np.all(state.population.competences >= 0.0)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_reference_agreement_holds_for_both_gain_modes(seed, gain):
    config = DiffusionConfig(cognitive_gain=gain)
    state = random_state(seed, n=15)
    a = step(state, config)
    expected, _ = reference_step(state, gain)
    assert np.array_equal(a.population.competences, expected)


@st.composite
def edge_case_states(draw):
    """Small states with empty, sparse or full masks, zero-weight edges and
    zero social or cognitive abilities, the cases the live-pair plan skips."""
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = [p for p in pairs if rng.random() < 0.5]
    weights = rng.choice([0.0, 0.25, 1.0, float(rng.uniform(0.1, 1.0))], size=len(chosen))
    graph = WeightedGraph(n, [(u, v, float(w)) for (u, v), w in zip(chosen, weights)])
    # Half the entries from a small set, so that sender and receiver often tie.
    competences = np.where(rng.random((n, m)) < 0.5, rng.choice([0.0, 2.5, 7.0], (n, m)), rng.uniform(0.0, 10.0, (n, m)))
    masks = (rng.random((n, m)) < density).astype(float)
    cognitive, social = np.where(rng.random((2, n)) < 0.3, 0.0, rng.uniform(0.2, 1.0, (2, n)))
    forgetting = rng.choice([0.0, 0.006, 0.1], size=n)
    pop = Population(competences, masks, cognitive, social, forgetting)
    collectors = sorted(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist())
    return apply_collector(SimulationState.initial(graph, pop), collectors)


@settings(max_examples=60, deadline=None)
@given(edge_case_states(), st.booleans())
def test_live_pair_step_matches_reference_bit_for_bit(state, gain):
    config = DiffusionConfig(cognitive_gain=gain)
    for _ in range(4):
        expected, ledger = reference_step(state, gain)
        state = step(state, config)
        assert np.array_equal(state.population.competences, expected)
        assert np.array_equal(state.collector_ledger, ledger)
