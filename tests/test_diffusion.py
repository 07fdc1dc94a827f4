"""Diffusion engine: broadcast/attenuate/gate kernels, the synchronous step,
collector accounting, probes, and the time series container."""

import hashlib
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knowflow import (
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
    parse_config,
    probe_average,
    probe_mask,
    probe_node,
    run,
    run_experiment,
    step,
)
from knowflow import diffusion
from oracles import KnowledgeResource, assimilate, create_resource, reference_step, row_csv_lines, transmit, worker


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
    return SimulationState.batch([(g, pop)])


def random_state(seed, n=30, k=4, p=0.3, density=0.6, forgetting=0.006):
    rng = np.random.default_rng(seed)
    lattice = generate_watts_strogatz(n, k, p, rng)
    g = WeightedGraph(n, [(u, v, float(rng.uniform(0.1, 1.0))) for u, v, _ in lattice.edges()])
    pop = init_workers(n, 8, (0.0, 10.0), density, (0.2, 0.9), (0.2, 0.9), forgetting, rng)
    return SimulationState.batch([(g, pop)])


def measured(probe: Probe, state: SimulationState) -> np.ndarray:
    """The probe over one state's rows: one row per run."""
    competences, ledger = state.population.competences, state.collector_ledger
    return probe.measure(competences.reshape(state.runs, -1, competences.shape[1]), ledger.reshape(state.runs, -1))


# -- kernels -------------------------------------------------------------------


def test_create_resource_scales_masked_competences():
    st_ = pair_state([4.0, 6.0], [1.0, 1.0], masks=[[1, 0], [1, 1]])
    res = create_resource(worker(st_.population, 0))
    assert res.sender == 0
    assert res.payload.tolist() == [2.0, 0.0]  # 0.5 * 4, mask kills the second slot


def test_transmit_attenuates_by_tie_strength():
    st_ = pair_state(4.0, 1.0, weight=0.3)
    res = create_resource(worker(st_.population, 0))
    out = transmit(res, st_.graph, 0)
    assert set(out) == {1}
    assert out[1].payload.tolist() == [pytest.approx(0.6)]
    lonely = SimulationState.batch(
        [(WeightedGraph(1), Population(np.array([[1.0]]), np.array([[1.0]]), np.ones(1), np.ones(1), np.zeros(1)))]
    )
    assert transmit(create_resource(worker(lonely.population, 0)), lonely.graph, 0) == {}


def test_assimilate_hand_example():
    # receiver at 2.0 gets a qualifying 1.5 from a sender at 5.0:
    # 0.994 * 2 + 1.5 = 3.488
    st_ = pair_state(5.0, 2.0, forgetting=0.006)
    receiver = worker(st_.population, 1)
    inbox = [(KnowledgeResource(sender=0, payload=np.array([1.5])), np.array([5.0]))]
    out = assimilate(receiver, inbox)
    assert out[0] == pytest.approx(3.488, rel=1e-12)


def test_assimilate_gate_is_strict_per_competence():
    st_ = pair_state([5.0, 2.0], [5.0, 1.0], forgetting=0.0)
    receiver = worker(st_.population, 1)
    inbox = [(KnowledgeResource(sender=0, payload=np.array([9.0, 0.5])), np.array([5.0, 2.0]))]
    out = assimilate(receiver, inbox)
    assert out[0] == 5.0  # equal sender snapshot does not qualify
    assert out[1] == pytest.approx(1.5)


def test_assimilate_sums_gains_across_senders():
    st_ = pair_state(0.0, 1.0, forgetting=0.0)
    receiver = worker(st_.population, 1)
    inbox = [
        (KnowledgeResource(sender=0, payload=np.array([0.25])), np.array([2.0])),
        (KnowledgeResource(sender=2, payload=np.array([0.5])), np.array([3.0])),
    ]
    assert assimilate(receiver, inbox)[0] == pytest.approx(1.75)


def test_assimilate_respects_receiver_mask_and_cognitive():
    state = pair_state([2.0, 2.0], [0.0, 0.0], cognitive=(1.0, 0.4), masks=[[1, 1], [1, 0]])
    receiver = worker(state.population, 1)
    inbox = [(KnowledgeResource(sender=0, payload=np.array([1.0, 1.0])), np.array([2.0, 2.0]))]
    out = assimilate(receiver, inbox)
    assert out[0] == pytest.approx(0.4)  # cognitive ability scales the gain
    assert out[1] == 0.0  # masked-out slot ignores incoming knowledge
    flat = assimilate(receiver, inbox, cognitive_gain=False)
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
    state = SimulationState.batch([(state.graph, silent)])
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


def test_states_stay_unchanged_after_later_steps(monkeypatch):
    # Later steps reuse work buffers; no state handed out may change or share them,
    # and no block of rows handed to a probe may change or share a later block's memory.
    start = apply_collector(random_state(7), [2, 7])
    stepped = [_kept(start)]
    for _ in range(4):
        stepped.append(_kept(step(stepped[-1][0])))
    for i, (st_, competences, ledger) in enumerate(stepped):
        assert np.array_equal(st_.population.competences, competences)
        assert np.array_equal(st_.collector_ledger, ledger)
        for later, _, _ in stepped[i + 1:]:
            assert not np.shares_memory(st_.population.competences, later.population.competences)
    for depth, sizes in ((1, [1] * 5), (2, [2, 2, 1]), (5, [5])):
        monkeypatch.setattr(diffusion, "_BATCH_CELLS", depth * start.population.competences.size)
        blocks = []

        def keep(competences, ledgers):
            blocks.append((competences, ledgers, competences.copy(), ledgers.copy()))
            return np.zeros(len(competences))

        run(start, 4, [Probe("average_competence", "all", keep)])
        assert [len(block[0]) for block in blocks] == sizes
        rows = [(c[i], ledger[i]) for c, ledger, _, _ in blocks for i in range(len(c))]
        assert len(rows) == 5
        for (competences, ledger), (_, expected, expected_ledger) in zip(rows, stepped):
            assert np.array_equal(competences, expected) and np.array_equal(ledger, expected_ledger)
        for b, (competences, ledgers, kept_competences, kept_ledgers) in enumerate(blocks):
            assert np.array_equal(competences, kept_competences) and np.array_equal(ledgers, kept_ledgers)
            for later in blocks[b + 1:]:
                assert not np.shares_memory(competences, later[0]) and not np.shares_memory(ledgers, later[1])


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
    assert measured(probe_average(), state).item() == pytest.approx(pop.competences.mean())
    assert measured(probe_node(3), state).item() == pytest.approx(pop.competences[3].mean())
    p = probe_mask("core", [1, 4], members=[0, 2, 6])
    assert p.scope == "mask:core"
    assert measured(p, state).item() == pytest.approx(pop.competences[[0, 2, 6]][:, [1, 4]].mean())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 60), st.integers(1, 30), st.booleans())
def test_probes_equal_ndarray_mean_bit_for_bit(seed, n, m, all_members):
    # The probes sum in the memory order of the selections below, so their
    # pairwise sums, and the report values, are those of ndarray.mean.
    rng = np.random.default_rng(seed)
    pop = init_workers(n, m, (0.0, 10.0), 0.6, (0.2, 0.9), (0.2, 0.9), 0.006, rng)
    state = SimulationState.batch([(WeightedGraph(n), pop)])
    c = pop.competences
    comps = sorted(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False).tolist())
    members = None if all_members else sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
    expected = c[:, comps].mean() if members is None else c[members][:, comps].mean()
    assert measured(probe_mask("x", comps, members), state).item() == float(expected)
    assert measured(probe_average(), state).item() == float(c.mean())
    assert measured(probe_node(n - 1), state).item() == float(c[n - 1].mean())


def test_probes_reject_out_of_range_ids():
    state = random_state(5, n=6)
    with pytest.raises(DiffusionError, match=re.escape("node: must be >= 0, got -1")):
        probe_node(-1)
    for node in (1.5, True, "2"):
        with pytest.raises(DiffusionError, match=f"^{re.escape(f'node: expected an integer, got {node!r}')}$"):
            probe_node(node)
    with pytest.raises(DiffusionError, match="node id 9 .* 6 workers"):
        measured(probe_node(9), state)
    with pytest.raises(DiffusionError, match=re.escape("competences[0]: must be >= 0, got -2")):
        probe_mask("x", [-2, 1])
    with pytest.raises(DiffusionError, match=re.escape("members[1]: must be >= 0, got -1")):
        probe_mask("x", [1], members=[0, -1])
    with pytest.raises(DiffusionError, match="competence id 8 .* 8 competences"):
        measured(probe_mask("x", [1, 8]), state)
    with pytest.raises(DiffusionError, match="node id 6 .* 6 workers"):
        measured(probe_mask("x", [1], members=[2, 6]), state)
    expected = float(state.population.competences[5].mean())
    assert measured(probe_node(5), state).item() == measured(probe_node(np.int64(5)), state).item() == expected


def test_mask_probes_reject_ids_that_are_not_integers():
    state = random_state(5, n=6)
    for bad in (1.5, True, "2", np.float64(1.0)):
        with pytest.raises(DiffusionError, match=f"^{re.escape(f'competences[1]: expected an integer, got {bad!r}')}$"):
            probe_mask("x", [0, bad])
        with pytest.raises(DiffusionError, match=f"^{re.escape(f'members[0]: expected an integer, got {bad!r}')}$"):
            probe_mask("x", [0], members=[bad, 3])
    with pytest.raises(DiffusionError, match=re.escape(f"competences[1]: must be < {2**63}, got {2**63}")):
        probe_mask("x", [0, 2**63])
    for ids in (b"\x00\x01", bytearray(b"\x00\x01")):  # a byte string is not a list of ids
        with pytest.raises(DiffusionError, match="^competences: expected a non-empty list$"):
            probe_mask("m", ids)
    exact = measured(probe_mask("x", [1, 4], members=[0, 5]), state).item()
    assert measured(probe_mask("x", np.array([4, 1]), members=(np.int64(5), np.int32(0))), state).item() == exact


def test_mask_probes_reject_repeated_ids():
    state = random_state(5, n=6)
    with pytest.raises(DiffusionError, match=re.escape("members[1]: duplicate id 0; entries must be unique")):
        probe_mask("x", [0], members=[0, 0, 1])
    with pytest.raises(DiffusionError, match=re.escape("competences[2]: duplicate id 2; entries must be unique")):
        probe_mask("x", [2, 0, np.int64(2)])
    distinct = measured(probe_mask("x", [0], members=[0, 1]), state).item()
    assert distinct == float(state.population.competences[[0, 1], 0].mean())


def test_mask_probe_names_follow_the_config_rule():
    for name, message in [
        (None, "name: expected a string, got None"),
        ("a b", "name: must match [A-Za-z0-9_.-]+, got 'a b'"),
    ]:
        with pytest.raises(DiffusionError, match=f"^{re.escape(message)}$"):
            probe_mask(name, [0])
    assert probe_mask("core.v-2_x", [0]).scope == "mask:core.v-2_x"


def test_mask_probes_reject_an_empty_selection_when_made():
    for competences, members, empty in (
        ([], None, "competences"), ([], [0, 1], "competences"), ([0], [], "members"),
        (np.array([], dtype=int), None, "competences"),
    ):
        with pytest.raises(DiffusionError, match=f"^{empty}: expected a non-empty list$"):
            probe_mask("x", competences, members=members)


def test_collector_probes_total_is_sum_of_parts():
    state = apply_collector(random_state(17), [1, 3, 8])
    for _ in range(10):
        state = step(state)
    probes = collector_probes([1, 3, 8])
    total = measured(probes[0], state).item()
    parts = [measured(p, state).item() for p in probes[1:]]
    assert total == pytest.approx(sum(parts))
    assert [p.scope for p in probes] == ["all", "collector:1", "collector:3", "collector:8"]


def dense_run(rng, n, m):
    """A dense graph and population with full-mantissa weights and competences."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
    graph = WeightedGraph(n, [(u, v, float(rng.uniform(0.1, 1.0))) for u, v in pairs])
    masks = (rng.random((n, m)) < 0.8).astype(float)
    pop = Population(rng.uniform(0.0, 10.0, (n, m)), masks, *rng.uniform(0.2, 1.0, (2, n)), np.full(n, 0.006))
    return graph, pop


@pytest.mark.parametrize("seed, m, runs", [(0, 1, 1), (1, 5, 1), (2, 12, 1), (3, 12, 2)])
def test_step_sums_each_bin_in_ascending_sender_order(seed, m, runs):
    """About 24 senders per bin, half of them gated through, with values that
    a different summation order, weight or gate would change in the last bits:
    the live-pair layout must reproduce the oracle's ascending-sender sums."""
    rng = np.random.default_rng(seed)
    state = SimulationState.batch([dense_run(rng, 40, m) for _ in range(runs)])
    for _ in range(2):
        expected, _ = reference_step(state)
        state = step(state)
        assert np.array_equal(state.population.competences, expected)


def test_timeseries_records_and_exports():
    columns = [("average_competence", "all"), ("collector_intake", "all")]
    ts = TimeSeries(columns, [0, 1], np.array([[1.5, 0.0], [1.25, 0.5]]))
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
        TimeSeries([("a", "all"), ("a", "all")], [0], np.zeros((1, 2)))
    for args, message in (((5, [0]), "columns: expected a list, got 5"), ((columns, 5), "steps: expected a list, got 5")):
        with pytest.raises(DiffusionError, match=f"^{re.escape(message)}$"):
            TimeSeries(*args, np.zeros((1, 2)))
    # Each column is read as a (metric, scope) pair of strings and kept as a tuple.
    assert TimeSeries([["a", "b"]], [0], np.zeros((1, 1))).columns == (("a", "b"),)
    for bad, message in (
        ([("a", "all"), ("a", 5)], "columns[1][1]: expected a string, got 5"),
        ([("a", "all"), "ab"], "columns[1]: expected a (metric, scope) pair, got 'ab'"),
        ([("a", "b", "c")], "columns[0]: expected a (metric, scope) pair, got ('a', 'b', 'c')"),
        ([["a", "b"], ("a", "b")], "columns[1]: duplicate column ('a', 'b'); entries must be unique"),
    ):
        with pytest.raises(DiffusionError, match=f"^{re.escape(message)}$"):
            TimeSeries(bad, [0], np.zeros((1, len(bad))))
    # The values are read as a (steps, columns) array of numbers; a list of them is one.
    assert TimeSeries(columns, [0, 1], [[1.5, 0.0], [1.25, 0.5]]).csv_lines() == ts.csv_lines()
    for values, message in (
        (np.zeros((5, 3)), "values: expected shape (2, 2), got (5, 3)"),
        ([1.5, 0.0], "values: expected shape (2, 2), got (2,)"),
        ([["1.5", "0.0"], ["1.25", "0.5"]], "values: expected a rectangular array of numbers, got "),
    ):
        with pytest.raises(DiffusionError, match=f"^{re.escape(message)}"):
            TimeSeries(columns, [0, 1], values)
    # The steps are read as one array of non-negative integers, one per row of values, and kept as Python ints.
    steps = TimeSeries(columns, np.array([0, 1], dtype=np.uint8), ts.values).steps
    assert steps == (0, 1) and all(type(t) is int for t in steps)
    assert TimeSeries(columns, [], np.zeros((0, 2))).steps == ()
    for bad, message in (
        (["x", None], "steps: expected a rectangular array of integers, got ['x', None]"),
        ([0.0, 1.0], "steps: expected a rectangular array of integers, got [0.0, 1.0]"),
        ([False, True], "steps: expected a rectangular array of integers, got [False, True]"),
        ([0, -1], "steps: must be >= 0, got -1"),
        ([[0], [1]], "steps: expected shape (n,), got (2, 1)"),
        ([0, 1, 2], "values: expected shape (3, 2), got (2, 2)"),
    ):
        with pytest.raises(DiffusionError, match=f"^{re.escape(message)}$"):
            TimeSeries(columns, bad, ts.values)
    with pytest.raises(DiffusionError, match="^steps: "):
        TimeSeries([("a", "all")], ["x", None], np.zeros((2, 1))).csv_lines()


_LABEL = st.text(st.sampled_from("ab%{},:\n"), max_size=4)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(_LABEL, _LABEL), unique=True, max_size=3),
    st.integers(0, 4),
    st.lists(st.sampled_from([-0.0, 0.0, 5e-324, 1e300, -1.5, 0.1, 1 / 3, np.inf, np.nan]) | st.floats(), min_size=12),
)
@example([("a%s", "%%"), ("{0}", "a,b")], 2, [-0.0, 5e-324, 1e300, 0.1] * 3)
@example([("average_competence", "all")], 0, [0.0] * 12)
def test_the_csv_template_writes_the_bytes_of_the_row_loop(columns, steps, pool):
    values = np.array(pool[: steps * len(columns)]).reshape(steps, len(columns))
    series = TimeSeries(columns, list(range(0, 3 * steps, 3)), values)
    expected = "\n".join(row_csv_lines(series)) + "\n"
    assert series._csv(diffusion._csv_template(series.steps, series.columns)) == expected
    assert "\n".join(series.csv_lines()) + "\n" == expected
    if not any("\n" in label for column in columns for label in column):  # a line break in a label splits its row
        assert series.csv_lines() == row_csv_lines(series)


def test_a_probe_reads_its_fields():
    measure = probe_average().measure
    for args, message in (
        ((5, "all", measure), "metric: expected a string, got 5"),
        (("average_competence", None, measure), "scope: expected a string, got None"),
        (("average_competence", "all", 5), "measure: expected a callable, got 5"),
    ):
        with pytest.raises(DiffusionError, match=f"^{re.escape(message)}$"):
            Probe(*args)
    # A copy with one field changed is read again, as a tracer that wraps ``measure`` makes it.
    probe = Probe("average_competence", "all", measure)
    assert replace(probe, measure=len).measure is len
    with pytest.raises(DiffusionError, match="^measure: expected a callable, got None$"):
        replace(probe, measure=None)


def test_run_records_initial_state_and_counts_steps():
    state = random_state(19)
    final, [series] = run(state, 10, [probe_average()])
    assert len(series) == 11
    assert series.steps == tuple(range(11))
    assert series.column("average_competence")[0] == pytest.approx(
        state.population.competences.mean()
    )
    assert final.step == 10
    _, [empty] = run(state, 0, [probe_average()])
    assert len(empty) == 1
    with pytest.raises(DiffusionError):
        run(state, -1, [probe_average()])
    unread = Probe("average_competence", "all", lambda *_: pytest.fail("measured before the columns were checked"))
    with pytest.raises(DiffusionError, match="duplicate"):
        run(state, 3, [unread, unread])


def test_run_applies_interventions_between_records():
    state = pair_state(2.0, 2.0, forgetting=0.0)

    def boost(st_: SimulationState) -> SimulationState:
        pop = st_.population
        competences = pop.competences.copy()
        competences[0, 0] = 7.0
        return replace(st_, population=Population(competences, pop.masks, pop.cognitive, pop.social, pop.forgetting))

    _, [series] = run(state, 2, [probe_node(0)], interventions={0: boost})
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


def _role_act(role: str, nodes: list[int], offset: int, seed: int):
    """A role intervention on the block of a batch that starts at node ``offset``."""
    ids = [offset + v for v in nodes]

    def act(st_: SimulationState) -> SimulationState:
        if role == "expert":
            return replace(st_, population=apply_expert(st_.population, ids, (10.0, 50.0), np.random.default_rng(seed)))
        if role == "facilitator":
            return replace(st_, graph=apply_facilitator(st_.graph, ids, 1.5))
        return apply_collector(st_, ids)

    return act


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 12), st.integers(1, 6), st.integers(0, 8), st.booleans()
)
def test_a_batch_equals_its_runs_one_by_one_bit_for_bit(seed, runs, n, m, at, gain):
    # Each run gets its own graph, population and (maybe) role intervention at
    # a mid-run step; every probe kind is recorded.
    rng = np.random.default_rng(seed)
    members, roles = [], []
    for r in range(runs):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        graph = WeightedGraph(n, [(u, v, float(rng.uniform(0.1, 1.0))) for u, v in pairs])
        members.append((graph, init_workers(n, m, (0.0, 10.0), 0.6, (0.2, 0.9), (0.2, 0.9), 0.006, rng)))
        nodes = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        roles.append((["expert", "facilitator", "collector", None][int(rng.integers(4))], nodes))
    probes = [
        probe_average(),
        probe_node(n - 1),
        probe_mask("x", sorted({0, m - 1}), members=sorted({0, n // 2})),
        *collector_probes(range(0, n, 2)),
    ]
    acts = [_role_act(role, nodes, r * n, seed + r) for r, (role, nodes) in enumerate(roles) if role is not None]

    def act_all(st_: SimulationState) -> SimulationState:
        for act in acts:
            st_ = act(st_)
        return st_

    batch = SimulationState.batch(members)
    assert batch.runs == runs and len(batch.population) == runs * n
    final, series = run(batch, 10, probes, gain, {at: act_all})
    assert len(series) == runs
    for r, ((graph, pop), (role, nodes)) in enumerate(zip(members, roles)):
        alone = {at: _role_act(role, nodes, 0, seed + r)} if role is not None else None
        final_r, [series_r] = run(SimulationState.batch([(graph, pop)]), 10, probes, gain, alone)
        assert series[r].steps == series_r.steps and series[r].columns == series_r.columns
        assert series[r].values.tobytes() == series_r.values.tobytes()
        assert series[r].csv_lines() == series_r.csv_lines()
        block = slice(r * n, (r + 1) * n)
        assert final.population.competences[block].tobytes() == final_r.population.competences.tobytes()
        assert final.collector_ledger[block].tobytes() == final_r.collector_ledger.tobytes()
        assert {c - r * n for c in final.collectors if r * n <= c < (r + 1) * n} == final_r.collectors


def _outcome(state, probes, gain, interventions):
    """A run's series and final state as bytes, or the message of the error that ended it."""
    try:
        final, series = run(state, 10, probes, gain, interventions)
    except DiffusionError as exc:
        return str(exc)
    final_bytes = (final.population.competences.tobytes(), final.collector_ledger.tobytes(), final.collectors)
    return [(s.steps, s.columns, s.values.tobytes(), s.csv_lines()) for s in series], final_bytes


@pytest.mark.parametrize("role", ["expert", "facilitator", "collector"])
@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(2, 8), st.integers(1, 5), st.sampled_from((0, 4, 6)),
       st.booleans(), st.booleans())
def test_the_block_depth_does_not_change_the_bytes(role, seed, runs, n, m, at, gain, overflow):
    # Blocks of 1, 2 and 3 of the 11 recorded states, and one block of all of them: the
    # intervention after step ``at`` falls inside a block of 2 and of 3. A facilitated tie
    # of weight up to 1e300 makes a run overflow within a few steps, often in mid-block.
    rng = np.random.default_rng(seed)
    members = [dense_run(rng, n, m) for _ in range(runs)]
    if overflow:
        graph, pop = members[-1]
        members[-1] = (apply_facilitator(graph, [0], 1e300), pop)
    probes = [
        probe_average(),
        probe_node(n - 1),
        probe_mask("x", sorted({0, m - 1}), members=sorted({0, n // 2})),
        *collector_probes(range(0, n, 2)),
    ]
    acts = [_role_act(role, [0, n - 1], r * n, seed + r) for r in range(runs)]

    def act_all(st_: SimulationState) -> SimulationState:
        for act in acts:
            st_ = act(st_)
        return st_

    state = SimulationState.batch(members)
    outcomes = []
    for depth in (1, 2, 3, 11):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diffusion, "_BATCH_CELLS", depth * state.population.competences.size)
            outcomes.append(_outcome(state, probes, gain, {at: act_all}))
    assert outcomes[1:] == outcomes[:1] * 3


def test_probes_in_a_batch_read_and_check_ids_per_run():
    a, b = random_state(5, n=6), random_state(6, n=6)
    batch = SimulationState.batch([(a.graph, a.population), (b.graph, b.population)])
    # Node 6 of a 12-row union is run 1's node 0; a probe must refuse it, not read it.
    with pytest.raises(DiffusionError, match="node id 6 is out of range for 6 workers"):
        measured(probe_node(6), batch)
    with pytest.raises(DiffusionError, match="node id 6 is out of range for 6 workers"):
        measured(probe_mask("x", [1], members=[2, 6]), batch)
    with pytest.raises(DiffusionError, match="competence id 8 is out of range for 8 competences"):
        measured(probe_mask("x", [1, 8]), batch)
    rows = [a.population.competences, b.population.competences]
    assert measured(probe_node(5), batch).tolist() == [float(c[5].mean()) for c in rows]
    masked = measured(probe_mask("x", [1, 4], members=[0, 5]), batch)
    assert masked.tolist() == [float(c[[0, 5]][:, [1, 4]].mean()) for c in rows]
    assert measured(probe_average(), batch).tolist() == [float(c.mean()) for c in rows]
    c = random_state(7, n=7)
    with pytest.raises(DiffusionError, match="runs of 6 workers x 8 competences only"):
        SimulationState.batch([(a.graph, a.population), (c.graph, c.population)])


def _arrays(obj, path="", seen=None):
    """(path, array) for every numpy array reachable from ``obj`` through knowflow objects and containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, (list, tuple, frozenset)):
        for i, item in enumerate(obj):
            yield from _arrays(item, f"{path}[{i}]", seen)
    elif isinstance(obj, dict):
        for key, item in obj.items():
            yield from _arrays(item, f"{path}[{key!r}]", seen)
    elif type(obj).__module__.startswith("knowflow"):
        names = list(getattr(obj, "__dict__", {})) + list(getattr(type(obj), "__slots__", ()))
        for name in names:
            yield from _arrays(getattr(obj, name), f"{path}.{name}", seen)


def test_a_batched_collector_runs_states_and_series_are_read_only():
    a, b = random_state(31, n=8), random_state(32, n=8)
    batch = SimulationState.batch([(a.graph, a.population), (b.graph, b.population)])
    collect = {2: lambda st_: apply_collector(st_, [1, 8, 12])}
    final, series = run(batch, 5, [probe_average(), *collector_probes([1, 4])], interventions=collect)
    found = dict(_arrays((batch, final, series), "result"))
    assert "result[1].collector_ledger" in found and "result[2][1].values" in found
    assert "result[0].population.masks" in found and "result[0].graph._weights" in found
    assert "result[1].population.competences" in found
    assert [path for path, array in found.items() if array.flags.writeable] == []


def test_an_experiment_reports_arrays_are_read_only():
    config = parse_config({
        "name": "walk",
        "network": {"nodes": 10, "ring_degree": 4},
        "population": {"competences": 3},
        "role_plan": {"role": "collector", "strategies": ["none", "degree"], "count": 2},
        "run": {"steps": 4, "seeds": [1, 2], "probes": ["average_competence", "collector_intake"]},
    })
    found = dict(_arrays(run_experiment(config), "report"))
    assert "report.variants['degree'].series[2].values" in found
    assert "report.variants['none'].aggregate.values" in found
    assert [path for path, array in found.items() if array.flags.writeable] == []


def test_a_run_that_overflows_fails_naming_the_first_step_with_a_value_that_is_not_finite(monkeypatch):
    # 0.5 * 4 * 1e300 reaches worker 1 at step 1; twice that times 1e300 overflows worker 0 at step 2.
    g = add_edge(WeightedGraph(3), 0, 1, 1e300)
    pop = Population(np.array([[4.0], [1.0], [1.0]]), np.ones((3, 1)), np.ones(3), np.full(3, 0.5), np.zeros(3))
    state = SimulationState.batch([(g, pop)])
    facilitate = {3: lambda st_: replace(st_, graph=apply_facilitator(st_.graph, [2], 2.0))}
    boost = {3: lambda st_: replace(st_, population=apply_expert(st_.population, [2], (1.0, 2.0), np.random.default_rng(0)))}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings stay inside the run
        # Step 2 opens a block of 2, ends one of 3, sits inside one of 4 and in the one block of all 6 states.
        for depth in (1, 2, 3, 4, 6):
            monkeypatch.setattr(diffusion, "_BATCH_CELLS", depth * 3)
            with pytest.raises(DiffusionError, match="not finite by step 2$"):
                run(state, 5, [probe_average()])
        monkeypatch.undo()
        # An intervention after the overflow, which rebuilds the plan or the population, changes nothing.
        for intervention in (facilitate, boost):
            with pytest.raises(DiffusionError, match="not finite by step 2$"):
                run(state, 5, [probe_average()], interventions=intervention)
        # A probe that never reads the overflowed rows: the final competences still fail the run.
        with pytest.raises(DiffusionError, match="not finite by step 5$"):
            run(state, 5, [probe_node(2)])
    final, series = run(state, 1, [probe_average()])
    assert np.isfinite(final.population.competences).all() and np.isfinite(series[0].values).all()


def test_state_batch_validates_sizes():
    g = WeightedGraph(3)
    pop = Population(np.ones((2, 2)), np.ones((2, 2)), np.ones(2), np.ones(2), np.zeros(2))
    with pytest.raises(DiffusionError):
        SimulationState.batch([(g, pop)])


def test_a_state_has_no_defaults():
    g = WeightedGraph(2)
    pop = Population(np.ones((2, 2)), np.ones((2, 2)), np.ones(2), np.ones(2), np.zeros(2))
    with pytest.raises(TypeError):
        SimulationState(g, pop)  # a zero-length ledger and one run: batch builds the state
    state = SimulationState.batch([(g, pop)])
    assert (state.step, state.collectors, state.collector_ledger.tolist(), state.runs) == (0, frozenset(), [0.0, 0.0], 1)


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
    state = random_state(seed, n=15)
    a = step(state, gain)
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
    return apply_collector(SimulationState.batch([(graph, pop)]), collectors)


@settings(max_examples=60, deadline=None)
@given(edge_case_states(), st.booleans())
def test_live_pair_step_matches_reference_bit_for_bit(state, gain):
    for _ in range(4):
        expected, ledger = reference_step(state, gain)
        state = step(state, gain)
        assert np.array_equal(state.population.competences, expected)
        assert np.array_equal(state.collector_ledger, ledger)
