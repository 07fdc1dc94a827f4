"""End-to-end acceptance checks for the shipped simulation and its fixtures.

One test per numbered criterion; each prints a single summary line of the form
``ACCEPTANCE <n> <name>: PASS|FAIL (measurements)`` before asserting, so a
plain ``pytest -v`` run yields one verdict per criterion.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

import oracles
from knowflow import (
    Population,
    SimulationState,
    WeightedGraph,
    add_edge,
    assign_weights,
    coauthor_utility,
    emit_report,
    generate_watts_strogatz,
    init_workers,
    knowledge_energy,
    load_fixture,
    parse_config,
    run_experiment,
    shortest_hop_path,
    step,
    weighted_betweenness_all,
    weighted_closeness_all,
)
from knowflow.scenario import _communities_for, _graph_for, _population_for


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({detail})")


def paired_margin(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Mean and stddev (ddof=1) of the per-seed differences a - b."""
    d = np.asarray(a) - np.asarray(b)
    return float(d.mean()), float(d.std(ddof=1))


# -- 1: forgetting-only closed form ------------------------------------------------


def test_criterion_1_decay_closed_form():
    rng = np.random.default_rng(97)
    g = generate_watts_strogatz(484, 4, 0.1, rng)
    g = assign_weights(g, (0.1, 1.0), rng)
    competences = rng.uniform(0.0, 10.0, size=(484, 10))
    silent = Population(
        competences.copy(),
        np.zeros((484, 10)),  # no interests anywhere: broadcasts and gains vanish
        rng.uniform(0.0, 1.0, 484),
        rng.uniform(0.0, 1.0, 484),
        np.full(484, 0.006),
    )
    state = SimulationState.batch([(g, silent)])
    start = time.perf_counter()
    for _ in range(500):
        state = step(state)
    elapsed = time.perf_counter() - start
    expected = competences * (1.0 - 0.006) ** 500
    rel = np.abs(state.population.competences - expected) / expected
    worst = float(rel.max())
    ok = worst <= 1e-9 and elapsed < 1.0
    verdict(1, "decay-closed-form", ok, f"max relative error {worst:.3e}, runtime {elapsed:.2f}s")
    assert worst <= 1e-9, f"closed-form decay relative error {worst:.3e} exceeds 1e-9"
    assert elapsed < 1.0, f"500 decay steps at 484 nodes took {elapsed:.2f}s (budget 1s)"


# -- 2: gating --------------------------------------------------------------------


def test_criterion_2_gating_never_admits_weaker_senders():
    """Re-derive gating from observed state, independently of the engine:
    any competence gain above pure decay must coincide with some neighbor whose
    step-start value strictly exceeded the receiver's."""
    checked = 0
    for seed in (11, 12, 13):
        rng = np.random.default_rng(seed)
        g = generate_watts_strogatz(50, 4, 0.3, rng)
        g = assign_weights(g, (0.1, 1.0), rng)
        pop = init_workers(50, 8, (0.0, 10.0), 0.6, (0.2, 0.9), (0.2, 0.9), 0.006, rng)
        state = SimulationState.batch([(g, pop)])
        adjacency = np.zeros((50, 50), dtype=bool)
        for u, v, _ in g.edges():
            adjacency[u, v] = adjacency[v, u] = True
        for _ in range(200):
            prev = state.population.competences.copy()
            masks = state.population.masks
            state = step(state)
            residual = state.population.competences - (1.0 - 0.006) * prev
            for n in range(8):
                col = prev[:, n]
                sender_ok = (col[None, :] > col[:, None]) & adjacency & (masks[:, n] == 1.0)[None, :]
                justified = sender_ok.any(axis=1)
                gained = residual[:, n] > 1e-9
                bad = gained & ~justified
                assert not bad.any(), (
                    f"seed {seed}: inflow without any strictly stronger sender "
                    f"at workers {np.flatnonzero(bad).tolist()} competence {n}"
                )
                checked += int(gained.sum())
    verdict(2, "gating", True, f"3 runs x 200 steps, {checked} gain events all justified")


# -- 3: brute-force oracle equivalence ----------------------------------------------


def _implementation_graph(n, weights):
    g = WeightedGraph(n)
    for (u, v), w in weights.items():
        g = add_edge(g, u, v, w)
    return g


def _compare_graph(n, weights):
    g = _implementation_graph(n, weights)
    adj = oracles.adjacency(n, weights)
    closeness = weighted_closeness_all(g)
    betweenness = weighted_betweenness_all(g)
    oracle_betw = oracles.oracle_betweenness_all(n, adj)
    for v in range(n):
        assert g.degree(v) == oracles.oracle_degree(adj, v)
        assert math.isclose(closeness[v], oracles.oracle_closeness(n, adj, v), rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(betweenness[v], oracle_betw[v], rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(coauthor_utility(g)[v], oracles.oracle_utility(adj, v), rel_tol=1e-9, abs_tol=1e-9)
    for s, t in itertools.permutations(range(n), 2):
        got = shortest_hop_path(g, s, t)
        assert (None if got is None else got[0]) == oracles.oracle_hop_path(n, adj, s, t)


def test_criterion_3_oracle_equivalence():
    rnd = random.Random(1234)
    exhaustive = 0
    for n in range(1, 6):
        for edges in oracles.all_connected_graphs(n):
            _compare_graph(n, {e: 1.0 for e in edges})
            _compare_graph(n, {e: rnd.choice([0.25, 0.5, 1.0, 2.0]) for e in edges})
            exhaustive += 1
    sampled = 0
    for _ in range(500):
        edges = oracles.random_connected_graph(6, rnd)
        _compare_graph(6, {e: rnd.uniform(0.2, 2.0) for e in edges})
        sampled += 1
    verdict(
        3,
        "oracle-equivalence",
        True,
        f"{exhaustive} exhaustive graphs (<=5 nodes, two weight profiles) and {sampled} random 6-node samples",
    )


# -- 4: small-world generator --------------------------------------------------------


def test_criterion_4_watts_strogatz_invariants():
    for n, k in ((8, 4), (12, 2), (25, 6), (484, 4)):
        g = generate_watts_strogatz(n, k, 0.0, np.random.default_rng(0))
        lattice = set()
        for u in range(n):
            for j in range(1, k // 2 + 1):
                lattice.add(tuple(sorted((u, (u + j) % n))))
        assert {(u, v) for u, v, _ in g.edges()} == lattice, f"p=0 is not the ring lattice for n={n}, k={k}"

    rng = np.random.default_rng(2024)
    draws = 0
    for _ in range(1000):
        n = int(rng.integers(6, 81))
        k = 2 * int(rng.integers(1, min(5, (n - 1) // 2) + 1))
        p = float(rng.uniform(0.0, 1.0))
        seed = int(rng.integers(1_000_000))
        g = generate_watts_strogatz(n, k, p, np.random.default_rng(seed))
        assert g.edge_count == n * k // 2, f"edge count {g.edge_count} != {n * k // 2} for n={n}, k={k}, p={p}"
        draws += 1
        if draws % 200 == 0:  # spot-check determinism along the way
            again = generate_watts_strogatz(n, k, p, np.random.default_rng(seed))
            assert list(again.edges()) == list(g.edges())
    verdict(4, "watts-strogatz", True, f"4 exact lattices, {draws} random draws with exact edge count")


# -- 5-7: strategy trend experiments ---------------------------------------------------


def test_criterion_5_expert_trend_and_stabilization():
    cfg = load_fixture("fig2")
    assert len(cfg.run.seeds) >= 10
    start = time.perf_counter()
    report = run_experiment(cfg)
    elapsed = time.perf_counter() - start

    finals = {name: var.final_values() for name, var in report.variants.items()}
    dr_mean, dr_sd = paired_margin(finals["dissemination"], finals["random"])
    db_mean, db_sd = paired_margin(finals["dissemination"], finals["betweenness"])
    ref = report.variants["none"].aggregate.column("average_competence:mean")
    rel_change = abs(float(ref[500]) - float(ref[100])) / float(ref[100])

    failures = []
    if not (dr_mean > dr_sd):
        failures.append(
            f"dissemination does not beat random by one cross-seed stddev "
            f"(margin {dr_mean:.4f}, stddev {dr_sd:.4f})"
        )
    if not (db_mean > db_sd):
        failures.append(
            f"dissemination does not beat betweenness by one cross-seed stddev "
            f"(margin {db_mean:.4f}, stddev {db_sd:.4f})"
        )
    if not (rel_change < 0.05):
        failures.append(f"reference curve moved {rel_change:.3f} between steps 100 and 500")
    if not (elapsed < 60.0):
        failures.append(f"runtime {elapsed:.1f}s over the 60s budget")

    verdict(
        5,
        "expert-trend",
        not failures,
        f"dissemination-random {dr_mean:.4f}+/-{dr_sd:.4f}, "
        f"dissemination-betweenness {db_mean:.4f}+/-{db_sd:.4f}, "
        f"reference relative change over steps 100-500 {rel_change:.4f}, runtime {elapsed:.1f}s",
    )
    assert not failures, "; ".join(failures)


def test_criterion_6_facilitator_trend():
    cfg = load_fixture("fig3")
    assert len(cfg.run.seeds) >= 10
    report = run_experiment(cfg)
    finals = {name: var.final_values() for name, var in report.variants.items()}
    mean, sd = paired_margin(finals["timesharing"], finals["random"])
    ok = mean > sd
    verdict(6, "facilitator-trend", ok, f"timesharing-random margin {mean:.4f}+/-{sd:.4f}")
    assert ok, (
        f"timesharing does not beat random by one cross-seed stddev (margin {mean:.4f}, stddev {sd:.4f})"
    )


def test_criterion_7_collector_trend():
    cfg = load_fixture("fig4")
    assert len(cfg.run.seeds) >= 10
    report = run_experiment(cfg)
    intake = {
        name: var.final_values(metric="collector_intake", scope="all")
        for name, var in report.variants.items()
    }
    bd_mean, bd_sd = paired_margin(intake["betweenness"], intake["dissemination"])
    cd_mean, cd_sd = paired_margin(intake["closeness"], intake["dissemination"])
    ok = bd_mean > bd_sd and cd_mean > cd_sd
    verdict(
        7,
        "collector-trend",
        ok,
        f"betweenness-dissemination {bd_mean:.0f}+/-{bd_sd:.0f}, "
        f"closeness-dissemination {cd_mean:.0f}+/-{cd_sd:.0f}",
    )
    assert bd_mean > bd_sd
    assert cd_mean > cd_sd


# -- 8: community acceleration ----------------------------------------------------------


def _acceleration_win_rate(division: str) -> tuple[float, int]:
    base = load_fixture("fig9").to_dict()
    base["community_plan"]["division"] = division
    algo_cfg = parse_config(base)
    rand_raw = load_fixture("fig9").to_dict()
    rand_raw["community_plan"]["division"] = division
    rand_raw["community_plan"]["ties"] = "random"
    rand_cfg = parse_config(rand_raw)

    algo = run_experiment(algo_cfg)
    rand = run_experiment(rand_cfg)
    seeds = algo.seeds
    assert len(seeds) >= 20

    algo_final = algo.variants["default"].final_values(scope="mask:c1_core")
    rand_final = rand.variants["default"].final_values(scope="mask:c1_core")
    wins = float(np.mean(algo_final >= rand_final))

    # every proposed tie must hold strictly more energy at the source and no
    # pre-existing edge, rebuilt independently of the run
    ties_checked = 0
    plan = algo_cfg.community_plan
    for seed in seeds:
        g = _graph_for(algo_cfg.network, seed)
        pop = _population_for(algo_cfg.population, algo_cfg.network.nodes, seed)
        community = _communities_for(plan, pop)[plan.community_index]
        for rec in algo.variants["default"].ties[seed]:
            u, v = rec["from"], rec["to"]
            assert u in community.members and v in community.members
            assert not g.has_edge(u, v), f"seed {seed}: proposed tie ({u}, {v}) already exists"
            e_u = knowledge_energy(pop, u, community.core_mask)
            e_v = knowledge_energy(pop, v, community.core_mask)
            assert e_u > e_v, f"seed {seed}: tie ({u}, {v}) violates the energy order ({e_u} <= {e_v})"
            ties_checked += 1
    return wins, ties_checked


def test_criterion_8_acceleration_beats_random_ties():
    results = {}
    total_ties = 0
    for division in ("double", "single"):
        wins, ties_checked = _acceleration_win_rate(division)
        results[division] = wins
        total_ties += ties_checked
    ok = all(w >= 0.70 for w in results.values())
    verdict(
        8,
        "acceleration",
        ok,
        f"algorithm >= random in {results['double']:.0%} of seeds (double division) "
        f"and {results['single']:.0%} (single division); {total_ties} proposed ties all valid",
    )
    for division, wins in results.items():
        assert wins >= 0.70, (
            f"{division} division: algorithm tie beat a random intra-cluster tie in only "
            f"{wins:.0%} of seeds (need 70%)"
        )


# -- 9: byte determinism ------------------------------------------------------------------


def test_criterion_9_byte_identical_reports(tmp_path):
    def produce(target):
        report = run_experiment(load_fixture("fig6"), seeds=[1, 2])
        return {p.name: p.read_bytes() for p in emit_report(report, target, formats=["csv", "json"])}

    first = produce(tmp_path / "a")
    second = produce(tmp_path / "b")
    assert first.keys() == second.keys()
    diffs = [name for name in first if first[name] != second[name]]
    assert not diffs, f"outputs differ between identical runs: {diffs}"
    verdict(9, "determinism", True, f"{len(first)} files byte-identical across independent runs")
