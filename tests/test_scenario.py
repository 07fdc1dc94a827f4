"""Scenario layer: config validation, fixtures, the experiment runner, report
files, and the command line interface."""

import hashlib
import json
import re
import warnings

import numpy as np
import pytest

from knowflow import (
    ConfigError,
    add_edge,
    average_edge_weight,
    config_hash,
    emit_report,
    fixture_names,
    load_config,
    load_fixture,
    parse_config,
    propose_ties,
    run_experiment,
    stabilization_step,
    stream_rng,
    transfer_efficiency,
)
from knowflow.cli import main
from knowflow.scenario import _graph_for, _population_for


def tiny_config(**overrides):
    data = {
        "name": "tiny",
        "network": {
            "nodes": 12,
            "ring_degree": 4,
            "rewire_prob": 0.2,
            "weights": {"kind": "uniform", "low": 0.1, "high": 0.5},
        },
        "population": {
            "competences": 4,
            "mask_density": 0.6,
            "cognitive_range": [0.3, 0.7],
            "social_range": [0.3, 0.7],
        },
        "run": {"steps": 15, "seeds": [1, 2]},
    }
    data.update(overrides)
    return data


# -- validation ---------------------------------------------------------------


def test_minimal_config_fills_defaults():
    cfg = parse_config(tiny_config())
    assert cfg.name == "tiny"
    assert cfg.population.forgetting == 0.006
    assert cfg.population.competence_range == (0.0, 10.0)
    assert cfg.output.formats == ("csv", "json")
    assert cfg.diffusion.cognitive_gain is True
    assert [p.kind for p in cfg.run.probes] == ["average"]


def test_unknown_keys_are_rejected_with_the_key_name():
    with pytest.raises(ConfigError, match="'snapshots'"):
        parse_config(tiny_config(snapshots=3))
    bad_net = tiny_config()
    bad_net["network"]["directed"] = True
    with pytest.raises(ConfigError, match="network.*'directed'"):
        parse_config(bad_net)


def test_missing_steps_is_a_named_validation_error():
    data = tiny_config()
    del data["run"]["steps"]
    with pytest.raises(ConfigError, match="run.steps"):
        parse_config(data)


def test_scalar_validation_messages_name_the_path():
    data = tiny_config()
    data["run"]["steps"] = "many"
    with pytest.raises(ConfigError, match="run.steps"):
        parse_config(data)
    data = tiny_config()
    data["network"]["ring_degree"] = 5
    with pytest.raises(ConfigError, match="even"):
        parse_config(data)
    data = tiny_config()
    data["network"]["ring_degree"] = 12
    with pytest.raises(ConfigError, match="smaller than nodes"):
        parse_config(data)
    data = tiny_config()
    data["run"]["seeds"] = []
    with pytest.raises(ConfigError, match="run.seeds"):
        parse_config(data)
    data = tiny_config()
    data["run"]["seeds"] = [1, 1]
    with pytest.raises(ConfigError, match="unique"):
        parse_config(data)
    with pytest.raises(ConfigError, match="name"):
        parse_config(tiny_config(name="no spaces allowed"))


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("population", "forgetting", float("nan")),
        ("network", "rewire_prob", float("nan")),
        ("population", "competence_range", [0.0, float("inf")]),
    ],
)
def test_non_finite_numbers_are_rejected(tmp_path, capsys, section, key, value):
    data = tiny_config()
    data[section][key] = value
    with pytest.raises(ConfigError, match=f"{section}.{key}.*finite"):
        parse_config(data)
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(data))  # NaN and Infinity as JSON extensions
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err


def test_weight_spec_validation():
    data = tiny_config()
    data["network"]["weights"] = {"kind": "constant", "value": 0.3, "low": 0.1}
    with pytest.raises(ConfigError, match="constant weights take 'value'"):
        parse_config(data)
    data["network"]["weights"] = {"kind": "constant"}
    with pytest.raises(ConfigError, match="weights.value"):
        parse_config(data)
    data["network"]["weights"] = {"kind": "uniform", "low": 0.0, "high": 0.5}
    with pytest.raises(ConfigError, match="strictly positive"):
        parse_config(data)
    data["network"]["weights"] = {"kind": "constant", "value": 0.3}
    assert parse_config(data).network.weights.low == 0.3


def test_role_plan_validation():
    base = {"role": "expert", "strategies": ["none", "degree"], "fraction": 0.1,
            "boost_range": [10, 50]}
    assert parse_config(tiny_config(role_plan=dict(base))).role_plan.role == "expert"
    bad = dict(base)
    bad["strategies"] = ["degree", "degree"]
    with pytest.raises(ConfigError, match="duplicate strategy"):
        parse_config(tiny_config(role_plan=bad))
    bad = dict(base)
    bad["strategies"] = ["popularity"]
    with pytest.raises(ConfigError, match="strategies"):
        parse_config(tiny_config(role_plan=bad))
    bad = dict(base)
    bad["count"] = 3  # fraction and count together
    with pytest.raises(ConfigError, match="exactly one of"):
        parse_config(tiny_config(role_plan=bad))
    bad = dict(base)
    del bad["boost_range"]
    with pytest.raises(ConfigError, match="boost_range.*required"):
        parse_config(tiny_config(role_plan=bad))
    bad = dict(base)
    bad["weight_factor"] = 1.2
    with pytest.raises(ConfigError, match="only valid for the facilitator"):
        parse_config(tiny_config(role_plan=bad))
    fac = {"role": "facilitator", "strategies": ["degree"], "count": 3}
    with pytest.raises(ConfigError, match="weight_factor.*required"):
        parse_config(tiny_config(role_plan=fac))
    coll = {"role": "collector", "strategies": ["degree"], "count": 20}
    with pytest.raises(ConfigError, match="count"):
        parse_config(tiny_config(role_plan=coll))


def test_community_plan_validation(tmp_path, capsys):
    plan = {
        "method": "fixture",
        "communities": [{"members": [0, 1, 2], "core": [0]}],
        "ties": "manual",
        "manual_ties": [[0, 2]],
    }
    cfg = parse_config(tiny_config(community_plan=dict(plan)))
    assert cfg.community_plan.communities[0].members == (0, 1, 2)
    bad = dict(plan)
    bad["communities"] = [{"members": [0, 99], "core": [0]}]
    with pytest.raises(ConfigError, match="members"):
        parse_config(tiny_config(community_plan=bad))
    bad = dict(plan)
    bad["communities"] = [{"members": [0, 1], "core": [9]}]
    with pytest.raises(ConfigError, match="core"):
        parse_config(tiny_config(community_plan=bad))
    bad = dict(plan)
    del bad["manual_ties"]
    with pytest.raises(ConfigError, match="manual_ties"):
        parse_config(tiny_config(community_plan=bad))
    bad = dict(plan)
    bad["ties"] = "none"
    with pytest.raises(ConfigError, match="manual_ties.*only valid"):
        parse_config(tiny_config(community_plan=bad))
    bad = dict(plan)
    bad["community_index"] = 4
    with pytest.raises(ConfigError, match="community_index"):
        parse_config(tiny_config(community_plan=bad))
    jac = {"method": "jaccard", "communities": [{"members": [0], "core": [0]}]}
    with pytest.raises(ConfigError, match="only valid with the fixture method"):
        parse_config(tiny_config(community_plan=jac))
    majority = {"method": "jaccard", "core_rule": "majority", "core_theta": 2.0}
    with pytest.raises(ConfigError, match="community_plan.core_theta"):
        parse_config(tiny_config(community_plan=majority))
    parse_config(tiny_config(community_plan={"method": "jaccard", "core_rule": "and", "core_theta": 2.0}))
    cfg_path = tmp_path / "majority.json"
    cfg_path.write_text(json.dumps(tiny_config(community_plan=majority)))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "community_plan.core_theta" in capsys.readouterr().err


def test_probe_validation():
    data = tiny_config()
    data["run"]["probes"] = ["collector_intake"]
    with pytest.raises(ConfigError, match="collector role plan"):
        parse_config(data)
    data["run"]["probes"] = ["entropy"]
    with pytest.raises(ConfigError, match="unknown probe"):
        parse_config(data)
    data["run"]["probes"] = [{"node": 99}]
    with pytest.raises(ConfigError, match="probes\\[0\\].node"):
        parse_config(data)
    data["run"]["probes"] = [
        "average_competence",
        {"node": 3},
        {"mask": {"name": "core", "competences": [0, 2], "members": [1, 5]}},
    ]
    cfg = parse_config(data)
    assert [p.kind for p in cfg.run.probes] == ["average", "node", "mask"]


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    with pytest.raises(ConfigError, match="latin1.json: not UTF-8"):
        load_config(latin1)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    with pytest.raises(ConfigError, match="deep.json: invalid JSON: nested too deeply"):
        load_config(deep)


# -- round trips and fixtures -----------------------------------------------------


COMMUNITY = [{"members": [0, 1, 2, 6, 7], "core": [0, 1]}]

# Each case sets keys that to_dict emits only in some modes; the hashes were
# computed before the config schema moved onto the spec dataclasses.
ROUND_TRIP_CASES = {
    "expert-no-cognitive-gain": (
        dict(role_plan={"role": "expert", "strategies": ["none", "degree"], "fraction": 0.25,
                        "boost_range": [10, 50]},
             diffusion={"cognitive_gain": False}),
        "4a9e7da568fe4177fed409f9f4c49e3411343e09576c2524d611408e373e9bc1",
    ),
    "expert-boost-all": (
        dict(role_plan={"role": "expert", "strategies": ["closeness"], "count": 2,
                        "boost_range": [5, 6], "boost_all": True, "step": 3}),
        "be1e019e879eb0017237554b6f168093b0f26d1568129616524e3b4878413e98",
    ),
    "facilitator": (
        dict(role_plan={"role": "facilitator", "strategies": ["none", "degree"], "count": 3,
                        "weight_factor": 1.5}),
        "02d525acbc02f1a2885c2bd7543c9b6da381848311ef285d1a4449f7a60149a2",
    ),
    "collector-and-probes": (
        dict(role_plan={"role": "collector", "strategies": ["random"], "fraction": 0.25},
             run={"steps": 15, "seeds": [1, 2], "probes": [
                 "average_competence", "collector_intake", {"node": 3},
                 {"mask": {"name": "core", "competences": [2, 0, 2], "members": [5, 1]}},
                 {"mask": {"name": "all.c1", "competences": [1]}}]}),
        "0c34106b561757d18c4a69a45d9a3494e5e8c548d59a718950b3c27fc0670780",
    ),
    "jaccard-majority": (
        dict(community_plan={"method": "jaccard", "threshold": 0.4, "core_rule": "majority",
                             "core_theta": 0.6, "ties": "algorithm", "budget": 2}),
        "ae6b40b8de092cce2eb3946ccdfe82b30527c2b7aeee61a55ef6e8bdf79ea993",
    ),
    # keys the chosen mode ignores: to_dict leaves them out, so they must not
    # survive parsing either
    "jaccard-and-ignores-core-theta": (
        dict(community_plan={"method": "jaccard", "core_rule": "and", "core_theta": 0.7}),
        "6396c4b24813819563004c687936c0b2327e23b7188f28ebd845ff1a709b417e",
    ),
    "fixture-ignores-threshold": (
        dict(community_plan={"method": "fixture", "communities": COMMUNITY, "threshold": 0.3}),
        "9ad90fefaf94a161204fe769589a5dba8c014bb5146c37103c5966a96029143f",
    ),
    "manual-ties": (
        dict(community_plan={"method": "fixture", "communities": COMMUNITY, "ties": "manual",
                             "manual_ties": [[0, 6], [7, 1]], "division": "single"}),
        "bf2a12e29b054ae12c71e79112783bf2302ed6e8249571e532801b27cfa9df8b",
    ),
    "algorithm-limits": (
        dict(community_plan={"method": "fixture", "communities": COMMUNITY, "ties": "algorithm",
                             "min_efficiency": 0.001, "tie_weight": 0.2}),
        "7ad03e5f0076bcab8a8234bf3b97d2f9721ac147aed472f0575bc96d66613710",
    ),
    "constant-weights": (
        dict(network={"nodes": 12, "weights": {"kind": "constant", "value": 0.3}}),
        "01d69fa1f3703856049619060d23e3d95502ff7a4fa335f59ab2f6135e2c48f0",
    ),
    "output-directory": (
        dict(output={"directory": "reports", "formats": ["json", "both"]}),
        "08fa2a6e3eb4382d1e1f0fbe16f80063f51dcb4cf4f748ff1220ced1f73aa174",
    ),
}


def test_config_round_trip_is_idempotent():
    for case, (overrides, expected_hash) in ROUND_TRIP_CASES.items():
        cfg = parse_config(tiny_config(**overrides))
        again = parse_config(cfg.to_dict())
        assert again == cfg, case
        assert config_hash(again) == config_hash(cfg) == expected_hash, case


FIXTURE_HASHES = {
    "fig2": "fedcfd9638fe75a83ecbe62aef7023693c003a3752e72fd74e7caacf895324e3",
    "fig3": "d2a5a3fbaae0c9c548300dd68c39f4b9ba60901033966438f9f67c14ba627d83",
    "fig4": "cdb676e0250139a5d6ca9e934f7d4b148341753c128e7543376e543bbd09a3ad",
    "fig6": "3f4ce2c3362377fe5a80b38ec8c9c1cbc69e5d645b0134ebb45c98d8aafd5613",
    "fig7": "8628dd9649752172a32e153e926d0d2e4c210dcbcde30711b0082a0a6b894710",
    "fig8": "341220ac22256233c64900bef57f0be74fc8caf46866381d094660121db835b1",
    "fig9": "45d4d0535871103376681fe84d4e31779ceb4976952080aeb1032ef3bfd4f77c",
}


def test_all_fixtures_load_and_round_trip():
    names = fixture_names()
    assert names == ["fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9"]
    for name in names:
        cfg = load_fixture(name)
        assert parse_config(cfg.to_dict()) == cfg
        assert config_hash(cfg) == FIXTURE_HASHES[name]
    with pytest.raises(ConfigError, match="unknown fixture"):
        load_fixture("fig1")


def test_expert_fixture_parameters():
    cfg = load_fixture("fig2")
    assert cfg.network.nodes == 484
    assert cfg.network.ring_degree == 4
    assert cfg.network.rewire_prob == 0.1
    assert cfg.population.competences == 10
    assert cfg.population.forgetting == 0.006
    assert cfg.population.mask_density == 0.5
    assert cfg.role_plan.role == "expert"
    assert cfg.role_plan.fraction == 0.1
    assert cfg.role_plan.boost_range == (10.0, 50.0)
    assert cfg.role_plan.step == 0
    assert cfg.role_plan.strategies == (
        "none", "random", "degree", "closeness", "betweenness", "timesharing", "dissemination",
    )
    assert cfg.run.steps == 500
    assert len(cfg.run.seeds) >= 10


def test_facilitator_and_collector_fixture_parameters():
    fig3 = load_fixture("fig3")
    assert fig3.role_plan.role == "facilitator"
    assert fig3.role_plan.count == 50
    assert fig3.role_plan.weight_factor == 1.2
    fig4 = load_fixture("fig4")
    assert fig4.role_plan.role == "collector"
    assert fig4.role_plan.count == 50
    assert any(p.kind == "collector" for p in fig4.run.probes)


def test_community_fixture_parameters():
    for name, ties in (("fig6", "none"), ("fig7", "manual"), ("fig8", "manual"), ("fig9", "algorithm")):
        cfg = load_fixture(name)
        assert cfg.network.nodes == 25
        assert cfg.community_plan is not None
        assert cfg.community_plan.method == "fixture"
        assert cfg.community_plan.ties == ties
        assert len(cfg.community_plan.communities) == 3
        assert len(cfg.run.seeds) >= 20
    fig7 = load_fixture("fig7")
    assert fig7.community_plan.manual_ties == ((11, 23),)
    fig8 = load_fixture("fig8")
    assert fig8.community_plan.manual_ties == ((11, 23), (12, 13))
    fig9 = load_fixture("fig9")
    assert fig9.community_plan.budget == 1
    assert fig9.community_plan.community_index == 0


def test_stream_rng_separates_concerns():
    a = stream_rng(7, "topology").random(5)
    b = stream_rng(7, "weights").random(5)
    assert not np.allclose(a, b)
    again = stream_rng(7, "topology").random(5)
    assert np.array_equal(a, again)
    with pytest.raises(ConfigError):
        stream_rng(7, "misc")


# -- running ------------------------------------------------------------------------


def test_run_experiment_shapes_and_reference_variant():
    cfg = parse_config(
        tiny_config(
            role_plan={"role": "expert", "strategies": ["none", "degree"], "count": 2,
                       "boost_range": [10, 20]},
        )
    )
    report = run_experiment(cfg)
    assert set(report.variants) == {"none", "degree"}
    assert report.seeds == (1, 2)
    ref = report.variants["none"]
    assert len(ref.steps) == 16
    curve = ref.mean_curve()
    assert curve.shape == (16,)
    assert np.all(np.isfinite(curve)) and np.all(curve >= 0.0)
    assert ref.final_values().shape == (2,)
    # the reference variant ignores the plan entirely
    bare = run_experiment(parse_config(tiny_config()))
    assert np.array_equal(bare.variants["default"].mean_curve(), curve)
    # the boosted variant recorded who got the role
    degree_assignment = report.variants["degree"].assignments[1]
    assert degree_assignment.role == "expert"
    assert len(degree_assignment.nodes) == 2


def test_collector_variants_share_competence_dynamics():
    cfg = parse_config(
        tiny_config(
            role_plan={"role": "collector", "strategies": ["degree", "dissemination"], "count": 3},
            run={"steps": 15, "seeds": [1, 2], "probes": ["average_competence", "collector_intake"]},
        )
    )
    report = run_experiment(cfg)
    a = report.variants["degree"]
    b = report.variants["dissemination"]
    for seed in report.seeds:
        assert np.array_equal(
            a.series[seed].column("average_competence"),
            b.series[seed].column("average_competence"),
        )
    # intake differs because different nodes were flagged
    assert not np.array_equal(
        a.series[1].column("collector_intake"), b.series[1].column("collector_intake")
    )


# sha256 of the joined csv_lines() of seed 1, recorded from the np.add.at
# kernel that the bincount scatter replaced (fig3, fig4) and from the kernel
# that streamed all E x m pairs (fig2, fig9): a diffusion kernel that drifts
# by one ulp anywhere in 100 steps changes them. fig2's degree variant places
# its experts at step 0; fig9 has no role plan, and its mask probes run on
# the graph after tie acceleration.
SERIES_SHA256 = {
    ("fig2", "none"): "d1e0091b394b432bdc7df658dc2ca45f70dcc888b8a39f39cf4f345caa088ccf",
    ("fig2", "degree"): "bc4021d373bf2febc4c741ce90eb0308c1cae0f2aaf69d241c482a89fadc7dce",
    ("fig3", "none"): "d1e0091b394b432bdc7df658dc2ca45f70dcc888b8a39f39cf4f345caa088ccf",
    ("fig3", "degree"): "2d5c57ef2de917f8f54a09e45014028c7494d47e0dac9499fb53906f04ba58d2",
    ("fig4", "none"): "16130f5174eef63cb20f9fa6c40f0fae762a5d102e02ac586ae8404739ff1db2",
    ("fig4", "degree"): "e6cfb522bd4fb516b4f3043b74a31cea1909714c793bf93b998c12b794984a7b",
    ("fig9", "default"): "1c11ceca4158e309e4ae0253a3cc6a3a17a5d252d6892d49b645f8ae90e30fc2",
}


@pytest.mark.parametrize("fixture", ["fig2", "fig3", "fig4", "fig9"])
def test_series_bytes_are_pinned(fixture):
    raw = load_fixture(fixture).to_dict()
    if raw.get("role_plan") is not None:
        raw["role_plan"]["strategies"] = ["none", "degree"]
    raw["run"]["steps"] = 100
    report = run_experiment(parse_config(raw), seeds=[1])
    digests = {
        (fixture, name): hashlib.sha256("\n".join(var.series[1].csv_lines()).encode()).hexdigest()
        for name, var in report.variants.items()
    }
    assert digests == {key: h for key, h in SERIES_SHA256.items() if key[0] == fixture}


def test_manual_ties_are_inserted_and_logged():
    cfg = parse_config(
        tiny_config(
            community_plan={
                "method": "fixture",
                "communities": [{"members": [0, 1, 2, 6, 7], "core": [0, 1]}],
                "ties": "manual",
                "manual_ties": [[0, 6]],
            }
        )
    )
    report = run_experiment(cfg, seeds=[1])
    records = report.variants["default"].ties[1]
    assert len(records) <= 1  # skipped when the edge already exists
    for rec in records:
        assert rec["mode"] == "manual"
        assert {rec["from"], rec["to"]} == {0, 6}
        assert rec["weight"] > 0.0


@pytest.mark.parametrize("ties", ["manual", "algorithm", "random"])
def test_every_tie_mode_records_the_graph_it_was_inserted_into(ties):
    plan = {
        "method": "fixture",
        "communities": [{"members": [0, 1, 2, 6, 7, 9], "core": [0, 1]}],
        "ties": ties,
        "division": "single",
    }
    plan |= {"manual_ties": [[0, 6], [7, 1], [9, 2]]} if ties == "manual" else {"budget": 3}
    cfg = parse_config(tiny_config(community_plan=plan))
    records = run_experiment(cfg, seeds=[1]).variants["default"].ties[1]
    assert len(records) >= 2
    g, workers = _graph_for(cfg.network, 1), _population_for(cfg.population, cfg.network.nodes, 1)
    for rec in records:
        assert set(rec) == {"mode", "community", "from", "to", "weight", "efficiency_before"}
        assert rec["mode"] == ties
        assert rec["community"] == (None if ties == "manual" else 0)
        assert rec["weight"] == average_edge_weight(g)  # tie_weight is null
        assert rec["efficiency_before"] == transfer_efficiency(g, workers, rec["from"], rec["to"], single_division=True)
        g = add_edge(g, rec["from"], rec["to"], rec["weight"])


def test_propose_ties_matches_frozen_example():
    cfg = load_fixture("fig9")
    records = propose_ties(cfg, seed=1)
    assert records == [
        {
            "mode": "algorithm",
            "community": 0,
            "from": 13,
            "to": 23,
            "weight": 0.020759891505313766,
            "efficiency_before": 0.00112579130671278,
        }
    ]
    two = propose_ties(cfg, seed=1, budget=2)
    assert len(two) == 2
    assert two[0] == records[0]
    with pytest.raises(ConfigError):
        propose_ties(parse_config(tiny_config()), seed=1)


# -- reporting ------------------------------------------------------------------------


def test_stabilization_step_finds_the_settled_suffix():
    assert stabilization_step([10.0, 1.0, 1.01, 1.0, 1.0], tolerance=0.05) == 1
    assert stabilization_step([5.0, 4.0, 3.0], tolerance=0.05) == 2
    assert stabilization_step([2.0, 2.0], tolerance=0.05) == 0


def test_emit_report_writes_deterministic_files(tmp_path):
    cfg = parse_config(tiny_config(output={"formats": ["both"]}))
    report = run_experiment(cfg)
    first = tmp_path / "a"
    paths = emit_report(report, first)
    names = sorted(p.name for p in paths)
    assert names == [
        "tiny__default__aggregate.csv",
        "tiny__default__seed1.csv",
        "tiny__default__seed2.csv",
        "tiny__summary.json",
    ]
    seed_csv = (first / "tiny__default__seed1.csv").read_text()
    lines = seed_csv.splitlines()
    assert lines[0] == "step,metric,scope,value"
    assert len(lines) == 1 + 16  # one probe column, initial state plus 15 steps
    assert lines[1].startswith("0,average_competence,all,")
    summary = json.loads((first / "tiny__summary.json").read_text())
    assert summary["config_hash"] == config_hash(cfg)
    assert summary["seeds"] == [1, 2]
    final = summary["variants"]["default"]["final"]["average_competence|all"]
    assert final["per_seed"]["1"] == pytest.approx(
        report.variants["default"].series[1].column("average_competence")[-1]
    )

    # a second, independent run of the same config must reproduce every byte
    second = tmp_path / "b"
    emit_report(run_experiment(parse_config(tiny_config(output={"formats": ["both"]}))), second)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_emit_report_respects_format_selection(tmp_path):
    cfg = parse_config(tiny_config())
    report = run_experiment(cfg, seeds=[1])
    only_json = emit_report(report, tmp_path / "j", formats=["json"])
    assert [p.suffix for p in only_json] == [".json"]
    with pytest.raises(ConfigError):
        emit_report(report, tmp_path / "x", formats=["yaml"])


def test_zero_step_report_is_single_row(tmp_path):
    data = tiny_config()
    data["run"] = {"steps": 0, "seeds": [3]}
    report = run_experiment(parse_config(data))
    paths = emit_report(report, tmp_path, formats=["csv"])
    seed_csv = next(p for p in paths if "seed3" in p.name)
    assert len(seed_csv.read_text().splitlines()) == 2  # header plus one row


# -- command line ---------------------------------------------------------------------


def write_tiny(tmp_path, **overrides):
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(tiny_config(**overrides)))
    return p


def test_cli_run_writes_reports(tmp_path, capsys):
    cfg_path = write_tiny(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out_dir), "--format", "csv"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert all(line.endswith(".csv") for line in printed)
    assert (out_dir / "tiny__default__seed1.csv").is_file()


def test_cli_run_seed_overrides(tmp_path):
    cfg_path = write_tiny(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--seed", "5", "--seeds", "2",
                 "--out", str(out_dir), "--format", "json"]) == 0
    summary = json.loads((out_dir / "tiny__summary.json").read_text())
    assert summary["seeds"] == [5, 6]


def test_cli_run_rejects_bad_configs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x"}))
    assert main(["run", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "nowhere.json")]) == 2
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"name": "caf\xe9"}')
    assert main(["run", str(latin1)]) == 2
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert main(["run", str(deep)]) == 2
    assert capsys.readouterr().err.count("config error") == 3


def test_cli_run_rejects_a_facilitator_weight_overflow_naming_the_edge(tmp_path, capsys):
    data = tiny_config(role_plan={"role": "facilitator", "strategies": ["degree"], "count": 3, "weight_factor": 1e200})
    data["network"]["weights"] = {"kind": "uniform", "low": 1e200, "high": 1e201}
    cfg_path = tmp_path / "overflow.json"
    cfg_path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow itself warns nothing
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
    assert re.search(r"error: edge \(\d+, \d+, inf\) rejected: edge weight must be finite", capsys.readouterr().err)


def test_cli_rank_orders_nodes(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("# nodes=3\n0,1,1.0\n1,2,1.0\n")
    assert main(["rank", str(graph), "--strategy", "betweenness"]) == 0
    assert capsys.readouterr().out.split() == ["1", "0", "2"]
    assert main(["rank", str(graph), "--strategy", "degree", "--top", "1"]) == 0
    assert capsys.readouterr().out.split() == ["1"]
    assert main(["rank", str(graph), "--strategy", "nonsense"]) == 3
    assert main(["rank", str(graph), "--strategy", "degree", "--top", "x"]) == 2
    assert main(["rank", str(tmp_path / "missing.txt"), "--strategy", "degree"]) == 3


@pytest.mark.parametrize(
    "text, line",
    [
        ("# nodes=abc\n0,1,1.0\n", 1),
        ("# nodes=3\n0,1,1.0\n1,2,heavy\n", 3),
        ("# nodes=3\n0,1,nan\n1,2,1.0\n", 2),
        ("# nodes=3\n0,1,1.0\n# nodes=3\n1,2,1.0\n", 3),
        (b"# nodes=3\n0,1,1.0\n# caf\xe9\n", None),
    ],
)
def test_cli_rank_malformed_edge_list_is_a_runtime_error(tmp_path, capsys, text, line):
    graph = tmp_path / "g.txt"
    if isinstance(text, bytes):
        graph.write_bytes(text)
    else:
        graph.write_text(text)
    assert main(["rank", str(graph), "--strategy", "degree"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(graph) in err
    assert f"line {line}" in err if line is not None else "not UTF-8" in err


def test_cli_rank_random_is_seeded(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("# nodes=5\n0,1,1.0\n1,2,1.0\n2,3,1.0\n3,4,1.0\n")
    assert main(["rank", str(graph), "--strategy", "random", "--seed", "3"]) == 0
    first = capsys.readouterr().out.split()
    assert main(["rank", str(graph), "--strategy", "random", "--seed", "3"]) == 0
    assert capsys.readouterr().out.split() == first
    assert sorted(first) == ["0", "1", "2", "3", "4"]


def test_cli_accelerate_prints_proposals(capsys):
    assert main(["accelerate", "fig9", "--seed", "1"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert records[0]["from"] == 13 and records[0]["to"] == 23


def test_cli_fixtures_list_and_export(tmp_path, capsys):
    assert main(["fixtures", "list"]) == 0
    assert capsys.readouterr().out.split() == fixture_names()
    assert main(["fixtures", "export", "--out", str(tmp_path / "fx")]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in (tmp_path / "fx").iterdir()) == [
        f"{n}.json" for n in fixture_names()
    ]
