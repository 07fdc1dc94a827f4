"""Scenario layer: config validation, fixtures, the experiment runner, report
files, and the command line interface."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowflow import (
    ConfigError,
    GraphError,
    WeightedGraph,
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
    shortest_hop_path,
    stabilization_step,
    stream_rng,
    transfer_efficiency,
)
from knowflow import diffusion, scenario
from knowflow.cli import main
from knowflow.scenario import _graph_for, _population_for

import oracles


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


def test_mask_probe_members_may_not_repeat(tmp_path, capsys):
    probes = [{"mask": {"name": "m", "competences": [0], "members": [3, 3, 5]}}]
    with pytest.raises(ConfigError, match=re.escape("run.probes[0].mask.members[1]: duplicate member 3")):
        parse_config(tiny_config(run={"steps": 5, "seeds": [1], "probes": probes}))
    assert main(["run", str(write_tiny(tmp_path, run={"steps": 5, "seeds": [1], "probes": probes}))]) == 2
    assert "config error: run.probes[0].mask.members[1]" in capsys.readouterr().err


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


def test_specs_are_frozen_values():
    cfg, again = load_fixture("fig9"), load_fixture("fig9")
    for spec, key in ((cfg, "name"), (cfg.network, "nodes"), (cfg.community_plan.communities[0], "core")):
        with pytest.raises(AttributeError):
            setattr(spec, key, None)
    assert cfg == again and hash(cfg) == hash(again) and len({cfg, again}) == 1
    assert cfg != parse_config({**cfg.to_dict(), "name": "other"})
    # Equal values in specs of two different types are not equal.
    twin = type("Twin", (scenario._Spec,), dict(scenario.CommunityFixture._keys))
    data = {"members": [0, 1], "core": [2]}
    fixture = scenario.CommunityFixture(data, "fixture")
    assert vars(twin(data, "twin")) == vars(fixture) and twin(data, "twin") != fixture
    # Overrides apply to a copy: the config they start from stays as it was.
    propose_ties(cfg, seed=1, community_index=2, budget=2)
    assert cfg == again and (cfg.community_plan.community_index, cfg.community_plan.budget) == (0, 1)


def test_spec_replace_returns_a_changed_copy():
    network = load_fixture("fig9").network
    wider = network.replace(nodes=40, ring_degree=6)
    assert (wider.nodes, wider.ring_degree, wider.weights) == (40, 6, network.weights)
    assert (network.nodes, network.ring_degree) == (25, 4) and wider != network
    spec, weights = type(network), load_fixture("fig9").to_dict()["network"]["weights"]
    data = {"nodes": 25, "ring_degree": 4, "rewire_prob": network.rewire_prob, "weights": weights}
    assert spec(data, "network") == network
    for bad, message in (
        (lambda: network.replace(edges=3), "NetworkSpec: unknown key 'edges'"),
        (lambda: spec({}, "network"), "network.nodes: required key missing"),  # nodes has no default
        (lambda: spec({**data, "edges": 3}, "network"), "network: unknown key 'edges'"),
        (lambda: spec((25, 4, 0.1), "network"), "network: expected an object"),  # values alone name no key
        # A probe's kind follows its form: a kind change that the form does not make is not dropped.
        (lambda: scenario.ProbeSpec({"node": 3}, "probe").replace(kind="average"),
         "kind: must match the probe's form ('node'), got 'average'"),
    ):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            bad()


def test_replace_reads_what_parse_config_reads():
    for name in fixture_names():
        cfg = load_fixture(name)
        assert cfg.replace() == cfg
    plan = load_fixture("fig7").community_plan
    assert plan.replace(ties="algorithm", manual_ties=None) == load_fixture("fig9").community_plan
    assert plan.replace(tie_weight=np.float64(0.5)).tie_weight == 0.5  # a None change drops a key, a value is read
    assert plan.replace(tie_weight=0.5).replace(tie_weight=None) == plan
    # The weights and a probe are read from their own JSON forms.
    weights = parse_config(tiny_config(network={"nodes": 12, "weights": {"kind": "constant", "value": 0.3}})).network.weights
    assert (weights.replace(value=0.5).low, weights.replace(value=0.5).high) == (0.5, 0.5)
    with pytest.raises(ConfigError, match=re.escape("WeightsSpec: constant weights take 'value', not 'low'")):
        weights.replace(high=0.6)  # a constant range has one value
    probe = load_fixture("fig9").run.probes[0]
    assert (probe.kind, probe.replace(node=4).kind, probe.replace(node=4).node) == ("average", "node", 4)
    assert probe.replace(node=4).replace(node=None, kind="average") == probe  # a kind the new form makes


# One bad key edit each, made through replace on the section and as the same
# JSON edit of the fixture's to_dict(); a section of None is the config itself.
# Both name the key, replace without the section's prefix.
BAD_EDITS = [
    ("fig9", None, "name", "../escaped"),
    ("fig9", None, "run", {"steps": 1, "seeds": [1], "probes": [{"node": 25}]}),
    ("fig9", "network", "ring_degree", 3),
    ("fig9", "network", "weights", {"kind": "constant", "value": 0.2, "low": 0.1}),
    ("fig9", "population", "forgetting", 1.0),
    ("fig9", "run", "seeds", (3, 3)),
    ("fig9", "run", "probes", ["average_competence", "average_competence"]),
    ("fig9", "community_plan", "ties", "bogus"),
    ("fig9", "community_plan", "community_index", 5),
    ("fig9", "community_plan", "budget", True),
    ("fig9", "community_plan", "communities", [{"members": [0, 0], "core": []}]),
    ("fig9", "community_plan", "manual_ties", [[1, 2]]),
    ("fig7", "community_plan", "ties", "algorithm"),
    ("fig2", "role_plan", "weight_factor", 1.2),
    ("fig2", "role_plan", "strategies", ["degree", "degree"]),
    ("fig9", "diffusion", "cognitive_gain", "yes"),
    ("fig9", "output", "formats", ["xml"]),
]


@pytest.mark.parametrize("fixture, section, key, value", BAD_EDITS)
def test_replace_raises_what_parse_config_raises_for_the_same_edit(fixture, section, key, value):
    cfg = load_fixture(fixture)
    data = cfg.to_dict()
    (data if section is None else data[section])[key] = value
    with pytest.raises(ConfigError) as parsed:
        parse_config(data)
    with pytest.raises(ConfigError) as replaced:
        (cfg if section is None else getattr(cfg, section)).replace(**{key: value})
    prefix = "" if section is None else f"{section}."
    assert str(parsed.value).startswith(prefix) and str(replaced.value) == str(parsed.value).replace(prefix, "")


def test_a_replaced_config_reports_inside_its_output_directory(tmp_path):
    cfg = parse_config(tiny_config())
    with pytest.raises(ConfigError, match=re.escape("name: must match [A-Za-z0-9_.-]+, got '../escaped'")):
        cfg.replace(name="../escaped")
    out = tmp_path / "out"
    written = emit_report(run_experiment(cfg.replace(name="renamed", run={"steps": 2, "seeds": [1]})), out)
    assert written and all(path.parent == out and path.name.startswith("renamed__") for path in written)
    assert list(tmp_path.iterdir()) == [out]


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
    assert len(ref.aggregate.steps) == 16
    curve = ref.aggregate.column("average_competence:mean")
    assert curve.shape == (16,)
    assert np.all(np.isfinite(curve)) and np.all(curve >= 0.0)
    assert ref.final_values().shape == (2,)
    # the reference variant ignores the plan entirely
    bare = run_experiment(parse_config(tiny_config()))
    assert np.array_equal(bare.variants["default"].aggregate.column("average_competence:mean"), curve)
    # the boosted variant recorded who got the role
    assert len(report.variants["degree"].role_nodes[1]) == 2
    assert report.variants["none"].role_nodes[1] is None


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


@pytest.mark.parametrize(
    "fixture, strategies, detections_per_seed",
    [("fig6", None, 0), ("fig7", None, 0), ("fig9", None, 1), ("fig9", ["none", "degree", "random"], 1)],
)
def test_communities_and_ties_are_planned_once_per_seed(monkeypatch, fixture, strategies, detections_per_seed):
    # fig6 inserts no ties and fig7 manual ones: neither reads a community.
    calls = {"detect": 0, "accelerate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(scenario, "detect_communities", counted("detect", scenario.detect_communities))
    monkeypatch.setattr(scenario, "accelerate_loop", counted("accelerate", scenario.accelerate_loop))
    data = load_fixture(fixture).to_dict()
    data["run"]["steps"] = 3
    if strategies is not None:
        data["role_plan"] = {"role": "expert", "strategies": strategies, "count": 3, "boost_range": [10, 50]}
    run_experiment(parse_config(data), seeds=[1, 2, 3])
    assert calls["detect"] == 3 * detections_per_seed
    assert calls["accelerate"] == (3 if fixture == "fig9" else 0)


@pytest.fixture
def batch_sizes(monkeypatch):
    """The runs of each state that ``run_experiment`` steps, in order."""
    sizes: list[int] = []
    real_run = scenario.run

    def sized_run(state, steps, *args, **kwargs):
        sizes.append(state.runs)
        return real_run(state, steps, *args, **kwargs)

    monkeypatch.setattr(scenario, "run", sized_run)
    return sizes


@pytest.mark.parametrize("role", ["expert", "facilitator", "collector"])
def test_batched_runs_report_the_bytes_of_runs_one_by_one(tmp_path, monkeypatch, batch_sizes, role):
    extra = {"expert": {"boost_range": [10.0, 50.0]}, "facilitator": {"weight_factor": 1.5}, "collector": {}}[role]
    probes = ["average_competence", {"node": 11}, {"mask": {"name": "m", "competences": [0, 3], "members": [2, 5, 7]}}]
    data = tiny_config(
        role_plan={"role": role, "strategies": ["none", "degree", "random"], "count": 3, "step": 4, **extra},
        run={"steps": 15, "seeds": [1, 2, 3], "probes": probes + (["collector_intake"] if role == "collector" else [])},
    )
    cfg = parse_config(data)
    batch_seeds: list[set[int]] = []
    real_batch = scenario._run_batch

    def seeded_batch(config, runs, collectors):
        batch_seeds.append({run_.seed for run_ in runs})
        return real_batch(config, runs, collectors)

    monkeypatch.setattr(scenario, "_run_batch", seeded_batch)
    run_cells = cfg.network.nodes * cfg.population.competences
    reports = {}
    # The nine runs in as few batches as their columns allow; two runs a batch, so that a seed's
    # last run shares a batch with the next seed's first; and every run alone.
    for label, budget in (("batched", diffusion._BATCH_CELLS), ("paired", 2 * run_cells), ("alone", 1)):
        monkeypatch.setattr(diffusion, "_BATCH_CELLS", budget)
        batch_sizes.clear()
        batch_seeds.clear()
        reports[label] = [(p.name, p.read_bytes()) for p in emit_report(run_experiment(cfg), tmp_path / label)]
        assert sum(batch_sizes) == 9
        if label == "batched":
            assert max(batch_sizes) > 2
        elif label == "paired":
            assert max(batch_sizes) == 2 and any(len(seeds) == 2 for seeds in batch_seeds), batch_seeds
        else:
            assert batch_sizes == [1] * 9
    assert reports["batched"] == reports["paired"] == reports["alone"]


def test_a_fig2_seed_steps_its_variants_in_pairs_and_a_4840_node_run_alone(batch_sizes):
    """Two 484-node runs fit in ``_BATCH_CELLS``, three do not; a run of 4840 nodes fills it alone."""
    raw = load_fixture("fig2").to_dict()
    raw["run"]["steps"] = 1
    run_experiment(parse_config(raw), seeds=[5])
    assert batch_sizes == [2, 2, 2, 1]
    batch_sizes.clear()
    raw["network"]["nodes"] = 4840
    raw["role_plan"]["strategies"] = ["none", "degree"]
    run_experiment(parse_config(raw), seeds=[5])
    assert batch_sizes == [1, 1]


def test_a_batched_facilitator_error_names_the_runs_own_node_ids():
    cfg = parse_config(
        tiny_config(
            network={"nodes": 3, "ring_degree": 2},
            role_plan={"role": "facilitator", "strategies": ["degree"], "count": 1, "weight_factor": 1e10},
        )
    )
    pop = _population_for(cfg.population, 3, 1)
    paths = [WeightedGraph(3, [(0, 1, w), (1, 2, 1.0)]) for w in (1.0, 1e300)]
    runs = [scenario._Run("degree", seed, g, pop, (0,)) for seed, g in zip((1, 2), paths)]
    with pytest.raises(GraphError) as alone:
        scenario._run_batch(cfg, runs[1:], ())
    with pytest.raises(GraphError) as batched:
        scenario._run_batch(cfg, runs, ())
    assert str(alone.value).startswith("edge (0, 1, inf) rejected")
    assert str(batched.value) == str(alone.value)


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


# sha256 of the tie records in the summary JSON at the config seeds (json.dumps
# with sorted keys, over {variant: {seed: records}}) and of propose_ties with
# a budget of 3, recorded while the hop-path sweep asked a callable for every
# edge score and transfer_efficiency summed the path a second time.
TIES_SHA256 = {
    "fig7": "d7005cd4b40b6bac9aa0bd2ee01eda15fa41cc38e68717328ae33104dca30805",
    "fig8": "3e41463aa041bb82c04593d96cee348336a6cb45740a8e29b5172afa3d918805",
    "fig9": "7914690ad41f7484a3d8130e161433f8bf925863860b843d2ed09be010d530ac",
}
# sha256 of fig9's tie records in the same form at 0 steps and seeds 1-3 for the
# two modes the fixtures leave out: random ties at budget 3 and at budget 30
# (more than community 0's 21 pairs, so the eligible pairs run out), and manual
# ties that repeat a pair in reverse. Recorded while the random mode rebuilt its
# eligible pairs every round.
TIE_MODE_SHA256 = {
    "random-3": "b17ed4121a78b28ab6eafe805f676661f61873032247078bac43100ca4906cf9",
    "random-30": "0b3445b2e0bc37e71f1f07ee7aef6fd4b40349bacefd61ddfbb116ec3c26db32",
    "manual": "1c9e1237f554794e25fa635f8feb27b72ccc8dc44698a2ec41f83a4a0c361d02",
}
TIE_MODE_PLANS = {
    "random-3": {"ties": "random", "budget": 3},
    "random-30": {"ties": "random", "budget": 30},
    "manual": {"ties": "manual", "manual_ties": [[11, 23], [23, 11], [12, 13]]},
}
PROPOSALS_SHA256 = {
    1: "12f219427ce4d53482c8cab8e1e4be3638e5947b594b4bee2921abefc3613f5a",
    2: "575905206d9b78e3968ba5ef80f9c7d066b4c56d8d3dc528dc4079ad47d344ac",
    3: "9ae7e26a347a39279274f697938881521cc53006056ef58e3e03efabfd1df1e3",
}
# fig7 and fig8 plan manual ties on fig9's network and communities; proposing
# ties switches their plans to the algorithm, so they propose fig9's ties. The
# sha256 of `knowflow accelerate fig7 --budget 3`'s output, recorded with them.
ACCELERATE_FIG7_SHA256 = "50bb231d857e202082bcac8c3a6b7e9498dd030fbfa09989b1d83f71e41671be"


# sha256 of each variant's role_nodes in the summary JSON (json.dumps with
# sorted keys, over {seed: nodes}) at seeds 1-3, recorded while a strategy was
# an enum member and a variant's role holders a (role, nodes) record.
ROLE_NODES_SHA256 = {
    ("fig2", "betweenness"): "98379b712b6500334e434999c966b68c229451e0062e8df753dc19cbf18a07ac",
    ("fig2", "closeness"): "dd485f74ac0265baafa8a30b225dff99bb9211b0c02298001a8f9f9d6307ff8c",
    ("fig2", "degree"): "2348d6fccc27cd53147895f69654833cd1805a82802b034a278eaa3145eb8ec0",
    ("fig2", "dissemination"): "5657ae21ed788bdee080e2eb127828c1f049949a62069e7c8ab15a0e0d9841b8",
    ("fig2", "none"): "1f4a0f529319d176010749782acaa8a749c9824be069e0889b838b8da2abe2af",
    ("fig2", "random"): "943efaec0fe01f7602cc01b771e838f8d2b8549de2f900a5b2ce0442d36d29bb",
    ("fig2", "timesharing"): "80f1e7e0ed3ba74a3cb98b05c954bf80d6a05318df088cf1c8102c444b35d590",
    ("fig3", "betweenness"): "119cdf540f2d6aae343775372688ca6bf57144399dc33abc9e12b97fa52f663c",
    ("fig3", "closeness"): "7b7d02745399c1b2251186dc72612ec875a5b247d1fc7390c8671bae8425b4d6",
    ("fig3", "degree"): "8324f54c9a76bd427aef5840c972a8aa6854746bc0b45d2634c5d952c4fd89d2",
    ("fig3", "dissemination"): "93781fd4ac42b7c502bd41d57263fba75cfe3fcab05adb15590bf8ed88ad0db0",
    ("fig3", "none"): "1f4a0f529319d176010749782acaa8a749c9824be069e0889b838b8da2abe2af",
    ("fig3", "random"): "54adc387281710f5f8a2e594d1be8c8b595df5f7e52a380a1ef850388a4cc863",
    ("fig3", "timesharing"): "5828579195e72f76c67f54264ff8f771d66e7b17d47bfc032f5640bc5376f606",
    ("fig4", "betweenness"): "119cdf540f2d6aae343775372688ca6bf57144399dc33abc9e12b97fa52f663c",
    ("fig4", "closeness"): "7b7d02745399c1b2251186dc72612ec875a5b247d1fc7390c8671bae8425b4d6",
    ("fig4", "degree"): "8324f54c9a76bd427aef5840c972a8aa6854746bc0b45d2634c5d952c4fd89d2",
    ("fig4", "dissemination"): "93781fd4ac42b7c502bd41d57263fba75cfe3fcab05adb15590bf8ed88ad0db0",
    ("fig4", "random"): "54adc387281710f5f8a2e594d1be8c8b595df5f7e52a380a1ef850388a4cc863",
    ("fig4", "timesharing"): "5828579195e72f76c67f54264ff8f771d66e7b17d47bfc032f5640bc5376f606",
}


def _sha256_of_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("fixture", ["fig2", "fig3", "fig4"])
def test_role_nodes_are_pinned(fixture, tmp_path):
    raw = load_fixture(fixture).to_dict()
    raw["run"].update(steps=0, seeds=[1, 2, 3])  # role holders are ranked before the first step
    emit_report(run_experiment(parse_config(raw)), tmp_path, formats=["json"])
    summary = json.loads((tmp_path / f"{fixture}__summary.json").read_text())
    digests = {(fixture, name): _sha256_of_json(var["role_nodes"]) for name, var in summary["variants"].items()}
    assert digests == {key: h for key, h in ROLE_NODES_SHA256.items() if key[0] == fixture}


@pytest.mark.parametrize("fixture", ["fig7", "fig8", "fig9"])
def test_tie_records_are_pinned(fixture, tmp_path):
    raw = load_fixture(fixture).to_dict()
    raw["run"]["steps"] = 0  # ties are planned before the first step
    emit_report(run_experiment(parse_config(raw)), tmp_path, formats=["json"])
    summary = json.loads((tmp_path / f"{fixture}__summary.json").read_text())
    assert _sha256_of_json({name: var["ties"] for name, var in summary["variants"].items()}) == TIES_SHA256[fixture]


@pytest.mark.parametrize("case", sorted(TIE_MODE_PLANS))
def test_random_and_manual_tie_records_are_pinned(case, tmp_path):
    raw = load_fixture("fig9").to_dict()
    raw["run"].update(steps=0, seeds=[1, 2, 3])
    raw["community_plan"].update(TIE_MODE_PLANS[case])
    emit_report(run_experiment(parse_config(raw)), tmp_path, formats=["json"])
    summary = json.loads((tmp_path / "fig9__summary.json").read_text())
    assert _sha256_of_json({name: var["ties"] for name, var in summary["variants"].items()}) == TIE_MODE_SHA256[case]


# sha256 of every series' csv_lines() (variants, then seeds, joined) of the
# constant-weights round-trip config and of the same config with a uniform range
# whose bounds are equal, recorded while the weights were a WeightSpec object.
# Neither range draws a weight.
WEIGHT_SERIES_SHA256 = {
    "constant": "15544f8ab8d2435ab20dccd1f0685f3c8551290d36030dc2f9b34e42e7226e9c",
    "uniform-degenerate": "15544f8ab8d2435ab20dccd1f0685f3c8551290d36030dc2f9b34e42e7226e9c",
}
WEIGHT_CASES = {
    "constant": {"kind": "constant", "value": 0.3},
    "uniform-degenerate": {"kind": "uniform", "low": 0.3, "high": 0.3},
}


@pytest.mark.parametrize("case", sorted(WEIGHT_CASES))
def test_series_of_a_constant_weight_range_are_pinned(case):
    report = run_experiment(parse_config(tiny_config(network={"nodes": 12, "weights": WEIGHT_CASES[case]})))
    text = "\n".join("\n".join(var.series[s].csv_lines()) for var in report.variants.values() for s in report.seeds)
    assert hashlib.sha256(text.encode()).hexdigest() == WEIGHT_SERIES_SHA256[case]


def test_tie_proposals_are_pinned(capsys):
    for fixture in ("fig7", "fig8", "fig9"):
        cfg = load_fixture(fixture)
        proposals = {seed: _sha256_of_json(propose_ties(cfg, seed=seed, budget=3)) for seed in PROPOSALS_SHA256}
        assert proposals == PROPOSALS_SHA256, fixture
    assert main(["accelerate", "fig7", "--budget", "3"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == ACCELERATE_FIG7_SHA256


def test_fig9_plans_its_ties_through_the_module_bindings_of_both_path_functions(monkeypatch):
    # A wrapper at every module binding sees each call, as the benchmark's
    # tracer does; a tie planner that bypassed these two functions would
    # leave its traced fig9 run without their spans.
    calls = dict.fromkeys(("transfer_efficiency", "shortest_hop_path"), 0)
    modules = [m for name, m in list(sys.modules.items()) if name == "knowflow" or name.startswith("knowflow.")]
    for fn in (transfer_efficiency, shortest_hop_path):

        def counted(*args, fn=fn, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, counted)
    run_experiment(load_fixture("fig9"), seeds=[1])
    assert calls["transfer_efficiency"] > 0 and calls["shortest_hop_path"] > 0


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


# Curves that settle, drift or end on a value that is not finite; each value often repeats.
_curve_values = st.sampled_from([0.0, 1.0, 1.04, -1.0, 1e-320, 1e308, np.inf, -np.inf, np.nan]) | st.floats()


@settings(max_examples=60, deadline=None)
@given(st.lists(_curve_values, min_size=1, max_size=8), st.sampled_from([0.0, 0.05, 1.0]) | st.floats(0.0, 1e3))
def test_stabilization_step_matches_the_backward_walk(curve, tolerance):
    with np.errstate(all="ignore"):  # inf - inf is NaN in either form
        expected = oracles.loop_stabilization_step(np.array(curve), tolerance)
        assert stabilization_step(curve, tolerance=tolerance) == expected


@pytest.mark.parametrize(
    "curve, tolerance, message",
    [
        ([], 0.05, "curve: expected at least one value, got shape (0,)"),
        ([[1.0, 2.0], [3.0, 4.0]], 0.05, "curve: expected shape (n,), got (2, 2)"),
        (["a"], 0.05, "curve: expected a rectangular array of numbers, got ['a']"),
        ([[1.0], [1.0, 2.0]], 0.05, "curve: expected a rectangular array of numbers, got [[1.0], [1.0, 2.0]]"),
        ([1.0, 2.0], -1, "tolerance: must be >= 0.0, got -1.0"),
        ([1.0, 2.0], float("nan"), "tolerance: expected a finite number, got nan"),
    ],
)
def test_stabilization_step_reads_its_inputs(curve, tolerance, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        stabilization_step(curve, tolerance=tolerance)


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


def test_emit_report_fills_one_csv_template_per_steps_and_columns(tmp_path, monkeypatch):
    # The variants' per-seed series share one template and their aggregates another;
    # every file holds the bytes of the row-by-row writer.
    role_plan = {"role": "expert", "strategies": ["none", "degree"], "count": 2, "boost_range": [10.0, 50.0]}
    probes = ["average_competence", {"mask": {"name": "m", "competences": [1]}}]
    report = run_experiment(parse_config(tiny_config(role_plan=role_plan, run={"steps": 6, "seeds": [1, 2], "probes": probes})))
    built = []
    template = diffusion._csv_template
    monkeypatch.setattr(diffusion, "_csv_template", lambda *key: built.append(key) or template(*key))
    written = emit_report(report, tmp_path, formats=["csv"])
    assert len(written) == 6 and len(built) == 2
    for path in written:
        result = report.variants[path.stem.split("__")[1]]
        label = path.stem.split("__")[2]
        table = result.aggregate if label == "aggregate" else result.series[int(label.removeprefix("seed"))]
        assert path.read_text() == "\n".join(oracles.row_csv_lines(table)) + "\n"


def test_a_variants_series_and_aggregate_are_values():
    # Both seeds run in one batch, whose series once shared one mutable list of steps with the aggregate.
    result = run_experiment(parse_config(tiny_config())).variants["default"]
    for table in (result.series[1], result.series[2], result.aggregate):
        assert table.steps == tuple(range(16)) and type(table.columns) is tuple
        assert not table.values.flags.writeable
    with pytest.raises(AttributeError):
        result.series[1].steps.append(9)


@pytest.mark.parametrize("steps", [0, 3])
def test_the_aggregate_is_a_series_of_each_common_columns_mean_and_std(tmp_path, steps):
    # Collector columns differ by seed, so only the columns every seed recorded are aggregated.
    # Eleven seeds of one step: numpy sums such a column pairwise, unlike a longer one.
    probes = ["average_competence", "collector_intake", {"node": 3}]
    cfg = parse_config(
        tiny_config(
            role_plan={"role": "collector", "strategies": ["degree"], "count": 2},
            run={"steps": steps, "seeds": list(range(1, 12)), "probes": probes},
        )
    )
    result = run_experiment(cfg).variants["degree"]
    per_seed = [result.series[s] for s in result.seeds]
    common = [("average_competence", "all"), ("collector_intake", "all"), ("average_competence", "node:3")]
    assert [c for c in per_seed[0].columns if all(c in s.columns for s in per_seed)] == common
    aggregate = result.aggregate
    assert aggregate.columns == tuple((f"{metric}:{stat}", scope) for metric, scope in common for stat in ("mean", "std"))
    assert aggregate.steps == tuple(range(steps + 1))
    assert not aggregate.values.flags.writeable
    for j, col in enumerate(common):
        matrix = np.stack([s.column(*col) for s in per_seed])
        assert np.array_equal(aggregate.values[:, 2 * j], matrix.mean(axis=0))
        assert np.array_equal(aggregate.values[:, 2 * j + 1], matrix.std(axis=0, ddof=1))
    assert np.array_equal(result.aggregate.column("collector_intake:mean"), aggregate.values[:, 2])
    emit_report(run_experiment(cfg), tmp_path, formats=["csv"])
    written = (tmp_path / "tiny__degree__aggregate.csv").read_text()
    assert written == "\n".join(aggregate.csv_lines()) + "\n"
    single = run_experiment(cfg, seeds=[4]).variants["degree"].aggregate
    assert len(single.columns) == 2 * (3 + 2) and not single.values[:, 1::2].any()  # each seed has its 2 collectors


def test_emit_report_expands_both_as_the_config_does(tmp_path):
    report = run_experiment(parse_config(tiny_config()), seeds=[1])
    both = emit_report(report, tmp_path / "both", formats=["both"])
    listed = emit_report(report, tmp_path / "listed", formats=["csv", "json"])
    assert [p.name for p in both] == [p.name for p in listed]
    assert [p.read_bytes() for p in both] == [p.read_bytes() for p in listed]
    twice = emit_report(report, tmp_path / "twice", formats=["json", "both"])
    assert [p.name for p in twice] == [p.name for p in listed]


def test_emit_report_respects_format_selection(tmp_path):
    cfg = parse_config(tiny_config())
    report = run_experiment(cfg, seeds=[1])
    only_json = emit_report(report, tmp_path / "j", formats=["json"])
    assert [p.suffix for p in only_json] == [".json"]
    with pytest.raises(ConfigError):
        emit_report(report, tmp_path / "x", formats=["yaml"])


def test_emit_report_reads_formats_as_the_config_does(tmp_path):
    report = run_experiment(parse_config(tiny_config()), seeds=[1])
    for formats, message in [
        ([], "formats: expected a non-empty list"),
        ("csv", "formats: expected a non-empty list"),
        (["xml"], "formats[0]: expected one of ['both', 'csv', 'json'], got 'xml'"),
    ]:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            emit_report(report, tmp_path / "x", formats=formats)
    assert not (tmp_path / "x").exists()
    assert {p.suffix for p in emit_report(report, tmp_path / "both", formats=["both"])} == {".csv", ".json"}


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


def test_cli_run_maps_running_out_of_memory_to_exit_3(tmp_path):
    # The run's series alone would take petabytes. The child's address space
    # is capped, so a run that allocates step by step cannot fill the host.
    cfg_path = write_tiny(tmp_path, run={"steps": 10**15, "seeds": [1]})
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from knowflow.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(scenario.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", child, "run", str(cfg_path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 3
    # numpy names the allocation it could not make.
    assert done.stderr.startswith("error: Unable to allocate") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


def test_cli_run_fails_when_knowledge_overflows(tmp_path):
    # fig9 with every tie at 1e300: competences overflow to inf at step 2, then to NaN.
    data = json.loads((Path(scenario.__file__).parent / "fixtures" / "fig9.json").read_text())
    data["network"]["weights"] = {"kind": "constant", "value": 1e300}
    data["community_plan"]["ties"] = "none"
    data["run"].update(steps=30, seeds=[1])
    env = {**os.environ, "PYTHONPATH": str(Path(scenario.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    # An expert intervention after the overflow redraws finite values into an overflowed population.
    expert = {"role": "expert", "strategies": ["degree"], "count": 2, "boost_range": [1, 2], "step": 20}
    for label, config in (("alone", data), ("expert", {**data, "role_plan": expert})):
        cfg_path, out_dir = tmp_path / f"{label}.json", tmp_path / label
        cfg_path.write_text(json.dumps(config))
        done = subprocess.run(
            [sys.executable, "-m", "knowflow.cli", "run", str(cfg_path), "--out", str(out_dir)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 3
        assert done.stderr == "error: knowledge overflowed: a competence or probe value is not finite by step 2\n"
        assert done.stdout == "" and not out_dir.exists()


def test_cli_accelerate_averages_large_finite_tie_weights(tmp_path, capsys):
    # The weights' sum overflows, their mean does not.
    data = json.loads((Path(scenario.__file__).parent / "fixtures" / "fig9.json").read_text())
    data["network"]["weights"] = {"kind": "constant", "value": 1.7e308}
    data["run"]["seeds"] = [1]
    cfg_path = tmp_path / "heavy.json"
    cfg_path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["accelerate", str(cfg_path)]) == 0
        proposals = json.loads(capsys.readouterr().out)
        assert [p["weight"] for p in proposals] == [1.7e308]
        # Diffusion over such ties overflows at once.
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "error: knowledge overflowed: a competence or probe value is not finite by step 1\n"


@pytest.mark.parametrize(
    "probes, role_plan",
    [
        (["average_competence", "average_competence"], None),
        ([{"node": 3}, "average_competence", {"node": 3}], None),
        # Two mask probes of one name record one column, whatever they select.
        ([{"mask": {"name": "core", "competences": [1]}},
          {"mask": {"name": "core", "competences": [2], "members": [0]}}], None),
        (["collector_intake", "collector_intake"], {"role": "collector", "strategies": ["degree"], "count": 2}),
    ],
)
def test_probes_that_repeat_a_column_are_config_errors(tmp_path, capsys, probes, role_plan):
    extra = {} if role_plan is None else {"role_plan": role_plan}
    data = tiny_config(run={"steps": 3, "seeds": [1], "probes": probes}, **extra)
    message = f"run.probes[{len(probes) - 1}]: records the same columns as run.probes[0]"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(data)
    cfg_path = write_tiny(tmp_path, run=data["run"], **extra)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    masks = [{"mask": {"name": name, "competences": [1]}} for name in ("a", "b")]
    parse_config(tiny_config(run={"steps": 3, "seeds": [1], "probes": [{"node": 3}, {"node": 4}, *masks]}))


@pytest.mark.parametrize(
    "top, message",
    [
        ("0", "count: must be >= 1, got 0"),
        ("-3", "count: must be >= 1, got -3"),
        ("4", "count: must be <= 3, got 4"),
        ("nan", "fraction: expected a finite number, got nan"),
        ("1.5", "fraction: must be <= 1.0, got 1.5"),
    ],
)
def test_cli_rank_top_out_of_range_is_a_config_error(tmp_path, capsys, top, message):
    graph = tmp_path / "g.txt"
    graph.write_text("# nodes=3\n0,1,1.0\n1,2,1.0\n")
    assert main(["rank", str(graph), "--strategy", "degree", "--top", top]) == 2
    assert capsys.readouterr() == ("", f"config error: --top: {message}\n")


def test_cli_rank_orders_nodes(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("# nodes=3\n0,1,1.0\n1,2,1.0\n")
    assert main(["rank", str(graph), "--strategy", "betweenness"]) == 0
    assert capsys.readouterr().out.split() == ["1", "0", "2"]
    assert main(["rank", str(graph), "--strategy", "degree", "--top", "1"]) == 0
    assert capsys.readouterr().out.split() == ["1"]
    # An unknown strategy is checked before the graph is read.
    assert main(["rank", str(tmp_path / "missing.txt"), "--strategy", "nonsense"]) == 2
    expected = "['betweenness', 'closeness', 'degree', 'dissemination', 'random', 'timesharing']"
    assert capsys.readouterr().err == f"config error: --strategy: expected one of {expected}, got 'nonsense'\n"
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


@pytest.mark.parametrize(
    "text, line",
    [
        ("# nodes=3\n0,1,1_0\n", 2),
        ("# nodes=3\n0,1,1.0\n1,2,\uff11\n", 3),  # a full-width digit one
        ("# nodes=1_0\n0,1,1.0\n", 1),
        ("# nodes=\u0663\n0,1,1.0\n", 1),  # an Arabic-Indic digit three
    ],
)
def test_cli_rank_takes_only_ascii_numerals(tmp_path, capsys, text, line):
    graph = tmp_path / "g.txt"
    graph.write_text(text, encoding="utf-8")
    assert main(["rank", str(graph), "--strategy", "degree"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(graph) in err and f"line {line}" in err


def test_cli_rank_refuses_a_node_count_beyond_the_index_range(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text(f"# nodes={10**20}\n0,1,1.0\n")
    assert main(["rank", str(graph), "--strategy", "degree"]) == 3
    limit = math.isqrt(np.iinfo(np.intp).max)
    assert capsys.readouterr().err == f"error: {graph}: node_count: must be <= {limit}, got {10**20}\n"


def test_cli_rank_random_is_seeded(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("# nodes=5\n0,1,1.0\n1,2,1.0\n2,3,1.0\n3,4,1.0\n")
    assert main(["rank", str(graph), "--strategy", "random", "--seed", "3"]) == 0
    first = capsys.readouterr().out.split()
    assert main(["rank", str(graph), "--strategy", "random", "--seed", "3"]) == 0
    assert capsys.readouterr().out.split() == first
    assert sorted(first) == ["0", "1", "2", "3", "4"]


def test_cli_run_on_a_directory_is_a_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {tmp_path}: expected a file\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_accelerate_prints_proposals(capsys):
    assert main(["accelerate", "fig9", "--seed", "1"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert records[0]["from"] == 13 and records[0]["to"] == 23


@pytest.mark.parametrize("bad", [1.7, True, -1, np.int64(-1), np.float64(3.0), "1"])
def test_every_library_seed_is_a_non_negative_integer(bad):
    cfg = parse_config(tiny_config())
    with pytest.raises(ConfigError, match=re.escape("seeds[1]: ")):
        run_experiment(cfg, seeds=[2, bad])
    with pytest.raises(ConfigError, match="^seed: "):
        propose_ties(load_fixture("fig9"), seed=bad)
    with pytest.raises(ConfigError, match="^seed: "):
        stream_rng(bad, "topology")


@pytest.mark.parametrize("bad", [True, 1.5, 1.0, np.float64(2.0), np.bool_(True), -1, "1"])
def test_tie_overrides_are_non_negative_integers(bad):
    cfg = load_fixture("fig9")
    for key in ("budget", "community_index"):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            propose_ties(cfg, seed=1, **{key: bad})
    assert propose_ties(cfg, seed=1, budget=np.int64(2), community_index=np.int64(1)) == propose_ties(
        cfg, seed=1, budget=2, community_index=1
    )


def test_cli_accelerate_rejects_a_negative_budget(capsys):
    assert main(["accelerate", "fig9", "--budget", "-1"]) == 2
    assert capsys.readouterr().err.strip() == "config error: --budget: must be >= 0, got -1"


def test_an_out_of_range_community_index_names_its_override(tmp_path, capsys):
    fixture = load_fixture("fig9")  # three communities, defined by the fixture
    with pytest.raises(ConfigError, match="^" + re.escape("community_index: only 3 communities defined, got 5")):
        propose_ties(fixture, community_index=5)
    assert main(["accelerate", "fig9", "--community", "5"]) == 2
    assert capsys.readouterr().err == "config error: --community: only 3 communities defined, got 5\n"
    data = fixture.to_dict()
    data["community_plan"] = {"method": "jaccard", "ties": "algorithm", "community_index": 1000}
    path = tmp_path / "jaccard.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match=r"^community_plan\.community_index: only \d+ communities detected, got 1000$"):
        propose_ties(load_config(path))
    assert main(["accelerate", str(path), "--community", "999"]) == 2
    assert re.fullmatch(r"config error: --community: only \d+ communities detected, got 999\n", capsys.readouterr().err)


def test_library_seeds_take_numpy_integers_and_no_repeats():
    cfg = parse_config(tiny_config())
    report = run_experiment(cfg, seeds=np.array([2, 1]))
    assert report.seeds == (2, 1) and all(type(s) is int for s in report.seeds)
    assert report.variants["default"].final_values().tolist() == [
        run_experiment(cfg, seeds=[s]).variants["default"].final_values()[0] for s in (2, 1)
    ]
    assert propose_ties(load_fixture("fig9"), seed=np.int64(1)) == propose_ties(load_fixture("fig9"), seed=1)
    with pytest.raises(ConfigError, match=re.escape("seeds[1]: duplicate seed 2")):
        run_experiment(cfg, seeds=[2, 2])
    for seeds in ([], 5, "ab"):  # a string is not a list of seeds
        with pytest.raises(ConfigError, match="^seeds: expected a non-empty list$"):
            run_experiment(cfg, seeds=seeds)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "fig9", "--seed", "-1"], "--seed: must be >= 0, got -1"),
        (["run", "fig9", "--seed", "3", "--seeds", "100000000000000000000"], "--seeds: too many seeds"),
        (["run", "fig9", "--seeds", "0"], "--seeds: must be >= 1, got 0"),
        (["accelerate", "fig9", "--seed", "-1"], "--seed: must be >= 0, got -1"),
        (["rank", "GRAPH", "--strategy", "random", "--seed", "-1"], "--seed: must be >= 0, got -1"),
        (["accelerate", "fig9", "--community", "-1"], "--community: must be >= 0, got -1"),
        (["accelerate", "fig9", "--community", "-1", "--seed", "2"], "--community: must be >= 0, got -1"),
        (["rank", "GRAPH", "--strategy", "degree", "--seed", "-1"], "--seed: must be >= 0, got -1"),
    ],
)
def test_cli_seed_options_are_config_errors(tmp_path, capsys, argv, message):
    graph = tmp_path / "g.txt"
    graph.write_text("# nodes=3\n0,1,1.0\n1,2,1.0\n")
    argv = [str(graph) if a == "GRAPH" else a for a in argv]
    assert main(argv + (["--out", str(tmp_path / "out")] if argv[0] == "run" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_log_level_is_a_config_error(monkeypatch, capsys):
    monkeypatch.setenv("KNOWFLOW_LOG_LEVEL", "foo")
    assert main(["fixtures", "list"]) == 2
    levels = "['CRITICAL', 'DEBUG', 'ERROR', 'INFO', 'WARNING']"
    assert capsys.readouterr() == ("", f"config error: KNOWFLOW_LOG_LEVEL: expected one of {levels}, got 'FOO'\n")
    monkeypatch.setenv("KNOWFLOW_LOG_LEVEL", "info")
    assert main(["fixtures", "list"]) == 0
    assert capsys.readouterr().out.split() == fixture_names()


def test_cli_fixtures_list_and_export(tmp_path, capsys):
    assert main(["fixtures", "list"]) == 0
    assert capsys.readouterr().out.split() == fixture_names()
    assert main(["fixtures", "export", "--out", str(tmp_path / "fx")]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in (tmp_path / "fx").iterdir()) == [
        f"{n}.json" for n in fixture_names()
    ]
