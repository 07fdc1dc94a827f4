"""Smoke tests for the benchmark itself, separate from the program's test suite.

    python3 -m pytest -q benchmark/smoke.py

Every workload runs at its tiny size, plain and traced, and must print every
metric of BENCHMARK.json with its unit, pass the golden check and fire every
expected wrapper. The span tests check that self times add up to the root
span (the self-time arithmetic), that a lookup site the tracer missed is
reported, and that the tracing overhead pairs only neighbouring repeats.
The gauge tests check how times are scaled to the host's nominal speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from run import WORK, scaled, trace_overheads  # noqa: E402
from tracer import Tracer, descendants, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], "\n".join(lines)
    assert result["failed"] == 0 and result["attempted"] >= 1

    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, unit in units.items():
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(line.startswith(f"{name} = ") and f" {unit}  (" in line for line in lines), name
    assert any(line.startswith("failed_share = 0 ratio") for line in lines)

    if trace == "1":
        spans = json.loads((WORK / f"spans-{workload}.json").read_text())
        root = next(i for i, s in enumerate(spans) if s[0] == "bench.experiment")
        own = self_times(spans)
        inside = descendants(spans, root)
        assert sum(own[i] for i in inside) == pytest.approx(spans[root][2] - spans[root][1], abs=1e-6)
        assert {spans[i][0] for i in inside} >= set(WORKLOADS[workload].expected_spans) - {"scenario.parse_config"}


def test_self_times_add_up_only_when_children_nest():
    nested = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1], ["c", 5.0, 9.0, 0]]
    assert self_times(nested) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(nested)) == 10.0
    escaping = nested + [["d", 8.0, 12.0, 0]]
    assert sum(self_times(escaping)) != 10.0


def test_overhead_pairs_only_neighbouring_repeats():
    # Repeat 3 (plain) failed, so traced repeat 4 has no neighbour.
    plain = [{"repeat": 1, "experiment_s": 1.0}, {"repeat": 5, "experiment_s": 3.0}]
    traced = [{"repeat": 2, "experiment_s": 1.5}, {"repeat": 4, "experiment_s": 9.0}, {"repeat": 6, "experiment_s": 3.25}]
    assert trace_overheads(plain, traced) == [0.5, 0.25]


def test_times_scale_by_the_gauge_around_the_experiment():
    before = {"python_part": [0.010, 0.030], "small_part": [0.010, 0.010]}
    after = {"python_part": [0.020, 0.020], "small_part": [0.010, 0.030], "large_part": [0.008, 0.012]}
    gauge_s = 0.020 + 0.010 + 0.010  # per-part medians over both sides
    result = scaled({"experiment_s": 2.0, "setup_s": 0.5, "gauge_before": before, "gauge_after": after})
    factor = reference.NOMINAL_S / gauge_s
    assert result["gauge_s"] == pytest.approx(gauge_s)
    assert result["experiment_s"] == pytest.approx(2.0 * factor)
    assert result["setup_s"] == pytest.approx(0.5 * factor)
    assert (result["experiment_wall_s"], result["setup_wall_s"]) == (2.0, 0.5)


def test_reference_imports_nothing_the_program_does_not():
    code = "import sys; sys.path[:0] = ['src', 'benchmark']; import knowflow; m = set(sys.modules); import reference; print(sorted(set(sys.modules) - m))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['reference']"


def test_wrapper_check_reports_a_missed_lookup_site():
    sys.path.insert(0, str(ROOT / "src"))
    import knowflow
    import knowflow.diffusion
    import knowflow.scenario

    original_run = knowflow.diffusion.run
    tracer = Tracer()
    tracer.install(knowflow)
    assert tracer.unwrapped() == []
    assert knowflow.scenario.run is knowflow.diffusion.run is knowflow.run
    knowflow.scenario.run = original_run
    assert tracer.unwrapped() == ["knowflow.scenario.run"]


def test_refuses_to_run_without_the_program():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "fig9-community", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
