"""knowflow benchmark: cold-process experiment time, checked against golden digests.

    python3 benchmark/run.py --workload fig2-expert --seed 1 --seconds 30 --trace 0

Each repeat runs one experiment -- load the config, ``run_experiment``,
``emit_report`` into a fresh directory -- in a fresh single-threaded Python
process (``benchmark/child.py``), so imports and the program's module-level
caches start cold. Repeats run one at a time (a closed loop with one client)
until ``--seconds`` have passed, and at least three times. After each
repeat, outside the timed region, every per-seed CSV and each seed's
``role_nodes`` are checked against ``benchmark/golden.json``; an operation is
one (variant, seed) run, and it fails if the child fails or its outputs differ
from the record. The record is built only by ``make_golden.py``.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates plain and traced repeats and prints the per-layer
metrics, including the tracing overhead (``experiment_s`` of each traced
repeat minus that of the plain repeat just before it). Values are medians
over repeats; the lines before the last give quartiles and sample counts,
``failed_share`` and the environment. The last line of standard output is
one JSON object. A full record of the run goes to ``.bench_work/``.

``--size tiny`` shrinks every workload for the smoke tests.

The host's speed changes by 20-35% within seconds and over minutes. So each
child also times a fixed reference computation (``reference.py``) just
before and just after its experiment, and the runner scales the repeat's
``experiment_s`` and ``setup_s`` by ``reference.NOMINAL_S`` over that gauge.
The unscaled medians are printed too. The README's Noise section gives the
spreads that remain.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from workloads import WORKLOADS, node_steps, variants

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
GOLDEN = HERE / "golden.json"

MIN_REPEATS = 3
# Passes of the reference computation a child runs just before and just after
# its experiment (about 30 ms each).
GAUGE_PASSES = 6
# A run never starts a repeat that could end after this many seconds, so the
# whole run stays well inside its 180 s limit.
HARD_LIMIT_S = 140.0


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(job: dict, timeout: float) -> dict | str:
    """Run one child to completion; its result, or the reason it failed."""
    job = dict(job, spawn_t=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return f"child timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return f"child exited with {proc.returncode}: {tail[0]}"
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return "child printed no result"


def prepare(workload, size: str, work: Path) -> tuple[dict, dict]:
    """The scenario and the child job base; writes a config file when the fixture is overridden."""
    scenario = workload.scenario(size, ROOT)
    job = {"fixture": workload.fixture, "config": None, "trace": False, "gauge_passes": GAUGE_PASSES}
    if workload.sizes[size].overrides:
        path = work / "scenario.json"
        path.write_text(json.dumps(scenario, indent=2))
        job = dict(job, fixture=None, config=str(path))
    return scenario, job


def report_records(out: Path, scenario: dict, seeds: list[int]) -> dict[str, dict]:
    """``variant/seed`` -> per-seed CSV sha256 and ``role_nodes``, for what the reports hold."""
    name = scenario["name"]
    try:
        summary = json.loads((out / f"{name}__summary.json").read_text())["variants"]
    except (OSError, json.JSONDecodeError, KeyError):
        summary = {}
    records = {}
    for variant in variants(scenario):
        for seed in seeds:
            csv = out / f"{name}__{variant}__seed{seed}.csv"
            if not csv.is_file():
                continue
            records[f"{variant}/{seed}"] = {
                "csv_sha256": hashlib.sha256(csv.read_bytes()).hexdigest(),
                "role_nodes": summary.get(variant, {}).get("role_nodes", {}).get(str(seed), "missing"),
            }
    return records


def golden_failures(records: dict, golden: dict, scenario: dict, seeds: list[int]) -> list[str]:
    failures = []
    for variant in variants(scenario):
        for seed in seeds:
            key = f"{variant}/{seed}"
            if key not in golden:
                failures.append(f"{key}: no golden record")
            elif records.get(key) != golden[key]:
                failures.append(f"{key}: reports differ from the golden record")
    return failures


def load_golden(workload: str, size: str, seed_range: tuple[int, int]) -> dict:
    try:
        entry = json.loads(GOLDEN.read_text())["workloads"][workload][size]
    except (OSError, json.JSONDecodeError, KeyError):
        return {}
    return entry["records"] if tuple(entry["seed_range"]) == tuple(seed_range) else {}


def git_commit() -> str | None:
    """The checked-out commit, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": git_commit(),
    }


def scaled(result: dict) -> dict:
    """The child's times scaled to the host's nominal speed.

    The child's passes of the reference computation just before and just
    after its experiment give ``gauge_s``. The wall times are kept as
    ``experiment_wall_s`` and ``setup_wall_s``.
    """
    gauge_s = reference.gauge(result["gauge_before"], result["gauge_after"])
    factor = reference.NOMINAL_S / gauge_s
    return dict(
        result,
        experiment_s=result["experiment_s"] * factor,
        setup_s=result["setup_s"] * factor,
        experiment_wall_s=result["experiment_s"],
        setup_wall_s=result["setup_s"],
        gauge_s=gauge_s,
    )


def trace_overheads(plain: list[dict], traced: list[dict]) -> list[float]:
    """Traced minus plain ``experiment_s`` of neighbouring successful repeats.

    Plain and traced repeats alternate, so traced repeat n runs just after
    plain repeat n - 1; pairing only such neighbours cancels most of the
    machine's slow drift in speed. A traced repeat whose neighbour failed is
    left out.
    """
    before = {r["repeat"]: r["experiment_s"] for r in plain}
    return [t["experiment_s"] - before[t["repeat"] - 1] for t in traced if t["repeat"] - 1 in before]


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median, first and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    if not (ROOT / "src" / "knowflow" / "__init__.py").is_file():
        print(f"error: no knowflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    size = workload.sizes[args.size]
    env = environment()
    start = time.monotonic()

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario, job = prepare(workload, args.size, work)
    seeds = workload.experiment_seeds(args.size, args.seed)
    golden = load_golden(args.workload, args.size, size.seed_range)
    job = dict(job, seeds=seeds, spans_out=str(WORK / f"spans-{args.workload}.json"))
    ops_per_repeat = len(variants(scenario)) * len(seeds)

    # One untimed child compiles the sources to bytecode and warms the file
    # cache, which users pay once per install, not once per run.
    warm = run_child(dict(job, warmup=True), timeout=HARD_LIMIT_S)
    if isinstance(warm, str):
        print(f"error: warm-up failed: {warm}", file=sys.stderr)
        return 1
    env.update(numpy=warm["numpy"], child_python=warm["python"])

    kinds = (False, True) if args.trace else (False,)
    samples: dict[bool, list[dict]] = {k: [] for k in kinds}
    tried = {k: 0 for k in kinds}
    attempted, failures, problems = 0, [], []
    longest = 0.0
    measured_from = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if time.monotonic() - measured_from >= args.seconds and min(tried.values()) >= MIN_REPEATS:
            break
        if elapsed + 2 * longest > HARD_LIMIT_S:
            print(f"note: stopped early at {elapsed:.1f} s to stay within the time limit", file=sys.stderr)
            break
        repeat = sum(tried.values()) + 1
        trace = kinds[(repeat - 1) % len(kinds)]
        tried[trace] += 1
        out = work / f"r{repeat}"
        began = time.monotonic()
        result = run_child(dict(job, out=str(out), trace=trace), timeout=HARD_LIMIT_S - elapsed)
        longest = max(longest, time.monotonic() - began)
        attempted += ops_per_repeat
        if isinstance(result, str):
            failures += [f"repeat {repeat}: {result}"] * ops_per_repeat
        else:
            failures += golden_failures(report_records(out, scenario, seeds), golden, scenario, seeds)
            samples[trace].append(dict(scaled(result), repeat=repeat))
        shutil.rmtree(out, ignore_errors=True)

    plain = samples[False]
    if not plain:
        print(f"error: no repeat succeeded; first failure: {failures[0]}", file=sys.stderr)
        return 1
    exp = [r["experiment_s"] for r in plain]
    series = {
        "experiment_s": exp,
        "node_steps_per_s": [node_steps(scenario, len(seeds)) / e for e in exp],
        "setup_s": [r["setup_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    wall = {name: [r[name] for r in plain] for name in ("experiment_wall_s", "setup_wall_s", "gauge_s")}
    section = "end_to_end"
    if args.trace:
        section = "per_layer"
        traced = samples[True]
        if not traced:
            print(f"error: no traced repeat succeeded; first failure: {failures[0]}", file=sys.stderr)
            return 1
        series = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
        series["trace.overhead_s"] = trace_overheads(plain, traced)
        if not series["trace.overhead_s"]:
            print("error: no traced repeat ran right after a successful plain one", file=sys.stderr)
            return 1
        for r in traced:
            missing = sorted(set(workload.expected_spans) - set(r["fired"]))
            if missing:
                problems.append(f"repeat {r['repeat']}: expected wrappers never fired: {', '.join(missing)}")
            if r["unwrapped"]:
                problems.append(f"repeat {r['repeat']}: lookup sites left unwrapped: {', '.join(r['unwrapped'])}")

    metrics, lines = {}, []
    for m in spec[section]:
        median, q1, q3 = summary(series[m["name"]])
        metrics[m["name"]] = {"value": median, "unit": m["unit"]}
        n = len(series[m["name"]])
        lines.append(f"{m['name']} = {median:.6g} {m['unit']}  (q1 {q1:.6g}, q3 {q3:.6g}, n={n})")

    failed = len(failures)
    correct = failed == 0 and not problems
    record = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "experiment_seeds": seeds,
        "environment": env,
        "repeats": {"plain": len(plain), "traced": len(samples.get(True, ()))},
        "samples": series,
        "unscaled": wall,
        "failures": failures,
        "problems": problems,
        "metrics": metrics,
        "wall_s": time.monotonic() - start,
    }
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))

    print("environment: " + json.dumps(env, sort_keys=True))
    print(
        f"{args.workload} ({args.size}), seed {args.seed}: experiment seeds {seeds}, "
        f"{len(plain)} plain and {len(samples.get(True, ()))} traced repeats"
    )
    for line in lines:
        print(line)
    for name, values in wall.items():
        median, q1, q3 = summary(values)
        print(f"{name} = {median:.6g} s  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}; not scaled)")
    print(f"failed_share = {failed / attempted:.6g} ratio  ({failed} of {attempted} operations)")
    for line in (failures[:5] + problems):
        print(f"problem: {line}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
