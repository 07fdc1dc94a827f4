"""Build the benchmark's golden record.

    python3 benchmark/make_golden.py

For every workload and size it runs one child over the whole seed range the
size declares and stores, per (variant, seed), the sha256 of the per-seed CSV
and the seed's ``role_nodes`` from ``summary.json``. A per-seed CSV depends
only on its own variant and seed, so a run over any subset of the range must
reproduce these entries. The record goes to ``benchmark/golden.json``, the
file the runner reads; an existing file is never replaced -- delete it
first, on purpose.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import GOLDEN, WORK, prepare, report_records, run_child
from workloads import WORKLOADS, variants


def main() -> int:
    if GOLDEN.exists():
        print(f"error: {GOLDEN} exists; delete it first to rebuild the golden record", file=sys.stderr)
        return 2
    record = {
        "about": "sha256 of each per-seed CSV and each seed's role_nodes, keyed variant/seed; built by make_golden.py",
        "workloads": {},
    }
    for workload in WORKLOADS.values():
        for size_name, size in workload.sizes.items():
            work = WORK / "golden" / f"{workload.name}-{size_name}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            scenario, job = prepare(workload, size_name, work)
            lo, hi = size.seed_range
            seeds = list(range(lo, hi + 1))
            began = time.monotonic()
            result = run_child(dict(job, seeds=seeds, out=str(work / "reports")), timeout=3600)
            if isinstance(result, str):
                print(f"error: {workload.name} {size_name}: {result}", file=sys.stderr)
                return 1
            records = report_records(work / "reports", scenario, seeds)
            expected = len(variants(scenario)) * len(seeds)
            if len(records) != expected:
                print(f"error: {workload.name} {size_name}: {len(records)} of {expected} reports", file=sys.stderr)
                return 1
            record["workloads"].setdefault(workload.name, {})[size_name] = {
                "seed_range": [lo, hi],
                "records": records,
            }
            shutil.rmtree(work)
            print(f"{workload.name} {size_name}: {expected} records in {time.monotonic() - began:.1f} s")
    GOLDEN.write_text(dumps(record))
    return 0


def dumps(record: dict) -> str:
    """JSON with one (variant, seed) record per line, so a changed record shows as one changed line."""
    compact = lambda value: json.dumps(value, sort_keys=True, separators=(",", ":"))
    blocks = []
    for name, sizes in sorted(record["workloads"].items()):
        size_blocks = []
        for size_name, entry in sorted(sizes.items()):
            rows = ",\n".join(f"    {compact(k)}: {compact(v)}" for k, v in sorted(entry["records"].items()))
            size_blocks.append(
                f'  {compact(size_name)}: {{"seed_range": {compact(entry["seed_range"])}, "records": {{\n{rows}\n  }}}}'
            )
        blocks.append(f" {compact(name)}: {{\n" + ",\n".join(size_blocks) + "\n }")
    return f'{{"about": {compact(record["about"])},\n"workloads": {{\n' + ",\n".join(blocks) + "\n}}\n"


if __name__ == "__main__":
    sys.exit(main())
