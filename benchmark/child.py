"""One repeat of a benchmark workload, run in a fresh Python process.

    python3 benchmark/child.py '<job JSON>'

The job names either a shipped ``fixture`` or a generated ``config`` file,
the experiment ``seeds``, a fresh report directory ``out``, whether to
``trace``, and ``spawn_t``: the parent's ``time.monotonic()`` just before it
started this process (the clock is system-wide, so set-up time counts from
process start). With ``warmup`` set the child stops after loading the config.

Just before and just after the experiment, outside its timed region, the
child times ``gauge_passes`` passes of the benchmark's reference computation
(``reference.py``); the runner uses them to scale out the host's speed. Only
the light parts run before the experiment, and the rest after the peak RSS
is read.

Only the public API is called: ``load_fixture`` or ``load_config``, then
``run_experiment`` and ``emit_report``. The last line of standard output is
one JSON object with the measurements.
"""

from __future__ import annotations

import json
import resource
import sys
import time

def peak_rss_mb() -> float:
    """This process's own peak resident set size, in MiB.

    ``ru_maxrss`` keeps the high-water mark of the address space replaced at
    exec, i.e. of the parent that spawned this process, so the kernel's
    ``VmHWM`` for the current address space is read where it exists.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    job = json.loads(sys.argv[1])
    import knowflow

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(knowflow)
    if job["config"] is not None:
        config = knowflow.load_config(job["config"])
    else:
        config = knowflow.load_fixture(job["fixture"])
    setup_s = time.monotonic() - job["spawn_t"]

    import numpy

    result = {"setup_s": setup_s, "numpy": numpy.__version__, "python": sys.version.split()[0]}
    if job.get("warmup"):
        print(json.dumps(result))
        return

    def experiment():
        report = knowflow.run_experiment(config, job["seeds"])
        return report, knowflow.emit_report(report, job["out"])

    if tracer is not None:
        experiment = tracer.wrap("bench.experiment", experiment)
    import reference

    result["gauge_before"] = reference.passes(job["gauge_passes"], reference.LIGHT_PARTS)
    t0 = time.monotonic()
    report, _ = experiment()
    result["experiment_s"] = time.monotonic() - t0
    result["peak_rss_mb"] = peak_rss_mb()
    result["gauge_after"] = reference.passes(job["gauge_passes"])

    if tracer is not None:
        runs = len(report.variants) * len(report.seeds)
        result["layers"] = tracer.layer_metrics(runs)
        result["fired"] = sorted(tracer.fired())
        result["unwrapped"] = tracer.unwrapped()
        with open(job["spans_out"], "w") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
