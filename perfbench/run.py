#!/usr/bin/env python3
"""Run the asreg2 benchmark on one workload and print its result.

    python3 perfbench/run.py --workload ample-quantum --seed 0 --seconds 20 --trace 0

Run it from the repository root; the library is imported from ``src/``.
Workloads are defined in ``workloads.py``.  Each run starts one fresh worker
process for the workload (``worker.py``) and runs one process at a time.

``--trace 0`` measures the end-to-end metrics with tracing off.  Times are
scaled to a reference host speed by a calibration kernel run between jobs
(see ``worker.py``); the unscaled ones are reported as ``raw_*``.
``setup_s`` is the median set-up time of the timed worker and of
``SETUP_PROBES`` further workers that only set up.  ``--trace 1`` measures untraced for half
the time and traced for the other half, and reports the per-layer metrics
of the traced half (per traced job) with ``trace.overhead_ratio``, traced
over untraced jobs per second; its spans and per-function table go to
``.bench_out/``.

The second-to-last line of output is a JSON object with every metric, the
raw times, the failure ratio, the tail percentile and its sample count,
failed jobs and the environment stamp.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is 0
when every job verified, 1 when one did not, and 2 when the benchmark could
not run (no result is printed then).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

END_TO_END = ("jobs_per_s", "job_p50_s", "job_tail_s", "peak_rss_mb", "setup_s")
SETUP_PROBES = 4
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def spawn(cfg, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish before the deadline")
    if proc.returncode != 0:
        raise BenchError("worker failed:\n" + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run(workload, seed, seconds, trace, job_limit=None, setup_probes=SETUP_PROBES):
    """Returns (detail, result) for one run of one workload."""
    if not os.path.isfile(os.path.join(ROOT, "src", "asreg2", "cli.py")):
        raise BenchError("no asreg2 sources under %s" % os.path.join(ROOT, "src"))
    deadline = time.monotonic() + DEADLINE_S
    cfg = {"root": ROOT, "workload": workload, "seed": seed, "seconds": seconds,
           "trace": trace, "mode": "run", "job_limit": job_limit}
    main = spawn(cfg, deadline)
    metrics = main["metrics"]
    reported = list(metrics)
    if not trace:
        setups = [main] + [spawn(dict(cfg, mode="setup"), deadline) for _ in range(setup_probes)]
        for name in ("setup_s", "raw_setup_s"):
            samples = [s[name] for s in setups]
            metrics[name] = {"value": statistics.median(samples), "unit": "s", "samples": samples}
        reported = END_TO_END
    failed = len(main["failures"])
    correct = failed == 0 and main.get("restored", True)
    detail = {
        "workload": workload,
        "why": WORKLOADS[workload].why,
        "trace": trace,
        "metrics": metrics,
        "failures": main["failures"][:20],
        "rounds": main["rounds"],
        "jobs_file": main["jobs_file"],
        "trace_file": main.get("trace_file"),
        "tracer_restored": main.get("restored"),
        "env": {
            "python": platform.python_version(),
            "backend": main["backend"],
            "git_sha": git_sha(),
            "nproc": os.cpu_count(),
            "seed": seed,
            "seconds": seconds,
            "jobs_per_round": main["jobs_per_round"],
            "jobs_attempted": main["attempted"],
        },
    }
    result = {
        "correct": bool(correct),
        "attempted": main["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in reported},
    }
    return detail, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        detail, result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("benchmark could not run: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
