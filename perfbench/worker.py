"""One benchmark worker: a fresh process that runs one workload.

    python3 perfbench/worker.py '<json config>'

The config names the repository root, the workload, the seed, the seconds
to measure, whether to trace, and the mode: ``setup`` stops after set-up,
``run`` also runs the timed loop.  The worker prints one JSON line.

Set-up is timed from the top of this file, before asreg2 is imported: the
import, building the CLI parser and a fixed warm-up of small jobs that fills
module caches such as the cyclotomic reduction rows.  The timed loop is a
closed loop with one client: the next ``asreg2.cli.main(argv)`` call starts
when the previous one has returned.  It runs whole rounds of the seeded job
list, at least ``MIN_ROUNDS`` and until ``seconds`` have passed, so every
run is the same mix of sizes.  Outputs are checked after the loop, outside
any timed or traced region.

Host speed on shared machines drifts by tens of percent within seconds and
between minutes, for the same process running the same job.  So a short
fixed pure-Python kernel (``calibrate``, no asreg2 code) runs between jobs,
and every time is also reported scaled to the reference speed:
``wall * REFERENCE_CAL_S / median(calibrations around the job)``.  These scaled
times are the reported metrics, still in seconds; the raw ones are kept
beside them.  A change to asreg2 cannot move the calibration kernel.
"""

import time

T_START = time.perf_counter()

import collections  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, check_output  # noqa: E402

# (metric, traced name, field): "calls", "s" and "self_s" are per traced
# job, "ratio" is useful outcomes over calls; "layer_s"/"layer_self_s"
# take a whole layer.
PER_LAYER = (
    ("skew.ideal_e_dims.self_s", "skew.ideal_e_dims", "self_s"),
    ("skew.skew_mul.calls", "skew.skew_mul", "calls"),
    ("skew.skew_mul.s", "skew.skew_mul", "s"),
    ("skew.corner_dimension_checks.s", "skew.corner_dimension_checks", "s"),
    ("skew.phi_injectivity_check.s", "skew.phi_injectivity_check", "s"),
    ("linalg.echelon_add.calls", "linalg.echelon_add", "calls"),
    ("linalg.echelon_add.useful_ratio", "linalg.echelon_add", "ratio"),
    ("linalg.residue.s", "linalg.residue", "s"),
    ("linalg.linear_solve.calls", "linalg.linear_solve", "calls"),
    ("cyclotomic.mul.calls", "cyclotomic.mul", "calls"),
    ("cyclotomic.mul.rational_share", "cyclotomic.mul", "ratio"),
    ("cyclotomic.inverse.calls", "cyclotomic.inverse", "calls"),
    ("cyclotomic.s", "cyclotomic", "layer_s"),
    ("algebra.reduce_product.calls", "algebra.reduce_product", "calls"),
    ("algebra.reduce_product.s", "algebra.reduce_product", "s"),
    ("algebra.graded_basis.calls", "algebra.graded_basis", "calls"),
    ("automorphisms.char.calls", "automorphisms.char", "calls"),
    ("automorphisms.make_cyclic_group.s", "automorphisms.make_cyclic_group", "s"),
    ("beilinson.idempotent_system_report.s", "beilinson.idempotent_system_report", "s"),
    ("beilinson.lambda_mul.calls", "beilinson.lambda_mul", "calls"),
    ("beilinson.gabriel_quiver_oracle.s", "beilinson.gabriel_quiver_oracle", "s"),
    ("beilinson.nabla_skew_structure_check.s", "beilinson.nabla_skew_structure_check", "s"),
    ("quivers.reflection_search.self_s", "quivers.reflection_search", "self_s"),
    ("quivers.bgp_reflect.calls", "quivers.bgp_reflect", "calls"),
    ("quivers.quiver_isomorphic.calls", "quivers.quiver_isomorphic", "calls"),
    ("quivers.quiver_isomorphic.hit_ratio", "quivers.quiver_isomorphic", "ratio"),
    ("quivers.quiver_isomorphic.s", "quivers.quiver_isomorphic", "s"),
    ("quivers.components.calls", "quivers.components", "calls"),
    ("cli.main.calls", "cli.main", "calls"),
) + tuple(("%s.self_s" % layer, layer, "layer_self_s") for layer in (
    "cli", "automorphisms", "algebra", "cyclotomic", "linalg", "skew", "beilinson", "quivers"))

UNITS = {"s": "s/job", "self_s": "s/job", "layer_s": "s/job", "layer_self_s": "s/job",
         "calls": "calls/job", "ratio": "1"}

# An untraced run measures at least this many rounds, so the tail level
# below is fixed by the workload's round size alone.
MIN_ROUNDS = 4
# The tail is the highest of these percentiles that has at least ten samples
# beyond it in MIN_ROUNDS rounds.  Keeping it fixed per workload means a
# faster program, which runs more rounds, still reports the same percentile.
TAIL_LEVELS = (99.0, 95.0, 90.0, 75.0, 50.0)

# Median calibrate() time on a 2-vCPU Intel Xeon VM under Python 3.11.
REFERENCE_CAL_S = 0.0014
# calibrations on each side of a job that set its scale
CAL_HALF_WINDOW = 3


def calibrate():
    """Wall time of a fixed pure-Python kernel (fractions, tuples, dicts)."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 300):
        acc += Fraction(i, i + 7)
        seen[(i % 97, i % 13)] = acc.numerator % 1009
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


def scales(cals):
    """Scale for job i, which ran between calibrations i and i+1."""
    h = CAL_HALF_WINDOW
    return [REFERENCE_CAL_S / statistics.median(cals[max(0, i + 1 - h):i + 1 + h])
            for i in range(len(cals) - 1)]


def run_job(cli, argv):
    """Run one CLI job in-process; returns (wall s, exit status, stdout, error)."""
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc, error = exc.code, "SystemExit(%r)" % (exc.code,)
    except Exception:
        rc, error = None, traceback.format_exc(limit=3)
    return time.perf_counter() - t0, rc, buf.getvalue(), error


def run_rounds(cli, jobs, budget, min_rounds=1, tracer=None):
    """Whole rounds of ``jobs``: at least ``min_rounds``, and until ``budget`` s passed."""
    records = []
    cals = [calibrate()]
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < budget:
        for slot, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = len(records)
            wall, rc, out, error = run_job(cli, job.argv)
            records.append({"round": rounds, "slot": slot, "job": job, "wall": wall,
                            "rc": rc, "out": out, "error": error})
            # the next job starts from the same collector state, as a fresh
            # CLI process would, so the order of jobs does not change its cost
            gc.collect()
            cals.append(calibrate())
        rounds += 1
    for rec, scale in zip(records, scales(cals)):
        rec["scaled"] = rec["wall"] * scale
    return records


def verify(workload, records, expected):
    failures = []
    for rec in records:
        problems = ([rec["error"]] if rec["error"] else []) or check_output(
            workload, rec["job"], rec["rc"], rec["out"], expected)
        rec["ok"] = not problems
        if problems:
            failures.append({"argv": rec["job"].key, "problems": problems})
        rec["out"] = None
    return failures


def throughput(records, key="scaled"):
    """Median over rounds of verified jobs per second spent in jobs."""
    rounds = collections.defaultdict(lambda: [0, 0.0])
    for rec in records:
        rounds[rec["round"]][0] += rec["ok"]
        rounds[rec["round"]][1] += rec[key]
    return statistics.median(ok / spent for ok, spent in rounds.values())


def tail_level(jobs_per_round):
    n = MIN_ROUNDS * jobs_per_round
    for level in TAIL_LEVELS:
        if n - _rank(level, n) >= 10:
            return level
    return 0.0


def _rank(level, n):
    return max(1, math.ceil(round(level * n / 100.0, 9)))  # nearest rank


def end_to_end(records, failures, jobs_per_round):
    level = tail_level(jobs_per_round)
    out = {}
    for prefix, key in (("", "scaled"), ("raw_", "wall")):
        walls = sorted(rec[key] for rec in records)
        out[prefix + "jobs_per_s"] = {"value": throughput(records, key), "unit": "1/s"}
        out[prefix + "job_p50_s"] = {"value": statistics.median(walls), "unit": "s"}
        out[prefix + "job_tail_s"] = {"value": walls[_rank(level, len(walls)) - 1], "unit": "s",
                                      "percentile": level, "samples": len(walls)}
    out["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                          "unit": "MiB"}
    out["fail_ratio"] = {"value": len(failures) / len(records), "unit": "1"}
    return out


def per_layer(tracer, n_jobs):
    out = {}
    for metric, source, field in PER_LAYER:
        if field == "layer_s":
            value = tracer.layer_s[source] / n_jobs
        elif field == "layer_self_s":
            value = tracer.layer_self_s[source] / n_jobs
        else:
            calls, hits, s, self_s = tracer.stats.get(source, (0, 0, 0.0, 0.0))
            value = {"calls": calls / n_jobs, "s": s / n_jobs, "self_s": self_s / n_jobs,
                     "ratio": hits / calls if calls else 0.0}[field]
        out[metric] = {"value": value, "unit": UNITS[field]}
    return out


def write_out(cfg, kind, data):
    """Write ``data`` under .bench_out/ in the checkout; returns the relative path."""
    out_dir = os.path.join(cfg["root"], ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-%s-trace%d-seed%d.json"
                        % (kind, cfg["workload"], cfg["trace"], cfg["seed"]))
    with open(path, "w") as fh:
        json.dump(data, fh)
    return os.path.relpath(path, cfg["root"])


def main():
    cfg = json.loads(sys.argv[1])
    src = os.path.join(cfg["root"], "src")
    sys.path.insert(0, src)
    import asreg2.cli as cli
    import asreg2.rationals

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit("asreg2 was not imported from %s" % src)
    workload = WORKLOADS[cfg["workload"]]
    cli.build_parser()
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    for job in workload.warmup():
        wall, rc, out, error = run_job(cli, job.argv)
        problems = [error] if error else check_output(workload.name, job, rc, out, expected)
        if problems:
            raise SystemExit("warm-up job %s failed: %s" % (job.key, problems))
    setup_s = time.perf_counter() - T_START
    scale = scales([calibrate() for _ in range(2 * CAL_HALF_WINDOW)])[CAL_HALF_WINDOW - 1]
    result = {"setup_s": setup_s * scale, "raw_setup_s": setup_s,
              "backend": asreg2.rationals.BACKEND}
    if cfg["mode"] == "setup":
        print(json.dumps(result))
        return

    jobs = workload.round(cfg["seed"])
    if cfg.get("job_limit"):
        jobs = workload.warmup()[:cfg["job_limit"]]
    result["jobs_per_round"] = len(jobs)
    if not cfg["trace"]:
        min_rounds = 1 if cfg.get("job_limit") else MIN_ROUNDS
        records = run_rounds(cli, jobs, cfg["seconds"], min_rounds)
        failures = verify(workload.name, records, expected)
        result["metrics"] = end_to_end(records, failures, len(jobs))
    else:
        from tracer import Tracer, snapshot

        plain = run_rounds(cli, jobs, cfg["seconds"] / 2.0)
        before = snapshot()
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rounds(cli, jobs, cfg["seconds"] / 2.0, tracer=tracer)
        finally:
            tracer.restore()
        result["restored"] = snapshot() == before
        failures = verify(workload.name, plain, expected) + verify(workload.name, traced, expected)
        records = plain + traced
        metrics = per_layer(tracer, len(traced))
        metrics["trace.overhead_ratio"] = {"value": throughput(traced) / throughput(plain),
                                           "unit": "1"}
        result["metrics"] = metrics
        result["trace_file"] = write_out(cfg, "trace", {
            "functions": tracer.table(), "layer_s": tracer.layer_s,
            "layer_self_s": tracer.layer_self_s, "spans_dropped": tracer.spans_dropped,
            "spans": tracer.spans})
    result["rounds"] = sum(rec["slot"] == 0 for rec in records)
    result["jobs_file"] = write_out(cfg, "jobs", [
        {k: rec[k] for k in ("round", "slot", "wall", "scaled", "ok")} | {"argv": rec["job"].key}
        for rec in records])
    result["attempted"] = len(records)
    result["failures"] = failures
    print(json.dumps(result))


if __name__ == "__main__":
    main()
