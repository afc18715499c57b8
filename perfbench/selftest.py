#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload on a tiny job list, traced and untraced, and checks
that each metric of ``BENCHMARK.json`` is printed with its unit, that the
tracer leaves asreg2 unpatched, that job lists are seeded and fully
recorded in ``expected.json``, and that the benchmark refuses to run where
the library's sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
with open(os.path.join(HERE, "expected.json")) as _fh:
    EXPECTED = json.load(_fh)


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


class MetricNames(unittest.TestCase):
    def test_spec_lists_what_the_code_reports(self):
        self.assertEqual(sorted(_units("end_to_end")), sorted(run.END_TO_END))
        layer = {name: worker.UNITS[field] for name, _, field in worker.PER_LAYER}
        layer["trace.overhead_ratio"] = "1"
        self.assertEqual(_units("per_layer"), layer)
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(WORKLOADS))
        for w in SPEC["workloads"]:
            self.assertEqual(w["why"], WORKLOADS[w["name"]].why)

    def test_tiny_runs_print_every_metric_with_its_unit(self):
        for name in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    detail, result = run.run(name, 0, 0.0, trace, job_limit=2, setup_probes=1)
                    self.assertTrue(result["correct"], detail["failures"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 2)
                    got = {m: v["unit"] for m, v in result["metrics"].items()}
                    self.assertEqual(got, _units(section))
                    if trace:
                        self.assertIs(detail["tracer_restored"], True)
                    else:
                        self.assertEqual(detail["metrics"]["fail_ratio"],
                                         {"value": 0.0, "unit": "1"})
                        self.assertIn(detail["metrics"]["job_tail_s"]["percentile"],
                                      worker.TAIL_LEVELS + (0.0,))
                    self.assertEqual(detail["env"]["seed"], 0)


class Tracer(unittest.TestCase):
    def test_tracer_wraps_every_lookup_and_restores_them(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import asreg2.algebra
        import asreg2.cli
        import asreg2.cyclotomic
        import asreg2.skew
        from tracer import Tracer, snapshot

        before = snapshot()
        original = asreg2.algebra.reduce_product
        original_mul = asreg2.cyclotomic.Cyclotomic.__dict__["__mul__"]
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(asreg2.algebra.reduce_product, original)
            self.assertIs(asreg2.skew.reduce_product, asreg2.algebra.reduce_product)
            self.assertIs(asreg2.cli.ampleness_report, asreg2.skew.ampleness_report)
            self.assertIsNot(asreg2.cyclotomic.Cyclotomic.__dict__["__mul__"], original_mul)
            worker.run_job(asreg2.cli, ["ample", "--wx", "1", "--wy", "2", "--r", "2",
                                        "--format", "json"])
        finally:
            tracer.restore()
        self.assertEqual(snapshot(), before)
        self.assertIs(asreg2.algebra.reduce_product, original)
        stats = tracer.table()
        self.assertEqual(stats["cli.main"]["calls"], 1)
        self.assertGreater(stats["skew.ideal_e_dims"]["calls"], 0)
        self.assertGreater(stats["algebra.reduce_product"]["calls"], 0)
        self.assertGreater(stats["cyclotomic.mul"]["calls"], 0)


class JobLists(unittest.TestCase):
    def test_rounds_are_seeded_and_recorded(self):
        for w in WORKLOADS.values():
            with self.subTest(workload=w.name):
                self.assertEqual(w.round(7), w.round(7))
                labels = sorted(job.label for job in w.round(7))
                self.assertEqual(labels, sorted(job.label for job in w.round(8)))
                self.assertEqual(len(labels), len(w.templates))
                self.assertEqual(len(w.templates), 25)
                for job in w.space():
                    self.assertIn(job.key, EXPECTED["digests"])


class BareDirectory(unittest.TestCase):
    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(ROOT, ".bench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "reflect-search",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
