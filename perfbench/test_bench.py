#!/usr/bin/env python3
"""Self-tests of the siqsim benchmark. Run from the repository root:

    python3 perfbench/test_bench.py

Builds the benchmark if needed, then checks BENCHMARK.json against the
result-line contract, runs every workload at tiny budgets through the
correctness gate, validates the serve request generator and exercises
compare mode. Takes about a minute on a 4-core host.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
WORK = os.path.join(run.build_dir(), "selftest")


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def tiny_run(workload, trace, seed=3):
    """Run one tiny-budget workload; return (result line, full report)."""
    results = os.path.join(WORK, "%s-%d" % (workload, trace))
    shutil.rmtree(results, ignore_errors=True)
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--tiny", "--results", results],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert p.returncode == 0, p.stdout[-2000:] + p.stderr[-2000:]
    line = json.loads(p.stdout.strip().splitlines()[-1])
    reports = [f for f in os.listdir(results) if f.endswith(".json")]
    with open(os.path.join(results, reports[0])) as f:
        return line, json.load(f)


class BenchmarkJsonContract(unittest.TestCase):
    def test_shape(self):
        b = load_bench()
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual(b["paths"], ["perfbench"])
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertEqual([w["name"] for w in b["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        names += [w["name"] for w in b["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
            self.assertLessEqual(len(n), 64)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))


class TinyRuns(unittest.TestCase):
    """Every workload, traced and untraced, at tiny budgets."""

    def check(self, workload):
        b = load_bench()
        for trace, listed in ((0, b["end_to_end"]), (1, b["per_layer"])):
            line, report = tiny_run(workload, trace)
            self.assertEqual(set(line), {"correct", "attempted", "failed",
                                         "metrics"})
            self.assertTrue(line["correct"], report["mismatches"])
            self.assertEqual(line["failed"], 0)
            self.assertGreaterEqual(line["attempted"], 1)
            # BENCHMARK.json lists every emitted metric, and only those
            self.assertEqual(set(line["metrics"]),
                             {m["name"] for m in listed})
            for m in listed:
                self.assertEqual(line["metrics"][m["name"]]["unit"],
                                 m["unit"])
            for section in ("e2e", "layers", "detail"):
                for name in report[section]:
                    self.assertRegex(name, NAME)
            self.assertEqual(report["detail"]["failed_frac"]["value"], 0)

    def test_oracle_matrix(self):
        self.check("oracle-matrix")

    def test_speculative_matrix(self):
        self.check("speculative-matrix")

    def test_serve_mix(self):
        self.check("serve-mix")


class ServeGenerator(unittest.TestCase):
    def test_specs_are_valid(self):
        binary = run.build()
        for seed in (1, 7, 12345):
            p = subprocess.run([binary, "--emit-specs", "400", "--seed",
                                str(seed)], capture_output=True, text=True,
                               timeout=120)
            self.assertEqual(p.returncode, 0)
            lines = p.stdout.strip().splitlines()
            self.assertEqual(json.loads(lines[-1]),
                             {"specs": 400, "valid": 400})
            for text in lines[:-1]:
                spec = json.loads(text)
                self.assertEqual(len(spec["benchmarks"]), 1)
                techs = spec["techniques"]
                self.assertTrue(1 <= len(techs) <= 3)
                self.assertEqual(len(set(techs)), len(techs))
                self.assertEqual(spec["seeds"], 1)


class CompareMode(unittest.TestCase):
    def write(self, directory, reports):
        os.makedirs(directory, exist_ok=True)
        for i, r in enumerate(reports):
            with open(os.path.join(directory, "r%d.json" % i), "w") as f:
                json.dump(r, f)

    def test_aa_and_regression(self):
        _, base = tiny_run("oracle-matrix", 0)
        tmp = tempfile.mkdtemp(dir=WORK)

        def variant(scale, jitter):
            r = json.loads(json.dumps(base))
            for m in r["e2e"].values():
                m["value"] *= scale * (1 + jitter)
            return r

        jit = [0.01 * ((i * 7) % 5 - 2) for i in range(10)]
        self.write(os.path.join(tmp, "a"), [variant(1, j) for j in jit])
        self.write(os.path.join(tmp, "b"), [variant(1, -j) for j in jit])
        self.write(os.path.join(tmp, "slow"),
                   [variant(1.5, j) for j in jit])
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "compare",
             os.path.join(tmp, "a"), os.path.join(tmp, "b")],
            capture_output=True, text=True, cwd=ROOT).stdout
        self.assertIn("# 0 metric(s) better or worse beyond bound", out)
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "compare",
             os.path.join(tmp, "a"), os.path.join(tmp, "slow")],
            capture_output=True, text=True, cwd=ROOT).stdout
        # every metric scaled up by 1.5: throughputs read better,
        # times and memory worse
        self.assertRegex(out, r"cells_per_s +.*better")
        self.assertRegex(out, r"peak_rss_mib +.*worse beyond bound")


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        tmp = tempfile.mkdtemp(dir=WORK)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "serve-mix",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=tmp, env=env, timeout=170)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"metrics"', p.stdout)


if __name__ == "__main__":
    if run.build() is None:
        sys.exit("perfbench: build failed")
    os.makedirs(WORK, exist_ok=True)
    unittest.main()
