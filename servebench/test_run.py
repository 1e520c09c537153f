#!/usr/bin/env python3
"""Tests of the serving benchmark itself. Run from the repository root:

    python3 servebench/test_run.py

They build the benchmark like a real run (under $CARGO_TARGET_DIR or
.bench_build) and make short runs of every workload.
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


def bench(*args):
    """Runs run.py from the repository root; returns (code, stdout lines)."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


class BenchmarkJsonTest(unittest.TestCase):
    def test_definition_matches_the_script(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(spec["command"], ["python3", "servebench/run.py"])
        self.assertEqual(spec["paths"], ["servebench"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for w in spec["workloads"]:
            # The fixed open-loop rate is stated beside the definition.
            self.assertIn(f"{run.WORKLOADS[w['name']]['rate']} req/s", w["why"])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.PER_LAYER)


class SmokeTest(unittest.TestCase):
    def check_result(self, lines, expected):
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, dict(expected))
        return result

    def test_every_workload_emits_every_metric(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                code, lines = bench("--workload", name, "--seed", "3", "--seconds", "2",
                                    "--trace", "0")
                self.assertEqual(code, 0)
                result = self.check_result(lines, run.END_TO_END)
                for metric, entry in result["metrics"].items():
                    self.assertGreater(entry["value"], 0, metric)
                table = "\n".join(lines[:-1])
                printed_only = [("latency_p90_us", "us"), ("latency_p99_us", "us"),
                                ("error_ratio", "ratio"), ("loadgen.lag_p99_us", "us")]
                for metric, unit in run.END_TO_END + printed_only:
                    self.assertRegex(table, rf"{metric}\s+\S+ {unit}")

                # Long enough that the fleet's first-touch cache fills are
                # a small share of the traced server's lookups.
                code, lines = bench("--workload", name, "--seed", "3", "--seconds", "6",
                                    "--trace", "1")
                self.assertEqual(code, 0)
                result = self.check_result(lines, run.PER_LAYER)
                table = "\n".join(lines[:-1])
                self.assertIn("layer ladder", table)
                self.assertIn("tracing overhead", table)
                for metric, unit in run.PER_LAYER:
                    self.assertRegex(table, rf"{metric}\s+\S+ {unit}")
                values = {k: v["value"] for k, v in result["metrics"].items()}
                hit = values["service.cache_hit_ratio"]
                if name == "cold_v1":
                    self.assertLess(hit, 0.1)
                else:
                    self.assertGreater(hit, 0.99)
                defended = name == "hot_v1_defended"
                self.assertEqual(values["service.admission_ns_per_req"] > 0, defended)
                self.assertEqual(values["service.detector_ns_per_req"] > 0, defended)
                self.assertEqual(values["auth.verify_proof_ns"] > 0, name == "v2_proofs")


class PoolCyclesTest(unittest.TestCase):
    def test_pools_the_windows_of_every_server(self):
        def cycle(rates, p50s, cpu_us, answered, mismatch=""):
            return {"connections": 2, "closed_threads": 2, "open_threads": 1,
                    "window": 2048, "warmup_s": 0.25, "attempted": answered + 1,
                    "failed": 1, "denied": 0, "mismatches": 1 if mismatch else 0,
                    "checked_proofs": 0, "latency_samples": len(p50s),
                    "first_mismatch": mismatch, "answered": answered,
                    "server_cpu_us": cpu_us, "loadgen_cpu_us": cpu_us / 2,
                    "window_rates": rates, "latency_p50s_us": p50s,
                    "latency_p90s_us": p50s, "latency_p99s_us": p50s, "lag_p99_us": 5.0}
        pooled = run.pool_cycles([cycle([1.0, 100.0, 2.0, 3.0], [10.0], 300.0, 100),
                                  cycle([4.0, 5.0, 6.0, 0.0], [20.0, 30.0], 100.0, 300,
                                        "pool request 7")])
        # Interquartile mean of all eight windows: the middle four.
        self.assertEqual(pooled["throughput_rps"], (2.0 + 3.0 + 4.0 + 5.0) / 4)
        # CPU per served answer over both servers, not a mean of ratios.
        self.assertEqual(pooled["server_cpu_us_per_req"], 400.0 / 400)
        # Lower quartile (nearest rank) of the three latency windows.
        self.assertEqual(pooled["latency_p50_us"], 10.0)
        self.assertEqual(pooled["failed"], 2)
        self.assertEqual(pooled["mismatches"], 1)
        self.assertEqual(pooled["first_mismatch"], "pool request 7")


class CorrectnessGateTest(unittest.TestCase):
    def test_one_wrong_expected_verdict_fails_the_run(self):
        for name in ("hot_v1_defended", "v2_proofs"):
            with self.subTest(workload=name):
                code, lines = bench("--workload", name, "--seed", "4", "--seconds", "1",
                                    "--corrupt-expected", "1")
                self.assertEqual(code, 1)
                self.assertFalse(json.loads(lines[-1])["correct"])
                self.assertTrue(any("first mismatch" in line for line in lines))


class MissingSourceTest(unittest.TestCase):
    def test_benchmark_alone_exits_nonzero_without_a_result(self):
        alone = os.path.join(run.build_dir(), "alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
            shutil.copytree(HERE, os.path.join(alone, "servebench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "servebench/run.py", "--workload", "cold_v1",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=alone, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=180, env={**os.environ, "CARGO_TARGET_DIR": ".bench_build"})
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
