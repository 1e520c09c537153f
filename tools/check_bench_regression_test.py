#!/usr/bin/env python3
"""CLI tests for tools/check_bench_regression (wired into ctest).

Each case builds a synthetic baseline/candidate pair of google-benchmark
JSON captures in a temp dir and runs the gate as a subprocess, asserting
on exit status and diagnostics — the same contract CI relies on. Uses
stdlib unittest so the suite needs nothing beyond the python3 that ships
with the toolchain image.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "check_bench_regression")


def bench_doc(rates, build_type="release", num_cpus=8, sha256_body=None):
    """A minimal google-benchmark JSON document: name -> items_per_second."""
    context = {"library_build_type": build_type, "num_cpus": num_cpus}
    if sha256_body is not None:
        context["sha256_body"] = sha256_body
    return {
        "context": context,
        "benchmarks": [
            {"name": name, "items_per_second": ips}
            for name, ips in sorted(rates.items())
        ],
    }


class GateCase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        root = self._tmp.name
        self.baseline_dir = os.path.join(root, "baselines")
        self.candidate_dir = os.path.join(root, "candidate")
        os.mkdir(self.baseline_dir)
        os.mkdir(self.candidate_dir)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, dirname, filename, doc):
        with open(os.path.join(dirname, filename), "w") as f:
            json.dump(doc, f)

    def run_gate(self, *extra_args):
        return subprocess.run(
            [sys.executable, GATE, self.candidate_dir, self.baseline_dir,
             *extra_args],
            capture_output=True,
            text=True,
        )

    def test_clean_run_passes(self):
        self.write(self.baseline_dir, "BENCH_bench_verify.json",
                   bench_doc({"bm_verify/threads:2": 1000.0}))
        self.write(self.candidate_dir, "BENCH_bench_verify.json",
                   bench_doc({"bm_verify/threads:2": 990.0}))
        result = self.run_gate()
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("PASS", result.stdout)

    def test_within_tolerance_passes(self):
        # 30% down is inside the default 35% tolerance.
        self.write(self.baseline_dir, "BENCH_bench_verify.json",
                   bench_doc({"bm_verify": 1000.0}))
        self.write(self.candidate_dir, "BENCH_bench_verify.json",
                   bench_doc({"bm_verify": 700.0}))
        result = self.run_gate()
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_regression_beyond_tolerance_fails(self):
        # 40% down breaches the default 35% floor.
        self.write(self.baseline_dir, "BENCH_bench_verify.json",
                   bench_doc({"bm_verify": 1000.0}))
        self.write(self.candidate_dir, "BENCH_bench_verify.json",
                   bench_doc({"bm_verify": 600.0}))
        result = self.run_gate()
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("REGRESSED", result.stdout)
        self.assertIn("regressed", result.stderr)

    def test_tolerance_flag_is_honoured(self):
        # The same 10% dip passes by default but fails at --tolerance 0.05.
        self.write(self.baseline_dir, "BENCH_bench_verify.json",
                   bench_doc({"bm_verify": 1000.0}))
        self.write(self.candidate_dir, "BENCH_bench_verify.json",
                   bench_doc({"bm_verify": 900.0}))
        self.assertEqual(self.run_gate().returncode, 0)
        self.assertEqual(self.run_gate("--tolerance", "0.05").returncode, 1)

    def test_missing_benchmark_in_candidate_fails(self):
        # Dropping a benchmark is how regressions hide; the gate treats a
        # baseline name absent from the candidate as a failure.
        self.write(self.baseline_dir, "BENCH_bench_verify.json",
                   bench_doc({"bm_verify": 1000.0, "bm_decode": 500.0}))
        self.write(self.candidate_dir, "BENCH_bench_verify.json",
                   bench_doc({"bm_verify": 1000.0}))
        result = self.run_gate()
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("missing from candidate run", result.stderr)

    def test_candidate_only_benchmarks_are_fine(self):
        # New benchmarks land before their baselines do.
        self.write(self.baseline_dir, "BENCH_bench_verify.json",
                   bench_doc({"bm_verify": 1000.0}))
        self.write(self.candidate_dir, "BENCH_bench_verify.json",
                   bench_doc({"bm_verify": 1000.0, "bm_new_thing": 1.0}))
        self.assertEqual(self.run_gate().returncode, 0)

    def test_build_type_mismatch_fails_even_when_faster(self):
        self.write(self.baseline_dir, "BENCH_bench_verify.json",
                   bench_doc({"bm_verify": 1000.0}, build_type="release"))
        self.write(self.candidate_dir, "BENCH_bench_verify.json",
                   bench_doc({"bm_verify": 5000.0}, build_type="debug"))
        result = self.run_gate()
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("build-type mismatch", result.stderr)

    def test_sha256_body_difference_is_a_note_not_a_verdict(self):
        # A baseline without the key reads as '?'; a differing body is
        # printed beside the build types and changes no verdict.
        self.write(self.baseline_dir, "BENCH_bench_crypto.json",
                   bench_doc({"bm_hmac_sha256/32": 1000.0}))
        self.write(self.candidate_dir, "BENCH_bench_crypto.json",
                   bench_doc({"bm_hmac_sha256/32": 990.0}, sha256_body="sha-ni"))
        result = self.run_gate()
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("sha256_body baseline '?', candidate 'sha-ni'", result.stdout)
        self.assertIn("build type baseline 'release', candidate 'release'", result.stdout)

        # The same regression still fails with the note printed.
        self.write(self.candidate_dir, "BENCH_bench_crypto.json",
                   bench_doc({"bm_hmac_sha256/32": 500.0}, sha256_body="portable"))
        result = self.run_gate()
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("candidate 'portable'", result.stdout)

    def test_matching_sha256_body_prints_no_note(self):
        self.write(self.baseline_dir, "BENCH_bench_crypto.json",
                   bench_doc({"bm_hmac_sha256/32": 1000.0}, sha256_body="sha-ni"))
        self.write(self.candidate_dir, "BENCH_bench_crypto.json",
                   bench_doc({"bm_hmac_sha256/32": 1000.0}, sha256_body="sha-ni"))
        result = self.run_gate()
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertNotIn("sha256_body", result.stdout)

    def test_missing_candidate_file_fails(self):
        self.write(self.baseline_dir, "BENCH_bench_verify.json",
                   bench_doc({"bm_verify": 1000.0}))
        result = self.run_gate()
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("missing from candidate dir", result.stderr)

    def test_empty_baseline_dir_is_a_setup_error(self):
        # No baselines means the gate checked nothing: exit 2, not a pass.
        result = self.run_gate()
        self.assertEqual(result.returncode, 2, result.stdout)
        self.assertIn("no BENCH_", result.stderr)

    def test_scaling_family_skips_on_narrow_hosts(self):
        # The shard-scaling floor only applies on >= 4-CPU hosts; a 1-CPU
        # candidate with terrible scaling must still pass.
        rates = {
            "bm_online_round_trips/shards:1/real_time": 1000.0,
            "bm_online_round_trips/shards:4/real_time": 1000.0,
        }
        self.write(self.baseline_dir, "BENCH_bench_auth_server.json",
                   bench_doc(rates))
        self.write(self.candidate_dir, "BENCH_bench_auth_server.json",
                   bench_doc(rates, num_cpus=1))
        result = self.run_gate()
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("SKIPPED", result.stdout)

    def test_scaling_floor_fails_flat_scaling_on_wide_hosts(self):
        rates = {
            "bm_online_round_trips/shards:1/real_time": 1000.0,
            "bm_online_round_trips/shards:4/real_time": 1100.0,
        }
        self.write(self.baseline_dir, "BENCH_bench_auth_server.json",
                   bench_doc(rates))
        self.write(self.candidate_dir, "BENCH_bench_auth_server.json",
                   bench_doc(rates, num_cpus=8))
        result = self.run_gate()
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("4-shard throughput only", result.stderr)


if __name__ == "__main__":
    unittest.main()
