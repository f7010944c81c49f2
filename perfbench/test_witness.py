#!/usr/bin/env python3
"""The benchmark's output check must catch a corrupted op output.

    python3 perfbench/test_witness.py

Run from the repository root; it builds the benchmark on first use. Each
case runs the paper_small workload for a short while through
perfbench/run.py. --perturb-op K flips one bit of op K's output digest in
the first timed pass, the way a wrong simulated result would: the run must
then fail (non-zero exit, "correct": false, the op counted as failed).
"""

import json
import subprocess
import sys
import unittest


def run(seed, *extra):
    command = [sys.executable, "perfbench/run.py", "--workload", "paper_small",
               "--seed", str(seed), "--seconds", "1", "--trace", "0"] + list(extra)
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]), proc.stdout


class WitnessTest(unittest.TestCase):
    def test_unperturbed_run_is_correct(self):
        code, result, _ = run(1)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_perturbed_warmup_op_disagrees_with_its_repeat(self):
        # Op 0 also ran during set-up, so its timed repeat must agree.
        code, result, out = run(7, "--perturb-op", "0")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("differs from an earlier run of the same op", out)

    def test_perturbed_op_breaks_the_golden_witness(self):
        # Op 50 first runs in the timed pass (set-up runs ops 0-15): the
        # perturbed digest is what the witness records, so the default
        # seed's golden must not match.
        code, result, out = run(1, "--perturb-op", "50")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertIn("witness mismatch", out)


if __name__ == "__main__":
    unittest.main()
