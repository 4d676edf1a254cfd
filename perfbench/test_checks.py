"""Tests of the benchmark's own logic: every output check accepts real CLI
output and rejects a corrupted copy, and the span arithmetic is exact.

Run from the repository root:  python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import copy
import json
import math
import os
import random
import subprocess
import sys
import unittest
from pathlib import Path

import checks
import run

SRC = Path(__file__).resolve().parent.parent / "src"


def cli(*args: str):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "cyclochar.cli", *args, "--format", "json"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


class ReferenceTest(unittest.TestCase):
    def test_paper_examples(self):
        # the sixteen [80,5,53] codes over F_3 and B_3 = 3843 of the [63,4,47] code over F_4
        self.assertEqual(checks.code_count(3, 4), 16)
        self.assertEqual(checks.build_reference(4, 3, 1, 1)["B3"], 3843)

    def test_number_theory(self):
        self.assertEqual([checks.euler_phi(n) for n in (1, 2, 15, 63, 127, 1048575)],
                         [1, 1, 8, 36, 126, 480000])
        self.assertEqual(checks.coset_count(2, 15), 5)
        # Burnside over the cyclic group generated by q: mean of gcd(n, q^j - 1)
        for q, k in ((2, 6), (4, 3), (3, 4), (11, 2)):
            n = q**k - 1
            self.assertEqual(checks.coset_count(q, n),
                             sum(math.gcd(n, q**j - 1) for j in range(k)) // k)

    def test_verify_counts_by_hand(self):
        # q=2, k=4: n=15, Delta=15, 8 units, 2 codes, 5 cosets
        self.assertEqual(checks.verify_reference(2, 4)["checked"], {
            "substitution_bijection": 120,
            "char_sum_cases": 4 * 2 * (32 + 6),
            "char_sum_unit_iff": 120,
            "three_weight_iff_conditions": 15,
            "oracle_equivalence": 8,
            "duality_suite": 2,
            "enumeration_count": 2,
            "two_weight_gaps": 5,
        })

    def test_build_reference_refuses_non_qualifying(self):
        with self.assertRaises(ValueError):
            checks.build_reference(4, 3, 0, 3)


class BuildCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cases = [(cli("build", "--q", str(q), "--k", str(k), "--e1", str(e1), "--e2", str(e2)),
                      checks.build_reference(q, k, e1, e2))
                     for q, k, e1, e2 in ((4, 3, 1, 1), (2, 6, 0, 5), (3, 3, 0, 1))]

    def test_real_output_passes(self):
        for out, ref in self.cases:
            self.assertEqual(checks.check_build(out, ref), [])

    def test_corruptions_are_rejected(self):
        def freq_off(o):
            o["weights"][1][1] += 1

        def weight_twice(o):
            o["weights"].append(list(o["weights"][-1]))

        def b3_off(o):
            o["dual"]["B3"] += 1

        def b2_nonzero(o):
            o["dual"]["B2"] = 1

        def dual_min(o):
            o["dual"]["min_weight"] = 3 if o["q"] == 2 else 4

        def not_optimal(o):
            o["griesmer_optimal"] = False

        def dim_off(o):
            o["dim"] += 1

        def other_code(o):
            o["e2"] += 1

        for corrupt in (freq_off, weight_twice, b3_off, b2_nonzero, dual_min, not_optimal,
                        dim_off, other_code):
            for out, ref in self.cases:
                bad = copy.deepcopy(out)
                corrupt(bad)
                with self.subTest(corrupt=corrupt.__name__, q=ref["q"]):
                    self.assertNotEqual(checks.check_build(bad, ref), [])


class EnumerateCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = cli("enumerate", "--q", "3", "--k", "4")
        cls.ref = checks.enumerate_reference(3, 4)

    def test_real_output_passes(self):
        self.assertEqual(self.out["count"], 16)
        self.assertEqual(checks.check_enumerate(self.out, self.ref), [])

    def test_corruptions_are_rejected(self):
        def dropped(o):
            o["codes"].pop()

        def dropped_and_recounted(o):
            o["codes"].pop()
            o["count"] -= 1
            o["formula"] -= 1

        def duplicated(o):
            o["codes"][-1] = dict(o["codes"][0])

        def not_minimal(o):
            e = o["codes"][0]
            e["e2"] = e["e2"] * 3 % 80

        def wrong_delta_e1(o):
            o["codes"][0]["delta_e1"] += 1

        def fails_gcd(o):
            o["codes"][0]["e2"] = 2

        def count_off(o):
            o["count"] += 1

        for corrupt in (dropped, dropped_and_recounted, duplicated, not_minimal,
                        wrong_delta_e1, fails_gcd, count_off):
            bad = copy.deepcopy(self.out)
            corrupt(bad)
            with self.subTest(corrupt=corrupt.__name__):
                self.assertNotEqual(checks.check_enumerate(bad, self.ref), [])


class VerifyCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cases = [(cli("verify", "--q", str(q), "--k", str(k)), checks.verify_reference(q, k))
                     for q, k in ((2, 4), (4, 2), (3, 3))]

    def test_real_output_passes(self):
        for out, ref in self.cases:
            self.assertEqual(checks.check_verify(out, ref), [])

    def test_corruptions_are_rejected(self):
        def checked_off(o):
            o[2]["checked"] += 1

        def not_ok(o):
            o[4]["ok"] = False

        def counterexample(o):
            o[0]["counterexample"] = {"e2": 1}

        def missing(o):
            o.pop(5)

        def repeated(o):
            o[7] = dict(o[6])

        for corrupt in (checked_off, not_ok, counterexample, missing, repeated):
            for out, ref in self.cases:
                bad = copy.deepcopy(out)
                corrupt(bad)
                with self.subTest(corrupt=corrupt.__name__, q=ref["q"]):
                    self.assertNotEqual(checks.check_verify(bad, ref), [])


class WorkloadTest(unittest.TestCase):
    def test_items_follow_the_seed(self):
        for workload in ("build", "verify", "enumerate"):
            a = run.make_items(workload, random.Random(7))
            b = run.make_items(workload, random.Random(7))
            self.assertEqual([i.argv() for i in a], [i.argv() for i in b])
        items = run.make_items("build", random.Random(7))
        self.assertEqual(sorted(i.params[:2] for i in items), sorted(run.BUILD_BLOCKS))
        self.assertTrue(all(checks.qualifies(*i.params) for i in items))


class SpanTotalsTest(unittest.TestCase):
    def test_self_time_inclusive_time_and_counts(self):
        spans = [
            ["cli.main", 0.0, 10.0, -1, 0, 0],
            ["verify.run_block", 1.0, 9.0, 0, 0, 0],
            ["verify.verify_oracle_equivalence", 1.0, 8.0, 1, 0, 0],
            ["codes.trace_weight_grid", 2.0, 3.0, 2, 0, 36],
            ["codes.weight_distribution_bruteforce", 3.0, 6.0, 2, 0, 125],
            ["gf.symbol_tables", 3.5, 4.0, 4, 0, 0],
            ["gf.trace_q_symbol_list", 6.0, 7.0, 2, 0, 0],
            ["gf.trace_q_symbols", 6.0, 6.5, 6, 0, 0],
        ]
        t = run.span_totals(spans)
        self.assertEqual(t["cli.self_s"], 2.0)
        self.assertEqual(t["verify.self_s"], 1.0 + 2.0)
        self.assertEqual(t["verify.oracle_equivalence_s"], 7.0)
        self.assertEqual(t["codes.trace_grid_s"], 1.0)
        self.assertEqual(t["codes.trace_grid_cells"], 36)
        self.assertEqual(t["codes.bruteforce_codewords"], 125)
        self.assertEqual(t["codes.bruteforce_calls"], 1)
        # nested table spans count once
        self.assertEqual(t["gf.tables_s"], 0.5 + 1.0)
        self.assertEqual(t["polyring.divmod_calls"], 0)


if __name__ == "__main__":
    unittest.main()
