"""Self-tests of the benchmark's output checks.

    python3 -m unittest discover -s bench -p 'test_*.py'

Each check must accept the real output of fpbounds and reject a corrupted
copy of it.  The outputs come from fpbounds in ./src, run in-process.
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from click.testing import CliRunner  # noqa: E402
from fpbounds.cli import cli  # noqa: E402


def run(*args: str) -> str:
    result = CliRunner().invoke(cli, list(args))
    assert result.exit_code == 0, result.output
    return result.stdout


class TableCheck(unittest.TestCase):
    def check(self, text: str, fmt: str, lo: int = 4, hi: int = 200) -> None:
        checks.table(text, lo=lo, hi=hi, fmt=fmt, sample=(6, 100, 182))

    def test_accepts_every_format(self):
        for fmt in workloads.TABLE_FORMATS:
            with self.subTest(fmt=fmt):
                self.check(run("table", "--dims", "4..200", "--format", fmt), fmt)

    def test_rejects_value_shifted_by_one_modulus(self):
        # dim 16 (n = 8): 3, 6, 9 -> 6, 9, 12 still steps by the modulus 3.
        text = run("table", "--dims", "4..200", "--format", "csv")
        bad = text.replace("\n16,3,6,9,", "\n16,6,9,12,")
        self.assertNotEqual(bad, text)
        with self.assertRaises(checks.CheckFailed):
            self.check(bad, "csv")

    def test_rejects_shift_outside_the_paper_table(self):
        # A shift into another allowed multiple of the modulus, on a row
        # that is neither in the paper's table nor sampled: only the case
        # rules can catch it.
        rows = json.loads(run("table", "--dims", "4..200", "--format", "json"))
        for row in rows:
            n, (v1, v2, v3) = row["dim"] // 2, row["possible_values"]
            allowed = ref.EVEN_VALUES if n % 2 == 0 else ref.ODD_VALUES
            if row["dim"] > 30 and row["dim"] not in (100, 182) and v2 in allowed:
                break
        row["possible_values"] = [v2, v3, v3 + v2 - v1]
        with self.assertRaises(checks.CheckFailed):
            self.check(json.dumps(rows), "json")

    def test_rejects_a_single_shifted_cell(self):
        text = run("table", "--dims", "4..200", "--format", "md")
        bad = text.replace("| 28 | **12**, 24, 36, ...", "| 28 | **12**, 24, 48, ...")
        self.assertNotEqual(bad, text)
        with self.assertRaises(checks.CheckFailed):
            self.check(bad, "md")

    def test_rejects_a_missing_c1_zero_star(self):
        text = run("table", "--dims", "4..200", "--format", "md")
        bad = text.replace("| 20* |", "| 20 |")
        self.assertNotEqual(bad, text)
        with self.assertRaises(checks.CheckFailed):
            self.check(bad, "md")

    def test_sample_uses_the_brute_force_l_search(self):
        for n in list(range(2, 400)) + [504, 1008, 5003, 123456]:
            with self.subTest(n=n):
                self.assertEqual(ref.lsearch_minimum(n), ref.case_rule(n)["value"])


class BoundCheck(unittest.TestCase):
    def setUp(self):
        self.n, self.factors = workloads.large_input(
            random.Random(7), "semiprime", workloads.rho_pools()["semiprime"][0], "even", 12)
        self.expected = ref.case_rule(self.n, self.factors)
        self.text = run("bound", str(self.n), "--format", "json")

    def test_accepts_real_output(self):
        checks.bound(self.text, expected=self.expected)
        checks.divisibility(run("divisibility", str(self.n), "--format", "json"), n=self.n)

    def test_rejects_wrong_branch(self):
        data = json.loads(self.text)
        for branch in ("even/r=12/legendre-ok", "even/r=6/Euler", "even/r=12/Euler "):
            if branch != data["branch"]:
                with self.subTest(branch=branch), self.assertRaises(checks.CheckFailed):
                    checks.bound(json.dumps(dict(data, branch=branch)), expected=self.expected)

    def test_rejects_wrong_value(self):
        data = json.loads(self.text)
        bad = dict(data, value=data["value"] + ref.gcd_modulus(self.n))
        with self.assertRaises(checks.CheckFailed):
            checks.bound(json.dumps(bad), expected=self.expected)

    def test_rejects_wrong_modulus(self):
        data = json.loads(run("divisibility", str(self.n), "--format", "json"))
        data["modulus_refined"] *= 2
        with self.assertRaises(checks.CheckFailed):
            checks.divisibility(json.dumps(data), n=self.n)

    def test_generated_inputs_take_factoring_branches(self):
        rng = random.Random(3)
        pools = workloads.rho_pools()
        for cls in workloads.LARGE_CLASSES:
            for parity, r in workloads.LARGE_CASES:
                p = pools[cls][0]
                n, factors = workloads.large_input(rng, cls, p, parity, r)
                with self.subTest(cls=cls, parity=parity, r=r):
                    self.assertTrue(10**19 <= n < 10**30)
                    self.assertEqual(workloads._product(factors), ref.factored_quantity(n))
                    self.assertTrue(all(ref.is_prime(p) for p in factors))
                    expected = ref.case_rule(n, factors)
                    self.assertTrue(expected["factoring"])
                    self.assertEqual((n % 2 == 0, expected["r"]), (parity == "even", r))


class WitnessCheck(unittest.TestCase):
    def test_accepts_real_output(self):
        for n in (6, 7, 1000, 1001):
            with self.subTest(n=n):
                checks.witness(run("witness", str(n), "--format", "json"), n=n)
                checks.bound_witness(run("bound", str(n), "--witness", "--format", "json"), n=n)

    def test_rejects_entry_off_by_one(self):
        for n in (1000, 1001):
            data = json.loads(run("witness", str(n), "--format", "json"))
            counts = data["counts"]
            for i in (0, n // 2, next(i for i, c in enumerate(counts) if c)):
                for delta in (-1, 1):
                    bad = list(counts)
                    bad[i] += delta
                    with self.subTest(n=n, i=i, delta=delta), \
                            self.assertRaises(checks.CheckFailed):
                        checks.witness(json.dumps(dict(data, counts=bad)), n=n)

    def test_rejects_symmetric_pair_off_by_one(self):
        # Raising N_i and N_{n-i} together keeps symmetry; the total and the
        # Chern sum must catch it.
        n = 1000
        data = json.loads(run("bound", str(n), "--witness", "--format", "json"))
        bad = list(data["witness"])
        bad[3] += 1
        bad[n - 3] += 1
        with self.assertRaises(checks.CheckFailed):
            checks.bound_witness(json.dumps(dict(data, witness=bad)), n=n)


class VerifyCheck(unittest.TestCase):
    def test_accepts_and_rejects(self):
        text = run("verify", "--max-m", "504", "--lattice-max-n", "10")
        checks.verify(text)
        with self.assertRaises(checks.CheckFailed):
            checks.verify(text.replace("RESULT PASS", "RESULT FAIL"))
        with self.assertRaises(checks.CheckFailed):
            checks.verify(run("verify", "--max-m", "100", "--lattice-max-n", "10"))


if __name__ == "__main__":
    unittest.main()
