"""Self-tests for the benchmark's independent checkers.

    python3 perfbench/selftest.py

Each checker must accept a genuine result from klingen and reject the same
result corrupted: a dimension off by one, a subgroup missing an element or
holding a foreign one, a wrong degree multiset, a matrix that is not a
similitude.  A checker that accepted everything would fail here.
"""

from __future__ import annotations

import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from klingen import groupfq, padic  # noqa: E402
from klingen.chartab import family_from_name  # noqa: E402
from klingen.cosets import Diagonal, row_of  # noqa: E402
from klingen.dims import DimRequest, dim_klingen  # noqa: E402


def pairs(subgroup):
    return [(g.mat.e, g.mu.encoding()) for g in subgroup.elements]


def total(q, n, sigma):
    return dim_klingen(DimRequest(q=q, n=n, sigma=family_from_name(sigma))).total


class DimensionChecks(unittest.TestCase):
    def test_corollary_accepts_program_and_rejects_off_by_one(self):
        for q in (2, 3):
            for n in (2, 5, 40, 203):
                t = total(q, n, "typeI")
                self.assertEqual(checks.dim_problems(q, n, "typeI", "K", t, {}), [])
                for bad in (t - 1, t + 1):
                    self.assertTrue(checks.dim_problems(q, n, "typeI", "K", bad, {}))

    def test_family_gap_and_table_cell(self):
        q, n = 7, 31
        t1, t2 = total(q, n, "typeI"), total(q, n, "typeII")
        table = {(q, n, "typeI"): t1, (q, n, "typeII"): t2}
        self.assertEqual(checks.dim_problems(q, n, "typeII", "K", t2, table), [])
        self.assertTrue(checks.dim_problems(q, n, "typeII", "K", t2 + 1, table))
        off_cell = dict(table)
        off_cell[(q, n, "typeI")] = t1 - 1
        self.assertTrue(checks.dim_problems(q, n, "typeI", "K", t1, off_cell))

    def test_zero_rules(self):
        for q, n, sigma, origin in ((4, 1, "typeI", "K"), (5, 0, "typeII", "K"),
                                    (8, 17, "nongeneric", "K"), (9, 17, "typeI", "paramodular")):
            self.assertEqual(checks.dim_problems(q, n, sigma, origin, 0, {}), [])
            self.assertTrue(checks.dim_problems(q, n, sigma, origin, 1, {}))

    def test_corollary_values(self):
        self.assertEqual(checks.corollary(2, 4), 11)
        self.assertEqual([checks.corollary(2, n) for n in (1, 2, 3)], [0, 1, 4])
        self.assertEqual(checks.corollary(3, 1), 0)


class SubgroupChecks(unittest.TestCase):
    def setUp(self):
        self.rng = random.Random(7)

    def test_named_subgroups_accepted(self):
        for q in (2, 3, 4):
            for name in ("Row1", "Row3", "Row5", "M1", "R_klingen"):
                sub = pairs(groupfq.named_subgroup(name, q))
                self.assertEqual(checks.subgroup_problems(q, name, sub, self.rng), [])

    def test_missing_element_rejected(self):
        for q, name in ((2, "Row6"), (3, "Row7"), (4, "S")):
            sub = pairs(groupfq.named_subgroup(name, q))
            del sub[len(sub) // 2]
            self.assertTrue(checks.subgroup_problems(q, name, sub, self.rng))

    def test_foreign_element_rejected(self):
        # Row5 at q=3 with one element swapped for an element of Row6: the
        # order still matches, so only the shape test can see it
        row5, row6 = pairs(groupfq.named_subgroup("Row5", 3)), pairs(groupfq.named_subgroup("Row6", 3))
        keys5 = {e for e, _ in row5}
        stranger = next(p for p in row6 if p[0] not in keys5)
        row5[-1] = stranger
        self.assertTrue(checks.subgroup_problems(3, "Row5", row5, self.rng))

    def test_product_outside_rejected(self):
        # Z_ray at q=5 is cyclic of order 5; without one element, products
        # of the other four land on it
        sub = pairs(groupfq.named_subgroup("Z_ray", 5))[:-1]
        problems = checks.closure_problems(5, "Z_ray", sub, {e for e, _ in sub},
                                           random.Random(0), samples=64)
        self.assertTrue(problems)

    def test_non_similitude_rejected(self):
        F = checks.field(3)
        ident = (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)
        self.assertEqual(checks.similitude_problems(F, ident, 1), [])
        self.assertTrue(checks.similitude_problems(F, ident, 2))
        skewed = (1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)
        self.assertTrue(checks.similitude_problems(F, skewed, 1))

    def test_estimate_checks(self):
        q, n, rep = 3, 3, Diagonal(1, 1)
        est = pairs(padic.estimate_Rg(rep, n, q, budget=500, seed=0))
        row = row_of(rep, n)
        predicted = {e for e, _ in pairs(groupfq.named_subgroup(f"Row{row}", q))}
        self.assertEqual(checks.estimate_problems(q, row, est, predicted, self.rng), [])
        self.assertTrue(checks.estimate_problems(q, row, est[:-1], predicted, self.rng))
        self.assertTrue(checks.estimate_problems(q, row, est, set(), self.rng))
        self.assertTrue(checks.estimate_problems(q, row % 7 + 1, est, predicted, self.rng))

    def test_field_matches_program_encoding(self):
        from klingen.ffield import field_for_q
        for q in (4, 8, 9):
            spec, F = field_for_q(q), checks.field(q)
            elems = [spec.from_encoding(k) for k in range(q)]
            for a in range(q):
                for b in range(q):
                    self.assertEqual(F.mul[a][b], (elems[a] * elems[b]).encoding())


class DegreeChecks(unittest.TestCase):
    def test_s6_degrees(self):
        degrees = checks.symmetric_group_degrees(6)
        self.assertEqual(degrees, [1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16])
        self.assertEqual(checks.degree_problems(degrees, 11), [])

    def test_wrong_degree_multiset_rejected(self):
        good = checks.symmetric_group_degrees(6)
        self.assertTrue(checks.degree_problems(good[:-1] + [15], 11))
        self.assertEqual(checks.degree_problems(good[:-2] + [16, 10], 11), [])
        self.assertTrue(checks.degree_problems([1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 10, 6, 6], 13))
        self.assertTrue(checks.degree_problems(good, 12))

    def test_hook_lengths(self):
        self.assertEqual(checks.symmetric_group_degrees(3), [1, 1, 2])
        self.assertEqual(sum(d * d for d in checks.symmetric_group_degrees(7)), 5040)


if __name__ == "__main__":
    unittest.main()
