"""Support enumeration: membership predicates, closed counts, brute oracles."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klingen import cosets
from klingen.cosets import (
    BRUTE_N_MAX,
    SKEW_CASES,
    Diagonal,
    Skew,
    X,
    Y,
    Z,
    enumerate_small_reps,
    enumerate_supp,
    in_supp,
    row_of,
    _skew_j,
    _skew_tuples,
    _strata,
    _stratum_units,
    _val_sum,
    skew_brute_count,
    skew_closed_count,
    skew_equal,
    table1_brute_count,
    table1_count,
)
from klingen.errors import NonIntegralResult, NotPrime, ResourceBound


class TestMembership:
    def test_diagonal_examples(self):
        assert in_supp(Diagonal(0, 1), 2)
        assert not in_supp(Diagonal(0, 1), 1)
        assert not in_supp(Diagonal(0, -1), 5)
        assert not in_supp(Diagonal(0, 0), 5)  # 2i+j >= 1 fails

    def test_x_window(self):
        assert not in_supp(X(2, 1, 1), 4)
        assert in_supp(X(2, 1, 1), 5)
        assert not in_supp(X(1, 1, 1), 9)  # k <= i-1 fails

    def test_z_window(self):
        assert in_supp(Z(2, 1, 4), 8)
        assert not in_supp(Z(2, 1, 3), 8)  # k >= i+j+1 fails
        assert not in_supp(Z(2, 1, 5), 8)  # k <= 2i+j-1 fails

    def test_y_window(self):
        assert in_supp(Y(1, 3, 3), 6)
        assert not in_supp(Y(1, 3, 2), 6)  # 2i+j <= 2k-1 fails

    def test_row_assignment(self):
        n = 6
        assert row_of(Diagonal(0, 1), n) == 1
        assert row_of(Diagonal(3, 1), n) == 2
        assert row_of(Diagonal(1, 0), n) == 3
        assert row_of(Diagonal(1, 1), n) == 4
        assert row_of(Z(2, 1, 4), n) == 5
        assert row_of(X(2, 1, 1), n) == 6
        assert row_of(Y(1, 3, 3), n) == 7
        with pytest.raises(ValueError):
            row_of(Diagonal(0, 0), n)

    def test_skew_needs_unit(self):
        with pytest.raises(ValueError):
            Skew(4, 2, 3, 5, 2, 2)  # u even at p=2

    def test_skew_membership(self):
        # the minimal val(z)<val(xy) support member appears at n=9
        rep = Skew(4, 3, 5, 7, 1, 2)
        assert rep.case == "zLTxy"
        assert not in_supp(rep, 8)
        assert in_supp(rep, 9)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(-8, 12),
        st.integers(-2, 14),
        st.integers(1, 12),
    )
    def test_diagonal_rows_partition_support(self, i, j, n):
        """A diagonal support member lands in exactly one row range."""
        ranges = []
        if 2 - n <= i <= 0 and 1 - 2 * i <= j <= n - i - 1:
            ranges.append(1)
        if 1 <= i <= n - 2 and max(1, n - 2 * i) <= j <= n - i - 1:
            ranges.append(2)
        if j == 0 and 1 <= i <= (n - 1) // 2:
            ranges.append(3)
        if 1 <= i <= (n - 2) // 2 and 1 <= j <= n - 2 * i - 1:
            ranges.append(4)
        rep = Diagonal(i, j)
        if in_supp(rep, n):
            assert len(ranges) == 1
            assert row_of(rep, n) == ranges[0]
        else:
            assert not ranges


class TestClosedCounts:
    def test_examples(self):
        assert table1_count(1, 3) == 3
        assert table1_count(5, 4) == 0
        assert table1_count(7, 4) == 0
        assert table1_count(2, 5) == 4
        assert table1_count(3, 7) == 3

    def test_rows_match_brute(self):
        for n in range(1, 21):
            for row in range(1, 8):
                assert table1_count(row, n) == table1_brute_count(row, n), (row, n)

    def test_x_z_bijection(self):
        for n in range(1, 41):
            assert table1_count(5, n) == table1_count(6, n)

    def test_nonnegative_integers(self):
        for n in range(1, 61):
            for row in range(1, 8):
                c = table1_count(row, n)
                assert isinstance(c, int) and c >= 0


class TestSkewCounts:
    def test_unit_case_is_q_minus_2_at_n8(self):
        for q in (2, 3, 5, 7, 11):
            assert skew_closed_count("zEQxy_unit", 8, q) == q - 2

    def test_small_levels_empty(self):
        for case in SKEW_CASES:
            for q in (2, 3):
                for n in range(1, 8):
                    assert skew_closed_count(case, n, q) == 0, (case, n, q)
                    assert skew_brute_count(case, n, q) == 0, (case, n, q)

    def test_first_witnesses(self):
        assert skew_closed_count("zLTxy", 8, 2) == 0
        assert skew_closed_count("zLTxy", 9, 2) == 1
        assert skew_closed_count("zEQxy_nonunit", 9, 3) == 0
        for q in (2, 3):
            assert skew_closed_count("zEQxy_nonunit", 10, q) == q - 1

    def test_closed_matches_brute(self):
        for q in (2, 3, 5, 7):
            for n in range(1, BRUTE_N_MAX + 1):
                for case in SKEW_CASES:
                    c = skew_closed_count(case, n, q)
                    b = skew_brute_count(case, n, q)
                    assert c == b, (case, n, q, c, b)

    def test_gt_equals_lt(self):
        for q in (2, 3, 4, 5):
            for n in range(1, 41):
                assert skew_closed_count("zGTxy", n, q) == skew_closed_count(
                    "zLTxy", n, q
                )

    def test_closed_integral_nonnegative(self):
        for q in range(2, 10):
            for n in range(1, 61):
                for case in SKEW_CASES:
                    c = skew_closed_count(case, n, q)
                    assert isinstance(c, int) and c >= 0

    def test_assembly_with_a_stub_seed(self, monkeypatch):
        # seed f(n) = n^2, a numerator n^2 (q-1)^3 over (q-1)^3: the count is
        # q^m (n - 4m)^2 - n^2 with m = floor((n - 4)/4), so a negative m
        # divides by q^-m
        monkeypatch.setitem(cosets._SKEW_CLOSED, "zEQxy_unit",
                            (4, lambda n, r: n * n * r ** 3))
        assert skew_closed_count("zEQxy_unit", 1, 5) == 4  # 25/5 - 1
        assert skew_closed_count("zEQxy_unit", 9, 5) == 44  # 5 * 25 - 81
        with pytest.raises(NonIntegralResult) as info:
            skew_closed_count("zEQxy_unit", 1, 2)  # 25/2 - 1
        assert str(info.value) == (
            "skew zEQxy_unit count at n=1, q=2 evaluated to 23/2, "
            "not a nonnegative integer"
        )

    def test_brute_guard(self):
        with pytest.raises(ResourceBound):
            skew_brute_count("zLTxy", BRUTE_N_MAX + 1, 2)

    @pytest.mark.parametrize("q", [0, 1, 6, 12])
    def test_q_not_a_prime_power_refused(self, q):
        # no residue field has q elements, so there are no units to count
        for case in SKEW_CASES:
            with pytest.raises(NotPrime):
                skew_brute_count(case, 12, q)


class TestSkewOracle:
    """The pruning inside skew_brute_count: the tuple box, the one membership
    probe per stratum of units, and the orbit walk."""

    @staticmethod
    def _accepted_strata(case, n, p):
        for tup in _skew_tuples(case, n):
            for u, v in _strata(case, n, p, *tup):
                probe = Skew(*tup, u, p)
                if in_supp(probe, n):
                    t = probe.j - (probe.k_y - probe.k_x)
                    yield tup, _stratum_units(p, v, t + 1)

    def test_box_holds_every_support_tuple(self):
        top = 14
        for p in (2, 3):
            boxes = {(case, n): set(_skew_tuples(case, n))
                     for case in SKEW_CASES for n in range(1, top + 1)}
            probes = sorted({*range(1, p), *(p ** v - 1 for v in range(1, top))})
            # the box i < n, k_x < i, k_y < n, k_z < 2n at every n <= top; in_supp
            # rejects every u unless 1 <= k_x < i and k_x < k_y < k_z
            for i in range(2, top):
                for kx in range(1, i):
                    for ky in range(kx + 1, top):
                        for kz in range(ky + 1, 2 * top):
                            first = max(i, ky, kz // 2) + 1
                            for u in probes:
                                s = Skew(i, kx, ky, kz, u, p)
                                for n in range(first, top + 1):
                                    if u < p ** (n - 1) and in_supp(s, n):
                                        assert (i, kx, ky, kz) in boxes[s.case, n], (s, n)

    def test_membership_constant_on_each_stratum(self):
        for p in (2, 3):
            for n in range(1, 13):
                for case in SKEW_CASES:
                    for tup in _skew_tuples(case, n):
                        for u, v in _strata(case, n, p, *tup):
                            probe = Skew(*tup, u, p)
                            verdict = in_supp(probe, n)
                            t = probe.j - (probe.k_y - probe.k_x)
                            units = _stratum_units(p, v, t + 1)
                            assert probe.u in units
                            for u in units:
                                s = Skew(*tup, u, p)
                                assert s.case == case
                                assert in_supp(s, n) == verdict, (s, n)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_integer_test_agrees_with_in_supp(self, p):
        # a box around the support: tuples the order test rejects (k_x = 0,
        # k_x = i, k_y = k_x, k_z = k_y), tuples a window rejects at some n,
        # accepted ones, and with u = -1 degenerate ones (y + z/x = 0)
        units = sorted({1, p - 1, p + 1, p ** 2 - 1, p ** 3 - 1, -1})
        seen = Counter()
        for i in range(1, 10):
            for kx in range(0, i + 1):
                for ky in range(kx, 10):
                    for kz in range(ky, 20):
                        for u in units:
                            rep = Skew(i, kx, ky, kz, u, p)
                            for n in (4, 8, 10, 12):
                                try:
                                    want = in_supp(rep, n)
                                except ValueError:
                                    with pytest.raises(ValueError):
                                        _skew_j(i, kx, ky, kz, u, p, n)
                                    seen["degenerate"] += 1
                                    continue
                                j = _skew_j(i, kx, ky, kz, u, p, n)
                                assert (j is not None) == want, (rep, n)
                                if want:
                                    assert j == rep.j, (rep, n)
                                seen[want] += 1
        assert seen[True] and seen[False] and seen["degenerate"], seen

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_val_sum_matches_repeated_division(self, p):
        units = [u for u in range(1, p ** 5) if u % p != 0]
        assert all(u in units for u in (p ** k - 1 for k in range(1, 6)))
        for a in range(13):
            for b in range(13):
                for u in units:
                    s, want = p ** a + u * p ** b, 0
                    while s % p == 0:
                        s //= p
                        want += 1
                    assert _val_sum(p, a, b, u) == want, (a, b, u)
        with pytest.raises(ValueError):
            _val_sum(p, 4, 4, -1)

    def test_one_support_test_per_stratum(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _skew_j(*args)

        monkeypatch.setattr(cosets, "_skew_j", counted)
        total = 0
        for p in (2, 3, 5):
            for n in range(1, 17):
                for case in SKEW_CASES:
                    strata = sum(1 for tup in _skew_tuples(case, n)
                                 for _ in _strata(case, n, p, *tup))
                    calls.clear()
                    skew_brute_count(case, n, p)
                    assert len(calls) == strata, (case, n, p)
                    assert len(set(calls)) == strata, (case, n, p)
                    total += strata
        assert total > 0

    def test_orbit_walk_matches_skew_equal(self):
        for p in (2, 3, 5, 7):
            for n in range(1, 13):
                for case in SKEW_CASES:
                    classes = []
                    for tup, units in self._accepted_strata(case, n, p):
                        for u in sorted(units):
                            s = Skew(*tup, u, p)
                            for cls in classes:
                                if skew_equal(cls, s, n):
                                    break
                            else:
                                classes.append(s)
                    assert len(classes) == skew_brute_count(case, n, p), (case, n, p)

    def test_probe_rejects_what_a_wider_box_adds(self, monkeypatch):
        # the box is exactly the support, so no probe rejects a stratum of
        # it; the counter relies only on the box holding the support, so a
        # box that drops every inequality but the case's own must give the
        # same counts, the probes rejecting what it adds
        want = {(case, n, p): skew_brute_count(case, n, p)
                for case in SKEW_CASES for n in range(1, 15) for p in (2, 3)}

        def wide(case, n):
            for i in range(2, n):
                for k_x in range(1, i):
                    for k_y in range(k_x + 1, n):
                        k_zs = {"zLTxy": range(k_y + 1, k_x + k_y),
                                "zGTxy": range(k_x + k_y + 1, 2 * n)}
                        for k_z in k_zs.get(case, (k_x + k_y,)):
                            yield i, k_x, k_y, k_z

        for case in SKEW_CASES:
            assert set(wide(case, 14)) > set(_skew_tuples(case, 14)), case
        monkeypatch.setattr(cosets, "_skew_tuples", wide)
        for (case, n, p), count in want.items():
            assert skew_brute_count(case, n, p) == count, (case, n, p)


class TestSupportScan:
    def test_box_scan_matches_closed(self):
        for n in range(1, 11):
            rows = Counter(row_of(r, n) for r in enumerate_small_reps(n))
            for row in range(1, 8):
                assert rows[row] == table1_count(row, n), (n, row)

    def test_table_shape(self):
        tab = enumerate_supp(3, 4)
        assert [fc.family for fc in tab] == [
            "row1", "row2", "row3", "row4", "row5", "row6", "row7",
            "zLTxy", "zGTxy", "zEQxy_unit", "zEQxy_nonunit",
        ]
        assert [fc.count for fc in tab[:7]] == [6, 2, 1, 1, 0, 0, 0]
        assert all(fc.count == 0 for fc in tab[7:])
        assert [fc.per_coset_dim for fc in tab] == [
            "1", "1", "0-or-2", "q+1", "q-1", "q-1", "q-1",
            "q-1", "q-1", "q-1", "q-1",
        ]

    def test_minimal_level(self):
        tab = {fc.family: fc.count for fc in enumerate_supp(2, 2)}
        assert tab["row1"] == 1
        assert sum(tab.values()) == 1

    @pytest.mark.parametrize("q", [1, 6, 12])
    def test_q_not_a_prime_power_refused(self, q):
        # the skew counts are a closed form in q, defined for every q >= 2,
        # but no residue field has 6 or 12 elements
        with pytest.raises(NotPrime):
            enumerate_supp(q, 9)


class TestCanonicalEquality:
    def _all_reps(self, n, q, case_filter):
        out = []
        for i in range(2, n):
            for kx in range(1, i):
                for ky in range(kx + 1, n):
                    for kz in range(ky + 1, 2 * n):
                        for u in range(1, q ** (n - 1)):
                            if u % q == 0:
                                continue
                            s = Skew(i, kx, ky, kz, u, q)
                            if s.case == case_filter and in_supp(s, n):
                                out.append(s)
        return out

    def test_partition_matches_brute(self):
        n, q = 9, 2
        reps = self._all_reps(n, q, "zLTxy")
        classes = []
        for s in reps:
            for cls in classes:
                if skew_equal(cls[0], s, n):
                    cls.append(s)
                    break
            else:
                classes.append([s])
        assert len(classes) == skew_brute_count("zLTxy", n, q) == 1
        # equivalence is symmetric and reflexive on the class
        for s in classes[0][:8]:
            assert skew_equal(s, classes[0][0], n)
            assert skew_equal(s, s, n)

    def test_distinct_tuples_never_equal(self):
        n = 10
        a = Skew(4, 3, 5, 7, 1, 2)
        b = Skew(3, 2, 5, 7, 1, 2)
        assert in_supp(a, n) and in_supp(b, n)
        assert not skew_equal(a, b, n)

    def test_off_support_comparison_rejected(self):
        a = Skew(4, 3, 5, 7, 1, 2)
        with pytest.raises(ValueError):
            skew_equal(a, a, 5)
