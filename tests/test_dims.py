"""Dimension assembly: sum route vs closed formula, corollary, degrees."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klingen import dims
from klingen.chartab import family_from_name
from klingen.dims import (
    ORIGIN_PARAMODULAR,
    DimRequest,
    corollary_value,
    degree_in_q,
    dim_klingen,
)
from klingen.errors import DisagreementError, NotPolynomial, NotPrime

TYPE_I = family_from_name("typeI")
TYPE_II = family_from_name("typeII")
NONGENERIC = family_from_name("nongeneric")


class TestDimExamples:
    def test_minimal_level(self):
        rep = dim_klingen(DimRequest(2, 2, TYPE_I), "both")
        assert rep.total == 1
        assert rep.agree

    def test_level_four_both_families(self):
        assert dim_klingen(DimRequest(2, 4, TYPE_I)).total == 11
        assert dim_klingen(DimRequest(2, 4, TYPE_II)).total == 13
        assert dim_klingen(DimRequest(3, 4, TYPE_I)).total == 12

    def test_breakdown(self):
        rep = dim_klingen(DimRequest(2, 4, TYPE_I), "sum")
        subtotals = {family: sub for family, _, _, sub in rep.by_family}
        assert subtotals["row1"] == 6
        assert subtotals["row2"] == 2
        assert subtotals["row3"] == 0
        assert subtotals["row4"] == 3
        assert rep.total == sum(sub for *_, sub in rep.by_family)

    def test_first_values_q2(self):
        got = [dim_klingen(DimRequest(2, n, TYPE_I)).total for n in range(1, 6)]
        assert got == [0, 1, 4, 11, 22]

    def test_report_invariants(self):
        for mode in ("sum", "formula", "both"):
            rep = dim_klingen(DimRequest(3, 7, TYPE_II), mode)
            assert rep.agree == (rep.total == rep.formula_value)
            assert rep.total == sum(sub for *_, sub in rep.by_family)


class TestZeroPaths:
    def test_low_levels(self):
        for n in (0, 1):
            for fam in (TYPE_I, TYPE_II):
                rep = dim_klingen(DimRequest(5, n, fam))
                assert rep.total == 0 and rep.agree

    def test_nongeneric(self):
        for n in range(0, 41):
            assert dim_klingen(DimRequest(2, n, NONGENERIC)).total == 0
            assert dim_klingen(DimRequest(3, n, NONGENERIC)).total == 0

    def test_paramodular_origin(self):
        for n in (0, 1, 2, 5, 17):
            rep = dim_klingen(DimRequest(2, n, TYPE_I, ORIGIN_PARAMODULAR))
            assert rep.total == 0 and rep.agree


class TestRouteAgreement:
    def test_full_grid(self):
        for q in (2, 3, 4, 5, 7):
            for n in range(1, 41):
                for fam in (TYPE_I, TYPE_II):
                    rep = dim_klingen(DimRequest(q, n, fam), "both")
                    assert rep.agree, (q, n, fam.kind)

    def test_family_difference(self):
        for q in (2, 3, 5):
            for n in range(2, 41):
                a = dim_klingen(DimRequest(q, n, TYPE_I)).total
                b = dim_klingen(DimRequest(q, n, TYPE_II)).total
                assert b - a == 2 * ((n - 1) // 2), (q, n)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([2, 3, 4, 5, 7, 8, 9]), st.integers(0, 60))
    def test_routes_agree_everywhere(self, q, n):
        for fam in (TYPE_I, TYPE_II):
            rep = dim_klingen(DimRequest(q, n, fam), "both")
            assert rep.agree
            assert rep.total >= 0

    def test_disagreement_is_fatal(self, monkeypatch):
        monkeypatch.setattr(dims, "_formula_value", lambda q, n, kind: 10**9)
        with pytest.raises(DisagreementError):
            dim_klingen(DimRequest(2, 4, TYPE_I), "both")
        rep = dim_klingen(DimRequest(2, 4, TYPE_I), "sum")
        assert not rep.agree and rep.total == 11


class TestCorollary:
    def test_examples(self):
        assert corollary_value(2, 3) == 4
        assert corollary_value(2, 1) == 0
        assert corollary_value(3, 4) == 12

    def test_matches_formula_route(self):
        for q in (2, 3):
            for n in range(1, 41):
                want = dim_klingen(DimRequest(q, n, TYPE_I), "formula").total
                assert corollary_value(q, n) == want, (q, n)

    def test_domain(self):
        with pytest.raises(ValueError):
            corollary_value(5, 4)
        with pytest.raises(ValueError):
            corollary_value(2, 0)


class TestDegree:
    def test_examples(self):
        assert degree_in_q(4, "typeI") == 1
        assert degree_in_q(3, "typeI") == 0
        assert degree_in_q(16, "typeI") == 4

    def test_full_range(self):
        for n in range(0, 121):
            for kind in ("typeI", "typeII"):
                assert degree_in_q(n, kind) == n // 4, (n, kind)

    def test_nonpolynomial_detected(self, monkeypatch):
        stubs = (
            lambda q: q**10,
            lambda q: 2**q,
            # vanishing second difference over q = 2..4: only the second
            # check point past the two values that fix a line (b = 1 at
            # n = 4) sees it
            lambda q: (q - 3) ** 3,
        )
        for stub in stubs:
            monkeypatch.setattr(dims, "_formula_value",
                                lambda q, n, kind, stub=stub: stub(q))
            with pytest.raises(NotPolynomial):
                degree_in_q(4, "typeI")

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            degree_in_q(4, "chi5")


class TestValidation:
    def test_request_bounds(self):
        with pytest.raises(ValueError):
            DimRequest(1, 4, TYPE_I)
        with pytest.raises(ValueError):
            DimRequest(2, -1, TYPE_I)
        with pytest.raises(ValueError):
            DimRequest(2, 4, TYPE_I, "iwahori")

    def test_q_not_a_prime_power(self):
        for q in (6, 10, 12):
            with pytest.raises(NotPrime):
                DimRequest(q, 4, TYPE_I)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            dim_klingen(DimRequest(2, 4, TYPE_I), "fast")
