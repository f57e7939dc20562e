"""Dimension assembly: sum route vs closed formula, corollary, degrees."""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klingen import cosets, dims
from klingen.chartab import family_from_name
from klingen.dims import (
    ORIGIN_PARAMODULAR,
    DimRequest,
    corollary_value,
    degree_in_q,
    dim_klingen,
)
from klingen.errors import (
    DisagreementError,
    NonIntegralResult,
    NotPolynomial,
    NotPrime,
)

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


# ---------------------------------------------------------------------------
# the closed forms against a frozen census of their values
# ---------------------------------------------------------------------------

CLOSED_FORMS = json.loads(
    (Path(__file__).parent / "data" / "closed_forms_census.json").read_text()
)

_CLOSED_FORM_FUNCTIONS = {
    "table1_count": cosets.table1_count,
    "skew_closed_count": cosets.skew_closed_count,
    "_formula_value": dims._formula_value,
    "corollary_value": dims.corollary_value,
}


def _closed_form_digest(name: str, axes) -> str:
    """sha256 of one line per argument tuple of the grid: the value, or the
    exception's type and message."""
    fn = _CLOSED_FORM_FUNCTIONS[name]
    lines = []
    for args in itertools.product(*axes):
        try:
            lines.append(f"{args!r} {fn(*args)!r}")
        except Exception as exc:  # the census records every outcome
            lines.append(f"{args!r} !{type(exc).__name__}: {exc}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestClosedFormCensus:
    """``data/closed_forms_census.json`` holds, per closed form, its argument
    grid and a sha256 over its values and exceptions there.  It was captured
    from the rational (Fraction) evaluation that the integer numerators
    replaced, so any value or message that moves shows up here."""

    @pytest.mark.parametrize("name", sorted(_CLOSED_FORM_FUNCTIONS))
    def test_census(self, name):
        entry = CLOSED_FORMS[name]
        assert _closed_form_digest(name, entry["axes"]) == entry["sha256"]

    def test_level_one_formula_is_zero(self):
        # m = -1: the q-power sits in the denominator and cancels exactly
        for q in (2, 3, 4, 5, 7, 8, 9, 25, 27, 49, 121, 512, 729):
            for kind in ("typeI", "typeII"):
                assert dims._formula_value(q, 1, kind) == 0, (q, kind)

    def test_skew_below_the_shift_is_empty(self):
        # n < shift gives a negative q-power exponent in every case
        for q in (2, 3, 4, 5, 7, 8, 9):
            for case, shift in (("zLTxy", 5), ("zGTxy", 5),
                                ("zEQxy_unit", 4), ("zEQxy_nonunit", 6)):
                for n in range(1, shift):
                    assert cosets.skew_closed_count(case, n, q) == 0, (case, n, q)

    def test_non_integral_formula_is_refused(self, monkeypatch):
        # c_0(q) raised by 1; the message is the one the rational
        # evaluation gave
        monkeypatch.setitem(dims._C_POLYS, 0, lambda q: q * q + 36 * q + 72)
        with pytest.raises(NonIntegralResult) as info:
            dims._formula_value(3, 8, "typeI")
        assert str(info.value) == (
            "closed formula at q=3, n=8, typeI evaluated to non-integer 283/2"
        )
