"""Acceptance gate: the seven shipping criteria, one test (and one printed
pass/fail line) each.

Run with `pytest -v tests/test_acceptance.py` for the per-criterion verdict
lines, or `pytest -s` to see the timing summaries.
"""

from __future__ import annotations

import time
from collections import Counter

import pytest

import klingen.groupfq as gq
from klingen.chartab import classify, family_from_name
from klingen.cosets import (
    SKEW_CASES,
    enumerate_small_reps,
    row_of,
    skew_brute_count,
    skew_closed_count,
    table1_brute_count,
    table1_count,
)
from klingen.dims import (
    _COROLLARY_CONSTANTS,
    ORIGIN_PARAMODULAR,
    DimRequest,
    corollary_value,
    degree_in_q,
    dim_klingen,
)
from klingen.padic import estimate_Rg
from klingen.verify_lemmas import verify_char_lemmas

TYPE_I = family_from_name("typeI")
TYPE_II = family_from_name("typeII")
NONGENERIC = family_from_name("nongeneric")


def _verdict(num: int, label: str, t0: float, bound: float = None) -> None:
    dt = time.perf_counter() - t0
    stamp = f" in {dt:.2f}s" + (f" (bound {bound:.0f}s)" if bound else "")
    print(f"criterion {num} ({label}): PASS{stamp}")
    if bound is not None:
        assert dt < bound, f"criterion {num} exceeded its {bound}s budget: {dt:.2f}s"


def test_criterion_1_formula_equals_sum():
    """Closed form == Table-1 weighted sum, exactly, on the whole grid."""
    t0 = time.perf_counter()
    for q in (2, 3, 4, 5, 7):
        for n in range(1, 41):
            for fam in (TYPE_I, TYPE_II):
                # mode="both" raises DisagreementError on any mismatch
                report = dim_klingen(DimRequest(q, n, fam), mode="both")
                assert report.agree and report.total == report.formula_value
    _verdict(1, "formula equals support sum, q in {2,3,4,5,7}, n <= 40", t0, 10)


def test_criterion_2_corollary_reproduction():
    """Displayed q=2 and q=3 specializations, exactly."""
    t0 = time.perf_counter()
    assert [corollary_value(2, n) for n in range(1, 6)] == [0, 1, 4, 11, 22]
    assert corollary_value(3, 4) == 12
    assert _COROLLARY_CONSTANTS == {
        2: {0: 219, 1: 260, 2: 155, 3: 184},
        3: {0: 112, 1: 147, 2: 65, 3: 85},
    }
    for q in (2, 3):
        for n in range(1, 41):
            want = dim_klingen(DimRequest(q, n, TYPE_I), mode="formula").total
            assert corollary_value(q, n) == want, (q, n)
    _verdict(2, "corollary values and piecewise constants", t0)


def test_criterion_3_counting_oracles():
    """Closed counts == exhaustive enumeration; q-dependence witness."""
    t0 = time.perf_counter()
    for q in (2, 3):
        for n in range(1, 15):
            for row in range(1, 8):
                assert table1_count(row, n) == table1_brute_count(row, n), (q, n, row)
            for case in SKEW_CASES:
                assert skew_closed_count(case, n, q) == skew_brute_count(
                    case, n, q
                ), (q, n, case)
    assert skew_closed_count("zEQxy_unit", 8, 2) == 0
    assert skew_closed_count("zEQxy_unit", 8, 3) == 1
    for q in (2, 3, 5, 7, 11):
        assert skew_closed_count("zEQxy_unit", 8, q) == q - 2
    _verdict(3, "counting oracles, q in {2,3}, n <= 14", t0, 60)


def test_criterion_4_character_lemmas_q2():
    """Dixon-Schneider table of GSp(4,2) certifies every lemma value."""
    t0 = time.perf_counter()
    report = verify_char_lemmas(2)
    assert report.ok, report.failures()
    by_name = {}
    for c in report.checks:
        by_name.setdefault(c.name, c)
    assert by_name["class count"].actual == 11
    assert by_name["degree multiset"].actual == [1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16]
    assert by_name["sum of squared degrees"].actual == 720
    # the degree-9 character and the (virtual) degree-5 carrier reproduce
    # every lemma dimension
    lemmas = {"M": (0, 2), "S": (1, 1), "A": (1, 1), "R_last": (1, 1),
              "B": (3, 3), "C": (1, 1), "D": (1, 1), "U_S": (0, 0), "U_K": (0, 0)}
    for sub, (want_i, want_ii) in lemmas.items():
        assert by_name[f"dim typeI^{sub} (oracle, char 1)"].actual == want_i, sub
        assert by_name[f"dim typeII^{sub} (virtual)"].actual == want_ii, sub
    _verdict(4, "character lemma verification at q=2", t0, 30)


def test_criterion_5_class_intersections():
    """Displayed subgroup-class cardinalities by exhaustive enumeration."""
    t0 = time.perf_counter()
    # even-q displays, checked at q=2
    q = 2
    r = Counter(classify(g).kind for g in gq.named_subgroup("R_klingen", q).elements)
    m1 = Counter(classify(g).kind for g in gq.named_subgroup("M1", q).elements)
    assert r["A2"] == q * q + q - 2
    assert r["A32"] == (q - 1) * (q * q - 1)
    assert m1["A2"] == q * q - 1
    # odd-q displays, checked at q=3
    q = 3
    rl = Counter(classify(g).kind for g in gq.named_subgroup("R_last", q).elements)
    rk = Counter(classify(g).kind for g in gq.named_subgroup("R_klingen", q).elements)
    assert rl["A3"] == q * q * (q - 1)
    assert rl["A21"] == q * (q - 1)
    assert rk["B31"] == (q - 1) * (q * q - 1) // 2
    assert rk["B32"] == (q - 1) * (q * q - 1) // 2
    _verdict(5, "class-intersection counts, q in {2,3}", t0)


def test_criterion_6_rg_sampling_oracle():
    """Sampled R_g contained in and equal to the Table-1 prediction."""
    t0 = time.perf_counter()
    seed, budget = 11, 500
    total = 0
    for n in range(2, 6):
        for rep in enumerate_small_reps(n):
            total += 1
            row = row_of(rep, n)
            pred = gq.named_subgroup(f"Row{row}", 2)
            est = estimate_Rg(rep, n, 2, budget=budget, seed=seed)
            assert est.is_subset_of(pred), (rep, n)
            assert est.order == pred.order, (rep, n, est.order, pred.order)
    assert total == 36  # every support representative in the window
    # seed determinism
    a = estimate_Rg(next(iter(enumerate_small_reps(3))), 3, 2, budget=budget, seed=seed)
    b = estimate_Rg(next(iter(enumerate_small_reps(3))), 3, 2, budget=budget, seed=seed)
    assert a.same_elements(b)
    _verdict(6, "R_g sampling equality on all 36 reps, q=2, n in 2..5", t0)


def test_criterion_7_structural_properties():
    """Zero cases, family gap, integrality, and degree in q."""
    t0 = time.perf_counter()
    for q in (2, 3, 5):
        for n in range(0, 41):
            assert dim_klingen(DimRequest(q, n, NONGENERIC)).total == 0
            assert dim_klingen(
                DimRequest(q, n, TYPE_I, origin=ORIGIN_PARAMODULAR)
            ).total == 0
            assert dim_klingen(
                DimRequest(q, n, TYPE_II, origin=ORIGIN_PARAMODULAR)
            ).total == 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(0, 61):
            a = dim_klingen(DimRequest(q, n, TYPE_I), mode="both").total
            b = dim_klingen(DimRequest(q, n, TYPE_II), mode="both").total
            assert a >= 0 and b >= 0
            assert b - a == (2 * ((n - 1) // 2) if n >= 1 else 0)
    for n in range(0, 61):
        assert degree_in_q(n, "typeI") == n // 4
        assert degree_in_q(n, "typeII") == n // 4
    _verdict(7, "structural properties (zeros, gap, integrality, degree)", t0)
