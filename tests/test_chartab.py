"""Character-data layer: classification, pinned values, dimension routes."""

from __future__ import annotations

import cmath
import dataclasses
import gc
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from klingen import chartab, dixon, ffield, groupfq as gq
from klingen.chartab import (
    FAMILY_NONGENERIC,
    FAMILY_TYPE_I,
    FAMILY_TYPE_II,
    SigmaFamily,
    _pinned_value,
    _roots,
    classify,
    dim_fixed,
    dim_fixed_family,
    family_from_name,
)
from klingen.dixon import (
    Cyclotomic,
    _charpoly_mod,
    _class_products,
    _column_sums,
    _conjugate,
    _poly_roots_mod,
    _power_table,
    _product,
    _verify_table,
    cyclotomic_polynomial,
    dixon_table,
)
from klingen.errors import (
    DixonBoundExceeded,
    MismatchReport,
    NotScopedClass,
)
from klingen.ffield import FieldOps, field_for_q, kernel
from klingen.verify_lemmas import _virtual_type_ii, verify_char_lemmas

TYPE_I = SigmaFamily(FAMILY_TYPE_I)
TYPE_II = SigmaFamily(FAMILY_TYPE_II)


@pytest.fixture(scope="module")
def table_q2():
    return dixon_table(gq.enumerate_gsp4(2))


class TestFamilies:
    def test_degrees(self):
        assert TYPE_I.degree(2) == 9
        assert TYPE_II.degree(2) == 5
        assert TYPE_I.degree(3) == 64
        assert TYPE_II.degree(3) == 40

    def test_display_names_follow_parity(self):
        assert TYPE_I.display_name(2) == "chi5"
        assert TYPE_II.display_name(2) == "chi4"
        assert TYPE_I.display_name(3) == "X4"
        assert TYPE_II.display_name(3) == "X5"

    def test_names_resolve(self):
        assert family_from_name("chi5", 2).kind == FAMILY_TYPE_I
        assert family_from_name("chi4", 4).kind == FAMILY_TYPE_II
        assert family_from_name("x4", 3).kind == FAMILY_TYPE_I
        assert family_from_name("X5", 5).kind == FAMILY_TYPE_II
        assert family_from_name("typeI").kind == FAMILY_TYPE_I
        assert family_from_name("typeII", 7).kind == FAMILY_TYPE_II
        assert family_from_name("nongeneric").kind == FAMILY_NONGENERIC

    def test_parity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            family_from_name("chi5", 3)
        with pytest.raises(ValueError):
            family_from_name("x4", 4)
        with pytest.raises(ValueError):
            family_from_name("sigma")


def _elem(q, rows):
    return gq.gsp_elem(gq.Mat4.from_rows(field_for_q(q), rows))


def _polys(rows, spec):
    """The batched characteristic polynomials (c0, c1, c2, c3) of rows, one
    row each."""
    fa = chartab._field_arrays(spec)
    return chartab._char_polys(chartab._with_constants(np.asarray(rows)), fa).T


class TestCharPoly:
    """The batched characteristic polynomial and its roots, on encodings."""

    def test_diagonal(self):
        """char poly of a diagonal similitude is the product of (t - d_i)."""
        spec = field_for_q(5)
        t = ffield.tables(spec)
        m = gq.Mat4.diag(spec, 2, 3, 4, 1)  # mu = 2*1 = 3*4 = 2
        cp = _polys([m.e], spec)[0].tolist() + [1]
        roots, _ = _roots(cp, t)
        assert roots == {spec(x).encoding(): 1 for x in (2, 3, 4, 1)}

    def test_constant_term_is_determinant(self):
        """c0 = det = mu^2 for similitude matrices."""
        for q in (2, 3, 4, 5, 8, 9):
            mul = np.array(ffield.tables(field_for_q(q)).mul)
            for name in ("M1", "R_klingen", "Row8"):
                sub = gq.named_subgroup(name, q)
                c0 = _polys(sub.rows, sub.spec)[:, 0]
                assert (c0 == mul[sub.mus, sub.mus]).all(), (q, name)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
    def test_cayley_hamilton(self, q):
        """h^4 + c3 h^3 + c2 h^2 + c1 h + c0 I = 0, the powers of h from
        groupfq's matrix product, on named subgroups with many polynomials."""
        spec = field_for_q(q)
        t = ffield.tables(spec)
        add, mul = np.array(t.add), np.array(t.mul)
        for name in ("M", "R_klingen", "Row8"):
            sub = gq.named_subgroup(name, q)
            h = sub.rows.astype(np.intp).reshape(-1, 4, 4)
            powers = [np.broadcast_to(np.eye(4, dtype=np.intp), h.shape), h]
            for _ in range(3):
                powers.append(gq._fq_matmul(powers[-1], h, spec))
            c = _polys(sub.rows, spec)
            acc = powers[4]
            for k in range(4):
                acc = add[acc, mul[c[:, k, None, None], powers[k]]]
            assert not acc.any(), name

    def test_unipotent(self):
        g = _elem(3, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]])
        spec = field_for_q(3)
        t = ffield.tables(spec)
        cp = _polys([g.mat.e], spec)[0].tolist() + [1]
        assert _roots(cp, t)[0] == {spec.one.encoding(): 4}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    def test_conjugation_invariance(self, a, b):
        pool = gq.named_subgroup("R_klingen", 3).elements
        conj = gq.named_subgroup("Row8", 3).elements
        g = pool[a % len(pool)]
        h = conj[b % len(conj)]
        rows = [(h * g * h.inverse()).mat.e, g.mat.e]
        cp = _polys(rows, g.spec)
        assert (cp[0] == cp[1]).all()


@st.composite
def _encoded_matrices(draw):
    """A q and a few 4 x 4 matrices over F_q as encoding rows: sparse ones
    supported on a block of rows and columns, and products C V of a 4 x r
    and an r x 4 matrix, of rank at most r."""
    q = draw(st.sampled_from((2, 3, 4, 5, 8, 9)))
    spec = field_for_q(q)
    entry = st.integers(0, q - 1)
    sparse = st.one_of(st.just(0), entry)
    mats = []
    for _ in range(draw(st.integers(1, 6))):
        rows, cols = (draw(st.sets(st.integers(0, 3))) for _ in "rc")
        mats.append([draw(sparse) if i // 4 in rows and i % 4 in cols else 0
                     for i in range(16)])
    for r in draw(st.lists(st.integers(1, 3), max_size=3)):
        c = np.array(draw(st.lists(sparse, min_size=4 * r, max_size=4 * r))).reshape(4, r)
        v = np.array(draw(st.lists(entry, min_size=4 * r, max_size=4 * r))).reshape(r, 4)
        mats.append(gq._fq_matmul(c, v, spec).ravel().tolist())
    return spec, mats


class TestBatchedRanks:
    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_every_minor_counts(self, q):
        """For each k x k minor (R|C), the matrix with ones at (r_i, c_i)
        has rank k and no other nonzero k x k minor."""
        spec = field_for_q(q)
        mats, want = [], []
        for k in (1, 2, 3, 4):
            for rows in combinations(range(4), k):
                for cols in combinations(range(4), k):
                    e = [0] * 16
                    for r, c in zip(rows, cols):
                        e[4 * r + c] = 1
                    mats.append(e)
                    want.append(k)
        x = chartab._with_constants(np.array(mats))
        assert chartab._ranks(x, chartab._field_arrays(spec)).tolist() == want

    @settings(max_examples=150, deadline=None)
    @given(_encoded_matrices())
    def test_ranks_match_elimination(self, drawn):
        spec, mats = drawn
        t = ffield.tables(spec)
        x = chartab._with_constants(np.array(mats))
        got = chartab._ranks(x, chartab._field_arrays(spec)).tolist()
        assert got == [len(ffield.row_reduce([m[0:4], m[4:8], m[8:12], m[12:16]], t)[1])
                       for m in mats]


class TestClassify:
    def test_identity(self):
        for q, kind in ((2, "A1"), (4, "A1"), (3, "A0"), (5, "A0")):
            spec = field_for_q(q)
            ident = gq.gsp_elem(gq.Mat4.identity(spec))
            assert classify(ident).kind == kind

    def test_long_root_element(self):
        rows = [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        assert classify(_elem(2, rows)).kind == "A2"
        assert classify(_elem(3, rows)).kind == "A1"

    def test_regular_unipotent(self):
        # lower unipotent with full Jordan block (rank-3 nilpotent part)
        rows = [[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 2, 2, 1]]
        assert classify(_elem(3, rows)).kind == "A3"
        rows2 = [[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0], [0, 0, 1, 1]]
        assert classify(_elem(2, rows2)).kind == "A41"

    def test_even_q_short_root_vs_skew(self):
        # rank-2 nilpotent parts split by the restricted form being zero
        a31 = _elem(2, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
        a32 = _elem(2, [[1, 1, 0, 1], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
        kinds = {classify(a31).kind, classify(a32).kind}
        assert kinds == {"A31", "A32"}

    def test_mixed_rational(self):
        g = gq.gsp_elem(gq.Mat4.diag(field_for_q(3), 1, 2, 1, 2))
        assert classify(g).kind == "Mixed"
        h = gq.gsp_elem(gq.Mat4.diag(field_for_q(5), 2, 2, 1, 1))
        assert classify(h).kind == "Mixed"

    def test_b_family_central_pair(self):
        # eigenvalues {1,1,-1,-1} with mu = +1: paired eigenspaces (2,2)
        g = gq.gsp_elem(gq.Mat4.diag(field_for_q(3), 1, 2, 2, 1))
        assert classify(g).kind == "B0"

    def test_elliptic_levi(self):
        # Klingen-Levi element with an irreducible middle block t^2+t+1
        rows = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
        lab = classify(_elem(2, rows))
        assert lab.kind == "C3"
        assert lab.token == 1

    def test_m_subgroup_signature_q2(self):
        counts = Counter(classify(g).kind for g in gq.named_subgroup("M", 2).elements)
        assert counts == {"A1": 1, "A2": 3, "C3": 2}

    def test_s_subgroup_signature_q2(self):
        counts = Counter(classify(g).kind for g in gq.named_subgroup("S", 2).elements)
        assert counts == {"A1": 1, "A2": 1, "A31": 1, "A32": 1}

    def test_not_scoped_exists_q2(self):
        # the full group contains elements outside the rational scope
        found = Counter()
        for g in gq.enumerate_gsp4(2).elements:
            found[classify(g).kind] += 1
        assert found["NotScoped"] == 120 + 144 + 40

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    def test_conjugation_invariance(self, a, b):
        pool = gq.named_subgroup("M", 3).elements
        conj = gq.named_subgroup("R_klingen", 3).elements
        g = pool[a % len(pool)]
        h = conj[b % len(conj)]
        assert classify(h * g * h.inverse()) == classify(g)


class TestPinnedValues:
    def test_not_scoped_raises(self):
        group = gq.enumerate_gsp4(2)
        g = next(g for g in group.elements if classify(g).kind == "NotScoped")
        # dim_fixed refuses a subgroup that holds an out-of-scope class
        with pytest.raises(NotScopedClass):
            dim_fixed(gq.subgroup_closure([g]), TYPE_I)

    def test_vanishing_block_form_raises(self):
        # at h = 0 both shifts are 0, so Q vanishes on every column of P
        zero = np.zeros((3, 4, 4), np.intp)
        with pytest.raises(NotScopedClass):
            chartab._block_form(zero, zero, field_for_q(3))

    def test_aggregate_only_raises(self):
        rows = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
        label = classify(_elem(2, rows))
        assert label.kind == "C3"
        # no per-element pin: the class enters dim_fixed through aggregates
        assert _pinned_value(label.kind, FAMILY_TYPE_II, 2) is None

    def test_identity_value_is_degree(self):
        for q in (2, 3, 4, 5):
            ident = gq.gsp_elem(gq.Mat4.identity(field_for_q(q)))
            label = classify(ident)
            for fam in (TYPE_I, TYPE_II):
                assert _pinned_value(label.kind, fam.kind, q) == fam.degree(q)


class TestDimensionRoutes:
    """classify-and-average agrees with the closed per-subgroup values."""

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_all_named_subgroups(self, q):
        for name in gq.NAMED_SUBGROUP_NAMES:
            if name == "Z_ray":
                continue
            sub = gq.named_subgroup(name, q)
            for fam in (TYPE_I, TYPE_II):
                assert dim_fixed(sub, fam) == dim_fixed_family(name, fam, q), (
                    name,
                    fam.kind,
                )

    def test_spot_checks_q5(self):
        for name in ("U_S", "U_K", "R_last", "M1", "B", "Row4"):
            sub = gq.named_subgroup(name, 5)
            for fam in (TYPE_I, TYPE_II):
                assert dim_fixed(sub, fam) == dim_fixed_family(name, fam, 5)

    @pytest.mark.parametrize("group_q, passed_q", [(2, 4), (2, 8), (3, 5), (4, 2)])
    def test_q_of_another_field_refused(self, group_q, passed_q):
        # the pins would be read at passed_q over a group of F_group_q
        sub = gq.named_subgroup("B", group_q)
        with pytest.raises(ValueError):
            dim_fixed(sub, TYPE_I, passed_q)
        assert dim_fixed(sub, TYPE_I, group_q) == dim_fixed(sub, TYPE_I)

    @pytest.mark.parametrize("q, name", [(2, "B"), (3, "Row3"), (4, "M")])
    def test_both_families_share_one_classification(self, q, name, monkeypatch):
        sub = gq.named_subgroup(name, q)
        calls = []
        real = chartab._label_codes
        monkeypatch.setattr(chartab, "_label_codes",
                            lambda rows, mus, spec: calls.append(len(rows))
                            or real(rows, mus, spec))
        for fam in (TYPE_I, TYPE_II):
            assert dim_fixed(sub, fam) == dim_fixed_family(name, fam, q)
        assert calls == [sub.order]
        # a new object of the same group is classified afresh
        again = gq.named_subgroup(name, q)
        assert dim_fixed(again, TYPE_I) == dim_fixed_family(name, TYPE_I, q)
        assert calls == [sub.order, sub.order]

    def test_memo_dies_with_the_subgroup(self):
        sub = gq.named_subgroup("B", 3)
        dim_fixed(sub, TYPE_II)
        assert sub in chartab._COUNTS
        held = len(chartab._COUNTS)
        ref = weakref.ref(sub)
        del sub
        gc.collect()
        assert ref() is None
        assert len(chartab._COUNTS) < held

    def test_closed_values_scale(self):
        for q in (2, 3, 4, 5, 7):
            assert dim_fixed_family("B", TYPE_I, q) == q + 1
            assert dim_fixed_family("R_last", TYPE_II, q) == q - 1
            assert dim_fixed_family("M", TYPE_I, q) == 0
            assert dim_fixed_family("M", TYPE_II, q) == 2
            assert dim_fixed_family("R_klingen", TYPE_I, q) == 0
            assert dim_fixed_family("R_klingen", TYPE_II, q) == 0
            for row, want in ((1, 1), (2, 1), (4, q + 1), (5, q - 1), (8, q - 1)):
                assert dim_fixed_family(row, TYPE_I, q) == want
            for row in range(1, 9):
                for fam in (TYPE_I, TYPE_II):
                    assert (dim_fixed_family(f"Row{row}", fam, q)
                            == dim_fixed_family(row, fam, q))


class TestIntersectionCounts:
    """Class-intersection counts the closed counting forms rely on (odd q)."""

    def test_last_row_group_q3(self):
        q = 3
        counts = Counter(
            classify(g).kind for g in gq.named_subgroup("R_last", q).elements
        )
        assert counts["A3"] == q * q * (q - 1)
        assert counts["A21"] == q * (q - 1)
        assert counts["A22"] == 0

    def test_klingen_levi_b_split_q3(self):
        q = 3
        counts = Counter(
            classify(g).kind for g in gq.named_subgroup("R_klingen", q).elements
        )
        assert counts["B31"] == (q - 1) * (q * q - 1) // 2
        assert counts["B32"] == (q - 1) * (q * q - 1) // 2


CYCLOTOMIC_ORDERS = (1, 3, 4, 12, 60, 360)


@st.composite
def cyclotomic_pairs(draw):
    """An order n and two coefficient vectors of length deg Phi_n."""
    n = draw(st.sampled_from(CYCLOTOMIC_ORDERS))
    d = len(cyclotomic_polynomial(n)) - 1
    vec = st.lists(st.integers(-40, 40), min_size=d, max_size=d)
    return n, draw(vec), draw(vec)


def _reduce_mod(poly, modulus):
    """poly mod a monic modulus by long division (both constant first)."""
    poly = list(poly)
    d = len(modulus) - 1
    for m in range(len(poly) - 1, d - 1, -1):
        c = poly[m]
        if c:
            for j, mj in enumerate(modulus):
                poly[m - d + j] -= c * mj
    return (poly + [0] * d)[:d]


def _evaluate(x: Cyclotomic) -> complex:
    zeta = cmath.exp(2j * cmath.pi / x.order)
    return sum(c * zeta**k for k, c in enumerate(x.coeffs))


def _close(a: complex, b: complex, x: Cyclotomic) -> bool:
    return abs(a - b) <= 1e-9 * (1 + sum(abs(c) for c in x.coeffs))


class TestCyclotomic:
    """Z[zeta_n] arithmetic against polynomial long division and against
    complex evaluation at exp(2 pi i / n)."""

    @settings(max_examples=60, deadline=None)
    @given(cyclotomic_pairs())
    def test_product_is_reduced_polynomial_product(self, pair):
        n, a, b = pair
        conv = [0] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
        got = _product(np.outer(a, b), n)
        assert got.dtype == np.int64
        assert got.tolist() == _reduce_mod(conv, cyclotomic_polynomial(n))

    @settings(max_examples=60, deadline=None)
    @given(cyclotomic_pairs())
    def test_conjugate_is_complex_conjugation_and_an_involution(self, pair):
        n, a, _ = pair
        x = Cyclotomic(n, a)
        bar = _conjugate(np.array(a), n)
        assert _close(_evaluate(Cyclotomic(n, bar.tolist())), _evaluate(x).conjugate(), x)
        assert _conjugate(bar, n).tolist() == a

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(CYCLOTOMIC_ORDERS), st.integers(-1000, 1000))
    def test_root_power(self, n, k):
        x = Cyclotomic(n, _power_table(n)[k % n].tolist())
        assert _close(_evaluate(x), cmath.exp(2j * cmath.pi * k / n), x)

    @pytest.mark.parametrize("n", CYCLOTOMIC_ORDERS)
    def test_non_int_coefficients_refused(self, n):
        d = len(cyclotomic_polynomial(n)) - 1
        with pytest.raises(TypeError, match="must be ints"):
            Cyclotomic(n, (Fraction(1, 2),) + (0,) * (d - 1))
        with pytest.raises(TypeError, match="must be ints"):
            Cyclotomic(n, (0,) * (d - 1) + (1.0,))
        with pytest.raises(TypeError, match="must be ints"):
            Cyclotomic(n, np.ones(d, dtype=np.int64))
        with pytest.raises(ValueError):
            Cyclotomic(n, (0,) * (d + 1))


def _poly_product(a, b, n):
    """a b in Z[zeta_n] by polynomial product and long division by Phi_n."""
    conv = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            conv[i + j] += ai * bj
    return _reduce_mod(conv, cyclotomic_polynomial(n))


def _poly_conjugate(a, n):
    """The complex conjugate of a in Z[zeta_n]: x^k -> x^(n-k), reduced."""
    out = [0] * n
    for k, c in enumerate(a):
        out[(n - k) % n] += c
    return _reduce_mod(out, cyclotomic_polynomial(n))


def _negate_one_value(table):
    """The table with its first nonzero value off the identity class negated."""
    i, k = next((i, k) for i in range(table.n_chars) for k in range(table.n_classes)
                if k != table.identity_class and not table.value(i, k).is_zero())
    values = table.values.copy()
    values[i, k] *= -1
    return dataclasses.replace(table, values=values)


def _det_mod(rows, p):
    """det of a square int matrix mod the prime p, by Gaussian elimination."""
    a = [[x % p for x in row] for row in rows]
    det = 1
    for c in range(len(a)):
        piv = next((r for r in range(c, len(a)) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], p - 2, p)
        for r in range(c + 1, len(a)):
            f = a[r][c] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c])]
    return det % p


class TestDixonKernels:
    """The int64 kernels of the descent mod ell against independent
    recomputations, and the bound that every int64 product checks first."""

    # Faddeev-LeVerrier divides by every k <= d, so d < ell; the solver's
    # ell exceeds the class count
    @pytest.mark.parametrize("ell,d", [(ell, d) for ell in (61, 1801)
                                       for d in (1, 5, 11, 38, 64) if d < ell])
    def test_charpoly_cayley_hamilton(self, ell, d):
        t = np.random.default_rng(1000 * ell + d).integers(0, ell, (d, d))
        coeffs = _charpoly_mod(t, ell)
        assert len(coeffs) == d + 1 and coeffs[d] == 1
        assert all(type(c) is int and 0 <= c < ell for c in coeffs)
        acc = np.zeros((d, d), dtype=np.int64)
        for c in reversed(coeffs):  # p(T) by Horner's rule
            acc = (acc @ t + c * np.eye(d, dtype=np.int64)) % ell
        assert not acc.any()
        assert coeffs[0] == (-1) ** d * _det_mod(t.tolist(), ell) % ell

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((61, 1801)), st.lists(st.integers(0, 10**4), max_size=6),
           st.lists(st.integers(0, 10**4), min_size=1, max_size=6))
    def test_poly_roots_against_brute_force(self, ell, roots, cofactor):
        coeffs = [c % ell for c in cofactor]
        for root in roots:  # p(x) (x - root) = x p(x) - root p(x)
            coeffs = [(xp - root * p) % ell for xp, p in zip([0] + coeffs, coeffs + [0])]
        want = [x for x in range(ell)
                if sum(c * pow(x, i, ell) for i, c in enumerate(coeffs)) % ell == 0]
        assert _poly_roots_mod(coeffs, ell) == want
        assert {r % ell for r in roots} <= set(want)

    def test_bound_guard(self, table_q2, monkeypatch):
        """GSp(4, 2) has ell = 61 and exponent 60, so its residue products
        can reach 60 * 60^2; <chi_0, chi_0> sums 720 = |G| in one product."""
        monkeypatch.setattr(dixon, "INT_BOUND", 10**4)
        with pytest.raises(DixonBoundExceeded, match="arithmetic mod 61"):
            dixon_table(table_q2.group)
        with pytest.raises(DixonBoundExceeded, match="arithmetic mod 1801"):
            _charpoly_mod(np.eye(5, dtype=np.int64), 1801)
        with pytest.raises(DixonBoundExceeded, match="arithmetic mod 1801"):
            _poly_roots_mod([1, 1], 1801)
        monkeypatch.setattr(dixon, "INT_BOUND", 700)
        with pytest.raises(DixonBoundExceeded, match="past the int64 bound 700"):
            table_q2.inner(0, 0)
        with pytest.raises(DixonBoundExceeded, match="past the int64 bound 700"):
            table_q2.fixed_dim(0, table_q2.group)


class TestDixonOracle:
    def test_degrees(self, table_q2):
        assert table_q2.n_classes == 11
        assert sorted(table_q2.degrees) == [1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16]
        assert sum(d * d for d in table_q2.degrees) == 720

    def test_identity_column(self, table_q2):
        k = table_q2.identity_class
        for i in range(table_q2.n_chars):
            v = table_q2.value(i, k)
            assert v.is_rational() and v.as_int() == table_q2.degrees[i]

    def test_orthogonality_spot(self, table_q2):
        assert table_q2.inner(0, 0) == Fraction(1)
        assert table_q2.inner(0, 1) == Fraction(0)
        assert table_q2.inner(3, 7) == Fraction(0)

    def test_fixed_dims_integral(self, table_q2):
        sub = gq.named_subgroup("B", 2)
        dims = sorted(table_q2.fixed_dim(i, sub) for i in range(table_q2.n_chars))
        assert all(isinstance(d, int) and d >= 0 for d in dims)
        # the trivial character restricts trivially
        triv = [
            i
            for i in range(table_q2.n_chars)
            if table_q2.degrees[i] == 1 and table_q2.fixed_dim(i, sub) == 1
        ]
        assert triv

    def test_column_checks_of_a_large_table(self):
        """Past 32 characters _verify_table checks the columns against the
        identity column and their norms; B at q = 4 has 36 classes.  The
        table passes, and negating one nonzero value off the identity class
        fails it."""
        table = dixon_table(gq.named_subgroup("B", 4))
        assert table.n_chars == table.n_classes == 36
        _verify_table(table)
        with pytest.raises(MismatchReport):
            _verify_table(_negate_one_value(table))

    def test_row_checks_of_a_small_table(self, table_q2):
        """Up to 32 characters _verify_table checks first orthogonality; the
        same mutant as above fails it on GSp(4, 2)'s 11 classes."""
        _verify_table(table_q2)
        with pytest.raises(MismatchReport, match="orthogonality"):
            _verify_table(_negate_one_value(table_q2))

    def test_inner_products_against_polynomial_products(self, table_q2):
        """Every <chi_i, chi_j> of GSp(4, 2) against a sum of polynomial
        products reduced mod Phi_e, one class at a time."""
        e, sizes = table_q2.exponent, [cls.size for cls in table_q2.classes]
        values = table_q2.values.tolist()
        for i in range(table_q2.n_chars):
            for j in range(table_q2.n_chars):
                total = [0] * len(values[i][0])
                for k, h in enumerate(sizes):
                    prod = _poly_product(values[i][k], _poly_conjugate(values[j][k], e), e)
                    total = [t + h * c for t, c in zip(total, prod)]
                assert not any(total[1:])
                assert table_q2.inner(i, j) == Fraction(total[0], table_q2.group.order)

    def test_column_sums_against_polynomial_products(self):
        """The column sums of B at q = 4 (36 classes), against the identity
        column and each column's norm, against sums of polynomial products
        reduced mod Phi_e."""
        table = dixon_table(gq.named_subgroup("B", 4))
        e, ident = table.exponent, table.identity_class
        against_identity, norms = _column_sums(table.values, ident, e)
        values = table.values.tolist()
        for k in range(table.n_classes):
            want_identity = [0] * len(values[0][0])
            want_norm = list(want_identity)
            for row in values:
                by_identity = _poly_product(row[k], row[ident], e)
                norm = _poly_product(row[k], _poly_conjugate(row[k], e), e)
                want_identity = [a + b for a, b in zip(want_identity, by_identity)]
                want_norm = [a + b for a, b in zip(want_norm, norm)]
            assert against_identity[k].tolist() == want_identity, k
            assert norms[k].tolist() == want_norm, k

    def test_bound_guard(self):
        with pytest.raises(DixonBoundExceeded):
            dixon_table(gq.enumerate_gsp4(3))

    def test_class_matrices(self, table_q2):
        """The class matrices a_{ij}^k = #{(x, y) in C_i x C_j : xy = z_k}
        against a count over every x in G, with y = x^{-1} z_k."""
        classes = table_q2.classes
        r = len(classes)
        class_of = {g.key(): k for k, cls in enumerate(classes) for g in cls.elements}
        want = [[[0] * r for _ in range(r)] for _ in range(r)]
        for x in table_q2.group.elements:
            x_inv = x.inverse()
            for k, cls in enumerate(classes):
                want[class_of[x.key()]][class_of[(x_inv * cls.rep).key()]][k] += 1
        labels, power_classes, kstar, mats = _class_products(table_q2.group, classes)
        assert list(mats) == want
        assert labels.tolist() == [class_of[g.key()] for g in table_q2.group.elements]
        assert (table_q2.labels == labels).all()
        # kstar is read off the power classes; hold it to GSpElem.inverse
        assert kstar == [class_of[c.rep.inverse().key()] for c in classes]
        assert kstar == [pows[-1] for pows in power_classes]

    def test_class_counts(self, table_q2):
        """class_counts against a per-element count through class_index and
        through the class member lists."""
        class_of = {g.key(): k for k, cls in enumerate(table_q2.classes)
                    for g in cls.elements}
        for name in ("U_S", "B", "M1", "R_klingen", "Row8", "Z_ray"):
            sub = gq.named_subgroup(name, 2)
            want = Counter(class_of[g.key()] for g in sub)
            assert Counter(table_q2.class_index(g) for g in sub) == want
            got = table_q2.class_counts(sub)
            assert got == [want[k] for k in range(table_q2.n_classes)], name

    def test_one_elimination_mod_ell(self):
        # the pivot loop behind the eigenvector descent, over F_7
        mod7 = FieldOps(lambda x: pow(x, 5, 7), lambda x: x % 7)
        rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        for v in kernel(rows, mod7):
            assert all(sum(a * b for a, b in zip(row, v)) % 7 == 0 for row in rows)
        assert len(kernel(rows, mod7)) == 1


class TestVerifySuite:
    def test_full_run(self):
        report = verify_char_lemmas(2)
        assert report.ok
        assert len(report.type_i) == 1
        # the second family degenerates at q=2: no cuspidal irreducible of
        # its degree exists; the carrier is a certified two-term virtual
        # character instead
        assert report.type_ii == []
        nonzero = sorted(c for c in report.virtual_type_ii if c != 0)
        assert nonzero == [-1, 1]

    def test_virtual_type_ii_is_chi10_minus_chi5(self, table_q2):
        # the one carrier the table search admits, class by class
        labels = [classify(cls.rep) for cls in table_q2.classes]
        levi = {name: gq.named_subgroup(name, 2) for name in ("M", "R_klingen")}
        values, coeffs = _virtual_type_ii(table_q2, labels, 2, levi)
        assert (table_q2.degrees[5], table_q2.degrees[10]) == (5, 10)
        assert coeffs == [0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1]
        assert values == [
            table_q2.value(10, k).as_int() - table_q2.value(5, k).as_int()
            for k in range(table_q2.n_classes)
        ]
        assert all(isinstance(v, Fraction) for v in values)

    def test_rejects_other_q(self):
        with pytest.raises(DixonBoundExceeded):
            verify_char_lemmas(3)

    def test_failed_checks_are_recorded(self, monkeypatch):
        """Two wrong closed values give a report, not an exception: ok is
        False and failures() lists the checks of both, each once per route."""
        monkeypatch.setitem(chartab._NAME_DIMS, "S", (lambda q: 7, lambda q: q - 1))
        monkeypatch.setitem(chartab._NAME_DIMS, "A", (lambda q: q - 1, lambda q: 9))
        report = verify_char_lemmas(2)
        assert not report.ok
        assert report.failures() == report.checks.failures()
        assert [c.name for c in report.failures()] == [
            f"dim typeI^S (oracle, char {report.type_i[0]})",
            "dim typeI^S (pinned classes)",
            "dim typeII^A (virtual)",
            "dim typeII^A (pinned classes)",
        ]
        assert {(c.expected, c.actual) for c in report.failures()} == {(7, 1), (9, 1)}
