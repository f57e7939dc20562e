"""Character-data layer: classification, pinned values, dimension routes."""

from __future__ import annotations

import cmath
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from klingen import ffield, groupfq as gq
from klingen.chartab import (
    FAMILY_NONGENERIC,
    FAMILY_TYPE_I,
    FAMILY_TYPE_II,
    SigmaFamily,
    char_poly,
    char_value,
    classify,
    dim_fixed,
    dim_fixed_family,
    family_from_name,
    rational_roots,
)
from klingen.dixon import (
    Cyclotomic,
    _class_products,
    _solve_unique,
    cyclotomic_polynomial,
    dixon_table,
)
from klingen.errors import (
    DixonBoundExceeded,
    NotScopedClass,
    ValueNotPinned,
)
from klingen.ffield import FieldOps, field_for_q, kernel
from klingen.verify_lemmas import verify_char_lemmas

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


class TestCharPoly:
    def test_diagonal(self):
        """char poly of a diagonal similitude is the product of (t - d_i)."""
        spec = field_for_q(5)
        m = gq.Mat4.diag(spec, 2, 3, 4, 1)  # mu = 2*1 = 3*4 = 2
        cp = char_poly(m)
        roots = rational_roots(cp)
        assert roots == Counter({spec(2): 1, spec(3): 1, spec(4): 1, spec(1): 1})

    def test_constant_term_is_determinant(self):
        """c0 = det = mu^2 for similitude matrices."""
        for q in (2, 3, 4):
            for g in gq.named_subgroup("M1", q).elements:
                cp = char_poly(g.mat)
                assert cp[0] == g.mu * g.mu

    def test_unipotent(self):
        g = _elem(3, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]])
        spec = field_for_q(3)
        assert rational_roots(char_poly(g.mat)) == Counter({spec.one: 4})

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    def test_conjugation_invariance(self, a, b):
        pool = gq.named_subgroup("R_klingen", 3).elements
        conj = gq.named_subgroup("Row8", 3).elements
        g = pool[a % len(pool)]
        h = conj[b % len(conj)]
        assert char_poly((h * g * h.inverse()).mat) == char_poly(g.mat)


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
        label = next(
            lab
            for lab in (classify(g) for g in group.elements)
            if lab.kind == "NotScoped"
        )
        with pytest.raises(NotScopedClass):
            char_value(TYPE_I, label, 2)

    def test_aggregate_only_raises(self):
        rows = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
        label = classify(_elem(2, rows))
        assert label.kind == "C3"
        with pytest.raises(ValueNotPinned):
            char_value(TYPE_II, label, 2)

    def test_identity_value_is_degree(self):
        for q in (2, 3, 4, 5):
            ident = gq.gsp_elem(gq.Mat4.identity(field_for_q(q)))
            label = classify(ident)
            for fam in (TYPE_I, TYPE_II):
                assert char_value(fam, label, q) == fam.degree(q)


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
        got = Cyclotomic(n, a) * Cyclotomic(n, b)
        assert got.coeffs == tuple(_reduce_mod(conv, cyclotomic_polynomial(n)))
        assert all(type(c) is int for c in got.coeffs)

    @settings(max_examples=60, deadline=None)
    @given(cyclotomic_pairs())
    def test_conjugate_is_complex_conjugation_and_an_involution(self, pair):
        n, a, _ = pair
        x = Cyclotomic(n, a)
        bar = x.conjugate()
        assert _close(_evaluate(bar), _evaluate(x).conjugate(), x)
        assert bar.conjugate() == x

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(CYCLOTOMIC_ORDERS), st.integers(-1000, 1000))
    def test_root_power(self, n, k):
        x = Cyclotomic.root_power(n, k)
        assert _close(_evaluate(x), cmath.exp(2j * cmath.pi * k / n), x)

    @pytest.mark.parametrize("n", CYCLOTOMIC_ORDERS)
    def test_non_int_coefficients_refused(self, n):
        d = len(cyclotomic_polynomial(n)) - 1
        with pytest.raises(TypeError, match="must be ints"):
            Cyclotomic(n, (Fraction(1, 2),) + (0,) * (d - 1))
        with pytest.raises(TypeError, match="must be ints"):
            Cyclotomic(n, (0,) * (d - 1) + (1.0,))
        with pytest.raises(TypeError):
            Cyclotomic.root_power(n, 1) * Fraction(1, 2)
        with pytest.raises(ValueError):
            Cyclotomic(n, (0,) * (d + 1))


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
        labels, kstar, mats = _class_products(table_q2.group, classes)
        assert mats == want
        assert labels.tolist() == [class_of[g.key()] for g in table_q2.group.elements]
        assert (table_q2.labels == labels).all()
        assert kstar == [class_of[c.rep.inverse().key()] for c in classes]

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

    def test_one_elimination_mod_ell_and_over_q(self):
        # the pivot loop behind the eigenvector descent and the elliptic
        # solve, over F_7 and over Q
        mod7 = FieldOps(lambda x: pow(x, 5, 7), lambda x: x % 7)
        rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        for v in kernel(rows, mod7):
            assert all(sum(a * b for a, b in zip(row, v)) % 7 == 0 for row in rows)
        assert len(kernel(rows, mod7)) == 1
        system = [[Fraction(2), Fraction(1), Fraction(5)], [Fraction(1), Fraction(-1), Fraction(1)]]
        assert _solve_unique(system) == [2, 1]
        with pytest.raises(ArithmeticError, match="underdetermined"):
            _solve_unique([[Fraction(1), Fraction(1), Fraction(2)]])
        with pytest.raises(ArithmeticError, match="inconsistent"):
            _solve_unique(system + [[Fraction(1), Fraction(0), Fraction(0)]])


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

    def test_rejects_other_q(self):
        with pytest.raises(DixonBoundExceeded):
            verify_char_lemmas(3)
