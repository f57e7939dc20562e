"""Finite-field arithmetic: frozen small cases and algebraic laws."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klingen import ffield as ff
from klingen.errors import DivisionByZero, FieldTooLarge, MixedFields, NotPrime

SMALL_QS = [2, 3, 4, 5, 7, 8, 9]


def _is_square(a) -> bool:
    """The square flag ``tables`` keeps for a's encoding."""
    return ff.tables(a.spec).square[a.encoding()]


@st.composite
def field_and_elements(draw, count=2):
    q = draw(st.sampled_from(SMALL_QS))
    spec = ff.field_for_q(q)
    ks = [draw(st.integers(min_value=0, max_value=q - 1)) for _ in range(count)]
    return spec, [spec.from_encoding(k) for k in ks]


class TestConstruction:
    def test_deterministic_moduli(self):
        """The least-encoding modulus: x^2+x+1 for F4, x^3+x+1 for F8, x^2+1 for F9."""
        assert ff.field_make(2, 2).modulus == (1, 1, 1)
        assert ff.field_make(2, 3).modulus == (1, 1, 0, 1)
        assert ff.field_make(3, 2).modulus == (1, 0, 1)

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            ff.field_make(6)
        with pytest.raises(NotPrime):
            ff.field_for_q(12)

    def test_too_large(self):
        with pytest.raises(FieldTooLarge):
            ff.field_make(2, 10)
        ff.field_make(2, 9)  # 512 is exactly the bound

    def test_enumeration_order(self):
        """enumerate_field starts 0, 1 and lists q distinct elements."""
        for q in SMALL_QS:
            spec = ff.field_for_q(q)
            elems = ff.enumerate_field(spec)
            assert len(set(elems)) == q
            assert elems[0].is_zero() and elems[1].is_one()


class TestFrozenValues:
    def test_f4_generator_square(self):
        """In F4 = F2[x]/(x^2+x+1): alpha * alpha = alpha + 1."""
        F4 = ff.field_make(2, 2)
        alpha = F4.from_encoding(2)
        assert alpha * alpha == alpha + 1

    def test_f3_inverse(self):
        """In F3: 2^{-1} = 2."""
        F3 = ff.field_make(3)
        assert F3(2).inverse() == F3(2)

    def test_f9_squares(self):
        """F9 has (9+1)/2 = 5 squares including -1 (since 9 = 1 mod 4)."""
        F9 = ff.field_make(3, 2)
        squares = [x for x in ff.enumerate_field(F9) if _is_square(x)]
        assert len(squares) == 5
        assert _is_square(F9(-1))

    def test_f3_nonsquare(self):
        F3 = ff.field_make(3)
        assert not _is_square(F3(2))

    def test_char2_everything_square(self):
        """In characteristic 2 the Frobenius is onto: every element is a square."""
        for q in (2, 4, 8):
            spec = ff.field_for_q(q)
            assert all(_is_square(x) for x in ff.enumerate_field(spec))


class TestErrors:
    def test_mixed_fields(self):
        a = ff.field_make(2, 2).one
        b = ff.field_make(2).one
        with pytest.raises(MixedFields):
            _ = a + b

    def test_division_by_zero(self):
        F5 = ff.field_make(5)
        with pytest.raises(DivisionByZero):
            F5.zero.inverse()
        with pytest.raises(DivisionByZero):
            _ = F5.one / F5.zero


class TestFieldAxioms:
    """Algebraic laws, checked on random elements of random small fields."""

    @given(field_and_elements(count=3))
    @settings(max_examples=200, deadline=None)
    def test_ring_laws(self, data):
        """Commutativity, associativity, distributivity."""
        _, (a, b, c) = data
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(field_and_elements(count=1))
    @settings(max_examples=200, deadline=None)
    def test_inverse_law(self, data):
        """a * a^{-1} = 1 and a / a = 1 for a != 0."""
        spec, (a,) = data
        if not a.is_zero():
            assert a * a.inverse() == spec.one
            assert a / a == spec.one

    @given(field_and_elements(count=1))
    @settings(max_examples=200, deadline=None)
    def test_frobenius_fixes_field(self, data):
        """a^q = a for every element (Lagrange / Frobenius)."""
        spec, (a,) = data
        assert a ** spec.q == a

    @given(field_and_elements(count=1))
    @settings(max_examples=200, deadline=None)
    def test_unit_order(self, data):
        """a^{q-1} = 1 for every nonzero element."""
        spec, (a,) = data
        if not a.is_zero():
            assert a ** (spec.q - 1) == spec.one

    def test_square_counts(self):
        """Exactly (q+1)/2 squares for odd q (0 plus half the units)."""
        for q in (3, 5, 7, 9):
            spec = ff.field_for_q(q)
            squares = [x for x in ff.enumerate_field(spec) if _is_square(x)]
            assert len(squares) == (q + 1) // 2

    def test_is_square_matches_exhaustive(self):
        """The square table agrees with brute-force 'exists y: y*y = a'."""
        for q in SMALL_QS:
            spec = ff.field_for_q(q)
            all_elems = ff.enumerate_field(spec)
            for a in all_elems:
                brute = any(y * y == a for y in all_elems)
                assert _is_square(a) == brute


class TestTables:
    def test_tables_match_element_arithmetic(self):
        """The encoding tables agree with FqElem arithmetic on every pair."""
        for q in SMALL_QS:
            spec = ff.field_for_q(q)
            t = ff.tables(spec)
            elems = ff.enumerate_field(spec)
            assert t.q == q
            for a in elems:
                i = a.encoding()
                assert t.neg[i] == (-a).encoding()
                assert t.inv[i] == (a.inverse().encoding() if i else 0)
                assert t.square[i] == any(y * y == a for y in elems)
                for b in elems:
                    j = b.encoding()
                    assert t.add[i][j] == (a + b).encoding()
                    assert t.mul[i][j] == (a * b).encoding()

    def test_primitive_unit_is_least_generator(self):
        """The least-encoding unit of multiplicative order q - 1, by counting
        powers of every unit up to it."""
        for q in SMALL_QS + [256, 509]:
            spec = ff.field_for_q(q)
            c = ff.primitive_unit(spec)
            for x in ff.units(spec):
                order, y = 1, x
                while not y.is_one():
                    y, order = y * x, order + 1
                if x == c:
                    assert order == q - 1
                    break
                assert order < q - 1

    def test_prime_power(self):
        assert ff.prime_power(9) == (3, 2)
        assert ff.prime_power(1024) == (2, 10)
        assert ff.prime_power(10**9 + 7) == (10**9 + 7, 1)  # trial division to sqrt(q)
        for q in (0, 1, 6, 12, 100, 2 * (10**9 + 7)):
            with pytest.raises(NotPrime):
                ff.prime_power(q)


# array sizes on both sides of the size where residue leaves ``%``
RESIDUE_SIZES = [1, ff.RESIDUE_FLOOR_ENTRIES - 1, ff.RESIDUE_FLOOR_ENTRIES,
                 4 * ff.RESIDUE_FLOOR_ENTRIES + 3]


class TestResidue:
    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    @pytest.mark.parametrize("m", [2, 3, 89, 509])
    @pytest.mark.parametrize("size", RESIDUE_SIZES)
    def test_arrays_match_percent(self, dtype, m, size):
        """Negative entries and both ends of the dtype included."""
        info = np.iinfo(dtype)
        rng = np.random.default_rng(size * m)
        x = rng.integers(info.min, info.max, size, dtype=dtype, endpoint=True)
        x[:2] = (info.min, info.max)[:size]
        before = x.copy()
        got = ff.residue(x, m)
        assert got.dtype == x.dtype and got.shape == x.shape
        assert np.array_equal(got, x % m)
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("m", [2, 3, 89, 509])
    def test_int16_plane_bound(self, m):
        """Every int16 value, as one (2, N) array: ``groupfq._rows`` keeps a
        digit plane int16 while its entries stay below 2^15."""
        x = np.arange(-(2**15), 2**15, dtype=np.int16).reshape(2, -1)
        got = ff.residue(x, m)
        assert got.dtype == np.int16 and got.shape == x.shape
        assert np.array_equal(got, x % m)

    def test_python_ints(self):
        for m in (1, 2, 3, 89, 509):
            for x in (0, 1, -1, m - 1, -m, 2**15 - 1, -(2**15), 3**50, -(3**50) - 7):
                got = ff.residue(x, m)
                assert type(got) is int and got == x % m

    @pytest.mark.parametrize("q", [4, 8, 9, 25])
    @pytest.mark.parametrize("size", RESIDUE_SIZES)
    def test_digit_splits(self, q, size):
        """base_p_digits of an array gives every entry's digits, as on ints."""
        p, f = ff.prime_power(q)
        x = np.random.default_rng(q * size).integers(0, q, size).astype(np.int16)
        digits = ff.base_p_digits(x, p, f)
        assert len(digits) == f and all(d.dtype == np.int16 for d in digits)
        assert np.array_equal(np.stack(digits, axis=1),
                              [ff.base_p_digits(k, p, f) for k in x.tolist()])


PIVOT_QS = [2, 3, 4, 5, 8, 9]


@st.composite
def encoded_matrix(draw, qs=PIVOT_QS):
    """(spec, rows of encodings): zeros are drawn often and one row may be a
    combination of two others, so that ranks below full come up."""
    spec = ff.field_for_q(draw(st.sampled_from(qs)))
    q = spec.q
    n_rows = draw(st.integers(min_value=1, max_value=5))
    n_cols = draw(st.integers(min_value=1, max_value=6))
    entry = st.one_of(st.just(0), st.integers(min_value=0, max_value=q - 1))
    rows = [[draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows >= 2 and draw(st.booleans()):
        a, b = (draw(st.integers(min_value=0, max_value=q - 1)) for _ in range(2))
        x, y = rows[0], rows[1]
        rows.append([(a * spec.from_encoding(u) + b * spec.from_encoding(v)).encoding()
                     for u, v in zip(x, y)])
    return spec, rows


def _reference_rref(rows, spec):
    """Gauss-Jordan on FqElem values: (reduced nonzero rows, pivots)."""
    a = [[spec.from_encoding(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(a[0])):
        top = len(pivots)
        piv = next((r for r in range(top, len(a)) if a[r][c]), None)
        if piv is None:
            continue
        a[top], a[piv] = a[piv], a[top]
        lead = a[top][c]
        a[top] = [x / lead for x in a[top]]
        for r in range(len(a)):
            f = a[r][c]
            if r != top and f:
                a[r] = [x - f * y for x, y in zip(a[r], a[top])]
        pivots.append(c)
    return [[x.encoding() for x in row] for row in a[:len(pivots)]], pivots


class TestRowReduce:
    @given(encoded_matrix())
    @settings(max_examples=300, deadline=None)
    def test_matches_fqelem_reference(self, case):
        spec, rows = case
        assert ff.row_reduce(rows, ff.tables(spec)) == _reference_rref(rows, spec)

    @given(encoded_matrix())
    @settings(max_examples=300, deadline=None)
    def test_kernel_annihilates_and_has_full_dimension(self, case):
        spec, rows = case
        t = ff.tables(spec)
        basis = ff.kernel(rows, t)
        n_cols = len(rows[0])
        pivots = ff.row_reduce(rows, t)[1]
        assert len(basis) == n_cols - len(pivots)
        zero = spec.zero
        for v in basis:
            for row in rows:
                dot = sum((spec.from_encoding(a) * spec.from_encoding(b)
                           for a, b in zip(row, v)), zero)
                assert dot.is_zero()
        # independent: each vector is 1 at its own free column, 0 at the others
        free = [c for c in range(n_cols) if c not in pivots]
        assert [[v[c] for c in free] for v in basis] == [
            [1 if a == b else 0 for b in free] for a in free]

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_echelon_over_a_prime_power_ring(self, data):
        """Over Z/p^m each pivot is p^v for the least valuation v left in
        its block: it divides its whole row, the entries below it are 0,
        and the rows after it have no entry of smaller valuation."""
        p = data.draw(st.sampled_from([2, 3, 5]), label="p")
        m = data.draw(st.integers(1, 4), label="m")
        width = data.draw(st.integers(1, 5), label="columns")
        rows = data.draw(st.lists(st.lists(st.integers(0, p**m - 1), min_size=width,
                                           max_size=width), min_size=1, max_size=5), label="rows")
        mod = p**m

        def valuation(a):
            return next(v for v in range(m) if a % p**(v + 1))

        ring = ff.FieldOps(lambda a: pow(a // p**valuation(a), -1, mod), lambda a: a % mod,
                           valuation)
        echelon, pivots = ff.row_reduce(rows, ring)
        assert len(echelon) == len(pivots) <= min(len(rows), width)
        for i, (row, c) in enumerate(zip(echelon, pivots)):
            v = valuation(row[c])
            assert row[c] == p**v
            assert all(x % p**v == 0 for x in row)
            assert all(later[c] == 0 for later in echelon[i + 1:])
            assert all(x % p**v == 0 for later in echelon[i + 1:] for x in later)
        # the row operations stay invertible mod p, where the rows of pivot
        # p^v, v > 0, vanish: the rank mod p counts the unit pivots
        field = ff.FieldOps(lambda x: pow(x, p - 2, p), lambda x: x % p)
        assert (len(ff.row_reduce([[x % p for x in r] for r in rows], field)[1])
                == sum(valuation(row[c]) == 0 for row, c in zip(echelon, pivots)))

    @given(encoded_matrix(qs=[2, 3, 5, 7]))
    @settings(max_examples=300, deadline=None)
    def test_field_scan_matches_the_ring_path_at_m_1(self, case):
        """Over Z/p^1 every nonzero entry has valuation 0, so the ring path's
        least-valuation search takes the first nonzero column and row: it
        must give what the column scan over tables(p) gives."""
        spec, rows = case
        p = spec.p
        ring = ff.FieldOps(lambda x: pow(x, -1, p), lambda x: x % p, lambda x: 0)
        assert ff.row_reduce(rows, ff.tables(spec)) == ff.row_reduce(rows, ring)

    @given(encoded_matrix(qs=[2, 3, 5, 7]))
    @settings(max_examples=300, deadline=None)
    def test_tables_and_mod_prime_adapter_agree(self, case):
        spec, rows = case
        p = spec.p
        t, mod_p = ff.tables(spec), ff.FieldOps(lambda x: pow(x, p - 2, p), lambda x: x % p)
        assert ff.row_reduce(rows, t) == ff.row_reduce(rows, mod_p)
        assert ff.kernel(rows, t) == ff.kernel(rows, mod_p)
