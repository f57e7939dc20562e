"""Finite-field arithmetic: frozen small cases and algebraic laws."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klingen import ffield as ff
from klingen.errors import DivisionByZero, FieldTooLarge, MixedFields, NotPrime

SMALL_QS = [2, 3, 4, 5, 7, 8, 9]


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
        squares = [x for x in ff.enumerate_field(F9) if ff.is_square(x)]
        assert len(squares) == 5
        assert ff.is_square(F9(-1))

    def test_f3_nonsquare(self):
        F3 = ff.field_make(3)
        assert not ff.is_square(F3(2))

    def test_char2_everything_square(self):
        """In characteristic 2 the Frobenius is onto: every element is a square."""
        for q in (2, 4, 8):
            spec = ff.field_for_q(q)
            assert all(ff.is_square(x) for x in ff.enumerate_field(spec))


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
            squares = [x for x in ff.enumerate_field(spec) if ff.is_square(x)]
            assert len(squares) == (q + 1) // 2

    def test_is_square_matches_exhaustive(self):
        """is_square agrees with brute-force 'exists y: y*y = a'."""
        for q in SMALL_QS:
            spec = ff.field_for_q(q)
            all_elems = ff.enumerate_field(spec)
            for a in all_elems:
                brute = any(y * y == a for y in all_elems)
                assert ff.is_square(a) == brute


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

    def test_prime_power(self):
        assert ff.prime_power(9) == (3, 2)
        assert ff.prime_power(1024) == (2, 10)
        assert ff.prime_power(10**9 + 7) == (10**9 + 7, 1)  # trial division to sqrt(q)
        for q in (0, 1, 6, 12, 100, 2 * (10**9 + 7)):
            with pytest.raises(NotPrime):
                ff.prime_power(q)
