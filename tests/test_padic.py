"""Truncated p-adic arithmetic, representative matrices, conjugate-and-reduce,
and the sampled R_g oracle."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klingen.cosets import Diagonal, Skew, X, Y, Z
from klingen.errors import (
    NonConvergence,
    PrecisionExhausted,
    PrecisionInsufficient,
    PrecisionTooLow,
)
from klingen.ffield import field_for_q
from klingen.groupfq import Mat4, gsp_elem, named_subgroup
from klingen.padic import (
    KlingenSampler,
    PadicMat,
    TruncAdic,
    _reduce_fast,
    _ResMat,
    _torus_exponents,
    build_rep,
    build_rep_inverse,
    conjugate_reduce,
    estimate_Rg,
    padic_inverse,
    ring_for_q,
    trunc_arith,
)

Z2 = ring_for_q(2)
Z3 = ring_for_q(3)
W4 = ring_for_q(4)  # ramification-free quadratic extension residues


def s_mat(ring, ex, ey, ez, prec):
    """The lower unipotent S(x, y, z) with TruncAdic entries."""
    one = TruncAdic.exact(ring, 0, 1, prec)
    zero = TruncAdic.zero(ring, prec)
    return PadicMat.from_rows(
        ring,
        [
            [one, zero, zero, zero],
            [ex, one, zero, zero],
            [ey, zero, one, zero],
            [ez, ey, -ex, one],
        ],
        prec,
    )


def t_mat(ring, i, j, prec):
    """The torus representative diag(p^{2i+j}, p^{i+j}, p^i, 1)."""
    one = TruncAdic.exact(ring, 0, 1, prec)
    zero = TruncAdic.zero(ring, prec)
    return PadicMat.from_rows(
        ring,
        [
            [TruncAdic.exact(ring, 2 * i + j, 1, prec), zero, zero, zero],
            [zero, TruncAdic.exact(ring, i + j, 1, prec), zero, zero],
            [zero, zero, TruncAdic.exact(ring, i, 1, prec), zero],
            [zero, zero, zero, one],
        ],
        prec,
    )


def entries_agree(a: TruncAdic, b: TruncAdic) -> bool:
    """Equality of two truncated elements up to the shared precision."""
    cap = min(a.abs_prec, b.abs_prec)
    diff = a - b
    return diff.val is None or diff.val >= cap


def mats_agree(m1: PadicMat, m2: PadicMat) -> bool:
    return all(
        entries_agree(m1.entry(r, c), m2.entry(r, c))
        for r in range(4)
        for c in range(4)
    )


class TestTruncAdic:
    def test_mul_adds_valuations(self):
        a = TruncAdic.exact(Z2, 2, 3, prec=6)
        b = TruncAdic.exact(Z2, -3, 5, prec=6)
        c = trunc_arith(a, b, "mul")
        assert c.val == -1
        assert c.unit == 15

    def test_add_cancels_to_zero_flag(self):
        x = TruncAdic.exact(Z2, 1, 7, prec=5)
        s = trunc_arith(x, -x, "add")
        assert s.is_zero_flag
        assert s.prec == x.abs_prec  # all we know: val >= 6

    def test_add_loses_one_digit_on_cancellation(self):
        # (1 + p) + (-1) at prec 4: leading digits cancel, one digit lost
        one_plus = TruncAdic.from_residue(Z2, (1 + 2) % 16, 4)
        minus_one = TruncAdic.from_residue(Z2, 15, 4)  # -1 mod 2^4
        s = one_plus + minus_one
        assert s.val == 1
        assert s.prec == 3

    def test_inverse(self):
        a = TruncAdic.exact(Z2, 0, 13, prec=6)
        inv = trunc_arith(a, None, "inv")
        assert (a * inv).residue_mod_p() == Z2.spec.one
        assert Z2.mul(a.unit, inv.unit, 6) == 1  # 13 * inv == 1 mod 64

    def test_inverse_of_zero_flag_exhausts_precision(self):
        with pytest.raises(PrecisionExhausted):
            TruncAdic.zero(Z2, 8).inverse()

    def test_bad_op_name(self):
        a = TruncAdic.exact(Z2, 0, 1, prec=2)
        with pytest.raises(ValueError):
            trunc_arith(a, a, "sub")

    def test_extension_field_unit_inverse(self):
        # F_4 residues: a generator times its inverse is 1
        a = TruncAdic.from_residue(W4, (2, 1), 5)
        assert (a * a.inverse()).residue_mod_p() == W4.spec.one

    def test_integrality_three_valued(self):
        assert TruncAdic.exact(Z2, 0, 1, prec=3).is_integral() is True
        assert TruncAdic.exact(Z2, -2, 1, prec=3).is_integral() is False
        assert TruncAdic.zero(Z2, 4).is_integral() is True
        assert TruncAdic(Z2, None, None, -1).is_integral() is None

    def test_residue_mod_p_guards(self):
        assert TruncAdic.exact(Z2, 1, 1, prec=3).residue_mod_p() == Z2.spec.zero
        with pytest.raises(ValueError):
            TruncAdic.exact(Z2, -1, 1, prec=3).residue_mod_p()
        with pytest.raises(PrecisionInsufficient):
            TruncAdic(Z2, None, None, 0).residue_mod_p()

    @given(
        a=st.integers(min_value=-200, max_value=200),
        b=st.integers(min_value=-200, max_value=200),
        p=st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_integer_arithmetic(self, a, b, p):
        # integer sums/products reduce to the same residues mod p^d
        ring = ring_for_q(p)
        d = 6
        ta = TruncAdic.from_residue(ring, a % p**d, d)
        tb = TruncAdic.from_residue(ring, b % p**d, d)
        for op, ref in (("add", a + b), ("mul", a * b)):
            out = trunc_arith(ta, tb, op)
            cap = out.abs_prec
            if out.val is None:
                assert ref % p**cap == 0
            else:
                lift = p**out.val * out.unit
                assert (ref - lift) % p**cap == 0

    @given(
        x=st.integers(min_value=1, max_value=10**6),
        p=st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=100, deadline=None)
    def test_unit_inverse_roundtrip(self, x, p):
        d = 7
        u = x if x % p else x + 1
        t = TruncAdic.from_residue(ring_for_q(p), u % p**d, d)
        prod = t * t.inverse()
        assert prod.val == 0
        assert ring_for_q(p).normalize(prod.unit, prod.prec) == 1


class TestBuildRep:
    def test_diagonal_rep_is_torus_matrix(self):
        g = build_rep(Diagonal(1, 0), 8)
        want = [2, 1, 1, 0]
        for r in range(4):
            for c in range(4):
                x = g.entry(r, c)
                if r == c:
                    assert x.val == want[r] and Z2.normalize(x.unit, 1) == 1
                else:
                    assert x.is_zero_flag

    def test_x_rep_lower_entry(self):
        # t(2,1) S(p,0,0): the (2,1) entry is p^{i+j} * p^k = p^4
        g = build_rep(X(2, 1, 1), 10)
        assert g.entry(1, 0).val == 4
        assert g.entry(2, 0).is_zero_flag
        e41, e42, e43 = g.entry(3, 0), g.entry(3, 1), g.entry(3, 2)
        assert e41.is_zero_flag and e42.is_zero_flag
        assert e43.val == 1  # -x = -p^1

    def test_skew_rep_entries(self):
        rep = Skew(1, 2, 3, 4, 1, 2)
        g = build_rep(rep, 14)
        # rows scale the S-entries by p^{i+j}, p^i, 1
        assert g.entry(1, 0).val == (rep.i + rep.j) + rep.k_x
        assert g.entry(2, 0).val == rep.i + rep.k_y
        assert g.entry(3, 0).val == rep.k_z
        assert g.entry(3, 1).val == rep.k_y  # y in the bottom row
        assert g.entry(3, 2).val == rep.k_x  # -x

    def test_precision_floor_enforced(self):
        with pytest.raises(PrecisionTooLow):
            build_rep(Diagonal(1, 0), 2)
        with pytest.raises(PrecisionTooLow):
            build_rep_inverse(Diagonal(1, 0), 2)

    def test_wrong_residue_characteristic_rejected(self):
        with pytest.raises(ValueError):
            build_rep(Skew(1, 2, 3, 4, 1, 3), 14, q=2)

    def test_inverse_really_inverts(self):
        for rep in (Diagonal(-2, 5), X(2, 1, 1), Y(1, 3, 3), Z(2, 1, 4)):
            g = build_rep(rep, 16)
            gi = build_rep_inverse(rep, 16)
            assert mats_agree(g * gi, PadicMat.identity(Z2, 16))
            assert mats_agree(gi * g, PadicMat.identity(Z2, 16))

    def test_adjugate_inverse_agrees(self):
        for rep in (Diagonal(0, 1), X(2, 1, 1), Skew(1, 2, 3, 4, 1, 2)):
            g = build_rep(rep, 16)
            assert mats_agree(padic_inverse(g), build_rep_inverse(rep, 16))

    def test_coset_constraint_identity(self):
        # t(i,j) S(x,y,z) = S(p^{-i} x, 0, 0) * t(i,j) * S(0, y, z + x y)
        for ring in (Z2, Z3):
            prec = 14
            i, j = 2, 1
            x = TruncAdic.exact(ring, 1, 1, prec)
            y = TruncAdic.exact(ring, 2, 1, prec)
            z = TruncAdic.exact(ring, 0, 1, prec)
            zero = TruncAdic.zero(ring, prec)
            t = t_mat(ring, i, j, prec)
            lhs = t * s_mat(ring, x, y, z, prec)
            shift = TruncAdic.exact(ring, -i, 1, prec)
            rhs = (
                s_mat(ring, shift * x, zero, zero, prec)
                * t
                * s_mat(ring, zero, y, z + x * y, prec)
            )
            assert mats_agree(lhs, rhs)


def _val_int(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


class TestConjugateReduce:
    def test_torus_conjugation_formula(self):
        # g = t(i,j), h = S(p^n c1, p^n c2, p^n c3): the conjugate is
        # S(p^{n-i} c1, p^{n-i-j} c2, p^{n-2i-j} c3) — checked entrywise,
        # including the dependent (4,2) and (4,3) positions.
        ring, n, i, j, prec = Z3, 4, 1, 2, 16
        c1, c2, c3 = 1, 2, 1
        h = s_mat(
            ring,
            TruncAdic.exact(ring, n, c1, prec),
            TruncAdic.exact(ring, n, c2, prec),
            TruncAdic.exact(ring, n, c3, prec),
            prec,
        )
        g = build_rep(Diagonal(i, j), prec, q=3)
        gi = build_rep_inverse(Diagonal(i, j), prec, q=3)
        conj = (g * h) * gi
        want = s_mat(
            ring,
            TruncAdic.exact(ring, n - i, c1, prec),
            TruncAdic.exact(ring, n - i - j, c2, prec),
            TruncAdic.exact(ring, n - 2 * i - j, c3, prec),
            prec,
        )
        assert mats_agree(conj, want)

    def test_conjugation_formula_with_x_part(self):
        # g = t(i,j) S(p^k, 0, 0): the (4,1) entry of the conjugate becomes
        # p^{n-2i-j} (c3 - 2 c2 p^k), odd residue characteristic
        ring, n, i, j, k, prec = Z3, 5, 1, 1, 1, 16
        c1, c2, c3 = 1, 1, 1
        rep = X(i, j, k)
        g = build_rep(rep, prec, q=3)
        gi = build_rep_inverse(rep, prec, q=3)
        h = s_mat(
            ring,
            TruncAdic.exact(ring, n, c1, prec),
            TruncAdic.exact(ring, n, c2, prec),
            TruncAdic.exact(ring, n, c3, prec),
            prec,
        )
        conj = (g * h) * gi
        e41 = conj.entry(3, 0)
        coeff = c3 - 2 * c2 * 3**k
        assert e41.val == n - 2 * i - j + _val_int(coeff, 3)
        rem = conj.entry(3, 0).prec
        assert (e41.unit - coeff // 3 ** _val_int(coeff, 3)) % 3 ** min(rem, 3) == 0

    def test_identity_conjugation_reduces_h(self):
        sampler = KlingenSampler(2, 2, 8, seed=5)
        ident = PadicMat.identity(Z2, 8)
        for _ in range(10):
            h = PadicMat.from_residues(sampler._sample_residues())
            got = conjugate_reduce(ident, h, 2)
            assert got is not None
            want = [[h.entry(r, c).residue_mod_p() for c in range(4)] for r in range(4)]
            assert got.mat == Mat4.from_rows(Z2.spec, want)

    def test_deep_rep_rejects_shallow_h(self):
        # g = t(1,1), n = 2: h = S(p^2, p^2, p^2) has conjugate (4,1) entry
        # of valuation n - 2i - j = -1, provably non-integral
        prec = 8
        g = build_rep(Diagonal(1, 1), prec)
        gi = build_rep_inverse(Diagonal(1, 1), prec)
        h = s_mat(
            Z2,
            TruncAdic.exact(Z2, 2, 1, prec),
            TruncAdic.exact(Z2, 2, 1, prec),
            TruncAdic.exact(Z2, 2, 1, prec),
            prec,
        )
        assert conjugate_reduce(g, h, 2, gi) is None

    def test_half_of_samples_absent_at_t11(self):
        # same g: over many sampled h both outcomes occur
        prec = 2 + 3 + 2
        g = build_rep(Diagonal(1, 1), prec)
        gi = build_rep_inverse(Diagonal(1, 1), prec)
        sampler = KlingenSampler(2, 2, prec, seed=3)
        seen = {True: 0, False: 0}
        for _ in range(200):
            h = PadicMat.from_residues(sampler._sample_residues())
            seen[conjugate_reduce(g, h, 2, gi) is not None] += 1
        assert seen[True] > 0 and seen[False] > 0

    def test_rejects_h_outside_level(self):
        g = build_rep(Diagonal(0, 1), 8)
        h = s_mat(
            Z2,
            TruncAdic.exact(Z2, 1, 1, 8),  # val 1 < n = 2
            TruncAdic.zero(Z2, 8),
            TruncAdic.zero(Z2, 8),
            8,
        )
        with pytest.raises(ValueError):
            conjugate_reduce(g, h, 2)

    def test_multiplicative_where_defined(self):
        # conj(g, h1 h2) == conj(g, h1) * conj(g, h2) whenever all defined
        rep, n = Diagonal(0, 1), 2
        m = n + 2 + 2
        g = build_rep(rep, m)
        gi = build_rep_inverse(rep, m)
        sampler = KlingenSampler(2, n, m, seed=9)
        checked = 0
        for _ in range(250):
            h1 = sampler._sample_residues()
            h2 = sampler._sample_residues()
            r1 = conjugate_reduce(g, PadicMat.from_residues(h1), n, gi)
            r2 = conjugate_reduce(g, PadicMat.from_residues(h2), n, gi)
            r12 = conjugate_reduce(g, PadicMat.from_residues(h1.mul(h2)), n, gi)
            if r1 is None or r2 is None or r12 is None:
                continue
            checked += 1
            assert r12.mat == r1.mat * r2.mat
        assert checked > 5

    def test_fast_reduction_matches_reference(self):
        # the residue-level reduction and the TruncAdic path agree sample
        # by sample, including the absent verdicts
        for rep, n in (
            (Diagonal(-2, 5), 4),
            (Diagonal(1, 1), 4),
            (X(2, 1, 1), 5),
            (Y(1, 3, 3), 6),
            (Z(2, 1, 4), 6),
        ):
            exps = _torus_exponents(rep)
            m = n + (max(exps) - min(exps)) + 2
            g = build_rep(rep, m)
            gi = build_rep_inverse(rep, m)
            svals = _svals_as_ints(rep)
            s_res = _ResMat.from_rows(
                Z2,
                m,
                [
                    [1, 0, 0, 0],
                    [svals[0], 1, 0, 0],
                    [svals[1], 0, 1, 0],
                    [svals[2], svals[1], -svals[0], 1],
                ],
            )
            sinv_res = _ResMat.from_rows(
                Z2,
                m,
                [
                    [1, 0, 0, 0],
                    [-svals[0], 1, 0, 0],
                    [-svals[1], 0, 1, 0],
                    [-svals[2], -svals[1], svals[0], 1],
                ],
            )
            sampler = KlingenSampler(2, n, m, seed=17)
            for _ in range(40):
                h = sampler._sample_residues()
                fast = _reduce_fast(Z2, exps, s_res, sinv_res, h, m)
                ref = conjugate_reduce(g, PadicMat.from_residues(h), n, gi)
                if ref is None:
                    assert fast is None
                else:
                    assert fast is not None and ref.mat == fast


def _svals_as_ints(rep, p=2):
    from klingen.padic import _svals

    out = []
    for pair in _svals(rep)[2:]:
        if pair is None:
            out.append(0)
        else:
            v, u = pair
            out.append(u * p**v)
    return out


class TestSampler:
    def test_samples_live_in_level_subgroup(self):
        n, m = 3, 9
        sampler = KlingenSampler(2, n, m, seed=1)
        level = ((1, 0), (2, 0), (3, 0), (3, 1), (3, 2))
        for _ in range(50):
            h = sampler._sample_residues()
            for r, c in level:
                v = Z2.val(h.e[4 * r + c], m)
                assert v is None or v >= n

    def test_samples_have_unit_similitude(self):
        # transpose(h) J h == mu J with mu a unit, J the split antidiagonal
        n, m = 2, 8
        for q in (2, 3):
            ring = ring_for_q(q)
            sampler = KlingenSampler(q, n, m, seed=4)
            jrows = [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]
            jm = _ResMat.from_rows(ring, m, jrows)
            for _ in range(25):
                h = sampler._sample_residues()
                ht = _ResMat.from_rows(
                    ring, m, [[h.e[4 * c + r] for c in range(4)] for r in range(4)]
                )
                prod = ht.mul(jm).mul(h)
                mu = prod.e[3]  # (1,4) position
                assert ring.is_unit(mu)
                for r in range(4):
                    for c in range(4):
                        want = jm.e[4 * r + c]
                        got = prod.e[4 * r + c]
                        assert got == ring.mul(
                            ring.from_int(want, m) if isinstance(want, int) else want,
                            mu,
                            m,
                        )

    def test_seed_determinism(self):
        a = KlingenSampler(2, 2, 8, seed=21)
        b = KlingenSampler(2, 2, 8, seed=21)
        c = KlingenSampler(2, 2, 8, seed=22)
        seq_a = [a._sample_residues().e for _ in range(6)]
        seq_b = [b._sample_residues().e for _ in range(6)]
        seq_c = [c._sample_residues().e for _ in range(6)]
        assert seq_a == seq_b
        assert seq_a != seq_c

    def test_layered_draws_still_in_level_subgroup(self):
        n, m = 4, 12
        sampler = KlingenSampler(2, n, m, seed=2, depths=[1, 3, 5])
        level = ((1, 0), (2, 0), (3, 0), (3, 1), (3, 2))
        for _ in range(50):
            h = sampler._sample_residues()
            for r, c in level:
                v = Z2.val(h.e[4 * r + c], m)
                assert v is None or v >= n

    def test_precision_floor(self):
        with pytest.raises(PrecisionTooLow):
            KlingenSampler(2, 3, 4, seed=0)
        with pytest.raises(ValueError):
            KlingenSampler(2, 0, 8, seed=0)


class TestEstimateRg:
    def test_row4_pattern(self):
        est = estimate_Rg(Diagonal(1, 1), 4, 2, budget=500, seed=11)
        pred = named_subgroup("Row4", 2)
        assert est.is_subset_of(pred)
        assert est.order == pred.order

    def test_row1_pattern(self):
        est = estimate_Rg(Diagonal(0, 1), 2, 2, budget=500, seed=11)
        pred = named_subgroup("Row1", 2)
        assert est.is_subset_of(pred)
        assert est.order == pred.order

    def test_row6_pattern(self):
        est = estimate_Rg(X(2, 1, 1), 5, 2, budget=500, seed=11)
        pred = named_subgroup("Row6", 2)
        assert est.is_subset_of(pred)
        assert est.order == pred.order

    def test_deep_row1_rep_attains_prediction(self):
        # the free directions here sit at valuation depth j = 7; layered
        # sampling is what makes this reachable within the budget
        est = estimate_Rg(Diagonal(-3, 7), 5, 2, budget=500, seed=11)
        pred = named_subgroup("Row1", 2)
        assert est.is_subset_of(pred)
        assert est.order == pred.order

    def test_skew_rep_attains_prediction(self):
        est = estimate_Rg(Skew(4, 3, 5, 7, 1, 2), 9, 2, budget=500, seed=11)
        pred = named_subgroup("Row8", 2)
        assert est.is_subset_of(pred)
        assert est.order == pred.order

    def test_seed_determinism(self):
        a = estimate_Rg(Diagonal(-2, 5), 5, 2, budget=500, seed=11)
        b = estimate_Rg(Diagonal(-2, 5), 5, 2, budget=500, seed=11)
        assert a.same_elements(b)

    def test_budget_too_small_never_stabilizes(self):
        # stability needs three consecutive quiet batches; budget 2 cannot
        with pytest.raises(NonConvergence):
            estimate_Rg(Diagonal(0, 1), 2, 2, budget=2, seed=0)
        with pytest.raises(ValueError):
            estimate_Rg(Diagonal(0, 1), 2, 2, budget=0, seed=0)

    def test_odd_characteristic_containment(self):
        est = estimate_Rg(Diagonal(1, 1), 4, 3, budget=400, seed=11)
        pred = named_subgroup("Row4", 3)
        assert est.is_subset_of(pred)
        assert est.order == pred.order


# ---------------------------------------------------------------------------
# plain-int residue arithmetic against RingO's scalar methods
# ---------------------------------------------------------------------------

def _ring_product(ring, a, b):
    """Entrywise RingO.mul / RingO.add composition of a 4x4 product."""
    d = a.d
    out = []
    for r in range(0, 16, 4):
        for c in range(4):
            acc = ring.mul(a.e[r], b.e[c], d)
            for k in range(1, 4):
                acc = ring.add(acc, ring.mul(a.e[r + k], b.e[c + 4 * k], d), d)
            out.append(acc)
    return out


class TestIntResidues:
    @settings(max_examples=120, deadline=None)
    @given(q=st.sampled_from([2, 3, 5, 4, 8, 9]), d=st.integers(1, 10),
           seed=st.integers(0, 2**32 - 1))
    def test_resmat_mul_matches_ring(self, q, d, seed):
        ring = ring_for_q(q)
        rng = random.Random(seed)
        # mix in zeros, units and pure powers of p so cancellations occur
        pool = [ring.from_int(0, d), ring.from_int(ring.p**(d - 1), d)]
        def entry():
            return pool[rng.randrange(2)] if rng.random() < 0.2 else ring.random(rng, d)
        a = _ResMat(ring, d, [entry() for _ in range(16)])
        b = _ResMat(ring, d, [entry() for _ in range(16)])
        assert a.mul(b).e == _ring_product(ring, a, b)

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("depths", [None, (1, 3, 5), (0, 2), (40,)])
    def test_int_sampler_is_stream_identical(self, q, depths):
        # the f = 1 int path against the RingO path on the same seed
        fast = KlingenSampler(q, 3, 9, seed=q + 7, depths=depths)
        ring_path = KlingenSampler(q, 3, 9, seed=q + 7, depths=depths)
        for _ in range(60):
            assert fast._sample_residues().e == ring_path._sample_via_ring().e
        assert fast._rng.random() == ring_path._rng.random()

    @pytest.mark.parametrize("q,rep,n", [
        (3, Diagonal(1, 1), 4), (3, X(2, 1, 1), 5),
        (4, Diagonal(-2, 5), 3), (4, Z(1, 2, 3), 4), (9, Diagonal(1, 1), 3),
        (8, X(1, 1, 1), 3),
    ])
    def test_reduce_fast_matches_ring_reduction(self, q, rep, n):
        ring = ring_for_q(q)
        spec = ring.spec
        exps = _torus_exponents(rep)
        m = n + (max(exps) - min(exps)) + 2
        x, y, z = _svals_as_ints(rep, ring.p)
        s_res = _ResMat.from_rows(ring, m, [[1, 0, 0, 0], [x, 1, 0, 0],
                                            [y, 0, 1, 0], [z, y, -x, 1]])
        sinv_res = _ResMat.from_rows(ring, m, [[1, 0, 0, 0], [-x, 1, 0, 0],
                                               [-y, 0, 1, 0], [-z, -y, x, 1]])
        depths = sorted({a - b for a in exps for b in exps if a > b})
        sampler = KlingenSampler(q, n, m, seed=5, depths=depths)
        integral = 0
        for _ in range(200):
            h = sampler._sample_residues()
            b = s_res.mul(h).mul(sinv_res).e
            want = []
            for r in range(4):
                for c in range(4):
                    delta, v = exps[r] - exps[c], ring.val(b[4 * r + c], m)
                    if delta >= 1 or v is None:
                        want.append(spec.zero)
                    elif v < -delta:
                        want = None
                        break
                    else:
                        want.append(ring.reduce_mod_p(ring.shift_down(b[4 * r + c], -delta)))
                if want is None:
                    break
            got = _reduce_fast(ring, exps, s_res, sinv_res, h, m)
            if want is None:
                assert got is None
            else:
                integral += 1
                assert got == Mat4.from_rows(spec, [want[i:i + 4] for i in range(0, 16, 4)])
        assert integral >= 10
