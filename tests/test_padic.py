"""Residue arithmetic, the Kl(n) sampler, conjugate-and-reduce against an
exact rational conjugation, and the sampled R_g oracle."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klingen.cosets import (
    Diagonal,
    Skew,
    X,
    Y,
    Z,
    enumerate_diagonal_reps,
    enumerate_small_reps,
)
from klingen.errors import NonConvergence, PrecisionTooLow
from klingen.ffield import base_p_digits, field_for_q, kernel, tables
from klingen.groupfq import (
    Mat4,
    _similitude_enc,
    enumerate_gsp4,
    named_subgroup,
    subgroup_closure,
)
from klingen.padic import (
    KlingenSampler,
    _below,
    _conjugation_plan,
    _envelope_order,
    _kl_product,
    _lattice_basis,
    _lattice_order,
    _packing,
    _reduce_fast,
    _reduced_kernel,
    _torus_exponents,
    estimate_Rg,
    ring_for_q,
)

Z2 = ring_for_q(2)
Z3 = ring_for_q(3)


def _s_rows(x, y, z):
    """Rows of the lower unipotent S(x, y, z)."""
    return [[1, 0, 0, 0], [x, 1, 0, 0], [y, 0, 1, 0], [z, y, -x, 1]]


def _s_xyz(rep, p):
    """x, y, z of a representative's S(x, y, z), read off its fields: p^k on
    the perturbed position (Skew: p^k_x, p^k_y, u p^k_z), else 0."""
    if isinstance(rep, X):
        return p**rep.k, 0, 0
    if isinstance(rep, Y):
        return 0, p**rep.k, 0
    if isinstance(rep, Z):
        return 0, 0, p**rep.k
    if isinstance(rep, Skew):
        return p**rep.k_x, p**rep.k_y, rep.u * p**rep.k_z
    return 0, 0, 0


def _to_planes(ring, d, rows):
    """The coefficient planes mod p^d of a matrix given by rows of ints (any
    lift) or residue tuples."""
    flat = [ring.from_int(x, d) if isinstance(x, int) else x for row in rows for x in row]
    return [list(plane) for plane in zip(*flat)]


def _entries(planes):
    """The 16 residues (coefficient tuples) of plane matrices."""
    return list(zip(*planes))


def _s_pair(ring, rep, d):
    """S(x, y, z) of a representative and its inverse S(-x, -y, -z), as
    plane matrices mod p^d (both are exactly integral)."""
    x, y, z = _s_xyz(rep, ring.p)
    return tuple(_to_planes(ring, d, _s_rows(a, b, c))
                 for a, b, c in ((x, y, z), (-x, -y, -z)))


def _conjugation(rep, n, q):
    """(ring, plan, m) for rep at level n, set up the way estimate_Rg sets
    them up; m is the working precision n + spread + 2."""
    ring = ring_for_q(q)
    exps = _torus_exponents(rep)
    m = n + max(exps) - min(exps) + 2
    return ring, _conjugation_plan(rep, ring.p), m


def _reducer(rep, n, q):
    """m and h -> _reduce_fast(h) for rep at level n."""
    ring, plan, m = _conjugation(rep, n, q)
    return m, lambda h: _reduce_fast(ring.spec, plan, h)


# -- an exact rational conjugation: the oracle _reduce_fast is held to --------

def _fmul(a, b):
    return [[sum(a[r][k] * b[k][c] for k in range(4)) for c in range(4)]
            for r in range(4)]


def _rep_factors(rep, p):
    """t(i, j) and S(x, y, z) of a representative as Fraction matrices, read
    off its fields: x, y, z are p^k on the perturbed position (Skew: p^k_x,
    p^k_y, u p^k_z)."""
    x, y, z = _s_xyz(rep, p)
    exps = (2 * rep.i + rep.j, rep.i + rep.j, rep.i, 0)
    t = [[Fraction(p) ** exps[r] if r == c else Fraction(0) for c in range(4)]
         for r in range(4)]
    t_inv = [[1 / t[r][c] if r == c else Fraction(0) for c in range(4)]
             for r in range(4)]
    s, s_inv = _s_rows(x, y, z), _s_rows(-x, -y, -z)
    assert _fmul(s, s_inv) == [[int(r == c) for c in range(4)] for r in range(4)]
    return t, s, s_inv, t_inv


def _exact_reduction(factors, p, spec, h):
    """t S H S^{-1} t^{-1} for the integer lift H of h, reduced mod p; None
    when some entry is not p-integral.  Any lift gives the same answer at
    the working precision n + spread + 2."""
    t, s, s_inv, t_inv = factors
    lift = [h[0][r:r + 4] for r in range(0, 16, 4)]
    conj = _fmul(_fmul(t, _fmul(_fmul(s, lift), s_inv)), t_inv)
    if any(x.denominator % p == 0 for row in conj for x in row):
        return None
    return Mat4.from_rows(spec, [[int(x) % p for x in row] for row in conj])


class TestConjugateReduce:
    def test_torus_conjugation_formula(self):
        # g = t(i,j), h = S(p^n c1, p^n c2, p^n c3): the conjugate is
        # S(p^{n-i} c1, p^{n-i-j} c2, p^{n-2i-j} c3).  Each S-entry reduces
        # to its c at the level where its valuation reaches 0 (the dependent
        # (4,2) and (4,3) positions included), and one level lower the
        # conjugate is no longer integral.
        rep, i, j = Diagonal(1, 2), 1, 2
        c1, c2, c3 = 1, 2, 1
        for n, cs in ((i, (c1, 0, 0)), (i + j, (0, c2, 0)), (2 * i + j, (0, 0, c3))):
            for level, want in ((n, Mat4.from_rows(Z3.spec, _s_rows(*cs))), (n - 1, None)):
                m, reduce = _reducer(rep, level, 3)
                h = _to_planes(Z3, m, _s_rows(*(3**level * c for c in cs)))
                assert reduce(h) == want

    def test_conjugation_formula_with_x_part(self):
        # g = t(i,j) S(p^k, 0, 0): the (4,1) entry of the conjugate is
        # p^{n-2i-j} (c3 - 2 c2 p^k), odd residue characteristic.  At
        # n = 2i + j - 1 with c3 = p it reduces to -1, where the torus part
        # alone would give +1.
        i, j, k, n = 1, 1, 1, 2
        c1, c2, c3 = 1, 1, 3
        m, reduce = _reducer(X(i, j, k), n, 3)
        got = reduce(_to_planes(Z3, m, _s_rows(3**n * c1, 3**n * c2, 3**n * c3)))
        assert got is not None
        assert got.entry(3, 0) == Z3.spec.scalar((c3 - 2 * c2 * 3**k) // 3)

    def test_identity_conjugation_reduces_h(self):
        # t(0,0) = S(0,0,0) = 1: the reduction is h mod p
        m, reduce = _reducer(Diagonal(0, 0), 2, 2)
        sampler = KlingenSampler(2, 2, m, seed=5)
        for _ in range(10):
            h = sampler._sample_residues()
            assert reduce(h) == Mat4(Z2.spec, tuple(x % 2 for x in h[0]))

    def test_deep_rep_rejects_shallow_h(self):
        # g = t(1,1), n = 2: h = S(p^2, p^2, p^2) has conjugate (4,1) entry
        # of valuation n - 2i - j = -1, not integral
        m, reduce = _reducer(Diagonal(1, 1), 2, 2)
        assert reduce(_to_planes(Z2, m, _s_rows(4, 4, 4))) is None

    def test_half_of_samples_absent_at_t11(self):
        # same g: over many sampled h both outcomes occur
        m, reduce = _reducer(Diagonal(1, 1), 2, 2)
        sampler = KlingenSampler(2, 2, m, seed=3)
        seen = {True: 0, False: 0}
        for _ in range(200):
            seen[reduce(sampler._sample_residues()) is not None] += 1
        assert seen[True] > 0 and seen[False] > 0

    def test_multiplicative_where_defined(self):
        # conj(g, h1 h2) == conj(g, h1) * conj(g, h2) whenever all defined
        n = 2
        m, reduce = _reducer(Diagonal(0, 1), n, 2)
        sampler = KlingenSampler(2, n, m, seed=9)
        checked = 0
        for _ in range(250):
            h1 = sampler._sample_residues()
            h2 = sampler._sample_residues()
            h12 = _ring_product(Z2, m, _entries(h1), _entries(h2))
            h12 = _to_planes(Z2, m, [h12])
            r1, r2, r12 = reduce(h1), reduce(h2), reduce(h12)
            if r1 is None or r2 is None or r12 is None:
                continue
            checked += 1
            assert r12 == r1 * r2
        assert checked > 5

    def test_fast_reduction_matches_reference(self):
        # the residue-level reduction and the exact rational conjugation
        # agree sample by sample, including the absent verdicts; uniform
        # and layered draws both
        cases = {
            2: ((Diagonal(-2, 5), 4), (Diagonal(1, 1), 4), (X(2, 1, 1), 5),
                (Y(1, 3, 3), 6), (Z(2, 1, 4), 6), (Diagonal(-3, 8), 6),
                (Skew(4, 3, 5, 7, 1, 2), 9)),
            3: ((Diagonal(-2, 5), 4), (Diagonal(1, 1), 4), (X(2, 1, 1), 5),
                (Y(1, 3, 3), 6), (Z(2, 1, 4), 6), (Diagonal(-3, 8), 6),
                (Skew(1, 2, 3, 4, 1, 3), 4)),
        }
        for q, reps in cases.items():
            integral = absent = 0
            for rep, n in reps:
                ring, plan, m = _conjugation(rep, n, q)
                exps = _torus_exponents(rep)
                factors = _rep_factors(rep, q)
                depths = sorted({a - b for a in exps for b in exps if a > b})
                for sampler in (KlingenSampler(q, n, m, seed=17),
                                KlingenSampler(q, n, m, seed=17, depths=depths)):
                    for _ in range(40):
                        h = sampler._sample_residues()
                        want = _exact_reduction(factors, q, ring.spec, h)
                        assert _reduce_fast(ring.spec, plan, h) == want
                        integral += want is not None
                        absent += want is None
            assert integral >= 50 and absent >= 50, (q, integral, absent)


def _val(x, p, d):
    """Valuation of a residue mod p^d (int or coefficient tuple); None for 0."""
    vals = []
    for c in (x,) if isinstance(x, int) else x:
        c %= p**d
        if c:
            v = 0
            while c % p == 0:
                c //= p
                v += 1
            vals.append(v)
    return min(vals, default=None)


class TestBuildRep:
    """The representative's factors as estimate_Rg builds them: the torus
    exponents of t(i, j) and S(x, y, z), S^{-1} as residue matrices."""

    def test_diagonal_rep_is_torus_matrix(self):
        # t(1,0) = diag(p^2, p, p, 1) with no unipotent part
        assert _torus_exponents(Diagonal(1, 0)) == (2, 1, 1, 0)
        for s in _s_pair(Z2, Diagonal(1, 0), 8):
            assert s == [[int(r == c) for r in range(4) for c in range(4)]]

    def test_x_rep_lower_entry(self):
        # t(2,1) S(p,0,0): the (2,1) entry is p^{i+j} * p^k = p^4, the (4,3)
        # entry is -x = -p and the other lower entries vanish
        rep, m = X(2, 1, 1), 10
        exps = _torus_exponents(rep)
        (s,), _ = _s_pair(Z2, rep, m)
        assert exps[1] + _val(s[4], 2, m) == 4
        assert s[8] == s[12] == s[13] == 0
        assert s[14] == -2 % 2**m

    def test_skew_rep_entries(self):
        # rows scale the S-entries by p^{i+j}, p^i, 1
        rep, m = Skew(1, 2, 3, 4, 1, 2), 14
        exps = _torus_exponents(rep)
        (s,), _ = _s_pair(Z2, rep, m)
        assert exps[1] + _val(s[4], 2, m) == (rep.i + rep.j) + rep.k_x
        assert exps[2] + _val(s[8], 2, m) == rep.i + rep.k_y
        assert exps[3] + _val(s[12], 2, m) == rep.k_z
        assert _val(s[13], 2, m) == rep.k_y  # y in the bottom row
        assert _val(s[14], 2, m) == rep.k_x  # -x

    def test_wrong_residue_characteristic_rejected(self):
        # a p = 3 representative cannot be conjugated over o with p = 2
        for q in (2, 4):
            with pytest.raises(ValueError):
                estimate_Rg(Skew(1, 2, 3, 4, 1, 3), 9, q)

    def test_inverse_really_inverts(self):
        for q, reps in ((2, (Diagonal(-2, 5), X(2, 1, 1), Y(1, 3, 3), Z(2, 1, 4),
                             Skew(4, 3, 5, 7, 1, 2))),
                        (3, (X(2, 1, 1), Skew(1, 2, 3, 4, 1, 3)))):
            ring = ring_for_q(q)
            ident = [ring.from_int(int(r == c), 16) for r in range(4) for c in range(4)]
            for rep in reps:
                s, s_inv = (_entries(x) for x in _s_pair(ring, rep, 16))
                assert (_ring_product(ring, 16, s, s_inv)
                        == _ring_product(ring, 16, s_inv, s) == ident)


class TestSampler:
    def test_samples_live_in_level_subgroup(self):
        n, m = 3, 9
        sampler = KlingenSampler(2, n, m, seed=1)
        level = ((1, 0), (2, 0), (3, 0), (3, 1), (3, 2))
        for _ in range(50):
            h = sampler._sample_residues()
            for r, c in level:
                v = _val(h[0][4 * r + c], 2, m)
                assert v is None or v >= n

    def test_samples_have_unit_similitude(self):
        # transpose(h) J h == mu J with mu a unit, J the split antidiagonal
        n, m = 2, 8
        for q in (2, 3):
            ring = ring_for_q(q)
            sampler = KlingenSampler(q, n, m, seed=4)
            jrows = [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]
            jm = _to_planes(ring, m, jrows)
            for _ in range(25):
                h = sampler._sample_residues()
                ht = _to_planes(
                    ring, m, [[h[0][4 * c + r] for c in range(4)] for r in range(4)]
                )
                ht, j, h = (_entries(x) for x in (ht, jm, h))
                prod = _ring_product(ring, m, _ring_product(ring, m, ht, j), h)
                mu = prod[3]  # (1,4) position
                assert ring.is_unit(mu)
                for r in range(4):
                    for c in range(4):
                        want = jm[0][4 * r + c]
                        got = prod[4 * r + c]
                        assert got == ring.mul(ring.from_int(want, m), mu, m)

    def test_seed_determinism(self):
        a = KlingenSampler(2, 2, 8, seed=21)
        b = KlingenSampler(2, 2, 8, seed=21)
        c = KlingenSampler(2, 2, 8, seed=22)
        seq_a = [a._sample_residues() for _ in range(6)]
        seq_b = [b._sample_residues() for _ in range(6)]
        seq_c = [c._sample_residues() for _ in range(6)]
        assert seq_a == seq_b
        assert seq_a != seq_c

    def test_layered_draws_still_in_level_subgroup(self):
        n, m = 4, 12
        sampler = KlingenSampler(2, n, m, seed=2, depths=[1, 3, 5])
        level = ((1, 0), (2, 0), (3, 0), (3, 1), (3, 2))
        for _ in range(50):
            h = sampler._sample_residues()
            for r, c in level:
                v = _val(h[0][4 * r + c], 2, m)
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

    def test_small_budget_stops_on_the_envelope(self):
        # budget 5 is five batches of one sample: too few for three quiet
        # batches after the last new element, which the fourth sample
        # adjoins, filling E (order q (q + 1) = 6 at j = 0)
        rep, n, q = Diagonal(1, 0), 4, 2
        est = estimate_Rg(rep, n, q, budget=5, seed=0)
        assert est.order == _envelope_order(rep, n, q) == 6
        assert not est.rows[:, _forbidden(rep, n)].any()

    def test_small_budget_stops_on_the_lattice_bound(self):
        # the third sample's adjoin fills |Lambda-bar \cap GSp(4, 2)| = 4,
        # two samples before three quiet batches of one could end the draws
        rep, n, q = Z(2, 1, 4), 5, 2
        est = estimate_Rg(rep, n, q, budget=5, seed=0)
        assert est.order == _lattice_order(rep, n, q) == 4

    @pytest.mark.parametrize("q,n_max", [(2, 4), (4, 3)])
    def test_generators_each_enlarge(self, q, n_max):
        """The generators are the samples that enlarged the group: each lies
        outside the closure of those before it (the first outside the
        trivial group), and together they generate the result."""
        for n in range(2, n_max + 1):
            for rep in enumerate_small_reps(n):
                est = estimate_Rg(rep, n, q, budget=500, seed=0)
                gens = est.generators
                assert gens, (rep, n)
                assert gens[0].mat != Mat4.identity(gens[0].spec)
                for i in range(1, len(gens)):
                    assert gens[i] not in subgroup_closure(gens[:i]), (rep, n, i)
                assert subgroup_closure(gens).same_elements(est)

    def test_odd_characteristic_containment(self):
        est = estimate_Rg(Diagonal(1, 1), 4, 3, budget=400, seed=11)
        pred = named_subgroup("Row4", 3)
        assert est.is_subset_of(pred)
        assert est.order == pred.order


# ---------------------------------------------------------------------------
# the valuation envelope of a Diagonal representative and the sampler's stop
# ---------------------------------------------------------------------------

_LEVEL = {(1, 0), (2, 0), (3, 0), (3, 1), (3, 2)}


def _allowed(rep, n):
    """Flat positions 4r + c where entry (r, c) of t h t^{-1}, h in Kl(n),
    can be a unit: p^(e_r - e_c) h_rc with val(h_rc) >= n on the five level
    positions, so e_r - e_c + (n or 0) <= 0."""
    e = (2 * rep.i + rep.j, rep.i + rep.j, rep.i, 0)
    return [4 * r + c for r in range(4) for c in range(4)
            if e[r] - e[c] + (n if (r, c) in _LEVEL else 0) <= 0]


def _forbidden(rep, n):
    allowed = _allowed(rep, n)
    return [i for i in range(16) if i not in allowed]


@pytest.fixture
def drawn(monkeypatch):
    """The coefficient planes of every Kl(n) sample drawn, in order."""
    samples = []
    draw = KlingenSampler._sample_residues

    def recording(self):
        h = draw(self)
        samples.append(h)
        return h

    monkeypatch.setattr(KlingenSampler, "_sample_residues", recording)
    return samples


class TestEnvelope:
    @pytest.mark.parametrize("q,n_max", [(2, 8), (3, 6)])
    def test_order_is_a_filter_of_the_whole_group(self, q, n_max):
        rows = enumerate_gsp4(q).rows
        for n in range(1, n_max + 1):
            for rep in enumerate_diagonal_reps(n):
                inside = ~rows[:, _forbidden(rep, n)].any(axis=1)
                assert _envelope_order(rep, n, q) == int(inside.sum()), (rep, n)

    def test_order_counts_the_similitudes_on_the_pattern_q4(self):
        t = tables(field_for_q(4))
        for n in range(1, 4):
            for rep in enumerate_diagonal_reps(n):
                allowed = _allowed(rep, n)
                assert len(allowed) <= 7
                count = 0
                for values in itertools.product(range(4), repeat=len(allowed)):
                    e = [0] * 16
                    for i, v in zip(allowed, values):
                        e[i] = v
                    count += _similitude_enc(tuple(e), t) != 0
                assert _envelope_order(rep, n, 4) == count, (rep, n)

    def test_other_representatives_have_no_envelope(self):
        for rep in (X(2, 1, 1), Y(1, 1, 1), Z(1, 1, 1), Skew(4, 3, 5, 7, 1, 2)):
            assert _envelope_order(rep, 5, 2) is None

    def test_diagonal_draws_stop_where_the_envelope_fills(self, drawn):
        """Over the rg window at seed 0 every Diagonal result lies in its
        pattern; one that has order |E| came from draws that end at the
        sample adjoining its last generator, and the two early stops (order
        2 of 4) end on a batch boundary as before."""
        early = set()
        for q, n_max in ((2, 7), (3, 4), (4, 3)):
            for n in range(2, n_max + 1):
                for rep in enumerate_diagonal_reps(n):
                    drawn.clear()
                    est = estimate_Rg(rep, n, q, budget=500, seed=0)
                    assert not est.rows[:, _forbidden(rep, n)].any(), (q, n, rep)
                    if est.order == _envelope_order(rep, n, q):
                        spec = field_for_q(q)
                        plan = _conjugation_plan(rep, spec.p)
                        last = _reduce_fast(spec, plan, drawn[-1])
                        assert last == est.generators[-1].mat, (q, n, rep)
                    else:
                        assert len(drawn) % 50 == 0, (q, n, rep)
                        early.add((q, n, rep))
        assert early == {(2, 6, Diagonal(-3, 8)), (2, 7, Diagonal(-3, 7))}

    @pytest.mark.parametrize("rep,n,count", [
        (X(2, 1, 1), 5, 28),
        (Diagonal(-3, 8), 6, 200),
    ], ids=["X", "early-stop"])
    def test_draw_counts_without_the_envelope_stop(self, drawn, rep, n, count):
        # an X representative has no envelope: its draws end at the 28th
        # sample, whose adjoin fills the lattice bound (order 4); Diagonal(-3,
        # 8) stops early at order 2 of 4, after three quiet batches of 50
        est = estimate_Rg(rep, n, 2, budget=500, seed=0)
        assert len(drawn) == count
        assert est.order != _envelope_order(rep, n, 2)
        assert (est.order == _lattice_order(rep, n, 2)) == (count < 200)


# ---------------------------------------------------------------------------
# the lattice bound: R_g lies in the reduction of Lambda, meets GSp(4, q)
# ---------------------------------------------------------------------------

def _annihilator(rep, n, p):
    """Rows over F_p whose common kernel is the reduction of Lambda."""
    return kernel(_lattice_basis(rep, n, p), tables(field_for_q(p)))


def _inside(annihilator, spec, rows):
    """Which of the (N, 16) encoding rows lie in the F_q-span of the F_p
    basis annihilated by ``annihilator``: every base-p digit plane does."""
    ann = np.array(annihilator, dtype=np.int64).T
    planes = base_p_digits(np.asarray(rows, dtype=np.int64), spec.p, spec.f)
    return np.all([~((plane @ ann) % spec.p).any(axis=1) for plane in planes], axis=0)


class TestLatticeBound:
    @pytest.mark.parametrize("q,n_max,diagonal", [(2, 8, True), (3, 6, False)])
    def test_order_is_a_filter_of_the_whole_group(self, q, n_max, diagonal):
        group = enumerate_gsp4(q)
        for n in range(1, n_max + 1):
            for rep in enumerate_small_reps(n):
                if diagonal or not isinstance(rep, Diagonal):
                    inside = _inside(_annihilator(rep, n, q), group.spec, group.rows)
                    assert _lattice_order(rep, n, q) == int(inside.sum()), (rep, n)

    @pytest.mark.parametrize("q,n_max", [(2, 8), (3, 6)])
    def test_diagonal_bound_is_the_envelope(self, q, n_max):
        """A Diagonal representative's reduction is spanned by the unit
        matrices at its allowed positions, and the count is |E|."""
        for n in range(1, n_max + 1):
            for rep in enumerate_diagonal_reps(n):
                basis = _lattice_basis(rep, n, q)
                assert sorted(b.index(1) for b in basis) == _allowed(rep, n), (rep, n)
                assert all(sum(b) == 1 for b in basis), (rep, n)
                assert _lattice_order(rep, n, q) == _envelope_order(rep, n, q), (rep, n)

    @pytest.mark.parametrize("p", [2, 3])
    def test_other_representatives_have_dimension_five(self, p):
        reps = [(rep, n) for n in range(1, 9) for rep in enumerate_small_reps(n)
                if not isinstance(rep, Diagonal)]
        assert len(reps) == 56
        assert {len(_lattice_basis(rep, n, p)) for rep, n in reps} == {5}

    def test_samples_reduce_into_the_lattice(self, drawn):
        """Over the rg window at seed 0, every integral reduction of a
        sample lies in the reduction of Lambda, and an X, Y or Z result fills
        the bound at the sample that adjoins its last generator."""
        for q, n_max in ((2, 7), (3, 4), (4, 3)):
            spec = field_for_q(q)
            for n in range(2, n_max + 1):
                for rep in enumerate_small_reps(n):
                    drawn.clear()
                    est = estimate_Rg(rep, n, q, budget=500, seed=0)
                    plan = _conjugation_plan(rep, spec.p)
                    mats = [m.e for m in (_reduce_fast(spec, plan, h) for h in drawn) if m]
                    assert _inside(_annihilator(rep, n, spec.p), spec, mats).all(), (q, n, rep)
                    if not isinstance(rep, Diagonal):
                        assert est.order == _lattice_order(rep, n, q), (q, n, rep)
                        assert mats[-1] == est.generators[-1].mat.e, (q, n, rep)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_reduced_kernel_matches_brute_force(self, data):
        """The reductions mod p of all solutions mod p^m, enumerated, span
        the space ``_reduced_kernel`` returns a basis of."""
        p = data.draw(st.sampled_from([2, 3]), label="p")
        m = data.draw(st.integers(1, 3), label="m")
        width = data.draw(st.integers(1, 3), label="columns")
        rows = data.draw(st.lists(st.lists(st.integers(0, p**m - 1), min_size=width,
                                           max_size=width), min_size=1, max_size=4), label="rows")
        solutions = {tuple(x % p for x in xs)
                     for xs in itertools.product(range(p**m), repeat=width)
                     if all(sum(a * x for a, x in zip(row, xs)) % p**m == 0 for row in rows)}
        basis = _reduced_kernel(rows, p, m)
        span = {tuple(sum(c * b[i] for c, b in zip(cs, basis)) % p for i in range(width))
                for cs in itertools.product(range(p), repeat=len(basis))}
        assert len(span) == p**len(basis)
        assert span == solutions


# ---------------------------------------------------------------------------
# the randrange-based reference: RingO's scalar methods, one call per scalar
# ---------------------------------------------------------------------------

def _ring_product(ring, d, a, b):
    """Entrywise RingO.mul / RingO.add composition of a 4x4 product of two
    lists of 16 residues."""
    out = []
    for r in range(0, 16, 4):
        for c in range(4):
            acc = ring.mul(a[r], b[c], d)
            for k in range(1, 4):
                acc = ring.add(acc, ring.mul(a[r + k], b[c + 4 * k], d), d)
            out.append(acc)
    return out


def _random(ring, rng, d):
    """Uniform residue mod p^d."""
    mod = ring.p**d
    return tuple(rng.randrange(mod) for _ in range(ring.f))


def _random_unit(ring, rng, d):
    """Uniform unit residue mod p^d: at f = 1 a uniform residue with its
    last digit redrawn among the units, at f > 1 a redrawn tuple."""
    if ring.f == 1:
        r = rng.randrange(ring.p**d)
        return (r - r % ring.p + rng.randrange(1, ring.p),)
    while True:
        r = _random(ring, rng, d)
        if ring.is_unit(r):
            return r


def _random_layered(ring, rng, d, depths):
    """Uniform mod p^d (half the time), exactly p^v * unit with v picked from
    ``depths`` (a quarter), or zero (a quarter)."""
    roll = rng.random()
    usable = [v for v in depths if 0 <= v < d]
    if roll < 0.5 or (roll < 0.75 and not usable):
        return _random(ring, rng, d)
    if roll < 0.75:
        v = usable[rng.randrange(len(usable))]
        unit = _random_unit(ring, rng, d - v)
        return ring.mul(ring.from_int(ring.p**v, d), unit, d)
    return ring.from_int(0, d)


def _kl_via_ring(ring, d, lower, levi, upper):
    """The 16 residues of S(a, b, c) * diag(t, A, det(A) t^-1) *
    upper(xu, yu, zu) through RingO's scalar methods, for lower = (a, b, c),
    levi = (t, t^-1, a00, a01, a10, a11) and upper = (xu, yu, zu)."""
    (a, b, c), (t, tinv, a00, a01, a10, a11), (xu, yu, zu) = lower, levi, upper
    det = ring.add(ring.mul(a00, a11, d), ring.neg(ring.mul(a01, a10, d), d), d)
    one, zero = ring.from_int(1, d), ring.from_int(0, d)
    lower = [one, zero, zero, zero, a, one, zero, zero,
             b, zero, one, zero, c, b, ring.neg(a, d), one]
    levi = [t, zero, zero, zero, zero, a00, a01, zero,
            zero, a10, a11, zero, zero, zero, zero, ring.mul(det, tinv, d)]
    upper = [one, xu, yu, zu, zero, one, zero, yu,
             zero, zero, one, ring.neg(xu, d), zero, zero, zero, one]
    return _ring_product(ring, d, _ring_product(ring, d, lower, levi), upper)


def _sample_via_ring(ring, rng, n, d, depths):
    """A Kl(n) sample as KlingenSampler(q, n, d, depths=depths) draws it,
    through RingO's scalar methods and ``randrange``: the 16 residues of
    S(p^n a, p^n b, p^n c) * diag(t, A, det(A)/t) * upper(xu, yu, zu)."""
    layers = None if depths is None else sorted(set(depths))
    low = None if depths is None else sorted({max(0, v - n) for v in layers})

    def draw(vs):
        return _random(ring, rng, d) if vs is None else _random_layered(ring, rng, d, vs)

    shift = ring.from_int(ring.p**n, d)
    a, b, c = (ring.mul(shift, draw(low), d) for _ in range(3))
    t = _random_unit(ring, rng, d)
    while True:
        a00, a01, a10, a11 = (draw(layers) for _ in range(4))
        det = ring.add(ring.mul(a00, a11, d), ring.neg(ring.mul(a01, a10, d), d), d)
        if ring.is_unit(det):
            break
    xu, yu, zu = (draw(layers) for _ in range(3))
    return _kl_via_ring(ring, d, (a, b, c), (t, ring.inv(t, d), a00, a01, a10, a11),
                        (xu, yu, zu))


class TestIntResidues:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 2**20, 3**11, 509**11])
    def test_below_mirrors_randrange(self, n):
        # the sampler's one draw against the stdlib on the same seed:
        # randrange(n), and randrange(1, n + 1) as the unit digit's
        # randrange(1, p) with p - 1 = n (n = 1 is p = 2)
        ours, ref = random.Random(n), random.Random(n)
        k = n.bit_length()
        for _ in range(300):
            assert _below(ours.getrandbits, n, k) == ref.randrange(n)
            assert 1 + _below(ours.getrandbits, n, k) == ref.randrange(1, n + 1)
        assert ours.random() == ref.random()

    @settings(max_examples=150, deadline=None)
    @given(q=st.sampled_from([2, 3, 5, 4, 8, 9]), d=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_packed_product_matches_ring(self, q, d, seed):
        # the closed form on packed residues, unpacked, against the RingO
        # product of the three factors; zeros and pure powers of p are mixed
        # in so cancellations occur, and residues with every coefficient
        # p^d - 1, whose products stress the packing's digit width
        ring, rng = ring_for_q(q), random.Random(seed)
        packing, top = _packing(ring, d), ring.p**d - 1

        def entry():
            kind = rng.randrange(6)
            if kind == 0:
                return ring.from_int(0, d)
            if kind == 1:
                return ring.from_int(ring.p**rng.randrange(d), d)
            if kind == 2:
                return (top,) * ring.f
            return _random(ring, rng, d)

        def pack(x):
            return sum(c << o for c, o in zip(x, packing[2]))

        lower, levi, upper = ([entry() for _ in range(k)] for k in (3, 6, 3))
        got = _kl_product(packing, *([pack(x) for x in part]
                                     for part in (lower, levi, upper)))
        assert _entries(got) == _kl_via_ring(ring, d, lower, levi, upper)

    @settings(max_examples=100, deadline=None)
    @given(q=st.sampled_from([2, 3, 5, 4, 8, 9]), d=st.integers(1, 10),
           seed=st.integers(0, 2**32 - 1))
    def test_ring_inverse(self, q, d, seed):
        # inv is a Newton lift from F_q for every f
        ring = ring_for_q(q)
        rng = random.Random(seed)
        a = _random_unit(ring, rng, d)
        assert ring.mul(a, ring.inv(a, d), d) == ring.from_int(1, d)
        with pytest.raises(ZeroDivisionError):
            ring.inv(ring.from_int(ring.p, d), d)

    @pytest.mark.parametrize(
        "q,prec", [pytest.param(q, 9, id=str(q)) for q in (2, 3, 5, 4, 8, 9)]
        + [pytest.param(q, 20, id=f"{q}-prec20") for q in (2, 9)])
    @pytest.mark.parametrize("depths", [None, (1, 3, 5), (0, 2), (40,)])
    def test_int_sampler_is_stream_identical(self, q, prec, depths):
        # the sampler against the randrange-based RingO reference on the
        # same seed: the same samples, and the same stream afterwards; at
        # prec = 20, p^prec > 2^32, so getrandbits draws more than one word
        sampler = KlingenSampler(q, 3, prec, seed=q + 7, depths=depths)
        ring, rng = sampler.ring, random.Random(q + 7)
        for _ in range(60):
            want = _sample_via_ring(ring, rng, 3, prec, depths)
            assert _entries(sampler._sample_residues()) == want
        assert sampler._rng.random() == rng.random()

    @pytest.mark.parametrize("q,rep,n", [
        (3, Diagonal(1, 1), 4), (3, X(2, 1, 1), 5),
        (4, Diagonal(-2, 5), 3), (4, Z(1, 2, 3), 4), (9, Diagonal(1, 1), 3),
        (8, X(1, 1, 1), 3), (4, Y(1, 1, 2), 3), (9, Skew(1, 2, 3, 4, 1, 3), 3),
    ])
    def test_reduce_fast_matches_ring_reduction(self, q, rep, n):
        # against the dense S h S^{-1} over RingO, then the shift by t
        ring, plan, m = _conjugation(rep, n, q)
        spec, p = ring.spec, ring.p
        exps = _torus_exponents(rep)
        s, s_inv = (_entries(x) for x in _s_pair(ring, rep, m))
        depths = sorted({a - b for a in exps for b in exps if a > b})
        sampler = KlingenSampler(q, n, m, seed=5, depths=depths)
        integral = 0
        for _ in range(200):
            h = sampler._sample_residues()
            b = _ring_product(ring, m, _ring_product(ring, m, s, _entries(h)), s_inv)
            want = []
            for r in range(4):
                for c in range(4):
                    x = b[4 * r + c]
                    delta, v = exps[r] - exps[c], _val(x, p, m)
                    if delta >= 1 or v is None:
                        want.append(spec.zero)
                    elif v < -delta:
                        want = None
                        break
                    else:
                        step = p**-delta
                        want.append(spec.elem([y // step for y in x]))
                if want is None:
                    break
            got = _reduce_fast(spec, plan, h)
            if want is None:
                assert got is None
            else:
                integral += 1
                assert got == Mat4.from_rows(spec, [want[i:i + 4] for i in range(0, 16, 4)])
        assert integral >= 10
