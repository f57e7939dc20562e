"""Residues of the p-adic integers and the randomized R_g oracle.

The base ring is the unramified extension o of Z_p with residue field F_q
(q = p^f); the uniformizer is p itself.  Elements of o/p^d are "residues":
a plain int mod p^d when f = 1, a length-f tuple of ints mod p^d (the
coefficient vector on the power basis of a fixed monic lift of the residue
field's modulus) when f > 1.  A 4x4 residue matrix is kept as its f
coefficient planes, each a row-major list of 16 ints.  On top of the
residues sit:

RingO / _plane_product
    scalar residue arithmetic mod p^d, and the product of two residue
    matrices: the f^2 plane products are summed unreduced into 2f - 1
    planes, then reduced once by the modulus lift and once mod p^d.

KlingenSampler
    seeded sampling of the level-n Klingen subgroup via its exact
    factorization  lower(p^n) * levi * upper(o).  Every draw is one
    ``_below``, which makes the ``getrandbits`` calls CPython's
    ``Random.randrange`` makes, so a seed yields the samples the reference
    draws through randrange yield (the tests keep that reference).  At
    f = 1 the product of the three factors is written out on ints; at f > 1
    det(A) is tested for a unit on the draws mod p through the F_q tables,
    and the factors are multiplied as plane matrices.

_reduce_fast
    for a support representative g = t_{i,j} S(x, y, z), with
    t_{i,j} = diag(p^{2i+j}, p^{i+j}, p^i, 1) and S(x, y, z) the lower
    unipotent with rows (1), (x,1), (y,0,1), (z,y,-x,1): the reduction
    mod p of g h g^{-1} written straight into a Mat4 of F_q encodings, or
    None when g h g^{-1} is not integral.  x, y and z are rational
    integers, so S h S^{-1} is row and column operations on each integer
    coefficient plane of h.  The conjugation by t is a per-entry shift by
    p^(e_r - e_c), so integrality is a divisibility check.  Tests hold it
    to an exact Fraction conjugation of integer lifts of h.

estimate_Rg
    regrowth of R_g = image of g Kl(n) g^{-1} \\cap K in GSp(4, F_q) as the
    closure of the sampled reductions that enlarge it, re-closed as each
    arrives.  Convergence heuristic: three consecutive batches that add no
    new subgroup elements.

The working precision for conjugating Kl(n) elements by a representative
is  d = n + spread + 2  (estimate_Rg always adds two guard digits to
n + spread), where spread is the largest difference of the torus
exponents (2i+j, i+j, i, 0) — the deepest division the conjugation
performs (2i+j when i >= 1, but j for the i <= 0 representatives).  At
that precision the verdict and the reduction do not depend on which lift
of h mod p^d is conjugated: changing the lift moves every entry of
g h g^{-1} by a multiple of p^(d - spread).  For the same reason S h S^{-1}
is never reduced mod p^d: an entry divided by p^s keeps its residue mod p
under any change by a multiple of p^d, since d > s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .cosets import CosetRep, Diagonal, Skew, X, Y, Z
from .errors import NonConvergence, PrecisionTooLow
from .ffield import FieldSpec, field_for_q, tables
from .groupfq import Mat4, Subgroup, adjoin, gsp_elem, make_subgroup

Residue = Union[int, Tuple[int, ...]]
Planes = List[List[int]]


# ---------------------------------------------------------------------------
# the ring o/p^d and its residue arithmetic
# ---------------------------------------------------------------------------

def _encode(a: Sequence[int], p: int) -> int:
    """F_q encoding of the reduction mod p of a coefficient tuple."""
    enc = 0
    for x in reversed(a):
        enc = enc * p + x % p
    return enc


@dataclass(frozen=True)
class RingO:
    """The ring of integers of the unramified extension with residue F_q.

    Holds the residue-field spec and the integer lift of its modulus; all
    residue operations take the digit count d explicitly, so one RingO
    serves every precision.
    """

    spec: FieldSpec

    @property
    def p(self) -> int:
        return self.spec.p

    @property
    def f(self) -> int:
        return self.spec.f

    @property
    def q(self) -> int:
        return self.spec.q

    def from_int(self, k: int, d: int) -> Residue:
        mod = self.p**d
        if self.f == 1:
            return k % mod
        return (k % mod,) + (0,) * (self.f - 1)

    # -- arithmetic mod p^d ----------------------------------------------

    def add(self, a: Residue, b: Residue, d: int) -> Residue:
        mod = self.p**d
        if self.f == 1:
            return (a + b) % mod
        return tuple((x + y) % mod for x, y in zip(a, b))

    def neg(self, a: Residue, d: int) -> Residue:
        mod = self.p**d
        if self.f == 1:
            return (-a) % mod
        return tuple((-x) % mod for x in a)

    def mul(self, a: Residue, b: Residue, d: int) -> Residue:
        mod = self.p**d
        if self.f == 1:
            return (a * b) % mod
        # polynomial product, then reduction by the monic modulus lift
        f = self.f
        prod = [0] * (2 * f - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % mod
        lift = self.spec.modulus  # (c_0, ..., c_{f-1}, 1)
        for top in range(2 * f - 2, f - 1, -1):
            c = prod[top]
            if c:
                prod[top] = 0
                for k in range(f):
                    prod[top - f + k] = (prod[top - f + k] - c * lift[k]) % mod
        return tuple(prod[:f])

    def is_unit(self, a: Residue) -> bool:
        if self.f == 1:
            return a % self.p != 0
        return any(x % self.p for x in a)

    def inv(self, a: Residue, d: int) -> Residue:
        """Inverse of a unit residue mod p^d (Newton lift from F_q)."""
        if not self.is_unit(a):
            raise ZeroDivisionError("residue is not a unit")
        p = self.p
        if self.f == 1:
            return pow(a, -1, p**d)
        # start from the residue-field inverse, then double digits
        start = tables(self.spec).inv[_encode(a, p)]
        x: Residue = tuple(start // p**i % p for i in range(self.f))
        digits = 1
        while digits < d:
            digits = min(2 * digits, d)
            ax = self.mul(a, x, digits)
            two_minus = self.add(self.from_int(2, digits), self.neg(ax, digits), digits)
            x = self.mul(x, two_minus, digits)
        return x


def ring_for_q(q: int) -> RingO:
    return RingO(field_for_q(q))


# ---------------------------------------------------------------------------
# residue matrices as coefficient planes
# ---------------------------------------------------------------------------

def _int_product(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Row-major 4x4 product of integer matrices, unreduced."""
    rows = (a[0:4], a[4:8], a[8:12], a[12:16])
    cols = (b[0::4], b[1::4], b[2::4], b[3::4])
    return [
        a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3
        for a0, a1, a2, a3 in rows
        for b0, b1, b2, b3 in cols
    ]


def _plane_product(ring: RingO, d: int, a: Planes, b: Planes) -> Planes:
    """Product of two residue matrices mod p^d, each given as its f
    coefficient planes: the f^2 plane products are summed unreduced into
    2f - 1 planes, reduced once by the modulus lift and once mod p^d.  The
    result equals the entrywise RingO.mul / RingO.add composition."""
    f, lift, mod = ring.f, ring.spec.modulus, ring.p**d
    acc = [[0] * 16 for _ in range(2 * f - 1)]
    for i, pa in enumerate(a):
        for j, pb in enumerate(b):
            acc[i + j] = list(map(int.__add__, acc[i + j], _int_product(pa, pb)))
    # x^top = -x^(top - f) (c_0 + c_1 x + ... + c_{f-1} x^(f-1))
    for top in range(2 * f - 2, f - 1, -1):
        for k in range(f):
            if lift[k]:
                acc[top - f + k] = [
                    u - lift[k] * w for u, w in zip(acc[top - f + k], acc[top])
                ]
    return [[u % mod for u in plane] for plane in acc[:f]]


# ---------------------------------------------------------------------------
# coset representatives
# ---------------------------------------------------------------------------

def _torus_exponents(rep: CosetRep) -> Tuple[int, int, int, int]:
    return (2 * rep.i + rep.j, rep.i + rep.j, rep.i, 0)


def _exponent_spread(rep: CosetRep) -> int:
    """Deepest division the t_{i,j}-conjugation performs: max e_c - e_r.

    For i >= 1 this is 2i+j; for the i <= 0 representatives the spread is
    j, which exceeds 2i+j — the working precision must cover it.
    """
    exps = _torus_exponents(rep)
    return max(exps) - min(exps)


def _s_params(rep: CosetRep, p: int) -> Optional[Tuple[int, int, int]]:
    """The rational integers (x, y, z) of the representative's S(x, y, z),
    or None for a Diagonal representative, whose S is 1."""
    if isinstance(rep, Diagonal):
        return None
    if isinstance(rep, X):
        return p**rep.k, 0, 0
    if isinstance(rep, Y):
        return 0, p**rep.k, 0
    if isinstance(rep, Z):
        return 0, 0, p**rep.k
    if isinstance(rep, Skew):
        if rep.p != p:
            raise ValueError(f"representative lives at p={rep.p}, q has p={p}")
        return p**rep.k_x, p**rep.k_y, rep.u * p**rep.k_z
    raise TypeError(f"not a coset representative: {rep!r}")


# ---------------------------------------------------------------------------
# sampling Kl(n)
# ---------------------------------------------------------------------------

def _below(getrandbits, n: int, k: int) -> int:
    """``random.Random.randrange(n)`` for k = n.bit_length(): CPython's
    ``Random._randbelow_with_getrandbits``, so the ``getrandbits`` calls,
    and with them the stream, are the ones randrange makes.  Also
    ``randrange(1, m)`` is ``1 + _below(getrandbits, m - 1, k)``."""
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _layer_set(p: int, prec: int, depths) -> tuple:
    """The layers v of ``depths`` below prec as (p^v, p^(prec - v), its bit
    length), in increasing v, behind their count and the count's bit
    length."""
    usable = tuple(
        (p**v, p**(prec - v), (p**(prec - v)).bit_length())
        for v in sorted(depths) if 0 <= v < prec
    )
    return len(usable), len(usable).bit_length(), usable


class KlingenSampler:
    """Seeded sampler of Kl(n) elements at a fixed working precision.

    Uses the exact factorization  Kl(n) = S(p^n a, p^n b, p^n c) * levi *
    upper(o):  the levi is diag(t, A, det(A)/t) with A in GL(2, o) and the
    upper factor is the transposed S-group.  Every emitted matrix is
    integral with the five level positions divisible by p^n, and has unit
    similitude det(A).

    ``depths``, when given, lists valuation layers of interest: each free
    parameter is then drawn layered (uniform half the time, p^v times a
    unit with v among the layers a quarter, zero a quarter) instead of
    uniformly, so deep-valuation coincidences are seen within a realistic
    number of samples.  Either way every sample is a genuine Kl(n) element.

    The draws are pinned: each residue digit is one ``_below`` with a bit
    length fixed here, which calls ``getrandbits`` exactly as
    ``randrange`` would.  A unit mod p^d is drawn at f = 1 as r - r % p +
    randrange(1, p), at f > 1 by redrawing the whole tuple until it is a
    unit.  So every seed gives the samples of the randrange-based
    reference in the tests; the rg census in the tests pins them.
    """

    def __init__(
        self, q: int, n: int, prec: int, seed: int,
        depths: Optional[Sequence[int]] = None,
    ):
        if n < 1:
            raise ValueError(f"level n must be >= 1, got {n}")
        if prec < n + 2:
            raise PrecisionTooLow(f"prec={prec} < n+2={n + 2}")
        self.ring = ring_for_q(q)
        self.n = n
        self.prec = prec
        self.seed = seed
        self.depths = None if depths is None else tuple(sorted(set(depths)))
        self._rng = random.Random(seed)
        self._getrandbits, self._random = self._rng.getrandbits, self._rng.random
        p = self._p = self.ring.p
        self._shift = p**n
        self._mod = p**prec
        self._kmod = self._mod.bit_length()
        self._kunit = (p - 1).bit_length()
        # the lower-triangular parameters carry a built-in p^n shift, so the
        # layers relevant to them sit n lower
        self._layers, self._layers_low = (
            None if depths is None else _layer_set(p, prec, vs)
            for vs in (self.depths, {max(0, v - n) for v in self.depths or ()})
        )

    def _draw_int(self, layers) -> int:
        """One free parameter at f = 1, uniform or layered."""
        gb = self._getrandbits
        if layers is not None:
            roll = self._random()
            if roll >= 0.75:
                return 0
            count, k, usable = layers
            if roll >= 0.5 and count:
                step, span, kspan = usable[_below(gb, count, k)]
                r = _below(gb, span, kspan)
                return step * (r - r % self._p + 1 + _below(gb, self._p - 1, self._kunit))
        return _below(gb, self._mod, self._kmod)

    def _unit_tuple(self, span: int, k: int) -> List[int]:
        """A unit residue mod span at f > 1: whole tuples until one is a unit."""
        gb, p, f = self._getrandbits, self._p, self.ring.f
        while True:
            r = [_below(gb, span, k) for _ in range(f)]
            if any(x % p for x in r):
                return r

    def _draw_tuple(self, layers) -> Tuple[int, ...]:
        """One free parameter at f > 1, uniform or layered."""
        gb, f = self._getrandbits, self.ring.f
        if layers is not None:
            roll = self._random()
            if roll >= 0.75:
                return (0,) * f
            count, k, usable = layers
            if roll >= 0.5 and count:
                step, span, kspan = usable[_below(gb, count, k)]
                return tuple(step * x for x in self._unit_tuple(span, kspan))
        return tuple(_below(gb, self._mod, self._kmod) for _ in range(f))

    def _sample_residues(self) -> Planes:
        """One Kl(n) element mod p^prec as its coefficient planes."""
        if self.ring.f > 1:
            return self._sample_planes()
        gb, mod, p = self._getrandbits, self._mod, self._p
        draw, low, layers = self._draw_int, self._layers_low, self._layers
        shift = self._shift
        a, b, c = shift * draw(low), shift * draw(low), shift * draw(low)
        r = _below(gb, mod, self._kmod)
        t = r - r % p + 1 + _below(gb, p - 1, self._kunit)
        while True:
            a00, a01, a10, a11 = draw(layers), draw(layers), draw(layers), draw(layers)
            det = (a00 * a11 - a01 * a10) % mod
            if det % p:
                break
        dd = det * pow(t, -1, mod)
        xu, yu, zu = draw(layers), draw(layers), draw(layers)
        # lower * levi, row by row, then times upper: lower is S(a, b, c),
        # levi diag(t, A, dd) and upper has rows (1, xu, yu, zu), (0, 1, 0, yu),
        # (0, 0, 1, -xu), (0, 0, 0, 1)
        lower_levi = (
            (t, 0, 0, 0),
            (a * t, a00, a01, 0),
            (b * t, a10, a11, 0),
            (c * t, b * a00 - a * a10, b * a01 - a * a11, dd),
        )
        return [[
            x % mod
            for r0, r1, r2, r3 in lower_levi
            for x in (r0, r0 * xu + r1, r0 * yu + r2, r0 * zu + r1 * yu - r2 * xu + r3)
        ]]

    def _sample_planes(self) -> Planes:
        """_sample_residues at f > 1: det(A) is tested for a unit mod p on
        the F_q encodings of the draws, and formed with t^{-1} only once
        it is one."""
        ring, d, p, mod = self.ring, self.prec, self._p, self._mod
        draw, layers = self._draw_tuple, self._layers
        tab = tables(ring.spec)
        a, b, c = (tuple(self._shift * x % mod for x in draw(self._layers_low))
                   for _ in range(3))
        t = tuple(self._unit_tuple(mod, self._kmod))
        while True:
            a00, a01, a10, a11 = draw(layers), draw(layers), draw(layers), draw(layers)
            e00, e01, e10, e11 = (_encode(x, p) for x in (a00, a01, a10, a11))
            if tab.add[tab.mul[e00][e11]][tab.neg[tab.mul[e01][e10]]]:
                break
        det = ring.add(ring.mul(a00, a11, d), ring.neg(ring.mul(a01, a10, d), d), d)
        dd = ring.mul(det, ring.inv(t, d), d)
        xu, yu, zu = draw(layers), draw(layers), draw(layers)
        one, zero = ring.from_int(1, d), ring.from_int(0, d)
        lower = (one, zero, zero, zero, a, one, zero, zero,
                 b, zero, one, zero, c, b, ring.neg(a, d), one)
        levi = (t, zero, zero, zero, zero, a00, a01, zero,
                zero, a10, a11, zero, zero, zero, zero, dd)
        upper = (one, xu, yu, zu, zero, one, zero, yu,
                 zero, zero, one, ring.neg(xu, d), zero, zero, zero, one)
        lower, levi, upper = ([list(pl) for pl in zip(*m)] for m in (lower, levi, upper))
        return _plane_product(ring, d, _plane_product(ring, d, lower, levi), upper)


# ---------------------------------------------------------------------------
# the R_g oracle
# ---------------------------------------------------------------------------

def _conjugate(e: List[int], x: int, y: int, z: int) -> List[int]:
    """S(x, y, z) e S(x, y, z)^{-1} for one row-major integer plane e,
    unreduced: S is the row operations r1 += x r0, r2 += y r0,
    r3 += z r0 + y r1 - x r2, and S^{-1} = S(-x, -y, -z) the column
    operations c0 -= x c1 + y c2 + z c3, c1 -= y c3, c2 += x c3."""
    e = list(e)
    for c in range(4):
        r0, r1, r2 = e[c], e[4 + c], e[8 + c]
        e[4 + c] = r1 + x * r0
        e[8 + c] = r2 + y * r0
        e[12 + c] += z * r0 + y * r1 - x * r2
    for r in range(0, 16, 4):
        c1, c2, c3 = e[r + 1], e[r + 2], e[r + 3]
        e[r] -= x * c1 + y * c2 + z * c3
        e[r + 1] = c1 - y * c3
        e[r + 2] = c2 + x * c3
    return e


def _conjugation_plan(rep: CosetRep, p: int) -> tuple:
    """What _reduce_fast needs of a representative: S's (x, y, z) or None,
    the (entry, p^-delta) pairs that must divide (delta < 0, deepest
    first), and the (entry, p^-delta) pairs that reduce to the result
    (delta <= 0); delta = e_r - e_c over the torus exponents."""
    exps = _torus_exponents(rep)
    kept = [(4 * r + c, p**(exps[c] - exps[r]))
            for r in range(4) for c in range(4) if exps[r] <= exps[c]]
    deep = sorted(((i, step) for i, step in kept if step > 1), key=lambda pair: -pair[1])
    return _s_params(rep, p), tuple(deep), tuple(kept)


def _reduce_fast(spec: FieldSpec, plan: tuple, h: Planes) -> Optional[Mat4]:
    """Reduction mod p of g h g^{-1} for g = t * S (t diagonal), or None
    when it is not integral.

    S h S^{-1} is row and column operations on each coefficient plane of h
    (none for a Diagonal representative), left unreduced.  The entries with
    delta < 0 are tested for divisibility by p^-delta first, so the
    encodings (base-p digits of the shifted coefficients) are built only
    for samples that pass; entries with delta >= 1 reduce to 0.  Neither
    needs a reduction mod p^d, because d >= -delta + 1 by the precision
    rule.
    """
    s, deep, kept = plan
    if s is not None:
        h = [_conjugate(e, *s) for e in h]
    for e in h:
        for i, step in deep:
            if e[i] % step:
                return None
    p = spec.p
    out = [0] * 16
    if len(h) == 1:
        e = h[0]
        for i, step in kept:
            out[i] = e[i] // step % p
    else:
        for i, step in kept:
            out[i] = _encode([e[i] // step for e in h], p)
    return Mat4(spec, tuple(out))


def estimate_Rg(rep: CosetRep, n: int, q: int, budget: int = 500,
                seed: int = 0) -> Subgroup:
    """Sampled reconstruction of R_g for a support representative.

    Draws Kl(n) elements, reduces those whose conjugate is integral, and
    returns the subgroup the reductions generate; its generators are the
    reductions that enlarged it, in order, each adjoined to the group so far
    by ``groupfq.adjoin`` as it is found.  The result is always
    contained in the true R_g; convergence is declared after three
    consecutive batches that add no new subgroup elements, and spending the
    whole budget without that raises NonConvergence.

    The sampler is pointed at the valuation layers given by the positive
    differences of the representative's torus exponents: those are exactly
    the depths at which the conjugate's entries must vanish or contribute,
    and uniform draws hit them too rarely to converge within any sane
    budget.  Residues are taken mod p^(n + spread + 2), two fixed guard
    digits beyond n + spread (see the module docstring), and a closure
    beyond ``groupfq.CLOSURE_BOUND`` raises ClosureTooLarge.  A Skew
    representative whose p is not the characteristic of q raises
    ValueError.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    spec = field_for_q(q)
    plan = _conjugation_plan(rep, spec.p)
    m = n + _exponent_spread(rep) + 2
    exps = _torus_exponents(rep)
    depths = sorted(
        {ea - eb for ea in exps for eb in exps if ea > eb}
    )
    sampler = KlingenSampler(q, n, m, seed, depths=depths)
    current = make_subgroup([gsp_elem(Mat4.identity(spec))])
    # the current group's matrices, for membership by one set lookup
    members = {Mat4.identity(spec).e}
    batch = max(1, budget // 10)
    used = 0
    stable = 0
    while used < budget:
        fresh = False
        for _ in range(min(batch, budget - used)):
            h = sampler._sample_residues()
            used += 1
            mat = _reduce_fast(spec, plan, h)
            if mat is not None and mat.e not in members:
                current = adjoin(current, gsp_elem(mat))
                members = set(map(tuple, current.rows.tolist()))
                fresh = True
        if fresh:
            stable = 0
        else:
            stable += 1
            if stable >= 3:
                return current
    raise NonConvergence(
        f"budget {budget} exhausted before three stable batches "
        f"(order so far {current.order})"
    )
