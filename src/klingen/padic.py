"""Residues of the p-adic integers and the randomized R_g oracle.

The base ring is the unramified extension o of Z_p with residue field F_q
(q = p^f); the uniformizer is p itself.  Elements of o/p^d are "residues":
a plain int mod p^d when f = 1, a length-f tuple of ints mod p^d (the
coefficient vector on the power basis of a fixed monic lift of the residue
field's modulus) when f > 1.  On top of the residues sit:

RingO / _ResMat
    scalar residue arithmetic mod p^d, and 4x4 residue matrices that
    multiply as integer matrices: at f = 1 each entry is a sum of four
    products reduced once mod p^d; at f > 1 the f coefficient planes are
    multiplied pairwise, summed unreduced, then reduced once by the
    modulus lift and once mod p^d.

KlingenSampler
    seeded sampling of the level-n Klingen subgroup via its exact
    factorization  lower(p^n) * levi * upper(o).  At f = 1 it draws
    inline, making exactly the random.Random calls of RingO.random /
    random_unit / random_layered in the same order, so every seed yields
    the samples the RingO path yields; at f > 1 it draws through RingO.

_reduce_fast
    for a support representative g = t_{i,j} S(x, y, z), with
    t_{i,j} = diag(p^{2i+j}, p^{i+j}, p^i, 1) and S(x, y, z) the lower
    unipotent with rows (1), (x,1), (y,0,1), (z,y,-x,1): the reduction
    mod p of g h g^{-1} written straight into a Mat4 of F_q encodings, or
    None when g h g^{-1} is not integral.  The conjugation by t is a
    per-entry shift by p^(e_r - e_c), so integrality is a divisibility
    check on S h S^{-1} mod p^d.  Tests hold it to an exact Fraction
    conjugation of integer lifts of h.

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
g h g^{-1} by a multiple of p^(d - spread).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .cosets import CosetRep, Diagonal, Skew, X, Y, Z
from .errors import NonConvergence, PrecisionTooLow
from .ffield import FieldSpec, FqElem, field_for_q
from .groupfq import Mat4, Subgroup, gsp_elem, make_subgroup, subgroup_closure

Residue = Union[int, Tuple[int, ...]]


# ---------------------------------------------------------------------------
# the ring o/p^d and its residue arithmetic
# ---------------------------------------------------------------------------

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

    # -- construction ---------------------------------------------------

    def from_int(self, k: int, d: int) -> Residue:
        mod = self.p**d
        if self.f == 1:
            return k % mod
        return (k % mod,) + (0,) * (self.f - 1)

    def random(self, rng: random.Random, d: int) -> Residue:
        mod = self.p**d
        if self.f == 1:
            return rng.randrange(mod)
        return tuple(rng.randrange(mod) for _ in range(self.f))

    def random_unit(self, rng: random.Random, d: int) -> Residue:
        """Uniform unit residue mod p^d."""
        if self.f == 1:
            r = rng.randrange(self.p**d)
            return r - r % self.p + rng.randrange(1, self.p)
        while True:
            r = self.random(rng, d)
            if self.is_unit(r):
                return r

    def random_layered(
        self, rng: random.Random, d: int, depths: Sequence[int]
    ) -> Residue:
        """Residue drawn with one of three shapes: uniform mod p^d (half the
        time), exactly p^v * unit with v picked from ``depths`` (a quarter),
        or the zero residue (a quarter).

        Every outcome is a legitimate element of o/p^d; the mix only spreads
        the sampled valuations across the given layers instead of
        concentrating near 0 as the uniform draw does.
        """
        roll = rng.random()
        usable = [v for v in depths if 0 <= v < d]
        if roll < 0.5 or (roll < 0.75 and not usable):
            return self.random(rng, d)
        if roll < 0.75:
            v = usable[rng.randrange(len(usable))]
            unit = self.random_unit(rng, d - v)
            if self.f == 1:
                return (self.p**v * unit) % self.p**d
            step = self.from_int(self.p**v, d)
            return self.mul(step, self.normalize(unit, d), d)
        return self.from_int(0, d)

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
        if self.f == 1:
            return pow(a, -1, self.p**d)
        # start from the residue-field inverse, then double digits
        fq = self.reduce_mod_p(a)
        x: Residue = tuple(fq.inverse().coeffs)
        digits = 1
        while digits < d:
            digits = min(2 * digits, d)
            ax = self.mul(a, x, digits)
            two_minus = self.add(self.from_int(2, digits), self.neg(ax, digits), digits)
            x = self.mul(x, two_minus, digits)
        return x

    def normalize(self, a: Residue, d: int) -> Residue:
        mod = self.p**d
        if self.f == 1:
            return a % mod
        return tuple(x % mod for x in a)

    def reduce_mod_p(self, a: Residue) -> FqElem:
        if self.f == 1:
            return self.spec.scalar(a)
        return self.spec.elem([x % self.p for x in a])


def ring_for_q(q: int) -> RingO:
    return RingO(field_for_q(q))


# ---------------------------------------------------------------------------
# residue matrices (the arithmetic workhorse)
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


class _ResMat:
    """4x4 matrix of plain residues mod p^d — everything exactly integral.

    Products run on plain ints.  At f = 1 each entry is one integer sum of
    four products, reduced once mod p^d.  At f > 1 both matrices are split
    into their f coefficient planes, the f^2 plane products are summed
    unreduced into 2f - 1 planes, and these are reduced once by the modulus
    lift and once mod p^d.  Either way the result equals the entrywise
    RingO.mul / RingO.add composition.
    """

    __slots__ = ("ring", "d", "mod", "e")

    def __init__(self, ring: RingO, d: int, entries: Sequence[Residue]):
        self.ring = ring
        self.d = d
        self.mod = ring.p**d
        self.e = list(entries)

    @classmethod
    def from_rows(cls, ring: RingO, d: int, rows) -> "_ResMat":
        """Entries given as ints (any lift) or, at f > 1, residue tuples."""
        mod = ring.p**d
        if ring.f == 1:
            return cls(ring, d, [x % mod for row in rows for x in row])
        pad = (0,) * (ring.f - 1)
        return cls(ring, d, [
            (x % mod,) + pad if isinstance(x, int) else x
            for row in rows for x in row
        ])

    def mul(self, other: "_ResMat") -> "_ResMat":
        ring, mod = self.ring, self.mod
        if ring.f == 1:
            return _ResMat(ring, self.d, [x % mod for x in _int_product(self.e, other.e)])
        f, lift = ring.f, ring.spec.modulus  # lift = (c_0, ..., c_{f-1}, 1)
        pa = [[x[i] for x in self.e] for i in range(f)]
        pb = [[y[i] for y in other.e] for i in range(f)]
        acc = [[0] * 16 for _ in range(2 * f - 1)]
        for i in range(f):
            for j in range(f):
                acc[i + j] = list(map(int.__add__, acc[i + j], _int_product(pa[i], pb[j])))
        # x^top = -x^(top - f) (c_0 + c_1 x + ... + c_{f-1} x^(f-1))
        for top in range(2 * f - 2, f - 1, -1):
            for k in range(f):
                if lift[k]:
                    acc[top - f + k] = [
                        u - lift[k] * w for u, w in zip(acc[top - f + k], acc[top])
                    ]
        planes = [[u % mod for u in plane] for plane in acc[:f]]
        return _ResMat(ring, self.d, list(zip(*planes)))


# ---------------------------------------------------------------------------
# coset representatives
# ---------------------------------------------------------------------------

def _s_pair(ring: RingO, rep: CosetRep, d: int) -> Tuple[_ResMat, _ResMat]:
    """S(x, y, z) of a representative and its inverse S(-x, -y, -z), as
    residue matrices mod p^d (both are exactly integral)."""
    p = ring.p
    x = y = z = 0
    if isinstance(rep, X):
        x = p**rep.k
    elif isinstance(rep, Y):
        y = p**rep.k
    elif isinstance(rep, Z):
        z = p**rep.k
    elif isinstance(rep, Skew):
        if rep.p != p:
            raise ValueError(f"representative lives at p={rep.p}, q has p={p}")
        x, y, z = p**rep.k_x, p**rep.k_y, rep.u * p**rep.k_z
    elif not isinstance(rep, Diagonal):
        raise TypeError(f"not a coset representative: {rep!r}")
    return tuple(
        _ResMat.from_rows(ring, d, [[1, 0, 0, 0], [a, 1, 0, 0], [b, 0, 1, 0], [c, b, -a, 1]])
        for a, b, c in ((x, y, z), (-x, -y, -z))
    )


def _torus_exponents(rep: CosetRep) -> Tuple[int, int, int, int]:
    return (2 * rep.i + rep.j, rep.i + rep.j, rep.i, 0)


def _exponent_spread(rep: CosetRep) -> int:
    """Deepest division the t_{i,j}-conjugation performs: max e_c - e_r.

    For i >= 1 this is 2i+j; for the i <= 0 representatives the spread is
    j, which exceeds 2i+j — the working precision must cover it.
    """
    exps = _torus_exponents(rep)
    return max(exps) - min(exps)


# ---------------------------------------------------------------------------
# sampling Kl(n)
# ---------------------------------------------------------------------------

class KlingenSampler:
    """Seeded sampler of Kl(n) elements at a fixed working precision.

    Uses the exact factorization  Kl(n) = S(p^n a, p^n b, p^n c) * levi *
    upper(o):  the levi is diag(t, A, det(A)/t) with A in GL(2, o) and the
    upper factor is the transposed S-group.  Every emitted matrix is
    integral with the five level positions divisible by p^n, and has unit
    similitude det(A).

    ``depths``, when given, lists valuation layers of interest: each free
    parameter is then drawn with RingO.random_layered instead of uniformly,
    so deep-valuation coincidences are seen within a realistic number of
    samples.  Either way every sample is a genuine Kl(n) element.

    At f = 1 the draws, the levi determinant, its quotient by t and the
    product of the three factors are done inline on ints.  The draws make
    the same ``random.Random`` calls in the same order as RingO.random,
    random_unit and random_layered, so a seed gives the samples the RingO
    path gives.
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
        # the lower-triangular parameters carry a built-in p^n shift, so the
        # layers relevant to them sit n lower
        self._depths_low = (
            None if depths is None
            else tuple(sorted({max(0, v - n) for v in self.depths}))
        )
        self._rng = random.Random(seed)
        p = self._p = self.ring.p
        self._mod = p**prec
        # the layers random_layered can use, as (p^v, p^(prec - v)) pairs
        self._layers, self._layers_low = (
            None if layers is None
            else tuple((p**v, p**(prec - v)) for v in layers if 0 <= v < prec)
            for layers in (self.depths, self._depths_low)
        )

    def _draw(self, low: bool = False) -> Residue:
        layers = self._depths_low if low else self.depths
        if layers is None:
            return self.ring.random(self._rng, self.prec)
        return self.ring.random_layered(self._rng, self.prec, layers)

    def _draw_int(self, layers) -> int:
        """RingO.random (layers None) or random_layered at f = 1."""
        rng = self._rng
        if layers is not None:
            roll = rng.random()
            if roll >= 0.75:
                return 0
            if roll >= 0.5 and layers:
                step, span = layers[rng.randrange(len(layers))]
                r = rng.randrange(span)
                return step * (r - r % self._p + rng.randrange(1, self._p))
        return rng.randrange(self._mod)

    def _sample_residues(self) -> _ResMat:
        if self.ring.f > 1:
            return self._sample_via_ring()
        rng, mod, p = self._rng, self._mod, self._p
        draw, low, layers = self._draw_int, self._layers_low, self._layers
        shift = p**self.n
        a, b, c = shift * draw(low), shift * draw(low), shift * draw(low)
        r = rng.randrange(mod)
        t = r - r % p + rng.randrange(1, p)
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
        return _ResMat(self.ring, self.prec, [
            x % mod
            for r0, r1, r2, r3 in lower_levi
            for x in (r0, r0 * xu + r1, r0 * yu + r2, r0 * zu + r1 * yu - r2 * xu + r3)
        ])

    def _sample_via_ring(self) -> _ResMat:
        """_sample_residues through RingO's scalar methods: the path at
        f > 1, and at f = 1 the reference the int path is tested against."""
        ring, d, n, rng = self.ring, self.prec, self.n, self._rng
        shift = ring.from_int(ring.p**n, d)
        a, b, c = (ring.mul(shift, self._draw(low=True), d) for _ in range(3))
        lower = _ResMat.from_rows(
            ring, d,
            [[1, 0, 0, 0], [a, 1, 0, 0], [b, 0, 1, 0], [c, b, ring.neg(a, d), 1]],
        )
        t = ring.random_unit(rng, d)
        while True:
            a00, a01, a10, a11 = (self._draw() for _ in range(4))
            det = ring.add(
                ring.mul(a00, a11, d), ring.neg(ring.mul(a01, a10, d), d), d
            )
            if ring.is_unit(det):
                break
        dd = ring.mul(det, ring.inv(t, d), d)
        levi = _ResMat.from_rows(
            ring, d,
            [[t, 0, 0, 0], [0, a00, a01, 0], [0, a10, a11, 0], [0, 0, 0, dd]],
        )
        xu, yu, zu = (self._draw() for _ in range(3))
        upper = _ResMat.from_rows(
            ring, d,
            [[1, xu, yu, zu], [0, 1, 0, yu], [0, 0, 1, ring.neg(xu, d)], [0, 0, 0, 1]],
        )
        return lower.mul(levi).mul(upper)


# ---------------------------------------------------------------------------
# the R_g oracle
# ---------------------------------------------------------------------------

def _reduce_fast(
    ring: RingO, exps: Tuple[int, int, int, int],
    s_res: _ResMat, sinv_res: _ResMat, h: _ResMat, d: int,
) -> Optional[Mat4]:
    """Reduction mod p of g h g^{-1} for g = t * S (t diagonal), or None
    when it is not integral.

    Entries go straight to F_q encodings (base-p digits of the
    coefficients).  A residue that vanishes mod p^d reduces to 0, which is
    sound because d >= -delta + 1 by the precision rule.
    """
    b = s_res.mul(h).mul(sinv_res).e
    p, f = ring.p, ring.f
    out = []
    for r in range(4):
        for c in range(4):
            delta = exps[r] - exps[c]
            if delta >= 1:
                out.append(0)
                continue
            x, step = b[4 * r + c], p**-delta
            if f == 1:
                if x % step:
                    return None
                out.append(x // step % p)
                continue
            if any(y % step for y in x):
                return None
            enc = 0
            for y in reversed(x):
                enc = enc * p + y // step % p
            out.append(enc)
    return Mat4(ring.spec, tuple(out))


def estimate_Rg(rep: CosetRep, n: int, q: int, budget: int = 500,
                seed: int = 0) -> Subgroup:
    """Sampled reconstruction of R_g for a support representative.

    Draws Kl(n) elements, reduces those whose conjugate is integral, and
    returns the subgroup the reductions generate; its generators are the
    reductions that enlarged it, in order.  The result is always
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
    ring = ring_for_q(q)
    m = n + _exponent_spread(rep) + 2
    s_res, sinv_res = _s_pair(ring, rep, m)
    spec = ring.spec
    exps = _torus_exponents(rep)
    depths = sorted(
        {ea - eb for ea in exps for eb in exps if ea > eb}
    )
    sampler = KlingenSampler(q, n, m, seed, depths=depths)
    gens = []
    current = make_subgroup([gsp_elem(Mat4.identity(spec))])
    batch = max(1, budget // 10)
    used = 0
    stable = 0
    while used < budget:
        fresh = False
        for _ in range(min(batch, budget - used)):
            h = sampler._sample_residues()
            used += 1
            mat = _reduce_fast(ring, exps, s_res, sinv_res, h, m)
            if mat is not None and mat not in current:
                gens.append(gsp_elem(mat))
                current = subgroup_closure(gens)
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
