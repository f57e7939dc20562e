"""Truncated p-adic arithmetic and the randomized R_g oracle.

The base ring is the unramified extension o of Z_p with residue field F_q
(q = p^f); the uniformizer is p itself.  Elements of o/p^d are "residues":
a plain int mod p^d when f = 1, a length-f tuple of ints mod p^d (the
coefficient vector on the power basis of a fixed monic lift of the residue
field's modulus) when f > 1.  On top of the residues sit:

TruncAdic
    a field element tracked as (valuation, unit residue, digit count),
    or an exact-zero flag meaning only "valuation >= prec".  Addition
    records cancellation-induced precision loss; nothing is ever rounded
    optimistically.

PadicMat
    a 4x4 matrix of TruncAdic sharing one ring, with matrix product and
    adjugate inverse.

build_rep / build_rep_inverse
    the support coset representatives t_{i,j} S(x, y, z) (and their exact
    inverses), where t_{i,j} = diag(p^{2i+j}, p^{i+j}, p^i, 1) and
    S(x, y, z) is the lower unipotent with rows (1), (x,1), (y,0,1),
    (z,y,-x,1).

conjugate_reduce
    g, h -> reduction of g h g^{-1} mod p when it is provably integral,
    None when provably not, PrecisionInsufficient otherwise.  Three-valued
    on purpose: the oracle never guesses.

KlingenSampler / estimate_Rg
    seeded sampling of the level-n Klingen subgroup via its exact
    factorization  lower(p^n) * levi * upper(o),  and regrowth of
    R_g = image of g Kl(n) g^{-1} \\cap K in GSp(4, F_q) as the closure of
    the sampled reductions.  Convergence heuristic: three consecutive
    batches that add no new subgroup elements.

The sampler's inner loop runs on plain Python ints, not on one RingO call
per scalar.  Residue 4x4 matrices (_ResMat) multiply as integer matrices:
at f = 1 each entry is a sum of four products reduced once mod p^d; at
f > 1 the f coefficient planes are multiplied pairwise, summed unreduced,
then reduced once by the modulus lift and once mod p^d.  At f = 1 the
sampler also draws inline, making exactly the random.Random calls of
RingO.random / random_unit / random_layered in the same order, so every
seed yields the samples the RingO path yields; at f > 1 it draws through
RingO.  _reduce_fast writes F_q encodings straight into a Mat4.  Tests hold
all three to the scalar RingO arithmetic.

The minimum working precision for conjugating Kl(n) elements by a
representative is  n + spread + 2,  where spread is the largest difference
of the torus exponents (2i+j, i+j, i, 0) — the deepest division the
conjugation performs (2i+j when i >= 1, but j for the i <= 0
representatives).  The level needs n digits and two digits of slack absorb
cancellation.  estimate_Rg uses exactly that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .cosets import CosetRep, Diagonal, Skew, X, Y, Z
from .errors import (
    NonConvergence,
    PrecisionExhausted,
    PrecisionInsufficient,
    PrecisionTooLow,
)
from .ffield import FieldSpec, FqElem, field_for_q
from .groupfq import GSpElem, Mat4, Subgroup, gsp_elem, subgroup_closure

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

    # -- valuation structure ----------------------------------------------

    def val(self, a: Residue, d: int) -> Optional[int]:
        """p-adic valuation of a residue mod p^d; None when a == 0 mod p^d."""
        coeffs = (a,) if self.f == 1 else a
        best: Optional[int] = None
        for c in coeffs:
            c %= self.p**d
            if c == 0:
                continue
            v = 0
            while c % self.p == 0:
                c //= self.p
                v += 1
            if best is None or v < best:
                best = v
        return best

    def shift_down(self, a: Residue, v: int) -> Residue:
        """Divide an exactly divisible residue by p^v."""
        step = self.p**v
        if self.f == 1:
            return a // step
        return tuple(x // step for x in a)

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
# TruncAdic: valuation + unit residue + tracked precision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncAdic:
    """One truncated element of the p-adic field.

    Nonzero: ``val`` is the exact valuation, ``unit`` a unit residue known
    mod p^prec (prec >= 1 significant digits); the element is known mod
    p^(val+prec).  Exact-zero flag: ``val`` is None and ``prec`` is the
    absolute bound — all that is known is val >= prec.
    """

    ring: RingO
    val: Optional[int]
    unit: Optional[Residue]
    prec: int

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ring: RingO, prec: int) -> "TruncAdic":
        return TruncAdic(ring, None, None, prec)

    @staticmethod
    def exact(ring: RingO, val: int, unit: int = 1, prec: int = 1) -> "TruncAdic":
        """unit * p^val with the unit given as an integer lift."""
        if prec < 1:
            raise PrecisionTooLow(f"need at least one digit, got prec={prec}")
        if unit % ring.p == 0:
            raise ValueError(f"{unit} is not a unit lift at p={ring.p}")
        return TruncAdic(ring, val, ring.from_int(unit, prec), prec)

    @staticmethod
    def from_residue(ring: RingO, res: Residue, d: int, shift: int = 0) -> "TruncAdic":
        """The element p^shift * res for a residue known mod p^d."""
        res = ring.normalize(res, d)
        v = ring.val(res, d)
        if v is None:
            return TruncAdic.zero(ring, d + shift)
        unit = ring.normalize(ring.shift_down(res, v), d - v)
        return TruncAdic(ring, v + shift, unit, d - v)

    # -- structure ----------------------------------------------------------

    @property
    def is_zero_flag(self) -> bool:
        return self.val is None

    @property
    def abs_prec(self) -> int:
        """The element is known modulo p^abs_prec."""
        return self.prec if self.val is None else self.val + self.prec

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "TruncAdic") -> None:
        if self.ring != other.ring:
            raise ValueError("mixed rings")

    def __add__(self, other: "TruncAdic") -> "TruncAdic":
        self._check(other)
        ring = self.ring
        cap = min(self.abs_prec, other.abs_prec)
        if self.val is None and other.val is None:
            return TruncAdic.zero(ring, cap)
        if self.val is None or other.val is None:
            nz = other if self.val is None else self
            if nz.val >= cap:
                return TruncAdic.zero(ring, cap)
            digits = cap - nz.val
            return TruncAdic(ring, nz.val, ring.normalize(nz.unit, digits), digits)
        lo, hi = (self, other) if self.val <= other.val else (other, self)
        if lo.val >= cap:
            return TruncAdic.zero(ring, cap)
        digits = cap - lo.val
        a = ring.normalize(lo.unit, digits)
        delta = hi.val - lo.val
        if delta >= digits:
            s = a
        else:
            shifted = ring.mul(
                ring.from_int(ring.p**delta, digits),
                ring.normalize(hi.unit, digits),
                digits,
            )
            s = ring.add(a, shifted, digits)
        v = ring.val(s, digits)
        if v is None:
            return TruncAdic.zero(ring, cap)
        unit = ring.normalize(ring.shift_down(s, v), digits - v)
        return TruncAdic(ring, lo.val + v, unit, digits - v)

    def __neg__(self) -> "TruncAdic":
        if self.val is None:
            return self
        return TruncAdic(self.ring, self.val, self.ring.neg(self.unit, self.prec), self.prec)

    def __sub__(self, other: "TruncAdic") -> "TruncAdic":
        return self + (-other)

    def __mul__(self, other: "TruncAdic") -> "TruncAdic":
        self._check(other)
        ring = self.ring
        if self.val is None and other.val is None:
            return TruncAdic.zero(ring, self.prec + other.prec)
        if self.val is None or other.val is None:
            z, nz = (self, other) if self.val is None else (other, self)
            return TruncAdic.zero(ring, z.prec + nz.val)
        digits = min(self.prec, other.prec)
        unit = ring.mul(
            ring.normalize(self.unit, digits),
            ring.normalize(other.unit, digits),
            digits,
        )
        return TruncAdic(ring, self.val + other.val, unit, digits)

    def inverse(self) -> "TruncAdic":
        if self.val is None:
            raise PrecisionExhausted(
                f"cannot invert a residue indistinguishable from 0 (val >= {self.prec})"
            )
        return TruncAdic(
            self.ring, -self.val, self.ring.inv(self.unit, self.prec), self.prec
        )

    # -- decisions -------------------------------------------------------------

    def is_integral(self) -> Optional[bool]:
        """True / False when provable at this precision, None otherwise."""
        if self.val is not None:
            return self.val >= 0
        if self.prec >= 0:
            return True
        return None

    def residue_mod_p(self) -> FqElem:
        """Reduction mod p of a provably integral element."""
        spec = self.ring.spec
        if self.val is None:
            if self.prec >= 1:
                return spec.zero
            raise PrecisionInsufficient(
                f"residue mod p unknown: only val >= {self.prec} is known"
            )
        if self.val < 0:
            raise ValueError("residue of a non-integral element")
        if self.val >= 1:
            return spec.zero
        return self.ring.reduce_mod_p(self.unit)

    def __repr__(self) -> str:
        if self.val is None:
            return f"O(p^{self.prec})"
        return f"p^{self.val}*{self.unit} + O(p^{self.abs_prec})"


def trunc_arith(a: TruncAdic, b: Optional[TruncAdic], op: str) -> TruncAdic:
    """Dispatcher surface over the TruncAdic operators."""
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "inv":
        return a.inverse()
    raise ValueError(f"op must be add, mul or inv, got {op!r}")


# ---------------------------------------------------------------------------
# residue matrices (the arithmetic workhorse) and PadicMat
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


@dataclass(frozen=True)
class PadicMat:
    """A 4x4 matrix of TruncAdic entries over one ring.

    ``prec_floor`` is the declared base precision the matrix was built at;
    individual entries may carry more absolute precision (exact powers) or
    less (after cancellation).
    """

    ring: RingO
    entries: Tuple[TruncAdic, ...]
    prec_floor: int

    def entry(self, r: int, c: int) -> TruncAdic:
        return self.entries[4 * r + c]

    @classmethod
    def from_rows(cls, ring: RingO, rows, prec_floor: int) -> "PadicMat":
        flat = tuple(x for row in rows for x in row)
        if len(flat) != 16:
            raise ValueError("need 4x4 entries")
        return cls(ring, flat, prec_floor)

    @classmethod
    def identity(cls, ring: RingO, prec: int) -> "PadicMat":
        one = TruncAdic.exact(ring, 0, 1, prec)
        zero = TruncAdic.zero(ring, prec)
        rows = [[one if r == c else zero for c in range(4)] for r in range(4)]
        return cls.from_rows(ring, rows, prec)

    @classmethod
    def from_residues(cls, res: _ResMat) -> "PadicMat":
        entries = tuple(
            TruncAdic.from_residue(res.ring, x, res.d) for x in res.e
        )
        return cls(res.ring, entries, res.d)

    def __mul__(self, other: "PadicMat") -> "PadicMat":
        if self.ring != other.ring:
            raise ValueError("mixed rings")
        a, b = self.entries, other.entries
        out = []
        for r in range(0, 16, 4):
            for c in range(4):
                acc = a[r] * b[c]
                acc = acc + a[r + 1] * b[c + 4]
                acc = acc + a[r + 2] * b[c + 8]
                acc = acc + a[r + 3] * b[c + 12]
                out.append(acc)
        return PadicMat(self.ring, tuple(out), min(self.prec_floor, other.prec_floor))


def _det3(m: PadicMat, rows: Sequence[int], cols: Sequence[int]) -> TruncAdic:
    (r0, r1, r2), (c0, c1, c2) = rows, cols
    e = m.entry
    return (
        e(r0, c0) * (e(r1, c1) * e(r2, c2) - e(r1, c2) * e(r2, c1))
        - e(r0, c1) * (e(r1, c0) * e(r2, c2) - e(r1, c2) * e(r2, c0))
        + e(r0, c2) * (e(r1, c0) * e(r2, c1) - e(r1, c1) * e(r2, c0))
    )


def padic_inverse(m: PadicMat) -> PadicMat:
    """Adjugate inverse; raises PrecisionExhausted when det ~ 0."""
    idx = (0, 1, 2, 3)
    cof = [[None] * 4 for _ in range(4)]
    for r in range(4):
        rows = [i for i in idx if i != r]
        for c in range(4):
            cols = [i for i in idx if i != c]
            minor = _det3(m, rows, cols)
            cof[r][c] = -minor if (r + c) % 2 else minor
    det = TruncAdic.zero(m.ring, 10**9)
    for c in range(4):
        det = det + m.entry(0, c) * cof[0][c]
    det_inv = det.inverse()
    rows = [[cof[c][r] * det_inv for c in range(4)] for r in range(4)]
    return PadicMat.from_rows(m.ring, rows, m.prec_floor)


# ---------------------------------------------------------------------------
# coset representatives
# ---------------------------------------------------------------------------

def _svals(rep: CosetRep) -> Tuple[int, int, Optional[Tuple[int, int]],
                                   Optional[Tuple[int, int]], Optional[Tuple[int, int]]]:
    """(i, j, x, y, z) with each of x, y, z as (valuation, unit lift) or None."""
    if isinstance(rep, Diagonal):
        return rep.i, rep.j, None, None, None
    if isinstance(rep, X):
        return rep.i, rep.j, (rep.k, 1), None, None
    if isinstance(rep, Y):
        return rep.i, rep.j, None, (rep.k, 1), None
    if isinstance(rep, Z):
        return rep.i, rep.j, None, None, (rep.k, 1)
    if isinstance(rep, Skew):
        return rep.i, rep.j, (rep.k_x, 1), (rep.k_y, 1), (rep.k_z, rep.u)
    raise TypeError(f"not a coset representative: {rep!r}")


def _torus_exponents(rep: CosetRep) -> Tuple[int, int, int, int]:
    i, j, *_ = _svals(rep)
    return (2 * i + j, i + j, i, 0)


def _exponent_spread(rep: CosetRep) -> int:
    """Deepest division the t_{i,j}-conjugation performs: max e_c - e_r.

    For i >= 1 this is 2i+j; for the i <= 0 representatives the spread is
    j, which exceeds 2i+j — the working precision must cover it.
    """
    exps = _torus_exponents(rep)
    return max(exps) - min(exps)


def _min_prec(rep: CosetRep) -> int:
    return max(1, _exponent_spread(rep) + 2)


def _entry(ring: RingO, spec_pair: Optional[Tuple[int, int]], prec: int,
           negate: bool = False) -> TruncAdic:
    if spec_pair is None:
        return TruncAdic.zero(ring, prec)
    v, u = spec_pair
    t = TruncAdic.exact(ring, v, u, prec)
    return -t if negate else t


def build_rep(rep: CosetRep, prec: int, q: int = 2) -> PadicMat:
    """The matrix t_{i,j} S(x, y, z) of a support representative.

    ``prec`` must be at least spread + 2 (spread = largest torus-exponent
    difference); callers that go on to conjugate Kl(n) elements need
    prec >= n + spread + 2.
    """
    ring = ring_for_q(q)
    if isinstance(rep, Skew) and rep.p != ring.p:
        raise ValueError(f"representative lives at p={rep.p}, ring has p={ring.p}")
    if prec < _min_prec(rep):
        raise PrecisionTooLow(
            f"prec={prec} below the minimum {_min_prec(rep)} for {rep!r}"
        )
    i, j, x, y, z = _svals(rep)
    zero = TruncAdic.zero(ring, prec)
    one = TruncAdic.exact(ring, 0, 1, prec)
    t = PadicMat.from_rows(
        ring,
        [
            [TruncAdic.exact(ring, 2 * i + j, 1, prec), zero, zero, zero],
            [zero, TruncAdic.exact(ring, i + j, 1, prec), zero, zero],
            [zero, zero, TruncAdic.exact(ring, i, 1, prec), zero],
            [zero, zero, zero, one],
        ],
        prec,
    )
    ex, ey, ez = (_entry(ring, s, prec) for s in (x, y, z))
    s_mat = PadicMat.from_rows(
        ring,
        [
            [one, zero, zero, zero],
            [ex, one, zero, zero],
            [ey, zero, one, zero],
            [ez, ey, -ex, one],
        ],
        prec,
    )
    return t * s_mat


def build_rep_inverse(rep: CosetRep, prec: int, q: int = 2) -> PadicMat:
    """Exact inverse S(-x,-y,-z) t_{i,j}^{-1} of build_rep(rep, prec, q)."""
    ring = ring_for_q(q)
    if prec < _min_prec(rep):
        raise PrecisionTooLow(
            f"prec={prec} below the minimum {_min_prec(rep)} for {rep!r}"
        )
    i, j, x, y, z = _svals(rep)
    zero = TruncAdic.zero(ring, prec)
    one = TruncAdic.exact(ring, 0, 1, prec)
    ex, ey, ez = (_entry(ring, s, prec, negate=True) for s in (x, y, z))
    s_inv = PadicMat.from_rows(
        ring,
        [
            [one, zero, zero, zero],
            [ex, one, zero, zero],
            [ey, zero, one, zero],
            [ez, ey, -ex, one],
        ],
        prec,
    )
    t_inv = PadicMat.from_rows(
        ring,
        [
            [TruncAdic.exact(ring, -(2 * i + j), 1, prec), zero, zero, zero],
            [zero, TruncAdic.exact(ring, -(i + j), 1, prec), zero, zero],
            [zero, zero, TruncAdic.exact(ring, -i, 1, prec), zero],
            [zero, zero, zero, one],
        ],
        prec,
    )
    return s_inv * t_inv


# ---------------------------------------------------------------------------
# conjugate and reduce
# ---------------------------------------------------------------------------

_LEVEL_POSITIONS = ((1, 0), (2, 0), (3, 0), (3, 1), (3, 2))


def _check_klingen(h: PadicMat, n: int) -> None:
    for r in range(4):
        for c in range(4):
            x = h.entry(r, c)
            need = n if (r, c) in _LEVEL_POSITIONS else 0
            if x.val is not None:
                if x.val < need:
                    raise ValueError(
                        f"entry ({r+1},{c+1}) has valuation {x.val} < {need}: "
                        f"h is not in Kl(n={n})"
                    )
            elif x.prec < need:
                raise PrecisionInsufficient(
                    f"entry ({r+1},{c+1}) known only to val >= {x.prec} < {need}"
                )


def conjugate_reduce(
    g: PadicMat, h: PadicMat, n: int, g_inv: Optional[PadicMat] = None
) -> Optional[GSpElem]:
    """Reduction mod p of g h g^{-1}, three-valued.

    Returns the reduced GSpElem when every entry is provably integral,
    None when some entry is provably non-integral, and raises
    PrecisionInsufficient when the tracked precision cannot decide.
    """
    _check_klingen(h, n)
    if g_inv is None:
        g_inv = padic_inverse(g)
    conj = (g * h) * g_inv
    undecided = []
    for idx, x in enumerate(conj.entries):
        flag = x.is_integral()
        if flag is False:
            return None
        if flag is None:
            undecided.append(divmod(idx, 4))
    if undecided:
        raise PrecisionInsufficient(
            f"integrality undecidable at entries {undecided}"
        )
    spec = g.ring.spec
    rows = [[conj.entry(r, c).residue_mod_p() for c in range(4)] for r in range(4)]
    return gsp_elem(Mat4.from_rows(spec, rows))


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

    def sample(self) -> PadicMat:
        return PadicMat.from_residues(self._sample_residues())


# ---------------------------------------------------------------------------
# the R_g oracle
# ---------------------------------------------------------------------------

def _reduce_fast(
    ring: RingO, exps: Tuple[int, int, int, int],
    s_res: _ResMat, sinv_res: _ResMat, h: _ResMat, d: int,
) -> Optional[Mat4]:
    """Residue-level g h g^{-1} reduction for g = t * S (t diagonal).

    Equivalent to conjugate_reduce on the wrapped matrices (asserted by
    tests); the diagonal conjugation is a per-entry shift by p^(e_r - e_c),
    so integrality is a divisibility check on exactly tracked residues.
    Entries go straight to F_q encodings (base-p digits of the coefficients).
    A residue that vanishes mod p^d reduces to 0, which is sound because
    d >= -delta + 1 by the precision rule.
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


def estimate_Rg(
    rep: CosetRep, n: int, q: int, budget: int = 500, seed: int = 0,
    slack: int = 2, closure_bound: int = 10**6,
) -> Subgroup:
    """Sampled reconstruction of R_g for a support representative.

    Draws Kl(n) elements, keeps the reductions of those whose conjugate is
    integral, and returns the subgroup they generate.  The result is always
    contained in the true R_g; convergence is declared after three
    consecutive batches that add no new subgroup elements, and spending the
    whole budget without that raises NonConvergence.

    The sampler is pointed at the valuation layers given by the positive
    differences of the representative's torus exponents: those are exactly
    the depths at which the conjugate's entries must vanish or contribute,
    and uniform draws hit them too rarely to converge within any sane
    budget.  ``slack`` is the number of extra guard digits beyond
    n + spread; ``closure_bound`` caps the generated subgroup size.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if slack < 2:
        raise PrecisionTooLow(f"need at least 2 guard digits, got slack={slack}")
    m = n + _exponent_spread(rep) + slack
    ring = ring_for_q(q)
    spec = ring.spec
    exps = _torus_exponents(rep)
    depths = sorted(
        {ea - eb for ea in exps for eb in exps if ea > eb}
    )
    # residue-level S and S^{-1} (exactly integral, so full-depth residues)
    xs, ys, zs = _svals(rep)[2:]
    def lift(pair):
        if pair is None:
            return 0
        v, u = pair
        return u * ring.p**v
    xv, yv, zv = (lift(s) for s in (xs, ys, zs))
    s_res = _ResMat.from_rows(
        ring, m, [[1, 0, 0, 0], [xv, 1, 0, 0], [yv, 0, 1, 0], [zv, yv, -xv, 1]]
    )
    sinv_res = _ResMat.from_rows(
        ring, m, [[1, 0, 0, 0], [-xv, 1, 0, 0], [-yv, 0, 1, 0], [-zv, -yv, xv, 1]]
    )
    sampler = KlingenSampler(q, n, m, seed, depths=depths)
    ident = gsp_elem(Mat4.identity(spec))
    collected = {ident.mat.e: ident}
    current = subgroup_closure([ident], bound=closure_bound)
    batch = max(1, budget // 10)
    used = 0
    stable = 0
    while used < budget:
        fresh = False
        for _ in range(min(batch, budget - used)):
            h = sampler._sample_residues()
            used += 1
            mat = _reduce_fast(ring, exps, s_res, sinv_res, h, m)
            if mat is None:
                continue
            if mat.e not in collected:
                collected[mat.e] = gsp_elem(mat)
            if mat not in current:
                fresh = True
        if fresh:
            current = subgroup_closure(list(collected.values()), bound=closure_bound)
            stable = 0
        else:
            stable += 1
            if stable >= 3:
                return current
    raise NonConvergence(
        f"budget {budget} exhausted before three stable batches "
        f"(order so far {current.order})"
    )
