"""Residues of the p-adic integers and the randomized R_g oracle.

The base ring is the unramified extension o of Z_p with residue field F_q
(q = p^f); the uniformizer is p itself.  Elements of o/p^d are "residues",
for every f a length-f tuple of ints mod p^d: the coefficient vector on the
power basis of a fixed monic lift of the residue field's modulus.  A 4x4
residue matrix is kept as its f coefficient planes, each a row-major list
of 16 ints.  On top of the residues sit:

RingO
    scalar residue arithmetic mod p^d, and the Newton inverse the sampler
    takes of its unit t at f > 1 (at f = 1 it inverts t with ``pow``).

KlingenSampler / _kl_product
    seeded sampling of the level-n Klingen subgroup via its exact
    factorization  lower(p^n) * levi * upper(o).  Two draw closures, built
    once per sampler, inline ``_below``'s rejection loop, so every digit
    makes the ``getrandbits`` calls CPython's ``Random.randrange`` makes and
    a seed yields the samples the reference draws through randrange yield
    (the tests keep that reference).  For every f one closed form multiplies
    the factors on residues packed into ints, coefficient i at bit K i with
    2^K above 7 f^2 p^(3d), so no coefficient of an entry carries into the
    next (Kronecker substitution); each entry is then unpacked once.

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
    arrives.  It stops as soon as the closure's order reaches a bound on
    |R_g|, since no later sample can then enlarge it.  Both bounds count
    similitudes in the reduction of Lambda = {g h g^{-1} : h in the Kl(n)
    lattice, g h g^{-1} integral}, which contains g Kl(n) g^{-1} \\cap K, so
    R_g lies in that reduction \\cap GSp(4, q).  For a Diagonal
    representative the reduction is the valuation envelope E, the matrices
    supported where e_r - e_c + a_rc <= 0 (a_rc = n on Kl(n)'s five level
    positions, else 0): entry (r, c) of g h g^{-1} is p^(e_r - e_c) h_rc
    with val(h_rc) >= a_rc.  |E \\cap GSp(4, q)| has a closed form
    (``_envelope_order``).  For any other representative S mixes entries,
    but the conditions stay linear congruences with rational-integer
    coefficients: one elimination over Z/p^m gives an F_p-basis of the
    reduction (``_lattice_basis``), and its similitudes are counted point by
    point (``_lattice_order``; no bound past ``groupfq.CLOSURE_BOUND``
    points).  When the bound is not reached, convergence is declared after
    three consecutive batches that add no new subgroup elements.

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

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .cosets import CosetRep, Diagonal, Skew, X, Y, Z
from .errors import NonConvergence, PrecisionTooLow
from .ffield import FieldOps, FieldSpec, base_p_digits, field_for_q, kernel, row_reduce, tables
from .groupfq import (
    CLOSURE_BOUND,
    NEG_ROOT_POSITIONS,
    POS_ROOT_POSITIONS,
    Mat4,
    Subgroup,
    _similitude_enc,
    adjoin,
    gsp_elem,
    make_subgroup,
)

Residue = Tuple[int, ...]
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

    def from_int(self, k: int, d: int) -> Residue:
        return (k % self.p**d,) + (0,) * (self.f - 1)

    # -- arithmetic mod p^d ----------------------------------------------

    def add(self, a: Residue, b: Residue, d: int) -> Residue:
        mod = self.p**d
        return tuple((x + y) % mod for x, y in zip(a, b))

    def neg(self, a: Residue, d: int) -> Residue:
        mod = self.p**d
        return tuple((-x) % mod for x in a)

    def mul(self, a: Residue, b: Residue, d: int) -> Residue:
        mod = self.p**d
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
        return any(x % self.p for x in a)

    def inv(self, a: Residue, d: int) -> Residue:
        """Inverse of a unit residue mod p^d (Newton lift from F_q)."""
        if not self.is_unit(a):
            raise ZeroDivisionError("residue is not a unit")
        p = self.p
        # start from the residue-field inverse, then double digits
        start = tables(self.spec).inv[_encode(a, p)]
        x: Residue = base_p_digits(start, p, self.f)
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


def _packing(ring: RingO, d: int) -> tuple:
    """Residues mod p^d packed as ints, coefficient i at bit K i for K the
    bit length of 7 f^2 p^(3d) plus one: p^d, p^d packed in each of f digits,
    the offsets of the 3f - 2 digits of a product entry, the digit mask and
    the modulus lift."""
    f, mod = ring.f, ring.p**d
    width = (7 * f * f * mod**3).bit_length() + 1
    places = tuple(width * i for i in range(3 * f - 2))
    return (mod, sum(mod << o for o in places[:f]), places, (1 << width) - 1,
            ring.spec.modulus)


def _kl_product(packing: tuple, lower, levi, upper) -> Planes:
    """The coefficient planes mod p^d of S(a, b, c) * diag(t, A, det(A)/t) *
    upper(xu, yu, zu), from residues packed by ``_packing(ring, d)`` with
    coefficients below p^d: lower = (a, b, c), levi = (t, t^-1, a00, a01,
    a10, a11), upper = (xu, yu, zu).

    One closed form on the packed ints for every f (Kronecker substitution).
    -a and -xu are p^d less each coefficient, so none is negative.  An entry
    is a sum of at most seven products of three residues (det(A)/t is two),
    so its coefficients, of degree at most 3f - 3, are at most 7 f^2 p^(3d)
    and never carry into the next.  Each entry is unpacked once: its digits
    of degree f and up folded back by the modulus lift, then all mod p^d;
    at f = 1 the packing is the identity and the unpack is x % p^d.
    """
    mod, mods, places, mask, lift = packing
    (a, b, c), (t, tinv, a00, a01, a10, a11), (xu, yu, zu) = lower, levi, upper
    na, nxu, at, bt, ct = mods - a, mods - xu, a * t, b * t, c * t
    # the rows of lower * levi are (t, 0, 0, 0), (at, a00, a01, 0),
    # (bt, a10, a11, 0) and (ct, r1, r2, det(A)/t); upper has rows
    # (1, xu, yu, zu), (0, 1, 0, yu), (0, 0, 1, -xu), (0, 0, 0, 1)
    r1, r2 = b * a00 + na * a10, b * a01 + na * a11
    entries = [
        t, t * xu, t * yu, t * zu,
        at, at * xu + a00, at * yu + a01, at * zu + a00 * yu + a01 * nxu,
        bt, bt * xu + a10, bt * yu + a11, bt * zu + a10 * yu + a11 * nxu,
        ct, ct * xu + r1, ct * yu + r2,
        ct * zu + r1 * yu + r2 * nxu + (a00 * a11 + a01 * (mods - a10)) * tinv,
    ]
    f = len(lift) - 1
    if f == 1:
        return [[x % mod for x in entries]]
    # x^top = -x^(top - f) (c_0 + c_1 x + ... + c_{f-1} x^(f-1))
    acc = [[x >> o & mask for x in entries] for o in places]
    for top in range(3 * f - 3, f - 1, -1):
        for k in range(f):
            if lift[k]:
                acc[top - f + k] = [
                    u - lift[k] * w for u, w in zip(acc[top - f + k], acc[top])
                ]
    return [[u % mod for u in plane] for plane in acc[:f]]


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

    The draws are pinned: each residue digit is one rejection loop of
    ``_below`` with a bit length fixed here, which calls ``getrandbits``
    exactly as ``randrange`` would.  A unit mod p^d is drawn at f = 1 as
    r - r % p + randrange(1, p), at f > 1 by redrawing the whole tuple until
    it is a unit.  So every seed gives the samples of the randrange-based
    reference in the tests; the rg census in the tests pins them.

    One path serves every f: each residue is packed into one int, and
    ``_kl_product`` multiplies the factors by one closed form on these ints,
    with digits wide enough that no coefficient carries into the next.
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
        p, f = self._p, self._f = self.ring.p, self.ring.f
        mod = self._mod = p**prec
        self._kmod = mod.bit_length()
        self._kunit = (p - 1).bit_length()
        self._packing = _packing(self.ring, prec)
        # the lower-triangular parameters carry a built-in p^n shift, so the
        # layers relevant to them sit n lower
        self._draw, self._draw_low = (
            self._drawer(vs, scale) for vs, scale in (
                (self.depths, 1),
                (None if depths is None else {max(0, v - n) for v in self.depths}, p**n)))

    def _drawer(self, depths, scale: int):
        """A closure that draws one free parameter times ``scale``, packed and
        reduced mod p^prec: uniform, or layered on ``depths`` when given."""
        getrandbits, rand = self._rng.getrandbits, self._rng.random
        p, f, mod, kmod, kunit = self._p, self._f, self._mod, self._kmod, self._kunit
        places, layered = self._packing[2][:f], depths is not None
        # the layers v below prec as (scale p^v, p^(prec - v), its bit length)
        usable = tuple((scale * p**v, p**(self.prec - v), (p**(self.prec - v)).bit_length())
                       for v in sorted(depths or ()) if 0 <= v < self.prec)
        count, kcount = len(usable), len(usable).bit_length()
        # only a scaled or packed uniform draw is more than its one digit
        plain = f == 1 and scale == 1

        def draw() -> int:
            if layered:
                roll = rand()
                if roll >= 0.75:
                    return 0
                if roll >= 0.5 and count:
                    i = getrandbits(kcount)
                    while i >= count:
                        i = getrandbits(kcount)
                    step, span, kspan = usable[i]
                    if f == 1:
                        r = getrandbits(kspan)
                        while r >= span:
                            r = getrandbits(kspan)
                        u = getrandbits(kunit)
                        while u >= p - 1:
                            u = getrandbits(kunit)
                        return step * (r - r % p + 1 + u) % mod
                    while True:
                        x = unit = 0
                        for o in places:
                            r = getrandbits(kspan)
                            while r >= span:
                                r = getrandbits(kspan)
                            unit = unit or r % p
                            x += step * r % mod << o
                        if unit:
                            return x
            if plain:
                r = getrandbits(kmod)
                while r >= mod:
                    r = getrandbits(kmod)
                return r
            x = 0
            for o in places:
                r = getrandbits(kmod)
                while r >= mod:
                    r = getrandbits(kmod)
                x += scale * r % mod << o
            return x
        return draw

    def _sample_residues(self) -> Planes:
        """One Kl(n) element mod p^prec as its coefficient planes."""
        p, f, mod, draw = self._p, self._f, self._mod, self._draw
        getrandbits, kmod, low = self._rng.getrandbits, self._kmod, self._draw_low
        _, _, places, mask, _ = self._packing
        a, b, c = low(), low(), low()
        if f == 1:
            t = _below(getrandbits, mod, kmod)
            t += 1 - t % p + _below(getrandbits, p - 1, self._kunit)
            tinv = pow(t, -1, mod)
        else:
            while True:
                t = tuple(_below(getrandbits, mod, kmod) for _ in range(f))
                if any(x % p for x in t):
                    break
            t, tinv = (sum(x << o for x, o in zip(v, places))
                       for v in (t, self.ring.inv(t, self.prec)))
            tab = tables(self.ring.spec)
        while True:
            a00, a01, a10, a11 = draw(), draw(), draw(), draw()
            if f == 1:
                if (a00 * a11 - a01 * a10) % p:
                    break
            else:
                # det(A) is tested for a unit on the F_q encodings of the draws
                e00, e01, e10, e11 = (_encode([x >> o & mask for o in places[:f]], p)
                                      for x in (a00, a01, a10, a11))
                if tab.add[tab.mul[e00][e11]][tab.neg[tab.mul[e01][e10]]]:
                    break
        return _kl_product(self._packing, (a, b, c), (t, tinv, a00, a01, a10, a11),
                           (draw(), draw(), draw()))


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


# the positions (r, c) where every Kl(n) entry is divisible by p^n
_LEVEL_POSITIONS = frozenset({(1, 0), (2, 0), (3, 0), (3, 1), (3, 2)})


def _envelope_order(rep: CosetRep, n: int, q: int) -> Optional[int]:
    """|E| for a Diagonal representative, None for any other.

    E is the set of similitudes supported on the positions (r, c) with
    e_r - e_c + a_rc <= 0, over the torus exponents e and a_rc = n on the
    level positions, 0 elsewhere; it contains R_g at every (i, j, n).  The
    condition takes the same value on every position of a root, so E is the
    torus times the root groups of the allowed roots Psi (the Iwahori
    factorization), of order (q - 1)^3 q^(#alpha in Psi with -alpha not in
    Psi) (q (q + 1))^(#pairs +-alpha in Psi).  Only the long pair +-a2 can
    lie in Psi, when j = 0; every other pair needs i <= 0 and i >= n or the
    like.
    """
    if not isinstance(rep, Diagonal):
        return None
    exps = _torus_exponents(rep)

    def allowed(positions) -> bool:
        return all(exps[r] - exps[c] + (n if (r, c) in _LEVEL_POSITIONS else 0) <= 0
                   for r, c, _ in positions)

    pos = [allowed(root) for root in POS_ROOT_POSITIONS]
    neg = [allowed(root) for root in NEG_ROOT_POSITIONS]
    pairs = sum(a and b for a, b in zip(pos, neg))
    return (q - 1)**3 * q**(sum(pos) + sum(neg) - 2 * pairs) * (q * (q + 1))**pairs


def _reduced_kernel(rows, p: int, m: int) -> list:
    """An F_p-basis of the reductions mod p of the solutions x in Z_p^k of
    rows x = 0 mod p^m, for rows of ints in [0, p^m).

    ``row_reduce`` over Z/p^m puts the rows in echelon form.  A row with
    pivot p^v is p^v times a row w with pivot 1, and v < m, so every
    solution satisfies w mod p; conversely, entries off the pivot columns
    chosen at will extend, from the last row up, to an exact solution.  So
    the reductions are the kernel over F_p of the rows w mod p."""
    mod = p**m
    # p^v = gcd(a, p^m) for 0 < a < p^m
    exponent = {p**v: v for v in range(m)}
    ring = FieldOps(lambda a: pow(a // math.gcd(a, mod), -1, mod), lambda a: a % mod,
                    lambda a: exponent[math.gcd(a, mod)])
    echelon, pivots = row_reduce([row for row in rows if any(row)], ring)
    return kernel([[a // row[c] % p for a in row] for row, c in zip(echelon, pivots)]
                  or [[0] * len(rows[0])], tables(field_for_q(p)))


def _lattice_basis(rep: CosetRep, n: int, p: int) -> list:
    """An F_p-basis of the reduction mod p of Lambda = {g h g^{-1} : h in the
    Kl(n) lattice, g h g^{-1} integral}, as flat row-major vectors of 16
    ints below p.  Over F_q the reduction is their F_q-span.

    N = g h g^{-1} is integral with h = S^{-1} t^{-1} N t S.  Entry (r, c)
    of p^s t^{-1} N t is p^(s + e_c - e_r) N_rc, s the exponent spread, so
    entry (r, c) of p^s h is a linear form in N with rational-integer
    coefficients, and h lies in the lattice iff it is divisible by
    p^(a_rc + s) (a_rc = n on the level positions, else 0).  Times
    p^(m - a_rc - s), m = n + s, each condition is one congruence mod p^m
    for ``_reduced_kernel``.
    """
    exps = _torus_exponents(rep)
    spread = _exponent_spread(rep)
    x, y, z = _s_params(rep, p) or (0, 0, 0)
    m = n + spread
    # the image of N = E_rc in the 16 entries of p^s h, one column per (r, c)
    columns = []
    for r in range(4):
        for c in range(4):
            e = [0] * 16
            e[4 * r + c] = p**(spread + exps[c] - exps[r])
            columns.append(_conjugate(e, -x, -y, -z))
    return _reduced_kernel(
        [[col[4 * r + c] * p**(n - (n if (r, c) in _LEVEL_POSITIONS else 0)) % p**m
          for col in columns] for r in range(4) for c in range(4)], p, m)


def _lattice_order(rep: CosetRep, n: int, q: int) -> Optional[int]:
    """|Lambda-bar \\cap GSp(4, q)| for the reduction Lambda-bar of
    ``_lattice_basis``, by the similitude test on its points; None when it
    has more than ``groupfq.CLOSURE_BOUND``.  Lambda-bar is an F_q-space
    and a scalar multiple of a similitude is one, so only the points whose
    first nonzero coefficient is 1 are tested, and each counts q - 1 times.
    """
    spec = field_for_q(q)
    basis = _lattice_basis(rep, n, spec.p)
    if q**len(basis) > CLOSURE_BOUND:
        return None
    t = tables(spec)
    add, mul = t.add, t.mul
    multiples = [[tuple(mul[c][x] for x in b) for c in range(q)] for b in basis]

    def points(k: int, e: tuple):
        """Every e + c_k b_k + ... + c_(D-1) b_(D-1)."""
        if k == len(basis):
            yield e
        else:
            for mb in multiples[k]:
                yield from points(k + 1, tuple(add[u][v] for u, v in zip(e, mb)))

    return (q - 1) * sum(1 for k in range(len(basis)) for e in points(k + 1, multiples[k][1])
                         if _similitude_enc(e, t))


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
    contained in the true R_g.  R_g lies in Lambda-bar \\cap GSp(4, q), for
    Lambda-bar the reduction mod p of Lambda = {g h g^{-1} : h in the Kl(n)
    lattice, g h g^{-1} integral}, because every g h g^{-1} in K is such an
    element.  So the draws stop at the sample whose adjoin makes the
    closure's order |Lambda-bar \\cap GSp(4, q)|: the closure is then R_g,
    and no later sample can enlarge it.  That order is ``_envelope_order``
    for a Diagonal representative, whose Lambda-bar is the valuation
    envelope E, and ``_lattice_order`` for any other (none when Lambda-bar
    has more than ``groupfq.CLOSURE_BOUND`` points).  Short of the bound,
    convergence is declared after three consecutive batches that add no new
    subgroup elements, and spending the whole budget without that raises
    NonConvergence.

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
    bound = _envelope_order(rep, n, q)
    if bound is None:
        bound = _lattice_order(rep, n, q)
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
                if current.order == bound:
                    return current
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
