"""Exact arithmetic in small finite fields F_q, q = p^f.

Elements are polynomials over F_p reduced modulo a fixed monic irreducible
of degree f.  The modulus is chosen deterministically: the irreducible monic
polynomial whose non-leading coefficient vector (c_{f-1}, ..., c_1, c_0) has
the least base-p integer encoding sum(c_i * p^i).  For f = 1 the modulus is
the polynomial x and plays no role.

Each element has an integer encoding sum(c_i * p^i) in 0..q-1 (0 -> 0,
1 -> 1).  ``tables(spec)`` holds addition, multiplication, negation,
inversion and a square flag on those encodings; it is built once per field
from base-p digits and discrete logarithms, and is the one arithmetic
engine that the matrix, closure and classification layers compute with.
``FqElem`` is the type at the API boundary: public functions take and
return it, and its operators stay polynomial arithmetic.

The one Gaussian elimination of the package, ``row_reduce`` and its
``kernel``, lives here too.  It takes its field as an argument: ``Tables``
for F_q on encodings, or ``FieldOps`` built from an inverse and a normal
form, which the character-table oracle uses mod a prime.  A ``FieldOps``
with a valuation is the ring Z/p^M instead, where the R_g oracle solves
its lattice congruences.

Everything here is exact; there is no floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from .errors import DivisionByZero, FieldTooLarge, MixedFields, NotPrime

FIELD_BOUND = 512


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# below this many entries ``%`` reduces an array faster than floor division
RESIDUE_FLOOR_ENTRIES = 1024


def residue(x, m: int):
    """x mod m in the floor convention of ``%`` (0 <= result < m) for a
    Python int or an integer numpy array x, negative entries included, and
    an int m >= 1 that x's dtype can hold; an array keeps its shape and
    dtype, and entries of any size the dtype holds are exact.

    Ints and arrays of fewer than ``RESIDUE_FLOOR_ENTRIES`` entries take
    ``x % m``.  Larger arrays take x - (x // m) * m, in one new array: numpy
    divides an array by a scalar with a multiply and a shift per entry
    (libdivide), but ``%`` with a hardware divide per entry.  The product
    may wrap at the dtype's ends, and the difference wraps back, since the
    true difference lies in 0..m - 1."""
    if isinstance(x, int) or x.size < RESIDUE_FLOOR_ENTRIES:
        return x % m
    import numpy as np

    q = x // m
    q *= m
    return np.subtract(x, q, out=q)


def base_p_digits(k, p: int, f: int) -> tuple:
    """The f base-p digits of k, constant term first (k = sum d_i p^i); works
    unchanged on integer arrays, digit by digit."""
    return tuple(residue(k // p**i if i else k, p) for i in range(f))


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p (tuples of ints, index = degree)
# ---------------------------------------------------------------------------

def _poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(tuple(out))


def _poly_mod(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a by b (b monic-normalizable, nonzero)."""
    b = _poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], p - 2, p)
    rem = list(a)
    deg_b = len(b) - 1
    for i in range(len(rem) - 1, deg_b - 1, -1):
        factor = rem[i] % p * inv_lead % p
        if factor:
            for j, bj in enumerate(b):
                rem[i - deg_b + j] = (rem[i - deg_b + j] - factor * bj) % p
    return _poly_trim(tuple(rem))


def _is_irreducible(m: tuple[int, ...], p: int) -> bool:
    """Exhaustive trial division by all monic polynomials of degree 1..deg/2."""
    deg = len(m) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        # all monic polynomials of degree d: p^d candidates
        for code in range(p**d):
            if not _poly_mod(m, base_p_digits(code, p, d) + (1,), p):
                return False
    return True


# ---------------------------------------------------------------------------
# field spec and elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """An immutable description of F_q, q = p^f, with its fixed modulus.

    ``modulus`` holds the full coefficient tuple (c_0, ..., c_{f-1}, 1) of the
    monic irreducible used for reduction.
    """

    p: int
    f: int
    modulus: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.p**self.f

    # -- constructors -------------------------------------------------------

    def elem(self, coeffs) -> "FqElem":
        """Element from a coefficient iterable (constant term first)."""
        c = [x % self.p for x in coeffs]
        if len(c) > self.f:
            c = list(_poly_mod(tuple(c), self.modulus, self.p))
        c += [0] * (self.f - len(c))
        return FqElem(self, tuple(c[: self.f]))

    def scalar(self, k: int) -> "FqElem":
        """The image of the integer k in the prime subfield."""
        return self.elem([k])

    def __call__(self, k: int) -> "FqElem":
        return self.scalar(k)

    @property
    def zero(self) -> "FqElem":
        return self.scalar(0)

    @property
    def one(self) -> "FqElem":
        return self.scalar(1)

    def from_encoding(self, k: int) -> "FqElem":
        """Inverse of FqElem.encoding(): base-p digits, constant term first.

        Returns interned instances, so matrix-group scans share the q
        element objects instead of allocating new ones.
        """
        if not 0 <= k < self.q:
            raise ValueError(f"encoding {k} out of range for q={self.q}")
        return _element_table(self)[k]

    def __repr__(self) -> str:  # compact, deterministic
        return f"F{self.q}"


@dataclass(frozen=True)
class FqElem:
    """An element of a fixed F_q: coefficient tuple of length f, reduced."""

    spec: FieldSpec
    coeffs: tuple[int, ...]

    # -- bookkeeping ---------------------------------------------------------

    def _check(self, other: "FqElem") -> None:
        if self.spec != other.spec:
            raise MixedFields(f"{self.spec} vs {other.spec}")

    def _coerce(self, other) -> "FqElem":
        if isinstance(other, FqElem):
            self._check(other)
            return other
        if isinstance(other, int):
            return self.spec.scalar(other)
        return NotImplemented

    def encoding(self) -> int:
        """Canonical integer encoding sum(c_i * p^i); 0 -> 0, 1 -> 1."""
        k = 0
        for c in reversed(self.coeffs):
            k = k * self.spec.p + c
        return k

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FqElem(
            self.spec,
            tuple((a + b) % self.spec.p for a, b in zip(self.coeffs, other.coeffs)),
        )

    __radd__ = __add__

    def __neg__(self):
        return FqElem(self.spec, tuple((-a) % self.spec.p for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prod = _poly_mul(self.coeffs, other.coeffs, self.spec.p)
        red = _poly_mod(prod, self.spec.modulus, self.spec.p)
        return FqElem(self.spec, red + (0,) * (self.spec.f - len(red)))

    __rmul__ = __mul__

    def inverse(self) -> "FqElem":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return self ** (self.spec.q - 2)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.spec.scalar(other) / self if isinstance(other, int) else NotImplemented

    def __pow__(self, e: int) -> "FqElem":
        if e < 0:
            return self.inverse() ** (-e)
        result = self.spec.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.spec.scalar(other)
        if isinstance(other, FqElem):
            return self.spec == other.spec and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.spec.p, self.spec.f, self.coeffs))

    def __repr__(self):
        return f"{self.spec}:{self.encoding()}"


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def field_make(p: int, f: int = 1) -> FieldSpec:
    """Construct F_{p^f} with the deterministic least modulus.

    Raises NotPrime if p is composite, FieldTooLarge if p^f exceeds
    ``FIELD_BOUND`` (checked on every call; only the modulus search is
    cached).
    """
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if f < 1:
        raise ValueError("extension degree must be >= 1")
    if p**f > FIELD_BOUND:
        raise FieldTooLarge(f"p^f = {p ** f} exceeds bound {FIELD_BOUND}")
    return _least_modulus_field(p, f)


@lru_cache(maxsize=None)
def _least_modulus_field(p: int, f: int) -> FieldSpec:
    if f == 1:
        return FieldSpec(p, 1, (0, 1))
    for code in range(p**f):
        # code = sum c_i p^i: its base-p digits are c_0, ..., c_{f-1}
        cand = base_p_digits(code, p, f) + (1,)
        if _is_irreducible(cand, p):
            return FieldSpec(p, f, cand)
    raise RuntimeError("unreachable: an irreducible of every degree exists")


def prime_power(q: int) -> tuple[int, int]:
    """(p, f) with q = p^f, p prime; NotPrime if q is not a prime power."""
    if q < 2:
        raise NotPrime(f"{q} is not a prime power")
    # the least factor of q is at most isqrt(q) unless q is prime
    p = next((cand for cand in range(2, math.isqrt(q) + 1) if q % cand == 0), q)
    f = 0
    m = q
    while m % p == 0:
        m //= p
        f += 1
    if m != 1:
        raise NotPrime(f"{q} is not a prime power")
    return p, f


def field_for_q(q: int) -> FieldSpec:
    """F_q for a prime power q (factored automatically)."""
    return field_make(*prime_power(q))


@lru_cache(maxsize=None)
def _element_table(spec: FieldSpec) -> tuple:
    return tuple(FqElem(spec, base_p_digits(k, spec.p, spec.f))
                 for k in range(spec.q))


def enumerate_field(spec: FieldSpec) -> list[FqElem]:
    """All q elements in the canonical encoding order (0 first, then 1)."""
    return list(_element_table(spec))


class Tables(NamedTuple):
    """F_q arithmetic on element encodings: ``add[a][b]``, ``mul[a][b]``,
    ``neg[a]``, ``inv[a]`` (``inv[0]`` is 0) and ``square[a]``."""

    add: tuple
    mul: tuple
    neg: tuple
    inv: tuple
    square: tuple

    @property
    def q(self) -> int:
        return len(self.neg)

    # the row operations of ``row_reduce``, over a field
    valuation = None

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def scale(self, row, s: int) -> list:
        m = self.mul[s]
        return [m[x] for x in row]

    def sub_multiple(self, row, f: int, pivot_row) -> list:
        add, m = self.add, self.mul[self.neg[f]]
        return [add[x][m[y]] for x, y in zip(row, pivot_row)]

    def negate(self, a: int) -> int:
        return self.neg[a]


def _powers(x: FqElem) -> list:
    """The encodings of x^0, x^1, ..., x^(k-1), k the order of the unit x."""
    out, y = [1], x
    while not y.is_one():
        out.append(y.encoding())
        y = y * x
    return out


@lru_cache(maxsize=None)
def primitive_unit(spec: FieldSpec) -> FqElem:
    """The least-encoding element of multiplicative order q - 1."""
    return next(x for x in units(spec) if len(_powers(x)) == spec.q - 1)


@lru_cache(maxsize=None)
def _digit_add(p: int, f: int) -> tuple:
    """Addition of f-digit base-p encodings, digit by digit mod p."""
    if f == 1:
        return tuple(tuple(range(a, p)) + tuple(range(a)) for a in range(p))
    low, high = _digit_add(p, 1), _digit_add(p, f - 1)
    return tuple(tuple(low[a % p][b % p] + p * high[a // p][b // p]
                       for b in range(p**f)) for a in range(p**f))


@lru_cache(maxsize=None)
def tables(spec: FieldSpec) -> Tables:
    """The encoding tables of F_q: addition digit by digit mod p, and
    multiplication and inversion through the discrete logarithm to the base
    ``primitive_unit(spec)``, whose powers are the only polynomial products
    formed."""
    q = spec.q
    exp = _powers(primitive_unit(spec))
    log = [0] * q
    for k, x in enumerate(exp):
        log[x] = k
    logs, exp2 = log[1:], exp + exp
    # row a of mul holds exp[log a + log b], read off exp shifted by log a
    mul = ((0,) * q,) + tuple(
        (0,) + tuple(map(exp2[log[a]:].__getitem__, logs)) for a in range(1, q))
    add = _digit_add(spec.p, spec.f)
    squares = {mul[k][k] for k in range(q)}
    return Tables(add, mul, tuple(row.index(0) for row in add),
                  (0,) + tuple(exp2[q - 1 - log[a]] for a in range(1, q)),
                  tuple(k in squares for k in range(q)))


def units(spec: FieldSpec) -> list[FqElem]:
    """The nonzero elements, in encoding order."""
    return [x for x in enumerate_field(spec) if not x.is_zero()]


# ---------------------------------------------------------------------------
# Gaussian elimination over a field given by its row operations
# ---------------------------------------------------------------------------

class FieldOps(NamedTuple):
    """The row operations of ``row_reduce`` from ``inverse``, which inverts
    a nonzero element, and ``red``, which returns an element's normal form.
    Mod a prime ell these are ``pow(x, ell - 2, ell)`` and ``x % ell``.

    With a ``valuation`` the ring is Z/p^M on ints instead of a field:
    ``red`` is ``x % p^M``, ``valuation`` the exponent of p in a nonzero x,
    and ``inverse`` inverts the unit part x / p^valuation(x)."""

    inverse: Callable
    red: Callable
    valuation: Optional[Callable] = None

    def scale(self, row, s) -> list:
        red = self.red
        return [red(x * s) for x in row]

    def sub_multiple(self, row, f, pivot_row) -> list:
        red = self.red
        return [red(x - f * y) for x, y in zip(row, pivot_row)]

    def negate(self, a):
        return self.red(-a)


def row_reduce(rows, field) -> tuple:
    """Row echelon form by row operations: (the nonzero reduced rows, their
    pivot columns in order).

    ``field`` is a ``Tables`` or a ``FieldOps``: it supplies ``inverse``,
    ``scale``, ``sub_multiple`` and ``negate``.  Entries are ints in normal
    form, and zero must be exactly the falsy value, since pivots are found
    by truth tests.  Over a field the form is reduced: each pivot is 1 and
    the only nonzero entry of its column, and pivots come in column order.

    Over Z/p^M (a ``FieldOps`` with a ``valuation``) each pivot is the first
    entry, in column order, of least valuation v in the whole remaining
    block, scaled to p^v.  p^v divides every entry of the rows below, so
    they are cleared; a row above is cleared where p^v divides its entry.
    Every entry of a pivot's row stays a multiple of its p^v.  Over a field
    every nonzero entry has valuation 0, and the two searches agree."""
    a = [list(r) for r in rows]
    pivots = []
    valuation = field.valuation
    height, width = len(a), (len(a[0]) if a else 0)
    col = 0
    while len(pivots) < height:
        row = len(pivots)
        if valuation is None:
            # down column col from row, then on to the next column: no
            # column before the last pivot's has a nonzero entry left
            piv = row
            while col < width and not a[piv][col]:
                piv += 1
                if piv == height:
                    piv, col = row, col + 1
            if col == width:
                break
        else:
            least = min(((valuation(x), c, r) for r in range(row, height)
                         for c, x in enumerate(a[r]) if x), default=None)
            if least is None:
                break
            _, col, piv = least
        a[row], a[piv] = a[piv], a[row]
        prow = a[row] = field.scale(a[row], field.inverse(a[row][col]))
        lead = prow[col]  # 1, or p^v over Z/p^M
        for r in range(height):
            f = a[r][col]
            if f and r != row and (valuation is None or not f % lead):
                a[r] = field.sub_multiple(a[r], f // lead, prow)
        pivots.append(col)
        col += 1
    return a[:len(pivots)], pivots


def kernel(rows, field) -> list:
    """Basis of {v : rows v = 0}, one vector per non-pivot column of the
    reduced form, with 1 at that column."""
    reduced, pivots = row_reduce(rows, field)
    n = len(rows[0])
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [0] * n
        v[fc] = 1
        for r, pc in zip(reduced, pivots):
            v[pc] = field.negate(r[fc])
        basis.append(v)
    return basis
