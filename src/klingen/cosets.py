"""Support enumeration: the double cosets carrying Klingen-fixed vectors.

The support of a depth-zero supercuspidal under the level-n Klingen
filtration is a finite set of K-double cosets.  This module records that
set as a table of eight families and provides, for each family,

  * a membership predicate (`in_supp`) transcribing the defining
    inequalities on the coset parameters,
  * a closed-form count (`table1_count` for the seven polynomial rows,
    `skew_closed_count` for the four valuation cases of the skew family),
  * an independent brute-force counter (`table1_brute_count` enumerates
    the parameter boxes directly; `skew_brute_count` scans a box of
    parameter tuples read off `in_supp`, decides each stratum of units
    with one `in_supp` probe, and counts the classes of `skew_equal` by
    walking the orbits of 1 + p^t once per distinct accepted (v, t), which
    is exact since the walk reads only (p, v, t); no closed expression is
    consulted).

The family table (row = family index used throughout the package):

  row 1  t(i,j), i <= 0             dim 1        n(n-1)/2
  row 2  t(i,j), 2i+j >= n          dim 1        floor((n-1)^2/4)
  row 3  t(i,j), j = 0              dim 0 or 2   floor((n-1)/2)
  row 4  t(i,j), 2i+j <= n-1        dim q+1      floor((n-2)^2/4)
  row 5  t(i,j)Z(k)                 dim q-1      floor((n-1)(n-3)(2n-7)/24)
  row 6  t(i,j)X(k)                 dim q-1      floor((n-1)(n-3)(2n-7)/24)
  row 7  t(i,j)Y(k)                 dim q-1      (n-3)/6 * floor((n-2)(n-4)/4)
  row 8  S(i,k_x,k_y,k_z,u)         dim q-1      four valuation cases

Row 8 splits by the valuation of z = u*p^{k_z} against x*y = p^{k_x+k_y}
and, on the boundary, by whether 1 + u is a unit:

  zLTxy          val(z) < val(xy)
  zGTxy          val(z) > val(xy)   (same count as zLTxy)
  zEQxy_unit     val(z) = val(xy), val(1+u) = 0
  zEQxy_nonunit  val(z) = val(xy), val(1+u) > 0

All closed forms are evaluated in exact integers: one integer numerator
over one common denominator, floors as Python's ``//`` (toward -infinity),
a negative power of q moved into the denominator, and the quotient asserted
by ``divmod`` to be a nonnegative integer (NonIntegralResult otherwise).
The skew terms are not integral one by one, so a slip leaves a remainder.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from .errors import NonIntegralResult, ResourceBound
from .ffield import prime_power

SKEW_CASES = ("zLTxy", "zGTxy", "zEQxy_unit", "zEQxy_nonunit")

# per-coset fixed-space dimension tag by row; "0-or-2" resolves only once a
# family is chosen (the row-3 coset group is the torus normalizer M, whose
# fixed dimension depends on the family type)
ROW_DIM_TAGS = {
    1: "1",
    2: "1",
    3: "0-or-2",
    4: "q+1",
    5: "q-1",
    6: "q-1",
    7: "q-1",
    8: "q-1",
}

BRUTE_N_MAX = 20


# ---------------------------------------------------------------------------
# coset representatives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Diagonal:
    """Double coset of the diagonal representative t(i,j) (rows 1-4)."""

    i: int
    j: int


@dataclass(frozen=True)
class X:
    """Double coset t(i,j)X(k): lower short-root perturbation (row 6)."""

    i: int
    j: int
    k: int


@dataclass(frozen=True)
class Y:
    """Double coset t(i,j)Y(k): lower long-root perturbation (row 7)."""

    i: int
    j: int
    k: int


@dataclass(frozen=True)
class Z:
    """Double coset t(i,j)Z(k): corner perturbation (row 5)."""

    i: int
    j: int
    k: int


@dataclass(frozen=True)
class Skew:
    """Double coset S(i, k_x, k_y, k_z, u) of the skew family (row 8).

    The representative is t(i,j) S(x, y, z) with x = p^{k_x}, y = p^{k_y},
    z = u p^{k_z} for a unit u, interpreted modulo p^n for whatever level n
    the membership question is asked at (every condition involves
    valuations below n, so residue precision n is faithful).  The column
    index j is not free: it is derived from the defining relation

        j = i + val(p^{k_y} + u p^{k_z - k_x}) - (k_x + k_z - k_y).

    The residue characteristic p rides along so valuations are computable
    from the stored integer u alone.
    """

    i: int
    k_x: int
    k_y: int
    k_z: int
    u: int
    p: int

    def __post_init__(self):
        if self.u % self.p == 0:
            raise ValueError(f"u={self.u} is not a unit mod p={self.p}")

    def _val_sum(self) -> int:
        """val(p^{k_y} + u p^{k_z - k_x}), exact for any lift of u that is
        faithful modulo p^n with n above every threshold tested."""
        s = self.p ** self.k_y + self.u * self.p ** (self.k_z - self.k_x)
        if s == 0:
            raise ValueError("degenerate representative: y + z/x = 0")
        v = 0
        while s % self.p == 0:
            s //= self.p
            v += 1
        return v

    @property
    def j(self) -> int:
        return self.i + self._val_sum() - (self.k_x + self.k_z - self.k_y)

    @property
    def case(self) -> str:
        """Which of the four valuation cases the representative falls in."""
        if self.k_z < self.k_x + self.k_y:
            return "zLTxy"
        if self.k_z > self.k_x + self.k_y:
            return "zGTxy"
        return "zEQxy_unit" if (1 + self.u) % self.p != 0 else "zEQxy_nonunit"


CosetRep = Union[Diagonal, X, Y, Z, Skew]


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def in_supp(rep: CosetRep, n: int) -> bool:
    """Whether the coset lies in the level-n support.

    Transcribes the defining inequalities of each family; for Skew this
    includes the derived-j relation and the window condition
    i+j < i + val(y + z/x) < n together with j < 2 val(y/x).
    """
    if isinstance(rep, Diagonal):
        i, j = rep.i, rep.j
        return (
            j >= 0
            and 2 - n <= i
            and i + j <= n - 1
            and 2 * i + j >= 1
            and (j > 0 or 2 * i <= n - 1)
        )
    if isinstance(rep, X):
        i, j, k = rep.i, rep.j, rep.k
        return i >= 1 and j >= 1 and 1 <= k <= i - 1 and i + j + k <= n - 1
    if isinstance(rep, Y):
        i, j, k = rep.i, rep.j, rep.k
        return (
            i >= 1
            and j >= 1
            and 1 <= k <= i + j - 1
            and 2 * i + j <= min(n, 2 * k) - 1
        )
    if isinstance(rep, Z):
        i, j, k = rep.i, rep.j, rep.k
        return i >= 1 and j >= 1 and i + j + 1 <= k <= min(2 * i + j, n) - 1
    if isinstance(rep, Skew):
        return _skew_supp_j(rep, n) is not None
    raise TypeError(f"not a coset representative: {rep!r}")


def _skew_supp_j(rep: Skew, n: int) -> Optional[int]:
    """The derived j of a Skew representative in the level-n support, else
    None: the Skew test of ``in_supp``, forming val(y + z/x) once."""
    if not (1 <= rep.k_x < rep.i and rep.k_x < rep.k_y < rep.k_z):
        return None
    v = rep._val_sum()
    j = rep.i + v - (rep.k_x + rep.k_z - rep.k_y)
    if rep.k_y - rep.k_x < j < v and rep.i + v < n and j < 2 * (rep.k_y - rep.k_x):
        return j
    return None


def row_of(rep: CosetRep, n: int) -> int:
    """Table row of a support member (requires in_supp(rep, n))."""
    if not in_supp(rep, n):
        raise ValueError(f"{rep!r} is not in the level-{n} support")
    if isinstance(rep, Diagonal):
        if rep.i <= 0:
            return 1
        if rep.j == 0:
            return 3
        return 4 if 2 * rep.i + rep.j <= n - 1 else 2
    if isinstance(rep, Z):
        return 5
    if isinstance(rep, X):
        return 6
    if isinstance(rep, Y):
        return 7
    return 8


def skew_equal(a: Skew, b: Skew, n: int) -> bool:
    """Canonical equality of two level-n support members of the skew family.

    Representatives sharing (i, k_x, k_y, k_z) name the same double coset
    exactly when their units differ multiplicatively by 1 + p^{j - val(y/x)}.
    """
    if not (in_supp(a, n) and in_supp(b, n)):
        raise ValueError("skew_equal compares support members only")
    if a.p != b.p:
        raise ValueError("mixed residue characteristics")
    if (a.i, a.k_x, a.k_y, a.k_z) != (b.i, b.k_x, b.k_y, b.k_z):
        return False
    t = a.j - (a.k_y - a.k_x)
    mod = a.p ** n
    ratio = (b.u * pow(a.u, -1, mod)) % mod
    return (ratio - 1) % (a.p ** min(t, n)) == 0


# ---------------------------------------------------------------------------
# closed-form counts
# ---------------------------------------------------------------------------

def _exact_count(num: int, den: int, what: str, *args) -> int:
    """num / den (den > 0), asserted to be a nonnegative integer; the error
    names ``what.format(*args)``."""
    count, rem = divmod(num, den)
    if rem or count < 0:
        from fractions import Fraction  # only to print the failing value

        raise NonIntegralResult(f"{what.format(*args)} evaluated to "
                                f"{Fraction(num, den)}, not a nonnegative integer")
    return count


def table1_count(row: int, n: int) -> int:
    """Closed count of level-n support cosets in the given polynomial row.

    Floors are Python's ``//``; row 7's (n-3)/6 is asserted exact by ``divmod``."""
    if n < 1:
        raise ValueError(f"counts are defined for n >= 1, got n={n}")
    if row == 1:
        return n * (n - 1) // 2
    if row == 2:
        return (n - 1) ** 2 // 4
    if row == 3:
        return (n - 1) // 2
    if row == 4:
        return (n - 2) ** 2 // 4
    if row in (5, 6):
        return (n - 1) * (n - 3) * (2 * n - 7) // 24
    if row == 7:
        num = (n - 3) * ((n - 2) * (n - 4) // 4)
        return _exact_count(num, 6, "row 7 count at n={}", n)
    raise ValueError(f"row must be 1..7, got {row}")


def _a_q(n: int, r: int) -> int:
    return (table1_count(5, n) * r ** 3 + (n * n - n + 1) * r * r
            + (8 * n + 12) * r + 32)


def _b_q(n: int, r: int) -> int:
    return (table1_count(4, n) * r ** 3 - (n * n - 12 * n + 4) // 4 * r * r
            + (8 - 2 * n) * r - 8)


def _c_q(n: int, r: int) -> int:
    return (table1_count(7, n) * r ** 3 + (n * n - 2 * n + 2) // 2 * r * r
            + (4 * n + 4) * r + 16)


_SKEW_CLOSED = {
    # case -> (shift in the q-power floor, seed numerator over r^3, r = q - 1)
    "zLTxy": (5, _a_q),
    "zGTxy": (5, _a_q),
    "zEQxy_unit": (4, _b_q),
    "zEQxy_nonunit": (6, _c_q),
}


def skew_closed_count(case: str, n: int, q: int) -> int:
    """Closed count of level-n skew-family cosets in the given valuation case.

    Evaluates q^m f_q(n - 4m) - f_q(n), m = floor((n-s)/4), with (s, f_q) by
    case, as (q^M N(n - 4m) - q^S N(n)) / ((q-1)^3 q^S): N is f_q's integer
    numerator, M = max(m, 0), S = max(-m, 0), and ``divmod`` asserts a
    nonnegative integer quotient.
    """
    if case not in _SKEW_CLOSED:
        raise ValueError(f"unknown skew case {case!r}; expected one of {SKEW_CASES}")
    if n < 1 or q < 2:
        raise ValueError(f"need n >= 1 and q >= 2, got n={n}, q={q}")
    shift, seed = _SKEW_CLOSED[case]
    r = q - 1
    m = (n - shift) // 4
    up, down = q ** max(m, 0), q ** max(-m, 0)
    num = up * seed(n - 4 * m, r) - down * seed(n, r)
    return _exact_count(num, r ** 3 * down, "skew {} count at n={}, q={}", case, n, q)


# ---------------------------------------------------------------------------
# brute-force counters
# ---------------------------------------------------------------------------

def table1_brute_count(row: int, n: int) -> int:
    """Count a polynomial row by enumerating its parameter box directly."""
    if n < 1:
        raise ValueError(f"counts are defined for n >= 1, got n={n}")
    count = 0
    if row == 1:
        for i in range(2 - n, 1):
            count += len(range(1 - 2 * i, n - i))
    elif row == 2:
        for i in range(1, n - 1):
            count += len(range(max(1, n - 2 * i), n - i))
    elif row == 3:
        count = len(range(1, (n - 1) // 2 + 1))
    elif row == 4:
        for i in range(1, (n - 2) // 2 + 1):
            count += len(range(1, n - 2 * i))
    elif row in (5, 6):
        for i in range(2, n - 2):
            for j in range(1, n - i - 1):
                count += len(range(1, min(i, n - i - j)))
    elif row == 7:
        for i in range(1, (n - 4) // 2 + 1):
            for j in range(3, n - 2 * i):
                count += len(range(i + (j + 1 + 1) // 2, i + j))
    else:
        raise ValueError(f"row must be 1..7, got {row}")
    return count


def _orbit_count(members: Set[int], p: int, t: int) -> int:
    """Orbits of 1 + p^t acting on a union of its orbits mod p^(t+1).

    The group has the p elements 1 + a p^t, so popping any member and
    discarding its other p - 1 images removes exactly one orbit.  Empties
    `members`.
    """
    mod = p ** (t + 1)
    steps = [a * p ** t for a in range(1, p)]
    count = 0
    while members:
        u = members.pop()
        count += 1
        for s in steps:
            members.discard((u + u * s) % mod)
    return count


def _skew_tuples(case: str, n: int) -> Iterator[Tuple[int, int, int, int]]:
    """A box of (i, k_x, k_y, k_z) holding every level-n support tuple of a case.

    The ranges are read off `in_supp`, with v = val(y + z/x), which is
    k_z - k_x in zLTxy, k_y in zGTxy and at least k_y in the zEQ cases, and
    j = i + v - (k_x + k_z - k_y):
      1 <= k_x < i and k_x < k_y < k_z;
      i + v < n;
      j < v, which reads k_z > i + k_y - k_x, or i < 2 k_x when zEQ;
      j < 2 (k_y - k_x), which reads k_y > i in zLTxy and the zEQ cases, and
      k_z > i + k_x in zGTxy;
      k_y - k_x < j, which in zGTxy reads k_z < i + k_y.
    Those are all of its inequalities that do not involve u, so in fact the
    box is the support; still `in_supp` decides each tuple, and the counter
    relies only on the box holding the support.
    """
    for i in range(2, n):
        for k_x in range(1, i):
            if case == "zLTxy":
                for k_y in range(i + 1, n - i + k_x - 1):
                    for k_z in range(i + k_y - k_x + 1, min(k_x + k_y, n - i + k_x)):
                        yield i, k_x, k_y, k_z
            elif case == "zGTxy":
                for k_y in range(k_x + 1, n - i):
                    low = max(k_x + k_y, i + k_y - k_x, i + k_x)
                    for k_z in range(low + 1, i + k_y):
                        yield i, k_x, k_y, k_z
            elif 2 * k_x > i:
                for k_y in range(i + 1, n - i):
                    yield i, k_x, k_y, k_x + k_y


def skew_brute_count(case: str, n: int, q: int) -> int:
    """Count a skew valuation case by enumerating representatives.

    For every parameter tuple (i, k_x, k_y, k_z) in the box `_skew_tuples`
    the counter splits the units u into strata of equal v = val(1 + u), on
    which the valuation data and so membership are constant; one probe of
    `in_supp`'s Skew test, `_skew_supp_j`, decides each stratum and gives
    its j.  The classes of an accepted stratum are the
    orbits of 1 + p^t, t = j - val(y/x), on its units at precision t + 1;
    that walk reads only (p, v, t), so each distinct (v, t) is walked once
    per call and weighted by the number of strata sharing it.  No closed
    expression is consulted anywhere.  NotPrime if q is not a prime power.
    """
    prime_power(q)
    if case not in SKEW_CASES:
        raise ValueError(f"unknown skew case {case!r}; expected one of {SKEW_CASES}")
    if n > BRUTE_N_MAX:
        raise ResourceBound(f"skew_brute_count is guarded to n <= {BRUTE_N_MAX}")
    p = q
    tally = Counter()
    for i, k_x, k_y, k_z in _skew_tuples(case, n):
        for probe, v in _strata(case, n, p, i, k_x, k_y, k_z):
            j = _skew_supp_j(probe, n)
            if j is not None:
                tally[v, j - (k_y - k_x)] += 1
    return sum(
        mult * _orbit_count(_stratum_units(p, v, t + 1), p, t)
        for (v, t), mult in tally.items()
    )


def _strata(
    case: str, n: int, p: int, i: int, k_x: int, k_y: int, k_z: int
) -> Iterator[Tuple[Skew, Optional[int]]]:
    """One (probe, v) per stratum of units above a tuple.

    Units with equal val(1 + u) = v share the valuation data, hence
    membership and j, so the probe decides the whole stratum.  In zLTxy and
    zGTxy val(y + z/x) = min(k_y, k_z - k_x) for every unit: one stratum,
    v = None.  In the zEQ cases val(y + z/x) = k_y + v, so `in_supp` reads
    v < n - i - k_y and, from j < 2 val(y/x), v < k_y - i.
    """
    if case in ("zLTxy", "zGTxy"):
        yield Skew(i, k_x, k_y, k_z, 1, p), None
        return
    levels = (0,) if case == "zEQxy_unit" else range(1, min(n - i - k_y, k_y - i))
    for v in levels:
        if v == 0 and p == 2:
            continue  # 1 + u is even for every unit u
        yield Skew(i, k_x, k_y, k_z, 1 if v == 0 else p ** v - 1, p), v


def _stratum_units(p: int, v: Optional[int], prec: int) -> Set[int]:
    """Units u mod p^prec with val(1 + u) = v (every unit when v is None)."""
    mod = p ** prec
    if v is None:
        return {u for u in range(1, mod) if u % p != 0}
    # val(1 + u) = v puts u in the coset -1 + p^v
    return {
        u
        for u in range(p ** v - 1, mod, p ** v)
        if u % p != 0 and _val_exact(1 + u, p, prec) == v
    }


def _val_exact(m: int, p: int, cap: int) -> int:
    """p-adic valuation of m, capped (valuations >= cap all report cap)."""
    v = 0
    while v < cap and m % p == 0:
        m //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# the assembled table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyCount:
    """One row of the support table at a given level: family label, row
    index, exact coset count, and the symbolic per-coset dimension tag."""

    family: str
    row: int
    count: int
    per_coset_dim: str


def enumerate_supp(q: int, n: int) -> List[FamilyCount]:
    """The level-n support table: seven polynomial rows plus the four skew
    valuation cases, with closed-form counts.  NotPrime if q is not a prime
    power."""
    prime_power(q)
    if n < 1:
        raise ValueError(f"the support table is defined for n >= 1, got n={n}")
    out = [
        FamilyCount(f"row{row}", row, table1_count(row, n), ROW_DIM_TAGS[row])
        for row in range(1, 8)
    ]
    for case in SKEW_CASES:
        out.append(
            FamilyCount(case, 8, skew_closed_count(case, n, q), ROW_DIM_TAGS[8])
        )
    return out


def enumerate_diagonal_reps(n: int) -> Iterator[Diagonal]:
    """All Diagonal support members at level n (box scan over the predicate)."""
    for i in range(2 - n, n):
        for j in range(0, 2 * n):
            rep = Diagonal(i, j)
            if in_supp(rep, n):
                yield rep


def enumerate_small_reps(n: int) -> Iterator[CosetRep]:
    """All support members of the polynomial rows (1-7) at level n."""
    yield from enumerate_diagonal_reps(n)
    for maker in (Z, X, Y):
        for i in range(1, n):
            for j in range(1, 2 * n):
                for k in range(1, 2 * n):
                    rep = maker(i, j, k)
                    if in_supp(rep, n):
                        yield rep


__all__ = [
    "BRUTE_N_MAX",
    "CosetRep",
    "Diagonal",
    "FamilyCount",
    "ROW_DIM_TAGS",
    "SKEW_CASES",
    "Skew",
    "X",
    "Y",
    "Z",
    "enumerate_diagonal_reps",
    "enumerate_small_reps",
    "enumerate_supp",
    "in_supp",
    "row_of",
    "skew_brute_count",
    "skew_closed_count",
    "skew_equal",
    "table1_brute_count",
    "table1_count",
]
