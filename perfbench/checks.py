"""Checks made apart from klingen.

Nothing here imports klingen.  Each checker takes plain data (integers,
16-tuples of field-element encodings, lists of degrees) and returns a list
of problems; an empty list means the result passed.  The arithmetic is the
benchmark's own:

* finite fields F_q on the program's integer encodings (base-p digits,
  constant term first), with the modulus chosen by the rule the program
  documents (the least monic irreducible by base-p code), found here by
  a root test that is exact for degrees up to 3;
* 4x4 matrix products and the similitude condition t(g) J g = mu J for
  the antidiagonal form J of the program;
* subgroup orders from their parameterisations, and the character degrees
  of S6 from the hook-length formula (GSp(4,2) = Sp(4,2) is S6);
* the displayed corollary for the typeI totals at q = 2 and q = 3.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


# ---------------------------------------------------------------------------
# finite fields on encodings
# ---------------------------------------------------------------------------

def prime_power(q: int) -> tuple:
    """(p, f) with q = p^f, or ValueError."""
    if q < 2:
        raise ValueError(f"q={q} is not a prime power")
    p = next(d for d in range(2, q + 1) if q % d == 0)
    f, m = 0, q
    while m % p == 0:
        m //= p
        f += 1
    if m != 1:
        raise ValueError(f"q={q} is not a prime power")
    return p, f


def _digits(k: int, p: int, f: int) -> tuple:
    out = []
    for _ in range(f):
        out.append(k % p)
        k //= p
    return tuple(out)


class Field:
    """F_q with add/mul/neg/inv tables indexed by the program's encodings."""

    def __init__(self, q: int):
        p, f = prime_power(q)
        if f > 3:
            raise ValueError("the root test decides irreducibility only up to degree 3")
        self.p, self.f, self.q = p, f, q
        self.modulus = self._least_irreducible()
        polys = [_digits(k, p, f) for k in range(q)]
        index = {c: k for k, c in enumerate(polys)}
        self.add = [[index[tuple((a + b) % p for a, b in zip(x, y))] for y in polys]
                    for x in polys]
        self.mul = [[index[self._mulmod(x, y)] for y in polys] for x in polys]
        self.neg = [index[tuple(-a % p for a in x)] for x in polys]
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = self.mul[a].index(1)

    def _least_irreducible(self) -> tuple:
        p, f = self.p, self.f
        if f == 1:
            return (0, 1)
        for code in range(p ** f):
            cand = _digits(code, p, f) + (1,)
            if all(sum(c * x ** i for i, c in enumerate(cand)) % p for x in range(p)):
                return cand
        raise AssertionError("an irreducible of every degree exists")

    def _mulmod(self, x: tuple, y: tuple) -> tuple:
        p, f, mod = self.p, self.f, self.modulus
        prod = [0] * (2 * f - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                prod[i + j] = (prod[i + j] + a * b) % p
        for d in range(len(prod) - 1, f - 1, -1):
            c = prod[d]
            if c:
                for i in range(f + 1):
                    prod[d - f + i] = (prod[d - f + i] - c * mod[i]) % p
        return tuple(prod[:f])

    def div(self, a: int, b: int) -> int:
        return self.mul[a][self.inv[b]]


@lru_cache(maxsize=None)
def field(q: int) -> Field:
    return Field(q)


def mat_mul(F: Field, a: tuple, b: tuple) -> tuple:
    add, mul = F.add, F.mul
    out = []
    for r in range(0, 16, 4):
        for c in range(4):
            s = 0
            for k in range(4):
                s = add[s][mul[a[r + k]][b[4 * k + c]]]
            out.append(s)
    return tuple(out)


def similitude_problems(F: Field, e: tuple, mu: int) -> list:
    """t(g) J g = mu J for J = antidiag(1, 1, -1, -1), mu a unit."""
    if mu == 0:
        return ["similitude factor is zero"]
    add, mul, neg = F.add, F.mul, F.neg
    col = [[e[4 * r + c] for r in range(4)] for c in range(4)]
    one = 1
    j = [[0, 0, 0, one], [0, 0, one, 0], [0, neg[one], 0, 0], [neg[one], 0, 0, 0]]
    for r in range(4):
        u = col[r]
        for c in range(4):
            v = col[c]
            b = add[add[mul[u[0]][v[3]]][mul[u[1]][v[2]]]][
                neg[add[mul[u[2]][v[1]]][mul[u[3]][v[0]]]]]
            if b != mul[mu][j[r][c]]:
                return [f"t(g)Jg != mu J at ({r},{c}) for g={e}, mu={mu}"]
    return []


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

def gsp4_order(q: int) -> int:
    """|GSp(4,q)| = (q-1) |Sp(4,q)|, |Sp(4,q)| = q^4 (q^2-1)(q^4-1)."""
    return (q - 1) * q ** 4 * (q * q - 1) * (q ** 4 - 1)


def subgroup_order(name: str, q: int) -> int:
    """Orders read off each named parameterisation: units count q-1,
    free entries count q, GL(2) and SL(2) blocks their group orders."""
    unit, free = q - 1, q
    gl2 = (q * q - 1) * (q * q - q)
    sl2 = gl2 // (q - 1)
    orders = {
        "U_S": free ** 3, "U_K": free ** 3, "R_last": free ** 3,
        "M": unit * gl2, "Row3": unit * gl2,
        "M1": sl2,
        "R_klingen": free * sl2,
        "S": unit ** 2 * free ** 2, "A": unit ** 2 * free ** 2,
        "B": unit ** 3 * free, "Row4": unit ** 3 * free,
        "C": unit ** 3 * free ** 2, "Row2": unit ** 3 * free ** 2,
        "D": unit ** 3 * free ** 2, "Row1": unit ** 3 * free ** 2,
        "Row5": unit ** 2 * free ** 2, "Row6": unit ** 2 * free ** 2,
        "Row7": unit ** 2 * free ** 2,
        "Row8": unit * free ** 3,
        "Z_ray": free,
    }
    return orders[name]


def _support(e: tuple, allowed) -> bool:
    return all(e[k] == 0 for k in range(16) if k not in allowed)


def _row_member(F: Field, row: int, e: tuple) -> bool:
    """Whether the matrix e lies in the Row k group, by its defining shape."""
    mul, neg = F.mul, F.neg
    if e[0] == 0 or e[15] == 0:
        return False
    if row == 3:
        block = F.add[mul[e[5]][e[10]]][neg[mul[e[6]][e[9]]]]
        return (_support(e, {0, 5, 6, 9, 10, 15}) and block != 0
                and mul[e[0]][e[15]] == block)
    if e[5] == 0 or e[10] == 0:
        return False
    if row == 1:
        return (_support(e, {0, 1, 5, 9, 10, 11, 15})
                and e[10] == F.div(mul[e[0]][e[15]], e[5])
                and e[11] == neg[F.div(mul[e[1]][e[15]], e[5])])
    if row in (2, 4):
        allowed = {0, 5, 9, 10, 12, 15} if row == 2 else {0, 5, 9, 10, 15}
        return _support(e, allowed) and mul[e[0]][e[15]] == mul[e[5]][e[10]]
    if row == 5:
        return (_support(e, {0, 5, 9, 10, 12, 15}) and e[15] == e[0]
                and mul[e[5]][e[10]] == mul[e[0]][e[0]])
    if row == 6:
        return (_support(e, {0, 4, 5, 10, 12, 14, 15}) and e[5] == e[0]
                and e[15] == e[10]
                and e[14] == neg[F.div(mul[e[4]][e[10]], e[0])])
    if row == 7:
        return (_support(e, {0, 5, 8, 9, 10, 13, 15}) and e[10] == e[0]
                and e[15] == e[5] and e[13] == F.div(mul[e[8]][e[5]], e[0]))
    raise ValueError(f"no shape test for row {row}")


ROW_SHAPES = {f"Row{k}": k for k in range(1, 8)}
ROW_SHAPES.update({"C": 2, "M": 3, "B": 4})


def subgroup_problems(q: int, name: str, elems, rng, samples: int = 8) -> list:
    """Check a named subgroup given as (matrix 16-tuple, mu encoding) pairs.

    Its distinct elements must number the order formula's count; sampled
    elements must be similitudes; sampled products must stay inside; and,
    where the benchmark knows the defining shape, every element must have it.
    """
    F = field(q)
    keys = {e for e, _ in elems}
    problems = []
    want = gsp4_order(q) if name == "GSp4" else subgroup_order(name, q)
    if len(keys) != want or len(elems) != want:
        problems.append(f"{name} q={q}: order {len(keys)} distinct of "
                        f"{len(elems)}, expected {want}")
    if name in ROW_SHAPES:
        bad = [e for e in keys if not _row_member(F, ROW_SHAPES[name], e)]
        if bad:
            problems.append(f"{name} q={q}: {len(bad)} elements off its shape, e.g. {bad[0]}")
    problems += closure_problems(q, name, elems, keys, rng, samples)
    return problems


def closure_problems(q: int, name: str, elems, keys, rng, samples: int) -> list:
    F = field(q)
    problems = []
    if not elems:
        return [f"{name} q={q}: empty"]
    for _ in range(samples):
        e, mu = elems[rng.randrange(len(elems))]
        problems += similitude_problems(F, e, mu)
        a = elems[rng.randrange(len(elems))][0]
        if mat_mul(F, a, e) not in keys:
            problems.append(f"{name} q={q}: product of {a} and {e} is outside")
            break
    return problems


def estimate_problems(q: int, row: int, elems, predicted_keys, rng,
                      samples: int = 8) -> list:
    """An R_g estimate must lie inside Row k (by shape and by the program's
    prediction), have its closed order, and be closed under products."""
    F = field(q)
    keys = {e for e, _ in elems}
    problems = []
    outside = [e for e in keys if not _row_member(F, row, e)]
    if outside:
        problems.append(f"estimate has {len(outside)} elements off the Row{row} shape")
    elif not keys <= predicted_keys:
        problems.append(f"estimate is not inside the predicted Row{row}")
    want = subgroup_order(f"Row{row}", q)
    if len(keys) != want:
        problems.append(f"estimate order {len(keys)}, expected {want}")
    problems += closure_problems(q, f"R_g(Row{row})", elems, keys, rng, samples)
    return problems


# ---------------------------------------------------------------------------
# character degrees
# ---------------------------------------------------------------------------

def _partitions(n: int, top: int = None):
    top = n if top is None else top
    if n == 0:
        yield ()
        return
    for first in range(min(n, top), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def symmetric_group_degrees(n: int) -> list:
    """Irreducible degrees of S_n by the hook-length formula, sorted."""
    out = []
    for lam in _partitions(n):
        conj = [sum(1 for part in lam if part > c) for c in range(lam[0])]
        hooks = 1
        for r, part in enumerate(lam):
            for c in range(part):
                hooks *= (part - c - 1) + (conj[c] - r - 1) + 1
        out.append(math.factorial(n) // hooks)
    return sorted(out)


def degree_problems(degrees, n_classes: int) -> list:
    """The GSp(4,2) table must carry the degrees of S6 = Sp(4,2)."""
    want = symmetric_group_degrees(6)
    problems = []
    if n_classes != len(want):
        problems.append(f"{n_classes} classes, expected {len(want)}")
    if sorted(degrees) != want:
        problems.append(f"degrees {sorted(degrees)}, expected {want}")
    if sum(d * d for d in degrees) != gsp4_order(2):
        problems.append("sum of squared degrees differs from |GSp(4,2)|")
    return problems


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------

_COROLLARY = {
    2: (lambda n: -(n + 9) * (n + 12), (219, 260, 155, 184)),
    3: (lambda n: -((n + 6) ** 2), (112, 147, 65, 85)),
}


def corollary(q: int, n: int) -> int:
    """typeI total at q in {2, 3}, n >= 1, from the displayed corollary:
    poly(n) + q^floor((n-2)/4) * c[n mod 4]."""
    poly, consts = _COROLLARY[q]
    value = poly(n) + Fraction(q) ** ((n - 2) // 4) * consts[n % 4]
    if value.denominator != 1:
        raise ValueError(f"corollary at q={q}, n={n} is not an integer")
    return int(value)


def family_gap(n: int) -> int:
    """typeII total minus typeI total at level n."""
    return 2 * ((n - 1) // 2) if n >= 1 else 0


def dim_problems(q: int, n: int, sigma: str, origin: str, total: int,
                 other: dict) -> list:
    """Check one dimension total.  ``other`` maps (q, n, sigma) to totals
    seen elsewhere in the round (the table grid), for cross-checks."""
    problems = []
    if origin != "K" or sigma == "nongeneric" or n <= 1:
        if total != 0:
            problems.append(f"q={q} n={n} {sigma} {origin}: total {total}, expected 0")
        return problems
    if sigma == "typeI" and q in _COROLLARY and total != corollary(q, n):
        problems.append(f"q={q} n={n} typeI: total {total}, corollary {corollary(q, n)}")
    mate = "typeII" if sigma == "typeI" else "typeI"
    if (q, n, mate) in other:
        gap = total - other[(q, n, mate)] if sigma == "typeII" else other[(q, n, mate)] - total
        if gap != family_gap(n):
            problems.append(f"q={q} n={n}: typeII - typeI = {gap}, expected {family_gap(n)}")
    if (q, n, sigma) in other and other[(q, n, sigma)] != total:
        problems.append(f"q={q} n={n} {sigma}: total {total}, table cell {other[(q, n, sigma)]}")
    return problems
