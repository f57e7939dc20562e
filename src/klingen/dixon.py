"""Exact character tables of small matrix groups by eigenvector descent.

This is the independent oracle for the fixed-vector dimensions: it never
looks at the pinned value tables.  The method is the classical one of
Dixon and Schneider:

  1. compute the conjugacy classes, each an index array into the group's
     sorted rows, the class of every row, and the class-multiplication
     coefficients a_{ij}^k = #{(x,y) in C_i x C_j : xy = z_k}: the w = x^{-1}
     in C_{i*} with w z_k in C_j, one product of the rows of C_{i*} with
     the reps per class;
  2. the vectors omega = (omega_k) of central-character values are the
     common eigenvectors of the matrices (M_i)_{j,k} = a_{ij}^k; find them
     modulo a prime ell = 1 (mod exp G) with ell > 2 sqrt(|G|), where all
     eigenvalues are rational;
  3. recover each degree d from d^2 = |G| / sum_k omega_k omega_{k*} / h_k
     (mod ell) together with 0 < d <= sqrt(|G|);
  4. lift the modular values to exact cyclotomic integers through the
     root-of-unity multiplicities m_j = (1/e) sum_t chi(g^t) z^{-jt}: the
     value is sum_j m_j zeta_e^j with integer m_j, so it has integer
     coefficients in the power basis of Z[zeta_e];
  5. verify sum d^2 = |G| and first orthogonality exactly.

Everything is exact: modular arithmetic with proven-unique lifts, then
cyclotomic integers in Z[zeta_e] with int coefficients.  Averages over a
group sum ints and divide once, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List

from .errors import DixonBoundExceeded, MismatchReport, NonIntegralResult
from .ffield import FieldOps, _is_prime, kernel, row_reduce
from .groupfq import GSpElem, Mat4, Subgroup, _fq_matmul, _rows, conjugacy_classes

ORDER_BOUND = 2 * 10**4
CLASS_BOUND = 64


# ---------------------------------------------------------------------------
# small number theory helpers
# ---------------------------------------------------------------------------

def _prime_factors(n: int) -> List[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _choose_prime(exponent: int, group_order: int, n_classes: int) -> int:
    """Smallest prime ell = 1 mod exponent with ell > 2 sqrt(|G|) and
    ell > #classes (the latter keeps small divisions well-defined)."""
    floor_bound = max(math.isqrt(4 * group_order) + 1, n_classes + 1, 3)
    ell = exponent + 1
    while ell < floor_bound or not _is_prime(ell):
        ell += exponent
    return ell


def _primitive_root_of_unity(ell: int, e: int) -> int:
    """An element of exact multiplicative order e modulo ell (e | ell-1)."""
    assert (ell - 1) % e == 0
    primes = _prime_factors(e)
    for g in range(2, ell):
        h = pow(g, (ell - 1) // e, ell)
        if all(pow(h, e // p, ell) != 1 for p in primes):
            return h
    raise RuntimeError("no primitive root found (not prime?)")


# ---------------------------------------------------------------------------
# cyclotomic integers (exact values)
# ---------------------------------------------------------------------------

def _poly_div_exact(num: List[int], den: List[int]) -> List[int]:
    """Exact division of integer polynomials (constant first)."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        assert c % den[dd] == 0
        f = c // den[dd]
        out[i - dd] = f
        for j, dj in enumerate(den):
            num[i - dd + j] -= f * dj
    assert all(x == 0 for x in num)
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients (constant first) of the n-th cyclotomic polynomial."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _degree(n: int) -> int:
    """deg Phi_n, the length of a coefficient vector of Q(zeta_n)."""
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple:
    """x^m reduced mod Phi_n for m = 0 .. max(n, 2 deg - 1), as int tuples:
    Phi_n is monic, so reducing by it never divides."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    top = max(n, 2 * d - 1)
    table = []
    cur = [1] + [0] * (d - 1)
    for m in range(top + 1):
        table.append(tuple(cur))
        # multiply by x
        carry = cur[d - 1]
        nxt = [0] + cur[: d - 1]
        if carry:
            for i in range(d):
                nxt[i] -= carry * phi[i]
        cur = nxt
    return tuple(table)


class Cyclotomic:
    """An element of Z[zeta_n] in the power basis of Z[x]/Phi_n(x).

    Character values are algebraic integers, so every coefficient is an int;
    the constructor refuses anything else.  Exact averages divide once, at
    the end of a sum (``as_int`` of the total, then a ``Fraction`` or
    ``divmod`` by the group order)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        cs = tuple(coeffs)
        if len(cs) != _degree(order):
            raise ValueError(
                f"Q(zeta_{order}) has degree {_degree(order)}, got {len(cs)} coefficients"
            )
        bad = [c for c in cs if not isinstance(c, int)]
        if bad:
            raise TypeError(
                f"cyclotomic integer coefficients must be ints, got {bad[0]!r}"
            )
        self.order = order
        self.coeffs = cs

    @classmethod
    def _of(cls, order: int, coeffs: tuple) -> "Cyclotomic":
        """The element with the int tuple ``coeffs``, unchecked: for results
        of int arithmetic on checked elements."""
        out = object.__new__(cls)
        out.order = order
        out.coeffs = coeffs
        return out

    # constructors -----------------------------------------------------
    @staticmethod
    def zero(order: int) -> "Cyclotomic":
        return Cyclotomic._of(order, (0,) * _degree(order))

    @staticmethod
    def root_power(order: int, k: int) -> "Cyclotomic":
        """zeta_order^k."""
        return Cyclotomic._of(order, _power_table(order)[k % order])

    @staticmethod
    def combination(order: int, terms) -> "Cyclotomic":
        """sum n * c over the pairs (int n, Cyclotomic c) of ``terms``."""
        out = [0] * _degree(order)
        for n, c in terms:
            if n:
                for i, a in enumerate(c.coeffs):
                    if a:
                        out[i] += n * a
        return Cyclotomic(order, out)

    # arithmetic -------------------------------------------------------
    def _check(self, other: "Cyclotomic"):
        assert self.order == other.order

    def __add__(self, other):
        self._check(other)
        return Cyclotomic._of(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return Cyclotomic._of(self.order, tuple(a * other for a in self.coeffs))
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        self._check(other)
        d = len(self.coeffs)
        conv = [0] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        conv[i + j] += a * b
        # x^m for m < d is a basis vector; fold the higher powers
        out = conv[:d]
        table = _power_table(self.order)
        for m in range(d, 2 * d - 1):
            c = conv[m]
            if c:
                for i, t in enumerate(table[m]):
                    if t:
                        out[i] += c * t
        return Cyclotomic._of(self.order, tuple(out))

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation zeta -> zeta^{-1}."""
        table = _power_table(self.order)
        out = [0] * len(self.coeffs)
        for k, c in enumerate(self.coeffs):
            if c:
                for i, t in enumerate(table[(self.order - k) % self.order]):
                    if t:
                        out[i] += c * t
        return Cyclotomic._of(self.order, tuple(out))

    # predicates -------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_fraction() == Fraction(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_int(self) -> int:
        """The value, which must be rational, hence an integer."""
        if not self.is_rational():
            raise NonIntegralResult(f"{self!r} is not rational")
        return self.coeffs[0]

    def as_fraction(self) -> Fraction:
        return Fraction(self.as_int())

    def __repr__(self):
        if self.is_rational():
            return f"Cyc({self.coeffs[0]})"
        return f"Cyc(order={self.order}, {list(self.coeffs)})"


# ---------------------------------------------------------------------------
# modular linear algebra; the elimination is ffield.row_reduce and
# ffield.kernel over a FieldOps mod ell
# ---------------------------------------------------------------------------

def _mat_apply(mat: List[List[int]], vec: List[int], m: int) -> List[int]:
    return [sum(row[k] * vec[k] for k in range(len(vec)) if vec[k]) % m for row in mat]


def _charpoly_mod(t: List[List[int]], m: int) -> List[int]:
    """Monic characteristic polynomial mod m (constant first) by the
    Faddeev-LeVerrier recursion; needs m prime and m > dim."""
    d = len(t)
    coeffs = [0] * (d + 1)
    coeffs[d] = 1
    work = [[0] * d for _ in range(d)]  # M_0 = 0
    c_prev = 1
    for k in range(1, d + 1):
        for i in range(d):
            work[i][i] = (work[i][i] + c_prev) % m
        nxt = [
            [
                sum(t[i][a] * work[a][j] for a in range(d)) % m
                for j in range(d)
            ]
            for i in range(d)
        ]
        work = nxt
        tr = sum(work[i][i] for i in range(d)) % m
        ck = (-tr * pow(k, m - 2, m)) % m
        coeffs[d - k] = ck
        c_prev = ck
    return coeffs


def _poly_roots_mod(coeffs: List[int], m: int) -> List[int]:
    roots = []
    for x in range(m):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % m
        if acc == 0:
            roots.append(x)
    return roots


# ---------------------------------------------------------------------------
# the character table object
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CharacterTable:
    """Exact character table: values[i][k] is chi_i on class k, and
    labels[n] is the class of row n of the group."""

    group: Subgroup
    classes: list
    labels: "np.ndarray"
    exponent: int
    ell: int
    degrees: List[int]
    values: list  # List[List[Cyclotomic]]
    identity_class: int

    @property
    def n_chars(self) -> int:
        return len(self.degrees)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def value(self, i: int, k: int) -> Cyclotomic:
        return self.values[i][k]

    def class_index(self, g: GSpElem) -> int:
        """The class of the group element g."""
        return int(self.labels[self.group.positions(_rows([g.mat.e], g.spec))[0]])

    def classes_of(self, sub: Subgroup) -> "np.ndarray":
        """The class of each row of sub, a subgroup of the group."""
        return self.labels[self.group.positions(sub.rows)]

    def class_counts(self, sub: Subgroup) -> list:
        """|sub ∩ C_k| for every class k of the group containing sub."""
        import numpy as np

        return np.bincount(self.classes_of(sub), minlength=self.n_classes).tolist()

    def fixed_dim(self, i: int, subgroup: Subgroup) -> int:
        """dim chi_i^R = (1/|R|) sum_k |R ∩ C_k| chi_i(C_k), exact."""
        total = Cyclotomic.combination(
            self.exponent, zip(self.class_counts(subgroup), self.values[i])
        ).as_int()
        dim, rem = divmod(total, subgroup.order)
        if rem or dim < 0:
            raise NonIntegralResult(
                f"character sum {Fraction(total, subgroup.order)} is not a "
                f"nonnegative integer"
            )
        return dim

    def inner(self, i: int, j: int) -> Fraction:
        """First-orthogonality inner product <chi_i, chi_j>, exact."""
        total = Cyclotomic.combination(
            self.exponent,
            ((cls.size, vi * vj.conjugate())
             for cls, vi, vj in zip(self.classes, self.values[i], self.values[j])),
        )
        return Fraction(total.as_int(), self.group.order)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def _class_products(group: Subgroup, classes: list) -> tuple:
    """(labels, power_classes, kstar, mats): the class of each row of
    ``group``, the classes of the powers of each rep (``_power_classes``),
    the inverse class of each class, which is the class of its rep's last
    power rep^(e-1) = rep^-1, and a generator of the class matrices
    (M_i)_{j,k} = a_{ij}^k, the number of w in C_{i*} with w z_k in C_j
    (z_k the rep), built one class i at a time as it is consumed."""
    import numpy as np

    spec, rows = group.spec, group.rows
    r = len(classes)
    labels = np.empty(group.order, dtype=np.intp)
    for k, cls in enumerate(classes):
        labels[cls.index] = k
    power_classes = [_power_classes(group, labels, cls.rep) for cls in classes]
    kstar = [pows[-1] for pows in power_classes]
    z = rows[[cls.index[0] for cls in classes]].reshape(1, r, 4, 4)

    def mats():
        for i in range(r):
            w = rows[classes[kstar[i]].index].reshape(-1, 1, 4, 4)
            j = labels[group.positions(_fq_matmul(w, z, spec))].reshape(-1, r)
            counts = np.bincount((j * r + np.arange(r)).ravel(), minlength=r * r)
            yield counts.reshape(r, r).tolist()

    return labels, power_classes, kstar, mats()


def _power_classes(group: Subgroup, labels, g: GSpElem) -> list:
    """The classes of g^0, g^1, ..., g^(e-1), e the order of g."""
    identity = Mat4.identity(group.spec).e
    powers = [g]
    while powers[-1].key() != identity:
        powers.append(powers[-1] * g)
    # powers holds g^1 .. g^e, and g^e is the identity
    rows = _rows([x.mat.e for x in powers], group.spec)
    found = labels[group.positions(rows)].tolist()
    return found[-1:] + found[:-1]


def dixon_table(group: Subgroup) -> CharacterTable:
    """Compute the exact character table of a group of order at most
    ORDER_BOUND with at most CLASS_BOUND classes."""
    if group.order > ORDER_BOUND:
        raise DixonBoundExceeded(
            f"group order {group.order} exceeds bound {ORDER_BOUND}"
        )
    classes = conjugacy_classes(group)
    r = len(classes)
    if r > CLASS_BOUND:
        raise DixonBoundExceeded(f"{r} classes exceed bound {CLASS_BOUND}")

    labels, power_classes, kstar, mats = _class_products(group, classes)
    sizes = [cls.size for cls in classes]
    id_class = power_classes[0][0]
    orders = [len(pows) for pows in power_classes]
    exponent = math.lcm(*orders)
    ell = _choose_prime(exponent, group.order, r)

    # simultaneous eigenvector descent mod ell
    field = FieldOps(lambda x: pow(x, ell - 2, ell), lambda x: x % ell)
    full = [[1 if a == b else 0 for b in range(r)] for a in range(r)]
    spaces = [(full, list(range(r)))]  # (rref rows, pivot columns)
    # the next class matrix is built only while some eigenspace is not a line
    for i, mat in enumerate(mats):
        if i == id_class:
            continue
        mat_i = [[x % ell for x in row] for row in mat]
        refined = []  # (rref rows, pivot columns) of each eigenspace
        for rows, pivots in spaces:
            d = len(rows)
            if d == 1:
                refined.append((rows, pivots))
                continue
            images = [_mat_apply(mat_i, v, ell) for v in rows]
            # T[a][b]: coefficient of basis vector a in image of vector b
            t = [[images[b][pivots[a]] % ell for b in range(d)] for a in range(d)]
            cp = _charpoly_mod(t, ell)
            for lam in _poly_roots_mod(cp, ell):
                shifted = [
                    [(t[a][b] - (lam if a == b else 0)) % ell for b in range(d)]
                    for a in range(d)
                ]
                eigen_vecs = []
                for combo in kernel(shifted, field):
                    vec = [0] * r
                    for a, ca in enumerate(combo):
                        if ca:
                            for pos in range(r):
                                vec[pos] = (vec[pos] + ca * rows[a][pos]) % ell
                    eigen_vecs.append(vec)
                if eigen_vecs:
                    refined.append(row_reduce(eigen_vecs, field))
        spaces = refined
        if all(len(rows) == 1 for rows, _ in spaces):
            break

    if not all(len(rows) == 1 for rows, _ in spaces) or len(spaces) != r:
        raise MismatchReport(
            [("eigenvector separation", r, sum(len(x[0]) for x in spaces))]
        )

    # omega vectors, normalized at the identity class
    omegas = []
    for rows, _ in spaces:
        v = rows[0]
        if v[id_class] % ell == 0:
            raise MismatchReport([("omega identity coordinate", "nonzero", 0)])
        inv = pow(v[id_class], ell - 2, ell)
        omegas.append([(x * inv) % ell for x in v])

    # degrees
    inv_sizes = [pow(s % ell, ell - 2, ell) for s in sizes]
    degrees = []
    max_d = math.isqrt(group.order)
    for om in omegas:
        s = sum(om[k] * om[kstar[k]] % ell * inv_sizes[k] for k in range(r)) % ell
        d2 = (group.order % ell) * pow(s, ell - 2, ell) % ell
        d = next((x for x in range(1, max_d + 1) if x * x % ell == d2), None)
        if d is None:
            raise MismatchReport([("degree recovery", f"square root of {d2}", None)])
        degrees.append(d)

    if sum(d * d for d in degrees) != group.order:
        raise MismatchReport(
            [("sum of squared degrees", group.order, sum(d * d for d in degrees))]
        )

    # modular character values chi(g_k) = d * omega_k / h_k
    cvals = [
        [(degrees[i] * om[k] % ell) * inv_sizes[k] % ell for k in range(r)]
        for i, om in enumerate(omegas)
    ]

    w = _primitive_root_of_unity(ell, exponent)

    # exact lift through root-of-unity multiplicities
    values = []
    for i in range(len(omegas)):
        row = []
        for k in range(r):
            e = orders[k]
            z = pow(w, exponent // e, ell)
            zinv = pow(z, ell - 2, ell)
            inv_e = pow(e % ell, ell - 2, ell)
            zpow = [pow(zinv, t, ell) for t in range(e)]
            terms = []
            for j in range(e):
                s = 0
                for t in range(e):
                    s += cvals[i][power_classes[k][t]] * zpow[(j * t) % e]
                m_j = (s % ell) * inv_e % ell
                if m_j > degrees[i]:
                    raise MismatchReport(
                        [("root-of-unity multiplicity", f"<= {degrees[i]}", m_j)]
                    )
                if m_j:
                    terms.append((m_j, Cyclotomic.root_power(exponent, j * (exponent // e))))
            total_mult = sum(m for m, _ in terms)
            if total_mult != degrees[i]:
                raise MismatchReport(
                    [("total multiplicity", degrees[i], total_mult)]
                )
            row.append(Cyclotomic.combination(exponent, terms))
        values.append(row)

    table = CharacterTable(
        group=group,
        classes=classes,
        labels=labels,
        exponent=exponent,
        ell=ell,
        degrees=degrees,
        values=values,
        identity_class=id_class,
    )

    _verify_table(table)
    return table


def _verify_table(table: CharacterTable) -> None:
    failures = []
    for i, d in enumerate(table.degrees):
        v = table.values[i][table.identity_class]
        if not (v.is_rational() and v.as_fraction() == d):
            failures.append((f"degree of character {i}", d, v))
    if table.n_chars <= 32:
        for i in range(table.n_chars):
            for j in range(i, table.n_chars):
                got = table.inner(i, j)
                want = Fraction(1 if i == j else 0)
                if got != want:
                    failures.append((f"orthogonality <{i},{j}>", want, got))
    else:
        # larger tables: exact column orthogonality, which is O(r^2) products
        # instead of O(r^3): sum_i chi_i(g_k) conj(chi_i(g_l)) = delta_kl |C(g_k)|
        for k in range(table.n_classes):
            total = Cyclotomic.zero(table.exponent)
            for i in range(table.n_chars):
                total = total + table.values[i][k] * table.values[i][
                    table.identity_class
                ]
            want = Fraction(
                0 if k != table.identity_class
                else table.group.order // table.classes[k].size
            )
            if not (total.is_rational() and total.as_fraction() == want):
                failures.append((f"column orthogonality vs identity, class {k}", want, total))
            norm = Cyclotomic.zero(table.exponent)
            for i in range(table.n_chars):
                v = table.values[i][k]
                norm = norm + v * v.conjugate()
            centralizer = Fraction(table.group.order, table.classes[k].size)
            if not (norm.is_rational() and norm.as_fraction() == centralizer):
                failures.append((f"column norm, class {k}", centralizer, norm))
    if failures:
        raise MismatchReport(failures)


__all__ = [
    "CharacterTable",
    "Cyclotomic",
    "cyclotomic_polynomial",
    "dixon_table",
    "ORDER_BOUND",
    "CLASS_BOUND",
]
