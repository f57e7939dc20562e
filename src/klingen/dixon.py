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
     eigenvalues are rational, by splitting each common eigenspace found
     so far into the eigenspaces of the next M_i: one kernel mod ell per
     eigenvalue, whose basis also gives the new space's coordinates;
  3. recover each degree d from d^2 = |G| / sum_k omega_k omega_{k*} / h_k
     (mod ell) together with 0 < d <= sqrt(|G|);
  4. lift the modular values to exact cyclotomic integers through the
     root-of-unity multiplicities m_j = (1/o) sum_t chi(g^t) z^{-jt}, o the
     order of g and z of order o mod ell: the value is sum_j m_j zeta_o^j
     with integer m_j, one product per class for every character at once.
     The table stores the values as one int64 array of shape (n_chars,
     n_classes, phi(e)), their coefficients in the power basis of Z[zeta_e];
  5. verify sum d^2 = |G| and first orthogonality exactly (past 32
     characters, the column relations instead), as int64 products over that
     array whose outer products fold back by x^a x^b = x^(a+b) mod Phi_e.

Everything is exact: modular arithmetic with proven-unique lifts, then
cyclotomic integers in Z[zeta_e] with int64 coefficients.  No int64
arithmetic wraps: before each product the inner length times the largest
absolute entries of both factors (max(r, e) (ell - 1)^2 for the residues
mod ell) must stay within ``INT_BOUND``, else ``DixonBoundExceeded``.
Averages over a group sum ints and divide once, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List

from .errors import DixonBoundExceeded, MismatchReport, NonIntegralResult
from .ffield import _is_prime, kernel
from .groupfq import GSpElem, Mat4, Subgroup, _fq_matmul, _rows, conjugacy_classes

ORDER_BOUND = 2 * 10**4
CLASS_BOUND = 64
# the largest int64: every int64 product first bounds its partial sums by it
INT_BOUND = 2**63 - 1


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
def _power_table(n: int):
    """x^m reduced mod Phi_n for m = 0 .. max(n, 2 deg - 1), as the rows of a
    read-only int64 array: Phi_n is monic, so reducing by it never divides."""
    import numpy as np

    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    top = max(n, 2 * d - 1)
    table = []
    cur = [1] + [0] * (d - 1)
    for m in range(top + 1):
        table.append(cur)
        # multiply by x
        carry = cur[d - 1]
        nxt = [0] + cur[: d - 1]
        if carry:
            for i in range(d):
                nxt[i] -= carry * phi[i]
        cur = nxt
    out = np.array(table, dtype=np.int64)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _conj_table(n: int):
    """Row k is x^-k mod Phi_n, read-only: a coefficient vector times this
    table is its complex conjugate."""
    import numpy as np

    out = _power_table(n)[-np.arange(_degree(n)) % n]
    out.setflags(write=False)
    return out


class Cyclotomic:
    """An element of Z[zeta_n] in the power basis of Z[x]/Phi_n(x): one value
    of a character table, whose arithmetic runs on coefficient arrays.

    Character values are algebraic integers, so every coefficient is an int;
    the constructor refuses anything else."""

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
# int64 products, each refused unless no partial sum can pass INT_BOUND
# ---------------------------------------------------------------------------

def _require(bound: int, what: str) -> None:
    """Refuse an int64 computation whose partial sums can reach ``bound``."""
    if bound > INT_BOUND:
        raise DixonBoundExceeded(
            f"{what} can reach {bound}, past the int64 bound {INT_BOUND}"
        )


def _dot(a, b):
    """a @ b over int64: every partial sum is at most the inner length times
    the largest absolute entries of a and b, and that bound is checked first."""
    _require(a.shape[-1] * int(abs(a).max(initial=0)) * int(abs(b).max(initial=0)),
             "an exact product")
    return a @ b


def _product(outer, n: int):
    """Coefficient vectors in Z[zeta_n] from outer products: outer[..., a, b]
    is the coefficient of x^a x^b.  The antidiagonals a + b = m sum to the
    coefficients of the polynomial product, which the rows x^m mod Phi_n of
    ``_power_table`` fold back into the power basis."""
    import numpy as np

    da, db = outer.shape[-2:]
    _require(min(da, db) * int(abs(outer).max(initial=0)), "a polynomial product")
    conv = np.zeros(outer.shape[:-2] + (da + db - 1,), dtype=np.int64)
    for a in range(da):
        conv[..., a:a + db] += outer[..., a, :]
    return _dot(conv, _power_table(n)[:da + db - 1])


def _conjugate(v, n: int):
    """The complex conjugates of the coefficient vectors v[..., :], which may
    stop short of deg Phi_n."""
    return _dot(v, _conj_table(n)[:v.shape[-1]])


def _trim(v):
    """v without the coefficients past the last one nonzero anywhere in it,
    which no product needs; at least the constant term stays."""
    used = v.reshape(-1, v.shape[-1]).any(axis=0).nonzero()[0]
    return v[..., :used[-1] + 1 if used.size else 1]


def _pairings(a, b, weights, n: int):
    """sum_k weights_k a_ik conj(b_jk) in Z[zeta_n] for every i and j: a and b
    are (rows, classes, deg) coefficient arrays, weights one int per class,
    and the result is (rows of a, rows of b, deg)."""
    a, bbar = _trim(a), _trim(_conjugate(_trim(b), n))
    rows, r, da = a.shape
    db = bbar.shape[-1]
    _require(int(abs(weights).max(initial=0)) * int(abs(bbar).max(initial=0)),
             "a weighted value")
    right = (bbar * weights[:, None]).transpose(1, 0, 2).reshape(r, -1)
    outer = _dot(a.transpose(0, 2, 1).reshape(rows * da, r), right)
    return _product(outer.reshape(rows, da, -1, db).transpose(0, 2, 1, 3), n)


def _rational(coeffs, n: int):
    """The ints that the coefficient vectors coeffs[..., :] stand for, as
    ``tolist`` gives them; each must be rational."""
    flat = coeffs.reshape(-1, coeffs.shape[-1])
    irrational = flat[:, 1:].any(axis=1)
    if irrational.any():
        first = Cyclotomic(n, flat[irrational.argmax()].tolist())
        raise NonIntegralResult(f"{first!r} is not rational")
    return coeffs[..., 0].tolist()


# ---------------------------------------------------------------------------
# modular linear algebra on int64 arrays with entries in [0, m); the
# elimination is ffield.kernel mod ell on the arrays' int lists
# ---------------------------------------------------------------------------

def _charpoly_mod(t, m: int) -> List[int]:
    """Monic characteristic polynomial mod m (constant first) of the square
    int64 array t by the Faddeev-LeVerrier recursion; needs m prime and
    m > dim."""
    import numpy as np

    d = len(t)
    _require(d * (m - 1) ** 2, f"arithmetic mod {m}")
    coeffs = [0] * (d + 1)
    coeffs[d] = 1
    work = np.zeros((d, d), dtype=np.int64)  # M_0 = 0
    diag = np.arange(d)
    c_prev = 1
    for k in range(1, d + 1):
        work[diag, diag] = (work[diag, diag] + c_prev) % m
        work = t @ work % m
        ck = -int(work.trace()) * pow(k, m - 2, m) % m
        coeffs[d - k] = ck
        c_prev = ck
    return coeffs


def _poly_roots_mod(coeffs: List[int], m: int) -> List[int]:
    """The roots in [0, m) of the polynomial with coefficients in [0, m)
    (constant first): one Horner pass over every residue at once."""
    import numpy as np

    _require(m * (m - 1), f"arithmetic mod {m}")
    x = np.arange(m, dtype=np.int64)
    acc = np.zeros(m, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return np.flatnonzero(acc == 0).tolist()


# ---------------------------------------------------------------------------
# the character table object
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CharacterTable:
    """Exact character table.  values[i, k] holds chi_i on class k as its
    power-basis coefficients in Z[zeta_e], e = exponent: one read-only int64
    array of shape (n_chars, n_classes, phi(e)).  labels[n] is the class of
    row n of the group."""

    group: Subgroup
    classes: list
    labels: "np.ndarray"
    exponent: int
    ell: int
    degrees: List[int]
    values: "np.ndarray"
    identity_class: int

    @property
    def n_chars(self) -> int:
        return len(self.degrees)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def value(self, i: int, k: int) -> Cyclotomic:
        return Cyclotomic(self.exponent, self.values[i, k].tolist())

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

    def fixed_dims(self, subgroup: Subgroup) -> List[int]:
        """dim chi_i^R = (1/|R|) sum_k |R ∩ C_k| chi_i(C_k) of every character
        chi_i, exact."""
        import numpy as np

        counts = np.array(self.class_counts(subgroup), dtype=np.int64)
        dims = []
        for total in _rational(_dot(counts, self.values), self.exponent):
            dim, rem = divmod(total, subgroup.order)
            if rem or dim < 0:
                raise NonIntegralResult(
                    f"character sum {Fraction(total, subgroup.order)} is not a "
                    f"nonnegative integer"
                )
            dims.append(dim)
        return dims

    def fixed_dim(self, i: int, subgroup: Subgroup) -> int:
        """dim chi_i^R, exact."""
        return self.fixed_dims(subgroup)[i]

    def class_sizes(self) -> "np.ndarray":
        """|C_k| for every class k, as int64."""
        import numpy as np

        return np.array([cls.size for cls in self.classes], dtype=np.int64)

    def inner(self, i: int, j: int) -> Fraction:
        """First-orthogonality inner product <chi_i, chi_j>, exact."""
        total = _pairings(self.values[i:i + 1], self.values[j:j + 1],
                          self.class_sizes(), self.exponent)[0, 0]
        return Fraction(_rational(total, self.exponent), self.group.order)


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
    import numpy as np

    if group.order > ORDER_BOUND:
        raise DixonBoundExceeded(
            f"group order {group.order} exceeds bound {ORDER_BOUND}"
        )
    classes = conjugacy_classes(group)
    r = len(classes)
    if r > CLASS_BOUND:
        raise DixonBoundExceeded(f"{r} classes exceed bound {CLASS_BOUND}")

    labels, power_classes, kstar, mats = _class_products(group, classes)
    id_class = power_classes[0][0]
    orders = [len(pows) for pows in power_classes]
    exponent = math.lcm(*orders)
    ell = _choose_prime(exponent, group.order, r)
    # every residue below lies in [0, ell), and no sum of products of two
    # has more than max(r, exponent) terms
    _require(max(r, exponent) * (ell - 1) ** 2, f"arithmetic mod {ell}")

    # simultaneous eigenvector descent mod ell
    # (rows, pivots): the rows span the space and are the identity on pivots
    spaces = [(np.eye(r, dtype=np.int64), list(range(r)))]
    # the next class matrix is built only while some eigenspace is not a line
    for i, mat in enumerate(mats):
        if i == id_class:
            continue
        mat_t = np.array(mat, dtype=np.int64).T % ell
        refined = []
        for rows, pivots in spaces:
            d = len(rows)
            if d == 1:
                refined.append((rows, pivots))
                continue
            # t[a, b]: coefficient of basis vector a in the image of vector b
            t = (rows @ mat_t % ell)[:, pivots].T
            for lam in _poly_roots_mod(_charpoly_mod(t, ell), ell):
                shifted = (t - lam * np.eye(d, dtype=np.int64)) % ell
                combos, free = kernel(shifted.tolist(), ell)
                if combos:
                    # rows is the identity on pivots, so column pivots[c] of
                    # combos @ rows is column c of combos, and combos is the
                    # identity on its free columns
                    refined.append((np.array(combos, dtype=np.int64) @ rows % ell,
                                    [pivots[c] for c in free]))
        spaces = refined
        if all(len(rows) == 1 for rows, _ in spaces):
            break

    if not all(len(rows) == 1 for rows, _ in spaces) or len(spaces) != r:
        raise MismatchReport(
            [("eigenvector separation", r, sum(len(x[0]) for x in spaces))]
        )

    # omega vectors, normalized at the identity class
    basis = np.concatenate([rows for rows, _ in spaces])
    if not basis[:, id_class].all():
        raise MismatchReport([("omega identity coordinate", "nonzero", 0)])
    inv = [pow(x, ell - 2, ell) for x in basis[:, id_class].tolist()]
    omegas = basis * np.array(inv)[:, None] % ell

    # degrees: d^2 = |G| / sum_k omega_k omega_{k*} / h_k, with 0 < d <= sqrt|G|
    inv_sizes = np.array([pow(cls.size % ell, ell - 2, ell) for cls in classes])
    sums = (omegas * omegas[:, kstar] % ell) @ inv_sizes % ell
    d2 = [(group.order % ell) * pow(s, ell - 2, ell) % ell for s in sums.tolist()]
    squares = np.arange(1, math.isqrt(group.order) + 1) ** 2 % ell
    roots = squares == np.array(d2)[:, None]
    missing = ~roots.any(axis=1)
    if missing.any():
        found = d2[int(missing.argmax())]
        raise MismatchReport([("degree recovery", f"square root of {found}", None)])
    degrees = (roots.argmax(axis=1) + 1).tolist()

    if sum(d * d for d in degrees) != group.order:
        raise MismatchReport(
            [("sum of squared degrees", group.order, sum(d * d for d in degrees))]
        )

    # modular character values chi(g_k) = d * omega_k / h_k
    deg = np.array(degrees)
    cvals = deg[:, None] * omegas % ell * inv_sizes % ell

    # exact lift through root-of-unity multiplicities: the class of g^t is
    # power_classes[k][t] for the rep g of order o, z = w^(e/o) has order o,
    # and chi(g) = sum_j m_j zeta_e^(j e/o) with
    # m_j = (1/o) sum_t chi(g^t) z^(-jt) mod ell
    w = _primitive_root_of_unity(ell, exponent)
    powers = _power_table(exponent)
    values = np.empty((r, r, _degree(exponent)), dtype=np.int64)
    for k, pows in enumerate(power_classes):
        o = len(pows)
        zinv = pow(w, exponent - exponent // o, ell)
        t = np.arange(o)
        zpow = np.array([pow(zinv, j, ell) for j in range(o)])
        mults = (cvals[:, pows] @ zpow[np.outer(t, t) % o] % ell
                 * pow(o, ell - 2, ell) % ell)
        over = mults > deg[:, None]
        if over.any():
            i, j = np.argwhere(over)[0]
            raise MismatchReport(
                [("root-of-unity multiplicity", f"<= {degrees[i]}", int(mults[i, j]))]
            )
        totals = mults.sum(axis=1)
        if (totals != deg).any():
            i = int((totals != deg).argmax())
            raise MismatchReport([("total multiplicity", degrees[i], int(totals[i]))])
        values[:, k] = _dot(mults, powers[t * (exponent // o)])
    values.setflags(write=False)

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


def _column_sums(values, identity_class: int, n: int) -> tuple:
    """sum_i chi_i(g_k) chi_i(1) and sum_i chi_i(g_k) conj(chi_i(g_k)) for every
    class k, as (classes, deg) coefficient arrays in Z[zeta_n]."""
    values = _trim(values)
    by_class = values.transpose(1, 2, 0)
    against_identity = _product(_dot(by_class, values[:, identity_class]), n)
    conj = _trim(_conjugate(values, n))
    norms = _product(_dot(by_class, conj.transpose(1, 0, 2)), n)
    return against_identity, norms


def _verify_table(table: CharacterTable) -> None:
    """Degrees on the identity class, then first orthogonality (up to 32
    characters) or both column relations: each an int64 product over the
    value array, folded into Z[zeta_e]."""
    import numpy as np

    e, values, order = table.exponent, table.values, table.group.order
    identity = values[:, table.identity_class]
    failures = []
    for i, d in enumerate(table.degrees):
        if identity[i, 1:].any() or identity[i, 0] != d:
            failures.append((f"degree of character {i}", d,
                             table.value(i, table.identity_class)))
    if table.n_chars <= 32:
        # |G| <chi_i, chi_j> for every pair, against |G| delta_ij
        grams = _pairings(values, values, table.class_sizes(), e)
        want = np.zeros_like(grams)
        want[..., 0] = order * np.eye(table.n_chars, dtype=np.int64)
        for i, j in np.argwhere((grams != want).any(axis=-1)).tolist():
            if i <= j:
                failures.append((f"orthogonality <{i},{j}>", Fraction(int(i == j)),
                                 table.inner(i, j)))
    else:
        # larger tables: exact column orthogonality, which is O(r^2) products
        # instead of O(r^3): sum_i chi_i(g_k) conj(chi_i(g_l)) = delta_kl |C(g_k)|
        against_identity, norms = _column_sums(values, table.identity_class, e)
        for k, cls in enumerate(table.classes):
            want = Fraction(0 if k != table.identity_class else order // cls.size)
            total = against_identity[k]
            if total[1:].any() or int(total[0]) != want:
                failures.append((f"column orthogonality vs identity, class {k}", want,
                                 Cyclotomic(e, total.tolist())))
            centralizer = Fraction(order, cls.size)
            norm = norms[k]
            if norm[1:].any() or int(norm[0]) != centralizer:
                failures.append((f"column norm, class {k}", centralizer,
                                 Cyclotomic(e, norm.tolist())))
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
