"""GSp(4, F_q) as a finite matrix group: elements, closures, subgroups.

GSp(4) is taken with respect to the antidiagonal symplectic form

    J = [[ 0, 0, 0, 1],
         [ 0, 0, 1, 0],
         [ 0,-1, 0, 0],
         [-1, 0, 0, 0]],

so B(u, v) = u1 v4 + u2 v3 - u3 v2 - u4 v1, and g in GSp(4) means
t(g) J g = mu(g) J with mu(g) a unit (the similitude factor).

Matrices store their 16 entries as integer field-element encodings and do
arithmetic through the per-field lookup tables of ``ffield.tables``, which
keeps large closures cheap and exact.  Element construction, validation and
the group law run on those encodings too: the named-subgroup
parameterizations are built entry by entry with the add, mul, neg and inv
tables, ``GSpElem`` products take mu from the mul table, and the inverse is
the closed form mu^{-1} times the signed anti-transpose of g.  ``FqElem``
appears only at the API boundary (``GSpElem.mu``, ``Mat4.entry``,
``similitude``).

What is validated: ``gsp_elem`` checks all 16 entries of t(m) J m = mu J;
it is the one validator.  ``named_subgroup`` runs it on every element of
its hand-written parameterizations, and ``subgroup_closure`` runs it once
on each generator.  Closure products are trusted, since a product of
similitudes is a similitude: each gets its mu from the (1,4) entry of
t(g) J g,

    mu = g11 g44 + g21 g34 - g31 g24 - g41 g14,

without the full check.  Nothing compares det m with mu^2, which the
similitude check already forces (see ``gsp_elem``).

A ``Subgroup`` is one sorted (N, 16) array of encodings; whole-group work
(closure, membership, conjugacy classes, Dixon's class products,
``dim_fixed``) reads it with one kernel and one index, and ``GSpElem``
objects are built only when ``Subgroup.elements`` is asked for.  The
kernel, ``_fq_matmul``, splits entries into base-p digit planes,
multiplies plane by plane and folds back by the modulus; its arrays are
int16 while a plane entry stays below 2^15 (every extension field up to
``ffield.FIELD_BOUND``, primes up to 89), which also keeps the GSp(4, 3)
closure's peak memory a fifth below int32.  The index, ``row_keys``,
packs a row into 16 big-endian uint16s, so keys sort as the entry tuples
do and ``_positions`` finds rows by ``searchsorted``.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Optional

from . import ffield
from .errors import (
    ClosureTooLarge,
    GroupTooLarge,
    NotSimilitude,
    UnknownName,
)
from .ffield import FieldSpec, FqElem, field_for_q


# ---------------------------------------------------------------------------
# entries as element encodings
# ---------------------------------------------------------------------------

def _enc(spec: FieldSpec, x) -> int:
    """Encoding of an entry given as int (scalar) or FqElem."""
    if isinstance(x, FqElem):
        if x.spec != spec:
            raise ValueError("entry from a different field")
        return x.encoding()
    return spec.scalar(x).encoding()


# ---------------------------------------------------------------------------
# 4x4 matrices over F_q
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Mat4:
    """A 4x4 matrix over a fixed F_q; entries are element encodings."""

    spec: FieldSpec
    e: tuple  # 16 ints, row-major

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows) -> "Mat4":
        flat = []
        for row in rows:
            for x in row:
                flat.append(_enc(spec, x))
        if len(flat) != 16:
            raise ValueError("need 4x4 entries")
        return cls(spec, tuple(flat))

    @classmethod
    def identity(cls, spec: FieldSpec) -> "Mat4":
        one = spec.one.encoding()
        e = [0] * 16
        for i in range(4):
            e[5 * i] = one
        return cls(spec, tuple(e))

    @classmethod
    def diag(cls, spec: FieldSpec, a, b, c, d) -> "Mat4":
        e = [0] * 16
        for i, x in enumerate((a, b, c, d)):
            e[5 * i] = _enc(spec, x)
        return cls(spec, tuple(e))

    # -- access --------------------------------------------------------------

    def entry(self, r: int, c: int) -> FqElem:
        return self.spec.from_encoding(self.e[4 * r + c])

    # -- arithmetic ------------------------------------------------------------

    def __mul__(self, other: "Mat4") -> "Mat4":
        if self.spec != other.spec:
            raise ValueError("mixed fields")
        t = ffield.tables(self.spec)
        add, mul = t.add, t.mul
        a, b = self.e, other.e
        out = []
        for r in range(0, 16, 4):
            a0, a1, a2, a3 = a[r], a[r + 1], a[r + 2], a[r + 3]
            for c in range(4):
                s = mul[a0][b[c]]
                s = add[s][mul[a1][b[4 + c]]]
                s = add[s][mul[a2][b[8 + c]]]
                s = add[s][mul[a3][b[12 + c]]]
                out.append(s)
        return Mat4(self.spec, tuple(out))

    def __repr__(self):
        rows = [" ".join(str(self.e[4 * r + c]) for c in range(4)) for r in range(4)]
        return f"Mat4({self.spec}; " + " | ".join(rows) + ")"


# ---------------------------------------------------------------------------
# the similitude group
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def j_matrix(spec: FieldSpec) -> Mat4:
    return Mat4.from_rows(
        spec,
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]],
    )


def _similitude_enc(m: Mat4) -> int:
    """Encoding of mu with t(m) J m = mu J, or 0 if m is not a similitude.

    J m is m's rows (4, 3, -2, -1), so entry (i, j) of t(m) J m is
    m1i m4j + m2i m3j - m3i m2j - m4i m1j; all 16 are compared with mu J.
    """
    add, mul, neg, _, _ = ffield.tables(m.spec)
    e = m.e
    r0, r1, r2, r3 = e[0:4], e[4:8], e[8:12], e[12:16]
    a = tuple(
        add[add[mul[r0[i]][r3[j]]][mul[r1[i]][r2[j]]]][
            neg[add[mul[r2[i]][r1[j]]][mul[r3[i]][r0[j]]]]
        ]
        for i in range(4)
        for j in range(4)
    )
    mu = a[3]  # position (1,4) of J carries coefficient +1
    nm = neg[mu]
    if mu == 0 or a != (0, 0, 0, mu, 0, 0, mu, 0, 0, nm, 0, 0, nm, 0, 0, 0):
        return 0
    return mu


def similitude(m: Mat4) -> Optional[FqElem]:
    """mu with t(m) J m = mu J, or None if m is not a similitude."""
    mu = _similitude_enc(m)
    return m.spec.from_encoding(mu) if mu else None


# g^{-1}[i][j] = mu^{-1} g[3-j][3-i], negated where exactly one of i, j is
# 2 or 3: from t(g) J g = mu J, g^{-1} = -mu^{-1} J t(g) J.
_INV_SOURCE = tuple(4 * (3 - j) + (3 - i) for i in range(4) for j in range(4))
_INV_NEGATED = tuple((i >= 2) != (j >= 2) for i in range(4) for j in range(4))


@dataclass(frozen=True, slots=True)
class GSpElem:
    """An element of GSp(4, F_q) with its similitude factor."""

    mat: Mat4
    mu: FqElem

    @property
    def spec(self) -> FieldSpec:
        return self.mat.spec

    def __mul__(self, other: "GSpElem") -> "GSpElem":
        mat = self.mat * other.mat
        mul = ffield.tables(mat.spec).mul
        mu = mul[self.mu.encoding()][other.mu.encoding()]
        return GSpElem(mat, mat.spec.from_encoding(mu))

    def inverse(self) -> "GSpElem":
        spec = self.spec
        _, mul, neg, inv, _ = ffield.tables(spec)
        mu_inv = inv[self.mu.encoding()]
        scaled = mul[mu_inv]
        e = self.mat.e
        inv_e = tuple(
            neg[scaled[e[src]]] if negated else scaled[e[src]]
            for src, negated in zip(_INV_SOURCE, _INV_NEGATED)
        )
        return GSpElem(Mat4(spec, inv_e), spec.from_encoding(mu_inv))

    def key(self) -> tuple:
        return self.mat.e

    def __repr__(self):
        return f"GSp({self.mat.e}, mu={self.mu.encoding()})"


def gsp_elem(m: Mat4) -> GSpElem:
    """Validate m in GSp(4) and attach its similitude factor.

    The similitude check is the whole check.  Pfaffians of t(m) J m = mu J
    give det m Pf(J) = mu^2 Pf(J), and Pf(J) = 1, so det m = mu^2 follows
    over any commutative ring."""
    mu = _similitude_enc(m)
    if not mu:
        raise NotSimilitude(f"not a similitude matrix: {m}")
    return GSpElem(m, m.spec.from_encoding(mu))


def gsp4_order(q: int) -> int:
    return (q - 1) * q**4 * (q**2 - 1) * (q**4 - 1)


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

class Subgroup:
    """A concrete subgroup: its matrices in key order (the tuple order of
    ``Mat4.e``) as the (N, 16) encoding array ``rows``, with the similitude
    encodings ``mus`` and the ``row_keys`` ``keys``, plus optional
    generators.  ``make_subgroup`` hands rows and mus over as sorted lists,
    which become arrays on first use, so that building a named subgroup
    needs no numpy; ``elements`` are built from the rows on first use."""

    def __init__(self, spec: FieldSpec, rows, mus, generators=(), name=None):
        self.spec = spec
        self._sorted = rows, mus
        self.generators = tuple(generators)
        self.name = name

    @property
    def order(self) -> int:
        return len(self._sorted[1])

    @cached_property
    def rows(self):
        return _rows(self._sorted[0], self.spec)

    @cached_property
    def mus(self):
        import numpy as np

        return np.asarray(self._sorted[1])

    @cached_property
    def keys(self):
        return row_keys(self.rows)

    @cached_property
    def elements(self) -> tuple:
        return _elements(self.spec, self.rows, self.mus)

    def element(self, i: int) -> GSpElem:
        """The GSpElem of row i, built from that row alone."""
        return _elements(self.spec, self.rows[i:i + 1], self.mus[i:i + 1])[0]

    def __contains__(self, g) -> bool:
        return _contains(self.keys, g.mat.e if isinstance(g, GSpElem) else g.e)

    def __iter__(self):
        return iter(self.elements)

    def is_subset_of(self, other: "Subgroup") -> bool:
        return bool(_lookup(other.keys, self.rows)[1].all())

    def same_elements(self, other: "Subgroup") -> bool:
        return self.order == other.order and self.is_subset_of(other)

    def __repr__(self):
        label = self.name or "subgroup"
        return f"<{label} of GSp(4,{self.spec.q}), order {self.order}>"


def _elements(spec: FieldSpec, rows, mus) -> tuple:
    """The GSpElems of matrix rows and similitude encodings."""
    import numpy as np

    field = ffield.enumerate_field(spec)
    # a structured view turns each row straight into a tuple of ints
    tuples = rows.view(np.dtype([("", rows.dtype)] * 16)).ravel().tolist()
    return tuple(GSpElem(Mat4(spec, e), field[mu]) for e, mu in zip(tuples, mus.tolist()))


def make_subgroup(elems: Iterable[GSpElem], generators=(), name=None) -> Subgroup:
    elems = list(elems)
    if not elems:
        raise ValueError("empty subgroup")
    pairs = sorted((g.mat.e, g.mu.encoding()) for g in elems)
    return Subgroup(elems[0].spec, [e for e, _ in pairs], [mu for _, mu in pairs],
                    generators, name)


CLOSURE_BOUND = 10**6


def _rows(mats, spec: FieldSpec):
    """The (N, 16) encoding array of the entry tuples ``mats``: int16 while
    a digit-plane entry of ``_fq_matmul`` stays below 2^15, else int32."""
    import numpy as np

    # a digit-plane entry is at most f sums of four digit products plus f - 1
    # folded digit products
    small = (5 * spec.f - 1) * (spec.p - 1) ** 2 < 2**15
    return np.asarray(mats, dtype=np.int16 if small else np.int32).reshape(-1, 16)


def row_keys(rows):
    """One 32-byte key per matrix in an array of encodings whose trailing
    axes hold 16 entries: the entries as big-endian uint16s (every
    q <= FIELD_BOUND fits), so that keys compare bytewise in the tuple order
    of ``Mat4.e``, the order of ``Subgroup.elements``."""
    return rows.reshape(-1, 16).astype(">u2").view("V32").ravel()


def _lookup(keys, rows) -> tuple:
    """(positions, found) for each matrix of ``rows``, flattened as
    ``row_keys`` flattens: its index in the sorted ``keys`` if it is there,
    and whether it is."""
    import numpy as np

    wanted = row_keys(rows)
    pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return pos, keys[pos] == wanted


_KEY = struct.Struct(">16H")  # one row key, as ``row_keys`` packs it


def _contains(keys, e) -> bool:
    """Whether the matrix with the 16 entries e is among the sorted ``keys``:
    ``_lookup`` for one matrix, without its array steps."""
    import numpy as np

    key = _KEY.pack(*e)
    i = keys.searchsorted(np.void(key))
    return bool(i < len(keys) and keys[i].tobytes() == key)


def _positions(keys, rows):
    """Index in the sorted ``keys`` of each matrix of ``rows``; ValueError
    if one is not among them."""
    pos, found = _lookup(keys, rows)
    if not found.all():
        raise ValueError("row not in the group")
    return pos


def subgroup_closure(gens, bound: int = CLOSURE_BOUND, name=None) -> Subgroup:
    """Closure of GSpElem generators under multiplication (BFS from identity).

    Each generator is validated once with ``gsp_elem`` (NotSimilitude if its
    matrix is not a similitude or its mu is not the matrix's).  Products are
    trusted: every element gets its mu from the (1,4) entry of t(g) J g and
    is not checked again.  Raises ClosureTooLarge when more than ``bound``
    elements appear.  Every field takes the same path: one ``_fq_matmul``
    batch per BFS layer, deduplicated on ``row_keys``, and mu for all
    elements at once.
    """
    import numpy as np

    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:
        if gsp_elem(g.mat).mu != g.mu:
            raise NotSimilitude(f"similitude factor {g.mu} does not match {g.mat}")
    spec = gens[0].spec
    gen_arr = _rows([g.mat.e for g in gens], spec).reshape(1, -1, 4, 4)
    dtype = gen_arr.dtype
    layer = np.eye(4, dtype=dtype).reshape(1, 16)
    known = set(row_keys(layer).tolist())
    layers = []
    while len(layer):
        layers.append(layer)
        prods = _fq_matmul(layer.reshape(-1, 1, 4, 4), gen_arr, spec).reshape(-1, 16)
        fresh = []
        for i, key in enumerate(row_keys(prods).tolist()):
            if key not in known:
                known.add(key)
                fresh.append(i)
        if len(known) > bound:
            raise ClosureTooLarge(f"closure exceeded {bound}")
        layer = prods[fresh]
    del known, prods, layer
    mats = np.concatenate(layers)
    del layers
    # mu is column 1 of g dotted with column 4 of J g
    j = np.array(j_matrix(spec).e, dtype=dtype).reshape(4, 4)
    jg4 = _fq_matmul(j, mats[:, 3::4, None], spec)
    mus = _fq_matmul(mats[:, None, 0::4], jg4, spec).ravel()
    order = np.argsort(row_keys(mats))
    return Subgroup(spec, mats[order], mus[order], gens, name)


def _fq_matmul(a, b, spec: FieldSpec):
    """a @ b over F_q for arrays of element encodings (stacks of matrices,
    broadcast as ``@`` broadcasts).

    Both operands are split into their f base-p digit planes, the plane
    products are summed unreduced into 2f - 1 planes, each top plane is
    reduced mod p and folded down by the modulus, and the low f planes are
    reduced mod p and recombined: at f = 1 a single ``@`` and ``% p``.
    """
    p, f = spec.p, spec.f
    a, b = ([x // p**k % p for k in range(f)] if f > 1 else [x] for x in (a, b))
    acc = [None] * (2 * f - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            xy = x @ y
            acc[i + j] = xy if acc[i + j] is None else acc[i + j] + xy
    # x^top = x^(top - f) (-c_0 - c_1 x - ... - c_{f-1} x^(f-1)), -c_k mod p
    for top in range(2 * f - 2, f - 1, -1):
        t = acc[top] % p
        for k in range(f):
            c = -spec.modulus[k] % p
            if c:
                acc[top - f + k] += c * t
    enc = acc[0] % p
    for k in range(1, f):
        enc = enc + acc[k] % p * p**k
    return enc


# ---------------------------------------------------------------------------
# conjugacy classes
# ---------------------------------------------------------------------------

CONJUGACY_BOUND = 10**5


@dataclass(frozen=True, eq=False)
class ConjClass:
    """A conjugacy class: the ascending indices ``index`` of its members in
    ``group``'s rows; the least member is the rep."""

    group: Subgroup
    index: "np.ndarray"

    @property
    def size(self) -> int:
        return len(self.index)

    @property
    def rep(self) -> GSpElem:
        return self.group.element(int(self.index[0]))

    @property
    def elements(self) -> tuple:
        """The members as GSpElems, in key order."""
        return _elements(self.group.spec, self.group.rows[self.index],
                         self.group.mus[self.index])

    def __repr__(self):
        return f"<class of size {self.size}, rep {self.rep.key()}>"


def _generating_set(group: Subgroup) -> list:
    """Generators of ``group`` picked in key order: each element outside the
    closure of those picked before it."""
    import numpy as np

    gens = []
    inside = group.keys == row_keys(np.eye(4, dtype=group.rows.dtype))
    while not inside.all():
        gens.append(group.element(int(np.argmin(inside))))
        inside = _lookup(subgroup_closure(gens).keys, group.rows)[1]
    return gens


def conjugacy_classes(group: Subgroup, bound: int = CONJUGACY_BOUND) -> list:
    """All conjugacy classes in the order of their least elements, each with
    its least element as rep.

    The group's (N, 16) array is conjugated by each generator (a group
    without generators first gets some from ``_generating_set``):
    h x h^{-1} = y exactly when h x = y h, so the positions of the products
    h x and y h give the permutation that conjugation by h makes, with no
    inverse formed.  Orbits are labelled by min-label propagation: each
    label starts as the element's own index and takes the least label among
    its images until none changes.
    """
    import numpy as np

    if group.order > bound:
        raise GroupTooLarge(f"|G| = {group.order} exceeds {bound}")
    spec = group.spec
    mats = group.rows.reshape(-1, 4, 4)
    perms = []
    for h in group.generators or _generating_set(group):
        hm = _rows([h.mat.e], spec).reshape(4, 4)
        left = _positions(group.keys, _fq_matmul(hm, mats, spec))
        right = _positions(group.keys, _fq_matmul(mats, hm, spec))
        perms.append(np.argsort(right)[left])
    labels, old = np.arange(len(mats)), None
    while not np.array_equal(labels, old):
        old = labels
        for perm in perms:
            labels = np.minimum(labels, labels[perm])
        # a label is the index of an element of the same orbit whose own
        # label is no larger, so following it once more stays in the orbit
        labels = labels[labels]
    members = np.argsort(labels, kind="stable")
    return [ConjClass(group, idx) for idx in
            np.split(members, np.flatnonzero(np.diff(labels[members])) + 1)]


# ---------------------------------------------------------------------------
# root subgroups and the full group
# ---------------------------------------------------------------------------

def _root_mat(spec: FieldSpec, positions, t: FqElem) -> Mat4:
    """I + t * sum of signed elementary matrices; positions = ((r,c,sign),...)."""
    e = list(Mat4.identity(spec).e)
    for r, c, sign in positions:
        e[4 * r + c] = (t if sign > 0 else -t).encoding()
    return Mat4(spec, tuple(e))


# positive roots of Sp(4) in this realization, short to long:
#   a1 (short):        I + t(E12 - E34)
#   a2 (long):         I + t E23
#   a1+a2 (short):     I + t(E13 + E24)
#   2a1+a2 (long):     I + t E14
POS_ROOT_POSITIONS = (
    ((0, 1, +1), (2, 3, -1)),
    ((1, 2, +1),),
    ((0, 2, +1), (1, 3, +1)),
    ((0, 3, +1),),
)
NEG_ROOT_POSITIONS = (
    ((1, 0, +1), (3, 2, -1)),
    ((2, 1, +1),),
    ((2, 0, +1), (3, 1, +1)),
    ((3, 0, +1),),
)


def pos_root_elem(spec: FieldSpec, idx: int, t: FqElem) -> Mat4:
    return _root_mat(spec, POS_ROOT_POSITIONS[idx], t)


def neg_root_elem(spec: FieldSpec, idx: int, t: FqElem) -> Mat4:
    return _root_mat(spec, NEG_ROOT_POSITIONS[idx], t)


def gsp4_generators(spec: FieldSpec) -> list:
    """A small generating set: simple +/- root groups over an F_p-basis,
    plus a similitude torus generator."""
    basis = [spec.from_encoding(spec.p**i) for i in range(spec.f)]
    mats = []
    for b in basis:
        mats.append(pos_root_elem(spec, 0, b))
        mats.append(pos_root_elem(spec, 1, b))
        mats.append(neg_root_elem(spec, 0, b))
        mats.append(neg_root_elem(spec, 1, b))
    c = ffield.primitive_unit(spec)
    mats.append(Mat4.diag(spec, c, c, 1, 1))
    mats.append(Mat4.diag(spec, c, 1, 1, c.inverse()))
    return [gsp_elem(m) for m in mats]


def enumerate_gsp4(q: int) -> Subgroup:
    """The full group GSp(4, F_q) as a Subgroup, by closure of its
    generators; q > 3 is refused with GroupTooLarge."""
    spec = field_for_q(q)
    if q > 3:
        raise GroupTooLarge(f"|GSp(4,{q})| = {gsp4_order(q)} cannot be materialized")
    group = subgroup_closure(gsp4_generators(spec), name=f"GSp(4,{q})")
    if group.order != gsp4_order(q):
        raise RuntimeError(
            f"closure produced {group.order} elements, expected {gsp4_order(q)}"
        )
    return group


# ---------------------------------------------------------------------------
# named subgroups
# ---------------------------------------------------------------------------

def _gl2_iter(spec: FieldSpec):
    """(a, b, c, d, ad - bc) over encodings, for every invertible [[a, b], [c, d]]."""
    add, mul, neg, _, _ = ffield.tables(spec)
    E = range(spec.q)
    for a in E:
        for b in E:
            for c in E:
                nbc = neg[mul[b][c]]
                for d in E:
                    det = add[mul[a][d]][nbc]
                    if det:
                        yield a, b, c, d, det


def _named_elements(name: str, spec: FieldSpec):
    """Yield the matrices for each supported subgroup name, built on
    element encodings (1 is encoding 1, 0 is 0)."""
    add, mul, neg, inv, _ = ffield.tables(spec)
    E = range(spec.q)
    U = range(1, spec.q)
    mk = lambda *e: Mat4(spec, e)

    if name == "U_S":
        for x in E:
            for y in E:
                for z in E:
                    yield mk(1, 0, 0, 0, 0, 1, 0, 0, x, y, 1, 0, z, x, 0, 1)
    elif name == "U_K":
        for x in E:
            for y in E:
                for z in E:
                    yield mk(1, 0, 0, 0, x, 1, 0, 0, y, 0, 1, 0, z, y, neg[x], 1)
    elif name == "M":
        for z in U:
            mz = mul[z]
            for a, b, c, d, det in _gl2_iter(spec):
                yield mk(
                    z, 0, 0, 0, 0, mz[a], mz[b], 0, 0, mz[c], mz[d], 0, 0, 0, 0, mz[det]
                )
    elif name in ("M1", "R_klingen"):
        # M1 is the x = 0 part of R_klingen
        sl2 = [(a, b, c, d) for a, b, c, d, det in _gl2_iter(spec) if det == 1]
        for x in E if name == "R_klingen" else (0,):
            for a, b, c, d in sl2:
                yield mk(1, 0, 0, 0, 0, a, b, 0, 0, c, d, 0, x, 0, 0, 1)
    elif name == "S":
        for a in U:
            for b in U:
                b_a = mul[b][inv[a]]
                for x in E:
                    bx_a = mul[b_a][x]
                    for z in E:
                        yield mk(a, 0, 0, 0, 0, b, 0, 0, x, 0, a, 0, z, bx_a, 0, b)
    elif name == "A":
        for a in U:
            for d in U:
                ad, a_d, n_d = mul[a][d], mul[a][inv[d]], neg[inv[d]]
                for x in E:
                    nx_d = mul[n_d][x]
                    for z in E:
                        yield mk(a, 0, 0, 0, x, ad, 0, 0, 0, 0, a_d, 0, z, 0, nx_d, a)
    elif name in ("B", "C"):
        # B is the y = 0 part of C
        for a in U:
            for b in U:
                for c in U:
                    c_b, c_a = mul[c][inv[b]], mul[c][inv[a]]
                    for x in E:
                        for y in E if name == "C" else (0,):
                            yield mk(a, 0, 0, 0, 0, b, 0, 0, 0, x, c_b, 0, y, 0, 0, c_a)
    elif name == "D":
        for a in U:
            for b in U:
                for c in U:
                    c_b, c_a = mul[c][inv[b]], mul[c][inv[a]]
                    nc_b = neg[c_b]
                    for x in E:
                        for y in E:
                            yield mk(
                                a, mul[a][y], 0, 0,
                                0, b, 0, 0,
                                0, x, c_b, mul[nc_b][y],
                                0, 0, 0, c_a,
                            )
    elif name == "Row5":
        for a in U:
            for d in U:
                ad, a_d = mul[a][d], mul[a][inv[d]]
                for y in E:
                    for z in E:
                        yield mk(a, 0, 0, 0, 0, ad, 0, 0, 0, y, a_d, 0, z, 0, 0, a)
    elif name == "Row6":
        for a in U:
            for d in U:
                nd_a = neg[mul[d][inv[a]]]
                for x in E:
                    for y in E:
                        yield mk(a, 0, 0, 0, x, a, 0, 0, 0, 0, d, 0, y, 0, mul[nd_a][x], d)
    elif name == "Row7":
        for a in U:
            for d in U:
                d_a = mul[d][inv[a]]
                for x in E:
                    for y in E:
                        yield mk(a, 0, 0, 0, 0, d, 0, 0, x, y, a, 0, 0, mul[d_a][x], 0, d)
    elif name in ("R_last", "Row8"):
        # Row8 is R_last times the scalars a
        for a in U if name == "Row8" else (1,):
            inv_a = inv[a]
            for v in E:
                nvv_a, nv = neg[mul[mul[v][v]][inv_a]], neg[v]
                for b in E:
                    for c in E:
                        yield mk(a, 0, 0, 0, v, a, 0, 0, b, v, a, 0, c, add[b][nvv_a], nv, a)
    elif name == "Z_ray":
        # the long-root center: every support coset group contains a
        # conjugate of this line
        for z in E:
            yield mk(1, 0, 0, z, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)
    else:
        raise UnknownName(name)


_ALIASES = {"Row1": "D", "Row2": "C", "Row3": "M", "Row4": "B"}

NAMED_SUBGROUP_NAMES = (
    "U_S", "U_K", "M", "M1", "S", "A", "B", "C", "D", "R_last",
    "Row1", "Row2", "Row3", "Row4", "Row5", "Row6", "Row7", "Row8",
    "R_klingen", "Z_ray",
)


def named_subgroup(name: str, q) -> Subgroup:
    """One of the fixed-group families by name, over F_q.

    Rows 1/2/3/4 coincide with D/C/M/B and are served as aliases (D's
    (1,2) entry a y is Row 1's u, so its (3,4) entry -(c/b) y is -(d/b) u
    with d = c/a).  Every element
    is validated as a similitude; element counts are tested against the
    closed orders.
    """
    if name not in NAMED_SUBGROUP_NAMES:
        raise UnknownName(f"{name!r}; known: {', '.join(NAMED_SUBGROUP_NAMES)}")
    spec = q if isinstance(q, FieldSpec) else field_for_q(q)
    base = _ALIASES.get(name, name)
    elems = [gsp_elem(m) for m in _named_elements(base, spec)]
    return make_subgroup(elems, name=name)


def upper_unipotent(spec: FieldSpec) -> Subgroup:
    """The full upper unipotent subgroup U (order q^4): the products of one
    element from each positive root group."""
    field_elems = ffield.enumerate_field(spec)
    roots = [[pos_root_elem(spec, i, t) for t in field_elems] for i in range(4)]
    elems = [gsp_elem(a * b * c * d) for a, b, c, d in itertools.product(*roots)]
    if len(set(elems)) != spec.q**4:
        raise RuntimeError("unipotent parameterization not injective")
    return make_subgroup(elems, name="U")
