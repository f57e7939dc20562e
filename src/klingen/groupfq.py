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
tables and reach ``Subgroup`` as entry tuples with their mu, with no
``Mat4`` or ``GSpElem`` per element; ``GSpElem`` products take mu from the
mul table, and the inverse is the closed form mu^{-1} times the signed
anti-transpose of g.  ``FqElem`` appears only at the API boundary:
``GSpElem.mu``, ``Mat4.entry``, the entries ``Mat4.from_rows`` and
``Mat4.diag`` accept, and the parameter of ``pos_root_elem`` and
``neg_root_elem``.

What is validated: ``_similitude_enc`` reads the six entries above the
diagonal of t(m) J m = mu J (the rest follow, as that matrix is
alternating) from a tuple of entry encodings; it is the one validator.
``named_subgroup`` runs it on every entry tuple of its hand-written
parameterizations, ``gsp_elem`` on the matrix it wraps (so
``subgroup_closure`` and ``adjoin`` run it once on each generator, and
``enumerate_gsp4`` and ``upper_unipotent`` once on each factor of their
products), and ``padic._lattice_order`` on every point it counts.
Products are trusted, since a product of similitudes is a similitude: a
closure product gets its mu from the (1,4) entry of t(g) J g,

    mu = g11 g44 + g21 g34 - g31 g24 - g41 g14,

without the full check, and a Bruhat product the product of its factors'
mus.  Nothing compares det m with mu^2, which the similitude check already
forces (see ``gsp_elem``).

A ``Subgroup`` is one sorted (N, 16) array of encodings; whole-group work
(closure, membership, conjugacy classes, Dixon's class products,
``dim_fixed``) reads it with one kernel and one index, and ``GSpElem``
objects are built only when ``Subgroup.elements`` is asked for.  The whole
group GSp(4, q) and its upper unipotent subgroup U are not closed but
built: ``enumerate_gsp4`` multiplies out the Bruhat cells U_w w T U and
``upper_unipotent`` the products of the positive root groups, each in a
few batched kernel calls, and both require the count of distinct rows
that the group's order gives.  Closure, which backs ``adjoin`` (the R_g
sampler and ``conjugacy_classes`` of a group without generators) and
``subgroup_closure`` (the tests' oracle for the Bruhat build), is
Dimino's: each group is a union of right cosets of the one before, found
by their representatives alone.  The kernel, ``_fq_matmul``, splits entries
into base-p digit planes, multiplies plane by plane and folds back by the
modulus, reducing mod p by ``ffield.residue`` (floor division, not numpy's
slower ``%``, from ``ffield.RESIDUE_FLOOR_ENTRIES`` entries on); its arrays
are int16 while a plane entry stays below 2^15 (every extension field up
to ``ffield.FIELD_BOUND``, primes up to 89).  The index,
``row_keys``, is one search key per row whose order is the tuple order of
the entries: for q <= 13, where q^16 <= 2^63, the row read as a 16-digit
base-q integer, one int64; from q = 16 on, the entries as 16 big-endian
uint16s, one 32-byte void.  A closure or a built group is put in key order
by ``_key_order`` (an argsort of int64 keys, a lexsort of the columns for
void keys) and keeps its sorted keys, which ``Subgroup.positions`` and
``Subgroup.lookup`` search by ``searchsorted``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Iterable

from . import ffield
from .errors import (
    ClosureTooLarge,
    GroupTooLarge,
    MixedFields,
    NotSimilitude,
    OrderMismatch,
    UnknownName,
)
from .ffield import FieldSpec, FqElem, field_for_q


# ---------------------------------------------------------------------------
# entries as element encodings
# ---------------------------------------------------------------------------

def _enc(spec: FieldSpec, x) -> int:
    """Encoding of an entry given as int (scalar) or FqElem; MixedFields
    for an FqElem of another field."""
    if isinstance(x, FqElem):
        if x.spec != spec:
            raise MixedFields(f"entry from {x.spec}, matrix over {spec}")
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
            raise MixedFields(f"{self.spec} vs {other.spec}")
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


def _similitude_enc(e: tuple, t) -> int:
    """Encoding of mu with t(m) J m = mu J for the matrix m with entries e
    (16 encodings, row-major) over the field of the ``ffield.tables`` t, or
    0 if m is not a similitude.

    J m is m's rows (4, 3, -2, -1), so entry (i, j) of t(m) J m is
    m1i m4j + m2i m3j - m3i m2j - m4i m1j.  That matrix is alternating for
    every m (x^t J x = 0 for an alternating J, in every characteristic), so
    its six entries above the diagonal decide: (1,2), (1,3), (2,4) and (3,4)
    are 0, and (1,4) = (2,3) = mu is not.  This is the one similitude test:
    ``gsp_elem``, ``named_subgroup`` and ``padic._lattice_order`` call it.
    """
    add, mul, neg = t.add, t.mul, t.neg
    a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = e
    # entry (i, j) is (a_i d_j + b_i c_j) - (c_i b_j + d_i a_j)
    ma, mb, mc, md = mul[a0], mul[b0], mul[c0], mul[d0]
    mu = add[add[ma[d3]][mb[c3]]][neg[add[mc[b3]][md[a3]]]]
    if (not mu
            or add[add[ma[d1]][mb[c1]]][neg[add[mc[b1]][md[a1]]]]
            or add[add[ma[d2]][mb[c2]]][neg[add[mc[b2]][md[a2]]]]):
        return 0
    ma, mb, mc, md = mul[a1], mul[b1], mul[c1], mul[d1]
    if (add[add[ma[d2]][mb[c2]]][neg[add[mc[b2]][md[a2]]]] != mu
            or add[add[ma[d3]][mb[c3]]][neg[add[mc[b3]][md[a3]]]]):
        return 0
    ma, mb, mc, md = mul[a2], mul[b2], mul[c2], mul[d2]
    if add[add[ma[d3]][mb[c3]]][neg[add[mc[b3]][md[a3]]]]:
        return 0
    return mu


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
    mu = _similitude_enc(m.e, ffield.tables(m.spec))
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
    encodings ``mus`` and the sorted ``row_keys`` ``keys`` (int64 for
    q <= 13, 32-byte voids above), plus optional generators.  Rows are found
    by ``positions`` and ``lookup``, which search ``keys``.
    ``make_subgroup`` and ``named_subgroup`` hand rows and mus over as
    sorted lists, which become arrays on first use, so that building a named
    subgroup needs no numpy; a closure or a built group hands over the keys
    it sorted by.  ``elements`` are built from the rows on first use."""

    def __init__(self, spec: FieldSpec, rows, mus, generators=(), name=None, keys=None):
        self.spec = spec
        self._sorted = rows, mus
        self.generators = tuple(generators)
        self.name = name
        if keys is not None:
            self.keys = keys  # fills the cached property

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
        return row_keys(self.rows, self.spec.q)

    @cached_property
    def elements(self) -> tuple:
        return _elements(self.spec, self.rows, self.mus)

    def element(self, i: int) -> GSpElem:
        """The GSpElem of row i, built from that row alone."""
        return _elements(self.spec, self.rows[i:i + 1], self.mus[i:i + 1])[0]

    def __contains__(self, g) -> bool:
        """Whether a GSpElem or Mat4 is among the elements; False for one
        over another field."""
        mat = g.mat if isinstance(g, GSpElem) else g
        if mat.spec != self.spec:
            return False
        return bool(self.lookup(_rows(mat.e, self.spec))[1][0])

    def __iter__(self):
        return iter(self.elements)

    def is_subset_of(self, other: "Subgroup") -> bool:
        """MixedFields if other is a subgroup over another field."""
        if other.spec != self.spec:
            raise MixedFields(f"{self.spec} vs {other.spec}")
        return bool(other.lookup(self.rows)[1].all())

    def lookup(self, rows) -> tuple:
        """(positions, found) for each matrix of the encoding array ``rows``,
        flattened as ``row_keys`` flattens: its index in ``self.rows`` if it
        is there, and whether it is."""
        import numpy as np

        wanted = row_keys(rows, self.spec.q)
        pos = np.minimum(np.searchsorted(self.keys, wanted), self.order - 1)
        return pos, self.keys[pos] == wanted

    def positions(self, rows):
        """Index in ``self.rows`` of each matrix of the encoding array
        ``rows``; ValueError if one is not among them."""
        pos, found = self.lookup(rows)
        if not found.all():
            raise ValueError("row not in the group")
        return pos

    def same_elements(self, other: "Subgroup") -> bool:
        return self.is_subset_of(other) and self.order == other.order

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


def make_subgroup(elems: Iterable[GSpElem], *, name=None) -> Subgroup:
    elems = list(elems)
    if not elems:
        raise ValueError("empty subgroup")
    pairs = sorted((g.mat.e, g.mu.encoding()) for g in elems)
    return Subgroup(elems[0].spec, [e for e, _ in pairs], [mu for _, mu in pairs],
                    name=name)


CLOSURE_BOUND = 10**6


def _rows(mats, spec: FieldSpec):
    """The (N, 16) encoding array of the entry tuples ``mats``: int16 while
    a digit-plane entry of ``_fq_matmul`` stays below 2^15, else int32."""
    import numpy as np

    # a digit-plane entry is at most f sums of four digit products plus f - 1
    # folded digit products
    small = (5 * spec.f - 1) * (spec.p - 1) ** 2 < 2**15
    return np.asarray(mats, dtype=np.int16 if small else np.int32).reshape(-1, 16)


# below this many rows ``@`` builds a key faster; from it on ``einsum``, which
# casts the int16 rows in buffers instead of copying them whole to int64
_EINSUM_ROWS = 4096


@lru_cache(maxsize=None)
def _radix(q: int):
    """The place values q^15, ..., q^1, q^0 of a row's 16 base-q digits."""
    import numpy as np

    radix = np.array([q**(15 - c) for c in range(16)], dtype=np.int64)
    radix.flags.writeable = False  # shared by every caller
    return radix


def row_keys(rows, q: int):
    """One key per matrix in an array of F_q encodings whose trailing axes
    hold 16 entries, flattened to one axis, so that keys compare in the tuple
    order of ``Mat4.e``, the order of ``Subgroup.elements``.

    For q <= 13 (the prime powers with q^16 <= 2^63) the key is the int64
    sum of e_c q^(15 - c) over the entries e_c, the row as a base-q
    integer.  From q = 16 on no 64-bit integer holds every row, and the key
    is the 32-byte void of the entries as big-endian uint16s (every
    q <= FIELD_BOUND fits), which compares bytewise."""
    import numpy as np

    flat = rows.reshape(-1, 16)
    if q**16 > 2**63:
        return flat.astype(">u2").view("V32").ravel()
    if len(flat) < _EINSUM_ROWS:
        return flat @ _radix(q)
    return np.einsum("ij,j->i", flat, _radix(q))


def subgroup_closure(gens, *, name=None) -> Subgroup:
    """Closure of GSpElem generators under multiplication, by Dimino's
    algorithm: each generator s in turn is adjoined to H, the group of those
    before it.  <H, s> is a union of right cosets H c; as (H r) t = H (r t),
    a BFS over coset representatives r, with candidates r t for t among the
    generators up to s, tests membership for candidates only and forms each
    element once (left cosets c H would not close this way).  Membership is
    a set of ``row_keys``, Python ints for q <= 13 and bytes above, and the
    closure is sorted by the keys of its rows and keeps them.

    Each generator is validated once with ``gsp_elem`` (NotSimilitude if it
    is not a similitude or has a wrong mu); products are trusted and get mu
    from the (1,4) entry of t(g) J g.  ClosureTooLarge past ``CLOSURE_BOUND``.
    """
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator")
    spec = gens[0].spec
    h = _rows(Mat4.identity(spec).e, spec)
    return _close(h, row_keys(h, spec.q), gens, 0, name)


def adjoin(group: Subgroup, g: GSpElem) -> Subgroup:
    """<group, g> with generators ``group.generators + (g,)``, which must
    generate group (none for the trivial group): one subgroup_closure step."""
    return _close(group.rows, group.keys, group.generators + (g,),
                  len(group.generators), None)


def _close(h, h_keys, gens, start: int, name) -> Subgroup:
    """<gens> from the rows ``h`` of <gens[:start]>, with their ``row_keys``
    ``h_keys``, by the steps of ``subgroup_closure``: each BFS layer makes
    one ``_fq_matmul`` for its candidates and one for the cosets of the new
    ones, none while H is trivial, and keys each once.  The keys of the new
    cosets are kept, so the closure is sorted by them and hands them on."""
    import numpy as np

    spec = gens[0].spec
    q = spec.q
    for g in gens[start:]:
        if gsp_elem(g.mat).mu != g.mu:
            raise NotSimilitude(f"similitude factor {g.mu} does not match {g.mat}")
    gen_arr = _rows([g.mat.e for g in gens], spec).reshape(-1, 4, 4)
    known = set(h_keys.tolist())
    for i in range(start, len(gens)):
        # nothing new if gens[i] is in H
        blocks, key_blocks, cands = [h], [h_keys], gen_arr[i].reshape(1, 16)
        while True:
            keys = row_keys(cands, q).tolist()
            fresh = {key: c for c, key in enumerate(keys) if key not in known}
            if not fresh:
                break
            reps = cands[list(fresh.values())].reshape(-1, 1, 4, 4)
            cosets = reps.reshape(-1, 1, 16) if len(h) == 1 else _fq_matmul(
                h.reshape(1, -1, 4, 4), reps, spec)
            coset_keys = row_keys(cosets, q).reshape(len(fresh), -1)
            coset_key_lists = coset_keys.tolist()
            new = []
            for c, key in enumerate(fresh):
                if key not in known:  # else a coset found earlier in the layer
                    known.update(coset_key_lists[c])
                    new.append(c)
            if len(known) > CLOSURE_BOUND:
                raise ClosureTooLarge(f"closure exceeded {CLOSURE_BOUND}")
            blocks.append(cosets[new].reshape(-1, 16))
            key_blocks.append(coset_keys[new].ravel())
            cands = _fq_matmul(reps[new], gen_arr[:i + 1], spec).reshape(-1, 16)
        h, h_keys = np.concatenate(blocks), np.concatenate(key_blocks)
    del known, blocks, key_blocks
    # mu is column 1 of g dotted with column 4 of J g
    j = np.array(j_matrix(spec).e, dtype=h.dtype).reshape(4, 4)
    jg4 = _fq_matmul(j, h[:, 3::4, None], spec)
    mus = _fq_matmul(h[:, None, 0::4], jg4, spec).ravel()
    order = _key_order(h_keys, h)
    return Subgroup(spec, h[order], mus[order], gens, name, h_keys[order])


def _key_order(keys, rows):
    """The permutation that sorts the (N, 16) encoding array ``rows``, whose
    ``row_keys`` are ``keys``, into key order, the tuple order of the rows:
    an argsort of int64 keys, and for 32-byte void keys one lexsort on the
    integer columns, column 0 first, which sorts far faster than numpy's
    bytewise comparison of the voids."""
    import numpy as np

    if keys.dtype.kind == "V":
        return np.lexsort(rows.T[::-1])
    return np.argsort(keys)


def _fq_matmul(a, b, spec: FieldSpec):
    """a @ b over F_q for arrays of element encodings (stacks of matrices,
    broadcast as ``@`` broadcasts).

    Both operands are split into their f base-p digit planes, the plane
    products are summed unreduced into 2f - 1 planes, each top plane is
    reduced mod p and folded down by the modulus, and the low f planes are
    reduced mod p and recombined: at f = 1 a single ``@`` and one reduction.
    Every reduction mod p is ``ffield.residue``'s.
    """
    p, f = spec.p, spec.f
    a, b = (ffield.base_p_digits(x, p, f) if f > 1 else [x] for x in (a, b))
    acc = [None] * (2 * f - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            xy = x @ y
            acc[i + j] = xy if acc[i + j] is None else acc[i + j] + xy
    # x^top = x^(top - f) (-c_0 - c_1 x - ... - c_{f-1} x^(f-1)), -c_k mod p
    for top in range(2 * f - 2, f - 1, -1):
        t = ffield.residue(acc[top], p)
        for k in range(f):
            c = -spec.modulus[k] % p
            if c:
                acc[top - f + k] += c * t
    enc = ffield.residue(acc[0], p)
    for k in range(1, f):
        enc += ffield.residue(acc[k], p) * p**k
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

    closure = make_subgroup([gsp_elem(Mat4.identity(group.spec))])
    inside = group.keys == closure.keys
    while not inside.all():
        closure = adjoin(closure, group.element(int(np.argmin(inside))))
        inside = closure.lookup(group.rows)[1]
    return list(closure.generators)


def conjugacy_classes(group: Subgroup) -> list:
    """All conjugacy classes in the order of their least elements, each with
    its least element as rep; GroupTooLarge beyond ``CONJUGACY_BOUND``
    elements.

    The group's (N, 16) array is conjugated by each generator (a group
    without generators first gets some from ``_generating_set``):
    h x h^{-1} = y exactly when h x = y h, so the positions of the products
    h x and y h give the permutation that conjugation by h makes, with no
    inverse formed.  Orbits are labelled by min-label propagation: each
    label starts as the element's own index and takes the least label among
    its images until none changes.
    """
    import numpy as np

    if group.order > CONJUGACY_BOUND:
        raise GroupTooLarge(f"|G| = {group.order} exceeds {CONJUGACY_BOUND}")
    spec = group.spec
    mats = group.rows.reshape(-1, 4, 4)
    perms = []
    for h in group.generators or _generating_set(group):
        hm = _rows([h.mat.e], spec).reshape(4, 4)
        left = group.positions(_fq_matmul(hm, mats, spec))
        right = group.positions(_fq_matmul(mats, hm, spec))
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


# The simple reflections as signed permutation matrices: s1 swaps e1, e2 and
# e3, e4 (mu = 1); s2 swaps e2, e3 and negates e4, a similitude with mu = -1
# (the plain transposition is none).  The 8 Weyl representatives are the
# reduced words in them.
_SIMPLE_REFLECTIONS = {
    "1": (0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0),
    "2": (1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, -1),
}
_WEYL_WORDS = ("", "1", "2", "12", "21", "121", "212", "1212")
_ABOVE_DIAGONAL = [4 * r + c for r in range(4) for c in range(r + 1, 4)]


def _unipotent_rows(spec: FieldSpec):
    """The rows of U as a (q, q, q, q, 16) array: entry [t1, t2, t3, t4] is
    the product x1(t1) x2(t2) x3(t3) x4(t4) of one element from each
    positive root group, in the order of ``POS_ROOT_POSITIONS``, so fixing
    t_i = 0 leaves root i out of the product.  Three ``_fq_matmul`` calls;
    each root element is validated once with ``gsp_elem``."""
    field = ffield.enumerate_field(spec)
    u = None
    for i in range(4):
        root = _rows([gsp_elem(pos_root_elem(spec, i, t)).mat.e for t in field], spec)
        u = root if u is None else _fq_matmul(
            u.reshape(-1, 1, 4, 4), root.reshape(1, -1, 4, 4), spec)
    return u.reshape((spec.q,) * 4 + (16,))


def _weyl_reps(spec: FieldSpec) -> tuple:
    """(reps, inverted): the Weyl representatives as GSpElem products of
    the simple reflections, each validated once with ``gsp_elem``, and an
    (8, 4) bool array marking for each the positive roots a whose conjugate
    w^{-1} U_a w is lower triangular, the roots of U_w."""
    simple = {s: gsp_elem(Mat4(spec, tuple(_enc(spec, x) for x in e)))
              for s, e in _SIMPLE_REFLECTIONS.items()}
    one = gsp_elem(Mat4.identity(spec))
    reps = [reduce(operator.mul, (simple[s] for s in word), one)
            for word in _WEYL_WORDS]
    w, w_inv = (_rows([g.mat.e for g in gs], spec).reshape(-1, 1, 4, 4)
                for gs in (reps, [g.inverse() for g in reps]))
    roots = _rows([pos_root_elem(spec, i, spec.one).e for i in range(4)], spec)
    conj = _fq_matmul(_fq_matmul(w_inv, roots.reshape(4, 4, 4), spec), w, spec)
    return reps, ~conj.reshape(-1, 4, 16)[:, :, _ABOVE_DIAGONAL].any(axis=2)


def _distinct_subgroup(spec: FieldSpec, rows, mus, order: int, name: str,
                       generators=()) -> Subgroup:
    """The Subgroup of the (N, 16) encoding array ``rows`` with similitude
    encodings ``mus``, put in key order by one ``_key_order`` sort; the
    distinct rows are counted as the distinct neighbours among the sorted
    keys.  OrderMismatch unless the rows are distinct and N = order: that
    many distinct products of elements of a group of that order are the
    group."""
    import numpy as np

    keys = row_keys(rows, spec.q)
    perm = _key_order(keys, rows)
    rows, mus, keys = rows[perm], mus[perm], keys[perm]
    distinct = 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))
    if distinct != len(rows) or len(rows) != order:
        raise OrderMismatch(
            f"{name} over F_{spec.q}: {distinct} distinct of {len(rows)} products, "
            f"expected {order} elements"
        )
    return Subgroup(spec, rows, mus, generators, name, keys)


def enumerate_gsp4(q: int) -> Subgroup:
    """The full group GSp(4, F_q) as a Subgroup, with ``gsp4_generators``
    as its generators; q > 3 is refused with GroupTooLarge.

    No closure: the group is the disjoint union of the 8 Bruhat cells
    U_w w T U (Carter, Finite Groups of Lie Type, 1985, 2.5), where T is
    the similitude torus diag(a, b, mu/b, mu/a), U the upper unipotent
    group of ``_unipotent_rows``, w a Weyl representative of
    ``_weyl_reps`` and U_w the product of the root groups w inverts, read
    off U with the other roots' parameters at 0.  T U is one
    ``_fq_matmul``, the U_w w of all cells one more and the cells
    themselves one more; a product's mu is mu(w) mu(t), since unipotent
    factors have mu 1.  Each factor is validated once with ``gsp_elem``
    and the products are trusted; ``_distinct_subgroup`` requires
    |GSp(4, q)| distinct rows (OrderMismatch otherwise), which makes them
    the whole group.
    """
    import numpy as np

    spec = field_for_q(q)
    if q > 3:
        raise GroupTooLarge(f"|GSp(4,{q})| = {gsp4_order(q)} cannot be materialized")
    _, mul, _, inv, _ = ffield.tables(spec)
    units = range(1, q)
    torus = [(mu, a, b) for mu in units for a in units for b in units]
    t = _rows([gsp_elem(Mat4(spec, (a, 0, 0, 0, 0, b, 0, 0, 0, 0, mul[mu][inv[b]], 0,
                                    0, 0, 0, mul[mu][inv[a]]))).mat.e
               for mu, a, b in torus], spec)
    u = _unipotent_rows(spec)
    borel = _fq_matmul(t.reshape(-1, 1, 4, 4), u.reshape(1, -1, 4, 4), spec)
    reps, inverted = _weyl_reps(spec)
    u_w = [u[tuple(slice(None) if i else 0 for i in marks)].reshape(-1, 4, 4)
           for marks in inverted]
    sizes = [len(x) for x in u_w]
    w = np.repeat(_rows([g.mat.e for g in reps], spec).reshape(-1, 4, 4), sizes, axis=0)
    u_w_w = _fq_matmul(np.concatenate(u_w), w, spec)
    rows = _fq_matmul(u_w_w[:, None], borel.reshape(1, -1, 4, 4), spec).reshape(-1, 16)
    mu_w = np.repeat([g.mu.encoding() for g in reps], sizes)
    mu_t = np.repeat([mu for mu, _, _ in torus], q**4)
    mus = np.asarray(mul, dtype=rows.dtype)[mu_w[:, None], mu_t].ravel()
    return _distinct_subgroup(spec, rows, mus, gsp4_order(q), f"GSp(4,{q})",
                              gsp4_generators(spec))


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


# The ranges each parameterization of ``_named_elements`` loops over, outer
# to inner: E the q field elements, U the q - 1 units, G the invertible and
# S the determinant-1 2x2 matrices.  Their sizes multiply to the number of
# tuples it yields, so ``named_subgroup`` can refuse a group before building it.
_NAMED_LOOPS = {
    "U_S": "EEE", "U_K": "EEE", "M": "UG", "M1": "S", "R_klingen": "ES",
    "S": "UUEE", "A": "UUEE", "B": "UUUE", "C": "UUUEE", "D": "UUUEE",
    "Row5": "UUEE", "Row6": "UUEE", "Row7": "UUEE", "R_last": "EEE",
    "Row8": "UEEE", "Z_ray": "E",
}


def _named_size(name: str, q: int) -> int:
    """The number of entry tuples ``_named_elements`` yields for ``name``
    (no alias) over F_q."""
    sl2 = q * (q * q - 1)
    sizes = {"E": q, "U": q - 1, "G": (q - 1) * sl2, "S": sl2}
    return math.prod(map(sizes.get, _NAMED_LOOPS[name]))


def _named_elements(name: str, spec: FieldSpec):
    """Yield the entry tuples (16 encodings, row-major) of the matrices of
    each supported subgroup name, built on element encodings (1 is
    encoding 1, 0 is 0)."""
    add, mul, neg, inv, _ = ffield.tables(spec)
    E = range(spec.q)
    U = range(1, spec.q)

    if name == "U_S":
        for x in E:
            for y in E:
                for z in E:
                    yield (1, 0, 0, 0, 0, 1, 0, 0, x, y, 1, 0, z, x, 0, 1)
    elif name == "U_K":
        for x in E:
            for y in E:
                for z in E:
                    yield (1, 0, 0, 0, x, 1, 0, 0, y, 0, 1, 0, z, y, neg[x], 1)
    elif name == "M":
        for z in U:
            mz = mul[z]
            for a, b, c, d, det in _gl2_iter(spec):
                yield (
                    z, 0, 0, 0, 0, mz[a], mz[b], 0, 0, mz[c], mz[d], 0, 0, 0, 0, mz[det]
                )
    elif name in ("M1", "R_klingen"):
        # M1 is the x = 0 part of R_klingen
        sl2 = [(a, b, c, d) for a, b, c, d, det in _gl2_iter(spec) if det == 1]
        for x in E if name == "R_klingen" else (0,):
            for a, b, c, d in sl2:
                yield (1, 0, 0, 0, 0, a, b, 0, 0, c, d, 0, x, 0, 0, 1)
    elif name == "S":
        for a in U:
            for b in U:
                b_a = mul[b][inv[a]]
                for x in E:
                    bx_a = mul[b_a][x]
                    for z in E:
                        yield (a, 0, 0, 0, 0, b, 0, 0, x, 0, a, 0, z, bx_a, 0, b)
    elif name == "A":
        for a in U:
            for d in U:
                ad, a_d, n_d = mul[a][d], mul[a][inv[d]], neg[inv[d]]
                for x in E:
                    nx_d = mul[n_d][x]
                    for z in E:
                        yield (a, 0, 0, 0, x, ad, 0, 0, 0, 0, a_d, 0, z, 0, nx_d, a)
    elif name in ("B", "C"):
        # B is the y = 0 part of C
        for a in U:
            for b in U:
                for c in U:
                    c_b, c_a = mul[c][inv[b]], mul[c][inv[a]]
                    for x in E:
                        for y in E if name == "C" else (0,):
                            yield (a, 0, 0, 0, 0, b, 0, 0, 0, x, c_b, 0, y, 0, 0, c_a)
    elif name == "D":
        for a in U:
            for b in U:
                for c in U:
                    c_b, c_a = mul[c][inv[b]], mul[c][inv[a]]
                    nc_b = neg[c_b]
                    for x in E:
                        for y in E:
                            yield (
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
                        yield (a, 0, 0, 0, 0, ad, 0, 0, 0, y, a_d, 0, z, 0, 0, a)
    elif name == "Row6":
        for a in U:
            for d in U:
                nd_a = neg[mul[d][inv[a]]]
                for x in E:
                    for y in E:
                        yield (a, 0, 0, 0, x, a, 0, 0, 0, 0, d, 0, y, 0, mul[nd_a][x], d)
    elif name == "Row7":
        for a in U:
            for d in U:
                d_a = mul[d][inv[a]]
                for x in E:
                    for y in E:
                        yield (a, 0, 0, 0, 0, d, 0, 0, x, y, a, 0, 0, mul[d_a][x], 0, d)
    elif name in ("R_last", "Row8"):
        # Row8 is R_last times the scalars a
        for a in U if name == "Row8" else (1,):
            inv_a = inv[a]
            for v in E:
                nvv_a, nv = neg[mul[mul[v][v]][inv_a]], neg[v]
                for b in E:
                    for c in E:
                        yield (a, 0, 0, 0, v, a, 0, 0, b, v, a, 0, c, add[b][nvv_a], nv, a)
    elif name == "Z_ray":
        # the long-root center: every support coset group contains a
        # conjugate of this line
        for z in E:
            yield (1, 0, 0, z, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)
    else:
        raise UnknownName(name)


_ALIASES = {"Row1": "D", "Row2": "C", "Row3": "M", "Row4": "B"}

NAMED_SUBGROUP_NAMES = (
    "U_S", "U_K", "M", "M1", "S", "A", "B", "C", "D", "R_last",
    "Row1", "Row2", "Row3", "Row4", "Row5", "Row6", "Row7", "Row8",
    "R_klingen", "Z_ray",
)


def named_subgroup(name: str, q: int) -> Subgroup:
    """One of the fixed-group families by name, over F_q.

    Rows 1/2/3/4 coincide with D/C/M/B and are served as aliases (D's
    (1,2) entry a y is Row 1's u, so its (3,4) entry -(c/b) y is -(d/b) u
    with d = c/a).  Every entry tuple is validated by the similitude test
    ``_similitude_enc`` (NotSimilitude otherwise) and goes to the Subgroup
    with its mu, no matrix object built; element counts are tested against
    the closed orders.  GroupTooLarge, before any tuple is built, when the
    parameterization would yield more than ``CLOSURE_BOUND`` of them
    (``_named_size``).
    """
    if name not in NAMED_SUBGROUP_NAMES:
        raise UnknownName(f"{name!r}; known: {', '.join(NAMED_SUBGROUP_NAMES)}")
    spec = field_for_q(q)
    base = _ALIASES.get(name, name)
    if _named_size(base, q) > CLOSURE_BOUND:
        raise GroupTooLarge(
            f"named subgroup {name} over F_{q} has more than {CLOSURE_BOUND} elements"
        )
    t = ffield.tables(spec)
    elems = list(_named_elements(base, spec))
    pairs = sorted((e, _similitude_enc(e, t)) for e in elems)
    rows, mus = [e for e, _ in pairs], [mu for _, mu in pairs]
    if 0 in mus:
        raise NotSimilitude(f"not a similitude matrix: {Mat4(spec, rows[mus.index(0)])}")
    return Subgroup(spec, rows, mus, name=name)


def upper_unipotent(spec: FieldSpec) -> Subgroup:
    """The full upper unipotent subgroup U (order q^4): the products of one
    element from each positive root group, ``_unipotent_rows``;
    OrderMismatch if two of them coincide."""
    import numpy as np

    rows = _unipotent_rows(spec).reshape(-1, 16)
    return _distinct_subgroup(spec, rows, np.ones(len(rows), dtype=rows.dtype),
                              spec.q**4, "U")
