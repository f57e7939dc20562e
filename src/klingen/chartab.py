"""Conjugacy-class labels and fixed-vector dimensions for the generic
depth-zero cuspidal families of GSp(4, F_q).

Two families matter and are handled uniformly in odd and even
characteristic:

  * typeI  — degree (q^2-1)^2   (chi_5 for even q, X_4 for odd q),
  * typeII — degree (q^2+1)(q-1)^2  (chi_4 for even q, X_5 for odd q).

Elements are classified by the spectrum of a scalar normalization:

  * A-family:  scalar times unipotent; refined by rank of N = g/l - 1 and,
    at rank 2, by the quadratic form Q(v) = B(Nv, v) on a complement of
    ker N (even q: Q = 0 or not; odd q: disc(Q) square or not).
  * B-family (odd q): spectrum {l, l, -l, -l} with similitude l^2; refined
    by which of the two eigenblocks carries a nontrivial unipotent part
    and, when both do, by the square class of the product of the rank-1
    form coefficients.
  * elliptic-Levi: spectrum {l, l, u, u^{-1}} with u quadratic-irrational
    of norm 1; refined by whether the unipotent part on the l-block is
    trivial (C3/G0) or not (D3/G1), and carrying the minimal polynomial of
    u as a token.
  * Mixed: any other rational-spectrum pattern.  These never support
    fixed vectors of the generic cuspidal families: every displayed
    per-subgroup computation accounts for all contributions without them,
    so their value is pinned to 0.
  * NotScoped: no rational eigenvalue at all (regular elliptic); values
    for these are not stored and are never needed.

Per-element character values are pinned only where the class data forces
them; everything else is kept as validated *aggregate* rules (whole-pattern
totals), never invented per element.  A Dixon-Schneider solver provides a
fully independent oracle at q = 2.

Classification is batched: ``_label_codes`` labels an (N, 16) array of
element encodings (``Subgroup.rows``) with their mus in a fixed number of
numpy operations that does not grow with N, and ``classify`` is the same
function on one row.  The matrices are held as planes (entry i of every matrix in one
row), and every polynomial expression in the entries is a stage: one
gather of the factor planes, products (integer products at f = 1, the mul
table of ``ffield.tables`` otherwise) and one digit sum mod p over the
terms (XOR at p = 2).  Two stages give the characteristic polynomials,
which are packed into one integer each and grouped by ``np.unique``;
``_roots`` and ``_poly_label`` run once per distinct polynomial, and the
labels it decides (NotScoped, Mixed) need nothing more.  The other rows
get the ranks of h - lam*I from their 2 x 2 and 3 x 3 minors and det (two
stages), the A-family rank-2 form from S = N^t J (a comparison of entries
at even q, one stage of principal minors at odd q) and their mu; these
index a per-category table of label codes.  B-family rows whose two
blocks are both nontrivial are split into B31 and B32 by the square class
of a product of two block form values, read off a few batched
``_fq_matmul`` products (``_block_form``).  ``dim_fixed`` labels a
subgroup once per subgroup object (``_class_counts``, a ``bincount`` of
the codes, held weakly and shared by both families).
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

from . import ffield
from .errors import NonIntegralResult, NotScopedClass, ValueNotPinned
from .ffield import FieldSpec, field_for_q
from .groupfq import GSpElem, Subgroup, _fq_matmul, j_matrix

# ---------------------------------------------------------------------------
# representation families
# ---------------------------------------------------------------------------

FAMILY_TYPE_I = "typeI"
FAMILY_TYPE_II = "typeII"
FAMILY_NONGENERIC = "nongeneric"

_FAMILY_NAMES = {
    # keys are lowercase; lookup lowercases its input
    "typei": (FAMILY_TYPE_I, None),
    "typeii": (FAMILY_TYPE_II, None),
    "nongeneric": (FAMILY_NONGENERIC, None),
    # parity-specific spellings
    "chi5": (FAMILY_TYPE_I, "even"),
    "chi4": (FAMILY_TYPE_II, "even"),
    "x4": (FAMILY_TYPE_I, "odd"),
    "x5": (FAMILY_TYPE_II, "odd"),
}


@dataclass(frozen=True)
class SigmaFamily:
    """A depth-zero supercuspidal family, identified by its type tag.

    The dimension counts depend only on the tag (and q), so parameters of
    the inducing cuspidal are not modeled.
    """

    kind: str  # typeI | typeII | nongeneric

    def display_name(self, q: int) -> str:
        if self.kind == FAMILY_TYPE_I:
            return "chi5" if q % 2 == 0 else "X4"
        if self.kind == FAMILY_TYPE_II:
            return "chi4" if q % 2 == 0 else "X5"
        return "nongeneric"

    def degree(self, q: int) -> int:
        if self.kind == FAMILY_TYPE_I:
            return (q * q - 1) ** 2
        if self.kind == FAMILY_TYPE_II:
            return (q * q + 1) * (q - 1) ** 2
        raise ValueNotPinned("nongeneric degree not stored")


def family_from_name(name: str, q: Optional[int] = None) -> SigmaFamily:
    """Resolve a family name; parity-specific names require a matching q."""
    key = name.strip()
    lowered = key.lower()
    if lowered not in _FAMILY_NAMES:
        raise ValueError(
            f"unknown family {name!r}; expected one of "
            "typeI, typeII, nongeneric, chi5, chi4, x4, x5"
        )
    kind, parity = _FAMILY_NAMES[lowered]
    if parity is not None and q is not None:
        actual = "even" if q % 2 == 0 else "odd"
        if parity != actual:
            raise ValueError(
                f"family {name!r} lives over {parity} q, but q={q} is {actual}"
            )
    return SigmaFamily(kind)


# ---------------------------------------------------------------------------
# polynomial roots over F_q on element encodings (ffield.tables)
# ---------------------------------------------------------------------------

def _roots(coeffs, t) -> tuple:
    """Roots in F_q with multiplicity, in encoding order, by repeated
    synthetic division by (t - x); also the quotient left once every root
    is divided out."""
    add, mul = t.add, t.mul
    roots = {}
    work = list(coeffs)
    for x in range(t.q):
        by_x = mul[x]
        while len(work) > 1:
            acc, quotient = 0, []
            for c in reversed(work):
                acc = add[by_x[acc]][c]
                quotient.append(acc)
            if acc:  # the remainder p(x)
                break
            work = quotient[-2::-1]
            roots[x] = roots.get(x, 0) + 1
    return roots, work


# ---------------------------------------------------------------------------
# batched linear algebra over F_q on element encodings
# ---------------------------------------------------------------------------

# The batched labeller holds N matrices as planes: an (18, N) array x whose
# row i is entry i (row-major) of every matrix, then a row of 1s and a row
# of 0s.  A stage is a tuple of segments, one per output plane; a segment is
# a tuple of terms (left, right, coef), and its value is the F_q sum of
# coef * x[left] * x[right] over its terms, so (i, _ONE_ROW, c) is the term
# c * x[i].  Stage outputs are stacked under x from row _FIRST on.
_ONE_ROW, _ZERO_ROW, _FIRST = 16, 17, 18
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_TRIPLES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
_DIAG = (0, 5, 10, 15)


def _minor_stage(minors) -> tuple:
    """The 2 x 2 minors (rows, columns): M = e[a] e[b] - e[c] e[d]."""
    return tuple(((4 * r1 + c1, 4 * r2 + c2, 1), (4 * r1 + c2, 4 * r2 + c1, -1))
                 for (r1, r2), (c1, c2) in minors)


def _minor3(rows, cols, at, sign: int = 1) -> tuple:
    """sign times the 3 x 3 minor on rows (i, j, k) and columns (a, b, c),
    expanded along row i: e[ia] M(jk|bc) - e[ib] M(jk|ac) + e[ic] M(jk|ab),
    ``at`` giving each 2 x 2 minor's plane."""
    (i, j, k), (a, b, c) = rows, cols
    return ((4 * i + a, at[(j, k), (b, c)], sign), (4 * i + b, at[(j, k), (a, c)], -sign),
            (4 * i + c, at[(j, k), (a, b)], sign))


def _determinant(at) -> tuple:
    """det by Laplace expansion along rows 0 and 1: +-M(01|c) M(23|c')."""
    return tuple((at[(0, 1), c], at[(2, 3), tuple(j for j in range(4) if j not in c)],
                  (-1) ** (1 + sum(c))) for c in _PAIRS)


def _minor_planes(minors) -> dict:
    return {minor: _FIRST + k for k, minor in enumerate(minors)}


# the characteristic polynomial det(tI - h) = t^4 + c3 t^3 + c2 t^2 + c1 t + c0
# = t^4 - E1 t^3 + E2 t^2 - E3 t + E4, E_k the sum of the principal k x k
# minors: every 2 x 2 minor it needs (rows (0, 1) and (2, 3) at every column
# pair for det h, the other principal ones, and those E3's expansions read)
# once, then (c0, c1, c2, c3)
_POLY_MINORS = tuple(((0, 1), c) for c in _PAIRS) + tuple(((2, 3), c) for c in _PAIRS) + (
    ((0, 2), (0, 2)), ((0, 3), (0, 3)), ((1, 2), (1, 2)), ((1, 3), (1, 3)),
    ((1, 2), (0, 1)), ((1, 2), (0, 2)), ((1, 3), (0, 1)), ((1, 3), (0, 3)))
_POLY_AT = _minor_planes(_POLY_MINORS)
_POLY_STAGES = (_minor_stage(_POLY_MINORS), (
    _determinant(_POLY_AT),
    sum((_minor3(r, r, _POLY_AT, -1) for r in _TRIPLES), ()),
    tuple((_POLY_AT[pair, pair], _ONE_ROW, 1) for pair in _PAIRS),
    tuple((i, _ONE_ROW, -1) for i in _DIAG)))

# ranks: all 36 2 x 2 minors, then the 16 3 x 3 minors and the two halves
# of det's expansion; rank >= k exactly when a k x k minor is nonzero
_RANK_MINORS = tuple((r, c) for r in _PAIRS for c in _PAIRS)
_RANK_AT = _minor_planes(_RANK_MINORS)
_RANK_STAGES = (_minor_stage(_RANK_MINORS),
                tuple(_minor3(r, c, _RANK_AT) for r in _TRIPLES for c in _TRIPLES)
                + (_determinant(_RANK_AT)[:3], _determinant(_RANK_AT)[3:]))

# the rank-2 form Q(v) = B(Nv, v) = v^t S v with S = N^t J: J's column j is
# -e_3, -e_2, e_1, e_0, so S[i][j] = +-N[3 - j][i], and _S[4i + j] is that
# entry's index in N and its sign
_S = tuple((4 * (3 - j) + i, 1 if j > 1 else -1) for i in range(4) for j in range(4))
# even q: Q = 0 exactly when diag S = 0 and S + S^t = 0, i.e. S[i][j] = S[j][i]:
# the planes to compare, the left ones then the right ones
_EVEN_FORM = (tuple(_S[5 * i][0] for i in range(4)) + tuple(_S[4 * i + j][0] for i, j in _PAIRS)
              + (_ZERO_ROW,) * 4 + tuple(_S[4 * j + i][0] for i, j in _PAIRS))


def _form_minor(i: int, j: int) -> tuple:
    """The principal minor P[i][i] P[j][j] - P[i][j]^2 of P = S + S^t, with
    P[i][i] = 2 S[i][i] and P[i][j] = S[i][j] + S[j][i]."""
    (a, sa), (b, sb) = _S[5 * i], _S[5 * j]
    (c, sc), (d, sd) = _S[4 * i + j], _S[4 * j + i]
    return (a, b, 4 * sa * sb), (c, c, -1), (c, d, -2 * sc * sd), (d, d, -1)


_FORM_STAGE = tuple(_form_minor(i, j) for i, j in _PAIRS)


@lru_cache(maxsize=None)
def _stage_arrays() -> dict:
    """Each stage as arrays, its S segments padded to one length L with the
    term 0 = 1 * 0: the planes of the left, then of the right factors of
    its terms, term l of segment s at l * S + s, and the (L, S, 1) array of
    their coefficients."""
    import numpy as np

    def arrays(stage):
        length = max(len(segment) for segment in stage)
        pad = (_ONE_ROW, _ZERO_ROW, 0)
        terms = [segment[k] if k < len(segment) else pad
                 for k in range(length) for segment in stage]
        left, right, coef = zip(*terms)
        return np.array(left + right, np.intp), np.array(coef, np.intp).reshape(length, -1, 1)

    return {"poly": [arrays(s) for s in _POLY_STAGES],
            "rank": [arrays(s) for s in _RANK_STAGES],
            "form": arrays(_FORM_STAGE)}


class _FieldArrays(NamedTuple):
    """numpy copies of ``ffield.tables`` for the batched labeller: ``mul``
    (flat: a * b at a * q + b), ``sub`` (a - b), ``neg`` and ``square``;
    each encoding's base-p ``digits`` and the ``powers`` p^k that
    recombine them; ``qpow`` = (1, q, q^2, q^3), which packs a polynomial
    into one integer; and the label ``templates`` of ``_label_codes``."""

    p: int
    f: int
    q: int
    mul: object
    sub: object
    neg: object
    square: object
    digits: object
    powers: object
    qpow: object
    templates: object


@lru_cache(maxsize=None)
def _field_arrays(spec: FieldSpec) -> _FieldArrays:
    import numpy as np

    t = ffield.tables(spec)
    p, f, q = spec.p, spec.f, spec.q
    neg = np.array(t.neg, np.intp)
    return _FieldArrays(
        p, f, q, np.array(t.mul, np.intp).ravel(), np.array(t.add, np.intp)[:, neg], neg,
        np.array(t.square), np.array([ffield.base_p_digits(k, p, f) for k in range(q)], np.intp),
        p ** np.arange(f), q ** np.arange(4), np.array(_templates(q, p == 2), np.intp))


def _sums(x, stage, fa):
    """The (S, N) planes of the F_q values of the stage's segments, from one
    gather of its terms' planes; the sums run over the leading axis, so
    each step adds whole (S, N) blocks.  Sums are digit sums mod p: at
    f = 1 the integer sum of the integer products; at p = 2 the XOR of the
    encodings of the products, read off the mul table (every coefficient a
    stage runs with at p = 2 is +-1); otherwise the sum of their digits.
    The signed sums are reduced mod p by ``ffield.residue``."""
    import numpy as np

    planes, coef = stage
    y = x[planes].reshape(2, *coef.shape[:2], -1)
    if fa.f == 1:
        return ffield.residue((y[0] * y[1] * coef).sum(axis=0), fa.p)
    terms = np.take(fa.mul, y[0] * fa.q + y[1])
    if fa.p == 2:
        return np.bitwise_xor.reduce(terms, axis=0)
    digits = np.take(fa.digits, terms, axis=0) * coef[..., None]
    return ffield.residue(digits.sum(axis=0), fa.p) @ fa.powers


def _with_constants(rows):
    """The planes of the (N, 16) encoding array ``rows``, as intp, with the
    planes _ONE_ROW of 1s and _ZERO_ROW of 0s."""
    import numpy as np

    x = np.zeros((_FIRST, len(rows)), np.intp)
    x[:16] = rows.T
    x[_ONE_ROW] = 1
    return x


def _char_polys(x, fa):
    """The planes (c0, c1, c2, c3), a (4, N) array, of det(tI - h) for each
    matrix h of the planes x (``_with_constants``)."""
    import numpy as np

    minors, coeffs = _stage_arrays()["poly"]
    return _sums(np.concatenate((x, _sums(x, minors, fa))), coeffs, fa)


def _ranks(x, fa):
    """The rank of each matrix of the planes x (``_with_constants``): the
    number of minor orders, 1 x 1 up to det, with a nonzero minor."""
    import numpy as np

    minors2, minors3 = _stage_arrays()["rank"]
    m2 = _sums(x, minors2, fa)
    m3 = _sums(np.concatenate((x, m2)), minors3, fa)
    full = m3[16] != fa.neg[m3[17]]  # the halves of det do not cancel
    return x[:16].any(axis=0) * 1 + m2.any(axis=0) + m3[:16].any(axis=0) + full


def _form_nonsplit(x, fa):
    """For each rank-2 N among the matrices of the planes x
    (``_with_constants``; N = h - lam*I) whether Q(v) = B(Nv, v) labels A32
    (even q: Q != 0) or A22 (odd q: -disc of Q on a complement of ker N is
    not a square); meaningless at other ranks.

    Q's polar form P = S + S^t has ker N in its radical; at odd q the
    square class of -disc is that of the first nonzero principal 2 x 2
    minor of P, since all nonzero principal minors of maximal rank of a
    symmetric matrix share one square class (a zero disc, with every minor
    zero, is a square).  Scaling N by lam^-1 scales each minor by lam^-2."""
    import numpy as np

    if fa.p == 2:
        y = x[list(_EVEN_FORM)]
        return (y[:10] != y[10:]).any(axis=0)
    minors = _sums(x, _stage_arrays()["form"], fa)
    first = minors[(minors != 0).argmax(axis=0), np.arange(minors.shape[1])]
    return ~fa.square[fa.neg[first]]


# ---------------------------------------------------------------------------
# class labels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassLabel:
    """A conjugacy-class label; token identifies the elliptic pair for
    C3/D3/G0/G1 (encoding of the trace coefficient of the normalized
    minimal quadratic t^2 + c t + 1)."""

    kind: str
    token: Optional[int] = None

    def __repr__(self):
        return self.kind if self.token is None else f"{self.kind}({self.token})"


# a label's code over F_q is kind * (q + 1) + token + 1, token + 1 = 0 for
# none; each elliptic kind with a nontrivial unipotent part follows its
# trivial one
_KINDS = ("NotScoped", "Mixed", "A0", "A1", "A2", "A21", "A22", "A3", "A31", "A32",
          "A41", "B0", "B1", "B2", "B31", "B32", "C3", "D3", "G0", "G1")


def _code(kind: str, q: int, token: Optional[int] = None) -> int:
    return _KINDS.index(kind) * (q + 1) + (0 if token is None else token + 1)


def _code_label(code: int, q: int) -> ClassLabel:
    kind, token = divmod(code, q + 1)
    return ClassLabel(_KINDS[kind], token - 1 if token else None)


# what the characteristic polynomial leaves open: nothing, rank and form
# work (A-family), rank work (elliptic-Levi), rank work at both roots and
# the similitude (B-family)
_DECIDED, _A, _ELLIPTIC, _B = range(4)
# A-family kind by the rank of N, then, at rank 2, the kind of a nonzero
# (even q) or nonsquare (odd q) form
_A_KINDS = {True: ("A1", "A2", "A31", "A41", "A32"), False: ("A0", "A1", "A21", "A3", "A22")}
# B-family kind by 2 * (l1-block nontrivial) + (l2-block nontrivial)
_B_KINDS = ("B0", "B2", "B1", "B31")


def _templates(q: int, even: bool) -> list:
    """The code each category adds to its polynomial's code, by the detail
    d = rank1 + 4 * nonsplit + 8 * (rank2 == 3) + 16 * (mu != l1^2) of
    ``_label_codes``; B31 stands for both B31 and B32."""
    out = [[0] * 32 for _ in range(4)]
    for d in range(32):
        rank, nonsplit, rank2, foreign = d % 4, d >> 2 & 1, d >> 3 & 1, d >> 4
        out[_A][d] = _code(_A_KINDS[even][4 if rank == 2 and nonsplit else rank], q)
        out[_ELLIPTIC][d] = (q + 1) * (rank == 3)
        out[_B][d] = _code("Mixed" if foreign else _B_KINDS[2 * (rank == 3) + rank2], q)
    return out


def _poly_data(coeffs, even: bool, t) -> tuple:
    """(category, code, l1, l2, l1^2) of a characteristic polynomial: the
    code of its label when the polynomial decides it, else of the
    elliptic-Levi label with a trivial unipotent part, or 0; and the roots
    that the element work shifts by."""
    q = t.q
    roots, rest = _roots(coeffs, t)
    label = _poly_label(roots, rest, even, t)
    if label is not None:
        return _DECIDED, _code(label.kind, q), 0, 0, 0
    if len(roots) == 2:
        # {l, l, -l, -l}: B-family when the similitude is l^2 (odd q only)
        l1, l2 = roots  # encoding order, so l1 < l2
        return _B, 0, l1, l2, t.mul[l1][l1]
    (lam, mult), = roots.items()
    if mult == 4:
        return _A, 0, lam, 0, 0
    token = t.mul[rest[1]][t.inv[lam]]
    return _ELLIPTIC, _code("C3" if even else "G0", q, token), lam, 0, 0


def _label_codes(rows, mus, spec: FieldSpec):
    """The label code of every element of the (N, 16) encoding array
    ``rows`` with similitude encodings ``mus`` (``_code_label`` decodes
    one), in a fixed number of array operations.

    Characteristic polynomials are packed into one integer each and
    grouped; ``_roots`` and ``_poly_label`` run once per distinct one.  For
    every row the polynomial leaves open, the ranks of h - l1*I (and of
    h - l2*I for the B-family), the form of h - l1*I and mu give a detail
    index into its category's ``_templates``; ``_block_form`` splits the
    B-family rows whose blocks are both nontrivial into B31 and B32."""
    import numpy as np

    fa = _field_arrays(spec)
    t = ffield.tables(spec)
    q, even = spec.q, spec.p == 2
    x = _with_constants(rows)
    polys, inverse = np.unique(fa.qpow @ _char_polys(x, fa), return_inverse=True)
    data = [_poly_data([key // q**k % q for k in range(4)] + [1], even, t)
            for key in polys.tolist()]
    category, codes, lam1, lam2, l1_squared = np.array(data, np.intp)[inverse].T
    open_kinds = {d[0] for d in data} - {_DECIDED}
    if not open_kinds:
        return codes
    # h - l1*I for every open row, then h - l2*I for the B-family ones
    open_rows = np.flatnonzero(category)
    cat = category[open_rows]
    b = open_rows[cat == _B]
    shifted = x[:, np.concatenate((open_rows, b))]
    lam = np.concatenate((lam1[open_rows], lam2[b]))
    shifted[_DIAG, :] = fa.sub[shifted[_DIAG, :], lam]
    rank = _ranks(shifted, fa)
    n = len(open_rows)
    detail = rank[:n]
    if _A in open_kinds:
        detail = detail + 4 * _form_nonsplit(shifted[:, :n], fa)
    if _B in open_kinds:
        detail[cat == _B] += 8 * (rank[n:] == 3) + 16 * (mus[b] != l1_squared[b])
    codes[open_rows] += fa.templates[cat, detail]
    if _B in open_kinds:
        b31 = _code("B31", q)
        both = codes[b] == b31
        if both.any():
            # h - l1 and h - l2 of each such row, from shifted's two parts
            n1, n2 = (shifted[:16, at].T.reshape(-1, 4, 4) for at in
                      (np.flatnonzero(cat == _B)[both], n + np.flatnonzero(both)))
            c = fa.mul[_block_form(n1, n2, spec) * q + _block_form(n2, n1, spec)]
            codes[b[both]] = np.where(fa.square[c], b31, _code("B32", q))
    return codes


def classify(g: GSpElem) -> ClassLabel:
    """Conjugacy-class label of g (scheme in the module docstring): the
    batched labeller ``_label_codes`` run on g's one row."""
    import numpy as np

    spec = g.spec
    code = _label_codes(np.array([g.mat.e]), np.array([g.mu.encoding()]), spec)[0]
    return _code_label(int(code), spec.q)


_NOT_SCOPED = ClassLabel("NotScoped")
_MIXED = ClassLabel("Mixed")


def _poly_label(roots, rest, even: bool, t) -> Optional[ClassLabel]:
    """The label that the characteristic polynomial alone decides, from its
    rational roots and the quotient ``rest`` left by ``_roots``: NotScoped
    or Mixed, else None when the element's own rank and form data (and mu)
    decide it."""
    if not roots:
        return _NOT_SCOPED
    if len(roots) == 1:
        (lam, mult), = roots.items()
        # scalar times unipotent, or {l, l} plus an irreducible quadratic
        # t^2 + b t + c of norm c = l^2
        if mult == 4 or (mult == 2 and rest[0] == t.mul[lam][lam]):
            return None
    elif not even and sorted(roots.values()) == [2, 2]:
        l1, l2 = roots
        if l1 == t.neg[l2]:  # {l, l, -l, -l}
            return None
    # any other pattern with at least one rational eigenvalue
    return _MIXED


def _block_form(n_lam, n_other, spec: FieldSpec):
    """For each B-family h, given as the (M, 4, 4) encoding arrays
    ``n_lam`` = h - lam and ``n_other`` = h - lam' of its two roots, a
    nonzero value of Q(v) = B((h - lam)v, v) on ker((h - lam)^2).

    That kernel is spanned by the columns of P = (h - lam')^2, and Q is a
    rank-1 form c*L^2 on it, so its nonzero values share c's square class;
    the value taken is Q(P e_j) at the first column j where it is nonzero,
    the diagonal of (N P)^t J P with N = h - lam.  For h = l1 * h' (l1 the
    root the B-family normalizes by) and lam = +-l1, Q is l1 times the form
    of h' at +-1, so the product of the two blocks' values keeps its square
    class."""
    import numpy as np

    p = _fq_matmul(n_other, n_other, spec)
    j = np.array(j_matrix(spec).e, p.dtype).reshape(4, 4)
    np_t = _fq_matmul(n_lam, p, spec).transpose(0, 2, 1)
    forms = _fq_matmul(np_t, _fq_matmul(j, p, spec), spec)[:, range(4), range(4)]
    value = forms[np.arange(len(forms)), (forms != 0).argmax(axis=1)]
    if not value.all():
        raise NotScopedClass("vanishing block form on a B31/B32 candidate")
    return value


# ---------------------------------------------------------------------------
# pinned per-element values
# ---------------------------------------------------------------------------

def _pinned_value(kind: str, family_kind: str, q: int) -> Optional[int]:
    """Exact character value for per-element-pinned labels, else None."""
    even = q % 2 == 0
    t1 = family_kind == FAMILY_TYPE_I
    if kind == "Mixed":
        return 0
    if even:
        table = {
            "A1": ((q * q - 1) ** 2, (q * q + 1) * (q - 1) ** 2),
            "A2": (1 - q * q, (q - 1) ** 2),
            "A31": (1 - q * q, (q - 1) ** 2),
            "A32": (1, 1 - 2 * q),
            "A41": (1, 1),
        }
    else:
        table = {
            "A0": ((q * q - 1) ** 2, (q * q + 1) * (q - 1) ** 2),
            "A1": (1 - q * q, (q - 1) ** 2),
            "A21": (1 - q, 1 - q),
            "A22": (q + 1, 1 - 3 * q),
            "A3": (1, 1),
        }
    if kind in table:
        return table[kind][0 if t1 else 1]
    return None


# ---------------------------------------------------------------------------
# aggregate rules
# ---------------------------------------------------------------------------

def _elliptic_tokens(spec: FieldSpec) -> list:
    """Tokens of all norm-1 elliptic pairs: c with t^2 + c t + 1 irreducible."""
    t = ffield.tables(spec)
    return [c for c in range(spec.q) if _roots([1, c, 1], t)[0] == {}]


def _aggregate_total(leftover: Counter, family_kind: str, q: int) -> int:
    """Total character sum over the non-per-element labels.

    Validated whole-pattern rules only (see the decisions this encodes in
    the module docstring); anything unmatched raises ValueNotPinned.
    """
    if not leftover:
        return 0
    spec = field_for_q(q)
    even = q % 2 == 0
    tokens = _elliptic_tokens(spec)
    t2 = family_kind == FAMILY_TYPE_II

    if even:
        c3 = {lab.token: n for lab, n in leftover.items() if lab.kind == "C3"}
        d3 = {lab.token: n for lab, n in leftover.items() if lab.kind == "D3"}
        other = [lab for lab in leftover if lab.kind not in ("C3", "D3")]
        if other:
            raise ValueNotPinned(f"unexpected labels {other} at even q")
        # full elliptic family inside a Levi: uniform C3 over all tokens
        if not d3 and set(c3) == set(tokens):
            counts = set(c3.values())
            if len(counts) == 1:
                c = counts.pop()
                unit = q * q - q
                if c % unit == 0:
                    scale = c // unit
                    return scale * 2 * (q * q - q) * (q - 1) if t2 else 0
        # paired cancellation: D3 count = (q-1) * C3 count per token
        if set(d3) <= set(c3) and all(
            d3.get(t, 0) == (q - 1) * c3[t] for t in c3
        ):
            return 0
        raise ValueNotPinned("even-q elliptic pattern not recognized")

    # odd q
    n0 = leftover.get(ClassLabel("B0"), 0)
    n12 = leftover.get(ClassLabel("B1"), 0) + leftover.get(ClassLabel("B2"), 0)
    n31 = leftover.get(ClassLabel("B31"), 0)
    n32 = leftover.get(ClassLabel("B32"), 0)
    g0 = {lab.token: n for lab, n in leftover.items() if lab.kind == "G0"}
    g1 = {lab.token: n for lab, n in leftover.items() if lab.kind == "G1"}
    known = {"B0", "B1", "B2", "B31", "B32", "G0", "G1"}
    other = [lab for lab in leftover if lab.kind not in known]
    if other:
        raise ValueNotPinned(f"unexpected labels {other} at odd q")
    if n31 != n32:
        raise ValueNotPinned("unbalanced B31/B32 counts")

    # Levi pattern: {B0: c, B1+B2: c(q^2-1)} plus uniform G0 over all tokens
    if not g1 and set(g0) == set(tokens) and n31 == 0:
        counts = set(g0.values())
        if len(counts) == 1:
            c = counts.pop()
            unit = q * q - q
            if c % unit == 0:
                scale = c // unit
                if n0 == scale and n12 == scale * (q * q - 1):
                    return scale * 2 * q * (q - 1) ** 2 if t2 else 0

    # Klingen-R-shaped G block: per token {G0: c(q^2-q), G1: c(q-1)(q^2-q)},
    # uniform over all tokens; contributes 0 (displayed whole-sum).
    if g0 or g1:
        if set(g0) != set(tokens) or set(g1) != set(tokens):
            raise ValueNotPinned("partial G block")
        c_vals = set()
        unit = q * q - q
        for t in tokens:
            a, b = g0[t], g1[t]
            if a % unit or b != (q - 1) * a:
                raise ValueNotPinned("G block not Klingen-shaped")
            c_vals.add(a // unit)
        if len(c_vals) != 1:
            raise ValueNotPinned("nonuniform G block")

    # B block: value is beta * u with u = n0 - n12/(q-1) + 2*n31/(q-1)^2;
    # all supported shapes have u = 0, killing the undetermined beta.  The
    # test is on u * (q-1)^2, which is zero exactly when u is.
    if n0 * (q - 1) ** 2 - n12 * (q - 1) + 2 * n31 == 0:
        return 0
    raise ValueNotPinned("odd-q B block does not cancel")


# ---------------------------------------------------------------------------
# fixed-space dimensions
# ---------------------------------------------------------------------------

def _class_counts(subgroup: Subgroup) -> Counter:
    """The Counter of ``classify`` labels over the elements of subgroup: a
    ``bincount`` of the batched labeller's codes."""
    import numpy as np

    q = subgroup.spec.q
    counts = np.bincount(_label_codes(subgroup.rows, subgroup.mus, subgroup.spec))
    return Counter({_code_label(code, q): n
                    for code, n in enumerate(counts.tolist()) if n})


def _row_labels(subgroup: Subgroup) -> list:
    """The ``classify`` label of each row of subgroup, from one run of the
    batched labeller."""
    q = subgroup.spec.q
    codes = _label_codes(subgroup.rows, subgroup.mus, subgroup.spec)
    return [_code_label(code, q) for code in codes.tolist()]


# Subgroup -> its _class_counts, shared by the families and dropped with it
_COUNTS = weakref.WeakKeyDictionary()


def dim_fixed(subgroup: Subgroup, family: SigmaFamily, q: Optional[int] = None) -> int:
    """dim sigma^R by averaging the pinned character data over R.

    The labels of R are counted once per subgroup object (``_class_counts``,
    held weakly, so every family asked about the same object reads one
    count), by one run of the batched labeller over its rows.  Per-element
    pins cover the A-family and Mixed classes; B-family and elliptic-Levi
    contributions enter through validated aggregate patterns.  The result
    must be a nonnegative integer or NonIntegralResult is raised.  ``q``
    may be omitted; given, it must be the subgroup's field size
    (ValueError otherwise).
    """
    if q is not None and q != subgroup.spec.q:
        raise ValueError(f"q={q} is not the field size of {subgroup!r}")
    q = subgroup.spec.q
    if family.kind == FAMILY_NONGENERIC:
        raise ValueNotPinned("nongeneric dimensions are not computed from class data")
    counts = _COUNTS.get(subgroup)
    if counts is None:
        counts = _COUNTS[subgroup] = _class_counts(subgroup)
    total = 0
    leftover = Counter()
    for label, n in counts.items():
        if label.kind == "NotScoped":
            raise NotScopedClass("subgroup contains an out-of-scope class")
        v = _pinned_value(label.kind, family.kind, q)
        if v is None:
            leftover[label] = n
        else:
            total += n * v
    total += _aggregate_total(leftover, family.kind, q)
    dim, rem = divmod(total, subgroup.order)
    if rem or dim < 0:
        raise NonIntegralResult(
            f"character sum {total} over order {subgroup.order} is not a "
            f"nonnegative integer multiple"
        )
    return dim


# (typeI, typeII) as functions of q
_ONE = (lambda q: 1, lambda q: 1)
_Q_MINUS_1 = (lambda q: q - 1, lambda q: q - 1)

_ROW_DIMS = {
    1: _ONE,
    2: _ONE,
    3: (lambda q: 0, lambda q: 2),
    4: (lambda q: q + 1, lambda q: q + 1),
    5: _Q_MINUS_1,
    6: _Q_MINUS_1,
    7: _Q_MINUS_1,
    8: _Q_MINUS_1,
}

_NAME_DIMS = {
    "U_S": (lambda q: 0, lambda q: 0),
    "U_K": (lambda q: 0, lambda q: 0),
    "S": _Q_MINUS_1,
    "A": _Q_MINUS_1,
    "B": _ROW_DIMS[4],
    "C": _ONE,
    "D": _ONE,
    "R_last": _Q_MINUS_1,
    "M": _ROW_DIMS[3],
    "M1": (lambda q: 0, lambda q: 2 * (q - 1)),
    "R_klingen": (lambda q: 0, lambda q: 0),
    **{f"Row{k}": dims for k, dims in _ROW_DIMS.items()},
}


def dim_fixed_family(which, family: SigmaFamily, q: int) -> int:
    """Closed-form dim sigma^R for a Table row (int 1..8) or a named
    subgroup; the other route to the same numbers as dim_fixed."""
    if family.kind == FAMILY_NONGENERIC:
        raise ValueNotPinned("nongeneric fixed dimensions are not tabulated here")
    if isinstance(which, int):
        if which not in _ROW_DIMS:
            raise ValueError(f"row {which} out of range 1..8")
        pair = _ROW_DIMS[which]
    else:
        if which not in _NAME_DIMS:
            raise ValueNotPinned(f"no closed value stored for {which!r}")
        pair = _NAME_DIMS[which]
    return pair[0 if family.kind == FAMILY_TYPE_I else 1](q)

__all__ = [
    "SigmaFamily",
    "family_from_name",
    "FAMILY_TYPE_I",
    "FAMILY_TYPE_II",
    "FAMILY_NONGENERIC",
    "ClassLabel",
    "classify",
    "dim_fixed",
    "dim_fixed_family",
]
