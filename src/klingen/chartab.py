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

Classification computes on element encodings through ``ffield.tables``:
the one elimination ``ffield.row_reduce`` (ranks, the pivot columns that
give the rank-2 complement, the B-block kernel), one h - lam*I helper,
the characteristic polynomial from principal minors and roots by
deflation.  It runs in two parts: ``_poly_label`` gives the labels that
the characteristic polynomial decides (NotScoped, Mixed), and
``_element_label`` does the rank and form work of the rest.  ``classify``
runs both on one element.  ``dim_fixed`` classifies a subgroup once per
subgroup object (``_class_counts``, held weakly and shared by both
families): it finds roots once per distinct characteristic polynomial,
counts the polynomial-decided labels without per-element work, and sends
only the other elements to ``_element_label``.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from . import ffield
from .errors import NonIntegralResult, NotScopedClass, ValueNotPinned
from .ffield import FieldSpec, field_for_q
from .groupfq import GSpElem, Subgroup

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
# linear algebra over F_q on element encodings (ffield.tables)
# ---------------------------------------------------------------------------

def _rows(e) -> list:
    return [e[0:4], e[4:8], e[8:12], e[12:16]]


def _rank(e, t) -> int:
    """Rank of the matrix with entries e; 4 - rank is its kernel's dimension."""
    return len(ffield.row_reduce(_rows(e), t)[1])


def _minus_scalar(e, lam: int, t) -> list:
    """Entries of h - lam*I, row-major, for h given by its entries e."""
    out = list(e)
    add, nl = t.add, t.neg[lam]
    for i in (0, 5, 10, 15):
        out[i] = add[out[i]][nl]
    return out


def _scale(e, s: int, t) -> list:
    row = t.mul[s]
    return [row[x] for x in e]


def _mat_vec(e, v, t) -> list:
    add, mul = t.add, t.mul
    return [
        add[add[mul[e[r]][v[0]]][mul[e[r + 1]][v[1]]]][
            add[mul[e[r + 2]][v[2]]][mul[e[r + 3]][v[3]]]
        ]
        for r in (0, 4, 8, 12)
    ]


def _bilinear(u, v, t) -> int:
    add, mul = t.add, t.mul
    plus = add[mul[u[0]][v[3]]][mul[u[1]][v[2]]]
    minus = add[mul[u[2]][v[1]]][mul[u[3]][v[0]]]
    return add[plus][t.neg[minus]]


_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# every 2 x 2 minor _char_poly needs, once, as (rows, columns): rows (0, 1)
# and (2, 3) at every column pair for the Laplace expansion of det h, which
# hold two of the six principal minors; the other four principal minors;
# and the rows-(j, k) minors of E3's expansions along row i
_MINORS = tuple(((0, 1), c) for c in _PAIRS) + tuple(((2, 3), c) for c in _PAIRS) + (
    ((0, 2), (0, 2)), ((0, 3), (0, 3)), ((1, 2), (1, 2)), ((1, 3), (1, 3)),
    ((1, 2), (0, 1)), ((1, 2), (0, 2)), ((1, 3), (0, 1)), ((1, 3), (0, 3)))
_MINOR_AT = {minor: k for k, minor in enumerate(_MINORS)}
# a minor's four entry indices: it is e[a] e[b] - e[c] e[d]
_MINOR_ENTRIES = tuple((4 * r1 + c1, 4 * r2 + c2, 4 * r1 + c2, 4 * r2 + c1)
                       for (r1, r2), (c1, c2) in _MINORS)
_PRINCIPAL = tuple(_MINOR_AT[pair, pair] for pair in _PAIRS)
# the principal 3 x 3 minor on rows (i, j, k), expanded along row i:
# e[ii] M(jk|jk) - e[ij] M(jk|ik) + e[ik] M(jk|ij)
_E3 = tuple(
    (5 * i, _MINOR_AT[(j, k), (j, k)], 4 * i + j, _MINOR_AT[(j, k), (i, k)],
     4 * i + k, _MINOR_AT[(j, k), (i, j)])
    for i, j, k in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
# Laplace expansion of det h along rows 0 and 1: (M(01|c), M(23|d), sign)
_E4 = tuple((_MINOR_AT[(0, 1), c], _MINOR_AT[(2, 3), d], sign) for c, d, sign in (
    ((0, 1), (2, 3), 1), ((0, 2), (1, 3), -1), ((0, 3), (1, 2), 1),
    ((1, 2), (0, 3), 1), ((1, 3), (0, 2), -1), ((2, 3), (0, 1), 1)))


def _char_poly(e, t) -> tuple:
    """(c0, ..., c4) of det(tI - h) = t^4 - E1 t^3 + E2 t^2 - E3 t + E4,
    E_k the sum of the principal k x k minors of h; each 2 x 2 minor is
    formed once (``_MINORS``)."""
    add, mul, neg = t.add, t.mul, t.neg
    m = [add[mul[e[a]][e[b]]][neg[mul[e[c]][e[d]]]] for a, b, c, d in _MINOR_ENTRIES]
    e1 = add[add[e[0]][e[5]]][add[e[10]][e[15]]]
    e2 = 0
    for k in _PRINCIPAL:
        e2 = add[e2][m[k]]
    e3 = 0
    for ii, mjj, ij, mik, ik, mij in _E3:
        d = add[mul[e[ii]][m[mjj]]][neg[mul[e[ij]][m[mik]]]]
        e3 = add[e3][add[d][mul[e[ik]][m[mij]]]]
    e4 = 0
    for top, bottom, sign in _E4:
        term = mul[m[top]][m[bottom]]
        e4 = add[e4][term if sign > 0 else neg[term]]
    return e4, neg[e3], e2, neg[e1], 1


def _deflate(coeffs, root: int, t) -> tuple:
    """Synthetic division by (t - root): (quotient, remainder)."""
    add, mul = t.add, t.mul
    acc = 0
    cur = []
    for c in reversed(coeffs):
        acc = add[mul[acc][root]][c]
        cur.append(acc)
    return cur[-2::-1], cur[-1]


def _roots(coeffs, t) -> tuple:
    """Roots in F_q with multiplicity, in encoding order, by repeated
    deflation; also the quotient left once every root is divided out."""
    roots = {}
    work = list(coeffs)
    for x in range(t.q):
        while len(work) > 1:
            quo, rem = _deflate(work, x, t)
            if rem:
                break
            work = quo
            roots[x] = roots.get(x, 0) + 1
    return roots, work


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


_EVEN_RANK_LABELS = {0: "A1", 1: "A2", 3: "A41"}
_ODD_RANK_LABELS = {0: "A0", 1: "A1", 3: "A3"}


def _rank2_form(n, pivots, t) -> tuple:
    """The binary quadratic form Q(v) = B(Nv, v) on a complement of ker N,
    N given by its entries and the pivot columns of its echelon form:
    returns (alpha, beta, gamma) with Q = alpha s^2 + beta st + gamma t^2.

    The standard vectors at the pivot columns span a complement: a kernel
    vector supported on them is 0.  Q(v + k) = Q(v) for k in ker N, since
    uk = k for the unipotent symplectic u = 1 + N gives B(Nv, k) =
    B(uv, uk) - B(v, k) = 0; so any complement gives the same form up to
    change of basis."""
    w1, w2 = ([1 if j == pc else 0 for j in range(4)] for pc in pivots)
    nw1, nw2 = (n[pc::4] for pc in pivots)  # the columns N w1, N w2
    alpha = _bilinear(nw1, w1, t)
    gamma = _bilinear(nw2, w2, t)
    beta = t.add[_bilinear(nw1, w2, t)][_bilinear(nw2, w1, t)]
    return alpha, beta, gamma


def _unipotent_label(h, even: bool, t) -> ClassLabel:
    """Label of a unipotent h (all eigenvalues 1) by rank and form data."""
    n = _minus_scalar(h, 1, t)
    pivots = ffield.row_reduce(_rows(n), t)[1]
    if len(pivots) != 2:
        table = _EVEN_RANK_LABELS if even else _ODD_RANK_LABELS
        return ClassLabel(table[len(pivots)])
    alpha, beta, gamma = _rank2_form(n, pivots, t)
    if even:
        if alpha == 0 and beta == 0 and gamma == 0:
            return ClassLabel("A31")
        return ClassLabel("A32")
    add, mul = t.add, t.mul
    two = add[1][1]
    four_ac = mul[add[two][two]][mul[alpha][gamma]]
    disc = add[mul[beta][beta]][t.neg[four_ac]]
    return ClassLabel("A21" if t.square[disc] else "A22")


def classify(g: GSpElem) -> ClassLabel:
    """Conjugacy-class label of g (scheme in the module docstring)."""
    t = ffield.tables(g.spec)
    even = g.spec.p == 2
    e = g.mat.e
    roots, rest = _roots(_char_poly(e, t), t)
    label = _poly_label(roots, rest, even, t)
    if label is None:
        label = _element_label(e, g.mu.encoding(), roots, rest, even, t)
    return label


_NOT_SCOPED = ClassLabel("NotScoped")
_MIXED = ClassLabel("Mixed")


def _poly_label(roots, rest, even: bool, t) -> Optional[ClassLabel]:
    """The label that the characteristic polynomial alone decides, from its
    rational roots and the quotient ``rest`` left by ``_roots``: NotScoped
    or Mixed, else None when the element's own rank and form data (and mu)
    decide it, in ``_element_label``."""
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


def _element_label(e, mu: int, roots, rest, even: bool, t) -> ClassLabel:
    """The label of an element whose polynomial leaves it open
    (``_poly_label`` gave None), by rank and form data of its entries e."""
    if len(roots) == 2:
        # {l, l, -l, -l}: B-family when the similitude is l^2 (odd q only)
        l1 = next(iter(roots))  # encoding order, so l1 < l2
        if mu == t.mul[l1][l1]:
            return _b_family_label(e, l1, t)
        return _MIXED
    (lam, mult), = roots.items()
    if mult == 4:
        return _unipotent_label(_scale(e, t.inv[lam], t), even, t)
    # elliptic-Levi
    token = t.mul[rest[1]][t.inv[lam]]
    # a fixed space of dimension 2 = 4 - rank: trivial unipotent part
    trivial = _rank(_minus_scalar(e, lam, t), t) == 2
    if even:
        kind = "C3" if trivial else "D3"
    else:
        kind = "G0" if trivial else "G1"
    return ClassLabel(kind, token)


def _b_family_label(e, lam: int, t) -> ClassLabel:
    h = _scale(e, t.inv[lam], t)
    minus_one = t.neg[1]
    # each eigenspace has dimension 4 - rank; 2 means a trivial block
    plus_trivial = _rank(_minus_scalar(h, 1, t), t) == 2
    minus_trivial = _rank(_minus_scalar(h, minus_one, t), t) == 2
    if plus_trivial and minus_trivial:
        return ClassLabel("B0")
    if plus_trivial:
        return ClassLabel("B2")
    if minus_trivial:
        return ClassLabel("B1")
    # both blocks nontrivial: square class of the product of the rank-1
    # form coefficients on the two generalized eigenspaces
    cplus = _block_form_coeff(h, 1, t)
    cminus = _block_form_coeff(h, minus_one, t)
    return ClassLabel("B31" if t.square[t.mul[cplus][cminus]] else "B32")


def _block_form_coeff(h, lam: int, t) -> int:
    """Nonzero value of Q(v) = B((h-lam)v, v) on ker((h-lam)^2).

    Q is a rank-1 form c*L^2 on that plane, so it is nonzero at one of the
    two kernel basis vectors s0, s1 unless it vanishes; Q(s1) is tried
    first."""
    shifted = _minus_scalar(h, lam, t)
    cols = [_mat_vec(shifted, shifted[c::4], t) for c in range(4)]
    square = [cols[c][r] for r in range(4) for c in range(4)]
    s0, s1 = ffield.kernel(_rows(square), t)
    for v in (s1, s0):
        q = _bilinear(_mat_vec(shifted, v, t), v, t)
        if q:
            return q
    raise NotScopedClass("vanishing block form on a B31/B32 candidate")


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
    """The Counter of ``classify`` labels over the elements of subgroup.

    Rows are grouped by characteristic polynomial; roots and the
    polynomial's label are found once per group, a label the polynomial
    decides counts the whole group, and only the rows of the other groups
    reach ``_element_label``."""
    spec = subgroup.spec
    t = ffield.tables(spec)
    even = spec.p == 2
    by_poly = {}
    for e, mu in zip(*subgroup.row_lists()):
        by_poly.setdefault(_char_poly(e, t), []).append((e, mu))
    counts = Counter()
    for poly, members in by_poly.items():
        roots, rest = _roots(poly, t)
        label = _poly_label(roots, rest, even, t)
        if label is not None:
            counts[label] += len(members)
        else:
            counts.update(_element_label(e, mu, roots, rest, even, t)
                          for e, mu in members)
    return counts


# Subgroup -> its _class_counts, shared by the families and dropped with it
_COUNTS = weakref.WeakKeyDictionary()


def dim_fixed(subgroup: Subgroup, family: SigmaFamily, q: Optional[int] = None) -> int:
    """dim sigma^R by averaging the pinned character data over R.

    The labels of R are counted once per subgroup object (``_class_counts``,
    held weakly, so every family asked about the same object reads one
    count): roots are found once per distinct characteristic polynomial,
    NotScoped and Mixed elements are counted from their polynomial alone,
    and only the others get per-element rank and form work.  Per-element
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
