"""Cross-check the pinned character data against an independent oracle.

At q = 2 the full group is small enough to hand to the Dixon-Schneider
solver.  The suite then:

  * identifies the generic cuspidal characters purely from the computed
    table (degree, Whittaker pairing against a nondegenerate character of
    the upper unipotent group, vanishing on both unipotent radicals);
  * recomputes every per-subgroup fixed-space dimension from the table and
    compares with both the classify-and-average route and the closed
    values;
  * checks the per-element pinned values on every class they cover;
  * checks the token-wise elliptic cancellation inside the Klingen-Levi
    group, the long-center vanishing for cuspidal nongeneric characters,
    and the class-intersection counts used by the closed counting forms.

One degeneration is specific to q = 2: the second cuspidal family has an
empty parameter set there, so no irreducible of degree (q^2+1)(q-1)^2 = 5
is both generic and cuspidal (the Gelfand-Graev module is exhausted by the
degrees 16, 9, 10, 10).  The family's fixed-space dimensions still make
sense: they are computed from a *virtual* character, pinned on every
rationally-split class by the same values that drive the general-q proofs
and forced on the elliptic classes by the Levi dimensions.  The suite
constructs that virtual character, certifies it is the difference of
exactly two irreducibles of the computed table (the unique integral
completion of minimal norm), and then runs every lemma comparison against
it.  The three classes the construction leaves free meet none of the
lemma subgroups, which the suite also asserts.

Any discrepancy raises MismatchReport listing every failed comparison.
"""

from __future__ import annotations

import math
from fractions import Fraction
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional

from .chartab import (
    FAMILY_TYPE_I,
    FAMILY_TYPE_II,
    SigmaFamily,
    classify,
    dim_fixed,
    dim_fixed_family,
    _pinned_value,
)
from .dixon import CharacterTable, Cyclotomic, _solve_unique, dixon_table
from .errors import DixonBoundExceeded, MismatchReport
from .ffield import field_for_q
from .groupfq import (
    enumerate_gsp4,
    named_subgroup,
    upper_unipotent,
)

_LEMMA_SUBGROUPS = [
    "U_S",
    "U_K",
    "S",
    "A",
    "B",
    "C",
    "D",
    "R_last",
    "M",
    "M1",
    "R_klingen",
    "Row1",
    "Row5",
    "Row6",
    "Row7",
    "Row8",
]


@dataclass
class CheckResult:
    name: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual

    def __repr__(self):
        mark = "ok" if self.ok else "FAIL"
        return f"[{mark}] {self.name}: expected {self.expected}, got {self.actual}"


@dataclass
class LemmaReport:
    q: int
    table: CharacterTable
    type_i: List[int]
    type_ii: List[int]
    virtual_type_ii: Optional[List[int]] = None  # coefficient per character
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self):
        return [(c.name, c.expected, c.actual) for c in self.checks if not c.ok]


def _whittaker_pairing(table: CharacterTable, i: int, unipotent) -> Fraction:
    """<chi_i|_U, psi> against psi(u) = (-1)^(u_12 + u_23); q = 2 only."""
    weights = [0] * table.n_classes
    for u, k in zip(unipotent.elements, table.classes_of(unipotent).tolist()):
        weights[k] += (-1) ** (u.mat.entry(0, 1).encoding() + u.mat.entry(1, 2).encoding())
    total = Cyclotomic.combination(table.exponent, zip(weights, table.values[i]))
    return Fraction(total.as_int(), unipotent.order)


def _virtual_type_ii(table: CharacterTable, labels, q: int):
    """Build the formal-degree (q^2+1)(q-1)^2 class function carrying the
    second cuspidal family when no irreducible of that degree is cuspidal.

    Values on rationally-split classes come from the per-element pins, the
    elliptic values are forced by the torus and Klingen-Levi fixed-space
    dimensions, and the remaining (free) values are fixed by requiring an
    integral decomposition over the computed table of minimal norm.  That
    minimum is certified unique and equal to 2, so the result is the
    difference of exactly two irreducibles.  The search sweeps every free
    value in -6..6 on ints: each multiplicity is scaled by |G| and by the
    lcm of the known values' denominators, and tested with divmod.

    Returns (values per class as Fractions, coefficient per character).
    """
    r = table.n_classes
    values: List[Optional[Fraction]] = [None] * r
    elliptic: List[int] = []
    free: List[int] = []
    for k, label in enumerate(labels):
        pin = _pinned_value(label.kind, FAMILY_TYPE_II, q)
        if pin is not None:
            values[k] = Fraction(pin)
        elif label.kind in ("C3", "D3", "B0", "B1", "B2", "B31", "B32", "G0", "G1"):
            elliptic.append(k)
        else:
            free.append(k)

    # elliptic values forced by two already-verified Levi dimensions
    eqs = []
    for name, dim in (("M", 2), ("R_klingen", 0)):
        sub = named_subgroup(name, q)
        counts = table.class_counts(sub)
        row = [Fraction(counts[k]) for k in elliptic]
        rhs = Fraction(dim * sub.order) - sum(
            n * values[k] for k, n in enumerate(counts) if n and values[k] is not None
        )
        if any(counts[k] for k in free):
            raise ArithmeticError(f"free class meets lemma subgroup {name}")
        eqs.append(row + [rhs])
    for k, v in zip(elliptic, _solve_unique(eqs)):
        values[k] = v

    # free values: minimal-norm integral completion.  The coefficient of
    # chi_i is (1/|G|) sum_k |C_k| v_k chi_i(C_k); times den = |G| * scale,
    # every term is an int.
    sizes = [cls.size for cls in table.classes]
    known_k = [k for k in range(r) if values[k] is not None]
    scale = math.lcm(*(values[k].denominator for k in known_k))
    den = table.group.order * scale
    chi = [[table.value(i, k).as_int() for k in range(r)] for i in range(table.n_chars)]
    known = [
        sum(sizes[k] * (values[k] * scale).numerator * row[k] for k in known_k)
        for row in chi
    ]
    coef = [[scale * sizes[k] * row[k] for k in free] for row in chi]
    best = None
    for xs in product(range(-6, 7), repeat=len(free)):
        cs = []
        for kn, co in zip(known, coef):
            c, rem = divmod(kn + sum(a * x for a, x in zip(co, xs)), den)
            if rem:
                break
            cs.append(c)
        else:
            norm = sum(c * c for c in cs)
            if best is None or norm < best[0]:
                best = (norm, xs, cs, 1)
            elif norm == best[0] and xs != best[1]:
                best = (best[0], best[1], best[2], best[3] + 1)
    if best is None:
        raise ArithmeticError("no integral completion of the virtual character")
    norm, xs, coeffs, n_minimal = best
    if norm != 2 or n_minimal != 1:
        raise ArithmeticError(
            f"virtual character not a unique two-term difference: norm={norm},"
            f" minimizers={n_minimal}"
        )
    for k, x in zip(free, xs):
        values[k] = Fraction(x)
    return values, coeffs


def verify_char_lemmas(q: int = 2) -> LemmaReport:
    """Run the full character-data verification; only q = 2 fits the
    solver bounds (odd-q spot checks live in the test suite via the
    per-element route)."""
    if q != 2:
        raise DixonBoundExceeded(
            f"full-group character table verification is only run at q=2, got q={q}"
        )
    spec = field_for_q(q)
    group = enumerate_gsp4(q)
    table = dixon_table(group)
    checks: List[CheckResult] = []

    checks.append(CheckResult("class count", 11, table.n_classes))
    checks.append(
        CheckResult(
            "degree multiset",
            sorted([1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16]),
            sorted(table.degrees),
        )
    )
    checks.append(
        CheckResult(
            "sum of squared degrees",
            group.order,
            sum(d * d for d in table.degrees),
        )
    )

    # identify generic cuspidal characters from the table alone
    u_up = upper_unipotent(spec)
    u_s = named_subgroup("U_S", q)
    u_k = named_subgroup("U_K", q)
    generic = set()
    cuspidal = set()
    for i in range(table.n_chars):
        if _whittaker_pairing(table, i, u_up) != 0:
            generic.add(i)
        if table.fixed_dim(i, u_s) == 0 and table.fixed_dim(i, u_k) == 0:
            cuspidal.add(i)

    deg_i = SigmaFamily(FAMILY_TYPE_I).degree(q)
    deg_ii = SigmaFamily(FAMILY_TYPE_II).degree(q)
    type_i = sorted(i for i in generic & cuspidal if table.degrees[i] == deg_i)
    type_ii = sorted(i for i in generic & cuspidal if table.degrees[i] == deg_ii)
    checks.append(CheckResult("typeI candidates found", True, len(type_i) >= 1))

    labels = [classify(cls.rep) for cls in table.classes]

    # The second family's parameter set is empty at q = 2: certify that no
    # degree-5 irreducible is cuspidal, then build the virtual carrier.
    virtual_vals = None
    virtual_coeffs = None

    def virtual_dim(sub) -> Fraction:
        counts = table.class_counts(sub)
        return sum(n * virtual_vals[k] for k, n in enumerate(counts) if n) / sub.order

    if type_ii:
        checks.append(CheckResult("typeII carrier", "irreducible", "irreducible"))
    else:
        checks.append(
            CheckResult(
                "no cuspidal irreducible of typeII degree",
                [],
                sorted(i for i in cuspidal if table.degrees[i] == deg_ii),
            )
        )
        virtual_vals, virtual_coeffs = _virtual_type_ii(table, labels, q)
        checks.append(
            CheckResult(
                "virtual typeII formal degree",
                deg_ii,
                virtual_vals[table.identity_class],
            )
        )
        checks.append(
            CheckResult(
                "virtual typeII is a two-term difference",
                [-1, 1],
                sorted(c for c in virtual_coeffs if c != 0),
            )
        )
        # vanishing sums over both unipotent radicals (cuspidal-like)
        for uname, usub in (("U_S", u_s), ("U_K", u_k)):
            checks.append(
                CheckResult(f"virtual typeII kills {uname}", 0, virtual_dim(usub))
            )

    # lemma dimensions, three routes: Dixon table / classify+average / closed
    subgroups = {name: named_subgroup(name, q) for name in _LEMMA_SUBGROUPS}
    for fam_kind, indices in ((FAMILY_TYPE_I, type_i), (FAMILY_TYPE_II, type_ii)):
        family = SigmaFamily(fam_kind)
        for name, sub in subgroups.items():
            want = dim_fixed_family(name, family, q)
            for i in indices:
                checks.append(
                    CheckResult(
                        f"dim {fam_kind}^{name} (oracle, char {i})",
                        want,
                        table.fixed_dim(i, sub),
                    )
                )
            if fam_kind == FAMILY_TYPE_II and virtual_vals is not None:
                checks.append(
                    CheckResult(
                        f"dim {fam_kind}^{name} (virtual)",
                        want,
                        virtual_dim(sub),
                    )
                )
            checks.append(
                CheckResult(
                    f"dim {fam_kind}^{name} (pinned classes)",
                    want,
                    dim_fixed(sub, family, q),
                )
            )

    # per-element pinned values on every class they cover
    for fam_kind, indices in ((FAMILY_TYPE_I, type_i), (FAMILY_TYPE_II, type_ii)):
        for k, label in enumerate(labels):
            pin = _pinned_value(label.kind, fam_kind, q)
            if pin is None:
                continue
            for i in indices:
                v = table.value(i, k)
                actual = v.as_int() if v.is_rational() else repr(v)
                checks.append(
                    CheckResult(
                        f"pinned {fam_kind} on {label} (char {i})", pin, actual
                    )
                )
            if fam_kind == FAMILY_TYPE_II and virtual_vals is not None:
                checks.append(
                    CheckResult(
                        f"pinned {fam_kind} on {label} (virtual)",
                        pin,
                        virtual_vals[k],
                    )
                )

    # token-wise elliptic cancellation inside the Klingen Levi
    kl_kinds = Counter()
    by_token = {}
    for g in subgroups["R_klingen"].elements:
        lab = classify(g)
        kl_kinds[lab.kind] += 1
        if lab.kind in ("C3", "D3"):
            by_token.setdefault(lab.token, []).append(g)
    checks.append(CheckResult("elliptic tokens in Klingen Levi", True, len(by_token) >= 1))
    for token, elems in sorted(by_token.items()):
        counts = Counter(table.class_index(g) for g in elems)
        for i in type_i:
            total = Cyclotomic.combination(
                table.exponent, ((n, table.values[i][k]) for k, n in counts.items())
            )
            checks.append(
                CheckResult(
                    f"elliptic cancellation token {token} (typeI, char {i})",
                    True,
                    total.is_zero(),
                )
            )
        if virtual_vals is not None:
            total = sum(n * virtual_vals[k] for k, n in counts.items())
            checks.append(
                CheckResult(
                    f"elliptic cancellation token {token} (typeII, virtual)",
                    0,
                    total,
                )
            )

    # cuspidal nongeneric characters die on the long-root center
    z_ray = named_subgroup("Z_ray", q)
    for i in sorted(cuspidal - generic):
        checks.append(
            CheckResult(
                f"long-center vanishing (cuspidal nongeneric char {i})",
                0,
                table.fixed_dim(i, z_ray),
            )
        )

    # class-intersection counts consumed by the closed counting forms
    checks.append(CheckResult("|R_klingen ^ A2|", q * q + q - 2, kl_kinds["A2"]))
    checks.append(
        CheckResult("|R_klingen ^ A32|", (q - 1) * (q * q - 1), kl_kinds["A32"])
    )
    m1_counts = Counter(classify(g).kind for g in subgroups["M1"].elements)
    checks.append(CheckResult("|M1 ^ A2|", q * q - 1, m1_counts["A2"]))

    report = LemmaReport(
        q=q,
        table=table,
        type_i=type_i,
        type_ii=type_ii,
        virtual_type_ii=virtual_coeffs,
        checks=checks,
    )
    if not report.ok:
        raise MismatchReport(report.failures())
    return report


__all__ = ["CheckResult", "LemmaReport", "verify_char_lemmas"]
