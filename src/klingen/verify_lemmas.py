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
and held to the Klingen-Levi dimensions.  The suite finds that virtual
character by one search over the computed table: among all +-chi_i and
+-chi_i +- chi_j, exactly one takes every pin and both Levi dimensions,
and it is the difference of two irreducibles (norm 2).  Every lemma
comparison then runs against it.

Every comparison is recorded in a ``Checks`` list, the recorder of every
verify suite, and a failed one is listed by its ``failures()``, so the run
goes on past it.  MismatchReport is raised only when there is nothing to
compare against: ``dixon_table`` cannot build a consistent table, or no
unique virtual typeII carrier exists.
"""

from __future__ import annotations

from fractions import Fraction
from collections import Counter
from dataclasses import dataclass
from typing import List

from .chartab import (
    FAMILY_TYPE_I,
    FAMILY_TYPE_II,
    SigmaFamily,
    dim_fixed,
    dim_fixed_family,
    _code_label,
    _label_codes,
    _pinned_value,
    _row_labels,
)
from .dixon import CharacterTable, _dot, _rational, dixon_table
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


class Checks(list):
    """The checks of one verification run, as CheckResults in the order
    they were made; ``check(name, expected, actual)`` records one."""

    def check(self, name: str, expected, actual) -> None:
        self.append(CheckResult(name, expected, actual))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self)

    def failures(self) -> List[CheckResult]:
        return [c for c in self if not c.ok]


@dataclass
class LemmaReport:
    q: int
    table: CharacterTable
    type_i: List[int]
    type_ii: List[int]
    virtual_type_ii: List[int]  # coefficient per character
    checks: Checks

    @property
    def ok(self) -> bool:
        return self.checks.ok

    def failures(self) -> List[CheckResult]:
        return self.checks.failures()


def _whittaker_pairings(table: CharacterTable, unipotent) -> List[Fraction]:
    """<chi_i|_U, psi> for every character chi_i, against the character
    psi(u) = (-1)^(u_12 + u_23) of the upper unipotent group U.  q = 2 only:
    there the entries u_12 and u_23 are encoded as 0 and 1, and psi is
    additive on them."""
    import numpy as np

    rows = unipotent.rows
    parity = (rows[:, 1] + rows[:, 6]) % 2
    counts = np.bincount(table.classes_of(unipotent) * 2 + parity,
                         minlength=2 * table.n_classes).reshape(-1, 2)
    weights = counts[:, 0] - counts[:, 1]
    totals = _rational(_dot(weights, table.values), table.exponent)
    return [Fraction(total, unipotent.order) for total in totals]


def _virtual_type_ii(table: CharacterTable, labels, q: int, subgroups):
    """The class function carrying the second cuspidal family when no
    irreducible of its degree (q^2+1)(q-1)^2 is cuspidal.

    One search over the computed table.  The candidates are every +-chi_i
    and every +-chi_i +- chi_j, which are all the integral class functions
    of norm <= 2.  A candidate survives if it takes the typeII pin on every
    pinned class and has the Klingen-Levi dimensions dim^M = 2 and
    dim^{R_klingen} = 0, read off ``subgroups["M"]`` and
    ``subgroups["R_klingen"]``.  Exactly one candidate must survive, and it
    must have two terms, the norm 2 that Deligne-Lusztig predicts for
    <R_T^theta, R_T^theta>; otherwise MismatchReport lists the survivors
    as (character, sign) pairs.

    Returns (values per class as Fractions, coefficient per character).
    """
    import numpy as np

    pinned, pins = [], []
    for k, label in enumerate(labels):
        pin = _pinned_value(label.kind, FAMILY_TYPE_II, q)
        if pin is not None:
            pinned.append(k)
            pins.append(pin)
    levi = np.array([table.fixed_dims(subgroups[name]) for name in ("M", "R_klingen")])

    # the coefficient rows of +-chi_i, in the order (chi_0, -chi_0, chi_1, ...),
    # then of every sum of two of them on different characters
    n = table.n_chars
    signed = np.repeat(np.eye(n, dtype=np.int64), 2, axis=0)
    signed[1::2] *= -1
    a, b = np.triu_indices(2 * n, 1)
    apart = a // 2 != b // 2
    candidates = np.concatenate([signed, signed[a[apart]] + signed[b[apart]]])
    values = _dot(candidates, table.values.reshape(n, -1)).reshape(
        len(candidates), table.n_classes, -1)
    survives = (
        (_dot(candidates, levi.T) == [2, 0]).all(axis=1)
        & (values[:, pinned, 0] == pins).all(axis=1)
        & ~values[:, pinned, 1:].any(axis=(1, 2))
    )
    survivors = [[(i, int(row[i])) for i in np.flatnonzero(row).tolist()]
                 for row in candidates[survives]]
    if len(survivors) != 1 or len(survivors[0]) != 2:
        raise MismatchReport(
            [("virtual typeII carrier", "one two-term difference", survivors)]
        )
    found = int(survives.argmax())
    return ([Fraction(v) for v in _rational(values[found], table.exponent)],
            candidates[found].tolist())


def verify_char_lemmas(q: int = 2) -> LemmaReport:
    """Run the full character-data verification; only q = 2 fits the
    solver bounds (odd-q spot checks live in the test suite via the
    per-element route).  A failed comparison is recorded in the report's
    checks; MismatchReport is raised only when the table or the virtual
    typeII carrier cannot be built."""
    if q != 2:
        raise DixonBoundExceeded(
            f"full-group character table verification is only run at q=2, got q={q}"
        )
    import numpy as np

    spec = field_for_q(q)
    group = enumerate_gsp4(q)
    table = dixon_table(group)
    checks = Checks()
    check = checks.check

    check("class count", 11, table.n_classes)
    check("degree multiset", sorted([1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16]),
          sorted(table.degrees))
    check("sum of squared degrees", group.order, sum(d * d for d in table.degrees))

    # identify generic cuspidal characters from the table alone
    subgroups = {name: named_subgroup(name, q) for name in _LEMMA_SUBGROUPS}
    oracle_dims = {name: table.fixed_dims(sub) for name, sub in subgroups.items()}
    generic = {i for i, pairing in
               enumerate(_whittaker_pairings(table, upper_unipotent(spec)))
               if pairing != 0}
    cuspidal = {i for i, (ds, dk) in
                enumerate(zip(oracle_dims["U_S"], oracle_dims["U_K"]))
                if ds == 0 and dk == 0}

    deg_i = SigmaFamily(FAMILY_TYPE_I).degree(q)
    deg_ii = SigmaFamily(FAMILY_TYPE_II).degree(q)
    type_i = sorted(i for i in generic & cuspidal if table.degrees[i] == deg_i)
    type_ii = sorted(i for i in generic & cuspidal if table.degrees[i] == deg_ii)
    check("typeI candidates found", True, len(type_i) >= 1)

    reps = [cls.index[0] for cls in table.classes]
    labels = [_code_label(code, q)
              for code in _label_codes(group.rows[reps], group.mus[reps], spec).tolist()]

    # The second family's parameter set is empty at q = 2: certify that no
    # degree-5 irreducible is cuspidal, then build the virtual carrier, which
    # every typeII check below runs against.
    check("no cuspidal irreducible of typeII degree", [],
          sorted(i for i in cuspidal if table.degrees[i] == deg_ii))
    virtual_vals, virtual_coeffs = _virtual_type_ii(table, labels, q, subgroups)

    def virtual_dim(name) -> Fraction:
        # the carrier is sum_i c_i chi_i, so its fixed dimension is
        # sum_i c_i dim chi_i^R
        return Fraction(sum(c * d for c, d in zip(virtual_coeffs, oracle_dims[name])))

    check("virtual typeII formal degree", deg_ii, virtual_vals[table.identity_class])
    check("virtual typeII is a two-term difference", [-1, 1],
          sorted(c for c in virtual_coeffs if c != 0))
    # vanishing sums over both unipotent radicals (cuspidal-like)
    for uname in ("U_S", "U_K"):
        check(f"virtual typeII kills {uname}", 0, virtual_dim(uname))

    # lemma dimensions, three routes: Dixon table (the typeI characters or
    # the virtual carrier) / classify+average / closed
    for fam_kind in (FAMILY_TYPE_I, FAMILY_TYPE_II):
        family = SigmaFamily(fam_kind)
        for name, sub in subgroups.items():
            want = dim_fixed_family(name, family, q)
            if fam_kind == FAMILY_TYPE_I:
                for i in type_i:
                    check(f"dim {fam_kind}^{name} (oracle, char {i})", want,
                          oracle_dims[name][i])
            else:
                check(f"dim {fam_kind}^{name} (virtual)", want, virtual_dim(name))
            check(f"dim {fam_kind}^{name} (pinned classes)", want,
                  dim_fixed(sub, family, q))

    # per-element pinned values on every class they cover
    for fam_kind in (FAMILY_TYPE_I, FAMILY_TYPE_II):
        for k, label in enumerate(labels):
            pin = _pinned_value(label.kind, fam_kind, q)
            if pin is None:
                continue
            if fam_kind == FAMILY_TYPE_I:
                for i in type_i:
                    v = table.value(i, k)
                    actual = v.as_int() if v.is_rational() else repr(v)
                    check(f"pinned {fam_kind} on {label} (char {i})", pin, actual)
            else:
                check(f"pinned {fam_kind} on {label} (virtual)", pin, virtual_vals[k])

    # token-wise elliptic cancellation inside the Klingen Levi: the class of
    # each C3/D3 row, counted per token
    klingen = subgroups["R_klingen"]
    kl_labels = _row_labels(klingen)
    kl_kinds = Counter(lab.kind for lab in kl_labels)
    by_token = {}
    for lab, k in zip(kl_labels, table.classes_of(klingen).tolist()):
        if lab.kind in ("C3", "D3"):
            by_token.setdefault(lab.token, Counter())[k] += 1
    check("elliptic tokens in Klingen Levi", True, len(by_token) >= 1)
    for token, counts in sorted(by_token.items()):
        weights = np.zeros(table.n_classes, dtype=np.int64)
        weights[list(counts)] = list(counts.values())
        totals = _dot(weights, table.values)
        for i in type_i:
            check(f"elliptic cancellation token {token} (typeI, char {i})", True,
                  not totals[i].any())
        total = sum(n * virtual_vals[k] for k, n in counts.items())
        check(f"elliptic cancellation token {token} (typeII, virtual)", 0, total)

    # cuspidal nongeneric characters die on the long-root center
    z_ray_dims = table.fixed_dims(named_subgroup("Z_ray", q))
    for i in sorted(cuspidal - generic):
        check(f"long-center vanishing (cuspidal nongeneric char {i})", 0,
              z_ray_dims[i])

    # class-intersection counts consumed by the closed counting forms
    check("|R_klingen ^ A2|", q * q + q - 2, kl_kinds["A2"])
    check("|R_klingen ^ A32|", (q - 1) * (q * q - 1), kl_kinds["A32"])
    m1_counts = Counter(lab.kind for lab in _row_labels(subgroups["M1"]))
    check("|M1 ^ A2|", q * q - 1, m1_counts["A2"])

    return LemmaReport(q=q, table=table, type_i=type_i, type_ii=type_ii,
                       virtual_type_ii=virtual_coeffs, checks=checks)


__all__ = ["CheckResult", "Checks", "LemmaReport", "verify_char_lemmas"]
