"""Klingen fixed-vector dimensions, assembled two independent ways.

The total dim pi^{Kl(n)} is computed both as the support-weighted sum

    sum over the support table of  (coset count) x (per-coset fixed dim)

and as a closed formula in q and n (a four-case polynomial family in q,
scaled by q^{floor((n-2)/4)}).  The two routes share no code: the sum route
draws its counts from the coset enumeration and its per-coset dimensions
from the finite-group character data, while the formula route is a direct
rational evaluation.  Their agreement is the package's primary invariant,
and ``mode="both"`` turns any discrepancy into a fatal DisagreementError.

Zero paths: representations induced from the paramodular normalizer have
no Klingen-fixed vectors at any level, nongeneric families vanish at every
level, and levels n in {0, 1} admit no fixed vectors for either generic
family.  These return canned zero reports without consulting either route.

Both closed forms are evaluated in exact integers, as one numerator over
one common denominator divided by ``divmod`` and asserted integral: floors
are Python's ``//`` (toward -infinity), and a negative power of q moves into
the denominator.  That reading makes the n=1 evaluation collapse to 0.

``degree_in_q`` checks the paper's dependence on p.  At a fixed level
n >= 2 the formula's shape bounds its degree in q by b = floor((n-2)/4) + 1,
and the degree is read off exact integer differences of the formula at the
b + 3 consecutive integers q = 2, ..., b + 4: b + 1 values fix a polynomial
of degree b, and two more check it.  Those nodes include q that are not
prime powers, which is sound because polynomiality is a property of the
closed formula, not of the fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .chartab import (
    FAMILY_NONGENERIC,
    FAMILY_TYPE_I,
    FAMILY_TYPE_II,
    SigmaFamily,
    dim_fixed_family,
)
from .cosets import enumerate_supp
from .errors import DisagreementError, NonIntegralResult, NotPolynomial
from .ffield import prime_power

ORIGIN_K = "K"
ORIGIN_PARAMODULAR = "paramodular"
_ORIGINS = (ORIGIN_K, ORIGIN_PARAMODULAR)

_MODES = ("sum", "formula", "both")

# Formula-route coefficient c_n(q), keyed by n mod 4.
_C_POLYS = {
    0: lambda q: q * q + 36 * q + 71,
    1: lambda q: 4 * q * q + 50 * q + 72,
    2: lambda q: 11 * q + 61,
    3: lambda q: 22 * q + 68,
}

# Corollary constants (typeI families chi5 at q=2, X4 at q=3), by n mod 4.
_COROLLARY_CONSTANTS = {
    2: {0: 219, 1: 260, 2: 155, 3: 184},
    3: {0: 112, 1: 147, 2: 65, 3: 85},
}

@dataclass(frozen=True)
class DimRequest:
    """One dimension query: field size, level, family, inducing origin."""

    q: int
    n: int
    sigma: SigmaFamily
    origin: str = ORIGIN_K

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or self.q < 2:
            raise ValueError(f"q must be an integer >= 2, got {self.q!r}")
        prime_power(self.q)  # NotPrime unless q is a prime power
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"level n must be an integer >= 0, got {self.n!r}")
        if self.origin not in _ORIGINS:
            raise ValueError(
                f"origin must be one of {_ORIGINS}, got {self.origin!r}"
            )


@dataclass(frozen=True)
class DimReport:
    """Result of a dimension query.

    ``total`` is the authoritative value for the requested mode;
    ``by_family`` lists (family, count, per_coset_dim, subtotal) rows of
    the sum route; ``formula_value`` is the closed-form evaluation; and
    ``agree`` records whether the two routes coincide.
    """

    total: int
    by_family: Tuple[Tuple[str, int, str, int], ...]
    formula_value: int
    agree: bool


def _exact_int(num: int, den: int, what: str, *args) -> int:
    """num / den (den > 0), asserted integral; the error names
    ``what.format(*args)``."""
    value, rem = divmod(num, den)
    if rem:
        from fractions import Fraction  # only to print the failing value

        raise NonIntegralResult(
            f"{what.format(*args)} evaluated to non-integer {Fraction(num, den)}"
        )
    return value


def _formula_value(q: int, n: int, kind: str) -> int:
    """Closed-form dimension for a generic family at level n >= 1, as one
    integer numerator over (q-1)^2 q^S, S = max(-floor((n-2)/4), 0)."""
    r = q - 1
    m = (n - 2) // 4
    up, down = q ** max(m, 0), q ** max(-m, 0)
    den = r * r * down
    num = (r * _C_POLYS[n % 4](q) + 72) * up - (
        72 + 18 * (n + 2) * r + n * (n + 3) * r * r
    ) * down
    if kind == FAMILY_TYPE_II:
        num += 2 * ((n - 1) // 2) * den
    total = _exact_int(num, den, "closed formula at q={}, n={}, {}", q, n, kind)
    if total < 0:
        raise NonIntegralResult(
            f"closed formula at q={q}, n={n}, {kind} gave negative {total}"
        )
    return total


def _sum_route(
    q: int, n: int, sigma: SigmaFamily
) -> Tuple[int, Tuple[Tuple[str, int, str, int], ...]]:
    rows: List[Tuple[str, int, str, int]] = []
    total = 0
    for fc in enumerate_supp(q, n):
        per = dim_fixed_family(fc.row, sigma, q)
        subtotal = fc.count * per
        rows.append((fc.family, fc.count, fc.per_coset_dim, subtotal))
        total += subtotal
    return total, tuple(rows)


def _zero_report() -> DimReport:
    return DimReport(total=0, by_family=(), formula_value=0, agree=True)


def dim_klingen(req: DimRequest, mode: str = "both") -> DimReport:
    """dim pi^{Kl(n)} for the requested family, via the requested route(s).

    Both routes are cheap closed forms, so both are always evaluated and
    recorded in the report; ``mode`` selects which value ``total`` reports
    ("sum" or "formula") and, for "both", makes any disagreement fatal.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if req.origin == ORIGIN_PARAMODULAR:
        return _zero_report()
    if req.sigma.kind == FAMILY_NONGENERIC:
        return _zero_report()
    if req.n <= 1:
        return _zero_report()

    sum_total, by_family = _sum_route(req.q, req.n, req.sigma)
    formula_total = _formula_value(req.q, req.n, req.sigma.kind)
    agree = sum_total == formula_total
    if mode == "both" and not agree:
        raise DisagreementError(
            req.q, req.n, req.sigma.display_name(req.q), sum_total, formula_total
        )
    total = formula_total if mode == "formula" else sum_total
    return DimReport(
        total=total,
        by_family=by_family,
        formula_value=formula_total,
        agree=agree,
    )


def corollary_value(q: int, n: int) -> int:
    """The displayed piecewise evaluation for the typeI family at q in {2,3}.

    q=2: -(n+9)(n+12) + 2^{floor((n-2)/4)} * {219, 260, 155, 184};
    q=3: -(n+6)^2     + 3^{floor((n-2)/4)} * {112, 147,  65,  85},
    constants keyed by n mod 4, as one integer numerator over q^S,
    S = max(-floor((n-2)/4), 0), asserted integral.
    """
    if q not in _COROLLARY_CONSTANTS:
        raise ValueError(f"corollary constants are tabulated for q in (2, 3), got {q}")
    if n < 1:
        raise ValueError(f"corollary is stated for n >= 1, got {n}")
    const = _COROLLARY_CONSTANTS[q][n % 4]
    m = (n - 2) // 4
    up, down = q ** max(m, 0), q ** max(-m, 0)
    quadratic = (n + 9) * (n + 12) if q == 2 else (n + 6) ** 2
    num = const * up - quadratic * down
    return _exact_int(num, down, "corollary at q={}, n={}", q, n)


def degree_in_q(n: int, sigma_kind: str) -> int:
    """Degree of dim pi^{Kl(n)} as a polynomial in q (fixed level n).

    For n >= 2 the formula's numerator has degree at most m + 3 in q,
    m = floor((n-2)/4), over the denominator (q-1)^2, so a polynomial value
    has degree at most b = m + 1.  The formula is evaluated at the b + 3
    consecutive integers q = 2, ..., b + 4 and differenced: b + 1 values fix
    the polynomial, and the two more make the differences of order b + 1
    and b + 2 a check, whose failure raises NotPolynomial.  Nodes such as
    q = 6 are not prime powers; that is sound, since polynomiality is a
    property of the closed formula, which never factors q.  The degree is
    the order of the last nonzero difference; the zero polynomial and the
    empty levels n <= 1 report degree 0.
    """
    if n < 0:
        raise ValueError(f"level n must be >= 0, got {n}")
    if sigma_kind not in (FAMILY_TYPE_I, FAMILY_TYPE_II):
        raise ValueError(
            f"sigma_kind must be {FAMILY_TYPE_I!r} or {FAMILY_TYPE_II!r}, "
            f"got {sigma_kind!r}"
        )
    if n <= 1:
        return 0
    bound = (n - 2) // 4 + 1
    row = [_formula_value(q, n, sigma_kind) for q in range(2, bound + 5)]
    degree = 0
    for order in range(1, bound + 3):
        row = [b - a for a, b in zip(row, row[1:])]
        if any(row):
            if order > bound:
                raise NotPolynomial(
                    f"order-{order} differences {row} of the formula over "
                    f"q=2..{bound + 4} (n={n}) are nonzero, but its degree "
                    f"in q is at most {bound}"
                )
            degree = order
    return degree
