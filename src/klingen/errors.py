"""Exception types shared across the package.

Every failure mode that a caller can meaningfully react to gets its own
class; anything else is a plain ValueError/TypeError at the point of use.
"""

from __future__ import annotations


class KlingenError(Exception):
    """Base class for all package-specific errors."""


# ---------------------------------------------------------------- finite fields

class NotPrime(KlingenError):
    """The requested characteristic is not a prime number."""


class FieldTooLarge(KlingenError):
    """The requested field order exceeds the supported bound."""


class MixedFields(KlingenError):
    """Arithmetic between elements of different fields, or a subset or
    equality test between subgroups over different fields."""


class DivisionByZero(KlingenError):
    """Inversion or division of the zero element."""


# ---------------------------------------------------------------- matrix groups

class NotSimilitude(KlingenError):
    """A matrix expected to lie in GSp(4) does not."""


class UnknownName(KlingenError):
    """named_subgroup was asked for a name it does not know."""


class ClosureTooLarge(KlingenError):
    """Subgroup closure exceeded its element bound."""


class GroupTooLarge(KlingenError):
    """A whole-group operation was asked for beyond its size bound."""


# ------------------------------------------------------------- character data

class ValueNotPinned(KlingenError):
    """A character value (or aggregate) was requested that the stored
    class data does not determine."""


class NotScopedClass(KlingenError):
    """classify() met an element outside the classification's scope."""


class DixonBoundExceeded(KlingenError):
    """dixon_table called on a group beyond its size/class bounds."""


class MismatchReport(KlingenError):
    """A character table, or the virtual typeII carrier verify_char_lemmas
    checks against, could not be built consistently.  A failed comparison
    of a verify suite is not raised: its ``Checks`` lists it.

    The ``failures`` attribute lists what failed as
    ``(check_name, expected, actual)`` triples.
    """

    def __init__(self, failures):
        self.failures = list(failures)
        lines = "; ".join(
            f"{name}: expected {exp!r}, got {act!r}" for name, exp, act in self.failures
        )
        super().__init__(f"{len(self.failures)} check(s) failed: {lines}")


# ------------------------------------------------------------------ p-adic

class PrecisionTooLow(KlingenError):
    """A construction was attempted below the minimum safe precision."""


class NonConvergence(KlingenError):
    """Randomized subgroup estimation failed to stabilize in budget."""


# ------------------------------------------------------------------- counting

class NonIntegralResult(KlingenError):
    """A closed-form count or dimension evaluated to a non-integer or a
    negative number."""


class NotPolynomial(KlingenError):
    """Formula values are inconsistent with a polynomial in q of the
    expected degree window."""


# ------------------------------------------------------------------ dimensions

class DisagreementError(KlingenError):
    """The two independent dimension routes disagree.  Fatal: raised with
    both values attached, never reconciled silently."""

    def __init__(self, q, n, family, sum_value, formula_value):
        self.q = q
        self.n = n
        self.family = family
        self.sum_value = sum_value
        self.formula_value = formula_value
        super().__init__(
            f"dimension routes disagree at q={q}, n={n}, family={family}: "
            f"support-sum gives {sum_value}, closed formula gives {formula_value}"
        )


class OrderMismatch(DisagreementError):
    """A group built from its parameterization does not have as many
    distinct elements as its order formula says: the construction and the
    formula disagree.  The message names the group, q and both counts."""

    def __init__(self, message):
        KlingenError.__init__(self, message)


class ResourceBound(KlingenError):
    """A verification suite hit an explicit resource bound (size, budget)."""
