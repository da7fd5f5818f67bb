"""Error taxonomy.

Every failure mode of the toolkit maps to exactly one class here, and the
CLI maps each class to one documented exit code.
"""


class PfaffredError(Exception):
    """Base class for all toolkit errors."""


class ZeroConstantTerm(PfaffredError):
    """Inversion of a series whose constant term is zero."""


class DimensionMismatch(PfaffredError):
    """Matrix dimensions incompatible with the requested operation."""


class SingularMatrix(PfaffredError):
    """A constant matrix over Q has no inverse (qlinalg.inverse)."""


class TruncationExhausted(PfaffredError):
    """A verdict (zero test, pole normalization, division) cannot be
    certified within the guaranteed truncation window."""

    def __init__(self, message, window=None):
        super().__init__(message)
        self.window = window


class PreconditionViolated(PfaffredError):
    """An operation was called outside its stated domain."""


class IntegrabilityViolation(PfaffredError):
    """A structural null block guaranteed by integrability failed to
    vanish within the certification window (corrupted or non-integrable
    input)."""

    def __init__(self, message, window=None):
        super().__init__(message)
        self.window = window


class NotSplittable(PfaffredError):
    """Leading matrix has no coprime characteristic-polynomial
    factorization over Q, so no block decoupling is possible."""


class AlgebraicExtensionRequired(PfaffredError):
    """A computation needs an irrational eigenvalue.  ``factor`` holds the
    blocking irreducible factor as a coefficient list (low to high)."""

    def __init__(self, message, factor=None):
        super().__init__(message)
        self.factor = factor


class JointResonance(PfaffredError):
    """The regular solve met monomials resonant with respect to both
    axes; ``retained`` lists (i, j, entry, value) monomial data that stay
    in the normal form."""

    def __init__(self, message, retained=None):
        super().__init__(message)
        self.retained = retained or []


class ParseError(PfaffredError):
    """System document malformed.  ``field`` names the offending entry."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class InvariantViolation(PfaffredError):
    """A domain-type invariant failed (e.g. zero leading series with a
    positive pole order, or a gauge result outside normal crossings)."""


class ReductionError(PfaffredError):
    """The reduction machinery could not certify a postcondition.  Always
    a bug or an input outside the certified domain; never silent."""
