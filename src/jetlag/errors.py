"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that tests and the CLI can distinguish them without string matching.
"""


class JetlagError(Exception):
    """Base class for all package-specific errors.

    ``witness`` is the sample point the error was raised at, where the
    raiser or a caller that evaluated the point knows it, else None.
    """

    witness = None


class ContractMismatchError(JetlagError):
    """Contraction requested over axes with incompatible family or variance."""


class RaiseLowerMismatchError(JetlagError):
    """Raise/lower requested with a metric of the wrong family or variance."""


class SingularMetricError(JetlagError):
    """A matrix that must be inverted is singular or too ill-conditioned."""

    def __init__(self, message, determinant=None, condition=None):
        super().__init__(message)
        self.determinant = determinant
        self.condition = condition


class OrderExceededError(JetlagError):
    """A derivative of higher order than the configured budget was requested."""


class DerivativeDomainError(JetlagError):
    """Math domain violation inside derivative arithmetic (no source position)."""


class EvalDomainError(JetlagError):
    """Math domain violation while evaluating a field expression.

    Carries the character offset of the AST node that failed.
    """

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class ParseError(JetlagError):
    """Syntax or bounds error in a field expression.

    ``offset`` is the byte offset where the longest valid prefix ends,
    ``expected`` describes the token class the parser wanted, and
    ``excerpt`` quotes the offending line.
    """

    def __init__(self, message, offset, expected=None, excerpt=None):
        super().__init__(message)
        self.offset = offset
        self.expected = expected
        self.excerpt = excerpt


class FieldValidationError(JetlagError):
    """A field references coordinates outside its declared dependency set."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class RegularityViolationError(JetlagError):
    """A structural assumption on a metric failed (symmetry, signature,
    direction independence, or Kronecker decomposability)."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class TorsionPreconditionError(JetlagError):
    """The spatial nonlinear connection is not torsion free where required."""

    def __init__(self, message, witness=None, value=None):
        super().__init__(message)
        self.witness = witness
        self.value = value


class FieldDomainError(JetlagError):
    """A model field left its admissible range (e.g. refraction index < 1)."""

    def __init__(self, message, witness=None, value=None):
        super().__init__(message)
        self.witness = witness
        self.value = value


class NaturalFormUnavailableError(JetlagError):
    """The trace-adjusted stress-energy form needs p > 2 and n > 2."""


class VacuumConstantError(JetlagError):
    """Stress-energy extraction attempted with a zero gravitational constant."""


class ConfigError(JetlagError):
    """A run configuration failed validation.

    ``location`` is a '/'-joined path into the JSON document.
    """

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


# errors a point's fields raise without naming the point; whoever evaluated
# the point sets their witness, through name_witness
POINT_ERRORS = (SingularMetricError, EvalDomainError, DerivativeDomainError)


def name_witness(exc: JetlagError, pt) -> JetlagError:
    """Name ``pt``, the point being evaluated when ``exc`` was raised, as
    the witness of a point error that names none; returns ``exc``."""
    if exc.witness is None and isinstance(exc, POINT_ERRORS):
        exc.witness = pt
    return exc
