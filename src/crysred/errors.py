"""Exception types raised by the reduction pipeline.

Every stage failure maps onto one of these so the CLI can translate them
into stable exit codes.
"""


class CrysredError(Exception):
    """Base class for all package errors."""


class ConfigError(CrysredError):
    """Malformed or inconsistent job configuration."""


class NotAUnit(CrysredError):
    """Inversion attempted on a non-unit."""


class NotIntegral(CrysredError):
    """An element asserted to be integral has a genuine denominator."""


class PrecisionExhausted(CrysredError):
    """The working precision cannot decide the requested question."""


class IrregularWeights(CrysredError):
    """A labeled weight pair collapses to (0, 0) after normalization."""


class Degenerate(CrysredError):
    """Matrix data violates an invertibility precondition."""


class GateFailed(CrysredError):
    """The valuation gate for the large-valuation pipeline failed."""

    def __init__(self, msg, diagnostics=None):
        super().__init__(msg)
        self.diagnostics = diagnostics or []


class SplitFailed(CrysredError):
    """An entry passed neither integrality nor ideal membership."""


class AssumptionViolated(CrysredError):
    """A descent assumption clause failed re-validation."""

    def __init__(self, clause, msg):
        super().__init__(f"clause ({clause}): {msg}")
        self.clause = clause


class NoConvergence(CrysredError):
    """An iteration stalled: the descent before reaching its target depth,
    or a Newton inversion before reaching its precision."""


class HeightMismatch(CrysredError):
    """det(A) is not E^h times a unit, so no height-h partner exists."""


class DetCheckFailed(CrysredError):
    """A built-in exact self-check failed; indicates an arithmetic bug."""


class NonMonomial(CrysredError):
    """A reduced Frobenius matrix is not monomial-up-to-unit."""
