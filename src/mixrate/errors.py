"""Exception hierarchy shared by all mixrate modules."""


class MixRateError(Exception):
    """Base class for all errors raised by this package."""


class NonHermitian(MixRateError):
    """Input matrix is not Hermitian within tolerance."""


class NoConvergence(MixRateError):
    """Eigensolver failed to converge."""


class DomainError(MixRateError):
    """Scalar or spectral input outside the domain of the requested function."""


class DimMismatch(MixRateError):
    """Operands have incompatible dimensions."""


class BadDistribution(MixRateError):
    """Probability vector is not a valid distribution."""


class ParseError(MixRateError):
    """Serialized object is malformed."""


class InvariantViolation(MixRateError):
    """A validated type's invariant failed.

    `index` identifies the offending ensemble member (None for scalar-level
    violations), `which` names the violated invariant.
    """

    def __init__(self, which, index=None):
        self.which = which
        self.index = index
        where = "" if index is None else f" (member {index})"
        super().__init__(f"invariant violated: {which}{where}")


class NotBinary(MixRateError):
    """Operation requires an ensemble of exactly two members."""


class DegenerateState(MixRateError):
    """A member's support leaks outside the support of the expected state."""


class RankDeficient(MixRateError):
    """Expected state too close to singular for a finite-difference probe."""


class DimOrder(MixRateError):
    """Reduction requires dim(B) <= dim(A)."""


class Degenerate(MixRateError):
    """Reduction undefined at dim(B) = 1."""


class PositivityViolation(MixRateError):
    """A matrix guaranteed positive semi-definite came out negative."""


class IdentityViolation(MixRateError):
    """A result broke an exact identity (imaginary rate, failed reconstruction)."""


class BoundViolation(MixRateError):
    """A computed rate exceeded a proven theorem bound."""
