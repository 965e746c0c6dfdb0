"""The two kinds of error this package raises, as the command line maps them."""


class MixRateError(Exception):
    """Base class for all errors raised by this package."""


class InputError(MixRateError):
    """Input from outside the program was refused (exit 1)."""


class Fault(MixRateError):
    """A computed value failed a check, LAPACK failed, or a theorem bound
    was broken (exit 2)."""


class BoundViolation(Fault):
    """A computed rate exceeded a proven theorem bound."""
