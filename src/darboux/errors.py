"""Exception hierarchy shared by all darboux modules.

Everything raised on bad geometry or bad input derives from DarbouxError so
front ends can separate domain failures (exit code 2) from genuine bugs.
"""

import functools

# What Python float arithmetic and the math module raise where numpy would
# return inf or nan: OverflowError and ZeroDivisionError (ArithmeticError),
# and the ValueError of an argument outside a math function's domain.
ARITHMETIC_ERRORS = (ArithmeticError, ValueError)


class DarbouxError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(DarbouxError):
    """Malformed expression source; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalDomainError(DarbouxError):
    """Evaluation left the real domain (ln of nonpositive, sqrt of negative,
    division by zero, ...); carries the offending subexpression."""

    def __init__(self, message, subexpression):
        super().__init__(f"{message} in '{subexpression}'")
        self.subexpression = subexpression


class OutOfDomainError(DarbouxError):
    """Chart parameters outside the surface's domain rectangle."""


class RegularityError(DarbouxError):
    """Surface regularity lost: chart cross product or gradient below eps_reg."""


class ProjectionError(DarbouxError):
    """Newton projection onto an implicit surface failed to converge."""


class VanishingSpeedError(DarbouxError):
    """Curve speed fell below tolerance during reparametrization."""


class ArclengthTableError(DarbouxError):
    """The arclength table does not settle: adaptive Simpson keeps splitting
    on an interval where every speed is finite, as near a pole of the path."""


class FrenetUndefinedError(DarbouxError):
    """Frenet frame undefined: curvature at most EPS_KAPPA (straight segment)."""


class DegenerateFrameError(DarbouxError):
    """A characterization's nondegeneracy hypothesis failed on the whole grid
    (e.g. geodesic curvature and geodesic torsion both vanish)."""


class InsufficientSamplesError(DarbouxError):
    """Too few unmasked samples for a statistical verdict."""


class SingularPointError(DarbouxError):
    """Singular point of the isophote direction field: no isophotic curve
    exists with the given axis and angle here."""


class SeedError(DarbouxError):
    """Seed-finding failed or a supplied seed is not on the isophote level."""


class NumericalError(DarbouxError):
    """Float arithmetic failed: an overflow, a division by zero or an
    argument outside a math function's domain, as on surfaces scaled near
    the ends of the float range."""

    @classmethod
    def of(cls, exc: Exception) -> "NumericalError":
        # OverflowError carries (errno, message): keep the message
        detail = exc.args[-1] if exc.args else type(exc).__name__
        return cls(f"float arithmetic failed: {detail}")


def numerical(fn):
    """fn, raising NumericalError where float arithmetic fails in it."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ARITHMETIC_ERRORS as exc:
            raise NumericalError.of(exc) from exc

    return checked
