"""Exception types shared across the package."""


class TancertError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TancertError):
    """An argument lies outside the domain an operation is rigorous on."""


class OrderMismatch(TancertError):
    """A coefficient that should vanish exactly at an endpoint does not."""


class NotPositive(TancertError):
    """A normalized endpoint quotient could not be bounded away from 0."""


class Falsified(NotPositive):
    """A normalized endpoint quotient is certainly negative: F < 0 there."""


class NoSignChange(TancertError):
    """A root bracket could not be sign-certified at its endpoints."""


class IdentityViolation(TancertError):
    """An exact identity of the paper's proof failed: a shifted closed form
    or a U_n disagrees, or the numerator of lhs - rhs keeps nonzero terms
    modulo cos^2 + sin^2 - 1."""
