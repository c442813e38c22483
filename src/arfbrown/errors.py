"""Exceptions shared across modules; a reported one carries its `exit_code`."""

from __future__ import annotations

__all__ = [
    "CapExceeded",
    "DimensionMismatch",
    "NotSpin",
    "ParityViolation",
    "HasBoundary",
    "CertificateError",
]


class CapExceeded(ValueError):
    """An input exceeds a configured size cap (chain vertices, form dimension)."""

    exit_code = 4


class DimensionMismatch(ValueError):
    """A vector's length differs from the form's dimension."""

    exit_code = 3


class NotSpin(ValueError):
    """The enhancement takes an odd value, so it is not even-valued."""

    exit_code = 3


class ParityViolation(ValueError):
    """A basis value disagrees mod 2 with the form's diagonal."""

    exit_code = 3


class HasBoundary(ValueError):
    """A closed-manifold operation was given interval components."""

    exit_code = 3


class CertificateError(ArithmeticError):
    """A runtime certificate failed, so the exact result is not trusted."""

    exit_code = 5
