"""Exceptions shared across modules; the command line maps each to its exit."""

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


class DimensionMismatch(ValueError):
    """A vector's length differs from the form's dimension."""


class NotSpin(ValueError):
    """The enhancement takes an odd value, so it is not even-valued."""


class ParityViolation(ValueError):
    """A basis value disagrees mod 2 with the form's diagonal."""


class HasBoundary(ValueError):
    """A closed-manifold operation was given interval components."""


class CertificateError(ArithmeticError):
    """A runtime certificate failed, so the exact result is not trusted."""
