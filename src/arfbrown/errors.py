"""Exceptions shared across modules."""

from __future__ import annotations

__all__ = ["CapExceeded"]


class CapExceeded(ValueError):
    """An input exceeds a configured size cap (chain vertices, form dimension)."""
