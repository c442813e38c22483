"""The commands of the command line, one module each.

`arfbrown.cli` imports a command's module when that command runs, so a
start compiles no command body and a run compiles only its own: `surface`,
`arf_brown`, `majorana`, `tqft` and `selftest`, and `enhanced`, which
pairs enhancements with their surfaces for `arf-brown` and `tqft`.  A
body imports the library names it calls when it runs, so a name replaced
on its library module (by a test, or by the benchmark's tracer) is the
one it calls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import CapExceeded

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["check_cap", "enc_fraction"]


def check_cap(what: str, size: int, cap: int, flag: str) -> None:
    """--cap-n and --cap-dim bound the input's size; the library has no cap."""
    if size > cap:
        raise CapExceeded(f"{what} {size} exceeds the cap of {cap} ({flag})")


def enc_fraction(f: Fraction) -> list[int]:
    """A rational as its structured encoding, [numerator, denominator]."""
    return [f.numerator, f.denominator]
