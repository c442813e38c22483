"""Enhanced surfaces, read by `arf-brown` and `tqft`: each enhancement
paired with its surface and built on that surface's form."""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..cli import (
    EnhanceStmt,
    ParseError,
    PreconditionError,
    SurfaceStmt,
    TokenError,
    parse_enhance_payload,
)
from ..errors import ParityViolation

if TYPE_CHECKING:
    from ..quadform import Enhancement
    from ..surface import IntersectionForm

__all__ = ["attach_enhancements", "render_root"]


def attach_enhancements(
    statements: list, inline_specs: Sequence[str] | None
) -> list[tuple[SurfaceStmt, Enhancement, dict[str, int]]]:
    """Pair each enhancement with its surface and build it on the form; a
    command without --enhance (inline_specs None) may be given no surface."""
    from .. import quadform, surface

    surfaces: dict[str, SurfaceStmt] = {}
    pairs: list[tuple[SurfaceStmt, EnhanceStmt]] = []
    for stmt in statements:
        if isinstance(stmt, SurfaceStmt):
            first = surfaces.setdefault(stmt.name, stmt)
            if first is not stmt:
                raise ParseError(
                    f"surface {stmt.name!r} is already defined at"
                    f" {first.path}:{first.line}",
                    stmt.path,
                    stmt.line,
                )
        elif isinstance(stmt, EnhanceStmt):
            if stmt.name not in surfaces:
                raise ParseError(
                    f"enhance names unknown surface {stmt.name!r}",
                    stmt.path,
                    stmt.line,
                )
            pairs.append((surfaces[stmt.name], stmt))
    for spec in inline_specs or ():
        if len(surfaces) != 1:
            raise ParseError(
                "--enhance needs exactly one surface in the input files",
                "<enhance>",
                1,
            )
        (surf,) = surfaces.values()
        try:
            values = parse_enhance_payload(spec.split(), 0)
        except TokenError as exc:
            raise exc.at(spec, "<enhance>", 1) from exc
        pairs.append((surf, EnhanceStmt(surf.name, values, "<enhance>", 1)))
    if not pairs and (surfaces or inline_specs is not None):
        raise PreconditionError(
            "no enhancements given; add enhance lines"
            + ("" if inline_specs is None else " or --enhance")
        )
    forms: dict[str, IntersectionForm] = {}  # one per surface, not per line
    out = []
    for surf, enh in pairs:
        if surf.name not in forms:
            forms[surf.name] = surface.surface_form(surf.scheme)
        values = dict(enh.values)
        try:
            q = quadform.Enhancement(forms[surf.name], values)
        except ParityViolation:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), enh.path, enh.line) from exc
        out.append((surf, q, values))
    return out


_SURD = ("1", "(1+i)/√2", "i", "(-1+i)/√2", "-1", "(-1-i)/√2", "-i", "(1-i)/√2")


def render_root(exponent: int) -> str:
    return f"ζ₈^{exponent} = {_SURD[exponent % 8]}"
