"""`arfbrown tqft`: the values of one theory of the Z/8 family on the
points, circles and enhanced surfaces of the input."""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Sequence

from ..cli import (
    ComponentStmt,
    Emitter,
    PointStmt,
    TokenError,
    parse_files,
)
from ..errors import HasBoundary
from . import check_cap, enc_fraction
from .enhanced import attach_enhancements, render_root

if TYPE_CHECKING:
    from ..clifford import GaussianRational
    from ..tqft import TheoryClass

__all__ = ["cmd_tqft", "parse_theory"]

# Fraction("1e600") builds 10**600 first, so a decimal exponent of a theory
# literal is checked against this bound before any Fraction is built
MAX_LITERAL_EXPONENT = 4300
# a decimal exponent, in any decimal digits (\d, as Fraction reads them)
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)")


def cmd_tqft(
    theory_text: str,
    paths: Sequence[str],
    cap_dim: int,
    emitter: Emitter,
) -> int:
    from .. import pin1, tqft

    theory = parse_theory(theory_text)
    statements = parse_files(paths)
    enhanced = attach_enhancements(statements, None)
    record = {
        "record": "theory",
        "ab_power": theory.ab_power,
        "euler_weight": _enc_gaussian(theory.euler_weight),
        "stable": tqft.is_stable(theory),
    }
    emitter.emit(record, lambda: [
        f"theory: ab_power {theory.ab_power},"
        f" euler weight {_render_gaussian(theory.euler_weight)}"
        f" ({'stable' if record['stable'] else 'unstable'})"
    ])
    total = None
    for stmt in statements:
        if isinstance(stmt, PointStmt):
            k = len(tqft.evaluate_point(theory))
            emitter.emit(
                {
                    "record": "point",
                    "name": stmt.name,
                    "algebra_generators": k,
                },
                lambda: [f"point {stmt.name}: Clifford algebra on {k} generator(s)"],
            )
        elif isinstance(stmt, ComponentStmt):
            if stmt.kind == "interval":
                raise HasBoundary(
                    "tqft evaluates closed manifolds; remove interval"
                    f" {stmt.name!r}"
                )
            cls = pin1.classify_circle(pin1.ChainSetup.circle(stmt.bits))
            parity = tqft.evaluate_circle(theory, cls)
            emitter.emit(
                {
                    "record": "circle",
                    "name": stmt.name,
                    "class": cls,
                    "parity": parity,
                },
                lambda: [f"circle {stmt.name}: {cls}, {parity} line"],
            )
    for surf, q, values in enhanced:
        check_cap("form dimension", q.dim, cap_dim, "--cap-dim")
        value = tqft.partition_function(theory, [q])
        total = value if total is None else total * value
        emitter.emit(
            {
                "record": "partition",
                "name": surf.name,
                "exponent": value.exponent,
                "euler_factor": _enc_gaussian(value.euler_factor),
            },
            lambda: [
                f"surface {surf.name}: {render_root(value.exponent)},"
                f" euler factor {_render_gaussian(value.euler_factor)}"
            ],
        )
    if total is not None:
        emitter.emit(
            {
                "record": "total",
                "surfaces": len(enhanced),
                "exponent": total.exponent,
                "euler_factor": _enc_gaussian(total.euler_factor),
            },
            lambda: [
                f"total over {len(enhanced)} surface(s):"
                f" {render_root(total.exponent)},"
                f" euler factor {_render_gaussian(total.euler_factor)}"
            ],
        )
    return 0


def parse_theory(text: str) -> TheoryClass:
    """`ab=<0..7> [euler=<rational or Gaussian rational>]`."""
    from ..tqft import TheoryClass

    ab = None
    euler: GaussianRational | int = 1
    euler_at = None
    seen = set()
    try:
        for k, tok in enumerate(text.split()):
            key, eq, raw = tok.partition("=")
            if eq and key in seen:
                raise TokenError(f"theory field {key!r} assigned twice", k)
            seen.add(key)
            if key == "ab" and eq:
                try:
                    ab = int(raw)
                except ValueError:
                    raise TokenError(f"bad integer {raw!r}", k) from None
                if not 0 <= ab <= 7:
                    raise TokenError("ab must lie in 0..7", k)
            elif key == "euler" and eq:
                try:
                    euler = _parse_gaussian(raw)
                except OverflowError as exc:
                    raise TokenError(f"{exc} in {raw!r}", k) from None
                except (ValueError, ZeroDivisionError):
                    raise TokenError(f"bad Gaussian rational {raw!r}", k) from None
                euler_at = k
            else:
                raise TokenError(f"unknown theory field {tok!r}", k)
        if ab is None:
            raise TokenError("theory needs ab=<0..7>", None)
        try:
            return TheoryClass(ab, euler)
        except ValueError as exc:
            raise TokenError(str(exc), euler_at) from exc
    except TokenError as exc:
        raise exc.at(text, "<theory>", 1) from exc


def _parse_gaussian(text: str) -> GaussianRational:
    """Literals like 2, -1/2, i, -i, 3i, 1+i, -1/2-3/4i, 2+1e-3i."""
    from fractions import Fraction

    from ..clifford import GaussianRational

    for exponent in _EXPONENT.findall(text):
        if abs(int(exponent)) > MAX_LITERAL_EXPONENT:
            raise OverflowError(
                f"decimal exponent {exponent} is beyond ±{MAX_LITERAL_EXPONENT}"
            )
    if text.endswith("i"):
        body = text[:-1]
        re_part, im_part = "0", body
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/eE":
                re_part, im_part = body[:k], body[k:]
                break
        if im_part in ("", "+", "-"):
            im_part += "1"
        return GaussianRational(Fraction(re_part), Fraction(im_part))
    return GaussianRational(Fraction(text))


def _enc_gaussian(g: GaussianRational) -> dict:
    return {"re": enc_fraction(g.re), "im": enc_fraction(g.im)}


def _render_gaussian(g: GaussianRational) -> str:
    if g.im == 0:
        return str(g.re)
    if g.im == 1:
        im = "i"
    elif g.im == -1:
        im = "-i"
    else:
        im = f"{g.im}i"
    if g.re == 0:
        return im
    sign = "+" if g.im > 0 else ""
    return f"{g.re}{sign}{im}"
