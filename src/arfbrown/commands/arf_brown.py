"""`arfbrown arf-brown`: the Arf-Brown exponent, the Gauss sum and the Arf
invariant of each enhanced surface of the input."""

from __future__ import annotations

from typing import Sequence

from ..cli import Emitter, parse_files
from . import check_cap
from .enhanced import attach_enhancements, render_root

__all__ = ["cmd_arf_brown"]


def cmd_arf_brown(
    paths: Sequence[str],
    inline_specs: Sequence[str],
    cap_dim: int,
    emitter: Emitter,
) -> int:
    from ..quadform import arf, arf_brown, gauss_sum_of_root

    for surf, q, values in attach_enhancements(parse_files(paths), inline_specs):
        check_cap("form dimension", q.dim, cap_dim, "--cap-dim")
        exponent = arf_brown(q)
        total = gauss_sum_of_root(exponent, q.dim)
        arf_value = arf(q) if q.is_even_valued() else None
        record = {
            "record": "arf-brown",
            "surface": surf.name,
            "values": {k: v % 4 for k, v in values.items()},
            "dim": q.dim,
            "exponent": exponent,
            "gauss_sum": list(total),
            "arf": arf_value,
        }
        emitter.emit(record, lambda: [
            f"arf-brown {surf.name} with q:"
            f" {' '.join(f'{k}={v % 4}' for k, v in values.items()) or '(empty)'}",
            f"  exponent {exponent}: value {render_root(exponent)}",
            f"  gauss sum {_render_cyc8(total)} (coefficients {list(total)})",
            "  arf invariant: undefined (odd values present)"
            if arf_value is None
            else f"  arf invariant {arf_value}",
        ])
    return 0


def _render_cyc8(coefficients: Sequence[int]) -> str:
    parts = []
    for power, coeff in enumerate(coefficients):
        if coeff == 0:
            continue
        unit = "" if power == 0 else ("ζ₈" if power == 1 else f"ζ₈^{power}")
        if unit and coeff == 1:
            parts.append(unit)
        elif unit and coeff == -1:
            parts.append(f"-{unit}")
        elif unit:
            parts.append(f"{coeff}{unit}")
        else:
            parts.append(str(coeff))
    if not parts:
        return "0"
    text = parts[0]
    for part in parts[1:]:
        text += part if part.startswith("-") else f"+{part}"
    return text
