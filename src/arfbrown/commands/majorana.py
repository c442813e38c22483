"""`arfbrown majorana`: the exact chain spectrum and ground space of each
decorated circle and interval of the input, against the expected ones."""

from __future__ import annotations

from typing import Sequence

from ..cli import ComponentStmt, Emitter, parse_files
from . import check_cap

__all__ = ["cmd_majorana"]


def cmd_majorana(paths: Sequence[str], cap_n: int, emitter: Emitter) -> int:
    from .. import majorana, pin1, tqft

    chains = [
        (stmt, pin1.ChainSetup(stmt.bits, stmt.kind == "circle", stmt.orientation))
        for stmt in parse_files(paths)
        if isinstance(stmt, ComponentStmt)
    ]
    for _, setup in chains:
        check_cap("vertex count", setup.vertex_count, cap_n, "--cap-n")
    for stmt, setup in chains:
        circle_class = pin1.classify_circle(setup) if setup.is_circle else None
        want_dim, want_parity = tqft.expected_ground(circle_class)
        report = majorana.ground_states(setup)
        got = report.ground_dimension, report.ground_parity
        verdict = "ok" if got == (want_dim, want_parity) else "mismatch"
        record = {
            "record": "majorana",
            "name": stmt.name,
            "kind": stmt.kind,
            "bits": list(stmt.bits),
            "orientation": "+" if stmt.orientation == 1 else "-",
            "circle_class": circle_class,
            "min_eigenvalue": _enc_half(-report.edge_count),
            "ground_dimension": report.ground_dimension,
            "ground_parity": report.ground_parity,
            "spectrum": [
                [_enc_half(lam), mult] for lam, mult in report.doubled_spectrum()
            ],
            "expected_dimension": want_dim,
            "expected_parity": want_parity,
            "verdict": verdict,
        }
        emitter.emit(record, lambda: [
            f"majorana {stmt.name} ({stmt.kind},"
            f" bits {' '.join(str(b) for b in stmt.bits)},"
            f" orientation {record['orientation']})"
            + ("" if circle_class is None else f": {circle_class}"),
            f"  ground: dimension {report.ground_dimension},"
            f" parity {report.ground_parity},"
            f" min eigenvalue {report.min_eigenvalue}",
            "  spectrum: "
            + ", ".join(f"{value} x{mult}" for value, mult in report.spectrum()),
            f"  expected dimension {want_dim}, parity {want_parity}: {verdict}",
        ])
    return 0


def _enc_half(lam: int) -> list[int]:
    """lam / 2 as the structured encoding of a rational, [numerator,
    denominator] in lowest terms."""
    return [lam, 2] if lam & 1 else [lam >> 1, 1]
