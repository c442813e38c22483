"""`arfbrown majorana`: the exact chain spectrum and ground space of each
decorated circle and interval of the input, against the expected ones."""

from __future__ import annotations

from typing import Sequence

from ..cli import ComponentStmt, Emitter, parse_files
from . import check_cap, enc_fraction

__all__ = ["cmd_majorana"]


def cmd_majorana(paths: Sequence[str], cap_n: int, emitter: Emitter) -> int:
    from .. import majorana, pin1, tqft

    for stmt in parse_files(paths):
        if not isinstance(stmt, ComponentStmt):
            continue
        if stmt.kind == "circle":
            setup = majorana.ChainSetup.circle(stmt.bits, stmt.orientation)
            cls = pin1.classify_circle(setup.component)
        else:
            setup = majorana.ChainSetup.interval(stmt.bits, stmt.orientation)
            cls = None
        circle_class = None if cls is None else cls.value
        want_dim, want_parity = tqft.expected_ground(cls)
        check_cap("vertex count", setup.vertex_count, cap_n, "--cap-n")
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
            "min_eigenvalue": enc_fraction(report.min_eigenvalue),
            "ground_dimension": report.ground_dimension,
            "ground_parity": report.ground_parity,
            "spectrum": [
                [enc_fraction(value), mult] for value, mult in report.spectrum
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
            + ", ".join(f"{value} x{mult}" for value, mult in report.spectrum),
            f"  expected dimension {want_dim}, parity {want_parity}: {verdict}",
        ])
    return 0
