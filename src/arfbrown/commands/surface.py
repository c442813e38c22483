"""`arfbrown surface`: classify each gluing word of the input."""

from __future__ import annotations

from typing import Sequence

from ..cli import Emitter, JSONText, SurfaceStmt, parse_files

__all__ = ["cmd_surface"]


def cmd_surface(paths: Sequence[str], emitter: Emitter) -> int:
    from ..f2 import json_rows
    from ..surface import classify

    for stmt in parse_files(paths):
        if not isinstance(stmt, SurfaceStmt):
            continue
        info, normal, form = classify(stmt.scheme)
        record = {
            "record": "surface",
            "name": stmt.name,
            "word": stmt.scheme.text(),
            "euler_char": info.euler_char,
            "orientable": info.orientable,
            "betti1": info.betti1_mod2,
            "vertex_count": info.vertex_count,
            "normal_form": normal.text(),
            "form_basis": list(form.basis_labels),
            "gram": JSONText(json_rows(form.rows, form.dim)),
        }
        emitter.emit(record, lambda: [
            f"surface {stmt.name}: {record['word']}",
            f"  euler characteristic {info.euler_char},"
            f" {'orientable' if info.orientable else 'non-orientable'},"
            f" {info.vertex_count} vertex(es), b1 = {info.betti1_mod2}",
            f"  normal form: {record['normal_form']}",
            f"  intersection form on {record['form_basis']}:"
            f" {[[r >> j & 1 for j in range(form.dim)] for r in form.rows]}",
        ])
    return 0
