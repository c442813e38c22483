"""`arfbrown surface`: classify each gluing word of the input, writing its
Gram matrix as JSON text straight from the form's row masks (`json_rows`)."""

from __future__ import annotations

from typing import Sequence

from ..cli import Emitter, JSONText, SurfaceStmt, parse_files

__all__ = ["cmd_surface", "json_rows"]


def cmd_surface(paths: Sequence[str], emitter: Emitter) -> int:
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


def json_rows(masks: Sequence[int], n: int) -> str:
    """The rows as compact JSON text of 0/1 lists, bit 0 first: the text of
    ``json.dumps(rows, separators=(",", ":"))``.  Only bits below n count."""
    if not n or not masks:
        return "[" + ",".join(["[]"] * len(masks)) + "]"
    # each row takes 2n + 2 bytes, "[d,d,...,d],", whose odd offsets hold
    # its n digits and the closing comma, so one slice assignment writes
    # every row; a numeral's last n digits read backwards are bits 0 to
    # n - 1, and the bit at n keeps the leading zeros
    text = bytearray(b"[" + b"0," * (n - 1) + b"0],") * len(masks)
    top = 1 << n
    text[1::2] = (",".join([bin(m | top)[:~n:-1] for m in masks]) + ",").encode()
    text[-1] = ord("]")
    return "[" + text.decode()
