"""Command-line front end.

Commands: surface, arf-brown, majorana, tqft, selftest.  Input files hold
one statement per line (blank lines and # comments allowed):

    surface <name>: a b a' b'
    enhance <name>: a=1 b=3
    circle <name>: 0 1 0 [orientation=+|-]
    interval <name>: 1 0 [orientation=+|-]
    point <name>

An enhance line attaches Z/4 values to the named surface's intersection
form basis.  Structured output is one JSON record per line with exact
number encodings only: integers, [numerator, denominator] pairs for
rationals, {re, im} pairs for Gaussian rationals, and 4-tuples of integers
for elements of Z[zeta8].  Exit codes: 0 success, 1 failing selftest,
2 parse error, 3 precondition violation, 4 cap exceeded, 5 failed runtime
certificate.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from .errors import (
    CapExceeded,
    CertificateError,
    DimensionMismatch,
    HasBoundary,
    NotSpin,
    ParityViolation,
)

if TYPE_CHECKING:  # each command imports the modules it runs
    from fractions import Fraction

    from .clifford import GaussianRational
    from .quadform import Enhancement
    from .surface import GluingScheme
    from .tqft import TheoryClass

__all__ = ["main", "ParseError", "PreconditionError", "MAX_LITERAL_EXPONENT"]


class ParseError(Exception):
    """Bad input text, reported with file, line, and column."""

    def __init__(self, message: str, path: str, line: int, col: int = 1):
        super().__init__(f"{path}:{line}:{col}: {message}")
        self.path = path
        self.line = line
        self.col = col


class PreconditionError(ValueError):
    """Structurally valid input that a command cannot evaluate."""


# a surface payload, its tokens joined by single spaces (or one token)
_WORD = re.compile(r"(?:[A-Za-z][A-Za-z0-9]*'?(?: |\Z))*")
_NAME_TOKEN = re.compile(r"[A-Za-z0-9_.-]+$")
# Fraction("1e600") builds 10**600 first, so a decimal exponent is checked
# against this bound before any Fraction is built
MAX_LITERAL_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)")


class SurfaceStmt(NamedTuple):
    name: str
    scheme: GluingScheme
    path: str
    line: int


class EnhanceStmt(NamedTuple):
    name: str
    values: tuple[tuple[str, int], ...]
    path: str
    line: int


class ComponentStmt(NamedTuple):
    name: str
    kind: str
    bits: tuple[int, ...]
    orientation: int
    path: str
    line: int


class PointStmt(NamedTuple):
    name: str
    path: str
    line: int


class _TokenError(Exception):
    """A statement error at the index-th token of its line (None: the line);
    the column is worked out only for the report."""

    def at(self, line: str, path: str, lineno: int) -> ParseError:
        message, index = self.args
        starts = [m.start() + 1 for m in re.finditer(r"\S+", line)]
        col = 1 if index is None else starts[index]
        return ParseError(message, path, lineno, col)


def _parse_name(words: list[str]) -> str:
    if len(words) < 2:
        raise _TokenError("missing name", 0)
    name = words[1]
    if not name.endswith(":"):
        raise _TokenError("expected '<name>:' after the directive", 1)
    name = name[:-1]
    if not _NAME_TOKEN.match(name):
        raise _TokenError(f"bad name {name!r}", 1)
    return name


def _parse_surface_payload(words: list[str]) -> GluingScheme:
    from .surface import GluingScheme, MalformedWord

    letters = words[2:]
    if not _WORD.fullmatch(" ".join(letters)):
        k = next(k for k, tok in enumerate(letters) if not _WORD.fullmatch(tok))
        raise _TokenError(f"bad letter token {letters[k]!r}", k + 2)
    if not letters:
        raise _TokenError("surface word is empty", None)
    try:
        return GluingScheme(
            [(tok[:-1], -1) if tok[-1] == "'" else (tok, 1) for tok in letters]
        )
    except MalformedWord as exc:
        raise _TokenError(str(exc), None) from exc


def _parse_enhance_payload(
    words: list[str], start: int
) -> tuple[tuple[str, int], ...]:
    values = []
    seen = set()
    for k in range(start, len(words)):
        label, eq, raw = words[k].partition("=")
        if not eq or not label or not raw:
            raise _TokenError(f"expected label=value, got {words[k]!r}", k)
        if label in seen:
            raise _TokenError(f"label {label!r} assigned twice", k)
        seen.add(label)
        try:
            values.append((label, int(raw)))
        except ValueError:
            raise _TokenError(f"bad integer {raw!r}", k) from None
    return tuple(values)


def _parse_bits_payload(words: list[str]) -> tuple[tuple[int, ...], int]:
    bits = []
    orientation = 1
    for k in range(2, len(words)):
        tok = words[k]
        if tok.startswith("orientation="):
            if k != len(words) - 1:
                raise _TokenError("orientation flag must come last", k)
            flag = tok.split("=", 1)[1]
            if flag == "+":
                orientation = 1
            elif flag == "-":
                orientation = -1
            else:
                raise _TokenError(f"orientation must be + or -, got {flag!r}", k)
        elif tok in ("0", "1"):
            bits.append(int(tok))
        else:
            raise _TokenError(f"expected edge bit 0 or 1, got {tok!r}", k)
    if not bits:
        raise _TokenError("component needs at least one edge bit", None)
    return tuple(bits), orientation


def parse_file(path: str) -> list:
    """All statements in a file, in order."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc.strerror}", path, 0) from exc
    statements = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        words = line.split()
        if not words:
            continue
        directive = words[0]
        try:
            if directive == "surface":
                name = _parse_name(words)
                scheme = _parse_surface_payload(words)
                statements.append(SurfaceStmt(name, scheme, path, lineno))
            elif directive == "enhance":
                name = _parse_name(words)
                values = _parse_enhance_payload(words, 2)
                statements.append(EnhanceStmt(name, values, path, lineno))
            elif directive in ("circle", "interval"):
                name = _parse_name(words)
                bits, orientation = _parse_bits_payload(words)
                statements.append(
                    ComponentStmt(name, directive, bits, orientation, path, lineno)
                )
            elif directive == "point":
                if len(words) != 2:
                    raise _TokenError("usage: point <name>", 0)
                if not _NAME_TOKEN.match(words[1]):
                    raise _TokenError(f"bad name {words[1]!r}", 1)
                statements.append(PointStmt(words[1], path, lineno))
            else:
                raise _TokenError(f"unknown directive {directive!r}", 0)
        except _TokenError as exc:
            raise exc.at(line, path, lineno) from exc
    return statements


def parse_theory(text: str) -> TheoryClass:
    """`ab=<0..7> [euler=<rational or Gaussian rational>]`."""
    from .tqft import TheoryClass

    ab = None
    euler: GaussianRational | int = 1
    euler_at = None
    seen = set()
    try:
        for k, tok in enumerate(text.split()):
            key, eq, raw = tok.partition("=")
            if eq and key in seen:
                raise _TokenError(f"theory field {key!r} assigned twice", k)
            seen.add(key)
            if key == "ab" and eq:
                try:
                    ab = int(raw)
                except ValueError:
                    raise _TokenError(f"bad integer {raw!r}", k) from None
                if not 0 <= ab <= 7:
                    raise _TokenError("ab must lie in 0..7", k)
            elif key == "euler" and eq:
                try:
                    euler = _parse_gaussian(raw)
                except OverflowError as exc:
                    raise _TokenError(f"{exc} in {raw!r}", k) from None
                except (ValueError, ZeroDivisionError):
                    raise _TokenError(f"bad Gaussian rational {raw!r}", k) from None
                euler_at = k
            else:
                raise _TokenError(f"unknown theory field {tok!r}", k)
        if ab is None:
            raise _TokenError("theory needs ab=<0..7>", None)
        try:
            return TheoryClass(ab, euler)
        except ValueError as exc:
            raise _TokenError(str(exc), euler_at) from exc
    except _TokenError as exc:
        raise exc.at(text, "<theory>", 1) from exc


def _parse_gaussian(text: str) -> GaussianRational:
    """Literals like 2, -1/2, i, -i, 3i, 1+i, -1/2-3/4i, 2+1e-3i."""
    from fractions import Fraction

    from .clifford import GaussianRational

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


def _enc_fraction(f: Fraction) -> list[int]:
    return [f.numerator, f.denominator]


def _enc_gaussian(g: GaussianRational) -> dict:
    return {"re": _enc_fraction(g.re), "im": _enc_fraction(g.im)}


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


_SURD = ("1", "(1+i)/√2", "i", "(-1+i)/√2", "-1", "(-1-i)/√2", "-i", "(1-i)/√2")


def _render_root(exponent: int) -> str:
    return f"ζ₈^{exponent} = {_SURD[exponent % 8]}"


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


class JSONText(str):
    """A record field that is JSON text already, written as it is."""


class Emitter:
    """Writes records as JSON lines or indented human text; `human` builds
    a record's text lines and is called in human mode only."""

    def __init__(self, fmt: str, stream=None):
        self.fmt = fmt
        self.stream = stream if stream is not None else sys.stdout

    def emit(self, record: dict, human: Callable[[], Sequence[str]]) -> None:
        # exact numbers may have more digits than str(int) allows by default;
        # parsing keeps that limit, since int(str) is quadratic in its length
        limit = _int_digit_limit(0)
        try:
            if self.fmt == "structured":
                # one dumps with NaN in each JSONText field's place: no float
                # reaches a record, so '"key":NaN' marks exactly that place
                texts = {k: v for k, v in record.items() if type(v) is JSONText}
                line = json.dumps(
                    {**record, **dict.fromkeys(texts, float("nan"))},
                    sort_keys=True,
                    separators=(",", ":"),
                )
                for key, text in texts.items():
                    line = line.replace(f'"{key}":NaN', f'"{key}":{text}', 1)
                print(line, file=self.stream)
            else:
                for line in human():
                    print(line, file=self.stream)
        finally:
            _int_digit_limit(limit)


def _int_digit_limit(limit: int) -> int:
    """Set Python's int-to-str digit limit (0 lifts it) and return the old
    one; Python releases without the limit have nothing to set."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return 0
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    return old


def _collect(paths: Iterable[str]) -> list:
    statements = []
    for path in paths:
        statements.extend(parse_file(path))
    return statements


def cmd_surface(paths: Sequence[str], emitter: Emitter) -> int:
    from .f2 import json_rows
    from .surface import classify

    for stmt in _collect(paths):
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


def _attach_enhancements(
    statements: list, inline_specs: Sequence[str] | None
) -> list[tuple[SurfaceStmt, Enhancement, dict[str, int]]]:
    """Pair each enhancement with its surface and build it on the form; a
    command without --enhance (inline_specs None) may be given no surface."""
    from . import quadform, surface

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
            values = _parse_enhance_payload(spec.split(), 0)
        except _TokenError as exc:
            raise exc.at(spec, "<enhance>", 1) from exc
        pairs.append((surf, EnhanceStmt(surf.name, values, "<enhance>", 1)))
    if not pairs and (surfaces or inline_specs is not None):
        raise PreconditionError(
            "no enhancements given; add enhance lines"
            + ("" if inline_specs is None else " or --enhance")
        )
    out = []
    for surf, enh in pairs:
        values = dict(enh.values)
        try:
            q = quadform.Enhancement(surface.surface_form(surf.scheme), values)
        except ParityViolation:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), enh.path, enh.line) from exc
        out.append((surf, q, values))
    return out


def _check_cap(what: str, size: int, cap: int, flag: str) -> None:
    """--cap-n and --cap-dim bound the input's size; the library has no cap."""
    if size > cap:
        raise CapExceeded(f"{what} {size} exceeds the cap of {cap} ({flag})")


def cmd_arf_brown(
    paths: Sequence[str],
    inline_specs: Sequence[str],
    cap_dim: int,
    emitter: Emitter,
) -> int:
    from .quadform import arf, arf_brown, gauss_sum_of_root

    for surf, q, values in _attach_enhancements(_collect(paths), inline_specs):
        _check_cap("form dimension", q.dim, cap_dim, "--cap-dim")
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
            f"  exponent {exponent}: value {_render_root(exponent)}",
            f"  gauss sum {_render_cyc8(total)} (coefficients {list(total)})",
            "  arf invariant: undefined (odd values present)"
            if arf_value is None
            else f"  arf invariant {arf_value}",
        ])
    return 0


def cmd_majorana(paths: Sequence[str], cap_n: int, emitter: Emitter) -> int:
    from . import majorana, pin1, tqft

    for stmt in _collect(paths):
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
        _check_cap("vertex count", setup.vertex_count, cap_n, "--cap-n")
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
            "min_eigenvalue": _enc_fraction(report.min_eigenvalue),
            "ground_dimension": report.ground_dimension,
            "ground_parity": report.ground_parity,
            "spectrum": [
                [_enc_fraction(value), mult] for value, mult in report.spectrum
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


def cmd_tqft(
    theory_text: str,
    paths: Sequence[str],
    cap_dim: int,
    emitter: Emitter,
) -> int:
    from . import pin1, tqft

    theory = parse_theory(theory_text)
    statements = _collect(paths)
    enhanced = _attach_enhancements(statements, None)
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
            value = tqft.evaluate_point(theory)
            k = len(value.signature)
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
            cls = pin1.classify_circle(pin1.Circle(stmt.bits))
            line = tqft.evaluate_circle(theory, cls)
            emitter.emit(
                {
                    "record": "circle",
                    "name": stmt.name,
                    "class": cls.value,
                    "parity": line.parity,
                },
                lambda: [f"circle {stmt.name}: {cls.value}, {line.parity} line"],
            )
    for surf, q, values in enhanced:
        _check_cap("form dimension", q.dim, cap_dim, "--cap-dim")
        value = tqft.partition_function(theory, [(surf.scheme, q)])
        total = value if total is None else total * value
        emitter.emit(
            {
                "record": "partition",
                "name": surf.name,
                "exponent": value.exponent,
                "euler_factor": _enc_gaussian(value.euler_factor),
            },
            lambda: [
                f"surface {surf.name}: {_render_root(value.exponent)},"
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
                f" {_render_root(total.exponent)},"
                f" euler factor {_render_gaussian(total.euler_factor)}"
            ],
        )
    return 0


def cmd_selftest(emitter: Emitter) -> int:
    from .tqft import consistency_report

    report = consistency_report()
    for check in report.checks:
        emitter.emit(
            {
                "record": "selftest",
                "name": check.name,
                "passed": check.passed,
                "detail": check.detail,
            },
            lambda: [
                f"check {check.name}:"
                f" {'pass' if check.passed else 'FAIL'} ({check.detail})"
            ],
        )
    if emitter.fmt == "human":
        print(
            "all checks passed" if report.all_passed else "some checks FAILED",
            file=emitter.stream,
        )
    return 0 if report.all_passed else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes --format and the options its handler `run` reads."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("human", "structured"),
        default="human",
        help="human text or JSON lines with exact numbers",
    )
    cap_dim = dict(
        type=_positive_int,
        default=20,
        metavar="D",
        help="largest form dimension for Arf-Brown invariants (default %(default)s)",
    )
    parser = argparse.ArgumentParser(
        prog="arfbrown",
        description="Exact invariants of surfaces, 1-manifolds, and chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser(
        "surface", parents=[common], help="classify gluing words"
    )
    p.add_argument("paths", nargs="+", metavar="FILE")
    p.set_defaults(run=lambda a, e: cmd_surface(a.paths, e))
    p = sub.add_parser(
        "arf-brown",
        parents=[common],
        help="Gauss sums and invariants of enhanced surfaces",
    )
    p.add_argument("paths", nargs="+", metavar="FILE")
    p.add_argument("--cap-dim", **cap_dim)
    p.add_argument(
        "--enhance",
        action="append",
        default=[],
        metavar="SPEC",
        help="inline enhancement like 'a=1 b=3' (file must hold one surface)",
    )
    p.set_defaults(
        run=lambda a, e: cmd_arf_brown(a.paths, a.enhance, a.cap_dim, e)
    )
    p = sub.add_parser(
        "majorana", parents=[common], help="chain spectra on 1-manifolds"
    )
    p.add_argument("paths", nargs="+", metavar="FILE")
    p.add_argument(
        "--cap-n",
        type=_positive_int,
        default=10,
        metavar="N",
        help="largest vertex count for chain spectra (default %(default)s)",
    )
    p.set_defaults(run=lambda a, e: cmd_majorana(a.paths, a.cap_n, e))
    p = sub.add_parser(
        "tqft", parents=[common], help="evaluate a theory on closed objects"
    )
    p.add_argument("theory", help="theory spec like 'ab=1 euler=2'")
    p.add_argument("paths", nargs="*", metavar="FILE")
    p.add_argument("--cap-dim", **cap_dim)
    p.set_defaults(run=lambda a, e: cmd_tqft(a.theory, a.paths, a.cap_dim, e))
    p = sub.add_parser(
        "selftest", parents=[common], help="run the cross-module checks"
    )
    p.set_defaults(run=lambda a, e: cmd_selftest(e))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    emitter = Emitter(args.format)
    try:
        return args.run(args, emitter)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (
        ParityViolation,
        NotSpin,
        HasBoundary,
        DimensionMismatch,
        PreconditionError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
