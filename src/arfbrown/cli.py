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
certificate, 141 stdout closed by its reader.

This module holds what every command shares: the statement grammar
(`parse_file`), the record writer (`Emitter`), the argument parser and
`main`.  Each command's body lives in its own module of
`arfbrown.commands`, which `main` imports only when that command runs, so
a start compiles the grammar and the parser and no command body.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from importlib import import_module
from types import ModuleType
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
    from .surface import GluingScheme

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
# Fraction("1e600") builds 10**600 first, so a decimal exponent of a theory
# literal is checked against this bound before any Fraction is built
MAX_LITERAL_EXPONENT = 4300


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


class TokenError(Exception):
    """A statement error at the index-th token of its line (None: the line);
    the column is worked out only for the report."""

    def at(self, line: str, path: str, lineno: int) -> ParseError:
        message, index = self.args
        starts = [m.start() + 1 for m in re.finditer(r"\S+", line)]
        col = 1 if index is None else starts[index]
        return ParseError(message, path, lineno, col)


def _parse_name(words: list[str]) -> str:
    if len(words) < 2:
        raise TokenError("missing name", 0)
    name = words[1]
    if not name.endswith(":"):
        raise TokenError("expected '<name>:' after the directive", 1)
    name = name[:-1]
    if not _NAME_TOKEN.match(name):
        raise TokenError(f"bad name {name!r}", 1)
    return name


def _parse_surface_payload(words: list[str]) -> GluingScheme:
    from .surface import GluingScheme, MalformedWord

    letters = words[2:]
    text = " ".join(letters)
    if not _WORD.fullmatch(text):
        k = next(k for k, tok in enumerate(letters) if not _WORD.fullmatch(tok))
        raise TokenError(f"bad letter token {letters[k]!r}", k + 2)
    if not letters:
        raise TokenError("surface word is empty", None)
    try:
        return GluingScheme.from_text(text)  # checks only the letter counts
    except MalformedWord as exc:
        raise TokenError(str(exc), None) from exc


def parse_enhance_payload(
    words: list[str], start: int
) -> tuple[tuple[str, int], ...]:
    values = []
    seen = set()
    for k in range(start, len(words)):
        label, eq, raw = words[k].partition("=")
        if not eq or not label or not raw:
            raise TokenError(f"expected label=value, got {words[k]!r}", k)
        if label in seen:
            raise TokenError(f"label {label!r} assigned twice", k)
        seen.add(label)
        try:
            values.append((label, int(raw)))
        except ValueError:
            raise TokenError(f"bad integer {raw!r}", k) from None
    return tuple(values)


def _parse_bits_payload(words: list[str]) -> tuple[tuple[int, ...], int]:
    bits = []
    orientation = 1
    for k in range(2, len(words)):
        tok = words[k]
        if tok.startswith("orientation="):
            if k != len(words) - 1:
                raise TokenError("orientation flag must come last", k)
            flag = tok.split("=", 1)[1]
            if flag == "+":
                orientation = 1
            elif flag == "-":
                orientation = -1
            else:
                raise TokenError(f"orientation must be + or -, got {flag!r}", k)
        elif tok in ("0", "1"):
            bits.append(int(tok))
        else:
            raise TokenError(f"expected edge bit 0 or 1, got {tok!r}", k)
    if not bits:
        raise TokenError("component needs at least one edge bit", None)
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
                values = parse_enhance_payload(words, 2)
                statements.append(EnhanceStmt(name, values, path, lineno))
            elif directive in ("circle", "interval"):
                name = _parse_name(words)
                bits, orientation = _parse_bits_payload(words)
                statements.append(
                    ComponentStmt(name, directive, bits, orientation, path, lineno)
                )
            elif directive == "point":
                if len(words) != 2:
                    raise TokenError("usage: point <name>", 0)
                if not _NAME_TOKEN.match(words[1]):
                    raise TokenError(f"bad name {words[1]!r}", 1)
                statements.append(PointStmt(words[1], path, lineno))
            else:
                raise TokenError(f"unknown directive {directive!r}", 0)
        except TokenError as exc:
            raise exc.at(line, path, lineno) from exc
    return statements


def parse_files(paths: Iterable[str]) -> list:
    """All statements in the files, in order."""
    statements = []
    for path in paths:
        statements.extend(parse_file(path))
    return statements


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


def _command(name: str) -> ModuleType:
    """The module of one command, imported when the command first runs; a
    later run finds it in sys.modules."""
    module = f"{__package__}.commands.{name}"
    return sys.modules.get(module) or import_module(module)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
        if value > 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("must be a positive integer")


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
    p.set_defaults(run=lambda a, e: _command("surface").cmd_surface(a.paths, e))
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
        run=lambda a, e: _command("arf_brown").cmd_arf_brown(
            a.paths, a.enhance, a.cap_dim, e
        )
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
    p.set_defaults(
        run=lambda a, e: _command("majorana").cmd_majorana(a.paths, a.cap_n, e)
    )
    p = sub.add_parser(
        "tqft", parents=[common], help="evaluate a theory on closed objects"
    )
    p.add_argument("theory", help="theory spec like 'ab=1 euler=2'")
    p.add_argument("paths", nargs="*", metavar="FILE")
    p.add_argument("--cap-dim", **cap_dim)
    p.set_defaults(
        run=lambda a, e: _command("tqft").cmd_tqft(a.theory, a.paths, a.cap_dim, e)
    )
    p = sub.add_parser(
        "selftest", parents=[common], help="run the cross-module checks"
    )
    p.set_defaults(run=lambda a, e: _command("selftest").cmd_selftest(e))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    emitter = Emitter(args.format)
    try:
        code = args.run(args, emitter)
        if sys.stdout is not None:  # None in a process started without one
            sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to the null
        # device, so the interpreter's last flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a writer it ends
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
    # run as a script, this file is __main__ while the commands import
    # arfbrown.cli: the errors they raise are that module's classes
    from arfbrown.cli import main

    sys.exit(main())
