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
certificate (the reported error's `exit_code`), 74 output that cannot be
written (a full disk, say), 141 stdout closed by its reader.

This module holds what every command shares: the statement grammar
(`parse_file`), the record writer (`Emitter`), the command table and
`main`.  Each command's body lives in its own module of
`arfbrown.commands`, which `main` imports only when that command runs, so
a start compiles the grammar and the table and no command body.

A request costs as little front end as it can: `main` reads a plain argv
by the command table and loads argparse only for help and usage errors;
`parse_file` reads a file in one call and splits it into lines as text
mode does (universal newlines); one JSON encoder writes every record.
"""

from __future__ import annotations

import functools
import io
import json
import os
import re
import sys
from collections import namedtuple
from importlib import import_module
from types import ModuleType, SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

if TYPE_CHECKING:  # each command imports the modules it runs
    import argparse

    from .surface import GluingScheme

__all__ = ["main", "ParseError"]


class ParseError(Exception):
    """Bad input text, reported with file, line, and column."""

    exit_code = 2

    def __init__(self, message: str, path: str, line: int, col: int = 1):
        super().__init__(f"{path}:{line}:{col}: {message}")
        self.path = path
        self.line = line
        self.col = col


# a surface payload, its tokens joined by single spaces (or one token)
_WORD = re.compile(r"(?:[A-Za-z][A-Za-z0-9]*'?(?: |\Z))*")
_NAME_TOKEN = re.compile(r"[A-Za-z0-9_.-]+$")


# the parsed statements, plain namedtuples since every start builds their
# classes: scheme is a GluingScheme, values (label, int) pairs, bits 0s and 1s
SurfaceStmt = namedtuple("SurfaceStmt", "name scheme path line")
EnhanceStmt = namedtuple("EnhanceStmt", "name values path line")
ComponentStmt = namedtuple("ComponentStmt", "name kind bits orientation path line")
PointStmt = namedtuple("PointStmt", "name path line")


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
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc.strerror}", path, 0) from exc
    # text mode's universal newlines: \n, \r\n and a lone \r end a line, and
    # nothing else does (str.splitlines would also split on \f, \x85, ...)
    lines = io.StringIO(data.decode("utf-8"), newline=None).readlines()
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
                stmt = ComponentStmt(name, directive, bits, orientation, path, lineno)
                statements.append(stmt)
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
    return [stmt for path in paths for stmt in parse_file(path)]


class JSONText(str):
    """A record field that is JSON text already, written as it is."""


# json.dumps would build this encoder again for every record
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


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
                # one encode with NaN in each JSONText field's place: no float
                # reaches a record, so '"key":NaN' marks exactly that place
                texts = {k: v for k, v in record.items() if type(v) is JSONText}
                line = _encode({**record, **dict.fromkeys(texts, float("nan"))})
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
        if (value := int(text)) > 0:
            return value
    except ValueError:
        pass
    import argparse  # loaded already when argparse calls this type

    raise argparse.ArgumentTypeError("must be a positive integer")


# The commands' grammar, written once: `build_parser` hands it to argparse,
# which writes the help and every usage error, and `_read_argv` reads a plain
# argv by it.  An option maps to its argparse keywords; a command to its help,
# positionals (dest, nargs, metavar, help), options besides --format, handler.
_OPTIONS = {
    "--format": dict(choices=("human", "structured"), default="human",
                     help="human text or JSON lines with exact numbers"),
    "--cap-dim": dict(type=_positive_int, default=20, metavar="D", help="largest form"
                      " dimension for Arf-Brown invariants (default %(default)s)"),
    "--cap-n": dict(type=_positive_int, default=10, metavar="N", help="largest"
                    " vertex count for chain spectra (default %(default)s)"),
    "--enhance": dict(action="append", default=[], metavar="SPEC", help="inline"
                      " enhancement like 'a=1 b=3' (file must hold one surface)"),
}
_FILES = ("paths", "+", "FILE", None)
_COMMANDS = {
    "surface": ("classify gluing words", [_FILES], [],
                lambda a, e: _command("surface").cmd_surface(a.paths, e)),
    "arf-brown": ("Gauss sums and invariants of enhanced surfaces", [_FILES],
                  ["--cap-dim", "--enhance"], lambda a, e: _command("arf_brown")
                  .cmd_arf_brown(a.paths, a.enhance, a.cap_dim, e)),
    "majorana": ("chain spectra on 1-manifolds", [_FILES], ["--cap-n"],
                 lambda a, e: _command("majorana").cmd_majorana(a.paths, a.cap_n, e)),
    "tqft": ("evaluate a theory on closed objects",
             [("theory", None, None, "theory spec like 'ab=1 euler=2'"),
              ("paths", "*", "FILE", None)], ["--cap-dim"],
             lambda a, e: _command("tqft").cmd_tqft(a.theory, a.paths, a.cap_dim, e)),
    "selftest": ("run the cross-module checks", [], [],
                 lambda a, e: _command("selftest").cmd_selftest(e)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of _COMMANDS, for help and usage errors."""
    import argparse

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", **_OPTIONS["--format"])
    description = "Exact invariants of surfaces, 1-manifolds, and chains."
    parser = argparse.ArgumentParser(prog="arfbrown", description=description)
    # dest names the command in the "required: command" error
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, positionals, options, run) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=text)
        for dest, nargs, metavar, about in positionals:
            p.add_argument(dest, nargs=nargs, metavar=metavar, help=about)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(run=run)
    return parser


def _read_argv(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a plain argv: a command, full option
    names with values argparse takes, one run of positionals; else None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, positionals, options, run = _COMMANDS[argv[0]]
    dests = {o: o[2:].replace("-", "_") for o in ("--format", *options)}
    values = {dest: _OPTIONS[o]["default"] for o, dest in dests.items()}
    words, split = [], False  # split: an option came after a positional
    rest = iter(argv[1:])
    for word in rest:
        if not word.startswith("-"):
            if split:
                return None
            words.append(word)
            continue
        split = bool(words)
        option, eq, value = word.partition("=")
        if not eq:  # the value is the next word, which may not look like an option
            value = next(rest, "-")
        if option not in dests or not eq and value.startswith("-"):
            return None
        spec = _OPTIONS[option]
        try:
            value = spec.get("type", str)(value)
        except Exception:  # argparse reports it
            return None
        if value not in spec.get("choices", [value]):
            return None
        if spec.get("action") == "append":  # a new list, as argparse makes
            value = [*values[dests[option]], value]
        values[dests[option]] = value
    for dest, nargs, _, _ in positionals:
        if not words and nargs != "*":
            return None
        values[dest], words = (words[0], words[1:]) if nargs is None else (words, [])
    return None if words else SimpleNamespace(command=argv[0], **values, run=run)


def _drop_stdout() -> None:
    """Point stdout's file descriptor, if it has one, at the null device:
    what is still buffered goes there, so the interpreter's last flush
    cannot raise again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError, OSError):  # None, or a stream without one
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a plain argv is read from the table directly; help, abbreviations and
    # every usage error are argparse's, so anything else goes to its parser
    args = _read_argv(argv) or build_parser().parse_args(argv)
    emitter = Emitter(args.format)
    try:
        code = args.run(args, emitter)
        if sys.stdout is not None:  # None in a process started without one
            sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader closed stdout
        _drop_stdout()
        return 141  # 128 + SIGPIPE, as a shell reports a writer it ends
    except OSError as exc:  # stdout cannot take the output: a full disk, say
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        _drop_stdout()
        return 74  # EX_IOERR
    except Exception as exc:  # a reported error carries its exit status
        code = getattr(exc, "exit_code", None)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    # the commands emit arfbrown.cli's JSONText, which Emitter matches by type
    from arfbrown.cli import main

    sys.exit(main())
