"""Statement lines: their whitespace-separated tokens and the position of
every parse error, checked against a regex scan of the line."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from arfbrown.cli import ParseError, parse_file

# str.split() and the regex \s agree on every code point; these are the
# ones a file line can hold besides the space (\n and \r end the line)
SEPARATORS = (" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u3000")
_SETTINGS = settings(max_examples=150, deadline=None, database=None)


def reference_tokens(line):
    """(token, column) pairs of a statement line: the maximal runs of
    non-whitespace before the first #, with 1-based columns."""
    text = line.split("#", 1)[0]
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", text)]


LETTERS = st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,3}", fullmatch=True)
COMMENTS = st.sampled_from(("", "#", "# a' 1 x=2 #", "#\xa0b\t'c", "#0=1"))


@st.composite
def spaced(draw, tokens):
    """The tokens with runs of separators around them and a comment."""
    run = st.text(st.sampled_from(SEPARATORS), min_size=1, max_size=3)
    parts = [draw(st.text(st.sampled_from(SEPARATORS), max_size=2))]
    for tok in tokens:
        parts += [tok, draw(run)]
    return "".join(parts) + draw(COMMENTS)


@st.composite
def surface_tokens(draw):
    letters = draw(st.lists(LETTERS, min_size=1, max_size=6, unique=True))
    word = draw(st.permutations(letters * 2))
    marks = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    return ["surface", "S1:"] + [w + "'" * m for w, m in zip(word, marks)]


@st.composite
def enhance_tokens(draw):
    labels = draw(st.lists(LETTERS, max_size=5, unique=True))
    values = draw(st.lists(
        st.from_regex(r"[-+]?[0-9]{1,3}", fullmatch=True),
        min_size=len(labels), max_size=len(labels),
    ))
    return ["enhance", "S1:"] + [f"{a}={v}" for a, v in zip(labels, values)]


@st.composite
def component_tokens(draw):
    kind = draw(st.sampled_from(("circle", "interval")))
    bits = draw(st.lists(st.sampled_from("01"), min_size=1, max_size=6))
    flag = draw(st.sampled_from(([], ["orientation=+"], ["orientation=-"])))
    return [kind, "c.1:"] + bits + flag


def _parse_line(tmp_path_factory, line):
    path = tmp_path_factory.mktemp("stmt") / "line.txt"
    # line 1 is blank after its comment, so the statement is on line 2
    path.write_text("  # a b\n" + line + "\n", encoding="utf-8")
    return str(path), parse_file(str(path))


@_SETTINGS
@given(st.one_of(
    surface_tokens(), enhance_tokens(), component_tokens(), st.just(["point", "p_0"])
).flatmap(spaced))
def test_statement_tokens_are_the_regex_runs(tmp_path_factory, line):
    _, statements = _parse_line(tmp_path_factory, line)
    (stmt,) = statements
    tokens = [tok for tok, _ in reference_tokens(line)]
    assert stmt.line == 2
    directive = tokens[0]
    if directive == "point":
        assert stmt.name == tokens[1]
        return
    assert stmt.name == tokens[1][:-1]
    payload = tokens[2:]
    if directive == "surface":
        assert list(stmt.scheme.word) == [
            (t[:-1], -1) if t.endswith("'") else (t, 1) for t in payload
        ]
    elif directive == "enhance":
        assert stmt.values == tuple(
            (t.split("=")[0], int(t.split("=")[1])) for t in payload
        )
    else:
        flag = payload[-1] if payload[-1].startswith("orientation=") else None
        assert stmt.kind == directive
        assert list(stmt.bits) == [int(t) for t in payload if t in ("0", "1")]
        assert stmt.orientation == (-1 if flag == "orientation=-" else 1)


# bad payload tokens; an enhance label holds no "_", so none repeats one
BAD_LETTERS = st.sampled_from(("1a", "a''", "'a", "a-b", "a'b", "é", "=", "a_b"))
BAD_PAIRS = st.sampled_from(("_a", "=1", "_b=", "_a=x", "_a=1.5", "_x=1=2"))
BAD_BITS = st.sampled_from(("2", "01", "orientation=x", "orientation=+", "-", "b"))


def _enhance_message(tok):
    label, eq, raw = tok.partition("=")
    if not eq or not label or not raw:
        return f"expected label=value, got {tok!r}"
    return f"bad integer {raw!r}"


def _bits_message(tok, last):
    if not tok.startswith("orientation="):
        return f"expected edge bit 0 or 1, got {tok!r}"
    if not last:
        return "orientation flag must come last"
    return f"orientation must be + or -, got {tok.split('=', 1)[1]!r}"


@st.composite
def lines_with_one_bad_token(draw):
    """(tokens, index of the bad one, the message it gives)."""
    kind = draw(st.sampled_from(
        ("surface", "enhance", "bits", "name", "directive", "point")
    ))
    if kind == "point":
        if draw(st.booleans()):
            return ["point", "p", "q"], 0, "usage: point <name>"
        bad = draw(st.sampled_from(("p:", "b@d", "p'")))
        return ["point", bad], 1, f"bad name {bad!r}"
    if kind == "name":
        tokens = draw(st.one_of(surface_tokens(), enhance_tokens(), component_tokens()))
        bad = draw(st.sampled_from(("S1", "b@d:", "a'b:", ":")))
        if bad.endswith(":"):
            message = f"bad name {bad[:-1]!r}"
        else:
            message = "expected '<name>:' after the directive"
        return tokens[:1] + [bad] + tokens[2:], 1, message
    if kind == "directive":
        bad = draw(st.sampled_from(("surfaces", "Surface", "1", "enhance:")))
        return [bad] + draw(surface_tokens())[1:], 0, f"unknown directive {bad!r}"
    if kind == "surface":
        tokens, bad = draw(surface_tokens()), draw(BAD_LETTERS)
    elif kind == "enhance":
        tokens, bad = draw(enhance_tokens()), draw(BAD_PAIRS)
    else:
        tokens = [t for t in draw(component_tokens()) if "=" not in t]
        bad = draw(BAD_BITS)
    # a valid flag is bad only before the last bit
    k = draw(st.integers(2, len(tokens) - (bad == "orientation=+")))
    if kind == "surface":
        message = f"bad letter token {bad!r}"
    elif kind == "enhance":
        message = _enhance_message(bad)
    else:
        message = _bits_message(bad, k == len(tokens))
    return tokens[:k] + [bad] + tokens[k:], k, message


@_SETTINGS
@given(lines_with_one_bad_token(), st.data())
def test_a_bad_token_is_reported_at_its_regex_column(tmp_path_factory, case, data):
    tokens, k, message = case
    line = data.draw(spaced(tokens))
    path = tmp_path_factory.mktemp("stmt") / "line.txt"
    path.write_text("\n" + line + "\n", encoding="utf-8")
    try:
        parse_file(str(path))
    except ParseError as exc:
        col = reference_tokens(line)[k][1]
        assert (exc.line, exc.col) == (2, col)
        assert str(exc) == f"{path}:2:{col}: {message}"
    else:
        raise AssertionError(f"{line!r} parsed")
