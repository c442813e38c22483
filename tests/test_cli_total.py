"""The command line is a total function of UTF-8 input: on statement files
and theory specs generated from the grammar, then mutated character by
character, every command in both formats returns one of its documented
exit codes and raises nothing."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from arfbrown.cli import MAX_LITERAL_EXPONENT, main
from arfbrown.surface import GluingScheme, MalformedWord, surface_form

_SETTINGS = settings(max_examples=300, deadline=None, database=None)

EXITS = {0, 2, 3, 4, 5}
FORMATS = ("human", "structured")

names = st.sampled_from(["T", "K", "c", "j", "p", "x.1"])
letters = st.sampled_from(["a", "b", "c", "x1"])


values = st.one_of(st.integers(-5, 9), st.integers(-(10**30), 10**30))


@st.composite
def enhance_specs(draw, labels=letters):
    chosen = draw(st.lists(labels, max_size=4))
    return " ".join(f"{label}={draw(values)}" for label in chosen)


@st.composite
def surface_blocks(draw):
    """A word in at most four letters, most often each letter twice, then
    enhance lines on its name: values of the right parity on the form's
    basis, or labels and values drawn at random."""
    pool = draw(st.lists(letters, min_size=1, max_size=4, unique=True))
    word = draw(st.permutations(pool * 2)) if draw(st.booleans()) else draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=8)
    )
    word = " ".join(t + "'" if draw(st.booleans()) else t for t in word)
    name = draw(names)
    lines = [f"surface {name}: {word}"]
    try:
        form = surface_form(GluingScheme.from_text(word))
    except MalformedWord:
        form = None
    for _ in range(draw(st.integers(0, 2))):
        if form is not None and draw(st.integers(0, 3)):
            spec = " ".join(
                f"{label}={(form.rows[i] >> i & 1) + 2 * draw(st.integers(-2, 2))}"
                for i, label in enumerate(form.basis_labels)
            )
        else:
            spec = draw(enhance_specs(st.one_of(st.sampled_from(pool), letters)))
        lines.append(f"enhance {name}: {spec}")
    return "\n".join(lines)


@st.composite
def chain_lines(draw):
    kind = draw(st.sampled_from(["circle", "interval"]))
    bits = draw(st.lists(st.sampled_from("01"), min_size=1, max_size=12))
    flag = draw(st.sampled_from(["", " orientation=+", " orientation=-"]))
    return f"{kind} {draw(names)}: {' '.join(bits)}{flag}"


blocks = st.one_of(
    surface_blocks(),
    chain_lines(),
    st.builds(lambda n: f"point {n}", names),
    st.sampled_from(["", "# a comment", "   "]),
)

# decimal exponents on both sides of the literal bound
exponents = st.one_of(
    st.integers(-40, 40),
    st.integers(MAX_LITERAL_EXPONENT - 5, MAX_LITERAL_EXPONENT + 5),
    st.integers(-MAX_LITERAL_EXPONENT - 5, -MAX_LITERAL_EXPONENT + 5),
    st.integers(-(10**12), 10**12),
)


@st.composite
def euler_literals(draw):
    part = st.one_of(
        st.integers(-9, 9).map(str),
        st.builds(lambda n, d: f"{n}/{d}", st.integers(-9, 9), st.integers(0, 9)),
        st.builds(lambda m, e: f"{m}e{e}", st.integers(-9, 9), exponents),
    )
    re_part, im_part = draw(part), draw(part)
    return draw(
        st.sampled_from(
            [re_part, f"{im_part}i", f"{re_part}+{im_part}i", "i", "-i", f"{re_part}-i"]
        )
    )


@st.composite
def theory_specs(draw):
    fields = [f"ab={draw(st.integers(-1, 9))}"]
    if draw(st.booleans()):
        fields.append(f"euler={draw(euler_literals())}")
    return " ".join(draw(st.permutations(fields)))


# grammar characters most of the time, any UTF-8 encodable one otherwise
characters = st.one_of(
    st.sampled_from("abcxTK:=' 01+-/ei#\n\t"),
    st.characters(codec="utf-8"),
)


@st.composite
def mutated(draw, texts):
    """A text, as it is or with up to four characters deleted, inserted or
    replaced."""
    text = draw(texts)
    for _ in range(draw(st.one_of(st.just(0), st.integers(1, 4)))):
        at = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["delete", "insert", "replace"]))
        char = "" if op == "delete" else draw(characters)
        text = text[:at] + char + text[at + (op != "insert"):]
    return text


@st.composite
def inputs(draw):
    """A statement file and an inline --enhance spec, most often one of the
    file's own enhance lines, each mutated."""
    text = draw(st.lists(blocks, max_size=4).map("\n".join))
    own = [line.split(":", 1)[1] for line in text.splitlines() if line.startswith("enhance")]
    spec = draw(st.sampled_from(own) if own and draw(st.booleans()) else enhance_specs())
    return draw(mutated(st.just(text))), draw(mutated(st.just(spec)))


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        return main(argv)


@_SETTINGS
@given(inputs(), mutated(theory_specs()))
def test_every_command_exits_with_a_documented_code(tmp_path_factory, given_input, theory):
    text, spec = given_input
    path = tmp_path_factory.getbasetemp() / "total.surf"
    path.write_text(text, encoding="utf-8", newline="")
    commands = [
        ["surface", str(path)],
        ["arf-brown", str(path)],
        ["arf-brown", f"--enhance={spec}", str(path)],
        ["majorana", str(path)],
        # after "--" a spec that starts with "-" is still the theory
        ["tqft", "--", theory, str(path)],
    ]
    for command in commands:
        for fmt in FORMATS:
            code = _run([command[0], "--format", fmt, *command[1:]])
            assert code in EXITS, (command, fmt, code)


def test_selftest_exits_with_a_documented_code():
    for fmt in FORMATS:
        assert _run(["selftest", "--format", fmt]) in EXITS
