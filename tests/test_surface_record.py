"""The `surface` record: its human text byte for byte, its structured
fields on multi-vertex words, its structured line against a plain dump of
the Gram lists, and the work that one record costs."""

import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

import arfbrown.surface as surface
from arfbrown.cli import Emitter, JSONText, main
from arfbrown.commands.surface import cmd_surface
from test_properties import gluing_words, one_vertex_words

WORDS = """\
surface sphere: a a'
surface torus: a b a' b'
surface hexagon: a b c a b c
surface dyck: a a b b c c
"""

HUMAN = """\
surface sphere: a a'
  euler characteristic 2, orientable, 2 vertex(es), b1 = 0
  normal form: a a'
  intersection form on []: []
surface torus: a b a' b'
  euler characteristic 0, orientable, 1 vertex(es), b1 = 2
  normal form: a b a' b'
  intersection form on ['a', 'b']: [[0, 1], [1, 0]]
surface hexagon: a b c a b c
  euler characteristic 1, non-orientable, 3 vertex(es), b1 = 1
  normal form: a a
  intersection form on ['a']: [[1]]
surface dyck: a a b b c c
  euler characteristic -1, non-orientable, 1 vertex(es), b1 = 3
  normal form: a a b b c c
  intersection form on ['a', 'b', 'c']: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
"""


def _write(tmp_path, text, name="words.surf"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_human_text_is_pinned(tmp_path, capsys):
    assert main(["surface", _write(tmp_path, WORDS)]) == 0
    assert capsys.readouterr().out == HUMAN


def test_multi_vertex_words_take_the_normal_form_and_its_form(tmp_path, capsys):
    path = _write(
        tmp_path, "surface T: a b c a' b' c'\nsurface K: a b c a b c d d\n"
    )
    assert main(["surface", "--format", "structured", path]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    fields = [
        (r["vertex_count"], r["normal_form"], r["form_basis"], r["gram"])
        for r in records
    ]
    assert fields == [
        (2, "a b a' b'", ["a", "b"], [[0, 1], [1, 0]]),
        (3, "a a b b", ["a", "b"], [[1, 0], [0, 1]]),
    ]


def test_one_classification_per_surface_statement(tmp_path, capsys, monkeypatch):
    calls = []
    analyze = surface.analyze

    def counting(s):
        calls.append(s.text())
        return analyze(s)

    monkeypatch.setattr(surface, "analyze", counting)
    for fmt in ("human", "structured"):
        calls.clear()
        assert main(["surface", "--format", fmt, _write(tmp_path, WORDS)]) == 0
        assert calls == ["a a'", "a b a' b'", "a b c a b c", "a a b b c c"]
    assert capsys.readouterr().out.startswith(HUMAN)


def test_structured_mode_never_builds_human_text(tmp_path, capsys, monkeypatch):
    path = _write(
        tmp_path,
        WORDS + "enhance torus: a=2 b=0\ncircle c: 1 0 1\ninterval j: 1 0\n",
    )
    closed = _write(
        tmp_path,
        "surface K: a a b b\nenhance K: a=1 b=3\npoint p\ncircle c: 1\n",
        "k.surf",
    )
    emitted, built = [], []
    emit = Emitter.emit

    def watching(self, record, human):
        emitted.append(record["record"])
        return emit(self, record, lambda: built.append(record) or human())

    monkeypatch.setattr(Emitter, "emit", watching)
    for argv in (
        ["surface", path],
        ["arf-brown", path],
        ["majorana", path],
        ["tqft", "ab=1", closed],
        ["selftest"],
    ):
        assert main([argv[0], "--format", "structured", *argv[1:]]) == 0
    assert set(emitted) == {
        "surface", "arf-brown", "majorana", "theory", "point", "circle",
        "partition", "total", "selftest",
    }
    assert built == []
    capsys.readouterr()
    # human mode builds each record's lines exactly once
    emitted.clear()
    assert main(["surface", path]) == 0
    assert capsys.readouterr().out == HUMAN
    assert len(built) == len(emitted) == 4


def test_one_form_per_surface_for_its_enhancements(tmp_path, capsys, monkeypatch):
    forms = []
    build = surface._form

    def counting(s, info):
        forms.append(s.text())
        return build(s, info)

    monkeypatch.setattr(surface, "_form", counting)
    path = _write(
        tmp_path, "surface K: a a b b\nenhance K: a=1 b=3\nenhance K: a=3 b=3\n"
    )
    assert main(["arf-brown", "--format", "structured", path]) == 0
    assert forms == ["a a b b"]
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["exponent"] for r in records] == [0, 6]


def test_one_surface_form_call_per_surface_for_three_enhance_lines(
    tmp_path, capsys, monkeypatch
):
    calls = []
    build = surface.surface_form

    def counting(s):
        calls.append(s.text())
        return build(s)

    monkeypatch.setattr(surface, "surface_form", counting)
    path = _write(
        tmp_path,
        "surface T: a b a' b'\n"
        "enhance T: a=0 b=0\nenhance T: a=2 b=0\nenhance T: a=2 b=2\n",
    )
    for argv in (["arf-brown", path], ["tqft", "ab=1", path]):
        calls.clear()
        assert main([argv[0], "--format", "structured", *argv[1:]]) == 0
        assert calls == ["a b a' b'"], argv[0]
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["exponent"] for r in records if r["record"] == "partition"] == [0, 0, 4]


def test_one_validating_construction_per_surface_statement(
    tmp_path, capsys, monkeypatch
):
    # every validating construction, GluingScheme(word) and from_text,
    # counts the word's letters in surface._paired
    built = []
    paired = surface._paired

    def counting(word):
        built.append(surface.GluingScheme._unchecked(paired(word)).text())
        return word

    monkeypatch.setattr(surface, "_paired", counting)
    assert main(["surface", "--format", "structured", _write(tmp_path, WORDS)]) == 0
    assert built == ["a a'", "a b a' b'", "a b c a b c", "a a b b c c"]
    assert len(capsys.readouterr().out.splitlines()) == 4


def _reference_line(name, scheme):
    """The structured record as a plain dump of the Gram lists."""
    info, normal, form = surface.classify(scheme)
    return json.dumps(
        {
            "record": "surface",
            "name": name,
            "word": scheme.text(),
            "euler_char": info.euler_char,
            "orientable": info.orientable,
            "betti1": info.betti1_mod2,
            "vertex_count": info.vertex_count,
            "normal_form": normal.text(),
            "form_basis": list(form.basis_labels),
            "gram": [[(r >> j) % 2 for j in range(form.dim)] for r in form.rows],
        },
        sort_keys=True,
        separators=(",", ":"),
    )


SPHERES = st.sampled_from(["a a'", "a b b' a'", "a b c c' b' a'"]).map(
    surface.GluingScheme.from_text
)


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(
    st.one_of(SPHERES, gluing_words(40), one_vertex_words(40)),
    min_size=1,
    max_size=3,
))
def test_structured_records_equal_the_dump_of_the_gram_lists(
    tmp_path_factory, schemes
):
    names = [f"S{k}" for k in range(len(schemes))]
    path = tmp_path_factory.mktemp("words") / "words.surf"
    path.write_text(
        "".join(f"surface {n}: {s.text()}\n" for n, s in zip(names, schemes))
    )
    stream = io.StringIO()
    assert cmd_surface([str(path)], Emitter("structured", stream)) == 0
    assert stream.getvalue() == "".join(
        _reference_line(n, s) + "\n" for n, s in zip(names, schemes)
    )


def test_structured_emit_never_builds_the_human_text(capsys):
    def human():
        raise AssertionError("human text built in structured mode")

    record = {"record": "surface", "gram": JSONText("[[0,1],[1,0]]")}
    Emitter("structured").emit(record, human)
    assert capsys.readouterr().out == '{"gram":[[0,1],[1,0]],"record":"surface"}\n'


def test_json_text_fields_sit_at_their_sorted_key():
    stream = io.StringIO()
    record = {"record": "r", "b": JSONText("[[0,1]]"), "a": None, "c": 'x"b":NaN'}
    Emitter("structured", stream).emit(record, lambda: [])
    assert stream.getvalue() == '{"a":null,"b":[[0,1]],"c":"x\\"b\\":NaN","record":"r"}\n'
