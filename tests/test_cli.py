"""Command-line interface: grammar, encodings, and exit codes."""

import argparse
import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arfbrown
from arfbrown import clifford, errors, f2, quadform, surface
from arfbrown.cli import (
    Emitter,
    ParseError,
    TokenError,
    _read_argv,
    build_parser,
    main,
)
from arfbrown.clifford import GaussianRational
from arfbrown.commands.enhanced import PreconditionError
from arfbrown.commands.selftest import cmd_selftest
from arfbrown.commands.tqft import MAX_LITERAL_EXPONENT, parse_theory
from arfbrown.majorana import ground_states
from arfbrown.pin1 import ChainSetup


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _records(capsys):
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.strip().splitlines()]


# one statement file that every command that reads files runs clean on
_EVERY_KIND = "surface T: a b a' b'\nenhance T: a=0 b=0\ncircle c: 0 1\n"
# each command's argv before the file; selftest reads none
_COMMANDS = {
    "surface": ["surface"],
    "arf-brown": ["arf-brown"],
    "majorana": ["majorana"],
    "tqft": ["tqft", "ab=1"],
    "selftest": ["selftest"],
}


def _command_argv(command, path):
    return _COMMANDS[command] + ([] if command == "selftest" else [path])


def _no_floats(value):
    if isinstance(value, float):
        return False
    if isinstance(value, dict):
        return all(_no_floats(v) for v in value.values())
    if isinstance(value, list):
        return all(_no_floats(v) for v in value)
    return True


# ----------------------------------------------------------------- surface


def test_surface_human(tmp_path, capsys):
    path = _write(tmp_path, "t.surf", "surface T: a b a' b'\n")
    assert main(["surface", path]) == 0
    out = capsys.readouterr().out
    assert "euler characteristic 0" in out
    assert "orientable" in out
    assert "a b a' b'" in out


def test_surface_structured(tmp_path, capsys):
    path = _write(tmp_path, "t.surf", "# comment\n\nsurface K: a a b b\n")
    assert main(["surface", "--format", "structured", path]) == 0
    (rec,) = _records(capsys)
    assert rec["record"] == "surface"
    assert rec["name"] == "K"
    assert rec["euler_char"] == 0
    assert rec["orientable"] is False
    assert rec["betti1"] == 2
    assert rec["gram"] == [[1, 0], [0, 1]]
    assert _no_floats(rec)


def test_surface_malformed_word_is_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "bad.surf", "surface B: a b a\n")
    assert main(["surface", path]) == 2
    err = capsys.readouterr().err
    assert "bad.surf:1:" in err


def test_unknown_directive_is_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "bad.surf", "sphere S: a a'\n")
    assert main(["surface", path]) == 2


# --------------------------------------------------------------- arf-brown


def test_arf_brown_projective_plane(tmp_path, capsys):
    path = _write(tmp_path, "p.surf", "surface P: a a\nenhance P: a=1\n")
    assert main(["arf-brown", "--format", "structured", path]) == 0
    (rec,) = _records(capsys)
    assert rec["exponent"] == 1
    assert rec["gauss_sum"] == [1, 0, 1, 0]
    assert rec["arf"] is None
    assert _no_floats(rec)


def test_arf_brown_torus_framing(tmp_path, capsys):
    path = _write(tmp_path, "t.surf", "surface T: a b a' b'\n")
    assert (
        main(["arf-brown", "--format", "structured", "--enhance", "a=2 b=2", path])
        == 0
    )
    (rec,) = _records(capsys)
    assert rec["exponent"] == 4
    assert rec["arf"] == 1


def test_arf_brown_human_renders_roots(tmp_path, capsys):
    path = _write(tmp_path, "p.surf", "surface P: a a\nenhance P: a=3\n")
    assert main(["arf-brown", path]) == 0
    out = capsys.readouterr().out
    assert "exponent 7" in out
    assert "(1-i)/\u221a2" in out


def test_arf_brown_parity_violation_is_exit_3(tmp_path, capsys):
    path = _write(tmp_path, "p.surf", "surface P: a a\nenhance P: a=2\n")
    assert main(["arf-brown", path]) == 3
    assert "parity" in capsys.readouterr().err


def test_arf_brown_needs_an_enhancement(tmp_path, capsys):
    path = _write(tmp_path, "t.surf", "surface T: a b a' b'\n")
    assert main(["arf-brown", path]) == 3


@pytest.mark.parametrize(
    "argv, hint",
    [
        (["arf-brown"], "add enhance lines or --enhance"),
        (["tqft", "ab=1"], "add enhance lines"),
    ],
    ids=["arf-brown", "tqft"],
)
def test_missing_enhancement_names_only_its_options(tmp_path, capsys, argv, hint):
    path = _write(tmp_path, "t.surf", "surface T: a b a' b'\n")
    assert main([*argv, path]) == 3
    assert capsys.readouterr().err == f"error: no enhancements given; {hint}\n"


def test_inline_enhance_needs_single_surface(tmp_path, capsys):
    path = _write(
        tmp_path, "two.surf", "surface T: a b a' b'\nsurface P: a a\n"
    )
    assert main(["arf-brown", "--enhance", "a=0 b=0", path]) == 2


def test_enhance_unknown_label_is_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "p.surf", "surface P: a a\nenhance P: z=1\n")
    assert main(["arf-brown", path]) == 2


@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_arf_brown_failed_certificate_is_exit_5(tmp_path, capsys, monkeypatch, fmt):
    def fail(q):
        raise quadform.NotRootOfUnity("the Gauss sum missed every zeta8^k")

    monkeypatch.setattr(quadform, "arf_brown", fail)
    path = _write(tmp_path, "k.surf", "surface K: a a b b\nenhance K: a=1 b=3\n")
    assert main(["arf-brown", "--format", fmt, path]) == 5
    err = capsys.readouterr().err
    assert err == "error: the Gauss sum missed every zeta8^k\n"


@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_arf_brown_exponent_must_be_four_times_arf(tmp_path, capsys, monkeypatch, fmt):
    # the torus with q = 0 has exponent 0; an Arf invariant of 1 contradicts it
    monkeypatch.setattr(quadform, "arf", lambda q: 1)
    path = _write(tmp_path, "t.surf", "surface T: a b a' b'\nenhance T: a=0 b=0\n")
    assert main(["arf-brown", "--format", fmt, path]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: T: exponent 0 but Arf 1\n"


def test_arf_brown_cap_dim(tmp_path, capsys):
    word = " ".join(f"x{i} x{i}" for i in range(21))
    path = _write(
        tmp_path,
        "big.surf",
        f"surface B: {word}\nenhance B: "
        + " ".join(f"x{i}=1" for i in range(21))
        + "\n",
    )
    assert main(["arf-brown", path]) == 4
    assert "form dimension 21 exceeds the cap of 20" in capsys.readouterr().err
    assert main(["arf-brown", "--cap-dim", "25", path]) == 0


@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_arf_brown_checks_every_cap_before_its_first_record(tmp_path, capsys, fmt):
    path = _write(
        tmp_path, "two.surf",
        "surface P: a a\nenhance P: a=1\n"
        "surface N: a a b b c c\nenhance N: a=1 b=1 c=1\n",
    )
    assert main(["arf-brown", "--cap-dim", "2", "--format", fmt, path]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: form dimension 3 exceeds the cap of 2 (--cap-dim)\n"


def test_arf_brown_large_dimension(tmp_path, capsys):
    # 300 crosscaps with q = 1 each: exponent 300 mod 8 = 4
    crosscaps = [f"x{i}" for i in range(300)]
    path = _write(
        tmp_path,
        "n300.surf",
        "surface N: " + " ".join(f"{a} {a}" for a in crosscaps)
        + "\nenhance N: " + " ".join(f"{a}=1" for a in crosscaps) + "\n",
    )
    start = time.monotonic()
    assert main(["arf-brown", "--cap-dim", "400", "--format", "structured", path]) == 0
    assert time.monotonic() - start < 2
    (rec,) = _records(capsys)
    assert rec["dim"] == 300
    assert rec["exponent"] == 4
    assert rec["gauss_sum"] == [-(2**150), 0, 0, 0]
    assert rec["arf"] is None

    # genus 150 with q(a) = q(b) = 2 on every handle: Arf 150 mod 2 = 0
    handles = [(f"a{i}", f"b{i}") for i in range(150)]
    path = _write(
        tmp_path,
        "g150.surf",
        "surface G: " + " ".join(f"{a} {b} {a}' {b}'" for a, b in handles)
        + "\nenhance G: " + " ".join(f"{a}=2 {b}=2" for a, b in handles) + "\n",
    )
    assert main(["arf-brown", "--cap-dim", "400", "--format", "structured", path]) == 0
    (rec,) = _records(capsys)
    assert rec["dim"] == 300
    assert rec["exponent"] == 0
    assert rec["gauss_sum"] == [2**150, 0, 0, 0]
    assert rec["arf"] == 0


# ---------------------------------------------------------------- majorana


def test_majorana_circle(tmp_path, capsys):
    path = _write(tmp_path, "c.surf", "circle c: 0 0\n")
    assert main(["majorana", "--format", "structured", path]) == 0
    (rec,) = _records(capsys)
    assert rec["kind"] == "circle"
    assert rec["circle_class"] == "nonbounding"
    assert rec["ground_dimension"] == 1
    assert rec["ground_parity"] == "odd"
    assert rec["min_eigenvalue"] == [-1, 1]
    assert rec["verdict"] == "ok"
    assert _no_floats(rec)


def test_majorana_interval_with_orientation(tmp_path, capsys):
    path = _write(tmp_path, "i.surf", "interval j: 1 0 orientation=-\n")
    assert main(["majorana", "--format", "structured", path]) == 0
    (rec,) = _records(capsys)
    assert rec["kind"] == "interval"
    assert rec["circle_class"] is None
    assert rec["orientation"] == "-"
    assert rec["ground_dimension"] == 2
    assert rec["ground_parity"] == "mixed"
    assert rec["verdict"] == "ok"


def test_majorana_cap_is_exit_4(tmp_path, capsys):
    path = _write(tmp_path, "c.surf", "circle c: 0 0 0 0\n")
    assert main(["majorana", "--cap-n", "3", path]) == 4


@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_majorana_checks_every_cap_before_its_first_record(tmp_path, capsys, fmt):
    path = _write(tmp_path, "two.surf", "circle c: 1 0\ninterval j: 0 0 0\n")
    assert main(["majorana", "--cap-n", "3", "--format", fmt, path]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: vertex count 4 exceeds the cap of 3 (--cap-n)\n"


def test_vertex_cap(tmp_path, capsys):
    # both caps are command-line input guards with one message form; the
    # library computes past them
    zeros = " ".join("0" * 11)
    circle = _write(tmp_path, "c.surf", f"circle c: {zeros}\n")
    interval = _write(tmp_path, "j.surf", f"interval j: {zeros[2:]}\n")
    for path in (circle, interval):
        assert main(["majorana", path]) == 4
        assert capsys.readouterr().err == (
            "error: vertex count 11 exceeds the cap of 10 (--cap-n)\n"
        )
        assert main(["majorana", "--cap-n", "11", path]) == 0
    assert ground_states(ChainSetup.circle((0,) * 11)).ground_dimension == 1
    word = " ".join(f"x{i} x{i}" for i in range(21))
    values = " ".join(f"x{i}=1" for i in range(21))
    big = _write(tmp_path, "n21.surf", f"surface N: {word}\nenhance N: {values}\n")
    for argv in (["arf-brown", big], ["tqft", "ab=1", big]):
        capsys.readouterr()
        assert main(argv) == 4
        assert capsys.readouterr().err == (
            "error: form dimension 21 exceeds the cap of 20 (--cap-dim)\n"
        )


def test_bad_bits_are_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "c.surf", "circle c: 0 2\n")
    assert main(["majorana", path]) == 2


def test_bad_orientation_is_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "c.surf", "circle c: 0 1 orientation=x\n")
    assert main(["majorana", path]) == 2


# -------------------------------------------------------------------- tqft


def test_tqft_full_run(tmp_path, capsys):
    path = _write(
        tmp_path,
        "all.surf",
        "surface T: a b a' b'\n"
        "enhance T: a=2 b=2\n"
        "circle c: 0 0\n"
        "point pt\n",
    )
    assert main(["tqft", "--format", "structured", "ab=1 euler=2", path]) == 0
    recs = _records(capsys)
    kinds = [r["record"] for r in recs]
    assert kinds == ["theory", "circle", "point", "partition", "total"]
    theory = recs[0]
    assert theory["ab_power"] == 1
    assert theory["stable"] is False
    circle = recs[1]
    assert circle["class"] == "nonbounding" and circle["parity"] == "odd"
    point = recs[2]
    assert point["algebra_generators"] == 1
    total = recs[-1]
    assert total["exponent"] == 4
    assert total["euler_factor"] == {"im": [0, 1], "re": [1, 1]}
    assert all(_no_floats(r) for r in recs)


@pytest.mark.parametrize(
    "argv", [["arf-brown"], ["tqft", "ab=3 euler=1/2+i"]], ids=["arf-brown", "tqft"]
)
def test_one_analyze_per_surface_per_request(tmp_path, capsys, monkeypatch, argv):
    # a subdivided torus: two vertices, so its form is the normal form's
    path = _write(
        tmp_path,
        "t.surf",
        "surface T: a1 a2 b a2' a1' b'\n"
        "enhance T: a=2 b=2\n"
        "enhance T: a=0 b=2\n"
        "enhance T: a=2 b=0\n",
    )
    calls = []
    analyze = surface.analyze
    monkeypatch.setattr(surface, "analyze", lambda s: calls.append(s) or analyze(s))
    for _ in range(2):
        calls.clear()
        assert main([argv[0], "--format", "structured", *argv[1:], path]) == 0
        assert len(calls) == 1
    assert len([r for r in _records(capsys) if r["record"] != "theory"]) == 2 * (
        3 if argv[0] == "arf-brown" else 4
    )


def test_tqft_human_text_is_pinned(tmp_path, capsys):
    path = _write(
        tmp_path,
        "all.surf",
        "surface T: a b a' b'\n"
        "enhance T: a=2 b=2\n"
        "surface P: a a\n"
        "enhance P: a=1\n"
        "circle c: 0 0\n"
        "circle b: 1 0\n"
        "point pt\n",
    )
    assert main(["tqft", "ab=3 euler=1/2+i", path]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "theory: ab_power 3, euler weight 1/2+i (unstable)",
        "circle c: nonbounding, odd line",
        "circle b: bounding, even line",
        "point pt: Clifford algebra on 3 generator(s)",
        "surface T: ζ₈^4 = -1, euler factor 1",
        "surface P: ζ₈^3 = (-1+i)/√2, euler factor 1/2+i",
        "total over 2 surface(s): ζ₈^7 = (1-i)/√2, euler factor 1/2+i",
    ]


def test_tqft_sphere_euler_example(tmp_path, capsys):
    path = _write(tmp_path, "s.surf", "surface S: a a'\nenhance S:\n")
    assert main(["tqft", "--format", "structured", "ab=0 euler=2", path]) == 0
    recs = _records(capsys)
    total = recs[-1]
    assert total["exponent"] == 0
    assert total["euler_factor"] == {"im": [0, 1], "re": [4, 1]}


def test_tqft_rejects_intervals(tmp_path, capsys):
    path = _write(tmp_path, "i.surf", "interval j: 1\n")
    assert main(["tqft", "ab=1", path]) == 3


@pytest.mark.parametrize(
    "text",
    [
        "surface T: a b a\n",
        "surface T: a b a' b'\nenhance U: a=0 b=0\n",
        "point p\nenhance",
    ],
)
@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_tqft_checks_all_input_before_its_first_record(tmp_path, capsys, text, fmt):
    path = _write(tmp_path, "bad.surf", text)
    assert main(["tqft", "--format", fmt, "ab=1", path]) == 2
    assert capsys.readouterr().out == ""


def test_tqft_surface_without_enhancement_is_exit_3(tmp_path, capsys):
    path = _write(tmp_path, "t.surf", "surface T: a b a' b'\n")
    assert main(["tqft", "ab=1", path]) == 3


def test_tqft_bad_theory_is_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "c.surf", "circle c: 0\n")
    assert main(["tqft", "ab=9", path]) == 2
    assert main(["tqft", "euler=2", path]) == 2
    assert main(["tqft", "ab=1 euler=0", path]) == 2


def test_tqft_honours_cap_dim(tmp_path, capsys):
    genus2 = _write(
        tmp_path,
        "g2.surf",
        "surface G: a b a' b' c d c' d'\nenhance G: a=0 b=0 c=0 d=0\n",
    )
    assert main(["tqft", "--cap-dim", "2", "ab=1", genus2]) == 4
    assert "cap" in capsys.readouterr().err
    word = " ".join(f"x{i} x{i}" for i in range(21))
    big = _write(
        tmp_path,
        "n21.surf",
        f"surface B: {word}\nenhance B: "
        + " ".join(f"x{i}=1" for i in range(21))
        + "\n",
    )
    assert main(["tqft", "ab=1", big]) == 4
    capsys.readouterr()
    assert main(["tqft", "--cap-dim", "25", "--format", "structured", "ab=1", big]) == 0
    assert _records(capsys)[-1]["exponent"] == 21 % 8


def test_parse_theory_gaussian_literals():
    assert parse_theory("ab=1").euler_weight == GaussianRational(1)
    assert parse_theory("ab=1 euler=-1/2").euler_weight == GaussianRational(
        Fraction(-1, 2)
    )
    assert parse_theory("ab=1 euler=i").euler_weight == GaussianRational(0, 1)
    assert parse_theory("ab=1 euler=-i").euler_weight == GaussianRational(0, -1)
    assert parse_theory("ab=1 euler=1+i").euler_weight == GaussianRational(1, 1)
    assert parse_theory(
        "ab=1 euler=-1/2-3/4i"
    ).euler_weight == GaussianRational(Fraction(-1, 2), Fraction(-3, 4))


def test_parse_theory_exponent_literals():
    thousandth = Fraction(1, 1000)
    assert parse_theory("ab=1 euler=1e-3").euler_weight == thousandth
    assert parse_theory("ab=1 euler=1e-3i").euler_weight == GaussianRational(
        0, thousandth
    )
    assert parse_theory("ab=1 euler=2+1e-3i").euler_weight == GaussianRational(
        2, thousandth
    )
    assert parse_theory("ab=1 euler=2E+1-1e-3i").euler_weight == GaussianRational(
        20, -thousandth
    )


def test_literal_exponents_up_to_the_bound_parse():
    assert MAX_LITERAL_EXPONENT == 4300
    assert parse_theory("ab=1 euler=1e600").euler_weight == 10**600
    assert parse_theory("ab=1 euler=1e-4300i").euler_weight == GaussianRational(
        0, Fraction(1, 10**4300)
    )


@pytest.mark.parametrize(
    "euler",
    [
        "1e999999999",
        "1e4301",
        "2+1e-4301i",
        "1e9_999_999",
        "1E+99999",
        "1e٢٠٠٠٠٠",  # Arabic-Indic digits
        "1e-２００００i",  # fullwidth digits
    ],
)
def test_literal_exponent_beyond_the_bound_is_exit_2_at_once(capsys, euler):
    start = time.perf_counter()
    assert main(["tqft", f"ab=1 euler={euler}"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: <theory>:1:6: decimal exponent ")
    assert "is beyond ±4300" in err


@pytest.mark.parametrize(
    "euler, twin",
    [("1e٦٠٠", "1e600"), ("2+1e-３i", "2+1e-3i"), ("1E+٤٣٠٠", "1e4300")],
)
def test_non_ascii_exponent_digits_read_as_their_ascii_twin(euler, twin):
    value = parse_theory(f"ab=1 euler={euler}").euler_weight
    assert value == parse_theory(f"ab=1 euler={twin}").euler_weight


@contextlib.contextmanager
def _no_int_digit_limit():
    # reading the output back needs the limit lifted too
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)
    set_limit(0)
    try:
        yield
    finally:
        set_limit(old)


def test_exact_results_past_4300_digits_print_in_full(tmp_path, capsys):
    # genus 5: chi = -8, so the Euler factor is 10^-4800
    word = " ".join(f"a{k} b{k} a{k}' b{k}'" for k in range(1, 6))
    values = " ".join(f"a{k}=0 b{k}=0" for k in range(1, 6))
    path = _write(tmp_path, "g5.surf", f"surface G: {word}\nenhance G: {values}\n")
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert main(["tqft", "--format", "structured", "ab=1 euler=1e600", path]) == 0
    with _no_int_digit_limit():
        recs = _records(capsys)
    assert recs[0]["euler_weight"] == {"re": [10**600, 1], "im": [0, 1]}
    factor = {"re": [1, 10**4800], "im": [0, 1]}
    assert [r["euler_factor"] for r in recs[1:]] == [factor, factor]
    assert main(["tqft", "ab=1 euler=1e600", path]) == 0
    out = capsys.readouterr().out
    assert f"total over 1 surface(s): ζ₈^0 = 1, euler factor 1/1{'0' * 4800}\n" in out
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


# ---------------------------------------------------------------- selftest


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_selftest_human_text_is_pinned(capsys):
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "check circle ground parity: pass (126 circle structures agree)",
        "check torus framing value: pass (exponent 4 (want 4, the value -1))",
        "check spin exponents: pass (50 even enhancements in {0, 4})",
        "all checks passed",
    ]


def test_selftest_human_text_goes_to_the_emitter_stream(capsys):
    stream = io.StringIO()
    assert cmd_selftest(Emitter("human", stream)) == 0
    lines = stream.getvalue().splitlines()
    assert len(lines) == 4 and lines[-1] == "all checks passed"
    assert capsys.readouterr().out == ""


def test_selftest_structured(capsys):
    assert main(["selftest", "--format", "structured"]) == 0
    recs = _records(capsys)
    assert len(recs) == 3
    assert all(r["record"] == "selftest" and r["passed"] for r in recs)


# ------------------------------------------------------------- determinism


def test_structured_output_is_deterministic(tmp_path, capsys):
    path = _write(
        tmp_path,
        "all.surf",
        "surface K: a a b b\nenhance K: a=1 b=3\ncircle c: 1 0 1\n",
    )
    runs = []
    for _ in range(2):
        assert main(["arf-brown", "--format", "structured", path]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    for _ in range(2):
        assert main(["majorana", "--format", "structured", path]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[2] == runs[3]


# ------------------------------------------------------------------ parser


def test_second_main_call_builds_no_parser(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "p.surf", "surface P: a a\n")
    assert main(["arf-brown", "--format", "structured", "--enhance", "a=1", path]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    capsys.readouterr()
    # a reused parser starts each call from a fresh --enhance list
    assert main(["arf-brown", "--format", "structured", "--enhance", "a=3", path]) == 0
    assert [rec["values"] for rec in _records(capsys)] == [{"a": 3}]
    assert built == []
    build_parser.__wrapped__()
    assert len(built) == 7


def _spy_on_argparse(monkeypatch):
    """The prog of each ArgumentParser built and of each parse run, with
    build_parser's cached parser dropped."""
    built, parsed = [], []
    init = argparse.ArgumentParser.__init__
    parse = argparse.ArgumentParser.parse_known_args

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def spy(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    build_parser.cache_clear()
    return built, parsed


@pytest.mark.parametrize("command", _COMMANDS)
def test_a_plain_argv_reaches_no_argparse_parser(tmp_path, capsys, monkeypatch, command):
    path = _write(tmp_path, "all.surf", _EVERY_KIND)
    built, parsed = _spy_on_argparse(monkeypatch)
    assert main(_command_argv(command, path) + ["--format", "structured"]) == 0
    assert _records(capsys)
    assert built == parsed == []


def test_an_abbreviated_option_still_reaches_argparse(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "all.surf", _EVERY_KIND)
    built, parsed = _spy_on_argparse(monkeypatch)
    assert main(["surface", "--form", "structured", path]) == 0
    assert [rec["name"] for rec in _records(capsys)] == ["T"]
    assert len(built) == 7
    assert parsed[0] == "arfbrown"


def _two_pass_main(argv):
    """What main did with two parses: the top-level parser, whose
    subparsers action parses the command's arguments a second time; an
    error that carries an exit status is reported as main reports it."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, Emitter(args.format))
    except Exception as exc:
        code = exc.exit_code
        print(f"error: {exc}", file=sys.stderr)
        return code


@pytest.mark.parametrize(
    "line",
    [
        "",
        "-h",
        "--help",
        "--he",
        "bogus",
        "--format structured surface F",
        "-- surface F",
        "surface",
        "surface -h",
        "surface F --bogus",
        "surface F x --y=1",
        "surface --form structured F",
        "surface --format=structured F",
        "surface -- F",
        "majorana F --cap-n 2",
        "arf-brown --cap 3 F",
        "tqft ab=1 F -q",
        "selftest x",
        "selftest --format structured",
        "surface --format= F",
        "arf-brown --enhance= F",
        "majorana --cap-n -2 F",
        "majorana --cap-n=-2 F",
        "surface - F",
        "tqft ab=1 --format structured F",
        "surface --format human --format structured F",
        "arf-brown --enhance a=1 --enhance a=3 F",
        "arf-brown --enhance -h F",
        "arf-brown --enhance -1 F",
        "arf-brown --enhance -- F",
    ],
)
def test_main_parses_as_the_two_pass_parser_does(tmp_path, capsys, line):
    path = _write(tmp_path, "all.surf", _EVERY_KIND)
    argv = [path if word == "F" else word for word in line.split()]
    outcomes = []
    for run in (main, _two_pass_main):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]


# words of an argv: options spelled in full, abbreviated or with =value,
# values argparse takes or refuses, help and the markers a reader must leave
# to argparse, the statement file F and a theory; an option is often drawn
# together with a value word
_OPTION_WORDS = ["--format", "--cap-n", "--cap-dim", "--enhance"]
_VALUE_WORDS = ["structured", "human", "json", "3", "1", "0", "x", "a=1", "a=3 b=1"]
_MARKERS = ["-h", "--help", "--", "-", "-1", ""]
_ARGV_WORDS = [
    *_OPTION_WORDS,
    *_VALUE_WORDS,
    *("--form", "--cap", "--cap-d", "--enh", "--bogus"),
    *("--format=structured", "--format=", "--format=json", "--cap-n=3"),
    *("--cap-n=0", "--cap-n=-2", "--cap-dim=4", "--cap-dim=x"),
    *("--enhance=a=1", "--enhance=", "--enhance=-a"),
    *_MARKERS,
    *("F", "F", "F", "F", "ab=1", "ab=1 euler=2", "ab=9"),
]


def _outcome(run, argv):
    """(exit code, stdout, stderr) of run(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_the_argv_reader_agrees_with_argparse(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    path = _write(tmp_path, "all.surf", _EVERY_KIND)
    heads = st.sampled_from([*_COMMANDS] * 4 + ["bogus", "-h", "--format", ""])
    values = st.sampled_from(_VALUE_WORDS + _MARKERS + ["F"])
    option = st.tuples(st.sampled_from(_OPTION_WORDS), values)
    items = st.one_of(st.sampled_from(_ARGV_WORDS).map(lambda w: (w,)), option)
    argvs = st.tuples(heads, st.lists(items, max_size=5))

    @settings(max_examples=400, deadline=None, database=None)
    @given(argvs)
    def check(argv):
        head, items = argv
        argv = [path if w == "F" else w for w in (head, *(w for i in items for w in i))]
        args = _read_argv(argv)  # never raises
        if args is not None:
            assert vars(args) == vars(build_parser().parse_args(argv))
        assert _outcome(main, argv) == _outcome(_two_pass_main, argv)

    check()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("surface", "--cap-n"),
        ("selftest", "--cap-n"),
        ("arf-brown", "--cap-n"),
        ("tqft", "--cap-n"),
        ("surface", "--cap-dim"),
        ("majorana", "--cap-dim"),
        ("selftest", "--cap-dim"),
    ],
)
def test_commands_take_no_cap_they_do_not_read(tmp_path, capsys, command, flag):
    path = _write(tmp_path, "t.surf", "surface T: a b a' b'\nenhance T: a=0 b=0\n")
    theory = ["ab=1"] if command == "tqft" else []
    files = [] if command == "selftest" else [path]
    with pytest.raises(SystemExit) as done:
        main([command, flag, "3", *theory, *files])
    assert done.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    [("majorana", "--cap-n"), ("arf-brown", "--cap-dim"), ("tqft", "--cap-dim")],
)
@pytest.mark.parametrize("value", ["x", "1.5", "0", "-2"])
def test_cap_that_is_not_a_positive_integer_is_a_usage_error(
    tmp_path, capsys, command, flag, value
):
    path = _write(tmp_path, "c.surf", "circle c: 0\n")
    theory = ["ab=1"] if command == "tqft" else []
    with pytest.raises(SystemExit) as done:
        main([command, f"{flag}={value}", *theory, path])
    assert done.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be a positive integer" in err
    assert "_positive_int" not in err


@pytest.mark.parametrize(
    "spec, col",
    [("ab=1 ab=2", 6), ("ab=1 euler=2 euler=3", 14), ("euler=2 ab=1 euler=2", 14)],
)
def test_repeated_theory_field_is_exit_2_at_the_repeat(tmp_path, capsys, spec, col):
    path = _write(tmp_path, "c.surf", "circle c: 0\n")
    assert main(["tqft", spec, path]) == 2
    assert f"<theory>:1:{col}: theory field" in capsys.readouterr().err


def test_zero_euler_weight_is_reported_at_its_token(capsys):
    assert main(["tqft", "ab=1 euler=0i"]) == 2
    assert "<theory>:1:6: the Euler weight must be nonzero" in capsys.readouterr().err


def test_redefined_surface_name_is_exit_2_at_the_second_definition(tmp_path, capsys):
    first = _write(tmp_path, "a.surf", "surface T: a b a' b'\nenhance T: a=2 b=2\n")
    second = _write(tmp_path, "b.surf", "# again\nsurface T: a a\nenhance T: a=1\n")
    for argv in (["arf-brown", first, second], ["tqft", "ab=1", first, second]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{second}:2:1: surface 'T' is already defined at {first}:1" in err
    assert main(["surface", "--format", "structured", first, second]) == 0
    assert [r["word"] for r in _records(capsys)] == ["a b a' b'", "a a"]


# -------------------------------------------------------------- exit codes


def test_each_reported_error_carries_its_documented_exit_code():
    for cls, code in [
        (ParseError, 2),
        (errors.ParityViolation, 3),
        (errors.NotSpin, 3),
        (errors.DimensionMismatch, 3),
        (errors.HasBoundary, 3),
        (PreconditionError, 3),
        (errors.CapExceeded, 4),
        (errors.CertificateError, 5),
        (quadform.NotRootOfUnity, 5),
        # errors no command reports escape main
        (surface.MalformedWord, None),
        (surface.MultipleVertices, None),
        (f2.NotAlternating, None),
        (f2.Degenerate, None),
        (f2.OddDimension, None),
        (clifford.UnpairedSignature, None),
        (TokenError, None),
    ]:
        if code is None:
            assert not hasattr(cls, "exit_code"), cls
        else:
            assert cls.exit_code == code, cls


def test_an_error_without_an_exit_code_escapes_main(tmp_path, capsys, monkeypatch):
    failure = RuntimeError("no exit status")

    def fail(scheme):
        raise failure

    monkeypatch.setattr(surface, "classify", fail)
    path = _write(tmp_path, "t.surf", "surface T: a b a' b'\n")
    with pytest.raises(RuntimeError) as caught:
        main(["surface", path])
    assert caught.value is failure
    assert capsys.readouterr() == ("", "")


# --------------------------------------------------------- as a process


def _cli_process(*argv: str, **kwargs) -> subprocess.Popen:
    """`python -m arfbrown.cli ARGV` on this checkout."""
    src = str(Path(arfbrown.__file__).resolve().parent.parent)
    return subprocess.Popen(
        [sys.executable, "-m", "arfbrown.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs},
    )


def test_script_exits_with_the_codes_of_main(tmp_path):
    # run with -m, cli.py is __main__ while the commands raise the errors of
    # arfbrown.cli and arfbrown.commands; each carries its own exit code
    bad = _write(tmp_path, "bad.surf", "surface K: a a b\n")
    big = _write(tmp_path, "big.surf", "circle c: " + "0 " * 11 + "\n")
    bare = _write(tmp_path, "bare.surf", "surface T: a b a' b'\n")
    for argv, code in [
        (["surface", bad], 2),
        (["majorana", big], 4),
        (["arf-brown", bare], 3),
    ]:
        proc = _cli_process(*argv)
        out, err = proc.communicate(timeout=60)
        assert out == b"" and err.startswith(b"error: "), err
        assert b"Traceback" not in err
        assert proc.returncode == code, (argv, err)


def test_script_writes_the_records_of_main(tmp_path, capsys):
    # run with -m, the Emitter is __main__'s while surface's gram field is an
    # arfbrown.cli JSONText; it must still be written as a nested array
    path = _write(tmp_path, "k.surf", "surface K: a a b b\nsurface T: a b a' b'\n")
    assert main(["surface", "--format", "structured", path]) == 0
    expected = capsys.readouterr().out.encode()
    assert b'"gram":[[' in expected
    proc = _cli_process("surface", "--format", "structured", path)
    out, err = proc.communicate(timeout=60)
    assert (out, err, proc.returncode) == (expected, b"", 0)


def test_closed_stdout_exits_141_without_a_traceback(tmp_path):
    # the output outgrows a 64 KiB pipe buffer, so the writer is still
    # writing when the reader closes the pipe after one line
    path = _write(tmp_path, "c.surf", "".join(f"circle c{k}: 1 0 1\n" for k in range(2000)))
    proc = _cli_process("majorana", "--format", "structured", path)
    assert json.loads(proc.stdout.readline())["name"] == "c0"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and "Exception ignored" not in err, err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_stdout_write_exits_74_without_a_traceback(tmp_path):
    path = _write(tmp_path, "t.surf", "surface T: a b a' b'\n")
    with open("/dev/full", "wb") as full:
        proc = _cli_process("surface", path, stdout=full)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 74
    lines = err.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write output: ")
    assert "Traceback" not in err.decode()


def test_failed_write_to_a_stream_without_a_descriptor_exits_74(
    tmp_path, capsys, monkeypatch
):
    # capsys's stdout has no file descriptor, so there is nothing to redirect
    path = _write(tmp_path, "t.surf", "surface T: a b a' b'\n")

    def full(self, record, human):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(Emitter, "emit", full)
    assert main(["surface", path]) == 74
    assert capsys.readouterr().err == (
        f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"
    )


@pytest.mark.parametrize("command", _COMMANDS)
@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_a_process_without_stdout_still_exits_0(tmp_path, monkeypatch, fmt, command):
    # sys.stdout is None when a process starts with file descriptor 1 closed;
    # print drops what it is given, and main flushes nothing
    path = _write(tmp_path, "all.surf", _EVERY_KIND)
    monkeypatch.setattr(sys, "stdout", None)
    assert main(_command_argv(command, path) + ["--format", fmt]) == 0
