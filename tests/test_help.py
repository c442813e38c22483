"""The --help text of the command line, byte for byte, at 80 columns."""

import pytest

from arfbrown.cli import main

_OPTIONS = """\
options:
  -h, --help            show this help message and exit
  --format {human,structured}
                        human text or JSON lines with exact numbers
  --cap-n N             largest vertex count for chain spectra (default 10)
  --cap-dim D           largest form dimension for Arf-Brown invariants
                        (default 20)
"""

HELP = {
    (): """\
usage: arfbrown [-h] {surface,arf-brown,majorana,tqft,selftest} ...

Exact invariants of surfaces, 1-manifolds, and chains.

positional arguments:
  {surface,arf-brown,majorana,tqft,selftest}
    surface             classify gluing words
    arf-brown           Gauss sums and invariants of enhanced surfaces
    majorana            chain spectra on 1-manifolds
    tqft                evaluate a theory on closed objects
    selftest            run the cross-module checks

options:
  -h, --help            show this help message and exit
""",
    ("surface",): """\
usage: arfbrown surface [-h] [--format {human,structured}] [--cap-n N]
                        [--cap-dim D]
                        FILE [FILE ...]

positional arguments:
  FILE

"""
    + _OPTIONS,
    ("arf-brown",): """\
usage: arfbrown arf-brown [-h] [--format {human,structured}] [--cap-n N]
                          [--cap-dim D] [--enhance SPEC]
                          FILE [FILE ...]

positional arguments:
  FILE

"""
    + _OPTIONS
    + """\
  --enhance SPEC        inline enhancement like 'a=1 b=3' (file must hold one
                        surface)
""",
    ("majorana",): """\
usage: arfbrown majorana [-h] [--format {human,structured}] [--cap-n N]
                         [--cap-dim D]
                         FILE [FILE ...]

positional arguments:
  FILE

"""
    + _OPTIONS,
    ("tqft",): """\
usage: arfbrown tqft [-h] [--format {human,structured}] [--cap-n N]
                     [--cap-dim D]
                     theory [FILE ...]

positional arguments:
  theory                theory spec like 'ab=1 euler=2'
  FILE

"""
    + _OPTIONS,
    ("selftest",): """\
usage: arfbrown selftest [-h] [--format {human,structured}] [--cap-n N]
                         [--cap-dim D]

"""
    + _OPTIONS,
}


@pytest.mark.parametrize("command", HELP, ids=lambda c: " ".join(c) or "arfbrown")
def test_help_text_is_pinned(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    with pytest.raises(SystemExit) as done:
        main([*command, "--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out == HELP[command]
