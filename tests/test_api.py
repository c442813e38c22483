"""The public names: every module's ``__all__`` and the package's, and
the names no runtime module may import."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import arfbrown

MODULES = {
    name: importlib.import_module(f"arfbrown.{name}")
    for _, name, _ in pkgutil.iter_modules(arfbrown.__path__)
}


def test_every_listed_name_resolves():
    for owner in [arfbrown, *MODULES.values()]:
        missing = [name for name in owner.__all__ if not hasattr(owner, name)]
        assert not missing, (owner.__name__, missing)


def test_no_name_is_listed_twice():
    for owner in [arfbrown, *MODULES.values()]:
        repeated = [n for n, c in Counter(owner.__all__).items() if c > 1]
        assert not repeated, (owner.__name__, repeated)
    # each public name has one home module
    homes = Counter(name for m in MODULES.values() for name in m.__all__)
    assert [n for n, c in homes.items() if c > 1] == []


def test_package_names_are_their_home_objects():
    home = {name: m for m in MODULES.values() for name in m.__all__}
    for name in arfbrown.__all__:
        assert name in home, name
        assert getattr(arfbrown, name) is getattr(home[name], name), name


RUNTIME = [
    "errors", "f2", "surface", "quadform", "clifford", "pin1", "majorana", "tqft"
]


def test_package_exports_every_module_name():
    # exactla, cli, commands and _dense stay unexported
    want = [name for module in RUNTIME for name in MODULES[module].__all__]
    assert arfbrown.__all__ == want
    assert sorted(set(MODULES) - set(RUNTIME)) == ["_dense", "cli", "commands", "exactla"]


# exact elimination that only the tests' oracles use; exactla keeps them
# because the benchmark tracer names them
ORACLE_ONLY = {"solve_in_span", "fraction_rref", "modular_nullity", "rational_nullity"}


def test_no_runtime_module_imports_the_oracle_eliminations():
    offenders = []
    for path in sorted(Path(arfbrown.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.rpartition(".")[2] for alias in node.names}
                offenders += [(path.name, n) for n in sorted(names & ORACLE_ONLY)]
    assert offenders == []


def test_no_runtime_module_imports_a_private_name_of_another():
    package = Path(arfbrown.__file__).parent
    modules = {path.stem for path in package.rglob("*.py")}  # _dense is one
    offenders = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                offenders += [
                    (path.name, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_") and alias.name not in modules
                ]
    assert offenders == []


# every command runs in-process on one file, then numpy must still be absent
_CLI_WITHOUT_NUMPY = """
import contextlib, io, os, sys, tempfile
import arfbrown.cli as cli
with tempfile.TemporaryDirectory() as tmp:
    closed, chains = os.path.join(tmp, "closed.surf"), os.path.join(tmp, "chains.surf")
    with open(closed, "w") as handle:
        handle.write("surface K: a a b b\\nenhance K: a=1 b=3\\ncircle c: 1 0 1\\n")
    with open(chains, "w") as handle:
        handle.write("circle c: 1 0 1\\ninterval j: 1 0 orientation=-\\n")
    commands = [["surface", closed], ["arf-brown", closed], ["majorana", chains],
                ["tqft", "ab=1", closed], ["selftest"]]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([argv[0], "--format", "structured", *argv[1:]])
        assert code == 0, (argv, code)
assert "numpy" not in sys.modules, "the command line imported numpy"
"""


def test_command_line_runs_without_numpy():
    src = str(Path(arfbrown.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _CLI_WITHOUT_NUMPY],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


# the record types are named tuples, so starting the command line compiles
# no generated dataclass code and loads neither module
_CLI_WITHOUT_DATACLASSES = """
import sys
import arfbrown.cli as cli
cli.build_parser()
loaded = sorted({"dataclasses", "inspect"} & set(sys.modules))
assert not loaded, f"starting the command line loaded {loaded}"
"""


def test_command_line_starts_without_dataclasses():
    src = str(Path(arfbrown.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _CLI_WITHOUT_DATACLASSES],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def _python(snippet: str, *args: str) -> str:
    """Run a snippet in a fresh interpreter on this checkout; its stdout."""
    src = str(Path(arfbrown.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", snippet, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


_LOADED = 'print(*sorted(m for m in sys.modules if m.startswith("arfbrown")))'


def test_importing_the_package_loads_no_submodule():
    assert _python("import sys, arfbrown\n" + _LOADED).split() == ["arfbrown"]


def test_command_line_starts_with_only_cli():
    snippet = "import sys\nimport arfbrown.cli as cli\ncli.build_parser()\n" + _LOADED
    assert _python(snippet).split() == ["arfbrown", "arfbrown.cli"]


def test_each_command_body_lives_in_its_own_module():
    cli = importlib.import_module("arfbrown.cli")
    assert [name for name in vars(cli) if name.startswith("cmd_")] == []
    for command in ["surface", "arf_brown", "majorana", "tqft", "selftest"]:
        module = importlib.import_module(f"arfbrown.commands.{command}")
        assert [n for n in module.__all__ if n.startswith("cmd_")] == [f"cmd_{command}"]


# one command runs in-process on one file (FILE in its argv); its output is
# discarded
_AFTER_COMMAND = """
import contextlib, io, os, sys, tempfile
import arfbrown.cli as cli
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "k.surf")
    with open(path, "w") as handle:
        handle.write("surface K: a a b b\\nenhance K: a=1 b=3\\ncircle c: 1 0 1\\n")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([path if a == "FILE" else a for a in sys.argv[1:]])
    assert code == 0, code
""" + _LOADED


def test_a_plain_command_line_loads_no_argparse():
    # argparse writes help and usage errors only; a plain argv never needs it
    snippet = _AFTER_COMMAND + '\nprint("argparse" in sys.modules)'
    out = _python(snippet, "surface", "--format", "structured", "FILE").split()
    assert "arfbrown.commands.surface" in out and out[-1] == "False"


@pytest.mark.parametrize(
    "argv, absent, commands",
    [
        (
            ["surface", "FILE"],
            ["f2", "quadform", "tqft", "majorana", "clifford", "pin1", "exactla"],
            ["surface"],
        ),
        (
            ["arf-brown", "FILE"],
            ["majorana", "tqft", "clifford", "exactla"],
            ["arf_brown", "enhanced"],
        ),
        (["majorana", "FILE"], ["_dense", "exactla"], ["majorana"]),
        (["tqft", "ab=1", "FILE"], ["majorana", "exactla"], ["enhanced", "tqft"]),
        (["selftest"], ["_dense", "exactla"], ["selftest"]),
    ],
    ids=["surface", "arf-brown", "majorana", "tqft", "selftest"],
)
def test_each_command_loads_only_its_modules(argv, absent, commands):
    loaded = _python(_AFTER_COMMAND, *argv).split()
    assert [m for m in loaded if m[len("arfbrown."):] in absent] == []
    # the command package and the one command's modules, no other command's
    assert [m for m in loaded if m.startswith("arfbrown.commands")] == [
        "arfbrown.commands", *(f"arfbrown.commands.{c}" for c in commands)
    ]


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from arfbrown import *", namespace)
    assert [n for n in arfbrown.__all__ if n not in namespace] == []
    assert all(namespace[n] is getattr(arfbrown, n) for n in arfbrown.__all__)
    assert set(arfbrown.__all__) | set(RUNTIME) <= set(dir(arfbrown))


def test_unknown_name_is_an_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'arfbrown' has no attribute 'nope'"):
        arfbrown.nope


def test_the_benchmark_worker_reaches_its_library_names():
    # perfbench/worker.py builds chains as majorana.ChainSetup.<kind>(bits,
    # orientation) and calls the operations below by name; the tracer reads
    # vertex_count of the setup that ground_states gets
    clifford, majorana, pin1 = (MODULES[m] for m in ("clifford", "majorana", "pin1"))
    assert majorana.ChainSetup is pin1.ChainSetup
    assert len(clifford.irreducible_supermodule(clifford.Signature.cl(1, 1))) == 2
    for op, kind in [
        ("ground_states", "circle"),
        ("interval_bimodule_check", "interval"),
        ("epsilon_operator", "circle"),
        ("reference_module", "circle"),
    ]:
        setup = getattr(majorana.ChainSetup, kind)([1, 0], -1)
        assert setup.vertex_count == (2 if kind == "circle" else 3)
        getattr(majorana, op)(setup)
