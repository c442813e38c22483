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


# exact elimination that only the tests' oracles use; exactla keeps them
# because the benchmark tracer names them
ORACLE_ONLY = {"solve_in_span", "fraction_rref", "modular_nullity"}


def test_no_runtime_module_imports_the_oracle_eliminations():
    offenders = []
    for path in sorted(Path(arfbrown.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.rpartition(".")[2] for alias in node.names}
                offenders += [(path.name, n) for n in sorted(names & ORACLE_ONLY)]
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
