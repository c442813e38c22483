"""The public names: every module's ``__all__`` and the package's, and
the names no runtime module may import."""

import ast
import importlib
import pkgutil
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
