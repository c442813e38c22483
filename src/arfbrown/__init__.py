"""Exact invariants of combinatorial surfaces and the Majorana chain.

Subpackages by topic: GF(2) linear algebra (f2), polygon gluing words
(surface), Z/4 quadratic enhancements and Gauss sums (quadform), Gaussian
rationals, Clifford signatures and the supermodule of generator words
(clifford), combinatorial structures on 1-manifolds (pin1), the chain
Hamiltonian and its exact spectra (majorana), the theory evaluator
(tqft), and the command line (cli).  The package exports
every name in the `__all__` of its runtime modules, and no other.  The
namespace is lazy: `import arfbrown` loads no submodule, and a module
loads on the first use of a name that needs it.
"""

from importlib import import_module

_RUNTIME = ("errors", "f2", "surface", "quadform", "clifford", "pin1", "majorana", "tqft")


def __getattr__(name: str):
    """A submodule, or else an exported name from the runtime modules; kept once found."""
    try:
        value = import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
        modules = [import_module(f"{__name__}.{module}") for module in _RUNTIME]
        homes = {export: module for module in modules for export in module.__all__}
        if name == "__all__":
            value = list(homes)
        elif name in homes:
            value = getattr(homes[name], name)
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*__getattr__("__all__"), *globals()})  # loads, then lists
