"""Exact invariants of combinatorial surfaces and the Majorana chain.

Subpackages by topic: GF(2) linear algebra (f2), polygon gluing words
(surface), Z/4 quadratic enhancements and Gauss sums (quadform), graded
Clifford algebras (clifford), combinatorial structures on 1-manifolds
(pin1), the chain Hamiltonian and its exact spectra (majorana), the
theory evaluator (tqft), and the command line (cli).  The package exports
every name in the `__all__` of its runtime modules, and no other.
"""

from . import clifford, errors, f2, majorana, pin1, quadform, surface, tqft
from .clifford import *
from .errors import *
from .f2 import *
from .majorana import *
from .pin1 import *
from .quadform import *
from .surface import *
from .tqft import *

__all__ = [
    name
    for module in (errors, f2, surface, quadform, clifford, pin1, majorana, tqft)
    for name in module.__all__
]
