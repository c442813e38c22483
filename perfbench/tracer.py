"""Spans around the package's public functions, for the traced run only.

``Tracer.install()`` replaces each function in ``LAYERS`` by a wrapper in
every ``arfbrown.*`` namespace that binds it, so calls from one module into
another (``majorana`` -> ``modular_nullity``, ``tqft`` -> ``ground_states``)
are caught without touching the package's files; ``uninstall()`` puts the
originals back.  A span is [name, start, end, parent span index, request
id].  Spans stay in memory until ``write()``.  Self time is a span's
duration minus the durations of its child spans.  The package runs on one
thread and has no queues, so no span ever waits.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = {
    "exactla": ["modular_nullity", "rational_nullity", "solve_in_span", "fraction_rref"],
    "majorana": ["ground_states", "doubled_hamiltonian", "interval_bimodule_check",
                 "majorana_operators", "reference_module", "epsilon_operator"],
    "quadform": ["gauss_sum", "arf_brown", "arf"],
    "f2": ["symplectic_basis"],
    "tqft": ["partition_function", "surface_form", "consistency_report"],
    "surface": ["analyze", "normalize", "intersection_form"],
    "cli": ["build_parser", "parse_file", "Emitter.emit", "main"],
    "clifford": ["irreducible_supermodule"],
    "pin1": ["classify_circle"],
}

# functions whose returned arrays count toward majorana.dense_bytes
_DENSE = {"majorana.majorana_operators", "majorana.doubled_hamiltonian",
          "majorana.epsilon_operator", "majorana.reference_module"}


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, dict):
        return sum(_nbytes(v) for v in value.values())
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    if dataclasses.is_dataclass(value):
        return sum(_nbytes(getattr(value, f.name)) for f in dataclasses.fields(value))
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._enhancements: dict[int, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    def start_request(self, request_id) -> None:
        self.request = request_id
        self._enhancements.clear()

    def _count(self, name: str, args: tuple, result) -> None:
        c = self.counts
        if name == "exactla.modular_nullity":
            c["entries"] += args[0].size
            c["nonzero"] += result > 0
            c["beyond_first_prime"] += args[1] != self._first_prime
            c["dense_bytes"] += args[0].nbytes
        elif name == "majorana.ground_states":
            c["basis_states"] += 1 << args[0].vertex_count
        elif name == "quadform.gauss_sum":
            q = args[0]
            c["classes"] += 1 << q.dim
            if id(q) not in self._enhancements:
                self._enhancements[id(q)] = q  # held so that ids stay unique
                c["enhancements"] += 1
        elif name == "surface.intersection_form":
            c["form_entries"] += result.dim ** 2
        if name in _DENSE:
            c["dense_bytes"] += _nbytes(result)

    def _wrap(self, name: str, original):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            self._count(name, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        from arfbrown.exactla import MOD_PRIMES

        self._first_prime = MOD_PRIMES[0]
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "arfbrown" or n.startswith("arfbrown.")]
        for module, names in LAYERS.items():
            home = sys.modules[f"arfbrown.{module}"]
            for qualname in names:
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(home, cls_name)
                    self._patch(owner, attr, self._wrap(f"{module}.{qualname}",
                                                        getattr(owner, attr)))
                    continue
                original = getattr(home, qualname)
                wrapper = self._wrap(f"{module}.{qualname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer self time, call counts and the derived counters."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        out = {}
        for module, names in LAYERS.items():
            for qualname in names:
                name = f"{module}.{qualname}"
                out[f"{name}.self_s"] = self_s[name]
                out[f"{name}.calls"] = calls[name]
        c = self.counts
        nullity_calls = calls["exactla.modular_nullity"]
        gauss_calls = calls["quadform.gauss_sum"]
        out.update({
            "exactla.modular_nullity.entries": c["entries"],
            "exactla.modular_nullity.nonzero_ratio":
                c["nonzero"] / nullity_calls if nullity_calls else 0.0,
            "exactla.modular_nullity.calls_beyond_first_prime": c["beyond_first_prime"],
            "majorana.ground_states.basis_states": c["basis_states"],
            "majorana.dense_bytes": c["dense_bytes"],
            "quadform.gauss_sum.classes": c["classes"],
            "quadform.gauss_sum.calls_per_enhancement":
                gauss_calls / c["enhancements"] if c["enhancements"] else 0.0,
            "surface.intersection_form.form_entries": c["form_entries"],
        })
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
