"""Answer checks, run after each request's timer has stopped.

Each check returns a list of problems; an empty list means the answer is
right.  CLI answers are compared with the oracles in ``oracle.py``; library
answers are checked from their mathematical properties with numpy.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import numpy as np

from oracle import (
    analyse_surface,
    brown_exponent,
    chain_spectrum,
    cyc_conj,
    cyc_mul,
    enc_gaussian,
    expected_gauss_sum,
    gaussian_pow,
)

_ERROR_LINE = re.compile(r"error: \S")
_PARSE_ERROR = re.compile(r"error: .+:\d+:\d+: ")


def _enc_fraction(f: Fraction) -> list[int]:
    return [f.numerator, f.denominator]


def _surface_record(name: str, word: str) -> dict:
    info = analyse_surface(word)
    return {"record": "surface", "name": name, "word": word, **info}


def _majorana_record(stmt: dict) -> dict:
    kind, bits = stmt["kind"], stmt["bits"]
    n = len(bits) if kind == "circle" else len(bits) + 1
    edges = n if kind == "circle" else n - 1
    if kind == "circle":
        circle_class = "bounding" if sum(bits) % 2 else "nonbounding"
        dim, parity = 1, "even" if sum(bits) % 2 else "odd"
    else:
        circle_class, dim, parity = None, 2, "mixed"
    return {
        "record": "majorana",
        "name": stmt["name"],
        "kind": kind,
        "bits": bits,
        "orientation": "+" if stmt["orientation"] == 1 else "-",
        "circle_class": circle_class,
        "min_eigenvalue": _enc_fraction(Fraction(-edges, 2)),
        "ground_dimension": dim,
        "ground_parity": parity,
        "spectrum": chain_spectrum(kind, n),
        "expected_dimension": dim,
        "expected_parity": parity,
        "verdict": "ok",
    }


def _brown(pair: dict) -> tuple[dict, int]:
    info = analyse_surface(pair["word"])
    values = [pair["values"][label] for label in info["form_basis"]]
    return info, brown_exponent(info["gram"], values)


def _arf_brown_problems(pair: dict, got: dict) -> list[str]:
    info, k = _brown(pair)
    dim = info["betti1"]
    values = {label: v % 4 for label, v in pair["values"].items()}
    even = all(v % 2 == 0 for v in values.values())
    want = {
        "record": "arf-brown",
        "surface": pair["surface"],
        "values": values,
        "dim": dim,
        "exponent": k,
        "gauss_sum": list(expected_gauss_sum(k, dim)),
        "arf": k // 4 if even else None,
    }
    problems = [f"{key}: got {got.get(key)!r}, want {v!r}" for key, v in want.items()
                if got.get(key) != v]
    s = tuple(got.get("gauss_sum") or (0, 0, 0, 0))
    if len(s) != 4 or cyc_mul(s, cyc_conj(s)) != (2 ** dim, 0, 0, 0):
        problems.append(f"S * conj(S) != 2^{dim}")
    if even and k not in (0, 4):
        problems.append(f"even enhancement with exponent {k}")
    return problems


def _expected_tqft(expect: dict) -> list[dict]:
    ab = expect["ab"]
    w = (Fraction(expect["euler"][0]), Fraction(expect["euler"][1]))
    out = [{
        "record": "theory",
        "ab_power": ab,
        "euler_weight": enc_gaussian(w),
        "stable": w in ((1, 0), (-1, 0)),
    }]
    for item in expect["components"]:
        if item["kind"] == "point":
            out.append({"record": "point", "name": item["name"], "algebra_generators": ab})
        else:
            bounding = sum(item["bits"]) % 2 == 1
            out.append({
                "record": "circle",
                "name": item["name"],
                "class": "bounding" if bounding else "nonbounding",
                "parity": "odd" if not bounding and ab % 2 else "even",
            })
    total_k = total_chi = 0
    for pair in expect["pairs"]:
        info, k = _brown(pair)
        total_k += k
        total_chi += info["euler_char"]
        out.append({
            "record": "partition",
            "name": pair["surface"],
            "exponent": ab * k % 8,
            "euler_factor": enc_gaussian(gaussian_pow(*w, info["euler_char"])),
        })
    if expect["pairs"]:
        out.append({
            "record": "total",
            "surfaces": len(expect["pairs"]),
            "exponent": ab * total_k % 8,
            "euler_factor": enc_gaussian(gaussian_pow(*w, total_chi)),
        })
    return out


def _compare(got: list[dict], want: list[dict]) -> list[str]:
    if len(got) != len(want):
        return [f"{len(got)} records, want {len(want)}"]
    return [f"record {i}: got {g}, want {w}" for i, (g, w) in enumerate(zip(got, want))
            if g != w]


def check_cli(req: dict, code, stdout: str, stderr: str) -> list[str]:
    """Problems with one CLI answer: exit code, records, error message."""
    expect, op = req["expect"], req["op"]
    want_code = expect.get("exit", 0)
    if code != want_code:
        return [f"exit code {code!r}, want {want_code}"]
    if want_code:
        pattern = _PARSE_ERROR if want_code == 2 and op != "tqft" else _ERROR_LINE
        return [] if pattern.match(stderr) else [f"error message {stderr!r}"]
    try:
        records = [json.loads(line) for line in stdout.splitlines()]
    except json.JSONDecodeError as exc:
        return [f"unparseable output: {exc}"]
    if op == "surface":
        return _compare(records, [_surface_record(s["name"], s["word"]) for s in expect["surfaces"]])
    if op == "majorana":
        return _compare(records, [_majorana_record(s) for s in expect["components"]])
    if op == "tqft":
        return _compare(records, _expected_tqft(expect))
    if op == "arf-brown":
        if len(records) != len(expect["pairs"]):
            return [f"{len(records)} records, want {len(expect['pairs'])}"]
        return [p for pair, got in zip(expect["pairs"], records)
                for p in _arf_brown_problems(pair, got)]
    if op == "selftest":
        failed = [r for r in records if r.get("record") != "selftest" or r.get("passed") is not True]
        return [f"selftest record {r}" for r in failed] or ([] if records else ["no checks"])
    return [f"unknown command {op}"]


def _diagonal_only(mat: np.ndarray, diag: np.ndarray) -> bool:
    return (
        mat.shape == (diag.size, diag.size)
        and np.array_equal(np.diagonal(mat), diag)
        and np.count_nonzero(mat) == np.count_nonzero(diag)
    )


def _popcounts(n: int) -> np.ndarray:
    return np.array([m.bit_count() for m in range(1 << n)])


def check_lib(req: dict, result) -> list[str]:
    """Problems with one library result, from its defining properties."""
    op, args = req["op"], req["args"]
    if op == "interval_bimodule_check":
        ok = result.passed is True and result.ground_dimension == 2
        return [] if ok else [f"interval report {result}"]
    if op == "epsilon_operator":
        n = len(args["bits"])
        want = np.where((n - _popcounts(n)) % 2, -1, 1)
        return [] if _diagonal_only(result, want) else ["epsilon is not diag (-1)^(n-k)"]
    if op == "reference_module":
        n = len(args["bits"])
        k = _popcounts(n)
        eps = np.where(k % 2, 1, -1)
        masks = np.arange(1 << n)
        h2 = sum(np.where(((masks >> e) & 1) ^ b, -1, 1) for e, b in enumerate(args["bits"]))
        problems = []
        if not _diagonal_only(result.epsilon, eps):
            problems.append("reference epsilon is not diag (-1)^(k+1)")
        if not _diagonal_only(result.doubled_hamiltonian, h2):
            problems.append("reference 2H is not the diagonal sum of edge signs")
        return problems
    if op == "irreducible_supermodule":
        k = args["k"]
        mats = []
        for m in result:
            rows = m.rows()
            entries = [[z.re for z in row] for row in rows]
            if any(z.im for row in rows for z in row):
                return ["non-real generator entry"]
            mats.append(np.array(entries, dtype=np.int64))
        size = 1 << k
        if len(mats) != 2 * k or any(m.shape != (size, size) for m in mats):
            return [f"{len(mats)} generators, want {2 * k} of size {size}"]
        ident = np.eye(size, dtype=np.int64)
        for i, a in enumerate(mats):
            if not np.array_equal(a @ a, ident if i < k else -ident):
                return [f"generator {i} squares to the wrong sign"]
            for b in mats[i + 1:]:
                if np.any(a @ b + b @ a):
                    return [f"generator {i} does not anticommute"]
        return []
    return [f"unknown library call {op}"]
