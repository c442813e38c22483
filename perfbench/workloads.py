"""Seeded request lists for the three workloads.

``build(workload, seed, outdir)`` writes one statement file per CLI request
into ``outdir`` and returns the request list.  The size profile of each
workload is fixed (so that runs with different seeds do the same amount of
work); the seed picks the contents: edge bits, orientations, gluing words,
enhancement values and theories.  The request order is fixed per workload.

A request is a dict with an ``id``, an ``op`` (a CLI command name or a
library function name) and its arguments: ``argv`` and ``expect`` (the
generator's knowledge that the checker needs) for the CLI, ``args`` for a
library call.  Nothing in here imports the package under test.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from oracle import analyse_surface, canonical_word, gaussian_literal, word_text

WORKLOADS = ("chains", "gauss", "small-mix")
# The seed whose CLI output digests are recorded in golden.json.
DEFAULT_SEED = 0

# vertices -> requests; orientations are drawn at random.
PROFILES = {
    "full": {
        # The median request falls in the middle of the n=5 circles and the
        # p90 one in the middle of the n=8 circles, not between two sizes.
        "chain_circles": {3: 6, 4: 8, 5: 20, 6: 5, 7: 3, 8: 10, 9: 1, 10: 1},
        "chain_intervals": {3: 4, 4: 8, 5: 6, 6: 5, 7: 3, 8: 4, 9: 1},
        "bimodule_edges": [2, 3, 4, 5, 6, 7, 8],
        "epsilon_n": [3, 4, 5, 6, 7, 8, 9, 10],
        "reference_n": [3, 4, 5, 6, 7, 8],
        # form dimension -> arf-brown requests
        "arf_dims": {2: 6, 3: 6, 4: 6, 5: 6, 6: 6, 7: 5, 8: 5, 9: 4, 10: 4,
                     11: 4, 12: 4, 13: 3, 14: 3, 15: 3, 16: 4, 17: 2, 18: 2,
                     19: 1, 20: 1},
        # one tuple of surface dimensions per tqft request
        "tqft_dims": [(20,), (19,), (18,), (16,), (14, 2), (12,), (10, 4)]
        + [tuple(2 + (3 * i + 5 * j) % 7 for j in range(1 + i % 3)) for i in range(24)],
        "mix_surface_letters": [1 + (99 * i * i) // (99 * 99) for i in range(100)],
        # vertex counts; the p95 request falls among the n=6 chains
        "mix_chain_n": [2, 3, 4, 5] * 10 + [6] * 16,
        "mix_arf": 50,
        "mix_tqft": 40,
        "mix_selftest": 2,
        "mix_supermodule_k": [1, 2, 3, 4, 5] * 2,
        "mix_malformed": 20,
    },
    "smoke": {
        "chain_circles": {3: 2, 4: 1},
        "chain_intervals": {3: 2},
        "bimodule_edges": [2],
        "epsilon_n": [3],
        "reference_n": [3],
        "arf_dims": {2: 2, 3: 1, 4: 1},
        "tqft_dims": [(2,), (3, 2)],
        "mix_surface_letters": [1, 2, 5],
        "mix_chain_n": [2, 3, 4],
        "mix_arf": 3,
        "mix_tqft": 3,
        "mix_selftest": 1,
        "mix_supermodule_k": [1, 2],
        "mix_malformed": 12,
    },
}

NON_UTF8 = b"surface T: a b a' b'\n# caf\xe9 \xff\n"


class _Writer:
    """Numbers requests and writes their statement files."""

    def __init__(self, outdir: str):
        self.outdir = outdir
        self.requests: list[dict] = []

    def file(self, text: str | bytes) -> str:
        path = os.path.join(self.outdir, f"r{len(self.requests):04d}.txt")
        with open(path, "wb") as handle:
            handle.write(text.encode() if isinstance(text, str) else text)
        return path

    def cli(self, argv: list[str], expect: dict) -> None:
        self.requests.append({"op": argv[0], "argv": argv, "expect": expect})

    def lib(self, op: str, args: dict) -> None:
        self.requests.append({"op": op, "args": args})


def _bits(rng: random.Random, k: int) -> list[int]:
    return [rng.randint(0, 1) for _ in range(k)]


def _chain_stmt(rng: random.Random, kind: str, n: int, name: str) -> dict:
    edges = n if kind == "circle" else n - 1
    return {
        "name": name,
        "kind": kind,
        "bits": _bits(rng, edges),
        "orientation": rng.choice((1, -1)),
    }


def _chain_line(s: dict) -> str:
    flag = "+" if s["orientation"] == 1 else "-"
    return f"{s['kind']} {s['name']}: {' '.join(map(str, s['bits']))} orientation={flag}"


def _random_word(rng: random.Random, letters: int, orientable: bool | None) -> str:
    names = [f"{rng.choice('pqrstuvwxyz')}{i}" for i in range(letters)]
    slots = names * 2
    rng.shuffle(slots)
    if orientable:
        first: dict[str, int] = {}
        word = []
        for a in slots:
            sign = -first[a] if a in first else first.setdefault(a, rng.choice((1, -1)))
            word.append((a, sign))
        return word_text(word)
    return word_text([(a, rng.choice((1, -1))) for a in slots])


def _surface_of_dim(rng: random.Random, dim: int) -> str:
    """A random gluing word whose first Betti number is ``dim``.

    Half of the even-dimensional ones are orientable (so their enhancements
    are even-valued and carry an Arf invariant).  Words with as many letters
    as ``dim`` have one vertex and are enhanced on their own intersection
    form; longer ones on their normal form's.
    """
    if dim == 0:
        return "s s'"
    orientable = dim % 2 == 0 and rng.random() < 0.5
    while True:
        letters = dim + rng.choice((0, 0, 1, 2))
        text = _random_word(rng, letters, orientable)
        info = analyse_surface(text)
        if info["betti1"] == dim and info["orientable"] == orientable:
            return text


def _enhancement(rng: random.Random, text: str) -> dict[str, int]:
    info = analyse_surface(text)
    values = {}
    for i, label in enumerate(info["form_basis"]):
        v = info["gram"][i][i] + 2 * rng.randint(0, 1)
        values[label] = v + 4 * rng.choice((0, 0, 0, 1, -1))
    return values


def _enhance_spec(values: dict[str, int]) -> str:
    return " ".join(f"{k}={v}" for k, v in values.items())


def _arf_brown(w: _Writer, rng: random.Random, dim: int, count: int) -> None:
    """One surface with ``count`` enhancements, some given with --enhance."""
    name = f"S{len(w.requests)}"
    text = _surface_of_dim(rng, dim)
    enhancements = [_enhancement(rng, text) for _ in range(count)]
    lines = [f"surface {name}: {text}"]
    inline = len(enhancements) == 1 and dim > 0 and rng.random() < 0.25
    if not inline:
        lines += [f"enhance {name}: {_enhance_spec(v)}" for v in enhancements]
    path = w.file("\n".join(lines) + "\n")
    argv = ["arf-brown", "--format", "structured", path]
    if inline:
        argv[1:1] = ["--enhance", _enhance_spec(enhancements[0])]
    pairs = [{"surface": name, "word": text, "values": v} for v in enhancements]
    w.cli(argv, {"pairs": pairs})


def _theory(rng: random.Random) -> tuple[int, list[str]]:
    ab = rng.randint(0, 7)
    choices = [Fraction(x) for x in (-2, -1, 1, 2, 3)] + [Fraction(-1, 2), Fraction(3, 4)]
    re = rng.choice(choices + [Fraction(0)] * 3)
    im = rng.choice([Fraction(0)] * 4 + choices) if re else rng.choice(choices)
    return ab, [str(re), str(im)]


def _tqft(w: _Writer, rng: random.Random, items: list[tuple]) -> None:
    """items: ("surface", dim) | ("point",) | ("circle", edges)."""
    ab, euler = _theory(rng)
    lines, order, pairs = [], [], []
    for idx, item in enumerate(items):
        name = f"{item[0][0]}{idx}"
        if item[0] == "surface":
            text = _surface_of_dim(rng, item[1])
            values = _enhancement(rng, text)
            lines += [f"surface {name}: {text}", f"enhance {name}: {_enhance_spec(values)}"]
            pairs.append({"surface": name, "word": text, "values": values})
        elif item[0] == "point":
            lines.append(f"point {name}")
            order.append({"kind": "point", "name": name})
        else:
            stmt = _chain_stmt(rng, "circle", item[1], name)
            lines.append(_chain_line(stmt))
            order.append(stmt)
    spec = f"ab={ab} euler={gaussian_literal(Fraction(euler[0]), Fraction(euler[1]))}"
    path = w.file("\n".join(lines) + "\n")
    w.cli(
        ["tqft", "--format", "structured", spec, path],
        {"ab": ab, "euler": euler, "components": order, "pairs": pairs},
    )


def _majorana(w: _Writer, rng: random.Random, kind: str, n: int) -> None:
    stmt = _chain_stmt(rng, kind, n, f"m{len(w.requests)}")
    path = w.file(_chain_line(stmt) + "\n")
    w.cli(["majorana", "--format", "structured", path], {"components": [stmt]})


def _malformed(w: _Writer, rng: random.Random, k: int) -> None:
    """Bad input with its documented exit code: 2 parse, 3 precondition, 4 cap."""
    b = " ".join(map(str, _bits(rng, 3)))
    crosscaps = canonical_word(False, 21)
    cases = [
        (2, "majorana", f"circle c: {b} 2\n"),
        (2, "surface", "surface T a b a' b'\n"),
        (2, "surface", f"frobnicate x{rng.randint(0, 9)}: 1\n"),
        (2, "arf-brown", "surface T: a b a' b'\nenhance U: a=0 b=0\n"),
        (2, "surface", "surface T: a b a\n"),
        (2, "majorana", f"interval j: {b} orientation=x\n"),
        (2, "arf-brown", "surface T: a b a' b'\nenhance T: a=x b=0\n"),
        (2, "tqft", "point p\n", f"ab={rng.randint(8, 99)}"),
        (2, "tqft", "point p\n", "ab=1 euler=0"),
        (3, "arf-brown", "surface P: a a\nenhance P: a=2\n"),
        (3, "tqft", f"interval j: {b}\n", "ab=1"),
        (3, "arf-brown", "surface T: a b a' b'\n"),
        (4, "majorana", f"circle c: {' '.join(map(str, _bits(rng, 11)))}\n"),
        (4, "arf-brown", f"surface N: {word_text(crosscaps)}\nenhance N: "
         + " ".join(f"{a}=1" for a, _ in crosscaps[::2]) + "\n"),
    ]
    code, op, text, *spec = cases[k % len(cases)]
    argv = [op, "--format", "structured", *spec, w.file(text)]
    w.cli(argv, {"exit": code})


def build(workload: str, seed: int, outdir: str, profile: str = "full") -> list[dict]:
    """Write the statement files and return the request list."""
    p = PROFILES[profile]
    rng = random.Random(f"{workload}/{seed}")
    os.makedirs(outdir, exist_ok=True)
    w = _Writer(outdir)
    if workload == "chains":
        for kind, sizes in (("circle", p["chain_circles"]), ("interval", p["chain_intervals"])):
            for n, reps in sizes.items():
                for _ in range(reps):
                    _majorana(w, rng, kind, n)
        for edges in p["bimodule_edges"]:
            w.lib("interval_bimodule_check", _chain_stmt(rng, "interval", edges + 1, "b"))
        for n in p["epsilon_n"]:
            w.lib("epsilon_operator", _chain_stmt(rng, "circle", n, "e"))
        for n in p["reference_n"]:
            w.lib("reference_module", _chain_stmt(rng, "circle", n, "r"))
    elif workload == "gauss":
        for dim, reps in p["arf_dims"].items():
            for rep in range(reps):
                _arf_brown(w, rng, dim, 2 if dim <= 12 and rep == 0 else 1)
        for dims in p["tqft_dims"]:
            _tqft(w, rng, [("surface", d) for d in dims])
    elif workload == "small-mix":
        for letters in p["mix_surface_letters"]:
            text = _random_word(rng, letters, rng.random() < 0.5)
            name = f"W{len(w.requests)}"
            path = w.file(f"surface {name}: {text}\n")
            w.cli(["surface", "--format", "structured", path],
                  {"surfaces": [{"name": name, "word": text}]})
        for i, n in enumerate(p["mix_chain_n"]):
            _majorana(w, rng, ("circle", "interval")[i % 2], n)
        for i in range(p["mix_arf"]):
            _arf_brown(w, rng, i % 9, 2 if i % 5 == 4 else 1)
        for i in range(p["mix_tqft"]):
            items = [("point",)] * (i % 3)
            items += [("circle", 1 + (i + j) % 5) for j in range(i // 3 % 3)]
            items += [("surface", (i + j) % 5) for j in range(i // 9 % 3)]
            _tqft(w, rng, items or [("point",)])
        for _ in range(p["mix_selftest"]):
            w.cli(["selftest", "--format", "structured"], {})
        for k in p["mix_supermodule_k"]:
            w.lib("irreducible_supermodule", {"k": k})
        for k in range(p["mix_malformed"]):
            _malformed(w, rng, k)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # A fixed order per workload, so that seeds differ only in content.
    requests = w.requests
    random.Random(workload).shuffle(requests)
    for i, req in enumerate(requests):
        req["id"] = i
    return requests
