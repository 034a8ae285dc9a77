"""Seeded inputs and the four workloads of the plumbline benchmark.

Nothing here imports plumbline. The inputs come from the benchmark's own
generator, so a parent commit and a change receive byte-identical files.

Seeds fold onto ``VARIANTS`` input variants (``seed % VARIANTS``). Stdout
references were captured for every variant, so every op of every seed is
checked against a reference. Variant ``HELD_OUT_SEED`` is kept out of
development work: a performance claim is confirmed on it last.

Seeded arrangements have a fixed profile: a fixed list of multiple-point
sizes on a fixed number of lines. The profile fixes the number of points,
the number of nbc pairs and hence every matrix shape, so costs differ
little from seed to seed while the incidence structure still changes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

VARIANTS = 16
HELD_OUT_SEED = 15
FIXTURES = Path(__file__).resolve().parent / "fixtures"
FIXTURE_NAMES = (
    "pencil_n2",
    "pencil_n3",
    "pencil_n4",
    "triangle",
    "nearpencil_n3",
    "nearpencil_n4",
    "nearpencil_n5",
    "two_triples",
    "pappus_violating",
)
# A `report` on this fixture ends every traced pass, so that every stage is
# timed on every workload (see README.md, "Traced run").
PROBE_INPUT = "two_triples"

# A rational point has numerators of three digits over denominators from
# RATIONAL_PRIMES of the 14 primes between 900 and 1000, each prime serving
# an equal share of the coordinates in a shuffled order. The sizes of its
# numbers are then the same for every seed. With more primes the rows of d2
# get larger scales, and the cost comes to depend on the incidence structure:
# with 12 primes a point at 16 lines costs 5-8 times an integer point, but
# that cost moves by 10% from seed to seed. With 4 primes it costs about 2.3
# times an integer point and moves by 3%.
RATIONAL_PRIMES = 4
PRIMES_900S = tuple(p for p in range(901, 1000) if all(p % d for d in range(2, 32)))


@dataclass(frozen=True)
class Op:
    """One `plumbline` command on one input file.

    ``argv`` holds the literal ``{input}`` where the input's path goes.
    """

    id: str
    argv: tuple[str, ...]
    input: str | None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # op_s.tail is this percentile of the op latencies of a run. It sits at
    # the middle of one op's latencies in the sorted list, wherever the run's
    # pass count puts them, so that it never falls in the gap between two ops.
    tail_pct: int
    inputs: dict[str, bytes]
    ops: tuple[Op, ...]
    largest_op: str  # id of the op on the workload's largest input


def arrangement(rng: random.Random, lines: int, sizes: list[int]) -> dict:
    """An arrangement doc with one multiple point per entry of ``sizes``.

    Candidates are drawn greedily and kept when none of their pairs is
    covered yet; a draw that gets stuck, or whose points all pass through
    line 0, starts over (a multiple-point eval point needs a point off line
    0). Double points stay implicit, as in the fixtures.
    """
    for _ in range(1000):
        covered: set[tuple[int, int]] = set()
        points: list[list[int]] = []
        for size in sizes:
            for _ in range(500):
                cand = sorted(rng.sample(range(lines), size))
                pairs = list(combinations(cand, 2))
                if not covered.intersection(pairs):
                    break
            else:
                break
            covered.update(pairs)
            points.append(cand)
        else:
            if any(0 not in pt for pt in points) or not points:
                return {"lines": lines, "points": sorted(points)}
    raise RuntimeError(f"no arrangement with point sizes {sizes} on {lines} lines")


def complete_points(doc: dict) -> list[tuple[int, ...]]:
    """The full point family: the listed points plus every missing double point."""
    lines = doc["lines"]
    points = [tuple(sorted(set(pt))) for pt in doc["points"]]
    covered = {pair for pt in points for pair in combinations(pt, 2)}
    points += [pair for pair in combinations(range(lines), 2) if pair not in covered]
    return sorted(points)


def ranks(doc: dict) -> tuple[int, int]:
    """(r1, r2): lines other than line 0, and nbc pairs (|P| - 1 per point P avoiding line 0)."""
    r2 = sum(len(pt) - 1 for pt in complete_points(doc) if pt[0] != 0)
    return doc["lines"] - 1, r2


def encode(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed % VARIANTS}:{tag}")


def _nonzero(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        x = rng.randint(lo, hi)
        if x:
            return x


def _int_point(rng: random.Random, doc: dict) -> dict:
    r1, r2 = ranks(doc)
    return {"a": [_nonzero(rng, -10, 10) for _ in range(r1)],
            "b": [_nonzero(rng, -10, 10) for _ in range(r2)]}


def eval_points(rng: random.Random, doc: dict) -> dict[str, dict]:
    """Four kinds of point for `resonance eval` on one arrangement."""
    r1, r2 = ranks(doc)
    dens = rng.sample(PRIMES_900S, RATIONAL_PRIMES)
    dens = (dens * ((r1 + r2) // len(dens) + 1))[:r1 + r2]
    rng.shuffle(dens)
    rat = [f"{rng.choice((-1, 1)) * rng.randint(500, 999)}/{q}" for q in dens]
    multi = rng.choice([pt for pt in doc["points"] if 0 not in pt])
    while True:
        coef = [_nonzero(rng, -10, 10) for _ in multi[:-1]]
        if sum(coef):
            coef.append(-sum(coef))
            break
    a_multi = [0] * r1
    for line, c in zip(multi, coef):
        a_multi[line - 1] = c
    return {
        "int": _int_point(rng, doc),
        "rat": {"a": rat[:r1], "b": rat[r1:]},
        "zero-a": {"a": [0] * r1, "b": [_nonzero(rng, -10, 10) for _ in range(r2)]},
        "multiple-point": {"a": a_multi, "b": [0] * r2},
    }


def _point_arg(pt: dict) -> str:
    return json.dumps(pt, separators=(",", ":"))


def _generic(lines: int) -> bytes:
    return encode({"lines": lines, "points": []})


def report_generic(seed: int) -> Workload:
    inputs = {f"generic{L}": _generic(L) for L in range(8, 11)}
    for L in range(8, 11):
        inputs[f"light{L}"] = encode(arrangement(_rng(seed, f"light{L}"), L, [4, 3, 3]))
    inputs["dense16"] = encode(arrangement(_rng(seed, "dense16"), 16, [5] * 4 + [4] * 5 + [3] * 4))
    ops = tuple(Op(f"report:{name}", ("report", "{input}"), name) for name in inputs)
    return Workload(
        "report-generic",
        "report on 8-10 lines and one dense 16-line input: generic Betti sampling is over 90% of each op",
        64, inputs, ops, "report:dense16",
    )


def boundary_large(seed: int) -> Workload:
    inputs = {f"generic{L}": _generic(L) for L in (18, 20, 22)}
    inputs["dense24"] = encode(arrangement(_rng(seed, "dense24"), 24, [5] * 3 + [4] * 8 + [3] * 16))
    ops = tuple(
        Op(f"{cmd}:{name}", (cmd, "{input}"), name)
        for name in inputs for cmd in ("homology", "verify")
    )
    return Workload(
        "boundary-large",
        "homology and verify on 18-24 lines: Smith form, the double and the verifier, no resonance",
        69, inputs, ops, "homology:generic22",
    )


def resonance_eval(seed: int) -> Workload:
    profiles = {14: [4] * 3 + [3] * 6, 15: [4] * 3 + [3] * 7, 16: [4] * 4 + [3] * 8}
    inputs: dict[str, bytes] = {}
    ops: list[Op] = []
    for L, sizes in profiles.items():
        name = f"mixed{L}"
        doc = arrangement(_rng(seed, name), L, sizes)
        inputs[name] = encode(doc)
        for kind, pt in eval_points(_rng(seed, f"points{L}"), doc).items():
            ops.append(Op(f"eval-{kind}:{name}",
                          ("resonance", "eval", "{input}", "--point", _point_arg(pt)), name))
    return Workload(
        "resonance-eval",
        "resonance eval at integer, rational, zero-a and multiple-point points on 14-16 lines",
        80, inputs, tuple(ops), "eval-rat:mixed16",
    )


SWEEP_COMMANDS = (
    ("validate",), ("nbc",), ("os",), ("double",), ("homology",), ("ring",),
    ("verify",), ("report",), ("resonance", "generic"), ("resonance", "classify"),
)
SWEEP_PROFILES = {
    "small4": (4, [3]),
    "small5": (5, [3, 3]),
    "small6a": (6, [3, 3]),
    "small6b": (6, [4]),
    "small7a": (7, [3, 3, 3]),
    "small7b": (7, [4, 3]),
}


def small_sweep(seed: int) -> Workload:
    inputs = {name: (FIXTURES / f"{name}.json").read_bytes() for name in FIXTURE_NAMES}
    for name, (L, sizes) in SWEEP_PROFILES.items():
        inputs[name] = encode(arrangement(_rng(seed, name), L, sizes))
    ops: list[Op] = []
    for name, data in inputs.items():
        for cmd in SWEEP_COMMANDS:
            ops.append(Op(f"{' '.join(cmd)}:{name}", cmd + ("{input}",), name))
        pt = _int_point(_rng(seed, f"points:{name}"), json.loads(data))
        ops.append(Op(f"resonance eval:{name}",
                      ("resonance", "eval", "{input}", "--point", _point_arg(pt)), name))
    for name, (L, _) in SWEEP_PROFILES.items():
        rseed = _rng(seed, f"random:{name}").randrange(10**6)
        ops.append(Op(f"random:{name}", ("--seed", str(rseed), "random", "--lines", str(L),
                                        "--density", "0.5", "--count", "2"), None))
    return Workload(
        "small-sweep",
        "every command on the 9 fixtures and small seeded arrangements: most ops take about 1 ms, so fixed per-call costs set op_s.p50",
        97, inputs, tuple(ops), "report:pappus_violating",
    )


WORKLOADS = {
    "report-generic": report_generic,
    "boundary-large": boundary_large,
    "resonance-eval": resonance_eval,
    "small-sweep": small_sweep,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
