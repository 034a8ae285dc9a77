"""Correctness of one op: its stdout reference and independent invariants.

An op passes when it exits with code 0, its stdout has the sha256 captured
for it at the reference commit (``references.json``), and its output meets
the invariants below. The invariants are computed from the input file by
this module alone, never by plumbline:

* boundary H1 is free of rank #nbc + n, with no torsion;
* the cohomology ring matches the double (``ok`` is true);
* a general arrangement has generic Betti numbers [0, beta, beta, 0],
  with beta = 1 - n + #nbc;
* at every evaluated point, beta0 = beta3 and beta1 = beta2.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations
from pathlib import Path

from workloads import complete_points, ranks

REFERENCES = Path(__file__).resolve().parent / "references.json"


def digest(data: bytes) -> str:
    """A 128-bit sha256 prefix: the form in which references are stored."""
    return hashlib.sha256(data).hexdigest()[:32]


def op_key(argv, input_bytes: bytes | None) -> str:
    """Reference key of an op: its arguments plus the digest of its input."""
    spec = {"argv": list(argv), "input": None if input_bytes is None else digest(input_bytes)}
    return digest(json.dumps(spec, sort_keys=True).encode())


def load_references() -> dict[str, str]:
    if not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text())["ops"]


def classify(doc: dict) -> str:
    sizes = {len(pt) for pt in complete_points(doc)}
    if doc["lines"] in sizes:
        return "pencil"
    if doc["lines"] - 1 in sizes:
        return "near_pencil"
    return "general"


def nbc_pairs(doc: dict) -> list[list[int]]:
    return sorted([pt[0], k] for pt in complete_points(doc) if pt[0] != 0 for k in pt[1:])


def invariant_problem(argv: tuple[str, ...], doc: dict | None, out: dict) -> str | None:
    """Why the parsed stdout of an op breaks an invariant, or None."""
    if doc is None:
        return _random_problem(argv, out)
    cmd = argv[0] if argv[0] != "resonance" else f"resonance {argv[1]}"
    r1, r2 = ranks(doc)
    beta = 1 - r1 + r2
    expect_generic = [0, beta, beta, 0] if classify(doc) == "general" else None
    if cmd == "validate":
        if out["lines"] != doc["lines"] or not covers_each_pair_once(doc["lines"], out["points_full"]):
            return "validate: points_full does not cover every pair exactly once"
    elif cmd == "nbc":
        if out["nbc"] != nbc_pairs(doc) or out["b1"] != r2:
            return "nbc: pairs or b1 differ from the independent count"
    elif cmd in ("os", "double"):
        want = (r1, r2) if cmd == "os" else (r1 + r2, r1 + r2)
        if (len(out["degree1"]), len(out["degree2"])) != want:
            return f"{cmd}: basis ranks differ from {want}"
    elif cmd == "homology":
        return _h1_problem(out, r1, r2)
    elif cmd == "verify":
        if out["ok"] is not True:
            return "verify: cohomology ring differs from the double"
    elif cmd == "report":
        if out["isomorphism"]["ok"] is not True:
            return "report: isomorphism.ok is false"
        if out["class"] != classify(doc):
            return "report: class differs from the independent classification"
        if expect_generic and out["resonance"]["betti_generic"] != expect_generic:
            return f"report: generic Betti numbers are not {expect_generic}"
        return _h1_problem(out["homology"], r1, r2)
    elif cmd == "resonance generic":
        if expect_generic and out["betti"] != expect_generic:
            return f"resonance generic: Betti numbers are not {expect_generic}"
    elif cmd == "resonance eval":
        b = out["betti"]
        if b[0] != b[3] or b[1] != b[2]:
            return f"resonance eval: Betti numbers {b} break beta0 = beta3, beta1 = beta2"
    elif cmd == "resonance classify":
        if out["class"] != classify(doc):
            return "resonance classify: class differs from the independent classification"
    return None


def covers_each_pair_once(lines: int, points) -> bool:
    """Whether the sorted points cover every pair of the lines exactly once."""
    covered = sorted(pair for pt in points for pair in combinations(pt, 2))
    return covered == list(combinations(range(lines), 2))


def _h1_problem(h1: dict, n: int, n_nbc: int) -> str | None:
    if h1["torsion"] or h1["free_rank"] != n + n_nbc or h1["coker_free_rank"] != n:
        return f"homology: H1 is not free of rank {n + n_nbc} (#nbc + n)"
    return None


def _random_problem(argv: tuple[str, ...], docs: list) -> str | None:
    lines = int(argv[argv.index("--lines") + 1])
    for doc in docs:
        if doc["lines"] != lines or not covers_each_pair_once(lines, doc["points_full"]):
            return "random: an emitted arrangement is not valid"
    return None


def op_problem(argv, input_bytes, code, stdout: bytes, references: dict) -> str | None:
    """Why an op failed, or None when it passed every check."""
    if code != 0:
        return f"exit code {code}"
    ref = references.get(op_key(argv, input_bytes))
    if ref is None:
        return "no stdout reference for this op (inputs differ from the captured ones?)"
    if digest(stdout) != ref:
        return "stdout differs from the reference"
    return output_problem(argv, input_bytes, stdout)


def output_problem(argv, input_bytes: bytes | None, stdout: bytes) -> str | None:
    """Parse an op's stdout and check it against the invariants."""
    text = stdout.decode()
    if input_bytes is None:
        return invariant_problem(tuple(argv), None, [json.loads(line) for line in text.splitlines()])
    return invariant_problem(tuple(argv), json.loads(input_bytes), json.loads(text))
