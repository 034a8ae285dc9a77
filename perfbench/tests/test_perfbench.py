"""Self-tests of the benchmark: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import passrun  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    first, again = workloads.build(name, 3), workloads.build(name, 3)
    assert first == again
    assert run.inputs_digest(first) == run.inputs_digest(again)
    # seeds fold onto variants; different variants give other inputs
    assert workloads.build(name, 3 + workloads.VARIANTS) == first
    assert run.inputs_digest(workloads.build(name, 4)) != run.inputs_digest(first)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seeded_inputs_are_valid_with_a_fixed_profile(name):
    shapes = set()
    for seed in range(4):
        wl = workloads.build(name, seed)
        shape = []
        for data in wl.inputs.values():
            doc = json.loads(data)
            assert checks.covers_each_pair_once(doc["lines"], workloads.complete_points(doc))
            shape.append((doc["lines"], len(workloads.complete_points(doc)), workloads.ranks(doc)))
        shapes.add(tuple(shape))
        assert wl.largest_op in {op.id for op in wl.ops}
    assert len(shapes) == 1  # every matrix shape is the same for every seed


def _report_two_triples():
    import plumbline.cli

    path = workloads.FIXTURES / "two_triples.json"
    code, out = passrun.invoke(plumbline.cli.main, ["report", str(path)])
    return ("report", "{input}"), path.read_bytes(), code, out


def test_reference_output_passes_and_a_tampered_byte_fails():
    argv, data, code, out = _report_two_triples()
    refs = checks.load_references()
    assert checks.op_problem(argv, data, code, out, refs) is None
    tampered = bytearray(out)
    tampered[len(tampered) // 2] ^= 0x01
    assert checks.op_problem(argv, data, code, bytes(tampered), refs) == "stdout differs from the reference"
    assert checks.op_problem(argv, data, 1, out, refs) == "exit code 1"


def test_invariants_catch_wrong_values_independently_of_references():
    argv, data, _, out = _report_two_triples()
    doc = json.loads(out)
    doc["homology"]["torsion"] = [2]
    assert "free of rank" in checks.invariant_problem(argv, json.loads(data), doc)
    bad_eval = {"betti": [0, 3, 2, 0]}
    assert "beta1 = beta2" in checks.invariant_problem(
        ("resonance", "eval", "{input}", "--point", "{}"), json.loads(data), bad_eval)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    printed_e2e = [name for name, _ in run.END_TO_END]
    printed_layer = [name for name, _ in tracing.PER_LAYER]
    names = printed_e2e + printed_layer + list(workloads.WORKLOADS)
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert [m["name"] for m in spec["end_to_end"]] == printed_e2e
    assert [m["name"] for m in spec["per_layer"]] == printed_layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    units = dict(run.END_TO_END) | dict(tracing.PER_LAYER)
    assert all(m["unit"] == units[m["name"]] for m in spec["end_to_end"] + spec["per_layer"])


def test_missing_or_changed_stage_is_null_with_a_reason():
    fake = types.ModuleType("fakeplumb")
    fake.nbc_set = lambda arr, extra: ()  # signature changed; everything else is gone
    sys.modules["fakeplumb"] = fake
    try:
        tracer = tracing.install(fake)
    finally:
        del sys.modules["fakeplumb"]
    layers = tracing.pass_layers(tracer, [0.5], 10)
    assert layers["arrangement.nbc_set_s"][0] is None
    assert "signature changed" in layers["arrangement.nbc_set_s"][1]
    assert layers["exact_linalg.cokernel_s"] == [None, "plumbline.cokernel is no longer exported"]
    assert layers["cli.emit_s"][0] is None
    assert layers["cli.unattributed_s"] == [0.5, None]


def test_speed_scale_uses_samples_during_and_next_to_an_interval():
    sampler = passrun.SpeedSampler()
    sampler.ends = [1.0, 2.0, 3.0, 4.0, 5.0]
    sampler.times = [9.0, 1.0, 2.0, 3.0, 9.0]
    nominal = passrun.NOMINAL_REFERENCE_S
    # samples ending at 2 (just before), 3 (inside) and 4 (just after)
    assert sampler.scale(2.5, 3.5) == pytest.approx(nominal / 2.0)
    # a short interval between two samples uses just those two
    assert sampler.scale(2.1, 2.2) == pytest.approx(nominal / 1.5)
    sampler.sample()
    assert sampler.times[-1] > 0 and sampler.spent == pytest.approx(sampler.times[-1])
