"""Per-layer spans recorded from outside the program.

``install`` wraps the public functions that ``plumbline/__init__.py``
exports, in every loaded ``plumbline`` module that refers to them, so the
ops run exactly as they do untraced while each call into a layer leaves a
span (stage, start, end, parent, op, facts). Layers are named after the
modules in ``src/plumbline/``. A stage whose function is no longer exported,
or whose signature differs from the one recorded here, is reported as
``None`` with the reason, and the ops still run.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from statistics import fmean
from time import perf_counter


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


# (stage, public name, parameters at the reference commit, facts of a call)
STAGES = (
    ("arrangement.from_json", "from_json", ("doc",), lambda fn, a, k, r: {"points": len(r.points)}),
    ("arrangement.nbc_set", "nbc_set", ("arr",), lambda fn, a, k, r: {"pairs": len(r)}),
    ("os_algebra.os_algebra", "os_algebra", ("arr",), None),
    ("os_algebra.double", "double", ("alg",), lambda fn, a, k, r: {"products": len(r.products)}),
    ("plumbing.plumbing_matrix", "plumbing_matrix", ("g",), lambda fn, a, k, r: {"vertices": r.rows}),
    ("plumbing.h1_boundary", "h1_boundary", ("arr",), None),
    ("exact_linalg.cokernel", "cokernel", ("m",), None),
    ("exact_linalg.rank", "rank", ("m",), lambda fn, a, k, r: {"shape": (a[0].rows, a[0].cols)}),
    ("boundary_ring.intersection_ring", "intersection_ring", ("arr",), None),
    ("boundary_ring.cohomology_ring", "cohomology_ring", ("arr",), None),
    ("boundary_ring.verify", "verify_double_isomorphism", ("arr",), None),
    ("resonance.generic_betti", "generic_betti", ("dbl", "k", "trials", "seed"),
     lambda fn, a, k, r: {"trials": _bound(fn, a, k)["trials"]}),
    ("resonance.aomoto_complex", "aomoto_complex", ("dbl", "pt"), None),
    ("resonance.betti_numbers", "betti_numbers", ("dbl", "pt"), None),
)
EMIT = "cli.emit"

# Per-layer metrics of a traced pass, with their units.
PER_LAYER = (
    ("resonance.generic_betti_s", "s"),
    ("resonance.aomoto_complex_s", "s"),
    ("resonance.betti_numbers_s", "s"),
    ("resonance.useful_work_ratio", "ratio"),
    ("exact_linalg.rank_d2_s", "s"),
    ("exact_linalg.rank_d2_dim", "count"),
    ("exact_linalg.cokernel_s", "s"),
    ("plumbing.h1_boundary_s", "s"),
    ("plumbing.plumbing_matrix_s", "s"),
    ("plumbing.vertices", "count"),
    ("os_algebra.os_algebra_s", "s"),
    ("os_algebra.double_s", "s"),
    ("os_algebra.double_products", "count"),
    ("boundary_ring.intersection_ring_s", "s"),
    ("boundary_ring.cohomology_ring_s", "s"),
    ("boundary_ring.verify_s", "s"),
    ("arrangement.from_json_s", "s"),
    ("arrangement.nbc_set_s", "s"),
    ("arrangement.points", "count"),
    ("arrangement.nbc_pairs", "count"),
    ("cli.emit_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("cli.unattributed_s", "s"),
    ("trace_overhead_s", "s"),
)


class Span:
    __slots__ = ("stage", "start", "end", "parent", "op", "facts")

    def __init__(self, stage: str, parent: "Span | None", op: int):
        self.stage = stage
        self.parent = parent
        self.op = op
        self.facts: dict = {}
        self.start = perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    def within(self, stage: str) -> bool:
        p = self.parent
        while p is not None:
            if p.stage == stage:
                return True
            p = p.parent
        return False


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: dict[str, str] = {}  # stage -> why it is not traced
        self.op = -1
        self._stack: list[Span] = []

    def wrap(self, stage: str, fn, facts=None):
        def traced(*args, **kwargs):
            span = Span(stage, self._stack[-1] if self._stack else None, self.op)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if facts is not None:
                try:
                    span.facts = facts(fn, args, kwargs, result)
                except (AttributeError, TypeError, KeyError) as exc:
                    self.missing.setdefault(f"{stage}:facts", f"{stage} facts unavailable: {exc}")
            return result

        return traced


class _Proxy:
    """A module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def install(package) -> Tracer:
    """Wrap every stage of ``package`` (the imported ``plumbline``) in spans."""
    tracer = Tracer()
    modules = [m for name, m in list(sys.modules.items())
               if name == package.__name__ or name.startswith(package.__name__ + ".")]
    for stage, public, params, facts in STAGES:
        fn = getattr(package, public, None)
        if fn is None:
            tracer.missing[stage] = f"plumbline.{public} is no longer exported"
            continue
        got = tuple(inspect.signature(fn).parameters)
        if got != params:
            tracer.missing[stage] = f"plumbline.{public} signature changed to {got}"
            continue
        wrapper = tracer.wrap(stage, fn, facts)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
    # Output is emitted by plumbline.cli through json.dumps and click.echo.
    cli = sys.modules.get(package.__name__ + ".cli")
    json_mod, click_mod = getattr(cli, "json", None), getattr(cli, "click", None)
    if not (inspect.ismodule(json_mod) and inspect.ismodule(click_mod)):
        tracer.missing[EMIT] = "plumbline.cli no longer emits through its json and click modules"
    else:
        cli.json = _Proxy(json_mod, dumps=tracer.wrap(EMIT, json_mod.dumps))
        cli.click = _Proxy(click_mod, echo=tracer.wrap(EMIT, click_mod.echo))
    return tracer


def pass_layers(tracer: Tracer, op_seconds: list[float], output_bytes: int) -> dict:
    """Per-layer values of one traced pass: name -> [value or None, reason or None].

    Times are seconds summed over the pass, except ``aomoto_complex_s`` (one
    complex) and ``betti_numbers_s`` (one point), which are means per call.
    ``trace_overhead_s`` is filled in by the caller, which also has the
    untraced passes.
    """
    by_stage: dict[str, list[Span]] = defaultdict(list)
    for span in tracer.spans:
        by_stage[span.stage].append(span)

    def gone(*stages: str) -> str | None:
        for stage in stages:
            for key in (stage, f"{stage}:facts"):
                if key in tracer.missing:
                    return tracer.missing[key]
        return None

    def total(stage: str) -> list:
        return [None, gone(stage)] if gone(stage) else [sum(s.duration for s in by_stage[stage]), None]

    def mean(stage: str) -> list:
        if gone(stage):
            return [None, gone(stage)]
        spans = by_stage[stage]
        return [fmean(s.duration for s in spans), None] if spans else [None, f"{stage} was not called"]

    def count(stage: str, fact: str) -> list:
        if gone(stage):
            return [None, gone(stage)]
        return [sum(s.facts[fact] for s in by_stage[stage]), None]

    # d2 is the only square differential with more than one row.
    rank_gone = gone("exact_linalg.rank", "resonance.betti_numbers")
    d2 = [] if rank_gone else [
        s for s in by_stage["exact_linalg.rank"]
        if s.within("resonance.betti_numbers") and s.facts["shape"][0] == s.facts["shape"][1] > 1
    ]

    out = {
        "resonance.generic_betti_s": total("resonance.generic_betti"),
        "resonance.aomoto_complex_s": mean("resonance.aomoto_complex"),
        "resonance.betti_numbers_s": mean("resonance.betti_numbers"),
        "resonance.useful_work_ratio": _useful_work_ratio(by_stage, gone),
        "exact_linalg.rank_d2_s": [None, rank_gone] if rank_gone else [sum(s.duration for s in d2), None],
        "exact_linalg.rank_d2_dim": [None, rank_gone] if rank_gone
        else [max((s.facts["shape"][0] for s in d2), default=0), None],
        "exact_linalg.cokernel_s": total("exact_linalg.cokernel"),
        "plumbing.h1_boundary_s": total("plumbing.h1_boundary"),
        "plumbing.plumbing_matrix_s": total("plumbing.plumbing_matrix"),
        "plumbing.vertices": count("plumbing.plumbing_matrix", "vertices"),
        "os_algebra.os_algebra_s": total("os_algebra.os_algebra"),
        "os_algebra.double_s": total("os_algebra.double"),
        "os_algebra.double_products": count("os_algebra.double", "products"),
        "boundary_ring.intersection_ring_s": total("boundary_ring.intersection_ring"),
        "boundary_ring.cohomology_ring_s": total("boundary_ring.cohomology_ring"),
        "boundary_ring.verify_s": total("boundary_ring.verify"),
        "arrangement.from_json_s": total("arrangement.from_json"),
        "arrangement.nbc_set_s": total("arrangement.nbc_set"),
        "arrangement.points": count("arrangement.from_json", "points"),
        "arrangement.nbc_pairs": count("arrangement.nbc_set", "pairs"),
        "cli.emit_s": total(EMIT),
        "cli.output_bytes": [output_bytes, None],
    }
    roots = [0.0] * len(op_seconds)
    for span in tracer.spans:
        if span.parent is None and span.op >= 0:
            roots[span.op] += span.duration
    out["cli.unattributed_s"] = [sum(op_seconds) - sum(roots), None]
    return out


def _useful_work_ratio(by_stage, gone) -> list:
    """trials x (time of one point) / generic_betti time, summed over ops.

    It is the share of the sampling work that one shared set of ``trials``
    points would need; the rest is repeated work.
    """
    why = gone("resonance.generic_betti", "resonance.betti_numbers")
    if why:
        return [None, why]
    useful = spent = 0.0
    for op in {s.op for s in by_stage["resonance.generic_betti"]}:
        gens = [s for s in by_stage["resonance.generic_betti"] if s.op == op]
        points = [s.duration for s in by_stage["resonance.betti_numbers"]
                  if s.op == op and s.within("resonance.generic_betti")]
        if not points:
            return [None, "betti_numbers is not called inside generic_betti"]
        useful += gens[0].facts["trials"] * fmean(points)
        spent += sum(s.duration for s in gens)
    return [useful / spent, None] if spent else [None, "generic_betti was not called"]
