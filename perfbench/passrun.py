"""One timed pass over a workload's inputs, in a fresh interpreter.

``run.py`` starts this script once per pass, never two at a time, so no
in-process cache carries over between passes. It imports plumbline, reads
and parses every input (this is the pass's set-up), then runs each op
in-process through the click entry point ``plumbline.cli.main`` with stdout
captured. Checks run after the last op, outside the timed region. A plan
with ``setup_only`` stops after the set-up. Every time is scaled to a
reference speed of the host (see ``SpeedSampler``); the unscaled times are
kept beside the scaled ones.

Usage: passrun.py PLAN_JSON RESULT_JSON SPAWN_TIME

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide on Linux), so set-up time counts the
interpreter start-up too.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import tracing


def invoke(main, argv: list[str]) -> tuple[int | str, bytes]:
    """Run one command through click's standalone entry point."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            main.main(args=argv, prog_name="plumbline", standalone_mode=True)
        code: int | str = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # an uncaught error in an op fails that op, not the pass
        code = f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue().encode()


# The host's speed swings by up to 2x from one tenth of a second to the next,
# as other tenants load its cores, and that would swamp the program's own
# changes. So a fixed piece of reference work is timed between every two ops
# and, from a timer signal, every SAMPLE_EVERY_S during them. Each time is
# scaled by NOMINAL_REFERENCE_S / (the mean time of the reference work
# sampled during it and just around it). NOMINAL_REFERENCE_S is the time of
# the reference work on an uncontended core of a 2-vCPU Intel Xeon VM, so
# scaled times read as seconds on that machine. Time spent sampling is taken
# out of every time.
NOMINAL_REFERENCE_S = 0.0012
SAMPLE_EVERY_S = 0.05


def reference_work() -> int:
    """A fixed piece of pure-Python work of the program's kind: Fractions, tuples, dicts."""
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(1, 400):
        acc += Fraction(i % 97 + 1, 2 * (i % 89) + 3)
        table[(i, i % 7)] = acc.numerator % 1009
    return sum(table.values())


class SpeedSampler:
    """Times ``reference_work`` on request and from a SIGALRM handler."""

    def __init__(self) -> None:
        self.ends: list[float] = []  # when each sample ended, ascending
        self.times: list[float] = []  # how long each sample took
        self.spent = 0.0  # seconds spent sampling so far
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # the timer fired during a requested sample
            return
        self._busy = True
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.ends.append(end)
        self.times.append(end - start)
        self.spent += end - start
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_REFERENCE_S over the mean of the samples in [start, end] and next to it."""
        lo = max(bisect.bisect_left(self.ends, start) - 1, 0)
        hi = bisect.bisect_right(self.ends, end) + 1
        return NOMINAL_REFERENCE_S / statistics.fmean(self.times[lo:hi])


def run_pass(plan: dict, spawned: float) -> dict:
    sampler = SpeedSampler()
    began = time.perf_counter()
    sampler.sample()
    sampler.start()
    try:
        return timed_pass(plan, spawned, sampler, began)
    finally:
        sampler.stop()


def timed_pass(plan: dict, spawned: float, sampler: SpeedSampler, began: float) -> dict:
    import plumbline
    import plumbline.cli

    inputs = {name: Path(path).read_bytes() for name, path in plan["inputs"].items()}
    from_json = getattr(plumbline, "from_json", None)
    if from_json is not None:
        for data in inputs.values():
            from_json(json.loads(data))
    tracer = tracing.install(plumbline) if plan["trace"] else None
    setup_s = time.monotonic() - spawned - sampler.spent
    setup_end = time.perf_counter()
    sampler.sample()
    setup = {"setup_s": setup_s * sampler.scale(began, setup_end), "raw_setup_s": setup_s}
    if plan.get("setup_only"):
        return setup

    ops = plan["ops"] + ([plan["probe"]] if tracer else [])
    spans: list[tuple[float, float]] = []
    seconds: list[float] = []  # each op's time, sampling taken out
    outputs: list[tuple[int | str, bytes]] = []
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = i
        argv = [plan["inputs"][op["input"]] if a == "{input}" else a for a in op["argv"]]
        spent = sampler.spent
        start = time.perf_counter()
        outputs.append(invoke(plumbline.cli.main, argv))
        end = time.perf_counter()
        spans.append((start, end))
        seconds.append(end - start - (sampler.spent - spent))
        sampler.sample()
    sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = [dt * sampler.scale(*span) for dt, span in zip(seconds, spans)]

    references = checks.load_references() if plan["check_references"] else None
    results = []
    for op, dt, raw, (code, out) in zip(ops, scaled, seconds, outputs):
        data = inputs.get(op["input"])
        if references is None:
            problem = f"exit code {code}" if code != 0 else checks.output_problem(op["argv"], data, out)
        else:
            problem = checks.op_problem(op["argv"], data, code, out, references)
        results.append({"id": op["id"], "seconds": dt, "raw_seconds": raw, "problem": problem,
                        "digest": checks.digest(out), "bytes": len(out)})
    n = len(plan["ops"])
    doc = {
        **setup,
        "wall_s": sum(scaled[:n]),
        "raw_wall_s": sum(seconds[:n]),
        "peak_rss_mb": peak_rss_mb,
        "ops": results,
    }
    if tracer:
        doc["probe_s"] = scaled[n]
        # Spans include the sampling, so layers get the ops' whole elapsed
        # times and are scaled by the pass's overall factor.
        elapsed = [end - start for start, end in spans]
        layers = tracing.pass_layers(tracer, elapsed, sum(len(out) for _, out in outputs))
        factor = sum(scaled) / sum(elapsed)
        doc["layers"] = {name: [value * factor if value is not None and name.endswith("_s") else value, why]
                         for name, (value, why) in layers.items()}
    return doc


if __name__ == "__main__":
    plan_path, result_path, spawned = sys.argv[1], sys.argv[2], float(sys.argv[3])
    result = run_pass(json.loads(Path(plan_path).read_text()), spawned)
    Path(result_path).write_text(json.dumps(result))
