"""The plumbline benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports plumbline from
``src/`` and writes only under ``.perfbench_work/``. One caller, closed
loop: each timed pass is a fresh interpreter (``passrun.py``) that runs the
workload's ops one after another, and passes run one at a time until
``--seconds`` is used up. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 150  # no pass starts after this; a run must end within 180 s
MIN_PASSES = 3  # of each kind, so that every median has three samples
SETUPS_PER_ROUND = 3  # extra interpreters that only set up, per untraced pass
PROBE = "probe"

END_TO_END = (
    ("wall_s", "s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("largest_op_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def write_inputs(wl: workloads.Workload, work: Path) -> dict[str, str]:
    """Write the inputs and the probe under ``work``; return name -> path from the root."""
    files = dict(wl.inputs)
    files[PROBE] = (workloads.FIXTURES / f"{workloads.PROBE_INPUT}.json").read_bytes()
    work.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, data in files.items():
        path = work / f"{name}.json"
        path.write_bytes(data)
        paths[name] = str(path.relative_to(ROOT))
    return paths


def inputs_digest(wl: workloads.Workload) -> str:
    h = hashlib.sha256()
    for name in sorted(wl.inputs):
        h.update(name.encode() + b"\0" + hashlib.sha256(wl.inputs[name]).digest())
    return h.hexdigest()


def plan_for(wl: workloads.Workload, paths: dict[str, str], trace: bool, check_references: bool = True) -> dict:
    return {
        "trace": trace,
        "check_references": check_references,
        "inputs": {name: path for name, path in paths.items() if trace or name != PROBE},
        "ops": [{"id": op.id, "argv": list(op.argv), "input": op.input} for op in wl.ops],
        "probe": {"id": f"probe report:{workloads.PROBE_INPUT}", "argv": ["report", "{input}"], "input": PROBE},
    }


def run_one_pass(plan: dict, work: Path, deadline: float) -> dict:
    plan_path = work / "plan.json"
    result_path = work / "result.json"
    plan_path.write_text(json.dumps(plan))
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "passrun.py"), str(plan_path), str(result_path), repr(spawned)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("a pass did not finish in time") from exc
    if proc.returncode != 0 or not result_path.exists():
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"a pass exited with code {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text())


def run_passes(wl: workloads.Workload, paths: dict[str, str], seconds: float, trace: bool, work: Path):
    """Untraced passes, or untraced and traced passes in turn, for ``seconds``.

    Without tracing, each round also starts SETUPS_PER_ROUND interpreters
    that only set up, so that ``setup_s`` has more samples than there are
    passes.
    """
    kinds = [False, True] if trace else [False]
    plans = {k: plan_for(wl, paths, k) for k in kinds}
    setup_only = None if trace else dict(plans[False], setup_only=True)
    done: dict[bool, list[dict]] = {k: [] for k in kinds}
    setups: list[dict] = []
    lengths: list[float] = []
    start = time.monotonic()
    hard_deadline = start + RUN_LIMIT_S + 25
    while True:
        t = time.monotonic()
        for kind in kinds:
            done[kind].append(run_one_pass(plans[kind], work, hard_deadline))
        if setup_only:
            setups += [run_one_pass(setup_only, work, hard_deadline) for _ in range(SETUPS_PER_ROUND)]
        lengths.append(time.monotonic() - t)
        now = time.monotonic()
        enough = all(len(v) >= MIN_PASSES for v in done.values())
        if (enough and now + statistics.median(lengths) > start + seconds) or now - start > RUN_LIMIT_S:
            return done, setups


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(wl: workloads.Workload, passes: list[dict], setups: list[dict]) -> tuple[dict, list[str]]:
    ops = [op for p in passes for op in p["ops"]]
    latencies = [op["seconds"] for op in ops]
    beyond = sum(x > percentile(latencies, wl.tail_pct) for x in latencies)
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_s.p50": statistics.median(latencies),
        "op_s.tail": percentile(latencies, wl.tail_pct),
        "largest_op_s": statistics.median(op["seconds"] for op in ops if op["id"] == wl.largest_op),
        "setup_s": statistics.median(p["setup_s"] for p in passes + setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = [f"op_s.tail is p{wl.tail_pct} of {len(latencies)} op latencies ({beyond} beyond it)",
             f"largest_op_s is {wl.largest_op}",
             f"times are scaled to the reference speed (see README.md); unscaled, wall_s is "
             f"{statistics.median(p['raw_wall_s'] for p in passes):.4g} s and setup_s "
             f"{statistics.median(p['raw_setup_s'] for p in passes + setups):.4g} s",
             f"setup_s is the median of {len(passes) + len(setups)} set-ups"]
    return {name: [values[name], None] for name, _ in END_TO_END}, notes


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    out = {}
    for name, _ in tracing.PER_LAYER:
        if name == "trace_overhead_s":
            out[name] = [statistics.median(p["wall_s"] for p in traced)
                         - statistics.median(p["wall_s"] for p in untraced), None]
            continue
        samples = [p["layers"][name] for p in traced]
        missing = [reason for value, reason in samples if value is None]
        out[name] = [None, missing[0]] if missing else [statistics.median(v for v, _ in samples), None]
    probe = statistics.median(p["probe_s"] for p in traced)
    return out, [f"each traced pass also ran the probe op ({probe:.4f} s), included in the layer sums"]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    wl = workloads.build(name, seed)
    work = WORK / f"{os.getpid()}-{name}"
    try:
        paths = write_inputs(wl, work)
        done, setups = run_passes(wl, paths, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    every = [op for passes in done.values() for p in passes for op in p["ops"]]
    failed = [op for op in every if op["problem"]]
    units = dict(tracing.PER_LAYER if trace else END_TO_END)
    metrics, notes = per_layer(done[False], done[True]) if trace else end_to_end(wl, done[False], setups)
    lines = [f"workload {name}: seed {seed} (input variant {seed % workloads.VARIANTS}), "
             f"inputs sha256 {inputs_digest(wl)[:16]}, passes {sum(map(len, done.values()))}"]
    for metric, (value, reason) in metrics.items():
        shown = f"{value:.6g} {units[metric]}" if value is not None else f"null ({reason})"
        lines.append(f"  {metric:36s} {shown}")
    lines.append(f"  {'error_rate':36s} {len(failed) / len(every):.6g} ({len(failed)} of {len(every)} ops failed)")
    lines += [f"  note: {n}" for n in notes]
    lines += [f"  FAILED {op['id']}: {op['problem']}" for op in failed[:10]]
    result = {
        "correct": not failed,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": units[m]} for m, (v, _) in metrics.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "plumbline" / "__init__.py").is_file():
        print(f"error: no plumbline sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
