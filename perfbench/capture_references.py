"""Capture the stdout references that every benchmark op is checked against.

    python3 perfbench/capture_references.py [FIRST_VARIANT LAST_VARIANT]

Run it from the root of a checkout of the reference commit. For every
input variant and workload it runs each op that has no reference yet once,
in a fresh interpreter, refuses any op that exits non-zero or breaks an
invariant of ``checks.py``, and records the digest of its stdout in
``references.json``. Existing references are kept, never overwritten;
references of ops that no workload runs any more are dropped.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import checks
import run
import workloads


def main() -> int:
    first, last = (int(a) for a in sys.argv[1:3]) if len(sys.argv) > 2 else (0, workloads.VARIANTS - 1)
    refs = checks.load_references()
    wanted = {checks.op_key(op.argv, wl.inputs.get(op.input))
              for variant in range(workloads.VARIANTS) for name in workloads.WORKLOADS
              for wl in [workloads.build(name, variant)] for op in wl.ops}
    refs = {key: value for key, value in refs.items() if key in wanted}
    for variant in range(first, last + 1):
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, variant)
            todo = [op for op in wl.ops
                    if checks.op_key(op.argv, wl.inputs.get(op.input)) not in refs]
            if not todo:
                continue
            work = run.WORK / f"capture-{name}"
            try:
                paths = run.write_inputs(wl, work)
                plan = run.plan_for(wl, paths, trace=False, check_references=False)
                plan["ops"] = [{"id": op.id, "argv": list(op.argv), "input": op.input} for op in todo]
                result = run.run_one_pass(plan, work, time.monotonic() + 600)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            for op, got in zip(todo, result["ops"]):
                if got["problem"]:
                    print(f"error: variant {variant} {op.id}: {got['problem']}", file=sys.stderr)
                    return 1
                refs[checks.op_key(op.argv, wl.inputs.get(op.input))] = got["digest"]
            print(f"variant {variant} {name}: {len(todo)} ops captured", flush=True)
        doc = {"variants": workloads.VARIANTS, "ops": dict(sorted(refs.items()))}
        checks.REFERENCES.write_text(json.dumps(doc, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
