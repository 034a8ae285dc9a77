"""The benchmark's traced run still finds every layer it measures.

``perfbench/tracing.py`` wraps the functions that ``plumbline`` exports and
reports a layer as ``None`` when one of them is gone, has a new signature or
is no longer called where it looks. The tracer patches module globals, so
the commands run in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import contextlib, io, json, sys, time

import tracing
import plumbline
import plumbline.cli

path = sys.argv[1]
ops = [
    ["report", path],
    ["homology", path],
    ["verify", path],
    ["resonance", "generic", path],
    ["resonance", "eval", path, "--point", '{"a": [1, "1/2", 0, -1], "b": [0, 1, 0, 2]}'],
]
tracer = tracing.install(plumbline)
codes, seconds, size = [], [], 0
for i, argv in enumerate(ops):
    tracer.op = i
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            plumbline.cli.main.main(args=argv, prog_name="plumbline", standalone_mode=True)
        codes.append(0)
    except SystemExit as exc:
        codes.append(exc.code)
    seconds.append(time.perf_counter() - start)
    size += len(buf.getvalue().encode())
layers = tracing.pass_layers(tracer, seconds, size)
print(json.dumps({"codes": codes, "layers": layers}))
"""


def test_traced_pass_has_no_null_layer():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "fixtures" / "two_triples.json")],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["codes"] == [0] * 5
    missing = {name: why for name, (value, why) in doc["layers"].items() if value is None}
    assert missing == {}
