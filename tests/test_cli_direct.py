"""The direct path of ``plumbline.cli``: argv in the forms that ``_match``
reads runs without click's parser, and any other argv is click's.

Whenever the matcher accepts an argv, click's own parser must read the same
command path and the same params from it; and on a fixed corpus (every
golden, every usage error, help at three levels, shell completion) stdout,
stderr and exit code must be the bytes of a run in which the matcher
declines everything, which is click's path alone.
"""

import json
import os
import subprocess
import sys
from unittest import mock

import click
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plumbline import cli
from plumbline.cli import main

from conftest import FIXTURES
from test_cli import DIRECT_ONLY, GOLDEN_POINTS, GOLDENS, USAGE_ERRORS, fixture_path

TWO = fixture_path("two_triples")
POINT = GOLDEN_POINTS["two_triples"]


def click_reads(argv: list[str]) -> list:
    """The ``(name, command, params)`` path that click's own parser reads
    from ``argv``: the base classes' ``parse_args`` and ``resolve_command``,
    none of ``_Group``'s. Raises where click reports a usage error."""
    path, ctx, name, cmd, args = [], None, "plumbline", main, list(argv)
    while True:
        ctx = cmd.context_class(cmd, info_name=name, parent=ctx)
        args = click.Command.parse_args(cmd, ctx, args)
        path.append((name, cmd, ctx.params))
        if not isinstance(cmd, click.Group):
            return path
        name, cmd, args = click.Group.resolve_command(cmd, ctx, args)


def direct_reads(argv: list[str]) -> list | None:
    """The path that ``main.parse_args`` hands to the direct path, or None
    where it declines (click's parser is stubbed out, so nothing is run)."""
    ctx = main.context_class(main, info_name="plumbline")
    with mock.patch.object(click.Group, "parse_args", lambda *args: None):
        main.parse_args(ctx, list(argv))
    if "plumbline.direct" not in ctx.meta:
        return None
    return [("plumbline", main, ctx.params), *ctx.meta["plumbline.direct"]]


def same(path: list) -> list:
    """A path in a form that compares by value: params sorted by name and
    written out, so that a nan reads equal to a nan."""
    return [(name, cmd, repr(sorted(params.items()))) for name, cmd, params in path]


# Values for any option or argument: in and out of range, nan, option-like
# strings, names of commands, and the paths and points the commands read.
VALUES = [
    "0", "1", "2", "3", "5", "-1", "-7", "nan", "inf", "0.5", "1.5", "-0.5", "1e400", "9" * 30,
    "json", "table", "xml", "", "x", "-", "-x", "--", "--help", "--seed", "report", "eval", TWO, POINT,
]
ROOT_OPTIONS = [p for p in main.params if isinstance(p, click.Option)]


def typical(param: click.Parameter) -> list[str]:
    """Values that ``param``'s declared type reads, mostly."""
    if isinstance(param.type, click.Choice):
        return list(param.type.choices)
    if isinstance(param.type, click.types.IntParamType):
        return ["0", "1", "3", "5", "6", "-1"]
    if isinstance(param.type, click.types.FloatParamType):
        return ["0", "0.5", "1", "0.25"]
    return [POINT, TWO]


@st.composite
def argvs(draw) -> list[str]:
    """An argv built from the declared grammar, mostly in forms that the
    direct path reads, with the edge cases: options repeated, misplaced,
    unknown, in ``--opt=value`` form or without a value; values out of
    range; arguments too few, too many or option-like; unknown commands;
    and a ``--help``, ``--`` or ``-x`` dropped in anywhere."""
    argv: list[str] = []
    cmd: click.Command = main
    rare = st.integers(0, 7).map(lambda n: n == 0)  # true one time in eight
    while True:
        options = [p for p in cmd.params if isinstance(p, click.Option)]
        pieces = []
        for _ in range(draw(st.integers(0, 3)) if options else draw(rare)):  # a misplaced option is rare
            param = draw(st.sampled_from(ROOT_OPTIONS if draw(rare) or not options else options))
            opt = "--nope" if draw(rare) else param.opts[0]
            value = draw(st.sampled_from(VALUES if draw(rare) else typical(param)))
            pieces.append(draw(st.sampled_from([[f"{opt}={value}"], [opt]])) if draw(rare) else [opt, value])
        if not isinstance(cmd, click.Group):
            n_args = sum(isinstance(p, click.Argument) for p in cmd.params) + draw(rare) * draw(st.sampled_from([-1, 1]))
            pieces += [[draw(st.sampled_from(["-", "-x", "--", "p"])) if draw(rare) else TWO] for _ in range(n_args)]
            argv += [token for piece in draw(st.permutations(pieces)) for token in piece]
            break
        argv += [token for piece in pieces for token in piece]
        name = draw(st.sampled_from(["nope", None])) if draw(rare) else draw(st.sampled_from(sorted(cmd.commands)))
        if name is None:
            break
        argv.append(name)
        if name not in cmd.commands:
            break
        cmd = cmd.commands[name]
    if draw(rare):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--help", "--", "-x"])))
    return argv


@given(argvs())
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_matcher_agrees_with_click(argv):
    found = direct_reads(argv)
    if found is not None:
        assert same(found) == same(click_reads(argv))


# Argv that the direct path must take, and argv it must leave to click.
DIRECT = [
    ["report", TWO],
    ["--seed", "1", "--trials", "2", "--format", "table", "report", TWO],
    ["--seed", "1", "--seed", "-4", "resonance", "generic", TWO],
    ["resonance", "eval", TWO, "--point", POINT],
    ["resonance", "eval", "--point", POINT, TWO],
    ["resonance", "eval", "--point", "--seed", TWO],
    ["random"],
    ["--seed", "3", "random", "--count", "2", "--lines", "6", "--density", "0.25", "--lines", "7"],
]
TO_CLICK = [
    [], ["--seed", "1"], ["nope", TWO], ["report"], ["report", TWO, TWO], ["report", "-"], ["report", "-x"],
    ["report", "--", TWO], ["--help"], ["report", "--help"], ["resonance", "--help"], ["--seed", "--help"],
    ["resonance", "eval", TWO, "--point", "--help"], ["resonance", "eval", TWO], ["--format=table", "ring", TWO],
    ["--seed=1", "random", "--lines=5"], ["--seed", "x", "report", TWO], ["--trials", "0", "report", TWO],
    ["random", "--lines", "2"], ["random", "--density", "1.5"], ["report", TWO, "--seed", "1"],
    ["resonance", "--seed", "1", "generic", TWO], ["--seed"], ["random", "--count"],
]


@pytest.mark.parametrize("argv", DIRECT, ids=" ".join)
def test_direct_forms_are_matched(argv):
    found = direct_reads(argv)
    assert found is not None
    assert same(found) == same(click_reads(argv))


@pytest.mark.parametrize("argv", TO_CLICK, ids=lambda argv: " ".join(argv) or "no-args")
def test_other_forms_go_to_click(argv):
    assert direct_reads(argv) is None


def golden_runs() -> dict[str, list[str]]:
    """The argv of every file under ``fixtures/goldens/``, by file name."""
    runs = {}
    for name in ("two_triples", "pappus_violating"):
        path = fixture_path(name)
        for command in ("validate", "nbc", "os", "double", "homology", "ring", "verify"):
            runs[f"{name}_{command}.json"] = [command, path]
        runs[f"{name}_report.json"] = ["--seed", "2026", "report", path]
        runs[f"{name}_resonance_generic.json"] = ["--seed", "2026", "resonance", "generic", path]
        runs[f"{name}_resonance_classify.json"] = ["resonance", "classify", path]
        runs[f"{name}_resonance_eval.json"] = ["resonance", "eval", "--point", GOLDEN_POINTS[name], path]
    for lines, density, seed, count in [(4, "0.0", 7, 2), (6, "0.5", 1, 3), (8, "0.8", 42, 3)]:
        runs[f"random_l{lines}_d{density.replace('.', '')}_s{seed}.ndjson"] = [
            "--seed", str(seed), "random", "--lines", str(lines), "--density", density, "--count", str(count),
        ]
    return runs


GOLDEN_RUNS = golden_runs()


def test_golden_runs_cover_the_goldens():
    assert sorted(GOLDEN_RUNS) == sorted(os.listdir(GOLDENS))


@pytest.mark.parametrize("golden", GOLDEN_RUNS)
def test_golden_on_the_direct_path(golden):
    # With click's parser stubbed out, only the direct path can run the command.
    with mock.patch.object(click.Command, "parse_args", lambda *args: pytest.fail("click parsed the arguments")):
        result = CliRunner().invoke(main, GOLDEN_RUNS[golden])
    assert result.exit_code == 0
    assert result.stdout_bytes == (GOLDENS / golden).read_bytes()


# Shell completion requests (COMP_WORDS, COMP_CWORD), which click answers
# from a context that it parses with resilient_parsing set.
COMPLETIONS = [
    ("plumbline ", "1"), ("plumbline res", "1"), ("plumbline resonance ", "2"), ("plumbline --seed 1 resonance ev", "4"),
    ("plumbline random --", "2"), ("plumbline --format ", "2"), (f"plumbline report {TWO} --", "3"),
    (f"plumbline resonance eval {TWO} --po", "4"),
]
CORPUS = {
    **{f"golden:{name}": argv for name, argv in GOLDEN_RUNS.items()},
    **{f"usage:{name}": argv for name, argv in USAGE_ERRORS.items()},
    "random": ["random"],
    "random-options": ["--seed", "5", "random", "--lines", "6", "--density", "0.3", "--count", "2"],
    "help": ["--help"],
    "help-resonance": ["resonance", "--help"],
    "help-resonance-eval": ["resonance", "eval", "--help"],
    "help-after-path": ["report", TWO, "--help"],
    **{f"to-click:{' '.join(argv) or 'no-args'}": argv for argv in TO_CLICK},
    **{f"direct:{' '.join(argv)}": argv for argv in DIRECT},
    "random-nan-density": ["random", "--density", "nan"],
    # click parses the group's options, and the sub-group takes the direct path from there
    "equals-then-sub-group": ["--format=table", "resonance", "classify", TWO],
}


def outcome(argv: list[str], env: dict | None = None) -> tuple:
    result = CliRunner().invoke(main, argv, env=env, prog_name="plumbline")
    error = result.exception if not isinstance(result.exception, SystemExit) else None
    return result.exit_code, result.stdout_bytes, result.stderr_bytes, repr(error)


@pytest.mark.parametrize("argv", CORPUS.values(), ids=CORPUS)
def test_same_bytes_as_click_alone(argv, monkeypatch):
    ours = outcome(argv)
    monkeypatch.setattr(cli, "_match", lambda *args: None)
    assert ours == outcome(argv)


@pytest.mark.parametrize(("words", "cword"), COMPLETIONS, ids=[words for words, _ in COMPLETIONS])
def test_same_completions_as_click_alone(words, cword, monkeypatch):
    env = {"_PLUMBLINE_COMPLETE": "bash_complete", "COMP_WORDS": words, "COMP_CWORD": cword}
    ours = outcome([], env)
    assert ours[0] == 0 and ours[1]
    monkeypatch.setattr(cli, "_match", lambda *args: None)
    assert ours == outcome([], env)


@pytest.mark.parametrize("direct", [True, False], ids=["direct", "click"])
def test_closed_pipe_exits_1_quietly(tmp_path, direct):
    # 64 generic lines write megabytes of matrix; the reader closes the pipe
    # after 10 bytes. As on click's path, exit 1 and nothing on stderr.
    path = tmp_path / "generic64.json"
    path.write_text(json.dumps({"lines": 64, "points": []}))
    run = ["-c", DIRECT_ONLY, "homology"] if direct else ["-m", "plumbline.cli", "--format=json", "homology"]
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    with subprocess.Popen([sys.executable, *run, str(path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (code, head, err) == (1, b'{\n  "b1_gr', b"")
