"""End-to-end tests of the command-line interface."""

import functools
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction

import click
import pytest
from click.testing import CliRunner

import oracles
import plumbline
from plumbline import beta, cli, exact_linalg, from_json, verify_double_isomorphism
from plumbline.cli import build_report, main, random_arrangement

from conftest import ALL_FIXTURES, FIXTURES, load_fixture

GOLDENS = FIXTURES / "goldens"
# The points of the resonance_eval goldens.
GOLDEN_POINTS = {
    "two_triples": '{"a": [1, "1/2", 0, -1], "b": [0, 1, 0, 2]}',
    "pappus_violating": '{"a": [1, -2, "3/4", 0, 5, -1, 2, "1/3"], '
    '"b": [0, 1, -1, 2, 0, "5/2", 1, 0, 3, -3, 0, 1, "-1/7", 2, 0, 0, 4, 1, -2, 0]}',
}


@pytest.fixture
def runner():
    return CliRunner()


def fixture_path(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


def all_output(result) -> str:
    try:
        err = result.stderr
    except (ValueError, AttributeError):
        err = ""
    return result.output + err


class TestValidateCommand:
    def test_normalizes(self, runner):
        result = runner.invoke(main, ["validate", fixture_path("triangle")])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["lines"] == 3
        assert doc["points"] == []
        assert doc["points_full"] == [[0, 1], [0, 2], [1, 2]]

    def test_table_format(self, runner):
        result = runner.invoke(main, ["--format", "table", "validate", fixture_path("triangle")])
        assert result.exit_code == 0
        assert "lines: 3" in result.output
        assert "  1,2" in result.output

    def test_axiom_violation_exits_1(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"lines": 5, "points": [[0, 1, 2], [0, 1, 3]]}')
        result = runner.invoke(main, ["validate", str(bad)])
        assert result.exit_code == 1
        assert "lines 0 and 1" in all_output(result)

    def test_invalid_json_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        result = runner.invoke(main, ["validate", str(bad)])
        assert result.exit_code == 2
        assert "line 1" in all_output(result)

    @pytest.mark.parametrize(
        "text", ['{"lines": ' + "7" * 5000 + ', "points": []}', "[" * 100_000], ids=["long-integer", "deep-nesting"]
    )
    def test_unreadable_json_exits_2(self, runner, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        result = runner.invoke(main, ["validate", str(bad)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in all_output(result)

    @pytest.mark.parametrize("command", [["validate"], ["os"], ["verify"], ["report"], ["resonance", "generic"]])
    def test_file_not_utf8_exits_2(self, runner, tmp_path, command):
        # \xff cannot start a UTF-8 sequence: an error line, not a traceback.
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"lines": 3}')
        result = runner.invoke(main, command + [str(bad)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"error: {bad}: " in all_output(result)
        assert "Traceback" not in all_output(result)

    def test_missing_file_exits_2(self, runner):
        result = runner.invoke(main, ["validate", "no_such_file.json"])
        assert result.exit_code == 2

    def test_wrong_shape_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"lines": "five", "points": []}')
        result = runner.invoke(main, ["validate", str(bad)])
        assert result.exit_code == 2

    @pytest.mark.parametrize(("command", "lines"), [("validate", 1_000_000), ("nbc", 3000)])
    def test_out_of_memory_exits_2(self, tmp_path, command, lines):
        # In a child whose address space is capped at 512 MB these inputs run
        # out of memory: an error line and exit 2, not a MemoryError traceback.
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"lines": lines, "points": []}))
        limit = 512 * 2**20
        proc = subprocess.run(
            [sys.executable, "-m", "plumbline.cli", command, str(path)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src")),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: out of memory: the input is too large\n"


class TestQueryCommands:
    def test_nbc(self, runner):
        result = runner.invoke(main, ["nbc", fixture_path("two_triples")])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc == {"b1": 4, "nbc": [[1, 2], [1, 3], [1, 4], [2, 4]]}

    def test_os(self, runner):
        result = runner.invoke(main, ["os", fixture_path("two_triples")])
        doc = json.loads(result.output)
        assert doc["degree1"] == ["e1", "e2", "e3", "e4"]
        assert {"x": "e1", "y": "e2", "value": {"f(1,2)": 1}} in doc["products"]

    def test_double(self, runner):
        result = runner.invoke(main, ["double", fixture_path("two_triples")])
        doc = json.loads(result.output)
        assert doc["degree3"] == ["~1"]
        assert len(doc["degree1"]) == 8

    def test_homology(self, runner):
        result = runner.invoke(main, ["homology", fixture_path("two_triples")])
        doc = json.loads(result.output)
        assert doc["free_rank"] == 8
        assert doc["torsion"] == []
        assert doc["matrix"]["rows"] == 11
        assert doc["matrix"]["entries"][0] == "-2"

    def test_homology_matches_goldens(self, runner):
        for name in ["two_triples", "pappus_violating"]:
            result = runner.invoke(main, ["homology", fixture_path(name)])
            assert result.exit_code == 0
            assert result.output == (GOLDENS / f"{name}_homology.json").read_text(), name

    @pytest.mark.parametrize("name", ["two_triples", "pappus_violating"])
    @pytest.mark.parametrize(
        "golden, args",
        [
            ("validate", ["validate"]),
            ("nbc", ["nbc"]),
            ("os", ["os"]),
            ("double", ["double"]),
            ("ring", ["ring"]),
            ("verify", ["verify"]),
            ("resonance_generic", ["--seed", "2026", "resonance", "generic"]),
            ("resonance_classify", ["resonance", "classify"]),
            ("resonance_eval", ["resonance", "eval", "--point"]),
        ],
    )
    def test_matches_goldens(self, runner, name, golden, args):
        if golden == "resonance_eval":
            args = args + [GOLDEN_POINTS[name]]
        result = runner.invoke(main, args + [fixture_path(name)])
        assert result.exit_code == 0
        assert result.output == (GOLDENS / f"{name}_{golden}.json").read_text()

    def test_homology_table(self, runner):
        result = runner.invoke(main, ["--format", "table", "homology", fixture_path("two_triples")])
        assert result.output == "b1_graph: 4\ncoker_free_rank: 4\nfree_rank: 8\ntorsion: []\n"

    def test_ring_json(self, runner):
        result = runner.invoke(main, ["ring", fixture_path("two_triples")])
        doc = json.loads(result.output)
        entries = {(row["x"], row["y"]): row["value"] for row in doc["products"]}
        assert entries[("F2", "tau(1,2)")] == {"t1": 1, "t3": 1}

    def test_ring_table(self, runner):
        result = runner.invoke(main, ["--format", "table", "ring", fixture_path("two_triples")])
        assert "F1 . F2 = g(1,2)" in result.output
        assert "F2 . tau(1,2) = t1 + t3" in result.output
        assert "F3 . tau(1,2) = -t2" in result.output

    def test_verify_ok(self, runner):
        result = runner.invoke(main, ["verify", fixture_path("pappus_violating")])
        assert result.exit_code == 0
        assert json.loads(result.output) == {"ok": True, "mismatches": []}

    def test_resonance_eval(self, runner):
        result = runner.invoke(
            main,
            [
                "resonance", "eval", fixture_path("two_triples"),
                "--point", '{"a": [1, "1/2", 0, -1], "b": [0, 0, 0, 0]}',
            ],
        )
        assert result.exit_code == 0
        assert json.loads(result.output) == {"betti": [0, 1, 1, 0]}

    def test_resonance_eval_wrong_length_exits_1(self, runner):
        result = runner.invoke(
            main,
            ["resonance", "eval", fixture_path("two_triples"), "--point", '{"a": [1], "b": []}'],
        )
        assert result.exit_code == 1

    def test_resonance_eval_bad_coordinate_exits_2(self, runner):
        result = runner.invoke(
            main,
            [
                "resonance", "eval", fixture_path("two_triples"),
                "--point", '{"a": ["x", 0, 0, 0], "b": [0, 0, 0, 0]}',
            ],
        )
        assert result.exit_code == 2

    def test_resonance_generic(self, runner):
        result = runner.invoke(
            main, ["--seed", "3", "--trials", "4", "resonance", "generic", fixture_path("two_triples")]
        )
        doc = json.loads(result.output)
        assert doc["betti"] == [0, 1, 1, 0]
        assert doc["beta"] == 1
        assert (doc["seed"], doc["trials"]) == (3, 4)

    def test_resonance_classify(self, runner):
        result = runner.invoke(main, ["resonance", "classify", fixture_path("nearpencil_n4")])
        doc = json.loads(result.output)
        assert doc == {"class": "near_pencil", "beta": 0, "predicted_r11_dim": 6, "n": 4}


class TestReportCommand:
    def test_two_triples_report(self, runner):
        result = runner.invoke(main, ["--seed", "2026", "report", fixture_path("two_triples")])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["class"] == "general"
        assert doc["beta"] == 1
        assert doc["homology"]["free_rank"] == 8
        assert doc["isomorphism"] == {"ok": True, "mismatches": []}
        assert doc["resonance"]["betti_generic"] == [0, 1, 1, 0]
        assert doc["resonance"]["predicted_r11_dim"] == 8

    def test_matches_golden(self, runner):
        result = runner.invoke(main, ["--seed", "2026", "report", fixture_path("two_triples")])
        assert result.output == (GOLDENS / "two_triples_report.json").read_text()

    def test_matches_golden_non_realizable(self, runner):
        # No complex lines realize this arrangement; its report is pinned too.
        result = runner.invoke(main, ["--seed", "2026", "report", fixture_path("pappus_violating")])
        assert result.exit_code == 0
        assert result.output == (GOLDENS / "pappus_violating_report.json").read_text()

    def test_build_report_deterministic(self, two_triples):
        assert build_report(two_triples, seed=9, trials=3) == build_report(two_triples, seed=9, trials=3)

    def test_table_format(self, runner):
        result = runner.invoke(main, ["--format", "table", "report", fixture_path("two_triples")])
        assert "isomorphism_ok: True" in result.output


class TestGenericNeedsNoSampling:
    """The generic Betti numbers are proved at one point: --seed and --trials
    change no byte of ``resonance generic`` or ``report`` but the two keys
    that echo them."""

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    @pytest.mark.parametrize("command", [["resonance", "generic"], ["report"]], ids=["generic", "report"])
    def test_stdout_ignores_seed_and_trials(self, runner, name, command):
        args = command + [fixture_path(name)]
        base = runner.invoke(main, args).stdout_bytes
        assert base.count(b'"seed": 0,') == base.count(b'"trials": 5\n') == 1
        for seed in range(4):
            for trials in range(1, 6):
                result = runner.invoke(main, ["--seed", str(seed), "--trials", str(trials)] + args)
                assert result.exit_code == 0
                want = base.replace(b'"seed": 0,', b'"seed": %d,' % seed)
                assert result.stdout_bytes == want.replace(b'"trials": 5\n', b'"trials": %d\n' % trials), (seed, trials)

    def test_one_trial_on_a_near_pencil(self, runner):
        # The sampled walk's one point was resonant here and read [0, 6, 6, 0].
        result = runner.invoke(main, ["--trials", "1", "resonance", "generic", fixture_path("nearpencil_n5")])
        assert json.loads(result.output)["betti"] == [0, 0, 0, 0]


class TestRandomCommand:
    def test_deterministic(self, runner):
        args = ["--seed", "11", "random", "--lines", "6", "--density", "0.5", "--count", "3"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output
        assert len(first.output.strip().splitlines()) == 3

    def test_outputs_valid_arrangements(self, runner):
        result = runner.invoke(
            main, ["--seed", "4", "random", "--lines", "7", "--density", "0.9", "--count", "5"]
        )
        assert result.exit_code == 0
        for line in result.output.strip().splitlines():
            arr = from_json(json.loads(line))
            assert arr.n_lines == 7

    def test_too_few_lines_exits_2(self, runner):
        result = runner.invoke(main, ["random", "--lines", "2"])
        assert result.exit_code == 2

    def test_matches_goldens(self, runner):
        cases = [
            (["--seed", "1", "random", "--lines", "6", "--density", "0.5", "--count", "3"],
             "random_l6_d05_s1.ndjson"),
            (["--seed", "7", "random", "--lines", "4", "--density", "0.0", "--count", "2"],
             "random_l4_d00_s7.ndjson"),
            (["--seed", "42", "random", "--lines", "8", "--density", "0.8", "--count", "3"],
             "random_l8_d08_s42.ndjson"),
        ]
        for args, golden_name in cases:
            result = runner.invoke(main, args)
            assert result.output == (GOLDENS / golden_name).read_text(), golden_name


class TestRandomArrangementFunction:
    def test_validates(self):
        rng = random.Random(13)
        for lines in range(3, 9):
            for density in (0.0, 0.4, 1.0):
                arr = random_arrangement(rng, lines, density)
                assert arr.n_lines == lines
                # Valid by construction; the verifier must accept it too.
                assert verify_double_isomorphism(arr).ok

    def test_zero_density_is_generic(self):
        arr = random_arrangement(random.Random(1), 5, 0.0)
        assert all(len(pt) == 2 for pt in arr.points)
        assert beta(arr) > 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            random_arrangement(random.Random(0), 2, 0.5)
        with pytest.raises(ValueError):
            random_arrangement(random.Random(0), 5, 1.5)


class TestUsageErrors:
    """Out-of-range options and unreadable coordinates exit 2 without a traceback."""

    @pytest.mark.parametrize(
        "args",
        [
            ["--trials", "0", "resonance", "generic", fixture_path("two_triples")],
            ["random", "--count", "-1"],
            [
                "resonance", "eval", fixture_path("two_triples"),
                "--point", '{"a": [1e400, 0, 0, 0], "b": [0, 0, 0, 0]}',
            ],
            [
                "resonance", "eval", fixture_path("two_triples"),
                "--point", '{"a": [0.1, 0, 0, 0], "b": [0, 0, 0, 0]}',
            ],
            [
                "resonance", "eval", fixture_path("two_triples"),
                "--point", '{"a": "1000", "b": [0, 0, 0, 0]}',
            ],
            [
                "resonance", "eval", fixture_path("two_triples"),
                "--point", '{"a": [true, 0, 0, 0], "b": [0, 0, 0, 0]}',
            ],
            [
                "resonance", "eval", fixture_path("two_triples"),
                "--point", '{"a": [' + "1" * 5000 + ', 0, 0, 0], "b": [0, 0, 0, 0]}',
            ],
            ["resonance", "eval", fixture_path("two_triples"), "--point", "[" * 5000],
        ],
        ids=[
            "trials-0", "count-negative", "point-overflow", "point-float", "point-string", "point-bool",
            "point-long-integer", "point-deep-nesting",
        ],
    )
    def test_exits_2(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in all_output(result)

    @pytest.mark.parametrize(
        "coord", ['"1e-999999"', '"1e-9999999"', '"1/' + "7" * 5000 + '"'], ids=["exp-6", "exp-7", "long-denominator"]
    )
    def test_oversized_coordinate_exits_2_at_once(self, runner, coord):
        # Fraction("1e-9999999") alone takes seconds; the digits are counted first.
        point = '{"a": [' + coord + ', 0, 0, 0], "b": [0, 0, 0, 0]}'
        start = time.perf_counter()
        result = runner.invoke(main, ["resonance", "eval", fixture_path("two_triples"), "--point", point])
        assert time.perf_counter() - start < 2
        assert result.exit_code == 2
        assert "4300 digits" in all_output(result)

    def test_point_digits_are_capped_in_all(self, runner, tmp_path, monkeypatch):
        # r1 = 15, r2 = 85. A zero-a point whose b coordinates each pass the
        # per-number limit ran for minutes in betti_numbers: every entry of
        # Phi(b) is scaled by the lcm of all 85 denominators.
        monkeypatch.setattr("plumbline.cli.betti_numbers", lambda dbl, pt: pytest.fail("point was evaluated"))
        arr = runner.invoke(main, ["--seed", "1", "random", "--lines", "16", "--density", "0.3"])
        path = tmp_path / "mixed16.json"
        path.write_text(arr.output)
        b = [f'"1/{random.Random(i).randrange(10**399, 10**400)}"' for i in range(85)]
        point = '{"a": [' + ", ".join(["0"] * 15) + '], "b": [' + ", ".join(b) + "]}"
        start = time.perf_counter()
        result = runner.invoke(main, ["resonance", "eval", str(path), "--point", point])
        assert time.perf_counter() - start < 1
        assert result.exit_code == 2
        assert "more than 4300 digits in all" in all_output(result)

    def test_point_of_4300_digits_evaluates(self, runner):
        # Two 1075-digit ints and two strings of 1075 digits each; the four
        # zeros are not charged.
        big, den = "9" * 1075, "7" * 1074
        point = '{"a": [' + big + ', "1/' + den + '", 0, 0], "b": [-' + big + ', "3/' + den + '", 0, 0]}'
        result = runner.invoke(main, ["resonance", "eval", fixture_path("two_triples"), "--point", point])
        assert result.exit_code == 0
        assert json.loads(result.output)["betti"][0] == 0
        over = point.replace('"3/', '"30/')
        result = runner.invoke(main, ["resonance", "eval", fixture_path("two_triples"), "--point", over])
        assert result.exit_code == 2

    @staticmethod
    def _evaluates_on_generic128(runner, tmp_path, b_first, b_rest):
        """``resonance eval`` at a = 0 and b = (b_first, b_rest, ..., b_rest)
        on 128 generic lines, 8128 coordinates, prints that point's Betti numbers."""
        arr = random_arrangement(random.Random(1), 128, 0)
        path = tmp_path / "generic128.json"
        path.write_text(json.dumps(plumbline.to_json(arr)))
        dbl = plumbline.double(plumbline.os_algebra(arr))
        r1, r2 = dbl.base.rank(1), dbl.base.rank(2)
        assert r1 + r2 == 8128
        point = {"a": [0] * r1, "b": [b_first] + [b_rest] * (r2 - 1)}
        result = runner.invoke(main, ["resonance", "eval", str(path), "--point", json.dumps(point)])
        assert result.exit_code == 0, all_output(result)
        pt = plumbline.AomotoPoint(*(tuple(map(Fraction, point[k])) for k in "ab"))
        assert json.loads(result.output) == {"betti": list(plumbline.betti_numbers(dbl, pt))}

    def test_point_of_one_digit_ints_is_not_capped(self, runner, tmp_path):
        # No denominator, so no entry grows past one digit.
        self._evaluates_on_generic128(runner, tmp_path, 1, 1)

    def test_zero_coordinates_are_not_charged(self, runner, tmp_path):
        # The lcm 3 scales the point, and each of the 8127 zeros stays zero.
        self._evaluates_on_generic128(runner, tmp_path, "1/3", 0)

    def test_point_keeps_int_coordinates(self):
        # Only a string goes through Fraction; an int reaches the complex as it is.
        pt = cli._parse_point({"a": [1, "1/2", 0, -1], "b": [0, "3", 10**50, "0.25"]})
        assert pt.a + pt.b == (1, Fraction(1, 2), 0, -1, 0, 3, 10**50, Fraction(1, 4))
        assert [type(v) for v in pt.a + pt.b] == [int, Fraction, int, int, int, Fraction, int, Fraction]


# Runs the CLI and then reports the child's own peak RSS (KB on Linux) on
# stderr. Linux carries ru_maxrss across exec, so a child of a large test
# process reads the parent's peak there; VmHWM is the child's alone.
MAXRSS_CHILD = """
import re, resource, sys
from plumbline.cli import main
try:
    main.main(args=sys.argv[1:], prog_name="plumbline")
finally:
    sys.stdout.flush()
    try:
        with open("/proc/self/status") as status:
            peak = re.search(r"VmHWM:\\s*(\\d+)", status.read()).group(1)
    except OSError:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stderr.write(f"maxrss {peak}\\n")
"""


def test_homology_48_lines_stays_small(runner, tmp_path):
    # A 1176 x 1176 plumbing matrix, 15.2 MB of output. Written from its graph
    # it peaks near 60 MB; a dense string list dumped by json.dumps(indent=2)
    # peaked at 234 MB. No timing assertion: host speed swings by 2x.
    arr = runner.invoke(main, ["--seed", "1", "random", "--lines", "48", "--density", "0"])
    path = tmp_path / "generic48.json"
    path.write_text(arr.output)
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", MAXRSS_CHILD, "homology", str(path)],
        capture_output=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert len(proc.stdout) == 15_214_123
    assert proc.stdout.startswith(b'{\n  "b1_graph": 1081,') and proc.stdout.endswith(b'  "torsion": []\n}\n')
    assert hashlib.sha1(proc.stdout).hexdigest() == "33af26209d7b7573160aac96b6272f6cedeb6be2"  # about 15 blocks
    maxrss_mb = int(proc.stderr.decode().rsplit("maxrss ", 1)[1]) / 1024
    assert maxrss_mb < 150


def test_report_64_lines_stays_small(runner, tmp_path):
    # 2.07 MB of output, most of it the three product lists. Written from the
    # positional tables in blocks it peaks near 32 MB; built as one dict per
    # product and joined whole it peaked near 43 MB. No timing assertion.
    arr = runner.invoke(main, ["--seed", "1", "random", "--lines", "64", "--density", "0"])
    path = tmp_path / "generic64.json"
    path.write_text(arr.output)
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", MAXRSS_CHILD, "report", str(path)],
        capture_output=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert len(proc.stdout) == 2_071_464
    assert proc.stdout.startswith(b'{\n  "arrangement": {\n    "lines": 64,')
    assert proc.stdout.endswith(b'    "seed": 0,\n    "trials": 5\n  }\n}\n')
    maxrss_mb = int(proc.stderr.decode().rsplit("maxrss ", 1)[1]) / 1024
    assert maxrss_mb < 38


def test_resonance_generic_256_lines_stays_small(tmp_path):
    # r1 = 255 and r2 = 32385. The generic Betti numbers read only the
    # Orlik-Solomon table: with the doubled table also built the child
    # peaked near 101 MB, without it near 52 MB. No timing assertion.
    doc = {"lines": 256, "points": []}
    path = tmp_path / "generic256.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", MAXRSS_CHILD, "resonance", "generic", str(path)],
        capture_output=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    arr = from_json(doc)
    r1, r2 = arr.n, len(plumbline.nbc_set(arr))
    b = r1 + r2 - 1 - 2 * (r1 - 1)
    assert json.loads(proc.stdout)["betti"] == [0, b, b, 0]
    maxrss_mb = int(proc.stderr.decode().rsplit("maxrss ", 1)[1]) / 1024
    assert maxrss_mb < 75


@pytest.mark.parametrize("command", [["report"], ["os"], ["double"], ["ring"], ["homology"]])
def test_json_goes_out_in_blocks(runner, monkeypatch, command):
    # Below BLOCK characters a document is one click.echo call; above it, the
    # blocks join to the same text.
    calls = []
    echo = cli.click.echo

    def spy(message=None, **kwargs):
        calls.append(message)
        echo(message, **kwargs)

    monkeypatch.setattr(cli.click, "echo", spy)
    args = command + [fixture_path("pappus_violating")]
    whole = runner.invoke(main, args).output
    assert calls == [whole]
    calls.clear()
    monkeypatch.setattr(cli, "BLOCK", 200)
    monkeypatch.setattr(cli, "CHUNK", 2)
    assert runner.invoke(main, args).output == whole
    assert len(calls) > 3 and "".join(calls) == whole


def test_no_plumbing_sized_matrix(runner, monkeypatch, tmp_path):
    # The plumbing matrix of 40 generic lines is V x V with V = 820, but
    # its nonzeros number V + 2E; no dense matrix of V^2 entries is built on
    # the way to its Smith form, nor anywhere else in h1_boundary, verify or
    # report. Resonance builds no dense matrix either, so the spy is shown
    # to be live on one matrix built here.
    arr = random_arrangement(random.Random(1), 40, 0.0)
    nv = arr.n_lines + len(arr.points)
    path = tmp_path / "generic40.json"
    path.write_text(json.dumps(plumbline.to_json(arr)))
    sizes = []
    real = exact_linalg._Matrix.__post_init__

    def spy(self):
        sizes.append(self.rows * self.cols)
        real(self)

    monkeypatch.setattr(exact_linalg._Matrix, "__post_init__", spy)
    plumbline.h1_boundary(arr)
    for command in ("verify", "report"):
        assert runner.invoke(main, [command, str(path)]).exit_code == 0
    assert max(sizes, default=0) < nv * nv
    exact_linalg.IntMatrix.identity(3)
    assert sizes[-1:] == [9]


class TestOncePerOp:
    """Each command builds each object once; the generic Betti numbers come
    from one degree-one walk."""

    @staticmethod
    def count_calls(monkeypatch, name: str) -> list:
        """Record the arguments of every call of ``plumbline.<name>``, through
        whichever module global the call goes."""
        calls = []
        real = getattr(plumbline, name)

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        for modname, module in list(sys.modules.items()):
            if modname == "plumbline" or modname.startswith("plumbline."):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, spy)
        return calls

    @pytest.mark.parametrize("command", [["report"], ["resonance", "generic"]])
    def test_one_generic_betti_walk(self, runner, monkeypatch, command):
        calls = self.count_calls(monkeypatch, "generic_betti")
        result = runner.invoke(main, command + [fixture_path("two_triples")])
        assert result.exit_code == 0
        assert [args[1] for args, _ in calls] == [1]

    @pytest.mark.parametrize(
        "command",
        [
            ["report"],
            ["resonance", "generic"],
            ["resonance", "eval", "--point", '{"a": [1, 2, 0, -1], "b": [0, 1, 1, 3]}'],
        ],
        ids=["report", "generic", "eval"],
    )
    def test_one_aomoto_complex(self, runner, monkeypatch, command):
        calls = self.count_calls(monkeypatch, "aomoto_complex")
        assert runner.invoke(main, command + [fixture_path("two_triples")]).exit_code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "command",
        [
            ["report"],
            ["resonance", "eval", "--point", '{"a": [1, 2, 0, -1], "b": [0, 1, 1, 3]}'],
            ["resonance", "eval", "--point", '{"a": [0, 0, 0, 0], "b": [1, 0, 2, 0]}'],
            # e1 - e2 lies on the local component of the triple point {1, 2, 3}.
            ["resonance", "eval", "--point", '{"a": [1, -1, 0, 0], "b": [0, 1, 1, 3]}'],
        ],
        ids=["report", "eval-integer", "eval-zero-a", "eval-multiple-point"],
    )
    def test_no_dense_d2(self, runner, monkeypatch, command):
        ranked = self.count_calls(monkeypatch, "rank")
        reads = []
        monkeypatch.setattr(plumbline.AomotoComplex, "d2", property(reads.append))
        assert runner.invoke(main, command + [fixture_path("two_triples")]).exit_code == 0
        n = 8  # r1 + r2 on two_triples
        assert [args[0] for args, _ in ranked if (args[0].rows, args[0].cols) == (n, n)] == []
        assert reads == []

    @pytest.mark.parametrize(
        "command",
        [
            ["report"],
            ["resonance", "generic"],
            ["resonance", "eval", "--point", '{"a": [1, 2, 0, -1], "b": [0, 1, 1, 3]}'],
            ["resonance", "eval", "--point", '{"a": ["1/2", "-2/3", 0, 5], "b": ["3/7", 1, "-1/4", 0]}'],
            ["resonance", "eval", "--point", '{"a": [0, 0, 0, 0], "b": [1, 0, 2, 0]}'],
            ["resonance", "eval", "--point", '{"a": [1, -1, 0, 0], "b": [0, 1, 1, 3]}'],
        ],
        ids=["report", "generic", "eval-integer", "eval-rational", "eval-zero-a", "eval-multiple-point"],
    )
    def test_integer_blocks(self, runner, monkeypatch, command):
        real = plumbline.aomoto_complex
        calls = self.count_calls(monkeypatch, "aomoto_complex")
        assert runner.invoke(main, command + [fixture_path("two_triples")]).exit_code == 0
        assert calls
        for args, kwargs in calls:
            cx = real(*args, **kwargs)  # the same pure call, rebuilt to read its blocks
            assert {type(x) for x in cx.delta.entries + cx.phi.entries} == {int}

    def test_homology_builds_one_plumbing_matrix(self, runner, monkeypatch):
        calls = self.count_calls(monkeypatch, "plumbing_matrix")
        assert runner.invoke(main, ["homology", fixture_path("two_triples")]).exit_code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["os_algebra", "double", "intersection_ring"])
    def test_report_builds_each_piece_once(self, runner, monkeypatch, name):
        calls = self.count_calls(monkeypatch, name)
        assert runner.invoke(main, ["report", fixture_path("two_triples")]).exit_code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "command, builds",
        [
            (["resonance", "eval", "--point", '{"a": [1, 2, 0, -1], "b": [0, 1, 1, 3]}'], 0),
            (["resonance", "eval", "--point", '{"a": ["1/2", "-2/3", 0, 5], "b": ["3/7", 1, "-1/4", 0]}'], 0),
            (["resonance", "eval", "--point", '{"a": [0, 0, 0, 0], "b": [1, 0, 2, 0]}'], 0),
            (["resonance", "eval", "--point", '{"a": [1, -1, 0, 0], "b": [0, 1, 1, 3]}'], 0),
            (["resonance", "generic"], 0),
            (["report"], 1),
            (["verify"], 1),
            (["double"], 1),
        ],
        ids=["eval-integer", "eval-rational", "eval-zero-a", "eval-multiple-point", "generic", "report", "verify",
             "double"],
    )
    def test_double_table_is_built_only_where_read(self, runner, monkeypatch, command, builds):
        # The resonance complex reads only the double's base; the commands
        # that print or compare the doubled table build it once.
        table = vars(plumbline.DoubledAlgebra)["products"]
        built = []

        def spy(dbl):
            built.append(dbl)
            return table.func(dbl)

        prop = functools.cached_property(spy)
        prop.__set_name__(plumbline.DoubledAlgebra, "products")
        monkeypatch.setattr(plumbline.DoubledAlgebra, "products", prop)
        calls = self.count_calls(monkeypatch, "double")
        assert runner.invoke(main, command + [fixture_path("two_triples")]).exit_code == 0
        assert len(calls) == 1
        assert [dbl.base for dbl in built] == [calls[0][0][0]] * builds

    def test_report_still_compares_two_constructions(self, runner, monkeypatch, two_triples):
        # Flip one sign in the geometric table that report builds; its check must notice.
        real = plumbline.intersection_ring(two_triples)
        f1_f2 = (real._position["F1"][1], real._position["F2"][1])
        products = {**real.products, f1_f2: {z: -c for z, c in real.products[f1_f2].items()}}
        fake = plumbline.IntersectionRing(real.basis, products, real.n)
        monkeypatch.setattr("plumbline.cli.intersection_ring", lambda arr: fake)
        result = runner.invoke(main, ["report", fixture_path("two_triples")])
        assert result.exit_code == 1
        assert json.loads(result.output)["isomorphism"]["ok"] is False

    def test_tampered_ring_lists_the_oracle_mismatches(self, runner, monkeypatch, two_triples):
        # A flipped sign and a dropped product: verify and report exit 1 and
        # list the mismatches that the both-orders verifier lists.
        real = plumbline.intersection_ring(two_triples)
        index = {lab: p for lab, (_, p) in real._position.items()}
        f1_f2 = (index["F1"], index["F2"])
        products = {**real.products, f1_f2: {z: -c for z, c in real.products[f1_f2].items()}}
        del products[(index["F2"], index["tau(1,2)"])]
        fake = plumbline.IntersectionRing(real.basis, products, real.n)
        dbl = plumbline.double(plumbline.os_algebra(two_triples))
        coh = oracles.in_double_order(oracles.cohomology_ring(oracles.relabel(fake)), two_triples.n)
        want = oracles.compare(coh, oracles.relabel(dbl)).to_json()
        assert len(want["mismatches"]) == 4
        monkeypatch.setattr("plumbline.boundary_ring.intersection_ring", lambda arr: fake)
        monkeypatch.setattr("plumbline.cli.intersection_ring", lambda arr: fake)
        result = runner.invoke(main, ["verify", fixture_path("two_triples")])
        assert result.exit_code == 1
        assert json.loads(result.output) == want
        result = runner.invoke(main, ["report", fixture_path("two_triples")])
        assert result.exit_code == 1
        assert json.loads(result.output)["isomorphism"] == want

    def test_verify_lists_nbc_pairs_twice(self, runner, monkeypatch):
        calls = self.count_calls(monkeypatch, "nbc_set")
        assert runner.invoke(main, ["verify", fixture_path("two_triples")]).exit_code == 0
        assert len(calls) == 2


def test_help_runs(runner):
    assert runner.invoke(main, ["--help"]).exit_code == 0
    assert runner.invoke(main, ["resonance", "--help"]).exit_code == 0


def _command_paths(group: click.Group = main, path: tuple = ()):
    """Every command and group under ``group``, with ``group`` itself, by the
    names that reach it from ``main``."""
    yield path, group
    for name, cmd in group.commands.items():
        if isinstance(cmd, click.Group):
            yield from _command_paths(cmd, path + (name,))
        else:
            yield path + (name,), cmd


COMMANDS = dict(_command_paths())


@pytest.mark.parametrize("path", COMMANDS, ids=lambda path: "-".join(path) or "main")
class TestHelpOption:
    """plumbline builds its own --help option with click's text, so that no
    command makes the gettext lookup through which click builds it."""

    def test_same_option_as_click(self, path):
        cmd = COMMANDS[path]
        ctx = click.Context(cmd, info_name=path[-1] if path else "plumbline")
        ours, clicks = cmd.get_help_option(ctx), oracles.click_help_option(cmd, ctx)
        fields = ("name", "opts", "secondary_opts", "is_flag", "is_eager", "expose_value", "help", "default", "hidden")
        assert [getattr(ours, f) for f in fields] == [getattr(clicks, f) for f in fields]
        assert ours.help == "Show this message and exit."

    def test_same_help_text(self, runner, monkeypatch, path):
        ours = runner.invoke(main, [*path, "--help"])
        monkeypatch.setattr(cli._Command, "get_help_option", oracles.click_help_option)
        clicks = runner.invoke(main, [*path, "--help"])
        assert ours.exit_code == clicks.exit_code == 0
        assert ours.stdout_bytes == clicks.stdout_bytes
        assert b"Show this message and exit." in ours.stdout_bytes


# Counts the gettext lookups of each command in a fresh interpreter: click
# keeps the help option it builds on the command, so in a process that has
# run a command before, a lookup would not show again.
COUNT_LOOKUPS = """
import gettext, json, sys
from click.testing import CliRunner
lookups = []
for name in ("dgettext", "dngettext"):
    real = getattr(gettext, name)
    setattr(gettext, name, lambda *args, real=real: lookups.append(args) or real(*args))
from plumbline.cli import main
print(json.dumps([[CliRunner().invoke(main, args).exit_code, len(lookups)] for args in json.loads(sys.argv[1])]))
"""


def test_no_translation_lookups():
    two = fixture_path("two_triples")
    extra = {("random",): [], ("resonance", "eval"): [two, "--point", GOLDEN_POINTS["two_triples"]]}
    runs = [[*path, *extra.get(path, [two])] for path, cmd in COMMANDS.items() if not isinstance(cmd, click.Group)]
    assert len(runs) == 12
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", COUNT_LOOKUPS, json.dumps(runs)], capture_output=True, env=env, timeout=120, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0]] * len(runs)
