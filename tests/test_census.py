"""The ring check and the boundary homology on every labelled arrangement
of 3-6 lines, and on the Fano plane.

Every command but ``random`` and ``validate`` runs on each of these
arrangements in-process and exits 0; ``os``, ``double`` and ``ring`` print
what the label-keyed oracles print, ``homology`` a free rank of #nbc + n,
and ``resonance generic`` and ``resonance eval`` at (1, ..., 1; 0) the
Betti floor.

The incidence graph has one independent cycle per nbc pair, and H1 of the
boundary manifold is free of rank (number of nbc pairs) + n: both are
checked on each arrangement, the non-realizable ones included. The
cokernel of each plumbing matrix must equal the Markowitz-order oracle's,
and its unit pivots must clear the whole matrix, so that ``snf`` is never
called; ``snf`` of the dense matrix must still give V - n ones and n
zeros. The generic first Betti number of the double must sit on the
proved floor, and the exact rank of Delta(1, ..., 1) must be r1 - 1 off
pencils, the lemma that proves it."""

import json
import random

import pytest
from click.testing import CliRunner

import oracles
from census import FANO, census, linear_spaces
from plumbline import (
    ArrangementClass,
    beta,
    classify,
    cohomology_ring,
    delta_matrix,
    double,
    from_json,
    generic_betti,
    h1_boundary,
    incidence_graph,
    nbc_set,
    os_algebra,
    plumbing_matrix,
    random_arrangement,
    to_json,
    validate,
    verify_double_isomorphism,
)
from plumbline import boundary_ring, cli, exact_linalg, resonance
from plumbline.exact_linalg import cokernel, snf

from conftest import ALL_FIXTURES, load_fixture


def test_counts():
    assert [sum(1 for _ in linear_spaces(v)) for v in range(3, 7)] == [2, 6, 32, 353]


def test_listed_once():
    spaces = list(linear_spaces(6))
    assert len(set(spaces)) == len(spaces)


def _generic_point_lemma_holds(arr):
    """rank Delta(1, ..., 1) = r1 - 1, by exact rank, unless the arrangement
    is a pencil; there r2 = 0. The class is general exactly when beta > 0."""
    alg = os_algebra(arr)
    r1 = alg.rank(1)
    pencil = classify(arr) is ArrangementClass.PENCIL
    assert exact_linalg.rank(delta_matrix(alg, (1,) * r1)) == (0 if pencil else r1 - 1), arr.points
    assert (beta(arr) > 0) == (classify(arr) is ArrangementClass.GENERAL), arr.points


@pytest.mark.parametrize("v", range(3, 7))
def test_every_arrangement(v):
    for arr in census(v):
        assert from_json(to_json(arr)) == arr
        assert verify_double_isomorphism(arr).ok, arr.points
        alg = os_algebra(arr)
        coh, dbl = cohomology_ring(arr), double(alg)
        assert boundary_ring._compare(coh, dbl) == oracles.compare(oracles.relabel(coh), oracles.relabel(dbl)), arr.points
        assert generic_betti(dbl, 1, trials=5, seed=0) == resonance._betti_floor(alg)[1], arr.points
        _generic_point_lemma_holds(arr)
        n_pairs = len(nbc_set(arr))
        g = incidence_graph(arr)
        assert g.b1 == n_pairs, arr.points
        res = h1_boundary(arr)
        assert (res.free_rank, res.torsion) == (n_pairs + arr.n, ()), arr.points
        m = plumbing_matrix(g)
        assert cokernel(m) == oracles.cokernel_exact_sets(m) == oracles.cokernel_markowitz(m) == (arr.n, ()), arr.points


@pytest.mark.parametrize("v", range(3, 7))
def test_every_command(v, tmp_path):
    # os, double and ring print the label-keyed oracles' documents.
    runner = CliRunner()
    path = tmp_path / "arrangement.json"
    for arr in census(v):
        path.write_text(json.dumps(to_json(arr)))
        want = {
            "os": oracles.os_algebra_by_label(arr),
            "double": oracles.double_by_label(oracles.os_algebra_by_label(arr)),
            "ring": oracles.intersection_ring_by_label(arr),
        }
        alg = os_algebra(arr)
        point = json.dumps({"a": [1] * alg.rank(1), "b": [0] * alg.rank(2)})
        out = {}
        for command in ("os", "double", "ring", "verify", "report", "nbc", "homology",
                        "resonance generic", "resonance eval", "resonance classify"):
            args = command.split() + [str(path)] + (["--point", point] if command == "resonance eval" else [])
            result = runner.invoke(cli.main, args)
            assert result.exit_code == 0, (command, arr.points)
            if command in want:
                assert result.stdout == oracles.emit_json(want[command].to_json()) + "\n", (command, arr.points)
            out[command] = json.loads(result.stdout)
        assert out["nbc"]["b1"] == len(out["nbc"]["nbc"]) == len(nbc_set(arr)), arr.points
        assert out["homology"]["free_rank"] == len(nbc_set(arr)) + arr.n, arr.points
        # The floor is the generic value and the value at (1, ..., 1; 0).
        floor = list(resonance._betti_floor(alg))
        assert out["resonance generic"]["betti"] == out["resonance eval"]["betti"] == floor, arr.points
        cls = out["resonance classify"]
        assert (cls["class"], cls["beta"], cls["n"]) == (classify(arr).value, beta(arr), arr.n), arr.points


def test_plumbing_cokernel_never_reaches_snf(monkeypatch):
    # Point rows pivot on their -1 first, and one pivot clears the all-ones
    # J left on the lines: a pivot order that left a block for snf fails here.
    def no_snf(m):
        raise AssertionError(f"snf called on a {m.rows} x {m.cols} block")

    monkeypatch.setattr(exact_linalg, "snf", no_snf)
    rng = random.Random(19)
    arrs = [load_fixture(name) for name in ALL_FIXTURES]
    arrs += [arr for v in range(3, 7) for arr in census(v)]
    arrs += [random_arrangement(rng, rng.randint(3, 30), rng.random()) for _ in range(200)]
    for arr in arrs:
        assert cokernel(plumbing_matrix(incidence_graph(arr))) == (arr.n, ()), arr.points


def _plumbing_snf_is_free(arr):
    """The Smith form of the dense plumbing matrix, which ``cokernel`` never
    needs here: V - n ones, then n zeros."""
    m = plumbing_matrix(incidence_graph(arr))
    assert cokernel(m) == (arr.n, ())
    assert snf(m.to_dense()).diagonal == (1,) * (m.rows - arr.n) + (0,) * arr.n, arr.points


@pytest.mark.parametrize("v", range(3, 7))
def test_snf_of_every_plumbing_matrix(v):
    for arr in census(v):
        _plumbing_snf_is_free(arr)


def test_fano_plane():
    arr = validate([list(pt) for pt in FANO], 7)
    assert [len(pt) for pt in arr.points] == [3] * 7
    assert classify(arr) is ArrangementClass.GENERAL
    assert verify_double_isomorphism(arr).ok
    _generic_point_lemma_holds(arr)
    res = h1_boundary(arr)
    assert (res.free_rank, res.torsion) == (14, ())
    _plumbing_snf_is_free(arr)
