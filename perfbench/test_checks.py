"""Negative controls for the benchmark: each checker passes a real output and
flags a corrupted copy of it.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from heis_spectra import cli  # noqa: E402
from heis_spectra.invariants import dim_phi_invariant, dim_psi_invariant  # noqa: E402


def run_cli(tmp_path, argv) -> str:
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out.read_text()


def replace_line(text: str, index: int, edit) -> str:
    lines = text.split("\n")
    lines[index] = edit(lines[index])
    return "\n".join(lines)


def test_closed_forms_match_program():
    cases = [(n, lam, l) for l in range(1, 6) for n in range(-9, 10) if n for lam in range(8)]
    assert len(cases) == 720
    assert all(checks.dim_psi(*c) == dim_psi_invariant(*c) for c in cases)
    assert all(checks.dim_phi(*c) == dim_phi_invariant(*c) for c in cases)


# -- eigenfunction grids ------------------------------------------------------

GRID = {"manifold": "nprime", "l": 1, "n": -2, "a": 1, "b": 1, "lam": 1, "grid": 3, "alpha": 0.25}


@pytest.fixture(scope="module")
def grid_text(tmp_path_factory):
    p = GRID
    return run_cli(tmp_path_factory.mktemp("grid"), [
        "eigenfunction", "--manifold", p["manifold"], "--l", str(p["l"]), "--n", str(p["n"]),
        "--a", str(p["a"]), "--b", str(p["b"]), "--lam", str(p["lam"]),
        "--alpha", str(p["alpha"]), "--grid", str(p["grid"])])


def evaluator(params):
    return workloads._evaluator(workloads.Program(), params)


def test_grid_passes(grid_text):
    assert checks.check_grid(GRID, grid_text, evaluator(GRID)) == []


def _scale_value(line: str, factor: float) -> str:
    p, q, s, re, im = line.split(",")
    return ",".join([p, q, s, repr(float(re) * factor + 1e-3), im])


@pytest.mark.parametrize("row", [3, 20, 60])
def test_grid_flags_changed_value(grid_text, row):
    bad = replace_line(grid_text, row, lambda line: _scale_value(line, 1.01))
    assert checks.check_grid(GRID, bad)


def test_grid_flags_nan_and_eigenvalue(grid_text):
    assert checks.check_grid(GRID, replace_line(grid_text, 10, lambda line: line.rsplit(",", 2)[0]
                                                + ",nan,nan"))
    assert checks.check_grid(GRID, replace_line(grid_text, 1, lambda line: line.replace(
        "eigenvalue=", "eigenvalue=1")))


def test_residual_flags_wrong_level(grid_text):
    # the grid matches, but the function off the grid belongs to another level
    wrong = dict(GRID, lam=GRID["lam"] + 1)
    problems = checks.check_grid(GRID, grid_text, evaluator(wrong))
    assert any("residual" in p for p in problems)


def test_nan_probe_is_flagged(tmp_path):
    text = run_cli(tmp_path, ["eigenfunction", "--manifold", "nl", "--n", "1", "--lam", "170",
                              "--grid", "1"])
    p = {"manifold": "nl", "l": 1, "n": 1, "lam": 170, "grid": 1, "alpha": 0.0}
    assert any("non-finite" in x for x in checks.check_grid(p, text))


# -- invariant combinations ---------------------------------------------------


@pytest.mark.parametrize("manifold,l,n,lam", [("gamma-pi", 1, -2, 1), ("gamma-pi2", 2, 3, 3)])
def test_invariant_checker(manifold, l, n, lam):
    op = workloads._invariant_op(workloads.Program(), manifold, l, n, lam, random.Random(0), 2)
    pts, imgs, vals, ivals = op.call()
    assert op.check((pts, imgs, vals, ivals)) == []
    bumped = ivals.copy()
    bumped[0, 1] += 1e-4 * abs(vals).max()
    assert op.check((pts, imgs, vals, bumped))
    moved = [(y[0] + 1e-3, y[1], y[2]) for y in imgs]
    assert op.check((pts, moved, vals, ivals))
    wrong_dim = dict(op.params, dim=op.params["dim"] + 1)
    assert checks.check_invariant(wrong_dim, (pts, imgs, vals, ivals))


# -- dimension tables ---------------------------------------------------------


@pytest.mark.parametrize("manifold", ["gamma-pi", "gamma-pi2"])
def test_dims_checker(tmp_path, manifold):
    p = {"manifold": manifold, "l": 2, "ns": [-3, -2, -1], "lmax": 2}
    text = run_cli(tmp_path, ["dims", "--manifold", manifold, "--l", "2", "--nmin", "-3",
                              "--nmax", "-1", "--lmax", "2"])
    assert checks.check_dims(p, text) == []

    def bump_closed(line):
        f = line.split(",")
        f[2] = f[3] = f[4] = str(int(f[2]) + 1)
        return ",".join(f)

    assert checks.check_dims(p, replace_line(text, 4, bump_closed))
    assert checks.check_dims(p, replace_line(text, 2, lambda s: s.replace("true", "false")))
    assert checks.check_dims(p, "\n".join(text.split("\n")[:-2]) + "\n")


# -- counting -----------------------------------------------------------------


@pytest.mark.parametrize("manifold", ["nl", "nprime", "gamma-pi", "gamma-pi2"])
def test_weyl_checker(tmp_path, manifold):
    p = {"manifold": manifold, "l": 2, "alpha": -0.3, "samples": 12, "tmin": math.pi / 2,
         "tmax": 400.0}
    text = run_cli(tmp_path, ["weyl", "--manifold", manifold, "--l", "2", "--alpha", "-0.3",
                              "--samples", "12", "--tmax", "400"])
    assert checks.check_weyl(p, text) == []
    start = 3 if text.split("\n")[1].startswith("#") else 2

    def add_one(line):
        f = line.split(",")
        f[1] = str(int(f[1]) + 1)
        f[3] = str(int(f[3]) + 1)
        return ",".join(f)

    assert checks.check_weyl(p, replace_line(text, start + 8, add_one))
    assert checks.check_weyl(p, replace_line(text, 0, lambda s: s.replace("target=", "target=9")))


def test_weyl_probe_is_flagged(tmp_path):
    text = run_cli(tmp_path, ["weyl", "--manifold", "gamma-pi2", "--alpha", "0.999",
                              "--tmax", "100"])
    p = {"manifold": "gamma-pi2", "l": 1, "alpha": 0.999, "samples": 20, "tmin": math.pi / 2,
         "tmax": 100.0}
    assert any("target" in x for x in checks.check_weyl(p, text))


@pytest.mark.parametrize("manifold", ["nl", "nprime", "gamma-pi", "gamma-pi2"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_spectrum_checker(tmp_path, manifold, fmt):
    p = {"manifold": manifold, "l": 2, "alpha": 1.0, "tmax": 120.0, "format": fmt}
    text = run_cli(tmp_path, ["spectrum", "--manifold", manifold, "--l", "2", "--alpha", "1",
                              "--tmax", "120", "--format", fmt])
    assert checks.check_spectrum(p, text) == []
    if fmt == "json":
        more = text.replace('"multiplicity": ', '"multiplicity": 1', 1)
    else:
        more = replace_line(text, 5, lambda s: s.replace(",", ",1", 1))
    assert checks.check_spectrum(p, more)
    if fmt == "csv":
        head, *rows = text.rstrip("\n").split("\n")
        fewer = "\n".join([head] + rows[:3] + rows[4:]) + "\n"
        swapped = "\n".join([head, rows[-1]] + rows[1:-1] + [rows[0]]) + "\n"
    else:
        doc = json.loads(text)
        lines = doc["lines"]
        fewer = json.dumps(dict(doc, lines=lines[:3] + lines[4:]))
        swapped = json.dumps(dict(doc, lines=[lines[-1]] + lines[1:-1] + [lines[0]]))
    assert checks.check_spectrum(p, fewer)
    assert checks.check_spectrum(p, swapped)


def test_counts_match_program():
    from heis_spectra import counting_function, gamma_pi, gamma_pi_half, scaled_square, \
        standard_rect
    specs = {"nl": standard_rect, "nprime": scaled_square, "gamma-pi": gamma_pi,
             "gamma-pi2": gamma_pi_half}
    rng = random.Random(7)
    for _ in range(200):
        manifold, l = rng.choice(list(specs)), rng.randint(1, 3)
        alpha, t = rng.choice([-1.0, 1.0, 0.0, rng.uniform(-1, 1)]), rng.uniform(1, 300)
        series = counting_function(specs[manifold](l), alpha, [t])
        assert (checks.oscillator_count(manifold, l, alpha, t),
                checks.torus_count(manifold, l, t)) == (series.oscillator[0], series.torus[0])


# -- verify -------------------------------------------------------------------


def test_verify_checker():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["verify", "--threads", "1"]) == 0
    text = buf.getvalue()
    assert checks.check_verify(text) == []
    assert checks.check_verify(text.replace("PASS", "FAIL", 1))
    assert checks.check_verify("\n".join(text.split("\n")[1:]))


# -- tracing ------------------------------------------------------------------


def test_tracer_restores_bindings_and_keeps_bytes(tmp_path):
    prog = workloads.Program()
    argv = ["spectrum", "--manifold", "gamma-pi2", "--tmax", "60"]
    plain = run_cli(tmp_path, argv)
    before = prog.cli.main
    tracer = layers.Tracer(prog.package)
    tracer.install()
    try:
        assert prog.cli.main is not before
        traced = run_cli(tmp_path, argv)
    finally:
        tracer.uninstall()
    assert prog.cli.main is before
    assert traced == plain
    m = tracer.metrics()
    assert m["cli.self_s"] > 0 and m["spectrum.lines"] > 0 and m["weyl.bieberbach_s"] > 0


def test_import_attribution():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |       scipy.linalg",
        "import time:        10 |         60 |     scipy",
        "import time:        40 |        400 |   heis_spectra",
        "import time:        20 |        420 | heis_spectra.cli",
    ])
    got = layers._attribute(text)
    assert got == {"setup.import_numpy_s": 300e-6, "setup.import_scipy_s": 60e-6,
                   "setup.import_self_s": 60e-6}


def test_no_source_exits_nonzero(tmp_path):
    # a copy of the benchmark alone, without the program next to it
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode != 0 and proc.stdout == ""
