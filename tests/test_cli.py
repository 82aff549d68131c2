import ast
import collections
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import tomllib
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from heis_spectra import cli, invariants, spectrum, verify, weil_brezin
from heis_spectra.cli import MAX_HERMITE_STEPS, MAX_SECTOR_SIZE, main
from heis_spectra.group import PolarizedPoint, standard_rect
from heis_spectra.invariants import _nullity, fixed_subspace_dim, pullback_matrices
from heis_spectra.spectrum import MAX_COUNT_ENTRIES, MAX_SPECTRUM_LINES, enumerate_spectrum
from heis_spectra.weil_brezin import WBIndex, wb_eigenfunction
from heis_spectra.weyl import manifold_tag


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_spectrum_json_round_trip(capsys):
    rc, out = run_cli(capsys, "spectrum", "--manifold", "nl", "--l", "1",
                      "--alpha", "0", "--tmax", "3.2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["manifold"] == "standard-rect(l=1)"
    assert doc["alpha"] == 0.0 and doc["tmax"] == 3.2
    lines = doc["lines"]
    assert len(lines) == 4
    assert {"value": math.pi / 2, "multiplicity": 1,
            "origin": {"kind": "oscillator", "n": 1, "lambda": 0}} in lines
    # printed values parse back to the library's floats bit for bit
    expected = enumerate_spectrum(standard_rect(1), 0.0, 3.2)[1:]
    assert [l["value"] for l in lines] == expected["value"].tolist()
    assert [l["multiplicity"] for l in lines] == expected["multiplicity"].tolist()


def test_spectrum_gamma_pi_drops_empty_lines(capsys):
    rc, out = run_cli(capsys, "spectrum", "--manifold", "gamma-pi", "--l", "1",
                      "--alpha", "0", "--tmax", "3.2")
    assert rc == 0
    lines = json.loads(out)["lines"]
    osc = [l for l in lines if l["origin"]["kind"] == "oscillator"]
    assert all(abs(l["origin"]["n"]) != 1 for l in osc)
    assert [(l["value"], l["multiplicity"]) for l in osc] == [(math.pi, 3), (math.pi, 3)]


def test_spectrum_tiny_tmax_empty(capsys):
    rc, out = run_cli(capsys, "spectrum", "--manifold", "nprime", "--l", "2",
                      "--tmax", "0.01")
    assert rc == 0
    assert json.loads(out)["lines"] == []


def test_spectrum_csv_round_trip(capsys):
    rc, out = run_cli(capsys, "spectrum", "--manifold", "nl", "--l", "2",
                      "--alpha", "0.25", "--tmax", "12", "--format", "csv")
    assert rc == 0
    rows = list(csv.DictReader(out.splitlines()))
    expected = enumerate_spectrum(standard_rect(2), 0.25, 12.0)[1:]
    assert [float(r["value"]) for r in rows] == expected["value"].tolist()
    for r in rows:
        if r["kind"] == "oscillator":
            assert r["mu"] == "" and r["nu"] == ""
            assert int(r["n"]) != 0
        else:
            assert r["n"] == "" and r["lambda"] == ""


def test_spectrum_deterministic_bytes(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert main(["spectrum", "--manifold", "gamma-pi2", "--l", "1",
                     "--alpha", "0.5", "--tmax", "40", "--out", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_spectrum_invalid_selector(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--manifold", "nope", "--tmax", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_spectrum_bad_parameters(capsys):
    assert main(["spectrum", "--manifold", "nl", "--l", "0", "--tmax", "1"]) == 2
    assert main(["spectrum", "--manifold", "nl", "--tmax", "-3"]) == 2
    assert main(["spectrum", "--manifold", "nl", "--alpha", "1.5", "--tmax", "5"]) == 2
    assert main(["spectrum", "--manifold", "nl", "--tmax", "inf"]) == 2
    assert main(["weyl", "--manifold", "gamma-pi", "--tmax", "inf"]) == 2
    capsys.readouterr()


def test_io_failure_exit_code(capsys):
    rc = main(["spectrum", "--manifold", "nl", "--tmax", "5",
               "--out", "/nonexistent-dir/out.json"])
    assert rc == 3
    capsys.readouterr()


# The row-at-a-time writer that the spectrum's text columns replaced, kept as
# their byte reference: one %-template per row kind, filled once per line.
_REFERENCE_JSON_HEAD = '{\n  "manifold": "%s",\n  "alpha": %.17g,\n  "tmax": %.17g,\n  "lines": '
_REFERENCE_ROWS = {
    "json": ('    {"value": %.17g, "multiplicity": %d, '
             '"origin": {"kind": "oscillator", "n": %d, "lambda": %d}}',
             '    {"value": %.17g, "multiplicity": %d, '
             '"origin": {"kind": "torus", "mu": %.17g, "nu": %.17g}}'),
    "csv": ("%.17g,%d,oscillator,%d,%d,,\n", "%.17g,%d,torus,,,%.17g,%.17g\n"),
}


def _reference_spectrum_text(fmt, tag, alpha, tmax, lines):
    oscillator, torus = _REFERENCE_ROWS[fmt]
    lines = lines[lines["value"] > 0]
    rows = [oscillator % (value, mult, n, lam) if kind else torus % (value, mult, mu, nu)
            for value, mult, kind, n, lam, mu, nu
            in zip(*(lines[name].tolist() for name in lines.dtype.names))]
    if fmt == "csv":
        return "value,multiplicity,kind,n,lambda,mu,nu\n" + "".join(rows)
    head = _REFERENCE_JSON_HEAD % (tag, alpha, tmax)
    if not rows:
        return head + "[]\n}\n"
    return head + "[\n" + ",\n".join(rows) + "\n  ]\n}\n"


# at most this many lines an example, so that blocks of one line stay quick
_REFERENCE_LINES = 300


@settings(max_examples=40, deadline=None)
@given(manifold=st.sampled_from(sorted(cli._MANIFOLDS)), l=st.integers(1, 3),
       fmt=st.sampled_from(["json", "csv"]),
       alpha=st.one_of(st.sampled_from([0.0, -0.0, 0.3, -0.3, 1.0, -1.0, 0.9999, -0.9999]),
                       st.floats(-1.0, 1.0)),
       tmax=st.floats(0.1, 400.0), rows_at_once=st.sampled_from([1, 2, 5]))
@example(manifold="nl", l=1, fmt="json", alpha=-0.0, tmax=0.5, rows_at_once=1)
@example(manifold="gamma-pi", l=2, fmt="csv", alpha=1.0, tmax=60.0, rows_at_once=2)
def test_spectrum_bytes_equal_the_row_templates(manifold, l, fmt, alpha, tmax, rows_at_once):
    # small blocks put runs of one value, torus rows and the JSON separator
    # across block boundaries; --out and stdout carry the same bytes
    try:
        lines = enumerate_spectrum(cli._MANIFOLDS[manifold](l), alpha, tmax)
    except ValueError:  # past the line limit, near |alpha| = 1
        reject()
    if lines.size > _REFERENCE_LINES:
        tmax = float(lines["value"][_REFERENCE_LINES])
        lines = enumerate_spectrum(cli._MANIFOLDS[manifold](l), alpha, tmax)
    expected = _reference_spectrum_text(fmt, manifold_tag(cli._MANIFOLDS[manifold](l)), alpha,
                                        tmax, lines).encode()
    argv = ["spectrum", "--manifold", manifold, "--l", str(l), "--format", fmt,
            f"--alpha={alpha!r}", "--tmax", repr(tmax)]
    stdout = io.StringIO()
    with mock.patch.object(cli, "_ROWS_AT_ONCE", rows_at_once), \
            tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
        assert main(argv + ["--out", os.path.join(tmp, "s")]) == 0
        written = Path(tmp, "s").read_bytes()
    assert stdout.getvalue().encode() == written == expected


def test_text_column_formats_each_distinct_value_once():
    # keyed on the bits, 0.0 and -0.0 keep their own strings; every row of one
    # value shares one string object (single characters such as "0" are shared
    # by the interpreter anyway)
    values = np.array([1.25, 0.0, -0.0, 1.25, -0.0, 0.0, 1e300, 1.25])
    texts = cli._text_column(values, "%.17g").tolist()
    assert texts == ["%.17g" % v for v in values.tolist()]
    assert texts[1:3] == ["0", "-0"]
    assert texts[0] is texts[3] is texts[7] and texts[2] is texts[4]
    assert len({id(text) for text in texts}) == 4
    texts = cli._text_column(np.array([12345, -12345, 12345, 0]), "%d").tolist()
    assert texts == ["12345", "-12345", "12345", "0"] and texts[0] is texts[2]


@pytest.mark.parametrize("argv", [["--tmax", "1e300"], ["--alpha", "2", "--tmax", "5"]])
def test_a_refused_spectrum_creates_no_file(capsys, tmp_path, argv):
    # every refusal comes before the file is opened
    out = tmp_path / "s.json"
    assert main(["spectrum", "--manifold", "nl", *argv, "--out", str(out)]) == 2
    assert not out.exists()
    capsys.readouterr()


def test_a_spectrum_is_written_a_block_at_a_time(tmp_path, monkeypatch):
    # about 1e5 lines in blocks of 4096: the peak holds the line table and a block
    # or two, never the whole text.  A block is its text and two arrays of nine
    # pointers a row, its table and the list that is joined.
    lines = enumerate_spectrum(standard_rect(1), 0.3, 15000.0)
    assert 0.9 * 10**5 < lines.size < 1.1 * 10**5
    monkeypatch.setattr(cli, "_ROWS_AT_ONCE", 4096)
    monkeypatch.setattr(cli, "enumerate_spectrum", lambda *args: lines.copy())
    out = tmp_path / "s.json"
    tracemalloc.start()
    try:
        assert main(["spectrum", "--manifold", "nl", "--alpha", "0.3", "--tmax", "15000",
                     "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = out.read_text()
    block = 4096 * (max(map(len, text.splitlines())) + 1 + 2 * 9 * 8)
    assert peak < lines.nbytes + 2 * block < len(text)


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def _perturb_pullbacks(monkeypatch):
    """Add 1e-3 to every entry of the pullback matrices the verifier builds, at their
    one seam, the stacks of pullback_matrices: the negative control of its pullback,
    dims and characters suites, which must make each of them fail."""
    build = verify.pullback_matrices
    monkeypatch.setattr(verify, "pullback_matrices", lambda *args: build(*args) + 1e-3)


def test_back_to_back_commands_keep_their_exit_codes(capsys, tmp_path, monkeypatch):
    # the parser is shared between calls: no command's options or defaults
    # reach the next one, whichever order they come in; the verify call that
    # expects exit code 1 runs on perturbed pullback matrices
    calls = [
        (["verify", "--suite", "pullback"], 1),
        (["eigenfunction", "--manifold", "nl", "--n", "2", "--lam", "1", "--grid", "1",
          "--tol", "1e-6", "--out", str(tmp_path / "f.csv")], 0),
        (["dims", "--manifold", "gamma-pi", "--out", str(tmp_path / "dims.csv")], 0),
        (["eigenfunction", "--manifold", "gamma-pi", "--n", "1", "--lam", "0"], 2),
        (["weyl", "--manifold", "gamma-pi2", "--samples", "3", "--tmax", "50"], 0),
        (["spectrum", "--manifold", "nl", "--tmax", "5", "--out", str(tmp_path / "no" / "x")], 3),
        (["verify", "--suite", "pullback"], 0),
    ]
    for order in (calls, calls[::-1]):
        for argv, code in order:
            with monkeypatch.context() as patch:
                if code == 1:
                    _perturb_pullbacks(patch)
                assert main(argv) == code, argv
            # dims keeps its own range and rank threshold after eigenfunction's --n and --tol
            if argv[0] == "dims":
                assert len((tmp_path / "dims.csv").read_text().splitlines()) == 17
    capsys.readouterr()


def _grid_rows(out):
    body = [ln for ln in out.splitlines() if not ln.startswith("#")]
    rows = {}
    for r in csv.DictReader(body):
        key = (float(r["p"]), float(r["q"]), float(r["s"]))
        rows[key] = complex(float(r["re"]), float(r["im"]))
    return rows


def test_eigenfunction_grid(capsys):
    rc, out = run_cli(capsys, "eigenfunction", "--manifold", "nl", "--l", "1",
                      "--n", "1", "--grid", "2")
    assert rc == 0
    header = out.splitlines()[1]
    assert "eigenvalue=1.5707963267948966" in header
    rows = _grid_rows(out)
    assert len(rows) == 4 * 2 * 4
    # pi^{-1/4} theta_3(e^{-pi}) = 1/Gamma(3/4)
    assert abs(rows[(0.0, 0.0, 0.0)] - 1 / math.gamma(0.75)) < 1e-12
    for (p, q, s), val in rows.items():
        # central period: s and s+1 rows match, bit for bit
        if s < 1.0:
            assert rows[(p, q, s + 1.0)] == val
        # lattice invariance: the translate by (1,0,0) lands on another row
        if p < 1.0:
            assert abs(rows[(p + 1.0, q, (s + q) % 1.0)] - val) < 1e-8


@pytest.mark.parametrize("alpha", ["2", "nan"])
def test_eigenfunction_refuses_an_alpha_outside_its_domain(capsys, alpha):
    # both once wrote a header, eigenvalue=-1.5707963267948966 and eigenvalue=nan
    assert main(["eigenfunction", "--manifold", "nl", "--n", "1", "--alpha", alpha,
                 "--grid", "1"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: alpha must lie in [-1, 1]\n")


def test_eigenfunction_rejects_bad_requests(capsys):
    assert main(["eigenfunction", "--manifold", "nl", "--n", "0"]) == 2
    assert main(["eigenfunction", "--manifold", "gamma-pi", "--n", "1"]) == 2
    assert main(["eigenfunction", "--manifold", "nl", "--n", "1", "--a", "5"]) == 2
    assert main(["eigenfunction", "--manifold", "nl", "--n", "1", "--tol", "nan"]) == 2
    assert main(["eigenfunction", "--manifold", "nl", "--n", "1", "--lam", "-1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("manifold,l,n,lam", [("nl", 1, 1, 170), ("nl", 1, 1, 2000),
                                              ("nprime", 2, -3, 2000)])
def test_eigenfunction_at_high_levels_writes_finite_rows(capsys, manifold, l, n, lam):
    # the unnormalised recurrence overflowed here; the normalised one has no cap.  At
    # q = 0 the grid and the float path differ by the rounding of the seeds'
    # arguments and of the sums, under 1e-13 here
    rc, out = run_cli(capsys, "eigenfunction", "--manifold", manifold, "--l", str(l),
                      "--n", str(n), "--lam", str(lam), "--grid", "1")
    assert rc == 0
    rows = _grid_rows(out)
    assert len(rows) == 4
    lattice = cli._MANIFOLDS[manifold](l)
    idx = WBIndex(n, 0, 0, lattice.covering_width)
    for (p, q, s), val in rows.items():
        assert math.isfinite(val.real) and math.isfinite(val.imag)
        assert abs(val - wb_eigenfunction(idx, lam, lattice, PolarizedPoint(p, q, s))) < 1e-13


def _refuse(*args):
    raise AssertionError("an evaluation started")


def test_eigenfunction_refuses_a_grid_past_the_row_limit(capsys, monkeypatch):
    # --grid g writes 4 g^3 rows: g = 1000 asks for 4e9 rows, g = 80 for 2048000
    monkeypatch.setattr(cli, "wb_eigenfunction_grid", _refuse)
    tracemalloc.start()
    try:
        rc = main(["eigenfunction", "--manifold", "nl", "--n", "1", "--grid", "1000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 2 and peak < 1 << 20
    assert "4000000000" in err and str(MAX_SPECTRUM_LINES) in err
    assert main(["eigenfunction", "--manifold", "nprime", "--n", "1", "--grid", "80"]) == 2
    assert "2048000" in capsys.readouterr().err


def _assert_second_s_period_repeats(out, g):
    """The text of re and im on each line of s >= 1 is that of s - 1, byte for byte."""
    lines = [line for line in out.splitlines() if not line.startswith("#")][1:]
    values = [line.split(",", 3)[3] for line in lines]
    assert len(values) == 4 * g**3
    for first in range(0, len(values), 2 * g):  # one (p, q), s = 0 .. 2 - 1/g
        assert values[first + g:first + 2 * g] == values[first:first + g]


@pytest.mark.parametrize("manifold,n", [("nl", "70"), ("nprime", str(-10**6))])
def test_eigenfunction_takes_an_n_past_the_float_phases(capsys, manifold, n):
    # the float phases e^(2 pi i n y) may round past the default --tol here, and
    # both were refused; the exact phases keep the s-period bit for bit
    rc, out = run_cli(capsys, "eigenfunction", "--manifold", manifold, "--n", n)
    assert rc == 0
    _assert_second_s_period_repeats(out, 4)


def test_eigenfunction_at_n_10_to_300_keeps_the_s_period(capsys):
    # the float phase 2 pi n s was noise here: the grid once wrote 0.751 at s = 0 and
    # -0.472+0.584i at s = 1; the exact factor w^(n m mod g) is 1 at both, and the
    # one term of the window, the seed at 0, is pi^(-1/4)
    rc, out = run_cli(capsys, "eigenfunction", "--manifold", "nl", "--grid", "1",
                      "--n", str(10**300))
    assert rc == 0
    assert out.splitlines()[0].startswith("# eigenfunction n=1" + "0" * 300 + " a=0")
    rows = _grid_rows(out)
    assert set(rows.values()) == {math.pi ** -0.25} and len(rows) == 4
    _assert_second_s_period_repeats(out, 1)


@settings(max_examples=30, deadline=None, database=None)
@given(manifold=st.sampled_from(["nl", "nprime"]), l=st.integers(1, 4),
       n=st.one_of(st.integers(-60, 60), st.integers(-10**20, 10**20)).filter(bool),
       lam=st.integers(0, 30), grid=st.integers(1, 5),
       rows_at_once=st.sampled_from([1, 7, 1 << 16]), data=st.data())
def test_eigenfunction_bytes_equal_the_row_template(manifold, l, n, lam, grid, rows_at_once, data):
    # each line is p, q, s, re and im written with %.17g, the values those of
    # wb_eigenfunction_grid, whatever the blocks of text; the second s-period
    # repeats the first
    width = cli._MANIFOLDS[manifold](l).covering_width
    a, b = data.draw(st.integers(0, abs(n) - 1)), data.draw(st.integers(0, width - 1))
    argv = ["eigenfunction", "--manifold", manifold, "--l", str(l), "--n", str(n), "--a", str(a),
            "--b", str(b), "--lam", str(lam), "--grid", str(grid)]
    stdout = io.StringIO()
    with mock.patch.object(cli, "_ROWS_AT_ONCE", rows_at_once), contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    lattice = cli._MANIFOLDS[manifold](l)
    sp, sq = lattice.steps
    rows = weil_brezin.wb_eigenfunction_grid(WBIndex(n, a, b, width), lam, lattice, grid)
    lines = ["%.17g,%.17g,%.17g,%.17g,%.17g\n" % (i * sp / grid, j * sq / grid, m / grid,
                                                   v.real, v.imag)
             for i, row in enumerate(rows) for j in range(grid) for m, v in enumerate(row[j])]
    body = stdout.getvalue().split("p,q,s,re,im\n", 1)[1]
    assert body == "".join(lines)
    _assert_second_s_period_repeats(stdout.getvalue(), grid)


@pytest.mark.parametrize("name", ["n", "lam"])
def test_eigenfunction_refuses_an_integer_past_float_range(capsys, monkeypatch, name):
    monkeypatch.setattr(cli, "wb_eigenfunction_grid", _refuse)
    for value in (10**400, -10**400, 2**1024):
        if name == "lam" and value < 0:
            continue
        argv = {"n": "1", "lam": "0", name: str(value)}
        rc = main(["eigenfunction", "--manifold", "nl", "--n", argv["n"], "--lam", argv["lam"]])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: --{name} is too large") and err.count("\n") == 1, err


def test_eigenfunction_refuses_a_grid_past_the_step_limit(capsys, monkeypatch):
    # each of the 2g p-rows runs the Hermite recurrence to order lam: lam = 10^11
    # at grid 1 is 2e11 steps, refused at once
    start = time.perf_counter()
    rc = main(["eigenfunction", "--manifold", "nl", "--n", "1", "--lam", str(10**11),
               "--grid", "1"])
    out, err = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (2, "")
    assert "200000000000" in err and str(MAX_HERMITE_STEPS) in err
    # 2 * 4 * 2000 steps run; the limit itself reaches the evaluator, one step past it not
    rc, out = run_cli(capsys, "eigenfunction", "--manifold", "nl", "--n", "1", "--lam", "2000",
                      "--grid", "4")
    assert rc == 0 and len(_grid_rows(out)) == 4 * 4**3
    monkeypatch.setattr(cli, "wb_eigenfunction_grid", _refuse)
    lam = MAX_HERMITE_STEPS // 8
    with pytest.raises(AssertionError, match="an evaluation started"):
        main(["eigenfunction", "--manifold", "nl", "--n", "1", "--lam", str(lam), "--grid", "4"])
    assert main(["eigenfunction", "--manifold", "nl", "--n", "1", "--lam", str(lam + 1),
                 "--grid", "4"]) == 2
    capsys.readouterr()


def test_weyl_refuses_samples_past_the_row_limit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "default_tgrid", _refuse)
    monkeypatch.setattr(cli, "counting_columns", _refuse)
    tracemalloc.start()
    try:
        rc = main(["weyl", "--manifold", "gamma-pi", "--samples", "1000000000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 2 and peak < 1 << 20
    assert "1000000000000" in err and str(MAX_SPECTRUM_LINES) in err
    assert main(["weyl", "--manifold", "nl", "--samples", str(MAX_SPECTRUM_LINES + 1)]) == 2
    capsys.readouterr()


def test_row_limit_admits_the_largest_allowed_sizes(capsys, monkeypatch):
    # 4 * 79^3 = 1972156 rows and MAX_SPECTRUM_LINES samples reach the evaluators
    calls = []
    monkeypatch.setattr(cli, "wb_eigenfunction_grid", lambda *a: calls.append(a) or _refuse())
    monkeypatch.setattr(cli, "default_tgrid", lambda *a: calls.append(a) or _refuse())
    for argv in (["eigenfunction", "--manifold", "nl", "--n", "1", "--grid", "79"],
                 ["weyl", "--manifold", "nl", "--samples", str(MAX_SPECTRUM_LINES)]):
        with pytest.raises(AssertionError, match="an evaluation started"):
            main(argv)
    assert len(calls) == 2
    capsys.readouterr()


# sha256 of stdout, recorded when the grid's phases became exact roots of unity
# and its seeds' arguments one rounding of a quotient of integers
PINNED_GRIDS = [
    (["--manifold", "nl", "--l", "1", "--n", "1", "--lam", "0", "--grid", "4"],
     "ea0ce0bce7ca83531225b5c1b937f29e4e9daf3ce8c804b3dbc3eea7221f0914"),
    (["--manifold", "nl", "--l", "2", "--n", "-3", "--a", "2", "--b", "1", "--lam", "6",
      "--grid", "4"],
     "157e80c5246f44b3bfc40090e404b9d374e56a283cf88f98464682a949658916"),
    (["--manifold", "nl", "--l", "3", "--n", "2", "--a", "1", "--b", "2", "--lam", "20",
      "--grid", "1", "--alpha", "-0.25"],
     "443d9e79173c5d6e64cc0bac257f6b68c455d0e6b7fbf40ff8cdc85ffe491a47"),
    (["--manifold", "nprime", "--l", "1", "--n", "-1", "--b", "1", "--lam", "0", "--grid", "1"],
     "61245df24912bc27821969ccea0c8882a4bc402e6675840bb484e0a2336bf738"),
    (["--manifold", "nprime", "--l", "2", "--n", "3", "--a", "1", "--b", "3", "--lam", "6",
      "--grid", "4", "--alpha", "0.5"],
     "6edfa2313b175aaab3e656ceef24227dd7ba88ccf2c9cf545c1791bbc1237012"),
    (["--manifold", "nprime", "--l", "1", "--n", "-2", "--a", "1", "--b", "1", "--lam", "20",
      "--grid", "4", "--tol", "1e-10"],
     "54aa053285dd57a8e3dab5bb23b5d5e496475f952d12b6ac8729f02459ce5094"),
]


def _run_in_fresh_processes(argvs, timeout=120, batch=4):
    """(exit code, stdout, stderr) of each command, as bytes, each in its own
    interpreter through `python -m`, which needs no console script; up to batch
    processes run side by side."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = []
    for first in range(0, len(argvs), batch):
        procs = [subprocess.Popen([sys.executable, "-m", "heis_spectra.cli", *argv], env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                 for argv in argvs[first:first + batch]]
        for proc in procs:
            stdout, stderr = proc.communicate(timeout=timeout)
            out.append((proc.returncode, stdout, stderr))
    return out


def _assert_pinned_in_fresh_processes(pins):
    """The stdout of each pinned command, checked against its digest."""
    results = _run_in_fresh_processes([argv for argv, _ in pins])
    for (argv, digest), (rc, out, err) in zip(pins, results):
        assert rc == 0, err.decode()
        assert hashlib.sha256(out).hexdigest() == digest, argv
    return [out for _, out, _ in results]


def test_eigenfunction_pinned_bytes_in_fresh_processes():
    outs = _assert_pinned_in_fresh_processes([(["eigenfunction", *argv], digest)
                                              for argv, digest in PINNED_GRIDS])
    for (argv, _), out in zip(PINNED_GRIDS, outs):
        _assert_second_s_period_repeats(out.decode(), int(argv[argv.index("--grid") + 1]))


# sha256 of stdout, recorded when the counting core became integer-keyed: line
# values are the oscillator_eigenvalue expression and pi^2 num / den
PINNED_COUNTS = [
    (["spectrum", "--manifold", "nprime", "--l", "1", "--alpha", "0.25", "--tmax", "200"],
     "c8b2797ac66303c05955da2bf43dc1117964673dd1a44acb715c2f08ddd4ce0e"),
    (["spectrum", "--manifold", "gamma-pi2", "--l", "3", "--alpha", "-0.5", "--tmax", "150",
      "--format", "csv"],
     "c30f00ee220d0b3736f2b4bcecbaf46843ba1bd37090c4413e0dd7e155d9f9db"),
    (["weyl", "--manifold", "nl", "--l", "3", "--alpha", "0.3", "--samples", "12",
      "--tmax", "800"],
     "3657ac1c77b4673829c261303b3ad05b439dd975acd3747dfd4c6013d1cb7b37"),
    (["weyl", "--manifold", "gamma-pi", "--l", "2", "--alpha", "-1", "--samples", "10",
      "--tmax", "500"],
     "80714fcb27ba61e8d2a9d2a443099e45888aa2a5b417dc77f640af62aef8ecb1"),
]


# sha256 of stdout, recorded with the per-sample scalar counting loop before the
# counts were taken over the whole t-grid at once: quarter columns and the
# endpoint and negative alpha
PINNED_WEYL_GRIDS = [
    (["weyl", "--manifold", "gamma-pi2", "--l", "2", "--alpha", "1", "--samples", "40",
      "--tmax", "3000"],
     "dcd56b7254a96773baf757b9dd770e7e83b85803208f7c8a0aa8ef3a8ede0662"),
    (["weyl", "--manifold", "gamma-pi2", "--l", "2", "--alpha", "-0.45", "--samples", "40",
      "--tmax", "3000"],
     "9a981e7ead6c88753157cc36f36ef7cf1b7d4fa9525cbc8f58b7c74d8c4844d0"),
    (["weyl", "--manifold", "nprime", "--l", "3", "--alpha", "1", "--samples", "40",
      "--tmax", "3000"],
     "94762ec0fe175bbd720673b10c67390a2f9b3494d1b7f8edad7e626a58f44921"),
    (["weyl", "--manifold", "nprime", "--l", "3", "--alpha", "-0.45", "--samples", "40",
      "--tmax", "3000"],
     "76e3d18cf790f19eb35dc167e3e5085acab0f79ade75f8161310fc84ede98be6"),
]


def test_spectrum_and_weyl_pinned_bytes_in_fresh_processes():
    _assert_pinned_in_fresh_processes(PINNED_COUNTS + PINNED_WEYL_GRIDS)


# sha256 of stdout, recorded before the dual lattice, the volume and the selector
# table were read off the lattice specs: a spectrum of each remaining selector
# and a dims table of each crystallographic quotient
PINNED_GEOMETRY = [
    (["spectrum", "--manifold", "nl", "--l", "2", "--alpha", "0.25", "--tmax", "150"],
     "3f2e5ded4978bb0117153df6128e081984641264e957fbc988f1cbd26441a1d9"),
    (["spectrum", "--manifold", "gamma-pi", "--l", "2", "--alpha", "-0.5", "--tmax", "150",
      "--format", "csv"],
     "2022d1f5d25d543d3c6c16f67d1fc6a1ada94c20cb22581298b27b68ba202be0"),
    (["dims", "--manifold", "gamma-pi", "--l", "2", "--nmin", "-4", "--nmax", "4", "--lmax", "3"],
     "08da69d780d5abbc9d84ee3dc58cfb19161e2695ff0f40a887a85ecc7258f630"),
    (["dims", "--manifold", "gamma-pi2", "--l", "2", "--nmin", "-4", "--nmax", "4", "--lmax", "3"],
     "8ac8d8bc20f415479b6279da0259217cda42fe8f1a35bd4134971ad91d7c27a6"),
]


def test_spectrum_and_dims_pinned_bytes_in_fresh_processes():
    _assert_pinned_in_fresh_processes(PINNED_GEOMETRY)


# sha256 of stdout, recorded while the tables were still written by csv.writer and
# f-strings: both origin kinds in both formats, the empty spectrum in both
# formats, and weyl counts past 2^63 in the half-turn and quarter-turn columns
PINNED_ROW_TEMPLATES = [
    (["spectrum", "--manifold", "gamma-pi", "--alpha", "0.3", "--tmax", "150"],
     "f23e8a06f53955952ce561542fbbc93563a93c24a100b1a5476641fffcf1b1e4"),
    (["spectrum", "--manifold", "gamma-pi2", "--l", "2", "--alpha", "-0.75", "--tmax", "150"],
     "feea6a066b236b693e538544a5f353d71ead4c5314b09209ee582706fb85c574"),
    (["spectrum", "--manifold", "nl", "--l", "3", "--alpha", "1", "--tmax", "150",
      "--format", "csv"],
     "156e86a4a336afa1fb40bd57423e7a7be0792784ec257916d9c5189f3926051f"),
    (["spectrum", "--manifold", "nprime", "--l", "2", "--alpha", "-0.3", "--tmax", "150",
      "--format", "csv"],
     "33f53d47de1250f6e1404cf11b6eb78dc19e9e61a628b7406cc45f74805da146"),
    (["spectrum", "--manifold", "nl", "--tmax", "0.5"],
     "ed09f26b8f7d8f01108d84fd7719527bd0421b107c2072abc260ca543d0eb7e8"),
    (["spectrum", "--manifold", "nl", "--tmax", "0.5", "--format", "csv"],
     "be44aa12277b4b96ecf52204574b6647d4587b40e7a4c9f7c7bcfeef2a257a5f"),
    (["weyl", "--manifold", "gamma-pi2", "--alpha", "0.9999999999", "--tmax", "1e6",
      "--samples", "5"],
     "13a57e9d9348f6558add677d5b6e2043ee12fa725cb9cb38ece943e589ad8381"),
    (["weyl", "--manifold", "gamma-pi", "--l", "2", "--alpha", "-0.9999999999", "--tmax", "1e6",
      "--samples", "5"],
     "22f77edde481ab617526f71a862fbaa583d12ec3925d9a664d7ee13a31b5d0bb"),
    # recorded while each line was still an object sorted by a Python key: alpha = -1
    # and |alpha| = 0.9-0.999 at tmax up to 3000, where oscillator values tie with
    # each other and with the wide lam = 0 level
    (["spectrum", "--manifold", "nl", "--alpha", "-1", "--tmax", "3000", "--format", "csv"],
     "ba12cc7fbdbd18a0acc2b7db8cb9f40ec8d61b3146a3da31c8d62c3b0d2cd549"),
    (["spectrum", "--manifold", "gamma-pi2", "--l", "2", "--alpha", "0.9", "--tmax", "3000"],
     "b6b1d8c872942abb868260cd1c03b83ae9ca22506b8ad0c18713a74efc072494"),
    (["spectrum", "--manifold", "nprime", "--l", "2", "--alpha", "-0.999", "--tmax", "50",
      "--format", "csv"],
     "bb6e7bc4e679e2cdb559f6360b3b8ba3d3c6468c1aba8e6390e6d00ef978aa33"),
]


def test_row_templates_pinned_bytes_in_fresh_processes():
    _assert_pinned_in_fresh_processes(PINNED_ROW_TEMPLATES)


# the whole stderr and the exit code of a refusal, recorded with the same code
PINNED_REFUSALS = [
    (["spectrum", "--manifold", "nl", "--tmax", "5", "--out", "/nonexistent-dir/out.json"], 3,
     "error: cannot write /nonexistent-dir/out.json: [Errno 2] No such file or directory: "
     "'/nonexistent-dir/out.json'\n"),
    # recorded before the spectrum was written a block at a time
    (["spectrum", "--manifold", "nl", "--tmax", "5", "--out", "."], 3,
     "error: cannot write .: [Errno 21] Is a directory: '.'\n"),
    (["dims", "--manifold", "gamma-pi2", "--n", "2", "--lam", "0", "--tol", "1"], 2,
     "error: singular value inside the band [tol/10, 10 tol], tol = 1.0 "
     "(row n = 2, lambda = 0)\n"),
    (["weyl", "--manifold", "nprime", "--alpha", "0.5", "--tmin", "1e-300", "--tmax", "1e-299",
      "--samples", "2"], 2,
     "error: t = 1e-300 is too small: t^2 underflows to 0, so N(t)/t^2 is undefined\n"),
    (["eigenfunction", "--manifold", "gamma-pi", "--n", "1"], 2,
     "error: eigenfunction grids are defined on the lattice quotients (selectors nl, nprime)\n"),
]


def test_refusals_pinned_stderr_in_fresh_processes():
    results = _run_in_fresh_processes([argv for argv, _, _ in PINNED_REFUSALS])
    for (argv, code, err), (rc, stdout, stderr) in zip(PINNED_REFUSALS, results):
        assert (rc, stdout, stderr.decode()) == (code, b"", err), argv


def test_weyl_over_an_overflowing_ratio_meets_the_cost_bound(capsys):
    # tmax / tmin = 1e450 overflowed the grid's ratio to inf, and the run was
    # refused as a grid that is not finite
    argv = ["weyl", "--manifold", "nl", "--tmin", "1e-150", "--tmax", "1e300", "--samples", "2"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: counting up to t = 1e+300 would visit")


def test_weyl_refuses_a_t_whose_square_underflows(capsys):
    # t * t is 0 below about 1.6e-162, where N(t)/t^2 divided by zero
    argv = ["weyl", "--manifold", "nprime", "--alpha", "0.5", "--tmin", "1e-300",
            "--tmax", "1e-299", "--samples", "2"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: t = 1e-300 is too small")
    # the smallest t with a nonzero square still writes its table
    assert main(argv[:5] + ["--tmin", "1.6e-162", "--tmax", "1", "--samples", "2"]) == 0
    capsys.readouterr()


def test_weyl_refuses_a_grid_past_the_counting_limit_at_once(capsys, monkeypatch):
    monkeypatch.setattr(spectrum, "_split_parts", _refuse)
    start = time.perf_counter()
    assert main(["weyl", "--manifold", "nl", "--tmax", "1e308"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "(sample, level or row) entries" in err and str(MAX_COUNT_ENTRIES) in err


def test_counting_limit_admits_the_documented_commands(capsys, monkeypatch):
    # every command reaches the counting core: the 40-sample quarter-turn grid to
    # t = 1e7, the largest weyl grid the benchmark asks for, and 40 samples to 1e10
    monkeypatch.setattr(spectrum, "_split_parts", _refuse)
    for argv in (["weyl", "--manifold", "gamma-pi2", "--tmax", "1e7", "--samples", "40"],
                 ["weyl", "--manifold", "nprime", "--l", "2", "--tmax", "3000", "--samples", "40"],
                 ["weyl", "--manifold", "nl", "--tmax", "1e10", "--samples", "40"]):
        with pytest.raises(AssertionError, match="an evaluation started"):
            main(argv)
    capsys.readouterr()


def test_spectrum_refuses_a_line_count_past_the_limit_at_once():
    # the lam = 0 level alone holds about 6.4e9 lines; the child gets a 1 GiB
    # address space and 60 s, and must exit 2 well within both
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "heis_spectra.cli", "spectrum", "--manifold", "nl",
                           "--alpha", "0.99999999", "--tmax", "100"],
                          env=env, capture_output=True, text=True, timeout=60,
                          preexec_fn=cap_memory)
    assert proc.returncode == 2, proc.stderr
    assert time.perf_counter() - start < 30
    assert proc.stdout == ""
    assert "6366197917" in proc.stderr and str(MAX_SPECTRUM_LINES) in proc.stderr


L_160, L_400, L_20 = str(10**160), str(10**400), str(10**20)
# l past float range in the squared steps (10^160 and 10^400 once raised
# OverflowError), a torus sector of about 9e10 rows (once ran for minutes) and
# torus values past the largest float
HUGE_L_COMMANDS = [
    ["spectrum", "--manifold", "nl", "--l", L_160, "--tmax", "10"],
    ["weyl", "--manifold", "nl", "--l", L_160, "--tmax", "10"],
    *[[cmd, "--manifold", m, "--l", L_400, "--tmax", "10"]
      for cmd in ("spectrum", "weyl") for m in ("nl", "nprime", "gamma-pi", "gamma-pi2")],
    ["eigenfunction", "--manifold", "nl", "--l", L_400, "--n", "1"],
    ["eigenfunction", "--manifold", "nprime", "--l", L_400, "--n", "1"],
    ["dims", "--manifold", "gamma-pi", "--l", L_400],
    ["spectrum", "--manifold", "nprime", "--l", L_20, "--tmax", "10"],
    ["weyl", "--manifold", "nprime", "--l", L_20, "--tmax", "10"],
    ["weyl", "--manifold", "gamma-pi2", "--l", L_20, "--tmax", "10"],
    # the torus refusal comes before the levels, counted in Python ints at this l
    # (once past 30 s)
    ["weyl", "--manifold", "nprime", "--l", L_20, "--tmax", "1.5e8", "--samples", "2"],
    ["weyl", "--manifold", "nl", "--l", str(10**153), "--tmax", "1e3"],
]


def test_huge_l_is_refused_at_once_in_fresh_processes(capsys):
    results = _run_in_fresh_processes(HUGE_L_COMMANDS, timeout=60)
    for argv, (rc, out, err) in zip(HUGE_L_COMMANDS, results):
        err = err.decode()
        assert (rc, out) == (2, b""), (argv, err)
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "l is too large" in err or f"at l = {argv[4]} has" in err, err
    # in-process, where the interpreter's start is not timed, each takes well under 1 s
    for argv in HUGE_L_COMMANDS:
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0, argv
    capsys.readouterr()


def _largest_top(c, t):
    """The largest m with (pi m / 2) c <= t, by bisection over Python ints."""
    low, high = 0, 1
    while (math.pi * high / 2.0) * c <= t:
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if (math.pi * mid / 2.0) * c <= t else (low, mid)
    return low


def test_spectrum_refusals_need_no_enumeration():
    with pytest.raises(ValueError, match="at least"):
        enumerate_spectrum(standard_rect(1), 0.0, 1e6)
    # the lam = 0 level of c = 2^-53 holds about 1e4 2^54 / pi pairs, counted in
    # Python ints and never stepped; every other level is a few thousand at most
    top = _largest_top(2.0**-53, 1e4)
    others = sum(_largest_top((2 * lam + 1) - (1 - 2**-53) * sgn, 1e4)
                 for sgn in (1, -1) for lam in range(1 if sgn > 0 else 0, 3200))
    # the refusal writes a count past 2^53 to three digits, rounded down, so the counting
    # core's own count is checked in full
    assert spectrum._oscillator_sums([spectrum._pair], 1 - 2**-53, [1e4])[0][0] == top + others
    assert top + others == 57341611392226647140
    with pytest.raises(ValueError, match=r"has at least 5\.73e\+19 lines"):
        enumerate_spectrum(standard_rect(1), 1 - 2**-53, 1e4)
    # the lines' float expression takes a few thousand m past the real floor
    assert abs(top - 10**4 * 2**54 / math.pi) < 2**-40 * top
    # past the bound 2 (floor(tmax / pi) - 1) = 6.366...e299 nothing is counted
    assert str(2 * (int(1e300 / math.pi) - 1)).startswith("6366")
    with pytest.raises(ValueError, match=r"has at least 6\.36e\+299 lines"):
        enumerate_spectrum(standard_rect(1), 0.5, 1e300)


@pytest.mark.parametrize("count, written", [
    (2**53, str(2**53)), (2**53 + 1, "9.00e+15"), (10**16 - 1, "9.99e+15"),
    (10**16, "1.00e+16"), (57341611392226647140, "5.73e+19"), (10**300 + 1, "1.00e+300"),
])
def test_a_large_line_count_is_written_rounded_down(count, written):
    assert spectrum._at_least(count) == written


def test_a_huge_spectrum_refusal_is_one_short_line(capsys):
    # the bound at tmax = 1e300 has 300 digits; its refusal writes 6.36e+299
    assert main(["spectrum", "--manifold", "nl", "--tmax", "1e300"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert len(err) < 200 and "at least 6.36e+299 lines" in err, err


def test_spectrum_near_alpha_one_still_enumerates(capsys):
    rc, out = run_cli(capsys, "spectrum", "--manifold", "nl", "--alpha", "0.9999",
                      "--tmax", "10", "--format", "csv")
    assert rc == 0
    rows = list(csv.DictReader(out.splitlines()))
    # the lam = 0 level of n > 0 holds the values (pi m / 2) 1e-4 <= 10
    bottom = [r for r in rows if r["kind"] == "oscillator" and r["lambda"] == "0" and int(r["n"]) > 0]
    assert len(bottom) == int(10 / (math.pi / 2 * (1 - 0.9999)))
    assert len(rows) == len(enumerate_spectrum(standard_rect(1), 0.9999, 10.0)) - 1


def test_dims_quarter_quotient_bottom_row(capsys):
    rc, out = run_cli(capsys, "dims", "--manifold", "gamma-pi2", "--l", "1",
                      "--n", "1", "--lam", "0")
    assert rc == 0
    assert out.splitlines()[1] == "1,0,0,0,0,true"


def test_dims_sweep_all_agree(capsys):
    for manifold in ("gamma-pi", "gamma-pi2"):
        rc, out = run_cli(capsys, "dims", "--manifold", manifold, "--l", "1",
                          "--nmin", "1", "--nmax", "4", "--lmax", "3")
        assert rc == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 16
        assert all(r["agree"] == "true" for r in rows)
        assert all(r["closed"] == r["oracle"] == r["character"] for r in rows)


def test_dims_half_turn_agrees_at_a_sector_of_1024(capsys):
    # N = 2l|n| = 1024: the half-turn oracle takes the reversal's 2x2 blocks
    rc, out = run_cli(capsys, "dims", "--manifold", "gamma-pi", "--l", "4",
                      "--n", "128", "--lam", "1")
    assert rc == 0
    assert out.splitlines()[1] == "128,1,511,511,511,true"


def test_dims_negative_range_skips_zero(capsys):
    rc, out = run_cli(capsys, "dims", "--manifold", "gamma-pi", "--l", "1",
                      "--nmin", "-2", "--nmax", "2", "--lmax", "0")
    assert rc == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [int(r["n"]) for r in rows] == [-2, -1, 1, 2]


def test_dims_refuses_an_oracle_past_the_limit_without_allocating(capsys, monkeypatch):
    # past N = 2l|n| = 2^52 a size or a character sum may no longer be exact in float64
    def refuse(*args):
        raise AssertionError("an oracle ran")

    monkeypatch.setattr(cli, "dims_columns", refuse)
    tracemalloc.start()
    try:
        rc = main(["dims", "--manifold", "gamma-pi2", "--n", str(2**49), "--l", "8"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 2
    assert str(2**53) in err and "2^52" in err and str(MAX_SECTOR_SIZE) in err
    assert peak < 1 << 20
    # a range is refused as a whole, before its first row
    assert main(["dims", "--manifold", "gamma-pi", "--nmin", "1", "--nmax", str(2**51 + 1)]) == 2
    assert str(2**52 + 2) in capsys.readouterr().err


def test_dims_writes_sectors_far_past_the_old_matrix_limit(capsys):
    # both oracles are O(1) a row: N = 32000 agrees on every route
    rc, out = run_cli(capsys, "dims", "--manifold", "gamma-pi2", "--n", "16000")
    assert rc == 0
    assert out.splitlines()[1:] == ["16000,0,8001,8001,8001,true", "16000,1,8000,8000,8000,true",
                                    "16000,2,8000,8000,8000,true", "16000,3,7999,7999,7999,true"]
    # at N = 2^52 the default tol is far below the rank rule's floor sigma_max N eps = 2,
    # which refuses the row loudly; a size just past 2^52 never reaches it
    assert main(["dims", "--manifold", "gamma-pi2", "--n", str(2**51), "--lam", "0"]) == 2
    err = capsys.readouterr().err
    assert "below the rank rule's floor" in err and f"row n = {2**51}" in err
    assert main(["dims", "--manifold", "gamma-pi", "--n", str(2**51 + 1), "--lam", "0"]) == 2
    assert "2^52" in capsys.readouterr().err


@pytest.mark.parametrize("argv, words", [
    (["--nmin", "1", "--nmax", str(10**16)], ["20000000000000000", "2^52"]),
    (["--nmin", str(-10**16), "--nmax", "1"], ["20000000000000000", "2^52"]),
    (["--n", "1", "--lmax", str(10**12)], ["1000000000001 rows", str(MAX_SPECTRUM_LINES)]),
    (["--n", "1", "--lmax", str(10**400)], ["rows", str(MAX_SPECTRUM_LINES)]),
    (["--nmin", "-1000", "--nmax", "1000", "--lmax", "1000"], ["2002000 rows"]),
])
def test_dims_refuses_a_huge_range_before_listing_it(capsys, monkeypatch, argv, words):
    def refuse(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(cli, "dims_columns", refuse)
    monkeypatch.setattr(invariants, "_phase_rows", refuse)  # the first step of every column
    tracemalloc.start()
    try:
        rc = main(["dims", "--manifold", "gamma-pi2", *argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(w in err for w in words), err
    assert peak < 1 << 20


def test_dims_takes_the_phases_once_per_block(capsys, monkeypatch):
    # 2000 n by 5 levels are two blocks of rows; each takes its phases once, in
    # dims_columns, and hands them to the character and the oracle column
    phase_rows, calls = invariants._phase_rows, []
    monkeypatch.setattr(invariants, "_phase_rows",
                        lambda *a: calls.append(len(a[0])) or phase_rows(*a))
    rc, out = run_cli(capsys, "dims", "--manifold", "gamma-pi", "--nmin", "-1000", "--nmax", "1000",
                      "--lmax", "4")
    assert rc == 0 and out.count("\n") == 10**4 + 1 and out.count("true") == 10**4
    assert calls == [cli._DIMS_ROWS_AT_ONCE, 10**4 - cli._DIMS_ROWS_AT_ONCE]


# tracemalloc's peak of the command below when each row was computed and written
# into one buffer in turn, before the table was built as columns in blocks
_MILLION_ROW_DIMS_PEAK = 51_674_462


# one command in a fresh interpreter: its exit code and its peak resident size in
# bytes, read as VmHWM (in KiB); ru_maxrss would also count the forking test
# process, as Linux carries that high-water mark across exec
_PEAK_RSS = """\
import sys
from heis_spectra.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(code, peak * 1024)
"""


def _peak_rss(argv):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    code, peak = map(int, proc.stdout.split())
    return code, peak


def test_a_million_row_dims_table_holds_its_text_once(tmp_path):
    # 2500 n by 400 levels: the blocks of rows are written one after the other, so
    # the 26 MB of text is held once and never joined, with one block's columns.
    # The peak is the growth of a fresh process's peak resident size over that of a
    # 17-row table, which costs nothing per allocation; joined, the text grows it by
    # about 82 MB, held once by about 32 MB
    out = tmp_path / "dims.csv"
    argv = ["dims", "--manifold", "gamma-pi", "--nmin", "-1250", "--nmax", "1250",
            "--lmax", "399", "--out", str(out)]
    base = _peak_rss(["dims", "--manifold", "gamma-pi", "--out", str(tmp_path / "small.csv")])
    code, peak = _peak_rss(argv)
    assert base[0] == code == 0
    text = out.read_text()
    assert text.count("\n") == 10**6 + 1 and text.endswith("\n1250,399,1249,1249,1249,true\n")
    assert len(text) < peak - base[1] < _MILLION_ROW_DIMS_PEAK


def test_dims_writes_a_huge_level_exactly(capsys):
    # the phases are i^r with r reduced mod 4 in integers, at any lam
    lam = 10**400
    for n, dim in ((6, 3), (-20, 11)):
        rc, out = run_cli(capsys, "dims", "--manifold", "gamma-pi2", "--n", str(n),
                          "--lam", str(lam))
        assert rc == 0
        assert out.splitlines()[1] == f"{n},{lam},{dim},{dim},{dim},true"
    rc, out = run_cli(capsys, "dims", "--manifold", "gamma-pi", "--n", "-3", "--lam", str(lam))
    assert rc == 0
    assert out.splitlines()[1] == f"-3,{lam},2,2,2,true"


def _dims_bytes_equal_the_dense_route(capsys, monkeypatch, manifold, power, tops):
    # the benchmark's ranges, both signs, N = 2l|n| up to 128 or 256: the orbit blocks write
    # the bytes that one dense SVD of I - M per row writes
    @functools.cache
    def dense_svals(n, lam, l):
        M = pullback_matrices(power, [n], [lam], l)[0]
        return svd_of(M.tobytes(), len(M))

    @functools.cache
    def svd_of(entries, dim):  # one SVD per distinct matrix, e.g. per parity of n + lam for phi
        A = np.frombuffer(entries, dtype=complex).reshape(dim, dim) - np.eye(dim)
        return np.linalg.svd(A, compute_uv=False)

    def dense_columns(generator_power, ns, lams, l, tol, columns=invariants.dims_columns):
        # the closed forms and the characters as they are, the oracle column replaced
        assert generator_power == power
        closed, _, characters = columns(power, ns, lams, l, tol)
        dense = [_nullity(dense_svals(n, lam, l), tol) for n, lam in zip(ns, lams)]
        return closed, dense, characters

    def dims(l, nmin, nmax, tol):
        argv = ["dims", "--manifold", manifold, "--l", str(l), "--nmin", str(nmin),
                "--nmax", str(nmax), "--lmax", "3"] + (["--tol", tol] if tol else [])
        rc, out = run_cli(capsys, *argv)
        assert rc == 0
        return out

    ranges = [(l, lo, hi) for l, top in tops
              for lo, hi in ((1, top // 2), (top // 2 + 1, top), (-top, -(top // 2 + 1)),
                             (-(top // 2), -1))]
    for tol in (None, "1e-12", "1e-4", "1e-2"):
        blocks = [dims(*r, tol) for r in ranges]
        with monkeypatch.context() as m:
            m.setattr(cli, "dims_columns", dense_columns)
            assert [dims(*r, tol) for r in ranges] == blocks, tol


def test_dims_quarter_turn_bytes_equal_the_dense_route(capsys, monkeypatch):
    _dims_bytes_equal_the_dense_route(capsys, monkeypatch, "gamma-pi2", 1,
                                      ((1, 36), (2, 24), (3, 18), (4, 16)))


def test_dims_half_turn_bytes_equal_the_dense_route(capsys, monkeypatch):
    _dims_bytes_equal_the_dense_route(capsys, monkeypatch, "gamma-pi", 2,
                                      ((1, 80), (2, 56), (3, 40), (4, 32)))


def _private_invariants_names(source: str) -> list[str]:
    """The underscore names that a module's source imports from heis_spectra.invariants."""
    return [alias.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
            and (node.module == "heis_spectra.invariants"
                 or (node.level == 1 and node.module == "invariants"))
            for alias in node.names if alias.name.startswith("_")]


def test_cli_imports_no_private_name_of_invariants():
    # the phase keys and the tie rule of the dims columns stay behind invariants'
    # public calls
    assert _private_invariants_names(Path(cli.__file__).read_text(encoding="utf-8")) == []
    for source, names in (("from .invariants import _phase_rows, dims_columns", ["_phase_rows"]),
                          ("from heis_spectra.invariants import _nullity as n", ["_nullity"]),
                          ("from .weyl import _ratio_grid", [])):
        assert _private_invariants_names(source) == names, source


def test_dims_rejects_bad_requests(capsys):
    assert main(["dims", "--manifold", "gamma-pi", "--n", "0"]) == 2
    assert main(["dims", "--manifold", "nl"]) == 2
    assert main(["dims", "--manifold", "gamma-pi", "--nmin", "3", "--nmax", "1"]) == 2
    capsys.readouterr()


def test_dims_refuses_a_bad_or_ill_conditioned_tol(capsys):
    argv = ["dims", "--manifold", "gamma-pi2", "--n", "2", "--lam", "0", "--tol"]
    # the singular value sqrt(2) of I - M lies in the band [tol/10, 10 tol] at tol = 1
    assert main(argv + ["1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "inside the band [tol/10, 10 tol], tol = 1.0 (row n = 2, lambda = 0)" in err
    for tol in ("-1", "0", "nan", "inf"):
        assert main(argv + [tol]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "tol must be positive and finite" in err
    # below sigma_max N eps a kernel value may be rounding noise: both kinds refuse
    for manifold in ("gamma-pi", "gamma-pi2"):
        assert main(["dims", "--manifold", manifold, "--l", "1", "--nmin", "15", "--nmax", "17",
                     "--lmax", "1", "--tol", "1e-20"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "below the rank rule's floor" in err and "(row n = 15" in err


def test_dims_counts_a_quarter_turn_row_just_above_the_floor(capsys):
    # N = 14, tol = 1e-14, just above the floor 2 N eps = 6.2e-15: the quarter-turn's
    # kernel values are exactly 0, none in the band [tol/10, 10 tol], so the row takes
    # the dense SVD's count, 3
    rc, out = run_cli(capsys, "dims", "--manifold", "gamma-pi2", "--l", "1", "--n", "7",
                      "--lam", "2", "--tol", "1e-14")
    assert rc == 0
    assert out == "n,lambda,closed,oracle,character,agree\n7,2,3,3,3,true\n"
    assert fixed_subspace_dim(pullback_matrices(1, [7], [2], 1)[0], 1e-14) == 3


def test_runtime_never_imports_scipy():
    # scipy, mpmath, fractions and decimal are only test oracles: a fresh interpreter
    # running a dims table, a constraint solve, the three one-point paths and the
    # weil-brezin suite, lazy imports included, must not load any of them (a Fraction
    # alone adds about 2 ms to every fresh import)
    code = ("import sys\n"
            "import numpy as np\n"
            "from heis_spectra import cli\n"
            "from heis_spectra.group import PolarizedPoint, scaled_square\n"
            "from heis_spectra.invariants import (CoefficientVector, eigenfunction_combination,\n"
            "                                     psi_constraint_solve, sector_basis_values)\n"
            "from heis_spectra.weil_brezin import WBIndex, wb_eigenfunction\n"
            "assert cli.main(['dims', '--manifold', 'gamma-pi2', '--n', '3', '--lam', '1']) == 0\n"
            "assert len(psi_constraint_solve(3, 1, 2)) == 4\n"
            "pt, lattice = PolarizedPoint(0.3, 1e300, -0.7), scaled_square(1)\n"
            "wb_eigenfunction(WBIndex(-3, 1, 1, 2), 2, lattice, pt)\n"
            "eigenfunction_combination(CoefficientVector(-3, 1, np.ones(6) + 0j), 2, lattice, pt)\n"
            "sector_basis_values(-3, 2, lattice, pt)\n"
            "assert cli.main(['verify', '--suite', 'weil-brezin']) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('scipy', 'mpmath', 'fractions', 'decimal')))\n")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_a_command_never_imports_argparse():
    # the option table parses argv: a fresh interpreter running a dims table
    # through cli.main loads no argparse
    code = ("import sys\n"
            "from heis_spectra import cli\n"
            "assert cli.main(['dims', '--manifold', 'gamma-pi2', '--n', '3', '--lam', '1']) == 0\n"
            "print('argparse' in sys.modules)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_help_names_every_option_with_its_default():
    src = Path(__file__).resolve().parent.parent / "src"
    for name, command in cli.build_parser().items():
        proc = subprocess.run([sys.executable, "-m", "heis_spectra.cli", name, "--help"],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0].startswith(f"usage: heis-spectra {name} [-h]")
        for option in command.options[1:]:
            # an option's entry is its line, and the next one when its name is long
            at = next(i for i, line in enumerate(lines)
                      if line.startswith(f"  --{option.name} "))
            entry = " ".join(lines[at:at + 2])
            assert option.help in entry
            if option.required:
                assert "(required)" in entry
            elif option.default is not None:
                assert f"(default {option.default})" in entry


def test_weyl_half_difference_column(capsys):
    rc, out = run_cli(capsys, "weyl", "--manifold", "gamma-pi", "--l", "1",
                      "--alpha", "0", "--samples", "6", "--tmax", "200")
    assert rc == 0
    rows = list(csv.DictReader(ln for ln in out.splitlines() if not ln.startswith("#")))
    assert len(rows) == 6
    for r in rows:
        assert float(r["half_diff"]) == float(r["parity_diff"])


def test_weyl_quarter_ratio_bounded(capsys):
    rc, out = run_cli(capsys, "weyl", "--manifold", "gamma-pi2", "--l", "1",
                      "--samples", "5", "--tmin", "20", "--tmax", "200")
    assert rc == 0
    rows = list(csv.DictReader(ln for ln in out.splitlines() if not ln.startswith("#")))
    for r in rows:
        assert abs(float(r["quarter_ratio"]) - 0.25) <= float(r["pair_bound"])


def test_weyl_deviation_shrinks(capsys):
    rc, out = run_cli(capsys, "weyl", "--manifold", "nl", "--l", "1",
                      "--alpha", "0", "--samples", "6", "--tmin", "50", "--tmax", "400")
    assert rc == 0
    rows = list(csv.DictReader(ln for ln in out.splitlines() if not ln.startswith("#")))
    assert float(rows[0]["target"]) == pytest.approx(0.5, abs=1e-8)
    assert float(rows[-1]["deviation"]) < 0.1
    assert float(rows[-1]["deviation"]) < float(rows[0]["deviation"])


def test_weyl_rejects_alpha_outside_range(capsys):
    assert main(["weyl", "--manifold", "nl", "--alpha", "1.5"]) == 2
    capsys.readouterr()


# verify's whole stdout, byte for byte
VERIFY_LINES = """\
suite group: PASS (identities, associativity, torsion, reduction)
suite hermite: PASS (recurrence and oscillator equation)
suite weil-brezin: PASS (theta value, invariance, intertwining)
suite pullback: PASS (24 pointwise matrix checks)
suite dims: PASS (closed forms equal rank oracles on the sweep)
suite characters: PASS (traces, averages, sector sums)
suite gauss: PASS (closed form vs direct sums, reachable moduli)
suite spectrum: PASS (ordering, values, multiplicities)
suite weyl: PASS (constants, pair sums, half-count relation)
"""


def test_verify_all_and_subset(capsys):
    rc, out = run_cli(capsys, "verify")
    assert rc == 0
    assert out == VERIFY_LINES
    lines = out.splitlines()
    rc, out = run_cli(capsys, "verify", "--suite", "gauss")
    assert rc == 0
    assert out.splitlines() == lines[6:7]
    # --threads is still accepted; the suites run one after another
    rc, out = run_cli(capsys, "verify", "--suite", "gauss", "--threads", "3")
    assert rc == 0
    assert out.splitlines() == lines[6:7]


def test_verify_negative_control(capsys, monkeypatch):
    # every suite that reads the pullback matrices fails on perturbed ones: the
    # pointwise action, the stacked rank references and the stacked power chains
    suites = ["pullback", "dims", "characters"]
    argv = [arg for suite in suites for arg in ("--suite", suite)]
    with monkeypatch.context() as patch:
        _perturb_pullbacks(patch)
        rc, out = run_cli(capsys, "verify", *argv)
    assert rc == 1
    assert [line.split(" (")[0] for line in out.splitlines()] == [
        f"suite {suite}: FAIL" for suite in suites]
    # the perturbation does not leak into later runs
    rc, out = run_cli(capsys, "verify", *argv)
    assert rc == 0
    assert out.splitlines() == VERIFY_LINES.splitlines()[3:6]


def test_verify_fails_on_a_perturbed_basis_value(capsys, monkeypatch):
    # 1e-6 on one value of the sector's basis, ten times the pullback suite's threshold
    def perturbed(*args, values=verify.sector_basis_values):
        out = values(*args)
        out[0] += 1e-6
        return out

    with monkeypatch.context() as patch:
        patch.setattr(verify, "sector_basis_values", perturbed)
        rc, out = run_cli(capsys, "verify", "--suite", "pullback")
    assert rc == 1 and out.startswith("suite pullback: FAIL (VerificationError: pullback matrix")
    rc, out = run_cli(capsys, "verify", "--suite", "pullback")
    assert rc == 0 and out.splitlines() == VERIFY_LINES.splitlines()[3:4]


def test_verify_fails_on_a_perturbed_direct_gauss_sum(capsys, monkeypatch):
    # 1e-6 on the direct sum of one m of the column, m = 37
    def perturbed(ms, direct=verify.gauss_sum_direct):
        out = direct(ms)
        out[36] += 1e-6
        return out

    with monkeypatch.context() as patch:
        patch.setattr(verify, "gauss_sum_direct", perturbed)
        rc, out = run_cli(capsys, "verify", "--suite", "gauss")
    assert (rc, out) == (1, "suite gauss: FAIL (VerificationError: Gauss sum closed form fails "
                            "at m=37)\n")
    rc, out = run_cli(capsys, "verify", "--suite", "gauss")
    assert rc == 0 and out.splitlines() == VERIFY_LINES.splitlines()[6:7]


def test_verify_takes_its_checks_as_columns(monkeypatch):
    # the pullback suite takes one series per point for a sector's whole basis, 24
    # points and their images; dims takes one SVD per sector size over stacks, of
    # sizes 2, 4, 6, 8, 12 and 16; dims and characters build no matrix one row at a
    # time; gauss takes its direct sums as one column
    suite, calls = [None], collections.Counter()

    def counted(name, fn):
        return lambda *args, **kwargs: calls.update([(suite[0], name)]) or fn(*args, **kwargs)

    for name, fn in verify.SUITES.items():
        def run(name=name, fn=fn):
            suite[0] = name
            return fn()

        monkeypatch.setitem(verify.SUITES, name, run)
    monkeypatch.setattr(weil_brezin, "_psi", counted("_psi", weil_brezin._psi))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    stacks = verify.pullback_matrices

    def counted_stacks(power, ns, lams, l):  # a stack of one row: one matrix at a time
        if len(ns) == 1:
            calls.update([(suite[0], "one-row")])
        return stacks(power, ns, lams, l)

    monkeypatch.setattr(verify, "pullback_matrices", counted_stacks)
    monkeypatch.setattr(verify, "gauss_sum_direct", counted("gauss", verify.gauss_sum_direct))
    results = verify.run_suites(["pullback", "dims", "characters", "gauss"])
    assert all(r.passed for r in results), results
    assert calls[("pullback", "_psi")] == 48
    assert calls[("dims", "svd")] == 6
    assert calls[("dims", "one-row")] == calls[("characters", "one-row")] == 0
    assert calls[("gauss", "gauss")] == 1


def _console_script_command():
    """The installed `heis-spectra` script, or else its [project.scripts] target from
    pyproject.toml run in a fresh interpreter on the source tree."""
    script = shutil.which("heis-spectra")
    if script is not None:
        return [script], None
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["heis-spectra"]
    module, func = target.split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    return [sys.executable, "-c", code], dict(os.environ, PYTHONPATH=str(root / "src"))


def test_console_script_deterministic():
    prefix, env = _console_script_command()
    cmd = prefix + ["spectrum", "--manifold", "nl", "--l", "1", "--alpha", "0.25", "--tmax", "20"]
    first = subprocess.run(cmd, capture_output=True, check=True, env=env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["lines"]
    bad = subprocess.run(prefix + ["spectrum", "--manifold", "nl", "--tmax", "-3"],
                         capture_output=True, env=env)
    assert bad.returncode == 2 and bad.stdout == b""
