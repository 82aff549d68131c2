import csv
import dataclasses
import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
import tomllib
import tracemalloc
from pathlib import Path

import pytest

from heis_spectra import cli, spectrum, verify
from heis_spectra.cli import MAX_ORACLE_DIM, main
from heis_spectra.group import PolarizedPoint, standard_rect
from heis_spectra.spectrum import MAX_COUNT_ENTRIES, MAX_SPECTRUM_LINES, enumerate_spectrum
from heis_spectra.weil_brezin import WBIndex, wb_eigenfunction


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
    expected = [l for l in enumerate_spectrum(standard_rect(1), 0.0, 3.2) if l.value > 0]
    assert [l["value"] for l in lines] == [l.value for l in expected]
    assert [l["multiplicity"] for l in lines] == [l.multiplicity for l in expected]


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
    expected = [l for l in enumerate_spectrum(standard_rect(2), 0.25, 12.0) if l.value > 0]
    assert [float(r["value"]) for r in rows] == [l.value for l in expected]
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


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def _perturb_pullbacks(monkeypatch):
    """Add 1e-3 to every entry of the matrices the verifier's pullback suite
    builds: its negative control, which must make the suite fail."""
    for name in ("phi_pullback_matrix", "psi_pullback_matrix"):
        def perturbed(*args, build=getattr(verify, name)):
            m = build(*args)
            return dataclasses.replace(m, matrix=m.matrix + 1e-3)

        monkeypatch.setattr(verify, name, perturbed)


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
        # central period: s and s+1 rows match
        if s < 1.0:
            assert abs(rows[(p, q, s + 1.0)] - val) < 1e-12
        # lattice invariance: the translate by (1,0,0) lands on another row
        if p < 1.0:
            assert abs(rows[(p + 1.0, q, (s + q) % 1.0)] - val) < 1e-8


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
    # the unnormalised recurrence overflowed here; the normalised one has no cap
    rc, out = run_cli(capsys, "eigenfunction", "--manifold", manifold, "--l", str(l),
                      "--n", str(n), "--lam", str(lam), "--grid", "1")
    assert rc == 0
    rows = _grid_rows(out)
    assert len(rows) == 4
    lattice = cli._MANIFOLDS[manifold](l)
    idx = WBIndex(n, 0, 0, lattice.covering_width)
    for (p, q, s), val in rows.items():
        assert math.isfinite(val.real) and math.isfinite(val.imag)
        assert val == wb_eigenfunction(idx, lam, lattice, PolarizedPoint(p, q, s))


def _refuse(*args):
    raise AssertionError("an evaluation started")


def test_eigenfunction_refuses_a_grid_past_the_row_limit(capsys, monkeypatch):
    # --grid g writes 4 g^3 rows: g = 1000 asks for 4e9 rows, g = 80 for 2048000
    monkeypatch.setattr(cli, "wb_eigenfunction_values", _refuse)
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
    monkeypatch.setattr(cli, "wb_eigenfunction_values", lambda *a: calls.append(a) or _refuse())
    monkeypatch.setattr(cli, "default_tgrid", lambda *a: calls.append(a) or _refuse())
    for argv in (["eigenfunction", "--manifold", "nl", "--n", "1", "--grid", "79"],
                 ["weyl", "--manifold", "nl", "--samples", str(MAX_SPECTRUM_LINES)]):
        with pytest.raises(AssertionError, match="an evaluation started"):
            main(argv)
    assert len(calls) == 2
    capsys.readouterr()


# sha256 of stdout, recorded when the seeds became the L2-normalised Hermite
# functions and the window R = sqrt(2 lam + 1) + sqrt(2 ln(10/tol)) over scale
PINNED_GRIDS = [
    (["--manifold", "nl", "--l", "1", "--n", "1", "--lam", "0", "--grid", "4"],
     "d4b0cf05ea486ea48696a36e3599e4ef8800768a06ec608725310ed8351c7013"),
    (["--manifold", "nl", "--l", "2", "--n", "-3", "--a", "2", "--b", "1", "--lam", "6",
      "--grid", "4"],
     "ca10329395b649f96f86a9435f684d15ca9dd78bd8df6386926c87b68cda219b"),
    (["--manifold", "nl", "--l", "3", "--n", "2", "--a", "1", "--b", "2", "--lam", "20",
      "--grid", "1", "--alpha", "-0.25"],
     "0169aad7ab7bfe9c72009e1d85db7e2dffb34595998950ec3455145f0e85c585"),
    (["--manifold", "nprime", "--l", "1", "--n", "-1", "--b", "1", "--lam", "0", "--grid", "1"],
     "c1ca38158c62289d4b9331712b34805b9c6af9b7341e28fc2b204cedc21b8ac5"),
    (["--manifold", "nprime", "--l", "2", "--n", "3", "--a", "1", "--b", "3", "--lam", "6",
      "--grid", "4", "--alpha", "0.5"],
     "01ab8a483b4ca7a1b3061bb11013eb61add87a63c91df41c5c6256dcc5fe7548"),
    (["--manifold", "nprime", "--l", "1", "--n", "-2", "--a", "1", "--b", "1", "--lam", "20",
      "--grid", "4", "--tol", "1e-10"],
     "67dd2a0d07c2a03a6487d97d8af92b2b5a6dea0569a1c55c5d2f1385ffecf324"),
]


def _assert_pinned_in_fresh_processes(pins):
    # each command in its own interpreter through `python -m`, which needs no
    # console script; the processes run side by side
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    procs = [subprocess.Popen([sys.executable, "-m", "heis_spectra.cli", *argv],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for argv, _ in pins]
    for (argv, digest), proc in zip(pins, procs):
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
        assert hashlib.sha256(out).hexdigest() == digest, argv


def test_eigenfunction_pinned_bytes_in_fresh_processes():
    _assert_pinned_in_fresh_processes([(["eigenfunction", *argv], digest)
                                       for argv, digest in PINNED_GRIDS])


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
    monkeypatch.setattr(spectrum, "_level_tops", _refuse)
    start = time.perf_counter()
    assert main(["weyl", "--manifold", "nl", "--tmax", "1e308"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "(sample, level) entries" in err and str(MAX_COUNT_ENTRIES) in err


def test_counting_limit_admits_the_documented_commands(capsys, monkeypatch):
    # every command reaches the counting core: the 40-sample quarter-turn grid to
    # t = 1e7, and the largest weyl grid the benchmark asks for
    monkeypatch.setattr(spectrum, "_level_tops", _refuse)
    for argv in (["weyl", "--manifold", "gamma-pi2", "--tmax", "1e7", "--samples", "40"],
                 ["weyl", "--manifold", "nprime", "--l", "2", "--tmax", "3000", "--samples", "40"]):
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


def test_spectrum_refusals_need_no_enumeration():
    with pytest.raises(ValueError, match="at least"):
        enumerate_spectrum(standard_rect(1), 0.0, 1e6)
    # tops past 2^62 are never stepped: the estimate refuses first
    with pytest.raises(ValueError, match="more than 4.6e"):
        enumerate_spectrum(standard_rect(1), 1 - 2**-53, 1e4)
    with pytest.raises(ValueError, match="more than 4.6e"):
        enumerate_spectrum(standard_rect(1), 0.5, 1e300)


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
    # N = 2l|n| = 1024: the half-turn oracle takes its blocks, not one dense SVD
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
    def refuse(*args):
        raise AssertionError("a pullback matrix was built")

    monkeypatch.setattr(cli, "psi_pullback_matrix", refuse)
    monkeypatch.setattr(cli, "phi_pullback_matrix", refuse)
    tracemalloc.start()
    try:
        rc = main(["dims", "--manifold", "gamma-pi2", "--n", "2000", "--l", "8"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 2
    assert "32000" in err and str(MAX_ORACLE_DIM) in err
    assert peak < 1 << 20
    # a range is refused as a whole, before its first row
    assert main(["dims", "--manifold", "gamma-pi", "--nmin", "1", "--nmax", "3000"]) == 2
    assert "6000" in capsys.readouterr().err


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


def test_runtime_never_imports_scipy():
    # scipy is only a test oracle: a fresh interpreter running a dims table and a
    # constraint solve, lazy imports included, must not load any of it
    code = ("import sys\n"
            "from heis_spectra import cli\n"
            "from heis_spectra.invariants import psi_constraint_solve\n"
            "assert cli.main(['dims', '--manifold', 'gamma-pi2', '--n', '3', '--lam', '1']) == 0\n"
            "assert len(psi_constraint_solve(3, 1, 2)) == 4\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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


def test_verify_all_and_subset(capsys):
    rc, out = run_cli(capsys, "verify")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert all(": PASS" in ln for ln in lines)
    rc, out = run_cli(capsys, "verify", "--suite", "gauss")
    assert rc == 0
    assert out.splitlines() == lines[6:7]
    # --threads is still accepted; the suites run one after another
    rc, out = run_cli(capsys, "verify", "--suite", "gauss", "--threads", "3")
    assert rc == 0
    assert out.splitlines() == lines[6:7]


def test_verify_negative_control(capsys, monkeypatch):
    with monkeypatch.context() as patch:
        _perturb_pullbacks(patch)
        rc, out = run_cli(capsys, "verify", "--suite", "pullback")
    assert rc == 1
    assert "FAIL" in out
    # the perturbation does not leak into later runs
    rc, out = run_cli(capsys, "verify", "--suite", "pullback")
    assert rc == 0


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
