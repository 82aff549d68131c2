import csv
import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from heis_spectra import cli
from heis_spectra.cli import MAX_ORACLE_DIM, main
from heis_spectra.group import standard_rect
from heis_spectra.spectrum import MAX_SPECTRUM_LINES, enumerate_spectrum


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
    assert abs(rows[(0.0, 0.0, 0.0)] - 1.08643481121330801) < 1e-12
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
    capsys.readouterr()


def test_eigenfunction_overflow_exits_2(capsys, tmp_path):
    # at lam = 170 the Hermite recurrence overflows inside the series window
    out = tmp_path / "grid.csv"
    rc = main(["eigenfunction", "--manifold", "nl", "--n", "1", "--lam", "170",
               "--grid", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "order 170" in captured.err and "not finite" in captured.err
    assert captured.out == "" and not out.exists()


# sha256 of stdout, recorded with the per-seed window loop before grids were
# evaluated one window per row
PINNED_GRIDS = [
    (["--manifold", "nl", "--l", "1", "--n", "1", "--lam", "0", "--grid", "4"],
     "40a3aff4d61d5b727fc5a9d3ef2dbc1100dcebd6042e6f785cba53c62ff6f554"),
    (["--manifold", "nl", "--l", "2", "--n", "-3", "--a", "2", "--b", "1", "--lam", "6",
      "--grid", "4"],
     "180be05b82472b50066c16b3925ad5e2f23437e9196ae5217f3897dd55ee0357"),
    (["--manifold", "nl", "--l", "3", "--n", "2", "--a", "1", "--b", "2", "--lam", "20",
      "--grid", "1", "--alpha", "-0.25"],
     "5e384e8c39c20d679fa8d1809c9bc8c4cf48764c0f605b6a71a432903d5a2feb"),
    (["--manifold", "nprime", "--l", "1", "--n", "-1", "--b", "1", "--lam", "0", "--grid", "1"],
     "95acf427ce739eaeffc18fda2a35e2ff4efe6aa0029fb7f90f49ca4b045356ef"),
    (["--manifold", "nprime", "--l", "2", "--n", "3", "--a", "1", "--b", "3", "--lam", "6",
      "--grid", "4", "--alpha", "0.5"],
     "83a88e3bef31272cc09c58b5d414123b30f78df7e9ba505c431902d2c17022e9"),
    (["--manifold", "nprime", "--l", "1", "--n", "-2", "--a", "1", "--b", "1", "--lam", "20",
      "--grid", "4", "--tol", "1e-10"],
     "833f03ed41a795fac6a7ed91c70bce0e41d54498fd682cd88c16b7993084b43f"),
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


def test_verify_negative_control(capsys):
    rc, out = run_cli(capsys, "verify", "--suite", "pullback",
                      "--inject-pullback-error", "1e-3")
    assert rc == 1
    assert "FAIL" in out
    # the hook does not leak into later runs
    rc, out = run_cli(capsys, "verify", "--suite", "pullback")
    assert rc == 0


@pytest.mark.skipif(shutil.which("heis-spectra") is None, reason="script not on PATH")
def test_console_script_deterministic():
    cmd = ["heis-spectra", "spectrum", "--manifold", "nl", "--l", "1",
           "--alpha", "0.25", "--tmax", "20"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["lines"]
