"""The four workloads: their seeded inputs, their operations and the checks.

A workload is a list of operations, one round, built from the seed; a run
repeats the round.  Each operation is one public call of the program: a CLI
command run in-process with ``--out`` into the run's scratch directory, or a
library function.  Each carries the rate it counts towards (``"a"`` or ``"b"``),
the work it adds to that rate, and the checker that judges its output.  A
probe is an operation that fails every time because of a known fault; it is
counted as attempted and failed and is left out of the rates.

Parameters that set the cost (lattice width, |n|, level, sector size, tmax,
|alpha|, sample count) are fixed per slot, so every seed asks for the same
work; the seed draws signs, residues, alpha or its sign, points, basis
combinations, suite order and the order of the round.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("eigenfunctions", "dims-table", "counting", "verify")

# rate a / rate b of each workload, as (name, unit of work)
RATES = {
    "eigenfunctions": (("grid_points_per_s", "points/s"), ("scattered_points_per_s", "points/s")),
    "dims-table": (("phi_rows_per_s", "rows/s"), ("psi_rows_per_s", "rows/s")),
    "counting": (("spectrum_lines_per_s", "lines/s"), ("weyl_samples_per_s", "samples/s")),
    "verify": (("verify_runs_per_s", "runs/s"), ("verify_serial_runs_per_s", "runs/s")),
}


@dataclass
class Op:
    label: str
    slot: str | None  # "a", "b", or None for a probe
    call: Callable[[], object]  # the timed public call
    collect: Callable[[object], object]  # its output, read after the clock stops
    check: Callable[[object], list[str]]
    work: int = 0  # work units; for CLI ops set from the output by `count`
    count: Callable[[object], int] | None = None
    probe: bool = False
    params: dict = field(default_factory=dict)


class Program:
    """The program's modules, looked up by attribute at call time so that the
    traced run's rebinding is seen."""

    def __init__(self):
        import heis_spectra
        from heis_spectra import cli, group, invariants

        self.package, self.cli = heis_spectra, cli
        self.group, self.invariants = group, invariants


def _cli_op(prog: Program, workdir: str, name: str, argv: list[str], slot, check,
            params: dict, count=None, probe: bool = False) -> Op:
    """A CLI command with --out into workdir; its output is (exit code, file text)."""
    out = os.path.join(workdir, name)
    full = argv + ["--out", out]

    def call():
        if os.path.exists(out):
            os.remove(out)
        return prog.cli.main(full)

    def collect(rc):
        with open(out, encoding="utf-8") as fh:
            return rc, fh.read()

    return Op(" ".join(argv), slot, call, collect,
              lambda res: check(params, res[1]), count=count, probe=probe, params=params)


def _verify_op(prog: Program, suites: list[str], threads: int | None) -> Op:
    argv = ["verify"] + [a for s in suites for a in ("--suite", s)]
    if threads is not None:
        argv += ["--threads", str(threads)]
    buf = io.StringIO()

    def call():
        buf.seek(0)
        buf.truncate()
        with contextlib.redirect_stdout(buf):
            return prog.cli.main(argv)

    return Op(" ".join(argv), "a" if threads is None else "b", call,
              lambda rc: (rc, buf.getvalue()), lambda res: checks.check_verify(res[1]),
              work=1, params={"threads": threads})


# ---------------------------------------------------------------------------
# eigenfunctions


def _grid_op(prog, workdir, name, manifold, l, n, lam, rng, grid) -> Op:
    width = l if manifold == "nl" else 2 * l
    p = {"manifold": manifold, "l": l, "n": n, "lam": lam, "grid": grid,
         "a": rng.randrange(abs(n)), "b": rng.randrange(width),
         "alpha": round(rng.uniform(-1.0, 1.0), 6)}
    argv = ["eigenfunction", "--manifold", manifold, "--l", str(l), "--n", str(n),
            "--a", str(p["a"]), "--b", str(p["b"]), "--lam", str(lam),
            "--alpha", repr(p["alpha"]), "--grid", str(grid)]

    def check(params, text):
        return checks.check_grid(params, text, _evaluator(prog, params))

    op = _cli_op(prog, workdir, name, argv, "a", check, p)
    op.work = 4 * grid**3
    return op


def _evaluator(prog: Program, p: dict):
    """The eigenfunction off the grid, through the public library call the CLI makes."""
    h = prog.package
    lattice = (h.standard_rect if p["manifold"] == "nl" else h.scaled_square)(p["l"])
    idx = h.WBIndex(p["n"], p["a"], p["b"], lattice.covering_width)
    return lambda x, y, z: h.wb_eigenfunction(idx, p["lam"], lattice, h.PolarizedPoint(x, y, z))


def _invariant_op(prog, manifold, l, n, lam, rng, npoints, nfuncs=2) -> Op:
    """Random combinations of the invariant basis, at points and at their images."""
    pts = [(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0))
           for _ in range(npoints)]
    dim = (checks.dim_phi if manifold == "gamma-pi" else checks.dim_psi)(n, lam, l)
    weights = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]
               for _ in range(nfuncs)]
    p = {"manifold": manifold, "l": l, "n": n, "lam": lam, "dim": dim}
    h = prog.package

    def call():
        inv, grp = prog.invariants, prog.group
        spec = (h.gamma_pi if manifold == "gamma-pi" else h.gamma_pi_half)(l)
        solve = inv.phi_constraint_solve if manifold == "gamma-pi" else inv.psi_constraint_solve
        basis = solve(n, lam, l)
        if len(basis) != dim:
            raise ValueError(f"invariant basis of size {len(basis)}, expected {dim}")
        combos = [inv.CoefficientVector(n, l, sum(w * c.entries for w, c in zip(ws, basis)))
                  for ws in weights]
        xs = [h.PolarizedPoint(*x) for x in pts]
        ys = [grp.motion_apply(spec.generator, x) for x in xs]
        lattice = spec.base_lattice
        vals = np.array([[inv.eigenfunction_combination(c, lam, lattice, x) for x in xs]
                         for c in combos], dtype=complex)
        ivals = np.array([[inv.eigenfunction_combination(c, lam, lattice, y) for y in ys]
                          for c in combos], dtype=complex)
        return pts, [(y.p, y.q, y.s) for y in ys], vals, ivals

    return Op(f"{manifold} l={l} n={n} lam={lam}: {nfuncs} invariant functions at "
              f"{npoints} points and their images", "b", call, lambda res: res,
              lambda res: checks.check_invariant(p, res), work=2 * nfuncs * npoints, params=p)


def _eigenfunctions(prog, workdir, rng) -> list[Op]:
    ops = []
    # every (|n|, lam) cell once per manifold, each cell with its own width l;
    # the seed draws the sign of n, the residues a and b, and alpha
    for manifold in ("nl", "nprime"):
        for m in (1, 2, 3):
            for lam in (0, 3, 6):
                l = 1 + (m + lam // 3) % 3
                n = m * rng.choice((1, -1))
                ops.append(_grid_op(prog, workdir, f"grid-{manifold}-{m}-{lam}.csv", manifold,
                                    l, n, lam, rng, 4))
    # sector sizes N = 2l|n| of 4, 6, 8 and 12; the seed draws the sign of n, the
    # points and the combinations of the invariant basis
    for manifold, l, m, lam in (("gamma-pi", 1, 2, 1), ("gamma-pi", 3, 1, 2),
                                ("gamma-pi2", 1, 4, 0), ("gamma-pi2", 2, 3, 3)):
        ops.append(_invariant_op(prog, manifold, l, m * rng.choice((1, -1)), lam, rng, 6))
    # known fault: the Hermite recurrence overflows below its order guard and the
    # command writes nan rows with exit code 0
    p = {"manifold": "nl", "l": 1, "n": 1, "lam": 170, "grid": 1, "a": 0, "b": 0, "alpha": 0.0}
    ops.append(_cli_op(prog, workdir, "probe-nan.csv",
                       ["eigenfunction", "--manifold", "nl", "--n", "1", "--lam", "170",
                        "--grid", "1"], None, checks.check_grid, p, probe=True))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# dims-table


def _dims_table(prog, workdir, rng) -> list[Op]:
    ops = []
    # (l, largest |n|): sector sizes N = 2l|n| reach 72..128 for gamma-pi2 and
    # 160..256 for gamma-pi; each range is split in two halves of random sign
    plan = {"gamma-pi2": ((1, 36), (2, 24), (3, 18), (4, 16)),
            "gamma-pi": ((1, 80), (2, 56), (3, 40), (4, 32))}
    for manifold, sizes in plan.items():
        for l, top in sizes:
            for lo, hi in ((1, top // 2), (top // 2 + 1, top)):
                sign = rng.choice((1, -1))
                nmin, nmax = (lo, hi) if sign > 0 else (-hi, -lo)
                lmax = 3
                p = {"manifold": manifold, "l": l, "ns": list(range(nmin, nmax + 1)),
                     "lmax": lmax}
                argv = ["dims", "--manifold", manifold, "--l", str(l), "--nmin", str(nmin),
                        "--nmax", str(nmax), "--lmax", str(lmax)]
                op = _cli_op(prog, workdir, f"dims-{manifold}-{l}-{lo}.csv", argv,
                             "a" if manifold == "gamma-pi" else "b", checks.check_dims, p)
                op.work = (nmax - nmin + 1) * (lmax + 1)
                ops.append(op)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# counting


def _alpha(rng, magnitude: float) -> float:
    """+-magnitude: the count of lines, and so the work, is even in alpha."""
    return magnitude * rng.choice((1.0, -1.0))


# |alpha| per slot, the endpoints included; 0.99 < |alpha| < 1, where the Weyl
# constant is truncated, is covered by the fixed probe below
MAGNITUDES = (0.0, 0.3, 0.6, 0.9, 1.0, 0.15, 0.45, 0.75)


SPECTRUM_TMAX = {"nl": 2500.0, "nprime": 2500.0, "gamma-pi": 3000.0, "gamma-pi2": 3000.0}
WEYL_TMAX = {"nl": 3000.0, "nprime": 3000.0, "gamma-pi": 2000.0, "gamma-pi2": 3000.0}


def _counting(prog, workdir, rng) -> list[Op]:
    ops = []
    # width l, format, tmax, |alpha| and the sample count are fixed per slot; the
    # seed draws the sign of alpha and the order
    mags = iter(MAGNITUDES * 2)
    for manifold in ("nl", "nprime", "gamma-pi", "gamma-pi2"):
        for l, fmt in ((1, "json"), (2, "csv")):
            alpha, tmax = _alpha(rng, next(mags)), SPECTRUM_TMAX[manifold]
            p = {"manifold": manifold, "l": l, "alpha": alpha, "tmax": tmax, "format": fmt}
            argv = ["spectrum", "--manifold", manifold, "--l", str(l), "--alpha", repr(alpha),
                    "--tmax", repr(tmax), "--format", fmt]
            count = (lambda res: res[1].count("\n") - 1) if fmt == "csv" else \
                (lambda res: res[1].count('"value"'))
            ops.append(_cli_op(prog, workdir, f"spectrum-{manifold}.{fmt}", argv, "a",
                               checks.check_spectrum, p, count=count))
        for l in (1, 2):
            alpha, samples = _alpha(rng, next(mags)), 40
            tmin, tmax = math.pi / 2, WEYL_TMAX[manifold]
            p = {"manifold": manifold, "l": l, "alpha": alpha, "samples": samples,
                 "tmin": tmin, "tmax": tmax}
            argv = ["weyl", "--manifold", manifold, "--l", str(l), "--alpha", repr(alpha),
                    "--samples", str(samples), "--tmax", repr(tmax)]
            op = _cli_op(prog, workdir, f"weyl-{manifold}-{l}.csv", argv, "b", checks.check_weyl, p)
            op.work = samples
            ops.append(op)
    # known fault: the Weyl constant's quadrature is cut off at L = min(40/(1-|alpha|), 2000)
    # and the target column is 41% low at alpha = 0.999
    p = {"manifold": "gamma-pi2", "l": 1, "alpha": 0.999, "samples": 20,
         "tmin": math.pi / 2, "tmax": 100.0}
    ops.append(_cli_op(prog, workdir, "probe-weyl.csv",
                       ["weyl", "--manifold", "gamma-pi2", "--alpha", "0.999", "--tmax", "100"],
                       None, checks.check_weyl, p, probe=True))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# verify


def _verify(prog, workdir, rng) -> list[Op]:
    ops = []
    for threads in (None, 1) * 4:
        suites = list(checks.SUITES)
        rng.shuffle(suites)
        ops.append(_verify_op(prog, suites, threads))
    rng.shuffle(ops)
    return ops


_BUILDERS = {"eigenfunctions": _eigenfunctions, "dims-table": _dims_table,
             "counting": _counting, "verify": _verify}


def build(name: str, seed: int, prog: Program, workdir: str) -> list[Op]:
    """One round of the named workload, drawn from the seed."""
    return _BUILDERS[name](prog, workdir, random.Random(f"{name}:{seed}"))


def warmup(prog: Program, workdir: str) -> list[Op]:
    """Small fixed operations touching every layer, run before anything is timed."""
    rng = random.Random("warmup")
    ops = [
        _grid_op(prog, workdir, "warm-nl.csv", "nl", 1, 1, 1, rng, 2),
        _grid_op(prog, workdir, "warm-nprime.csv", "nprime", 1, -1, 0, rng, 2),
        _invariant_op(prog, "gamma-pi", 1, 2, 0, rng, 1),
        _invariant_op(prog, "gamma-pi2", 1, 4, 1, rng, 1),
        _verify_op(prog, list(checks.SUITES), None),
    ]
    for manifold in ("gamma-pi", "gamma-pi2"):
        ops.append(_cli_op(prog, workdir, f"warm-dims-{manifold}", [
            "dims", "--manifold", manifold, "--l", "1", "--nmax", "3", "--lmax", "1"], "a",
            checks.check_dims, {"manifold": manifold, "l": 1, "ns": [1, 2, 3], "lmax": 1}))
    for manifold in ("nl", "nprime", "gamma-pi", "gamma-pi2"):
        ops.append(_cli_op(prog, workdir, f"warm-spectrum-{manifold}", [
            "spectrum", "--manifold", manifold, "--tmax", "30"], "a", checks.check_spectrum,
            {"manifold": manifold, "l": 1, "alpha": 0.0, "tmax": 30.0, "format": "json"}))
        ops.append(_cli_op(prog, workdir, f"warm-weyl-{manifold}", [
            "weyl", "--manifold", manifold, "--samples", "4", "--tmax", "50"], "b",
            checks.check_weyl, {"manifold": manifold, "l": 1, "alpha": 0.0, "samples": 4,
                                "tmin": math.pi / 2, "tmax": 50.0}))
    return ops
