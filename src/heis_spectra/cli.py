"""Command-line front end writing spectra, eigenfunction grids, dimension
tables, Weyl-law diagnostics, and verification reports as deterministic files.

Exit codes: 0 success, 1 failed verification, 2 invalid selector or parameter,
3 output failure.  All numbers are printed with 17 significant digits so the
files round-trip bit for bit.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import sys

import numpy as np

from .group import (
    BieberbachSpec,
    LatticeSpec,
    gamma_pi,
    gamma_pi_half,
    scaled_square,
    standard_rect,
)
from .invariants import dims_columns
from .spectrum import MAX_SPECTRUM_LINES, enumerate_spectrum, oscillator_eigenvalue
from .verify import available_suites, run_suites
from .weil_brezin import WBIndex, _point_phase_error, _reach, wb_eigenfunction_grid
from .weyl import (
    _ratio_grid,
    counting_columns,
    default_tgrid,
    manifold_tag,
    volume,
    weyl_constant,
    weyl_ratio,
)

# the --manifold selectors and the quotient each one names
_MANIFOLDS = {"nl": standard_rect, "nprime": scaled_square, "gamma-pi": gamma_pi,
              "gamma-pi2": gamma_pi_half}


def _write_output(path: str | None, parts) -> None:
    """Write the parts of one text, an iterable of strings, one after the other:
    a large text need never be joined, and each part is dropped once written,
    before the next is asked for."""
    if path in (None, "-"):
        sys.stdout.writelines(parts)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


# Every table is written with %.17g for each float (17 significant digits
# round-trip) and %d for each integer, exact at any size.  No field holds a
# comma, a quote or a newline.
_JSON_HEAD = '{\n  "manifold": "%s",\n  "alpha": %.17g,\n  "tmax": %.17g,\n  "lines": '
# A spectrum row is four fields, the value (%.17g), the multiplicity (%d), and
# two fields of its kind, with literal pieces before, between and after them.
# Per kind, torus (0) then oscillator (1): the two fields, and in each format the
# pieces.  A JSON row starts with its separator from the row before.
_KIND_FIELDS = ((("mu", "%.17g"), ("nu", "%.17g")), (("n", "%d"), ("lam", "%d")))
_SPECTRUM_PIECES = {
    "csv": (("", ",", ",torus,,,", ",", "\n"),
            ("", ",", ",oscillator,", ",", ",,\n")),
    "json": ((',\n    {"value": ', ', "multiplicity": ', ', "origin": {"kind": "torus", "mu": ',
              ', "nu": ', "}}"),
             (',\n    {"value": ', ', "multiplicity": ',
              ', "origin": {"kind": "oscillator", "n": ', ', "lambda": ', "}}")),
}
_ROWS_AT_ONCE = 1 << 16


def _text_column(values: np.ndarray, fmt: str) -> np.ndarray:
    """values as an object array of strings, fmt filled in once per distinct
    value and the one string shared by its rows.  Floats are told apart by their
    bits, so 0.0 and -0.0, which fmt writes as 0 and -0, keep their own strings."""
    keys = values.view(np.int64) if values.dtype.kind == "f" else values
    distinct, index = np.unique(keys, return_inverse=True)
    texts = np.empty(distinct.size, dtype=object)
    texts[:] = [fmt % value for value in distinct.view(values.dtype).tolist()]
    return texts[index]


def _spectrum_block(part, pieces, first: bool) -> str:
    """The text of the spectrum lines part, from one join of a (rows x 9) object
    array: each row's pieces in the even columns, its fields as text columns in
    the odd ones.  The file's first row has no separator before it."""
    table = np.empty((part.size, 9), dtype=object)
    table[:, 1] = _text_column(part["value"], "%.17g")
    table[:, 3] = _text_column(part["multiplicity"], "%d")
    kinds = part["kind"]
    for kind, fields in enumerate(_KIND_FIELDS):
        rows = kinds == kind
        table[rows, 0::2] = pieces[kind]
        for column, (name, fmt) in zip((5, 7), fields):
            table[rows, column] = _text_column(part[name][rows], fmt)
    if first:
        table[0, 0] = table[0, 0].lstrip(",")
    return "".join(table.ravel().tolist())


def _spectrum_parts(fmt: str, tag: str, alpha: float, tmax: float, lines):
    """The spectrum's file as a generator of parts: its head, then the text of
    each block of _ROWS_AT_ONCE lines, made when it is asked for, then its tail.
    The line of value 0, the zero mode, sorts first and is implicit."""
    lines = lines[np.searchsorted(lines["value"], 0.0, side="right"):]
    if fmt == "csv":
        yield "value,multiplicity,kind,n,lambda,mu,nu\n"
    else:
        yield _JSON_HEAD % (tag, alpha, tmax)
        if not lines.size:
            yield "[]\n}\n"
            return
        yield "["
    for start in range(0, lines.size, _ROWS_AT_ONCE):
        yield _spectrum_block(lines[start:start + _ROWS_AT_ONCE], _SPECTRUM_PIECES[fmt],
                              start == 0)
    if fmt == "json":
        yield "\n  ]\n}\n"


def _check_rows(rows: int) -> None:  # before any row is computed
    if rows > MAX_SPECTRUM_LINES:
        raise ValueError(f"the output would have {rows} rows, above the limit of "
                         f"{MAX_SPECTRUM_LINES}")


def cmd_spectrum(args) -> int:
    manifold = _MANIFOLDS[args.manifold](args.l)
    # every refusal comes from enumerate_spectrum, before the file is opened; then
    # each block's text is written as it is made
    lines = enumerate_spectrum(manifold, args.alpha, args.tmax)
    _write_output(args.out, _spectrum_parts(args.format, manifold_tag(manifold), args.alpha,
                                            args.tmax, lines))
    return 0


# eigenfunction refuses a grid past this many Hermite recurrence steps: the
# recurrence runs to order lam once per window length in each block of p-rows,
# over all the rows of that length, so at most once for each of the 2g p-rows.
# The largest allowed grid, --grid 1 at lam = 5e5 and n = 1, takes about 4 s
# (2-core x86 box; at --tol 1e-12 the phase rule of _phase_error takes lam up to
# about 1.7e5 at n = 1).
MAX_HERMITE_STEPS = 10**6


def _phase_error(n: int, lam: int, width: int, tol: float) -> float:
    """A bound on the error the rounding of the phases puts into a difference of
    two grid values, relative to the largest.

    eigenfunction refuses an n where this passes --tol.  The series takes
    e^{2 pi i n y} at y = s, below 2, and at y = (k + off) q on the rectangular
    cover of width L, where q < L and |k + off| < 3 + reach for the window's
    reach past the turning point (`_reach`).  The float 2 pi n y is three
    roundings, off by up to 1.5 eps |2 pi n y|, and a difference such as
    f(s + 1) - f(s) carries two of them.  So at --tol 1e-12 the grid of nl, l = 1, lam = 0 takes
    |n| <= 69, and --n 10**300 is refused.
    """
    reach = _reach(lam, math.sqrt(2.0 * math.pi * abs(n)), 0.0, tol)
    return _point_phase_error(n, 2.0, width, 2.0, reach)


def cmd_eigenfunction(args) -> int:
    manifold = _MANIFOLDS[args.manifold](args.l)
    if not isinstance(manifold, LatticeSpec):
        raise ValueError("eigenfunction grids are defined on the lattice quotients "
                         "(selectors nl, nprime)")
    if args.grid < 1:
        raise ValueError("grid must be at least 1")
    for name, value in (("n", args.n), ("lam", args.lam)):
        if abs(value) > sys.float_info.max:  # an exact int-float comparison
            raise ValueError(f"--{name} is too large: the eigenvalue and the series take "
                             f"it as a float, and it passes the largest, about 1.8e308")
    _check_rows(4 * args.grid**3)
    if 2 * args.grid * args.lam > MAX_HERMITE_STEPS:
        raise ValueError(f"the grid would take 2 grid lam = {2 * args.grid * args.lam} Hermite "
                         f"recurrence steps, above the limit of {MAX_HERMITE_STEPS}")
    if args.n and args.tol > 0 and _phase_error(args.n, args.lam, manifold.covering_width,
                                                args.tol) > args.tol:
        raise ValueError(f"|n| = {abs(args.n):.6g} is too large for --tol {args.tol!r}: the "
                         f"rounding of the phases e^(2 pi i n y) may pass it")
    idx = WBIndex(args.n, args.a, args.b, manifold.covering_width)
    value = oscillator_eigenvalue(args.n, args.lam, args.alpha)
    sp, sq = manifold.steps
    g = args.grid
    # p and s cover two periods so periodicity is visible inside one file
    ps = [i * sp / g for i in range(2 * g)]
    qs = [k * sq / g for k in range(g)]
    ss = [m / g for m in range(2 * g)]
    # every row is made before the file is opened, so a refused row leaves none
    parts = ["# eigenfunction n=%d a=%d b=%d lambda=%d lattice=%s\n"
             "# eigenvalue=%.17g alpha=%.17g tol=%.17g\np,q,s,re,im\n"
             % (args.n, args.a, args.b, args.lam, manifold_tag(manifold),
                value, args.alpha, args.tol)]
    rows = wb_eigenfunction_grid(idx, args.lam, manifold, ps, qs, ss, args.tol)
    # every row repeats the same (q, s) fields: one template per row, with p and
    # them baked in, takes the row's values interleaved, re and im of each in turn
    qs_fields = ["%.17g,%.17g,%%.17g,%%.17g" % (q, s) for q in qs for s in ss]
    for p, vals in zip(ps, rows):
        head = "%.17g," % p
        row = head + ("\n" + head).join(qs_fields) + "\n"
        parts.append(row % tuple(vals.view(float).ravel().tolist()))
    _write_output(args.out, parts)
    return 0


# dims refuses sectors of size N = 2l|n| above this: up to it every N, and every
# character sum N + chi-terms (sector_multiplicities), is exact in float64, while
# past 2^53 a multiplicity could round to a wrong integer without an error.  The
# table is built as columns, in blocks of rows, each block by one call
# (invariants.dims_columns): the closed forms in Python ints, the characters as one
# (rows x 4) array and one product, and the oracle column by one rank rule.  The
# half-turn is the quarter-turn squared, so one table of phases serves both: a
# row's singular values are four runs in closed form (the multiplicities of the
# eigenvalues +-1 of the quarter-turn's two orbit blocks), with no N x N matrix,
# SVD or eigendecomposition, so a row costs O(1) time and memory at any N.  A
# large N at a small tol is refused by the rank rule's floor sigma_max N eps.
MAX_SECTOR_SIZE = 2**52

_DIMS_ROW = "%d,%d,%d,%d,%d,%s\n"
# rows per block of a dims table: a block's columns and row strings take about
# 0.3 kB a row at the peak, so 2.5 MB, while its text keeps about 26 bytes a row
_DIMS_ROWS_AT_ONCE = 1 << 13


def cmd_dims(args) -> int:
    manifold = _MANIFOLDS[args.manifold](args.l)
    if not isinstance(manifold, BieberbachSpec):
        raise ValueError("dimension tables are defined for the crystallographic "
                         "quotients (selectors gamma-pi, gamma-pi2)")
    if args.n is not None:
        if args.n == 0:
            raise ValueError("n must be nonzero")
        nmin = nmax = args.n
    else:
        if args.nmin > args.nmax:
            raise ValueError("nmin must not exceed nmax")
        nmin, nmax = args.nmin, args.nmax
    if args.lam is not None and args.lam < 0:
        raise ValueError("lambda must be nonnegative")
    # the sizes come from the ends of the ranges, before any range is listed
    size = 2 * args.l * max(abs(nmin), abs(nmax))
    if size > MAX_SECTOR_SIZE:
        raise ValueError(f"the sector size N = 2l|n| = {size} is past 2^52 = {MAX_SECTOR_SIZE}: "
                         f"beyond it N and the character sums are not exact in float64")
    levels = 1 if args.lam is not None else max(args.lmax + 1, 0)
    _check_rows((nmax - nmin + 1 - (nmin <= 0 <= nmax)) * levels)
    ns = np.arange(nmin, nmax + 1)
    ns = ns[ns != 0]
    # a single level past int64 is kept exact, in an object array
    lams = np.arange(levels) if args.lam is None else np.array([args.lam])
    power = 4 // manifold.index  # the generator is psi^power: 2 for the half-turn
    blocks = ["n,lambda,closed,oracle,character,agree\n"]
    # n-major rows, a block at a time, so only one block's row strings are held,
    # and the blocks are written one after the other, never joined
    for start in range(0, ns.size * levels, _DIMS_ROWS_AT_ONCE):
        rows = np.arange(start, min(start + _DIMS_ROWS_AT_ONCE, ns.size * levels))
        n_col, lam_col = ns[rows // levels].tolist(), lams[rows % levels].tolist()
        closed, oracles, chars = dims_columns(power, n_col, lam_col, args.l, args.tol)
        blocks.append("".join([_DIMS_ROW % (n, lam, c, o, h, "true" if c == o == h else "false")
                               for n, lam, c, o, h in zip(n_col, lam_col, closed, oracles, chars)]))
    _write_output(args.out, blocks)
    return 0


# per quotient kind: the weyl table's header and its row template
_WEYL_TABLES = {
    "lattice": ("t,oscillator,torus,count,ratio,target,deviation\n",
                "%.17g,%d,%d,%d,%.17g,%.17g,%.17g\n"),
    "gamma-pi": ("t,oscillator,torus,count,ratio,target,deviation,cover_half,half_diff,"
                 "parity_diff\n", "%.17g,%d,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n"),
    "gamma-pi-half": ("t,oscillator,torus,count,ratio,target,deviation,quarter_ratio,"
                      "pair_bound\n", "%.17g,%d,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g\n"),
}


def cmd_weyl(args) -> int:
    manifold = _MANIFOLDS[args.manifold](args.l)
    if args.samples < 2:
        raise ValueError("need at least two samples")
    _check_rows(args.samples)
    if not 0 < args.tmin < args.tmax:
        raise ValueError("need 0 < tmin < tmax")
    tgrid = _ratio_grid(default_tgrid(args.samples, args.tmin, args.tmax))
    # one pass over the oscillator levels gives every column
    series, cover, parity, pairs = counting_columns(manifold, args.alpha, tgrid)
    target = weyl_constant(args.alpha).value * volume(manifold)
    kind = manifold.kind if isinstance(manifold, BieberbachSpec) else "lattice"
    header, row = _WEYL_TABLES[kind]
    buf = io.StringIO()
    buf.write("# weyl manifold=%s alpha=%.17g target=%.17g\n%s"
              % (series.manifold, args.alpha, target, header))
    for i, (t, count) in enumerate(zip(series.t, series.counts)):
        ratio, deviation = weyl_ratio(count, t, target)
        fields = (t, series.oscillator[i], series.torus[i], count, ratio, target, deviation)
        if kind == "gamma-pi":
            half = cover[i] / 2.0
            pc = parity[i]
            fields += (half, abs(series.oscillator[i] - half), abs(pc.even_count - pc.odd_count))
        elif kind == "gamma-pi-half":
            ones, mults = pairs[i]
            fields += (series.oscillator[i] / cover[i] if cover[i] else 0.0,
                       ones / mults if mults else 0.0)
        buf.write(row % fields)
    _write_output(args.out, [buf.getvalue()])
    return 0


def cmd_verify(args) -> int:
    names = args.suite if args.suite else None
    results = run_suites(names)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(f"suite {r.name}: {status} ({r.detail})\n")
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heis-spectra",
        description="Spectra, eigenfunctions, invariant dimensions, and Weyl-law "
                    "diagnostics for Heisenberg quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--manifold", required=True, choices=_MANIFOLDS,
                       help="quotient family")
        p.add_argument("--l", type=int, default=1, help="lattice width parameter (default 1)")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("spectrum", help="enumerate the positive spectrum")
    add_common(p)
    p.add_argument("--alpha", type=float, default=0.0, help="operator parameter (default 0)")
    p.add_argument("--tmax", type=float, required=True, help="upper eigenvalue bound")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("eigenfunction", help="sample one eigenfunction on a grid")
    add_common(p)
    p.add_argument("--n", type=int, required=True, help="central frequency (nonzero)")
    p.add_argument("--a", type=int, default=0, help="frequency shift numerator (default 0)")
    p.add_argument("--b", type=int, default=0, help="width shift numerator (default 0)")
    p.add_argument("--lam", type=int, default=0, help="oscillator level (default 0)")
    p.add_argument("--alpha", type=float, default=0.0,
                   help="operator parameter recorded in the header (default 0)")
    p.add_argument("--grid", type=int, default=4, help="samples per unit step (default 4)")
    p.add_argument("--tol", type=float, default=1e-12,
                   help="series tail bound relative to the seed's largest value (default 1e-12)")

    p = sub.add_parser("dims", help="invariant-subspace dimension table")
    add_common(p)
    p.add_argument("--n", type=int, default=None, help="single frequency (overrides the range)")
    p.add_argument("--lam", type=int, default=None, help="single level (overrides the range)")
    p.add_argument("--nmin", type=int, default=1, help="range start (default 1)")
    p.add_argument("--nmax", type=int, default=4, help="range end (default 4)")
    p.add_argument("--lmax", type=int, default=3, help="level range end (default 3)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="rank threshold on the oracles' singular values (default 1e-8)")

    p = sub.add_parser("weyl", help="eigenvalue counting diagnostics")
    add_common(p)
    p.add_argument("--alpha", type=float, default=0.0, help="operator parameter (default 0)")
    p.add_argument("--samples", type=int, default=20, help="grid size (default 20)")
    p.add_argument("--tmin", type=float, default=1.5707963267948966,
                   help="first sample (default pi/2)")
    p.add_argument("--tmax", type=float, default=1e3, help="last sample (default 1e3)")

    p = sub.add_parser("verify", help="run the library self-check suites")
    p.add_argument("--suite", action="append", choices=available_suites(),
                   help="run only the named suite (repeatable)")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted and ignored: the suites run one after another")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up by name on each call, so a rebound cmd_* function takes effect
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
