"""Command-line front end writing spectra, eigenfunction grids, dimension
tables, Weyl-law diagnostics, and verification reports as deterministic files.

Exit codes: 0 success, 1 failed verification, 2 invalid selector or parameter,
3 output failure.  All numbers are printed with 17 significant digits so the
files round-trip bit for bit.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys

from .group import (
    BieberbachSpec,
    LatticeSpec,
    PolarizedPoint,
    gamma_pi,
    gamma_pi_half,
    scaled_square,
    standard_rect,
)
from .invariants import (
    IllConditionedError,
    character_table,
    dim_from_characters,
    dim_phi_invariant,
    dim_psi_invariant,
    fixed_subspace_dim,
    phi_pullback_matrix,
    psi_pullback_matrix,
)
from .spectrum import MAX_SPECTRUM_LINES, OscillatorOrigin, enumerate_spectrum, oscillator_eigenvalue
from .verify import available_suites, run_suites
from .weil_brezin import WBIndex, wb_eigenfunction_values
from .weyl import _ratio_grid, counting_columns, default_tgrid, manifold_tag, volume, weyl_constant

# the --manifold selectors and the quotient each one names
_MANIFOLDS = {"nl": standard_rect, "nprime": scaled_square, "gamma-pi": gamma_pi,
              "gamma-pi2": gamma_pi_half}


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _g(x: float) -> str:
    return format(float(x), ".17g")


def _write_output(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(3, f"cannot write {path}: {exc}") from exc


def _spectral_lines(manifold, alpha: float, tmax: float):
    # files list the positive spectrum; the zero mode is implicit
    return [ln for ln in enumerate_spectrum(manifold, alpha, tmax) if ln.value > 0]


def _origin_fields(line):
    if isinstance(line.origin, OscillatorOrigin):
        return "oscillator", line.origin.n, line.origin.lam, None, None
    rep = line.origin.points[0]
    return "torus", None, None, rep.mu, rep.nu


def _spectrum_json(tag: str, alpha: float, tmax: float, lines) -> str:
    rows = []
    for ln in lines:
        kind, n, lam, mu, nu = _origin_fields(ln)
        if kind == "oscillator":
            origin = f'{{"kind": "oscillator", "n": {n}, "lambda": {lam}}}'
        else:
            origin = f'{{"kind": "torus", "mu": {_g(mu)}, "nu": {_g(nu)}}}'
        rows.append(f'    {{"value": {_g(ln.value)}, "multiplicity": {ln.multiplicity}, '
                    f'"origin": {origin}}}')
    body = "[]" if not rows else "[\n" + ",\n".join(rows) + "\n  ]"
    return (
        "{\n"
        f'  "manifold": "{tag}",\n'
        f'  "alpha": {_g(alpha)},\n'
        f'  "tmax": {_g(tmax)},\n'
        f'  "lines": {body}\n'
        "}\n"
    )


def _spectrum_csv(lines) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["value", "multiplicity", "kind", "n", "lambda", "mu", "nu"])
    for ln in lines:
        kind, n, lam, mu, nu = _origin_fields(ln)
        writer.writerow([
            _g(ln.value), ln.multiplicity, kind,
            "" if n is None else n, "" if lam is None else lam,
            "" if mu is None else _g(mu), "" if nu is None else _g(nu),
        ])
    return buf.getvalue()


def _check_rows(rows: int) -> None:  # before any row is computed
    if rows > MAX_SPECTRUM_LINES:
        raise _CliError(2, f"the output would have {rows} rows, above the limit of "
                           f"{MAX_SPECTRUM_LINES}")


def cmd_spectrum(args) -> int:
    manifold = _MANIFOLDS[args.manifold](args.l)
    lines = _spectral_lines(manifold, args.alpha, args.tmax)
    tag = manifold_tag(manifold)
    if args.format == "json":
        text = _spectrum_json(tag, args.alpha, args.tmax, lines)
    else:
        text = _spectrum_csv(lines)
    _write_output(args.out, text)
    return 0


def cmd_eigenfunction(args) -> int:
    manifold = _MANIFOLDS[args.manifold](args.l)
    if not isinstance(manifold, LatticeSpec):
        raise _CliError(2, "eigenfunction grids are defined on the lattice quotients "
                           "(selectors nl, nprime)")
    if args.grid < 1:
        raise _CliError(2, "grid must be at least 1")
    _check_rows(4 * args.grid**3)
    idx = WBIndex(args.n, args.a, args.b, manifold.covering_width)
    value = oscillator_eigenvalue(args.n, args.lam, args.alpha)
    sp, sq = manifold.steps
    g = args.grid
    buf = io.StringIO()
    buf.write(f"# eigenfunction n={args.n} a={args.a} b={args.b} lambda={args.lam} "
              f"lattice={manifold_tag(manifold)}\n")
    buf.write(f"# eigenvalue={_g(value)} alpha={_g(args.alpha)} tol={_g(args.tol)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["p", "q", "s", "re", "im"])
    # p and s cover two periods so periodicity is visible inside one file;
    # one call per row in p, so the row shares one series window
    for i in range(2 * g):
        p = i * sp / g
        row = [PolarizedPoint(p, k * sq / g, m / g) for k in range(g) for m in range(2 * g)]
        vals = wb_eigenfunction_values(idx, args.lam, manifold, row, args.tol)
        for pt, val in zip(row, vals):
            writer.writerow([_g(pt.p), _g(pt.q), _g(pt.s), _g(val.real), _g(val.imag)])
    _write_output(args.out, buf.getvalue())
    return 0


def _dims_row(kind: str, n: int, lam: int, l: int, tol: float):
    if kind == "gamma-pi":
        closed = dim_phi_invariant(n, lam, l)
        matrix = phi_pullback_matrix(n, lam, l)
        trace = (matrix.matrix.trace().real + matrix.dim) / 2.0
        char = int(round(trace))
        if abs(trace - char) > 1e-9:
            raise _CliError(2, "character average is not integral")
    else:
        closed = dim_psi_invariant(n, lam, l)
        matrix = psi_pullback_matrix(n, lam, l)
        char = dim_from_characters(character_table(n, lam, l))
    oracle = fixed_subspace_dim(matrix, tol)
    agree = closed == oracle == char
    return closed, oracle, char, agree


# dims refuses sectors of size N = 2l|n| above this: the matrix oracle holds about
# 48 N^2 bytes (0.8 GB at the limit).  The half-turn oracle takes the SVDs of the
# 1x1 and 2x2 blocks of I - M, so only a quarter-turn sector costs O(N^3).
MAX_ORACLE_DIM = 4096


def cmd_dims(args) -> int:
    manifold = _MANIFOLDS[args.manifold](args.l)
    if not isinstance(manifold, BieberbachSpec):
        raise _CliError(2, "dimension tables are defined for the crystallographic "
                           "quotients (selectors gamma-pi, gamma-pi2)")
    if args.n is not None:
        if args.n == 0:
            raise _CliError(2, "n must be nonzero")
        ns = [args.n]
    else:
        if args.nmin > args.nmax:
            raise _CliError(2, "nmin must not exceed nmax")
        ns = [n for n in range(args.nmin, args.nmax + 1) if n != 0]
    lams = [args.lam] if args.lam is not None else list(range(args.lmax + 1))
    if any(lam < 0 for lam in lams):
        raise _CliError(2, "lambda must be nonnegative")
    size = 2 * args.l * max((abs(n) for n in ns), default=0)
    if size > MAX_ORACLE_DIM:
        raise _CliError(2, f"the matrix oracle would have size N = 2l|n| = {size}, "
                           f"above the limit of {MAX_ORACLE_DIM}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "lambda", "closed", "oracle", "character", "agree"])
    try:
        for n in ns:
            for lam in lams:
                closed, oracle, char, agree = _dims_row(manifold.kind, n, lam, args.l, args.tol)
                writer.writerow([n, lam, closed, oracle, char, "true" if agree else "false"])
    except (ValueError, IllConditionedError) as exc:
        raise _CliError(2, f"{exc} (row n = {n}, lambda = {lam})") from exc
    _write_output(args.out, buf.getvalue())
    return 0


def cmd_weyl(args) -> int:
    manifold = _MANIFOLDS[args.manifold](args.l)
    if args.samples < 2:
        raise _CliError(2, "need at least two samples")
    _check_rows(args.samples)
    if not 0 < args.tmin < args.tmax:
        raise _CliError(2, "need 0 < tmin < tmax")
    tgrid = _ratio_grid(default_tgrid(args.samples, args.tmin, args.tmax))
    # one pass over the oscillator levels gives every column
    series, cover, parity, pairs = counting_columns(manifold, args.alpha, tgrid)
    target = weyl_constant(args.alpha).value * volume(manifold)
    buf = io.StringIO()
    buf.write(f"# weyl manifold={series.manifold} alpha={_g(args.alpha)} "
              f"target={_g(target)}\n")
    header = ["t", "oscillator", "torus", "count", "ratio", "target", "deviation"]
    extra = None
    if isinstance(manifold, BieberbachSpec) and manifold.kind == "gamma-pi":
        header += ["cover_half", "half_diff", "parity_diff"]
        extra = "half"
    elif isinstance(manifold, BieberbachSpec):
        header += ["quarter_ratio", "pair_bound"]
        extra = "quarter"
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for i, (t, count) in enumerate(zip(series.t, series.counts)):
        row = [_g(t), series.oscillator[i], series.torus[i], count,
               _g(count / t**2), _g(target), _g(abs(count / t**2 - target) / target)]
        if extra == "half":
            half = cover[i] / 2.0
            pc = parity[i]
            row += [_g(half), _g(abs(series.oscillator[i] - half)),
                    abs(pc.even_count - pc.odd_count)]
        elif extra == "quarter":
            ones, mults = pairs[i]
            row += [_g(series.oscillator[i] / cover[i] if cover[i] else 0.0),
                    _g(ones / mults if mults else 0.0)]
        writer.writerow(row)
    _write_output(args.out, buf.getvalue())
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
                   help="rank threshold for the matrix oracle (default 1e-8)")

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
    except _CliError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
