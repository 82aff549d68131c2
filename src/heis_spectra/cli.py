"""Command-line front end writing spectra, eigenfunction grids, dimension
tables, Weyl-law diagnostics, and verification reports as deterministic files.

Exit codes: 0 success, 1 failed verification, 2 invalid selector or parameter,
3 output failure.  All numbers are printed with 17 significant digits so the
files round-trip bit for bit.

The arguments are read in one pass by one declarative option table per command
(`build_parser`, read by `parse_args`): it gives each option's type, default,
choices, whether it is required or repeatable, and the --help text.  An option
is --opt value, --opt=value or a unique prefix of --opt; a refused argv exits
2 with the usage and the reason on stderr, before any work is done.
"""

from __future__ import annotations

import collections
import functools
import io
import itertools
import math
import sys
from types import SimpleNamespace

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
from .weil_brezin import WBIndex, wb_eigenfunction_grid
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
# recurrence runs to order lam once, over the seeds of every row's window, which
# rows i and i + g share, so 2 grid lam bounds it from above.  The largest allowed
# grid, --grid 1 at lam = 5e5 and n = 1, takes about 3 s (2-core x86 box).
MAX_HERMITE_STEPS = 10**6


def _grid_block(heads, fields, values) -> str:
    """The text of a block of grid rows, of values (rows, q, s): for each p its head
    "p," and for each (q, s) its fields "q,s,", then the value's re and im from one
    text column, so each distinct float is formatted once."""
    texts = _text_column(values.view(float).ravel(), "%.17g")
    table = np.empty((texts.size // 2, 6), dtype=object)
    table[:, 0] = np.repeat(heads, fields.size)
    table[:, 1] = np.tile(fields, heads.size)
    table[:, 2], table[:, 3] = texts[0::2], ","
    table[:, 4], table[:, 5] = texts[1::2], "\n"
    return "".join(table.ravel().tolist())


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
    idx = WBIndex(args.n, args.a, args.b, manifold.covering_width)
    value = oscillator_eigenvalue(args.n, args.lam, args.alpha)
    sp, sq = manifold.steps
    g = args.grid
    # every row is made before the file is opened, so a refused row leaves none
    parts = ["# eigenfunction n=%d a=%d b=%d lambda=%d lattice=%s\n"
             "# eigenvalue=%.17g alpha=%.17g tol=%.17g\np,q,s,re,im\n"
             % (args.n, args.a, args.b, args.lam, manifold_tag(manifold),
                value, args.alpha, args.tol)]
    rows = wb_eigenfunction_grid(idx, args.lam, manifold, g, args.tol)
    # p and s cover two periods so periodicity is visible inside one file; the
    # (q, s) fields are the same in every row, and are written once
    heads, qs, ss = (np.array(["%.17g," % (i * step / g) for i in range(count)], dtype=object)
                     for step, count in ((sp, 2 * g), (sq, g), (1.0, 2 * g)))
    fields = np.add.outer(qs, ss).ravel()
    size = max(1, _ROWS_AT_ONCE // fields.size)
    for first in range(0, 2 * g, size):
        block = np.array(list(itertools.islice(rows, size)))
        parts.append(_grid_block(heads[first:first + len(block)], fields, block))
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


# One option of a command: --name VALUE, --name=VALUE, or a prefix of --name that
# no other option of the command shares, sets args.name to kind(VALUE), which
# must be one of choices when there are any.  A repeatable option collects its
# values in a list.  kind None marks -h/--help, which takes no value.
Option = collections.namedtuple("Option", "name kind default help choices required repeat",
                                defaults=(str, None, "", (), False, False))
# A command's help line and options, with each spelling of an option (the Option,
# or the message refusing an ambiguous prefix) and the defaults derived from them
Command = collections.namedtuple("Command", "help options spellings defaults")

_HELP = Option("help", None, help="show this help and exit")


def _spellings(options) -> dict:
    """Every token that names an option: -h, each --name, and each prefix of a
    --name shared with no other option; a shared prefix maps to the message that
    refuses it.  An exact name wins over a longer name it begins (--l, --lam)."""
    matches = {}
    for option in options:
        name = "--" + option.name
        for end in range(3, len(name) + 1):
            matches.setdefault(name[:end], []).append(option)
    spellings = {token: found[0] if len(found) == 1 else
                 f"ambiguous option: {token} could match "
                 + ", ".join("--" + option.name for option in found)
                 for token, found in matches.items()}
    spellings.update({"--" + option.name: option for option in options})
    spellings["-h"] = _HELP
    return spellings


@functools.cache
def build_parser() -> dict[str, Command]:
    """The option table, one Command per command name: its help line and its
    options, which give the types, defaults, choices, required options and the
    help text, with the spellings and defaults derived from them."""
    common = (Option("manifold", choices=tuple(_MANIFOLDS), required=True,
                     help="quotient family"),
              Option("l", int, 1, "lattice width parameter"),
              Option("out", help="output path (default stdout)"))
    table = {
        "spectrum": ("enumerate the positive spectrum", common + (
            Option("alpha", float, 0.0, "operator parameter"),
            Option("tmax", float, required=True, help="upper eigenvalue bound"),
            Option("format", default="json", choices=("json", "csv"), help="file format"))),
        "eigenfunction": ("sample one eigenfunction on a grid", common + (
            Option("n", int, required=True, help="central frequency (nonzero)"),
            Option("a", int, 0, "frequency shift numerator"),
            Option("b", int, 0, "width shift numerator"),
            Option("lam", int, 0, "oscillator level"),
            Option("alpha", float, 0.0, "operator parameter recorded in the header"),
            Option("grid", int, 4, "samples per unit step"),
            Option("tol", float, 1e-12,
                   "series tail bound relative to the seed's largest value"))),
        "dims": ("invariant-subspace dimension table", common + (
            Option("n", int, help="single frequency (overrides the range)"),
            Option("lam", int, help="single level (overrides the range)"),
            Option("nmin", int, 1, "range start"),
            Option("nmax", int, 4, "range end"),
            Option("lmax", int, 3, "level range end"),
            Option("tol", float, 1e-8, "rank threshold on the oracles' singular values"))),
        "weyl": ("eigenvalue counting diagnostics", common + (
            Option("alpha", float, 0.0, "operator parameter"),
            Option("samples", int, 20, "grid size"),
            Option("tmin", float, math.pi / 2, "first sample"),
            Option("tmax", float, 1e3, "last sample"))),
        # --threads is kept because callers pass it (the benchmark's serial verify
        # rate passes --threads 1) and an unknown option is refused
        "verify": ("run the library self-check suites", (
            Option("suite", choices=tuple(available_suites()), repeat=True,
                   help="run only the named suite (repeatable; default all)"),
            Option("threads", int,
                   help="accepted and ignored: the suites run one after another"))),
    }
    commands = {}
    for name, (text, options) in table.items():
        options = (_HELP,) + options
        commands[name] = Command(text, options, _spellings(options),
                                 {option.name: option.default for option in options[1:]})
    return commands


_PROG = "heis-spectra"
_DESCRIPTION = ("Spectra, eigenfunctions, invariant dimensions, and Weyl-law diagnostics "
                "for Heisenberg quotients.")


def _metavar(option: Option) -> str:
    return "{%s}" % ",".join(option.choices) if option.choices else option.name.upper()


def _usage(name: str | None) -> str:
    commands = build_parser()
    if name is None:
        return "usage: %s {%s} ..." % (_PROG, ",".join(commands))
    words = ["[-h]"]
    for option in commands[name].options[1:]:
        word = f"--{option.name} {_metavar(option)}"
        words.append(word if option.required else f"[{word}]")
    return f"usage: {_PROG} {name} " + " ".join(words)


def _help(name: str | None) -> str:
    """The --help text: the usage, then each command, or each option of the command
    with its default."""
    if name is None:
        rows = [(command, entry.help) for command, entry in build_parser().items()]
        head = f"{_DESCRIPTION}\n\ncommands:"
        tail = f"\nRun '{_PROG} COMMAND -h' for the options of a command.\n"
    else:
        command = build_parser()[name]
        rows = [("-h, --help", _HELP.help)]
        for option in command.options[1:]:
            text = option.help
            if option.required:
                text += " (required)"
            elif option.default is not None:
                text += f" (default {option.default})"
            rows.append((f"--{option.name} {_metavar(option)}", text))
        head, tail = f"{command.help}\n\noptions:", ""
    lines = [_usage(name), "", head]
    for spec, text in rows:
        lines.append(f"  {spec:<22}{text}" if len(spec) < 21 else f"  {spec}\n{'':24}{text}")
    return "\n".join(lines) + "\n" + tail


def _refuse(name: str | None, message: str):
    """Refuse an argv: the usage and the message on stderr, and SystemExit(2)."""
    where = _PROG if name is None else f"{_PROG} {name}"
    sys.stderr.write(f"{_usage(name)}\n{where}: error: {message}\n")
    raise SystemExit(2)


def _read(name: str, option: Option, text: str):
    try:
        value = option.kind(text)
    except ValueError:
        _refuse(name, f"argument --{option.name}: invalid {option.kind.__name__} value: "
                      f"{text!r}")
    if option.choices and value not in option.choices:
        _refuse(name, f"argument --{option.name}: invalid choice: {text!r} (choose from "
                      f"{', '.join(option.choices)})")
    return value


def _show_help(name: str | None, later, spellings: dict):
    """Print the help and exit 0, unless an option after -h is ambiguous: that is
    refused wherever it stands."""
    for token in later:
        if token == "--":
            break
        found = spellings.get(token.partition("=")[0])
        if isinstance(found, str):
            _refuse(name, found)
    sys.stdout.write(_help(name))
    raise SystemExit(0)


def parse_args(argv) -> SimpleNamespace:
    """The command and its options' values from one pass over argv, by the option
    table (`build_parser`).

    argv[0] names the command.  An option's value is the rest of its token after
    "=", or else the next token, unless that starts with "--" or is -h: so
    --alpha -1e-3 and --out - are values, and --l --n is a missing value.  A
    token after "--", and any token that names no option, is refused, as are a
    bad value and a missing required option: SystemExit(2), with the usage and
    the reason on stderr.  -h/--help prints the help and exits 0.
    """
    commands = build_parser()
    if not argv:
        _refuse(None, "a command is required")
    name = argv[0]
    command = commands.get(name)
    if command is None:
        top = _spellings((_HELP,))
        spelling, eq, text = name.partition("=")
        if top.get(spelling) is _HELP and not eq:
            _show_help(None, (), top)
        _refuse(None, f"invalid command: {name!r} (choose from {', '.join(commands)})")
    spellings, values, stray = command.spellings, dict(command.defaults), []
    i, end = 1, len(argv)
    while i < end:
        token = argv[i]
        i += 1
        if token == "--":
            stray += argv[i - 1:]
            break
        if not token.startswith("--") and token != "-h":
            stray.append(token)
            continue
        spelling, eq, text = token.partition("=")
        option = spellings.get(spelling)
        if option is None:
            stray.append(token)
            continue
        if isinstance(option, str):
            _refuse(name, option)
        if option is _HELP:
            if eq:
                _refuse(name, f"argument -h/--help: ignored explicit argument {text!r}")
            _show_help(name, argv[i:], spellings)
        if not eq:
            if i == end or argv[i].startswith("--") or argv[i] == "-h":
                _refuse(name, f"argument --{option.name}: expected one argument")
            text = argv[i]
            i += 1
        value = _read(name, option, text)
        if option.repeat:
            value = (values[option.name] or []) + [value]
        values[option.name] = value
    missing = [f"--{option.name}" for option in command.options
               if option.required and values[option.name] is None]
    if missing:
        _refuse(name, f"the following arguments are required: {', '.join(missing)}")
    if stray:
        _refuse(name, f"unrecognized arguments: {' '.join(stray)}")
    return SimpleNamespace(command=name, **values)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
