"""The CLI's option table (`cli.build_parser`, read by `cli.parse_args`) against
the argparse parser it replaced, kept here as the reference."""

import argparse
import contextlib
import functools
import io
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heis_spectra import cli
from heis_spectra.verify import available_suites

MANIFOLDS = ("nl", "nprime", "gamma-pi", "gamma-pi2")


@functools.cache
def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser of the CLI before the option table, unchanged."""
    parser = argparse.ArgumentParser(
        prog="heis-spectra",
        description="Spectra, eigenfunctions, invariant dimensions, and Weyl-law "
                    "diagnostics for Heisenberg quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--manifold", required=True, choices=MANIFOLDS,
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


# argv with every required option, per command
MINIMAL = {
    "spectrum": ["--manifold", "nl", "--tmax", "5"],
    "eigenfunction": ["--manifold", "nl", "--n", "1"],
    "dims": ["--manifold", "gamma-pi"],
    "weyl": ["--manifold", "nprime"],
    "verify": [],
}


@functools.cache
def reference_names(command: str) -> tuple:
    """The options of a command in the reference, read from its parse of a minimal argv."""
    return tuple(sorted(vars(reference_parser().parse_args([command] + MINIMAL[command]))
                        .keys() - {"command"})) + ("help",)


# argparse takes a token that starts with "-" as a value only when it is "-" or
# matches this pattern (its negative-number rule); the table also takes "-1e-3",
# "-inf" and "-x", which argparse reads only as "--opt=-1e-3"
NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _refused_by_argparse_as_a_value(token: str) -> bool:
    return (token.startswith("-") and not token.startswith("--") and token not in ("-", "-h")
            and not NEGATIVE.match(token) and " " not in token)


def _resolve(names, spelling):
    if spelling[2:] in names:
        return spelling[2:]
    found = [name for name in names if ("--" + name).startswith(spelling)]
    return found[0] if len(found) == 1 and len(spelling) > 2 else None


def as_argparse_reads(argv: list[str]) -> list[str]:
    """argv with each `--opt -x` whose -x argparse refuses as a value written
    `--opt=-x`: the table reads the two alike."""
    if not argv or argv[0] not in MINIMAL:
        return argv
    names = reference_names(argv[0])
    out, i = argv[:1], 1
    while i < len(argv):
        token = argv[i]
        i += 1
        if token == "--":
            return out + argv[i - 1:]
        name = _resolve(names, token) if token.startswith("--") and "=" not in token else None
        if name not in (None, "help") and i < len(argv):
            value = argv[i]
            if _refused_by_argparse_as_a_value(value):
                token += "=" + value
                i += 1
            elif not value.startswith("--") and value != "-h":
                out.append(token)
                token = value
                i += 1
        out.append(token)
    return out


def outcome(parse, argv):
    """A parse as comparable data: the values, each by its repr, or the exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return sorted((key, repr(value)) for key, value in vars(parse(argv)).items())
        except SystemExit as exc:
            return exc.code


def test_the_table_has_the_reference_options_and_defaults():
    table = cli.build_parser()
    assert list(table) == list(MINIMAL)
    for command, argv in MINIMAL.items():
        assert tuple(sorted(o.name for o in table[command].options[1:])) + ("help",) == \
            reference_names(command)
        assert outcome(cli.parse_args, [command] + argv) == \
            outcome(reference_parser().parse_args, [command] + argv)


VALUE_TEXTS = ["3", "-3", "0", "-0.5", ".5", "1e3", "-", "", "x", "nl", "json", "gauss",
               " 7 ", "1_000", "inf", "1e400", "-x", "-1e-3", "-1E5", "-inf", "a b", "x=y"]


def _value(option):
    if option.choices:
        valid = st.sampled_from(option.choices)
    elif option.kind is int:
        valid = st.integers(-10**20, 10**20).map(str)
    elif option.kind is float:
        valid = st.floats(allow_nan=False).map(repr)
    else:
        valid = st.sampled_from(["out.csv", "dir/x.json", "-"])
    return st.one_of(valid, st.sampled_from(VALUE_TEXTS))


def _spelling(option):
    # the whole name, or any prefix of it, unique or not
    name = "--" + option.name
    return st.integers(3, len(name)).map(lambda end: name[:end])


@st.composite
def _item(draw, options):
    """A few tokens: an option with its value, with "=", or with none; an unknown
    option; a stray token; -h; or "--"."""
    kind = draw(st.sampled_from(["value"] * 6 + ["equals"] * 2 + ["bare", "unknown", "stray",
                                                                   "help", "dashes"]))
    if kind in ("value", "equals", "bare"):
        option = draw(st.sampled_from(options))
        spelling = draw(_spelling(option))
        if kind == "bare" or option.kind is None:
            return [spelling]
        text = draw(_value(option))
        return [spelling + "=" + text] if kind == "equals" else [spelling, text]
    return [draw(st.sampled_from({
        "unknown": ["--bogus", "--x", "-x", "--lmaxx", "--grid", "--suite", "--manifolds"],
        "stray": ["3", "-3", "x", "", "-", "-0.5"],
        "help": ["-h", "--help", "--he", "--help=x", "--h="],
        "dashes": ["--"],
    }[kind]))]


@st.composite
def argvs(draw):
    table = cli.build_parser()
    head = draw(st.sampled_from(list(table) * 4 + ["", "bogus", "spec", "-h", "--help",
                                                    "--he", "--help=x", None]))
    if head is None:
        return []
    options = list(table[head].options) if head in table else list(table["dims"].options)
    items = []
    for token in MINIMAL.get(head, [])[::2]:  # the required options, each most of the time
        if draw(st.booleans()) or draw(st.booleans()):
            option = next(o for o in options if "--" + o.name == token)
            items.append([token, draw(_value(option))])
    items += draw(st.lists(_item(options), max_size=6))
    items = draw(st.permutations(items))
    return [head] + [token for item in items for token in item]


@settings(max_examples=600, deadline=None)
@given(argvs())
@example(["spectrum", "--manifold", "nl", "--tmax", "5", "--alpha", "-1e-3"])
@example(["dims", "--manifold", "gamma-pi", "-h", "--nm", "3"])
@example(["dims", "--manifold", "gamma-pi", "--", "-h"])
@example(["verify", "--suite", "gauss", "--su", "dims", "--threads", "-1"])
@example(["weyl", "--m", "nl", "--t", "5"])
@example(["eigenfunction", "--manifold", "nl", "--n", "1", "--l", "--n"])
@example([])
def test_the_table_parses_as_argparse_did(argv):
    # same values, or the same exit code; an --opt -x that argparse refused for
    # the "-" is read as argparse reads --opt=-x
    assert outcome(cli.parse_args, argv) == \
        outcome(reference_parser().parse_args, as_argparse_reads(argv)), argv


@pytest.mark.parametrize("text, value", [("-1e-3", -1e-3), ("-1E5", -1e5), ("-1e-05", -1e-5),
                                         ("-3", -3.0), ("-.5", -0.5)])
def test_a_negative_value_in_e_notation_is_a_value(text, value):
    args = cli.parse_args(["spectrum", "--manifold", "nl", "--tmax", "5", "--alpha", text])
    assert args.alpha == value
    assert repr(args.alpha) == repr(value)


def test_a_negative_infinite_alpha_reaches_the_command(capsys):
    assert cli.main(["spectrum", "--manifold", "nl", "--tmax", "5", "--alpha", "-inf"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: alpha must lie in [-1, 1]\n"


def test_a_value_that_starts_with_two_dashes_needs_equals(capsys):
    argv = ["dims", "--manifold", "gamma-pi", "--out"]
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv + ["--a b"])
    assert exc.value.code == 2
    assert "argument --out: expected one argument" in capsys.readouterr().err
    assert cli.parse_args(["dims", "--manifold", "gamma-pi", "--out=--a b"]).out == "--a b"
    # argparse read --out=-- as an empty list; the table reads the text
    assert cli.parse_args(["dims", "--manifold", "gamma-pi", "--out=--"]).out == "--"


@pytest.mark.parametrize("argv, words", [
    (["dims", "--manifold", "gamma-pi", "--nm", "3"], ["ambiguous option: --nm", "--nmin",
                                                       "--nmax"]),
    (["dims", "--manifold", "gamma-pi", "--bogus"], ["unrecognized arguments: --bogus"]),
    (["dims", "--manifold", "gamma-pi", "--l"], ["argument --l: expected one argument"]),
    (["dims", "--manifold", "gamma-pi", "--l", "x"], ["argument --l: invalid int value: 'x'"]),
    (["weyl", "--manifold", "nl", "--tmax=y"], ["argument --tmax: invalid float value: 'y'"]),
    (["dims", "--manifold", "nope"], ["argument --manifold: invalid choice: 'nope'"]),
    (["spectrum", "--manifold", "nl"], ["required: --tmax"]),
    (["bogus"], ["invalid command: 'bogus'"]),
    ([], ["a command is required"]),
])
def test_a_refusal_names_its_option_after_the_usage(capsys, argv, words):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and len(lines) == 2 and lines[0].startswith("usage: heis-spectra")
    assert lines[1].startswith("heis-spectra") and ": error: " in lines[1]
    for word in words:
        assert word in lines[1]
