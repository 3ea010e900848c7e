"""Command-line front end: exact tables and Monte Carlo reports as CSV or JSON.

Each command is declared once, in the command table ``_COMMANDS``: its
help text and its flags.  The parser is built from that table, and
:func:`main` finds the command's row builder in weaver.tables by its
name, ``_<command>_rows``; :func:`emit_table` writes the table it returns.

This module, the parser side, imports only argparse, sys and weaver.errors,
and adds flags only to the command that argv names.  The table code
(weaver.tables), and weaver.exact and fractions with it, loads at the first
`--p` or once argv parses, so `--help` and usage errors before it load none.

`sample --parents` takes two specs that weaver.parents parses; a spec it
rejects is a usage error.  Only a `sample` run, as it draws, loads numpy,
and only JSON output loads json; no run loads dataclasses.

Exit status: 0 on success, 1 on a usage error, 2 on a runtime, capacity,
or I/O error.
"""

import argparse
import sys

from weaver.errors import RangeError, WeaverError


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract wants 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_probability(text: str) -> "Fraction":
    # the first --p loads the table code, which imports weaver.exact, the
    # owner of this check (loaded in that order, a run's peak RSS is lower)
    from weaver import tables

    try:
        return tables.exact._check_probability(text)
    except RangeError as err:
        raise argparse.ArgumentTypeError(str(err))


def _parse_parent_pair(text: str) -> tuple:
    # only a `sample` run's --parents imports weaver.parents, which parses it
    from weaver import parents

    try:
        return parents._parse_pair(text)
    except WeaverError as err:
        raise argparse.ArgumentTypeError(str(err))


def _integer(least: int, kind: str):
    """The argparse type of an integer flag of at least ``least``."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1  # refused below, with the same text as a range error
        if value < least:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text}")
        return value

    return convert


_positive_int, _non_negative_int = _integer(1, "positive"), _integer(0, "non-negative")


def parse_config(argv: list[str]) -> argparse.Namespace:
    """Parse and validate argv; usage errors exit with 1.  Every command has
    a subparser, for the help and "invalid choice" texts, but flags go only to
    the first argv word that names a command, the one that argparse picks."""
    parser = _Parser(
        prog="weaver",
        description="Exact tables and Monte Carlo reports of the weaving cascade W(n, p).",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    named = next((word for word in argv if word in _COMMANDS), None)
    for name, (help_text, flags) in _COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        if name == named:
            sub.add_argument("--format", choices=("csv", "json"), default="csv")
            sub.add_argument("--output", default="-", help="output path, '-' for stdout")
            for flag, options in flags:
                sub.add_argument(flag, **options)
    return parser.parse_args(argv)


def emit_table(table: "tables._Table", format: str, output: str) -> int:
    """Write a table as CSV or JSON to a path or stdout, laid out by
    ``tables._write``; ``len(table)`` is its number of data rows.  Every
    rational is written as its exact fraction and its binary64
    approximation (two CSV columns, or an {"exact", "approx"} object)."""
    from weaver import tables

    if not table:
        raise WeaverError("refusing to emit an empty table")
    if output == "-":
        tables._write(table, format, sys.stdout)
    else:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            tables._write(table, format, handle)
    return 0


# the two flags that most commands share
_N = ("--n", dict(type=_positive_int, required=True))
_P = ("--p", dict(type=_parse_probability, required=True))

#: Every command: its help text and its flags after --format and --output,
#: in --help order, each as its name and its add_argument keywords.
#: parse_config reads this table, and main the command's name.
_COMMANDS = {
    "pmf": ("exact probability mass function over all leaves", [_N, _P]),
    "cdf": ("exact distribution function on the dyadic grid", [
        _N,
        _P,
        ("--resolution", dict(type=_positive_int, help="dyadic grid resolution (defaults to --n)")),
    ]),
    "triangle": ("exponent triangle row (one-bit counts per leaf)", [
        ("--n", dict(type=_non_negative_int, required=True)),
    ]),
    "moments": ("closed-form variance and exact raw moments", [
        _N, _P, ("--max-order", dict(type=_positive_int, default=4)),
    ]),
    "decompose": ("weaving/merging variance split for depths 1..n", [_N]),
    "sample": ("Monte Carlo moment report for exponential sampling", [
        _N,
        _P,
        ("--parents", dict(type=_parse_parent_pair, default="point:0;point:1",
                           help="pair of populations, e.g. 'gauss:0,1;gauss:1,1'")),
        ("--reps", dict(type=_positive_int, default=10000)),
        ("--seed", dict(type=_non_negative_int, default=0)),
    ]),
    "converge": ("variance ratio against its limit 1/3 for depths 1..n", [
        ("--n", dict(type=_positive_int, default=40)), _P,
    ]),
    "density": ("piecewise cell densities of the halving cascade", [_N, _P]),
}


def main(argv: list[str] | None = None) -> int:
    args = parse_config(sys.argv[1:] if argv is None else argv)
    from weaver import tables  # the table code loads once argv has parsed

    try:
        rows = getattr(tables, f"_{args.command}_rows")(args)
        return emit_table(rows, args.format, args.output)
    except WeaverError as err:
        print(f"weaver: error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"weaver: i/o error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
