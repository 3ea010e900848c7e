"""Command-line front end: exact tables and Monte Carlo reports as CSV or JSON.

Every table carries each rational quantity twice, as an exact fraction
string and as a binary64 approximation: the exact column feeds tests and
round-trips, the approximate one feeds plots.  Identical invocations
(including the seed) produce byte-identical output.

Exit status: 0 on success, 1 on a usage error, 2 on a runtime, capacity,
or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import gcd
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

# the sampler side (weaver.parents, weaver.sampler) loads numpy, so only
# a `sample` run imports it, after parsing
from weaver import analysis, exact
from weaver.errors import RangeError, WeaverError
from weaver.exact import WeaverParams


class _Parser(argparse.ArgumentParser):
    #: set on the top-level parser: the `sample` subparser, which reports a
    #: parent spec that its family rejects (see parse_config)
    sample: argparse.ArgumentParser

    # argparse exits with status 2 on bad flags; the contract wants 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_probability(text: str) -> Fraction:
    try:
        return exact._check_probability(text)
    except RangeError as err:
        raise argparse.ArgumentTypeError(str(err))


# family name in a parent spec: (factory in weaver.parents, parameter count)
_PARENT_FACTORIES = {
    "point": ("point_mass", 1),
    "pointmass": ("point_mass", 1),
    "point-mass": ("point_mass", 1),
    "bernoulli": ("bernoulli", 1),
    "uniform": ("uniform_interval", 2),
    "uniform-interval": ("uniform_interval", 2),
    "gauss": ("gaussian", 2),
    "gaussian": ("gaussian", 2),
}

_ParentSpec = tuple[str, list[float]]


def _parse_parent(spec: str) -> _ParentSpec:
    """The factory name and parameters of one parent spec, syntax checked;
    the factory's own checks run in parse_config."""
    name, _, arg_text = spec.partition(":")
    key = name.strip().lower()
    if key not in _PARENT_FACTORIES:
        raise argparse.ArgumentTypeError(
            f"unknown parent family {name!r}; expected one of "
            "point:c, bernoulli:q, uniform:a,b, gauss:mean,variance"
        )
    factory, arity = _PARENT_FACTORIES[key]
    try:
        args = [float(a) for a in arg_text.split(",")] if arg_text else []
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad numeric parameters in parent spec {spec!r}")
    if len(args) != arity:
        raise argparse.ArgumentTypeError(
            f"parent family {name!r} takes {arity} parameter(s), got {len(args)}"
        )
    return factory, args


def _parse_parent_pair(text: str) -> tuple[_ParentSpec, _ParentSpec]:
    specs = text.split(";")
    if len(specs) != 2:
        raise argparse.ArgumentTypeError(
            f"expected two parent specs separated by ';', got {text!r}"
        )
    return _parse_parent(specs[0]), _parse_parent(specs[1])


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="weaver", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
        sub.add_argument("--output", default="-", help="output path, '-' for stdout")
        return sub

    sub = add("pmf", "exact probability mass function over all leaves")
    sub.add_argument("--n", type=_positive_int, required=True)
    sub.add_argument("--p", type=_parse_probability, required=True)

    sub = add("cdf", "exact distribution function on the dyadic grid")
    sub.add_argument("--n", type=_positive_int, required=True)
    sub.add_argument("--p", type=_parse_probability, required=True)
    sub.add_argument(
        "--resolution",
        type=_positive_int,
        default=None,
        help="dyadic grid resolution (defaults to --n)",
    )

    sub = add("triangle", "exponent triangle row (one-bit counts per leaf)")
    sub.add_argument("--n", type=_non_negative_int, required=True)

    sub = add("moments", "closed-form variance and exact raw moments")
    sub.add_argument("--n", type=_positive_int, required=True)
    sub.add_argument("--p", type=_parse_probability, required=True)
    sub.add_argument("--max-order", type=_positive_int, default=4)

    sub = add("decompose", "weaving/merging variance split for depths 1..n")
    sub.add_argument("--n", type=_positive_int, required=True)
    sub.add_argument("--p", type=_parse_probability, default=Fraction(1, 2))

    sub = add("sample", "Monte Carlo moment report for exponential sampling")
    sub.add_argument("--n", type=_positive_int, required=True)
    sub.add_argument("--p", type=_parse_probability, required=True)
    sub.add_argument(
        "--parents",
        type=_parse_parent_pair,
        default="point:0;point:1",
        help="pair of populations, e.g. 'gauss:0,1;gauss:1,1'",
    )
    sub.add_argument("--reps", type=_positive_int, default=10000)
    sub.add_argument("--seed", type=_non_negative_int, default=0)
    parser.sample = sub

    sub = add("converge", "variance ratio against its limit 1/3 for depths 1..n")
    sub.add_argument("--n", type=_positive_int, default=40)
    sub.add_argument("--p", type=_parse_probability, required=True)

    sub = add("density", "piecewise cell densities of the halving cascade")
    sub.add_argument("--n", type=_positive_int, required=True)
    sub.add_argument("--p", type=_parse_probability, required=True)

    return parser


def parse_config(argv: list[str]) -> argparse.Namespace:
    """Parse and validate argv; usage errors exit with 1.

    A `sample` run's two parents are built here, after parsing, so that
    no other command imports weaver.parents; a spec its family rejects
    is a usage error of `sample --parents`, as a bad spec's syntax is.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sample":
        from weaver import parents

        try:
            args.parents = tuple(
                getattr(parents, factory)(*params) for factory, params in args.parents
            )
        except WeaverError as err:
            parser.sample.error(f"argument --parents: {err}")
    return args


def _rational(num: int, den: int) -> tuple[str, str]:
    """Both texts of the rational cell num/den (den > 0): the exact one in
    lowest terms (``num`` alone over 1) and the binary64 repr, as str() and
    float() of a Fraction give them; int true division rounds as
    Fraction.__float__ does.
    """
    divisor = gcd(num, den)
    num, den = num // divisor, den // divisor
    return (str(num) if den == 1 else f"{num}/{den}"), repr(num / den)


class _Rows:
    """A table built row by row as it is written: ``len()`` is its row
    count, and every ``iter()`` builds fresh rows from ``build()``."""

    def __init__(self, count: int, build: Callable[[], Iterator[dict[str, Any]]]) -> None:
        self._count = count
        self._build = build

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return self._build()


def _write_csv(rows: Iterable[dict[str, Any]], handle: TextIO) -> None:
    def render(value: Any) -> str:
        if isinstance(value, Fraction):
            value = _rational(value.numerator, value.denominator)
        if type(value) is tuple:
            return ",".join(value)
        return repr(value) if isinstance(value, float) else str(value)

    header: list[str] = []
    for key, value in next(iter(rows)).items():
        rational = isinstance(value, (tuple, Fraction))
        header.extend([f"{key}_exact", f"{key}_approx"] if rational else [key])
    write = handle.write
    write(",".join(header) + "\n")
    for row in rows:
        write(",".join([str(v) if type(v) is int else render(v) for v in row.values()]) + "\n")


def _write_json(rows: Iterable[dict[str, Any]], handle: TextIO) -> None:
    # laid out by hand exactly as json.dumps(rows, indent=2) would, with
    # each rational as an {"exact", "approx"} object; json encodes an
    # exact int through int.__repr__ and a finite float through
    # float.__repr__, and an exact text (digits, '-', '/') needs no escape
    prefixes: dict[str, str] = {}

    def render(value: Any) -> str:
        if isinstance(value, Fraction):
            value = _rational(value.numerator, value.denominator)
        if type(value) is tuple:
            return f'{{\n      "exact": "{value[0]}",\n      "approx": {value[1]}\n    }}'
        return json.dumps(value)

    write = handle.write
    separator = "[\n"
    for row in rows:
        body = ",\n".join(
            [
                (prefixes.get(k) or prefixes.setdefault(k, f"    {json.dumps(k)}: "))
                + (str(v) if type(v) is int else render(v))
                for k, v in row.items()
            ]
        )
        write(f"{separator}  {{\n{body}\n  }}")
        separator = ",\n"
    write("\n]\n")


def emit_table(rows: _Rows | Sequence[dict[str, Any]], format: str, output: str) -> int:
    """Write rows as CSV or JSON to a path or stdout, one row at a time.

    ``rows`` is sized and iterable twice: the header is read from the
    first row, then every row is written.  The 2**n tables pass a
    :class:`_Rows`, so no more than one of their rows is held at once.

    Every rational appears twice: as an exact fraction string and as a
    binary64 approximation (two CSV columns, or an {"exact", "approx"}
    JSON object).  A rational cell is either the pair of texts that
    :func:`_rational` returns, which the 2**n tables build once per
    distinct value from integers, or a Fraction, which is passed through
    :func:`_rational` as it is written.  Other ints, floats and strings
    are written as scalars.
    """
    if not rows:
        raise WeaverError("refusing to emit an empty table")
    write = _write_csv if format == "csv" else _write_json
    if output == "-":
        write(rows, sys.stdout)
    else:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            write(rows, handle)
    return 0


def _pmf_rows(args: argparse.Namespace) -> _Rows:
    exact._check_cap(args.n, "pmf vector")
    numerators, denominator = exact._mass_numerators(args.p, args.n)
    heights = [_rational(w, denominator) for w in numerators]
    support = (1 << args.n) - 1
    return _Rows(support + 1, lambda: (
        {"k": k, "y": _rational(k, support), "p": heights[k.bit_count()]}
        for k in range(support + 1)
    ))


def _cdf_rows(args: argparse.Namespace) -> _Rows:
    params = WeaverParams(n=args.n, p=args.p)
    resolution = args.resolution if args.resolution is not None else args.n
    # the grid's checks run now, so a refused table writes nothing
    exact.cdf_grid(params, resolution)
    scale = 1 << resolution

    def rows() -> Iterator[dict[str, Any]]:
        sums, denominator = exact.cdf_grid(params, resolution)
        for k, total in enumerate(sums):
            yield {"k": k, "v": _rational(k, scale), "F": _rational(total, denominator)}

    return _Rows(scale + 1, rows)


def _triangle_rows(args: argparse.Namespace) -> _Rows:
    exact._check_cap(args.n, "triangle row")
    size = 1 << args.n
    return _Rows(size, lambda: ({"k": k, "exponent": k.bit_count()} for k in range(size)))


def _moments_rows(args: argparse.Namespace) -> list[dict[str, Any]]:
    params = WeaverParams(n=args.n, p=args.p)
    numerators, denominator = analysis._moment_numerators(params, args.max_order)
    support = (1 << args.n) - 1
    return [
        {"statistic": "mean", "value": args.p},
        {"statistic": "variance", "value": analysis.exact_variance(params)},
        {"statistic": "limit_variance", "value": analysis.limit_variance(args.p)},
    ] + [
        {"statistic": f"moment_{j}", "value": _rational(numerators[j], denominator * support**j)}
        for j in range(1, args.max_order + 1)
    ]


def _decompose_rows(args: argparse.Namespace) -> list[dict[str, Any]]:
    # the fields are in column order
    return [vars(analysis.variance_decomposition(n, args.p)) for n in range(1, args.n + 1)]


def _sample_rows(args: argparse.Namespace) -> list[dict[str, Any]]:
    from weaver import parents, sampler

    h0, h1 = parents.standardize_parents(*args.parents)
    report = sampler.monte_carlo_moments(args.n, h0, h1, args.p, args.reps, args.seed)
    return [{"n": args.n, "p": args.p, "seed": args.seed, **vars(report)}]


def _converge_rows(args: argparse.Namespace) -> list[dict[str, Any]]:
    p = args.p
    bernoulli_variance = p * (1 - p)
    rows = []
    for n in range(1, args.n + 1):
        variance = analysis.exact_variance(WeaverParams(n=n, p=p))
        rows.append({"n": n, "variance": variance, "ratio": variance / bernoulli_variance})
    return rows


def _density_rows(args: argparse.Namespace) -> _Rows:
    exact._check_cap(args.n, "pmf vector")
    numerators, denominator = exact._mass_numerators(args.p, args.n)
    densities = [_rational(w << args.n, denominator) for w in numerators]
    scale = 1 << args.n

    def rows() -> Iterator[dict[str, Any]]:
        right = _rational(0, scale)
        for k in range(scale):
            # each edge is rendered once: cell k's right is cell k+1's left
            left, right = right, _rational(k + 1, scale)
            yield {"k": k, "left": left, "right": right, "density": densities[k.bit_count()]}

    return _Rows(scale, rows)


_ROW_BUILDERS = {
    "pmf": _pmf_rows,
    "cdf": _cdf_rows,
    "triangle": _triangle_rows,
    "moments": _moments_rows,
    "decompose": _decompose_rows,
    "sample": _sample_rows,
    "converge": _converge_rows,
    "density": _density_rows,
}


def main(argv: list[str] | None = None) -> int:
    args = parse_config(sys.argv[1:] if argv is None else argv)
    try:
        rows = _ROW_BUILDERS[args.command](args)
        return emit_table(rows, args.format, args.output)
    except WeaverError as err:
        print(f"weaver: error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"weaver: i/o error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
