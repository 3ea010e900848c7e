"""Command-line front end: exact tables and Monte Carlo reports as CSV or JSON.

Each command is declared once, in the command table ``_COMMANDS``: its
help text, its row builder, and its flags.  The parser is built from
that table and :func:`main` dispatches through it, so a new command or
flag is one entry there.

Every table declares its columns before its rows, each column scalar or
rational.  A rational is written twice, as an exact fraction string and
as a binary64 approximation: the exact column feeds tests and
round-trips, the approximate one feeds plots.  Each row is a tuple of
cell texts, written through one row template per table, a bounded
batch of rows at a time, so that the peak RSS stays flat however many
rows a table has.  Identical invocations (including the seed)
produce byte-identical output.

A 2**n table of many rows is rendered on two processes where two CPUs
are granted: a forked child renders the second half of the rows into a
temporary file while this process renders the first half, and then
copies the child's bytes in after them.  The bytes are the same as on
one process.

`sample --parents` takes two specs that weaver.parents parses; a spec it
rejects is a usage error.  Only a `sample` run, as it draws, loads numpy.

Exit status: 0 on success, 1 on a usage error, 2 on a runtime, capacity,
or I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

# weaver.parents is imported only when argparse converts a `sample` run's
# --parents, and weaver.sampler, the one module that loads numpy, only
# when that run draws; only the list tables import weaver.analysis
from weaver import _host, exact
from weaver.errors import CapacityError, RangeError, WeaverError
from weaver.exact import WeaverParams


class _Parser(argparse.ArgumentParser):
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


def _parse_parent_pair(text: str) -> tuple[Any, Any]:
    # only a `sample` run's --parents imports weaver.parents, which parses it
    from weaver import parents

    try:
        return parents._parse_pair(text)
    except WeaverError as err:
        raise argparse.ArgumentTypeError(str(err))


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
    parser = _Parser(
        prog="weaver",
        description="Exact tables and Monte Carlo reports of the weaving cascade W(n, p).",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, flags) in _COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
        sub.add_argument("--output", default="-", help="output path, '-' for stdout")
        for flag, options in flags:
            sub.add_argument(flag, **options)
    return parser


def parse_config(argv: list[str]) -> argparse.Namespace:
    """Parse and validate argv; usage errors exit with 1."""
    return build_parser().parse_args(argv)


def _check_digits(values: Iterable[int]) -> None:
    """Refuse a table that would print one of ``values`` before its first
    byte: str() of an int with more than sys.get_int_max_str_digits()
    digits raises."""
    limit = sys.get_int_max_str_digits()
    if limit and max(map(abs, values), default=0) >= 10**limit:
        raise CapacityError(
            f"a table cell needs an integer of more than {limit} digits, "
            "above Python's int-to-str limit (PYTHONINTMAXSTRDIGITS raises it)"
        )


def _rational(num: int, den: int) -> tuple[str, str]:
    """Both texts of the rational cell num/den (den > 0): the exact one in
    lowest terms (``num`` alone over 1) and the binary64 repr, as str() and
    float() of a Fraction give them; int true division rounds as
    Fraction.__float__ does.  A text past the int-to-str limit is refused
    as :func:`_check_digits` refuses it.
    """
    divisor = gcd(num, den)
    num, den = num // divisor, den // divisor
    try:
        text = str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        _check_digits((num, den))
        raise
    return text, repr(num / den)


#: A table's columns: each name with whether it is rational.
_Columns = Sequence[tuple[str, bool]]


#: Rows ``start`` to ``stop - 1`` of a table, given ``start`` and ``stop``.
_Rows = Callable[[int, int], Iterable[tuple[str, ...]]]


class _Table:
    """A table as the writers take it: its ``columns``, declared before
    any row, ``len()`` rows, any range of them by ``rows(start, stop)``,
    and all of them by ``iter()``.

    A row is a tuple of cell texts, already rendered: one text per scalar
    column and two per rational column, the exact and approx texts of
    :func:`_rational`.  The 2**n tables pass a function that returns an
    iterator, so each row is built as it is written, from its k alone.
    """

    def __init__(self, columns: _Columns, count: int, rows: _Rows) -> None:
        self.columns = columns
        self.rows = rows
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        return iter(self.rows(0, self._count))


def _listed(rows: list[dict[str, Any]], format: str) -> _Table:
    """A small list table with its cells rendered for ``format``: each
    Fraction through :func:`_rational`, which refuses a text past the
    int-to-str limit, and any other value through str() in CSV or
    json.dumps() in JSON.  The columns are the first row's keys."""
    scalar = str if format == "csv" else json.dumps
    texts = []
    for row in rows:
        cells: list[str] = []
        for value in row.values():
            if isinstance(value, Fraction):
                cells += _rational(value.numerator, value.denominator)
            else:
                cells.append(scalar(value))
        texts.append(tuple(cells))
    columns = [(key, isinstance(value, Fraction)) for key, value in rows[0].items()]
    return _Table(columns, len(texts), lambda start, stop: texts[start:stop])


def _csv_layout(columns: _Columns) -> tuple[str, str, str, str]:
    header = [f"{name}_exact,{name}_approx" if rational else name for name, rational in columns]
    template = ",".join(["%s,%s" if rational else "%s" for _, rational in columns])
    return ",".join(header) + "\n", template, "\n", "\n"


def _json_layout(columns: _Columns) -> tuple[str, str, str, str]:
    # laid out exactly as json.dumps(rows, indent=2) would, with each
    # rational as an {"exact", "approx"} object; json writes an int as
    # str() does and a finite float as repr() does, and an exact text
    # (digits, '-', '/') needs no escape
    rational = '{\n      "exact": "%s",\n      "approx": %s\n    }'
    fields = [
        f"    {json.dumps(name).replace('%', '%%')}: {rational if is_rational else '%s'}"
        for name, is_rational in columns
    ]
    return "[\n", "  {\n" + ",\n".join(fields) + "\n  }", ",\n", "\n]\n"


#: Fewest rows of a 2**n table that are rendered on two processes.  The
#: fork, the temporary file and the copy cost about 3-5 ms; at 2**14 rows
#: the split broke even on `triangle`, whose rows are the cheapest, and
#: saved 15-22 ms on the other three tables (2-vCPU Xeon, 2.1 GHz).
_SPLIT_ROWS = 1 << 14


def _split_point(count: int) -> int:
    """The first row that a forked child renders of a 2**n table of
    ``count`` rows: the middle one, if the table has at least
    :data:`_SPLIT_ROWS` rows, the platform forks, and two CPUs are
    granted; else ``count``, for no child."""
    if count < _SPLIT_ROWS or not hasattr(os, "fork") or _host.cpu_count() < 2:
        return count
    return count // 2


#: Rows joined into the text of one write call.  A `TextIOWrapper` write
#: call per row cost about 150 ns a row more than joined batches.  The
#: batch is bounded because its text is held whole: a JSON `density` row
#: is about 330 bytes, and batches of 4096 rows raised that table's peak
#: RSS by 3.7 MiB, and of 1024 rows by 1 MiB, while 256 rows ran as fast
#: with no rise (2-vCPU Xeon, 2.1 GHz).
_BATCH_ROWS = 256


def _write_rows(rows: Iterable[tuple[str, ...]], follow: Callable[[tuple[str, ...]], str],
                write: Callable[[str], Any]) -> None:
    """Write ``follow(row)`` for every row, :data:`_BATCH_ROWS` rows a call."""
    rows = iter(rows)
    while batch := "".join(map(follow, islice(rows, _BATCH_ROWS))):
        write(batch)


def _write(table: _Table, layout: tuple[str, str, str, str], handle: TextIO, mid: int) -> None:
    """Write the layout's head, its template % row for every row, with its
    separator between rows, and its tail, a batch of rows at a time
    (:data:`_BATCH_ROWS`).

    Rows from ``mid`` on (0 < mid <= len(table)) are rendered by a forked
    child into an unnamed temporary file while this process renders the
    rows before ``mid``; their bytes are then copied in after those, 64 KiB
    at a time, so that the copy adds little to the peak RSS.  The child
    ends only through os._exit: it prints nothing and runs none of this
    process's exit handlers, and the text of an error it meets reaches
    this process through a pipe, for the one-line message.  It is reaped
    whatever this process meets, and killed first if this process fails.
    Only `sample`, a list table, starts threads, so no other thread holds
    a lock at the fork.
    """
    head, template, separator, tail = layout
    count = len(table)
    follow = (separator + template).__mod__

    def write_first_rows() -> None:
        rows = iter(table.rows(0, mid))
        handle.write(head + template % next(rows))
        _write_rows(rows, follow, handle.write)

    if mid == count:
        write_first_rows()
    else:
        # imported only here: these load about ten more modules (about 1 ms
        # at each start), which only a table on two processes needs
        import shutil
        import signal
        import tempfile

        read_end, write_end = os.pipe()  # for the text of the child's error
        with (
            tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as side,
            open(read_end, "rb") as reasons,
        ):
            child = os.fork()
            if child == 0:
                code = 1
                try:
                    _write_rows(table.rows(mid, count), follow, side.write)
                    side.flush()
                    code = 0
                except Exception as error:
                    os.write(write_end, (str(error) or type(error).__name__).encode()[:512])
                finally:
                    os._exit(code)
            os.close(write_end)
            try:
                write_first_rows()
            except BaseException:
                os.kill(child, signal.SIGKILL)
                raise
            finally:
                status = os.waitstatus_to_exitcode(os.waitpid(child, 0)[1])
            if status:
                reason = " ".join(reasons.read().decode(errors="replace").split())
                raise WeaverError(
                    f"the child process rendering rows {mid} to {count - 1} failed: "
                    + (reason or f"exit status {status}")
                )
            side.seek(0)
            shutil.copyfileobj(side, handle, 1 << 16)
    handle.write(tail)


def emit_table(table: _Table | list[dict[str, Any]], format: str, output: str) -> int:
    """Write a table as CSV or JSON to a path or stdout, a batch of rows at
    a time (:data:`_BATCH_ROWS`, bounded to keep the peak RSS flat).

    ``len(table)`` is its number of data rows.  The 2**n tables pass a
    :class:`_Table`, whose rows are built as they are written, and check
    the int-to-str limit before they return; one of many rows is written
    on two processes (:func:`_split_point`), with the same bytes.  The
    small tables pass a list of dict rows, which :func:`_listed` renders
    for ``format`` before the output is opened, so a cell past the limit
    is refused before the first byte.  The columns give one row template
    per table (see :func:`_csv_layout` and :func:`_json_layout`); every
    rational appears twice, as an exact fraction string and a binary64
    approximation (two CSV columns, or an {"exact", "approx"} JSON
    object).
    """
    if not table:
        raise WeaverError("refusing to emit an empty table")
    if isinstance(table, list):
        table = _listed(table, format)
        mid = len(table)
    else:
        mid = _split_point(len(table))
    layout = (_csv_layout if format == "csv" else _json_layout)(table.columns)
    if output == "-":
        _write(table, layout, sys.stdout, mid)
    else:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            _write(table, layout, handle, mid)
    return 0


def _pmf_rows(args: argparse.Namespace) -> _Table:
    exact._check_cap(args.n, "pmf vector")
    numerators, denominator = exact._mass_numerators(args.p, args.n)
    heights = [_rational(w, denominator) for w in numerators]
    support = (1 << args.n) - 1
    return _Table([("k", False), ("y", True), ("p", True)], support + 1, lambda start, stop: (
        (str(k), *_rational(k, support), *heights[k.bit_count()]) for k in range(start, stop)
    ))


def _cdf_rows(args: argparse.Namespace) -> _Table:
    params = WeaverParams(n=args.n, p=args.p)
    resolution = args.resolution if args.resolution is not None else args.n
    # the grid's checks run at this call, so a refused table writes
    # nothing; each range of rows reads a grid from its own first k.
    # Every F is t / d**m with 0 <= t <= d**m, and F at 1/2**m is in
    # lowest terms
    denominator = exact.cdf_grid(params, resolution)[1]
    _check_digits([denominator])
    scale = 1 << resolution

    def rows(start: int, stop: int) -> Iterator[tuple[str, ...]]:
        grid = exact.cdf_grid(params, resolution, start)[0]
        for k, total in zip(range(start, stop), grid):
            yield (str(k), *_rational(k, scale), *_rational(total, denominator))

    return _Table([("k", False), ("v", True), ("F", True)], scale + 1, rows)


def _triangle_rows(args: argparse.Namespace) -> _Table:
    exact._check_cap(args.n, "triangle row")
    exponents = [str(j) for j in range(args.n + 1)]
    return _Table([("k", False), ("exponent", False)], 1 << args.n, lambda start, stop: zip(
        map(str, range(start, stop)),
        map(exponents.__getitem__, map(int.bit_count, range(start, stop))),
    ))


#: Highest `moments --max-order`.  The moment integers grow with the order,
#: so the work grows faster than J**2: within the int-to-str limit the
#: slowest order-300 table (n = 47) takes 3.2-3.7 s (README "Capacity").
_MOMENT_ORDER_CAP = 300


def _moments_rows(args: argparse.Namespace) -> list[dict[str, Any]]:
    params = WeaverParams(n=args.n, p=args.p)
    if args.max_order > _MOMENT_ORDER_CAP:
        raise CapacityError(
            f"moments of order {args.max_order} are above the order cap {_MOMENT_ORDER_CAP}"
        )
    from weaver import analysis

    numerators, denominator = analysis._moment_numerators(params, args.max_order)
    support = (1 << args.n) - 1
    return [
        {"statistic": "mean", "value": args.p},
        {"statistic": "variance", "value": analysis.exact_variance(params)},
        {"statistic": "limit_variance", "value": analysis.limit_variance(args.p)},
    ] + [
        {"statistic": f"moment_{j}", "value": Fraction(numerators[j], denominator * support**j)}
        for j in range(1, args.max_order + 1)
    ]


def _decompose_rows(args: argparse.Namespace) -> list[dict[str, Any]]:
    # the last denom, (2**n - 1)**2, is the widest cell: checked before any
    # row is built.  The fields are in column order.
    _check_digits([((1 << args.n) - 1) ** 2])
    from weaver import analysis

    return [vars(analysis.variance_decomposition(n)) for n in range(1, args.n + 1)]


def _sample_rows(args: argparse.Namespace) -> list[dict[str, Any]]:
    from weaver import parents, sampler

    h0, h1 = parents.standardize_parents(*args.parents)
    report = sampler.monte_carlo_moments(args.n, h0, h1, args.p, args.reps, args.seed)
    return [{"n": args.n, "p": args.p, "seed": args.seed, **vars(report)}]


def _converge_rows(args: argparse.Namespace) -> list[dict[str, Any]]:
    from weaver import analysis

    bernoulli_variance = args.p * (1 - args.p)

    def row(n: int) -> dict[str, Any]:
        variance = analysis.exact_variance(WeaverParams(n=n, p=args.p))
        return {"n": n, "variance": variance, "ratio": variance / bernoulli_variance}

    # the cells widen with n: rendering the last row first refuses a depth
    # past the int-to-str limit before any other row is built
    last = row(args.n)
    _listed([last], args.format)
    return [row(n) for n in range(1, args.n)] + [last]


def _density_rows(args: argparse.Namespace) -> _Table:
    exact._check_cap(args.n, "pmf vector")
    numerators, denominator = exact._mass_numerators(args.p, args.n)
    densities = [_rational(w << args.n, denominator) for w in numerators]
    scale = 1 << args.n

    def rows(start: int, stop: int) -> Iterator[tuple[str, ...]]:
        right = _rational(start, scale)
        for k in range(start, stop):
            # each edge is rendered once: cell k's right is cell k+1's left
            left, right = right, _rational(k + 1, scale)
            yield (str(k), *left, *right, *densities[k.bit_count()])

    return _Table([("k", False), ("left", True), ("right", True), ("density", True)], scale, rows)


# the two flags that most commands share
_N = ("--n", dict(type=_positive_int, required=True))
_P = ("--p", dict(type=_parse_probability, required=True))

#: Every command: its help text, its row builder, and its flags after
#: --format and --output, in --help order, each as its name and its
#: add_argument keywords.  build_parser and main both read this table.
_COMMANDS = {
    "pmf": ("exact probability mass function over all leaves", _pmf_rows, [_N, _P]),
    "cdf": ("exact distribution function on the dyadic grid", _cdf_rows, [
        _N,
        _P,
        ("--resolution", dict(type=_positive_int, help="dyadic grid resolution (defaults to --n)")),
    ]),
    "triangle": ("exponent triangle row (one-bit counts per leaf)", _triangle_rows, [
        ("--n", dict(type=_non_negative_int, required=True)),
    ]),
    "moments": ("closed-form variance and exact raw moments", _moments_rows, [
        _N, _P, ("--max-order", dict(type=_positive_int, default=4)),
    ]),
    "decompose": ("weaving/merging variance split for depths 1..n", _decompose_rows, [_N]),
    "sample": ("Monte Carlo moment report for exponential sampling", _sample_rows, [
        _N,
        _P,
        ("--parents", dict(type=_parse_parent_pair, default="point:0;point:1",
                           help="pair of populations, e.g. 'gauss:0,1;gauss:1,1'")),
        ("--reps", dict(type=_positive_int, default=10000)),
        ("--seed", dict(type=_non_negative_int, default=0)),
    ]),
    "converge": ("variance ratio against its limit 1/3 for depths 1..n", _converge_rows, [
        ("--n", dict(type=_positive_int, default=40)), _P,
    ]),
    "density": ("piecewise cell densities of the halving cascade", _density_rows, [_N, _P]),
}


def main(argv: list[str] | None = None) -> int:
    args = parse_config(sys.argv[1:] if argv is None else argv)
    try:
        rows = _COMMANDS[args.command][1](args)
        return emit_table(rows, args.format, args.output)
    except WeaverError as err:
        print(f"weaver: error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"weaver: i/o error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
