"""The command line's tables, as CSV or JSON: each command's row builder,
``_<command>_rows``, the cell texts and the writers.  weaver.cli loads this
module at the first `--p` or once argv parses.

Every table declares its columns before its rows, each column scalar or
rational.  A rational is written twice, as an exact fraction string and
as a binary64 approximation: the exact column feeds tests and
round-trips, the approximate one feeds plots.  Every builder returns a
:class:`_Table`, whose rows :func:`_write` alone lays out, each a tuple
of cell texts, through one row template per table, a bounded batch of
rows at a time, so that the peak RSS stays flat however many rows a
table has.  Identical invocations (including the seed) produce
byte-identical output.

A table of many rows is rendered on two processes where two CPUs are
granted: a forked child renders the second half of the rows into a
temporary file while this process renders the first half, and then
copies the child's bytes in after them.  The bytes are the same as on
one process.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

# weaver.sampler, the one module that loads numpy, is imported only when
# a `sample` run draws, and weaver.analysis only by the list tables
from weaver import exact
from weaver.errors import CapacityError, WeaverError
from weaver.exact import WeaverParams


def _digits(value: int) -> str:
    """str() of an int cell, or a CapacityError where str() raises: an int
    of more than sys.get_int_max_str_digits() digits has no text."""
    try:
        return str(value)
    except ValueError:
        raise CapacityError(
            f"a table cell needs an integer of more than {sys.get_int_max_str_digits()} digits, "
            "above Python's int-to-str limit (PYTHONINTMAXSTRDIGITS raises it)"
        ) from None


def _rational(num: int, den: int) -> tuple[str, str]:
    """Both texts of the rational cell num/den (den > 0): the exact one in
    lowest terms (``num`` alone over 1) and the binary64 repr, as str() and
    float() of a Fraction give them; int true division rounds as
    Fraction.__float__ does.  A text past the int-to-str limit is refused
    by :func:`_digits`.
    """
    divisor = gcd(num, den)
    num, den = num // divisor, den // divisor
    try:
        text = str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        text = _digits(num) if den == 1 else f"{_digits(num)}/{_digits(den)}"
    return text, repr(num / den)


class _Table:
    """A table as the writers take it: its ``columns``, declared before
    any row, each a name and whether it is rational, and ``len()`` rows,
    any range of them by ``rows(start, stop)``.

    A row is a tuple of cell texts, already rendered: one text per scalar
    column and two per rational column, the exact and approx texts of
    :func:`_rational`.  The 2**n tables pass a function that returns an
    iterator, so each row is built as it is written, from its k alone.
    """

    def __init__(self, columns: Sequence[tuple[str, bool]], count: int,
                 rows: Callable[[int, int], Iterable[tuple[str, ...]]]) -> None:
        self.columns, self.rows, self._count = columns, rows, count

    def __len__(self) -> int:
        return self._count


def _listed(rows: list[dict[str, Any]], format: str) -> _Table:
    """The table of a list of dict rows, rendered now for ``format``: each
    Fraction through :func:`_rational` and each int (not a bool) through
    :func:`_digits`, which refuse a text past the int-to-str limit, and
    any other value through str() in CSV or json.dumps() in JSON.  The
    columns are the first row's keys."""
    scalar = str
    if format != "csv":
        import json  # JSON output alone loads it
        scalar = json.dumps
    texts = []
    for row in rows:
        cells: list[str] = []
        for value in row.values():
            if isinstance(value, Fraction):
                cells += _rational(value.numerator, value.denominator)
            else:
                cells.append(_digits(value) if type(value) is int else scalar(value))
        texts.append(tuple(cells))
    columns = [(key, isinstance(value, Fraction)) for key, value in rows[0].items()]
    return _Table(columns, len(texts), lambda start, stop: texts[start:stop])


def _layout(columns: Sequence[tuple[str, bool]], format: str) -> tuple[str, str, str, str]:
    """The head, row template, separator and tail of a table in ``format``.
    JSON is laid out exactly as json.dumps(rows, indent=2) would, with each
    rational as an {"exact", "approx"} object; json writes an int as str()
    does and a finite float as repr() does, and an exact text (digits, '-',
    '/') needs no escape."""
    if format == "csv":
        header = [f"{name}_exact,{name}_approx" if rational else name for name, rational in columns]
        template = ",".join(["%s,%s" if rational else "%s" for _, rational in columns])
        return ",".join(header) + "\n", template, "\n", "\n"
    import json

    rational = '{\n      "exact": "%s",\n      "approx": %s\n    }'
    fields = [
        f"    {json.dumps(name).replace('%', '%%')}: {rational if is_rational else '%s'}"
        for name, is_rational in columns
    ]
    return "[\n", "  {\n" + ",\n".join(fields) + "\n  }", ",\n", "\n]\n"


#: Fewest rows of a table that are rendered on two processes.  The fork,
#: the temporary file and the copy cost about 3-5 ms; at 2**14 rows the
#: split broke even on `triangle`, whose rows are the cheapest, and saved
#: 15-22 ms on the other three (2-vCPU Xeon, 2.1 GHz).  Only a raised
#: int-to-str limit lets a list table reach it.
_SPLIT_ROWS = 1 << 14


def _split_point(count: int) -> int:
    """The first row that a forked child renders of a table of
    ``count`` rows: the middle one, if the table has at least
    :data:`_SPLIT_ROWS` rows, the platform forks, and two CPUs are
    granted; else ``count``, for no child."""
    if count < _SPLIT_ROWS or not hasattr(os, "fork"):
        return count
    # the affinity mask, which taskset narrows, or the machine's count on
    # platforms without one
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return count // 2 if cpus >= 2 else count


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


def _write(table: _Table, format: str, handle: TextIO) -> None:
    """Write the table in the layout of ``format``: its head, its template
    % row for every row, with its separator between rows, and its tail, a
    batch of rows at a time (:data:`_BATCH_ROWS`).

    Rows from :func:`_split_point` on are rendered by a forked child into
    an unnamed temporary file while this process renders the rows before
    them; their bytes are then copied in after those, 64 KiB
    at a time, so that the copy adds little to the peak RSS.  The child
    ends only through os._exit: it prints nothing and runs none of this
    process's exit handlers, and the text of an error it meets reaches
    this process through a pipe, for the one-line message.  It is reaped
    whatever this process meets, and killed first if this process fails.
    No command starts a thread, and only `sample`, a table of one row,
    loads numpy, so no other thread holds a lock at the fork.
    """
    head, template, separator, tail = _layout(table.columns, format)
    count = len(table)
    mid = _split_point(count)
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
    _digits(denominator)
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


def _moments_rows(args: argparse.Namespace) -> _Table:
    params = WeaverParams(n=args.n, p=args.p)
    if args.max_order > _MOMENT_ORDER_CAP:
        raise CapacityError(
            f"moments of order {args.max_order} are above the order cap {_MOMENT_ORDER_CAP}"
        )
    from weaver import analysis

    numerators, denominator = analysis._moment_numerators(params, args.max_order)
    support = (1 << args.n) - 1
    return _listed([
        {"statistic": "mean", "value": args.p},
        {"statistic": "variance", "value": analysis.exact_variance(params)},
        {"statistic": "limit_variance", "value": args.p * (1 - args.p) / 3},
    ] + [
        {"statistic": f"moment_{j}", "value": Fraction(numerators[j], denominator * support**j)}
        for j in range(1, args.max_order + 1)
    ], args.format)


def _by_depth(row: Callable[[int], dict], args: argparse.Namespace) -> _Table:
    """The table of depths 1 to args.n, whose cells widen with the depth:
    rendering the last row first refuses a depth past the int-to-str limit
    before any other row is built."""
    last = row(args.n)
    _listed([last], args.format)
    return _listed([row(n) for n in range(1, args.n)] + [last], args.format)


def _decompose_rows(args: argparse.Namespace) -> _Table:
    from weaver import analysis

    # the fields are in column order
    return _by_depth(lambda n: analysis.variance_decomposition(n)._asdict(), args)


def _sample_rows(args: argparse.Namespace) -> _Table:
    from weaver import parents, sampler

    h0, h1 = parents.standardize_parents(*args.parents)
    report = sampler.monte_carlo_moments(args.n, h0, h1, args.p, args.reps, args.seed)
    return _listed([{"n": args.n, "p": args.p, "seed": args.seed, **report._asdict()}], args.format)


def _converge_rows(args: argparse.Namespace) -> _Table:
    from weaver import analysis

    bernoulli_variance = args.p * (1 - args.p)

    def row(n: int) -> dict[str, Any]:
        variance = analysis.exact_variance(WeaverParams(n=n, p=args.p))
        return {"n": n, "variance": variance, "ratio": variance / bernoulli_variance}

    return _by_depth(row, args)


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
