"""Command-line behaviour: tables, formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from weaver import _host, analysis, cli, exact, sampler
from weaver.errors import RangeError
from weaver.exact import WeaverParams


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    header, *lines = text.strip().splitlines()
    names = header.split(",")
    return [dict(zip(names, line.split(","))) for line in lines]


# The whole-table renderers that emit_table replaced: the oracle for its
# streamed output, byte for byte.
def _cell(value: Any) -> list[tuple[str, str]]:
    if isinstance(value, Fraction):
        return [("exact", str(value)), ("approx", repr(float(value)))]
    if isinstance(value, float):
        return [("", repr(value))]
    return [("", str(value))]


def _render_csv(rows: list[dict[str, Any]]) -> str:
    header: list[str] = []
    for key, value in rows[0].items():
        for suffix, _ in _cell(value):
            header.append(f"{key}_{suffix}" if suffix else key)
    lines = [",".join(header)]
    for row in rows:
        cells: list[str] = []
        for value in row.values():
            cells.extend(text for _, text in _cell(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _render_json(rows: list[dict[str, Any]]) -> str:
    def convert(value: Any) -> Any:
        if isinstance(value, Fraction):
            return {"exact": str(value), "approx": float(value)}
        return value

    payload = [{key: convert(value) for key, value in row.items()} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


ORACLES = {"csv": _render_csv, "json": _render_json}


# The rows of each 2**n table from the library's independent functions:
# the point queries, the halving cascade and the doubling recursion, none
# of which the CLI calls.
def _pmf_oracle(args) -> list[dict[str, Any]]:
    params = WeaverParams(n=args.n, p=args.p)
    return [
        {"k": k, "y": exact.realization_value(k, args.n), "p": exact.pmf_point(k, params)}
        for k in range(1 << args.n)
    ]


def _cdf_oracle(args) -> list[dict[str, Any]]:
    params = WeaverParams(n=args.n, p=args.p)
    m = args.n if args.resolution is None else args.resolution
    return [
        {"k": k, "v": Fraction(k, 1 << m), "F": exact.cdf_at_dyadic(exact.DyadicPoint(k, m), params)}
        for k in range((1 << m) + 1)
    ]


def _density_oracle(args) -> list[dict[str, Any]]:
    scale = 1 << args.n
    return [
        {"k": k, "left": Fraction(k, scale), "right": Fraction(k + 1, scale), "density": scale * mass}
        for k, mass in enumerate(analysis.pmodel_cell_masses(args.n, args.p))
    ]


def _triangle_oracle(args) -> list[dict[str, Any]]:
    return [{"k": k, "exponent": e} for k, e in enumerate(exact.geometric_triangle_row(args.n))]


ORACLE_ROWS = {
    "pmf": _pmf_oracle,
    "cdf": _cdf_oracle,
    "density": _density_oracle,
    "triangle": _triangle_oracle,
}


class TestRendering:
    COMMANDS = [
        ("pmf", "--n", "3", "--p", "2/3"),
        ("cdf", "--n", "4", "--p", "1/3", "--resolution", "3"),
        ("cdf", "--n", "3", "--p", "1/2"),
        ("triangle", "--n", "0"),
        ("triangle", "--n", "4"),
        ("moments", "--n", "3", "--p", "3/7"),
        ("decompose", "--n", "4"),
        ("sample", "--n", "3", "--p", "2/3", "--reps", "100", "--seed", "3"),
        ("sample", "--n", "4", "--p", "1/3", "--reps", "100", "--parents", "gauss:-5,2;uniform:-1,0"),
        ("converge", "--n", "3", "--p", "1/4"),
        ("density", "--n", "3", "--p", "7/10"),
        ("pmf", "--n", "5", "--p", "2/3"),
        ("density", "--n", "4", "--p", "7/10"),
        # gcd(k, 2**n - 1) > 1 for many k: 63 = 3**2 * 7, 4095 = 3**2 * 5 * 7 * 13
        ("pmf", "--n", "6", "--p", "3/7"),
        ("pmf", "--n", "12", "--p", "2/3"),
    ]

    @staticmethod
    def expected(argv, format):
        # the 2**n tables from their oracle rows; the small list tables are
        # dict rows already, so for them the renderers check the layout
        args = cli.parse_config(list(argv))
        rows = ORACLE_ROWS.get(args.command, cli._COMMANDS[args.command][1])(args)
        return ORACLES[format](rows)

    @pytest.mark.parametrize("format", ["csv", "json"])
    @pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
    def test_stdout_matches_oracle(self, capsys, argv, format):
        code, out, _ = run_cli(capsys, *argv, "--format", format)
        assert code == 0
        assert out == self.expected(argv, format)

    @pytest.mark.parametrize("format", ["csv", "json"])
    @pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
    def test_file_matches_oracle(self, capsys, tmp_path, argv, format):
        target = tmp_path / f"table.{format}"
        code, out, _ = run_cli(capsys, *argv, "--format", format, "--output", str(target))
        assert (code, out) == (0, "")
        assert target.read_bytes() == self.expected(argv, format).encode("utf-8")

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_scalars_and_shared_values(self, capsys, format):
        shared, third = Fraction(-1, 3), Fraction(4)
        rows = [
            {"whole": third, "neg": -0.25, "int": -7, "big": 10**30, "flag": True,
             "text": 'a "b" \u00e9', "tiny": 5e-324, "q": shared},
            {"whole": Fraction(-3, 1), "neg": -1e300, "int": 0, "big": 257, "flag": False,
             "text": "", "tiny": -0.0, "q": shared},
            {"whole": third, "neg": -2.5, "int": -300, "big": -(2**70), "flag": True,
             "text": "x", "tiny": 1.5, "q": Fraction(-1, 3)},
        ]
        assert cli.emit_table(rows, format, "-") == 0
        assert capsys.readouterr().out == ORACLES[format](rows)


class TestRowView:
    """A 2**n table is sized, declares its columns, and yields each row as
    a tuple of cell texts: one per scalar column, exact and approx per
    rational one."""

    @pytest.mark.parametrize(
        "argv, count",
        [
            (("pmf", "--n", "4", "--p", "2/3"), 16),
            (("cdf", "--n", "5", "--p", "1/3", "--resolution", "3"), 9),
            (("triangle", "--n", "3"), 8),
            (("density", "--n", "3", "--p", "7/10"), 8),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, tuple) else str(value),
    )
    def test_sized_and_reiterable(self, argv, count):
        args = cli.parse_config(list(argv))
        table = cli._COMMANDS[args.command][1](args)
        oracle = ORACLE_ROWS[args.command](args)
        assert len(table) == len(oracle) == count
        assert list(table.columns) == [
            (key, isinstance(value, Fraction)) for key, value in oracle[0].items()
        ]
        assert list(table) == [
            tuple(text for value in row.values() for _, text in _cell(value)) for row in oracle
        ]


class TestNoStoredRow:
    """Every 2**n table reads ones(k) from k, so geometric_triangle_row's
    doubling recursion stays an independent oracle that no table calls."""

    ARGV = {
        "pmf": ("--n", "4", "--p", "2/3"),
        "cdf": ("--n", "5", "--p", "1/3", "--resolution", "4"),
        "triangle": ("--n", "4"),
        "moments": ("--n", "5", "--p", "3/7"),
        "decompose": ("--n", "4"),
        "sample": ("--n", "3", "--p", "2/3", "--reps", "50", "--seed", "3"),
        "converge": ("--n", "3", "--p", "1/4"),
        "density": ("--n", "4", "--p", "7/10"),
    }

    def test_tables_never_build_the_row(self, capsys, monkeypatch):
        assert set(self.ARGV) == set(cli._COMMANDS)
        normal = {command: run_cli(capsys, command, *argv) for command, argv in self.ARGV.items()}

        def refuse(n):
            raise AssertionError(f"a table built the exponent row of depth {n}")

        monkeypatch.setattr(exact, "geometric_triangle_row", refuse)
        for command, argv in self.ARGV.items():
            assert run_cli(capsys, command, *argv) == normal[command], command
        params = WeaverParams(n=5, p=Fraction(3, 7))
        pmf = exact.build_pmf_vector(params).pmf
        assert pmf == tuple(exact.pmf_point(k, params) for k in range(32))
        sums, denominator = exact.cdf_grid(params, 4)
        assert [Fraction(total, denominator) for total in sums] == [
            exact.cdf_at_dyadic(exact.DyadicPoint(k, 4), params) for k in range(17)
        ]
        assert analysis.exact_moment(params, 1) == params.p
        assert analysis.exact_moment(params, 2) == (
            analysis.exact_variance(params) + params.p**2
        )


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def split(monkeypatch):
    """``split(choose)`` makes each 2**n table split at row
    ``choose(count)``, once the rule, with the threshold and the CPU
    count patched, has picked the middle; it returns the list of forks
    made in this process."""

    def set_split(choose):
        forks, fork, write = [], os.fork, cli._write

        def counted_fork():
            forks.append(fork())
            return forks[-1]

        def split_write(table, layout, handle, mid):
            if mid < len(table):  # a list table keeps all its rows here
                assert mid == len(table) // 2
                mid = choose(len(table))
            write(table, layout, handle, mid)

        monkeypatch.setattr(cli, "_SPLIT_ROWS", 2)
        monkeypatch.setattr(_host, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(cli, "_write", split_write)
        return forks

    return set_split


class TestTwoProcesses:
    """A 2**n table of at least ``cli._SPLIT_ROWS`` rows, where two CPUs
    are granted, is rendered on two processes: a forked child renders the
    rows from the split point on.  Here the threshold and the CPU count
    are patched, so small tables split, and the split point is moved to
    each end and the middle; the bytes must equal those of one process."""

    TABLES = [
        ("pmf", "--n", "4", "--p", "2/3"),
        ("cdf", "--n", "5", "--p", "1/3", "--resolution", "4"),
        ("cdf", "--n", "3", "--p", "1/2"),
        ("triangle", "--n", "4"),
        ("density", "--n", "3", "--p", "7/10"),
    ]

    @pytest.mark.parametrize(
        "choose", [lambda count: 1, lambda count: count // 2, lambda count: count - 1],
        ids=["first", "middle", "last"],
    )
    @pytest.mark.parametrize("format", ["csv", "json"])
    @pytest.mark.parametrize("argv", TABLES, ids=" ".join)
    def test_same_bytes(self, capsys, tmp_path, split, argv, format, choose):
        argv = (*argv, "--format", format)
        one, target = run_cli(capsys, *argv), tmp_path / "table"
        assert one[0] == 0 and one[1]
        run_cli(capsys, *argv, "--output", str(target))
        one_file = target.read_bytes()
        forks = split(choose)
        assert run_cli(capsys, *argv) == one
        assert run_cli(capsys, *argv, "--output", str(target)) == (0, "", "")
        assert target.read_bytes() == one_file == one[1].encode()
        assert len(forks) == 2
        _no_child_left()

    def test_list_tables_stay_on_one_process(self, capsys, split):
        forks = split(lambda count: 1)
        for argv in [("decompose", "--n", "5"), ("moments", "--n", "3", "--p", "3/7"),
                     ("converge", "--n", "4", "--p", "1/4")]:
            assert run_cli(capsys, *argv)[0] == 0
        assert forks == []

    def test_split_rule(self, monkeypatch):
        monkeypatch.setattr(cli, "_SPLIT_ROWS", 100)
        monkeypatch.setattr(_host, "cpu_count", lambda: 2)
        assert [cli._split_point(count) for count in (99, 100, 101)] == [99, 50, 50]
        monkeypatch.setattr(_host, "cpu_count", lambda: 1)
        assert cli._split_point(1000) == 1000
        monkeypatch.setattr(_host, "cpu_count", lambda: 2)
        monkeypatch.delattr(os, "fork")
        assert cli._split_point(1000) == 1000

    def test_cpu_count_reads_the_affinity_mask(self):
        if hasattr(os, "sched_getaffinity"):
            assert _host.cpu_count() == len(os.sched_getaffinity(0))
        assert _host.cpu_count() >= 1

    @staticmethod
    def _rows_that(monkeypatch, parent=None, child=None):
        """Tables whose rows run ``parent`` before the first row this process
        renders and ``child`` before the first row the child renders."""
        write = cli._write

        def hooked_write(table, layout, handle, mid):
            rows = table.rows

            def hooked(start, stop):
                hook = parent if start == 0 else child
                if hook is not None:
                    hook()
                yield from rows(start, stop)

            table.rows = hooked
            write(table, layout, handle, mid)

        monkeypatch.setattr(cli, "_write", hooked_write)

    @pytest.mark.parametrize(
        "error, reason",
        [
            (ValueError("no rows here"), "no rows here"),
            (OSError(28, "No space left on device"), "[Errno 28] No space left on device"),
            (ValueError("two\nlines"), "two lines"),
            (MemoryError(), "MemoryError"),
            (None, "exit status -9"),  # killed, with no text
        ],
        ids=["value", "os", "two-lines", "no-text", "killed"],
    )
    def test_failing_child_exits_2(self, capfd, monkeypatch, split, error, reason):
        split(lambda count: count // 2)

        def fail():
            if error is None:
                os.kill(os.getpid(), signal.SIGKILL)
            raise error

        self._rows_that(monkeypatch, child=fail)
        for output in ("-", os.devnull):
            assert cli.main(["pmf", "--n", "4", "--p", "2/3", "--output", output]) == 2
            err = capfd.readouterr().err
            message = f"the child process rendering rows 8 to 15 failed: {reason}"
            assert err == f"weaver: error: {message}\n"
            _no_child_left()

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failing_parent_stops_and_reaps_the_child(self, capfd, monkeypatch, split, error):
        # the child would take 20 s to render; the parent fails at once and
        # kills it rather than wait
        split(lambda count: count // 2)

        def fail():
            raise error("stopped")

        self._rows_that(monkeypatch, parent=fail, child=lambda: time.sleep(20))
        start = time.perf_counter()
        if error is OSError:
            assert cli.main(["triangle", "--n", "3"]) == 2
            assert capfd.readouterr().err == "weaver: i/o error: stopped\n"
        else:
            with pytest.raises(KeyboardInterrupt):
                cli.main(["triangle", "--n", "3"])
        assert time.perf_counter() - start < 10
        _no_child_left()


class _CountingHandle(io.StringIO):
    """A text handle that counts its write calls, each line of a
    writelines call as one."""

    calls = 0

    def write(self, text):
        self.calls += 1
        return super().write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


class TestBatches:
    """The rows of a table are written ``cli._BATCH_ROWS`` at a time.  A
    batch of 1, 2 or 3 rows or of more rows than the table has, on one
    process or two, must give the same bytes, with no write per row."""

    @pytest.mark.parametrize("two", [False, True], ids=["one-process", "split"])
    @pytest.mark.parametrize("batch", [1, 2, 3, 1000])
    @pytest.mark.parametrize("format", ["csv", "json"])
    @pytest.mark.parametrize("argv", TestTwoProcesses.TABLES, ids=" ".join)
    def test_same_bytes(self, capsys, tmp_path, monkeypatch, split, argv, format, batch, two):
        argv = (*argv, "--format", format)
        one = run_cli(capsys, *argv)
        assert one[0] == 0 and one[1]
        monkeypatch.setattr(cli, "_BATCH_ROWS", batch)
        forks = split(lambda count: count // 2) if two else []
        target = tmp_path / "table"
        assert run_cli(capsys, *argv) == one
        assert run_cli(capsys, *argv, "--output", str(target)) == (0, "", "")
        assert target.read_bytes() == one[1].encode()
        assert len(forks) == (2 if two else 0)
        _no_child_left()

    @pytest.mark.parametrize("batch", [None, 1, 100])
    @pytest.mark.parametrize(
        "argv, rows",
        [
            (("pmf", "--n", "10", "--p", "2/3", "--format", "json"), 1024),
            (("triangle", "--n", "12"), 4096),
            (("cdf", "--n", "9", "--p", "1/3"), 513),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, tuple) else str(value),
    )
    def test_write_calls(self, capsys, monkeypatch, argv, rows, batch):
        expected = run_cli(capsys, *argv)
        if batch is not None:
            monkeypatch.setattr(cli, "_BATCH_ROWS", batch)
        handle = _CountingHandle()
        monkeypatch.setattr(sys, "stdout", handle)
        assert cli.main(list(argv)) == 0
        assert handle.getvalue() == expected[1]
        assert handle.calls <= -(-rows // cli._BATCH_ROWS) + 2


class TestRationalCell:
    """Both texts of a rational cell against str() and float() of its Fraction."""

    pairs = st.one_of(
        st.tuples(st.integers(-(10**12), 10**12), st.integers(1, 10**12)),
        # quotients below 2**-1022 are subnormal binary64 values (or round to 0)
        st.tuples(st.integers(-(2**70), 2**70), st.integers(2**1060, 2**1140)),
    )

    @given(pair=pairs, common=st.integers(1, 10**6))
    @example(pair=(0, 1), common=1)
    @example(pair=(0, 9), common=4)
    @example(pair=(-12, 1), common=1)
    @example(pair=(5, 1), common=6)
    @example(pair=(1, 2**1074), common=1)
    @example(pair=(-1, 2**1075), common=3)
    @example(pair=(3**300 + 1, 2**1500), common=7)
    def test_matches_fraction(self, pair, common):
        num, den = pair[0] * common, pair[1] * common  # unreduced when common > 1
        value = Fraction(num, den)
        assert cli._rational(num, den) == (str(value), repr(float(value)))


class TestPmfCommand:
    def test_exact_column_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--n", "3", "--p", "2/3")
        assert code == 0
        rows = csv_rows(out)
        masses = [Fraction(row["p_exact"]) for row in rows]
        assert masses == [
            Fraction(1, 27), Fraction(2, 27), Fraction(2, 27), Fraction(4, 27),
            Fraction(2, 27), Fraction(4, 27), Fraction(4, 27), Fraction(8, 27),
        ]
        assert [Fraction(row["y_exact"]) for row in rows] == [
            Fraction(k, 7) for k in range(8)
        ]

    def test_json_structure(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--n", "2", "--p", "0.5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 4
        assert payload[0]["p"] == {"exact": "1/4", "approx": 0.25}

    def test_approx_column_is_repr(self, capsys):
        _, out, _ = run_cli(capsys, "pmf", "--n", "1", "--p", "1/3")
        rows = csv_rows(out)
        assert rows[0]["p_approx"] == repr(2 / 3)


class TestCdfCommand:
    def test_defaults_to_full_resolution(self, capsys):
        _, out, _ = run_cli(capsys, "cdf", "--n", "2", "--p", "1/3")
        rows = csv_rows(out)
        assert len(rows) == 5  # grid 0/4 .. 4/4
        assert rows[0]["F_exact"] == "0"
        assert rows[-1]["F_exact"] == "1"

    def test_coarser_grid(self, capsys):
        _, out, _ = run_cli(capsys, "cdf", "--n", "6", "--p", "1/3", "--resolution", "1")
        rows = csv_rows(out)
        assert [row["F_exact"] for row in rows] == ["0", "2/3", "1"]

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_one_grid_per_table(self, capsys, monkeypatch, format):
        # one call runs the grid's checks and gives the denominator before
        # the first byte; the rows read one grid from their first k
        calls = []
        grid = exact.cdf_grid

        def counted(*args):
            calls.append(args)
            return grid(*args)

        monkeypatch.setattr(exact, "cdf_grid", counted)
        argv = ("cdf", "--n", "5", "--p", "1/3", "--resolution", "4", "--format", format)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        params = WeaverParams(n=5, p=Fraction(1, 3))
        assert calls == [(params, 4), (params, 4, 0)]
        monkeypatch.undo()
        assert run_cli(capsys, *argv) == (0, out, "")


class TestOtherTables:
    @pytest.mark.parametrize("n", range(11))
    def test_triangle(self, capsys, n):
        # the table reads ones(k) from k; the doubling recursion is the oracle
        _, out, _ = run_cli(capsys, "triangle", "--n", str(n))
        rows = csv_rows(out)
        assert [row["k"] for row in rows] == [str(k) for k in range(1 << n)]
        assert [row["exponent"] for row in rows] == list(map(str, exact.geometric_triangle_row(n)))

    def test_moments_contains_closed_forms(self, capsys):
        _, out, _ = run_cli(capsys, "moments", "--n", "3", "--p", "1/2", "--max-order", "1")
        by_name = {row["statistic"]: row["value_exact"] for row in csv_rows(out)}
        assert by_name["mean"] == "1/2"
        assert by_name["variance"] == "3/28"
        assert by_name["limit_variance"] == "1/12"
        assert by_name["moment_1"] == "1/2"

    @pytest.mark.parametrize("n", [20, 64])
    def test_moments_beyond_the_table_cap(self, capsys, n):
        # the moments walk the n selection bits, so no depth is refused
        p = Fraction(3, 7)
        code, out, _ = run_cli(capsys, "moments", "--n", str(n), "--p", "3/7")
        assert code == 0
        by_name = {row["statistic"]: Fraction(row["value_exact"]) for row in csv_rows(out)}
        assert by_name["moment_1"] == p
        variance = Fraction(4**n - 1, 3 * (2**n - 1) ** 2) * p * (1 - p)
        assert by_name["moment_2"] == variance + p**2

    def test_moments_high_order(self, capsys):
        # order 300, the cap, from one pass, against the 8 leaves summed directly
        assert cli._MOMENT_ORDER_CAP == 300
        _, out, _ = run_cli(capsys, "moments", "--n", "3", "--p", "1/2", "--max-order", "300")
        by_name = {row["statistic"]: row for row in csv_rows(out)}
        moment = sum(Fraction(k, 7) ** 300 for k in range(8)) / 8
        assert by_name["moment_300"]["value_exact"] == str(moment)
        assert by_name["moment_300"]["value_approx"] == repr(float(moment))
        assert len(by_name) == 303

    def test_decompose_table(self, capsys):
        _, out, _ = run_cli(capsys, "decompose", "--n", "5")
        rows = csv_rows(out)
        assert [row["weaving"] for row in rows] == ["1", "5", "21", "85", "341"]
        assert [row["merging"] for row in rows] == ["0", "4", "28", "140", "620"]
        assert rows[-1]["denom"] == "961"

    def test_converge_ratio(self, capsys):
        _, out, _ = run_cli(capsys, "converge", "--n", "3", "--p", "1/4")
        rows = csv_rows(out)
        assert [row["ratio_exact"] for row in rows] == ["1", "5/9", "3/7"]

    def test_density_cells(self, capsys):
        _, out, _ = run_cli(capsys, "density", "--n", "1", "--p", "7/10")
        rows = csv_rows(out)
        assert [row["density_exact"] for row in rows] == ["3/5", "7/5"]
        assert rows[0]["left_exact"] == "0"
        assert rows[1]["right_exact"] == "1"

    def test_density_matches_halving_cascade(self, capsys):
        _, out, _ = run_cli(capsys, "density", "--n", "6", "--p", "7/10")
        rows = csv_rows(out)
        masses = analysis.pmodel_cell_masses(6, Fraction(7, 10))
        assert [Fraction(row["density_exact"]) for row in rows] == [64 * m for m in masses]
        for k, row in enumerate(rows):
            assert Fraction(row["left_exact"]) == Fraction(k, 64)
            assert Fraction(row["right_exact"]) == Fraction(k + 1, 64)


class TestSampleCommand:
    def test_report_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--n", "5", "--p", "1/2", "--reps", "500",
            "--seed", "4", "--format", "json",
        )
        assert code == 0
        (row,) = json.loads(out)
        assert row["replications"] == 500
        assert row["exact_mean"] == {"exact": "1/2", "approx": 0.5}
        assert abs(row["z_score"]) < 5

    def test_parents_are_standardized_before_running(self, capsys):
        # any two-population spec with distinct means is accepted
        code, out, _ = run_cli(
            capsys, "sample", "--n", "4", "--p", "1/2",
            "--parents", "uniform:0,4;gauss:9,1", "--reps", "200", "--seed", "1",
        )
        assert code == 0
        row = csv_rows(out)[0]
        assert abs(float(row["empirical_mean"]) - 0.5) < 0.2

    def test_byte_identical_across_invocations(self, capsys):
        args = ("sample", "--n", "6", "--p", "2/3", "--reps", "300", "--seed", "12")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_default_parents_are_point_masses_at_0_and_1(self, capsys):
        args = ("sample", "--n", "5", "--p", "2/3", "--reps", "300", "--seed", "9")
        _, default, _ = run_cli(capsys, *args)
        _, explicit, _ = run_cli(capsys, *args, "--parents", "point:0;point:1")
        assert default == explicit

    def test_degenerate_parents_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--n", "4", "--p", "1/2",
            "--parents", "point:1;point:1", "--reps", "200", "--seed", "0",
        )
        assert code == 2
        assert "error" in err


class TestHelp:
    def test_help_leaves_out_the_module_notes(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--help"])
        assert excinfo.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # argparse refolds lines
        for line in cli.__doc__.splitlines()[1:]:
            assert not line.strip() or " ".join(line.split()) not in text


class TestParserBytes:
    """The parser's texts at 80 columns, byte for byte: --help of weaver
    and of each command, and the whole stderr of usage errors."""

    HELP_DIGESTS = {
        (): "180947cbc3b7cdcfc9e9a2facd850c47a4c60d8a46a6b26f75b66bf75c634c8c",
        ("pmf",): "39d880aa0cff8f516d30ec2c16975ce9d5a4c3b75938657b2d152ec6b90203e1",
        ("cdf",): "32b431fce34efc21014a98353e10af5dbce9250f5986270ba3320cb91f713bbd",
        ("triangle",): "a4017de1b2859e13523f96ac97b6b6fc14a18273f6771c597d8df3f173943840",
        ("moments",): "58d8182c2a159bed65d1d3e9fc54087825f7b7358917cc4dc53e37f9fb45770c",
        ("decompose",): "d5cfe067d445252b08d542b8b8e4e85ee55c3383bc11151933faef7dc18fe9a8",
        ("sample",): "f19381188e404ad1a88659fa73c7dc1817eeec66c15df71729bf27b77b736c68",
        ("converge",): "140d7d9baed19c9582d4ed1703fd875ff75334922303afecbb25c65415e38dd9",
        ("density",): "127b19f6351289c24030144ebda9e004940a6298b911399d8a0037b07dce6044",
    }

    _PMF = "usage: weaver pmf [-h] [--format {csv,json}] [--output OUTPUT] --n N --p P\n"
    USAGE_ERRORS = {
        ("pmf", "--n", "x"):
            _PMF + "weaver pmf: error: argument --n: invalid _positive_int value: 'x'\n",
        ("pmf", "--n", "0"):
            _PMF + "weaver pmf: error: argument --n: expected a positive integer, got 0\n",
        ("triangle", "--n", "-1"):
            "usage: weaver triangle [-h] [--format {csv,json}] [--output OUTPUT] --n N\n"
            "weaver triangle: error: argument --n: expected a non-negative integer, got -1\n",
        ("moments", "--max-order", "0"):
            "usage: weaver moments [-h] [--format {csv,json}] [--output OUTPUT] --n N --p P\n"
            "                      [--max-order MAX_ORDER]\n"
            "weaver moments: error: argument --max-order: expected a positive integer, got 0\n",
        ("cdf", "--resolution", "x"):
            "usage: weaver cdf [-h] [--format {csv,json}] [--output OUTPUT] --n N --p P\n"
            "                  [--resolution RESOLUTION]\n"
            "weaver cdf: error: argument --resolution: invalid _positive_int value: 'x'\n",
        ("pmf", "--n", "3"):
            _PMF + "weaver pmf: error: the following arguments are required: --p\n",
        ("bogus",):
            "usage: weaver [-h]\n"
            "              {pmf,cdf,triangle,moments,decompose,sample,converge,density} ...\n"
            "weaver: error: argument command: invalid choice: 'bogus' (choose from 'pmf', "
            "'cdf', 'triangle', 'moments', 'decompose', 'sample', 'converge', 'density')\n",
    }

    @pytest.mark.parametrize("command", HELP_DIGESTS, ids=lambda argv: " ".join(argv) or "weaver")
    def test_help(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to it
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*command, "--help"])
        assert excinfo.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == self.HELP_DIGESTS[command]

    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
    def test_usage_error(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as excinfo:
            cli.main(list(argv))
        assert excinfo.value.code == 1
        assert capsys.readouterr() == ("", self.USAGE_ERRORS[argv])


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("pmf", "--n", "0", "--p", "1/2"),
            ("pmf", "--n", "3", "--p", "0"),
            ("pmf", "--n", "3", "--p", "5/4"),
            ("pmf", "--n", "3", "--p", "abc"),
            ("sample", "--n", "4", "--p", "1/2", "--parents", "gauss:0,1"),
            ("sample", "--n", "4", "--p", "1/2", "--parents", "warp:0,1;gauss:1,1"),
            ("no-such-command",),
            ("sample", "--n", "4", "--p", "1/2", "--seed", "-1"),
            ("sample", "--n", "4", "--p", "1/2", "--parents", "gauss:0,nan;gauss:1,1"),
            ("decompose", "--n", "6", "--p", "2/3"),  # the split does not depend on p
        ],
    )
    def test_exit_1(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(list(argv))
        assert excinfo.value.code == 1

    @pytest.mark.parametrize("text", ["nan", "inf", "abc", "1/0"])
    def test_unparsable_probability_message(self, capsys, text):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["pmf", "--n", "3", "--p", text])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert f"argument --p: cannot parse '{text}' as a fraction 'a/b' or a decimal\n" in err
        assert "Traceback" not in err

    # the whole stderr of a parent spec that its family's factory rejects,
    # pinned as the CLI printed it when the factory ran inside argparse
    _USAGE = (
        "usage: weaver sample [-h] [--format {csv,json}] [--output OUTPUT] --n N --p P\n"
        "                     [--parents PARENTS] [--reps REPS] [--seed SEED]\n"
    )

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("gauss:0,-1;gauss:1,1", "variance must be non-negative, got -1.0"),
            ("uniform:1,0;point:1", "uniform interval needs a < b, got (1.0, 0.0)"),
            ("bernoulli:2;point:0", "bernoulli parameter must lie in [0, 1], got 2.0"),
            ("gauss:0,nan;gauss:1,1", "gaussian parameters must be finite, got (0.0, nan)"),
        ],
    )
    def test_rejected_parent_stderr(self, capsys, monkeypatch, spec, message):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage to it
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sample", "--n", "4", "--p", "1/2", "--parents", spec])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{self._USAGE}weaver sample: error: argument --parents: {message}\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("--parents", "gauss:0,-1;gauss:1,1", "--reps", "0"),
                "argument --parents: variance must be non-negative, got -1.0",
            ),
            (
                ("--reps", "0", "--parents", "gauss:0,-1;gauss:1,1"),
                "argument --reps: expected a positive integer, got 0",
            ),
        ],
    )
    def test_first_error_in_argv_order(self, capsys, argv, message):
        # argparse builds the parents as it converts --parents, so a spec
        # its family rejects is reported where it stands in argv
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sample", "--n", "4", "--p", "1/2", *argv])
        assert excinfo.value.code == 1
        assert capsys.readouterr().err.endswith(f"weaver sample: error: {message}\n")

    def test_probability_range_message_shared_with_params(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["pmf", "--n", "3", "--p", "1.25"])
        assert excinfo.value.code == 1
        with pytest.raises(RangeError) as error:
            exact.WeaverParams(n=3, p="1.25")
        assert f"argument --p: {error.value}" in capsys.readouterr().err


class TestRuntimeErrors:
    def test_capacity_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "pmf", "--n", "30", "--p", "1/2")
        assert code == 2
        assert "materialization cap" in err
        # one above the cap, in each table's own wording; cdf's resolution
        # defaults to its depth.  A refused table opens no output file.
        target = tmp_path / "table"
        for argv, what in [
            (("pmf", "--n", "20", "--p", "1/2"), "pmf vector"),
            (("density", "--n", "20", "--p", "7/10"), "pmf vector"),
            (("triangle", "--n", "20"), "triangle row"),
            (("cdf", "--n", "20", "--p", "1/3"), "cdf grid"),
        ]:
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.count("\n") == 1, argv
            assert f"{what} needs 2**20 entries, above the materialization cap 19" in err
            assert run_cli(capsys, *argv, "--output", str(target))[0] == 2
            assert not target.exists(), argv

    def test_cdf_capacity_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "cdf", "--n", "30", "--p", "1/3")
        assert code == 2
        assert out == ""
        assert "cdf grid needs 2**30 entries" in err

    def test_degenerate_slope_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--n", "4", "--p", "1/2",
            "--parents", "point:0;point:1e-320", "--reps", "200",
        )
        assert code == 2
        assert "standardizing slope" in err

    def test_cdf_resolution_above_depth_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "cdf", "--n", "3", "--p", "1/3", "--resolution", "5")
        assert code == 2
        assert out == ""
        assert "resolution 5 exceeds construction depth 3" in err

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_overflowing_sample_statistics_exit_2(self, capsys, format):
        code, out, err = run_cli(
            capsys, "sample", "--n", "3", "--p", "1/2", "--reps", "100",
            "--parents", "gauss:0,1e308;gauss:1,1e308", "--format", format,
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("weaver: error: empirical_variance is inf")

    # uniform intervals whose variance overflows binary64; the last one
    # overflows numpy's block sums too
    OVERFLOWING_UNIFORMS = [
        "uniform:-1e200,1e200;point:1",
        "uniform:0,1e200;uniform:1e200,2e200",
        "uniform:-1e308,1e308;point:1",
    ]

    @pytest.mark.parametrize("spec", OVERFLOWING_UNIFORMS)
    def test_overflowing_uniform_exit_2(self, capsys, spec):
        code, out, err = run_cli(
            capsys, "sample", "--n", "3", "--p", "1/2", "--reps", "100", "--parents", spec,
        )
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("weaver: error: ")
        assert err.endswith("overflows binary64\n")

    def test_overflowing_uniform_real_stderr(self):
        # pytest records warnings rather than printing them, so the real
        # stderr is read from a process of its own
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        run = subprocess.run(
            [sys.executable, "-m", "weaver", "sample", "--n", "3", "--p", "1/2", "--reps", "100",
             "--parents", self.OVERFLOWING_UNIFORMS[-1]],
            capture_output=True, env=env, timeout=120,
        )
        assert (run.returncode, run.stdout) == (2, b"")
        assert run.stderr.count(b"\n") == 1
        assert run.stderr.endswith(b"overflows binary64\n")

    def test_vanishing_standard_error_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--n", "3", "--reps", "100", "--p", "1e-400")
        assert (code, out) == (2, "")
        assert err == "weaver: error: standard_error is 0.0: the exact variance underflows binary64\n"

    def test_moment_order_above_the_cap(self, capsys):
        # TestOtherTables::test_moments_high_order runs at the cap
        code, out, err = run_cli(capsys, "moments", "--n", "1", "--p", "1/2", "--max-order", "301")
        assert (code, out) == (2, "")
        assert err == "weaver: error: moments of order 301 are above the order cap 300\n"

    def test_unwritable_output_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "pmf", "--n", "2", "--p", "1/2",
            "--output", str(tmp_path / "missing" / "out.csv"),
        )
        assert code == 2
        assert "i/o error" in err


def _tiny(zeros: int) -> str:
    """p = 1/10**zeros as the CLI reads it: a denominator of zeros + 1 digits."""
    return "1/1" + "0" * zeros


def _argv_id(value):
    if not isinstance(value, tuple):
        return str(value)
    return " ".join(a if len(a) < 20 else f"<{len(a)} chars>" for a in value)


@pytest.fixture
def digit_limit():
    """Python's int-to-str limit at its default, 4300 digits, whatever the
    environment sets (PYTHONINTMAXSTRDIGITS)."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


class TestDigitLimit:
    """A table whose exact cells need an int longer than the int-to-str
    limit is refused before its first byte: exit 2, one stderr line, no
    stdout and no output file.  Each case is one step past its bound."""

    MESSAGE = (
        "weaver: error: a table cell needs an integer of more than 4300 digits, "
        "above Python's int-to-str limit (PYTHONINTMAXSTRDIGITS raises it)\n"
    )

    @pytest.mark.parametrize(
        "argv",
        [
            # d**n, the masses' denominator, reaches 4301 digits (d = 10**1434, n = 3)
            ("pmf", "--n", "3", "--p", _tiny(1434)),
            ("cdf", "--n", "4", "--resolution", "3", "--p", _tiny(1434)),
            # the densities reduce by 2**n: 10**4302 / 4 has 4301 digits
            ("density", "--n", "2", "--p", _tiny(2151)),
            # p * (1 - p) at depth 1 has the denominator d**2
            ("converge", "--n", "1", "--p", _tiny(2150)),
            ("moments", "--n", "1", "--max-order", "1", "--p", _tiny(2150)),
            # the highest moment, in lowest terms
            ("moments", "--n", "4758", "--p", "3/7"),
            ("moments", "--n", "500", "--p", "3/7", "--max-order", "30"),
            # the last denom, (2**n - 1)**2
            ("decompose", "--n", "7143"),
            # every converge ratio prints 2**n - 1 or more
            ("converge", "--n", "14285", "--p", "1/2"),
            ("sample", "--n", "3", "--p", "1e-4300", "--reps", "100",
             "--parents", "gauss:0,1;gauss:1,1"),
        ],
        ids=_argv_id,
    )
    def test_refused_before_the_first_byte(self, capsys, tmp_path, digit_limit, argv):
        assert run_cli(capsys, *argv) == (2, "", self.MESSAGE)
        target = tmp_path / "table"
        assert run_cli(capsys, *argv, "--output", str(target)) == (2, "", self.MESSAGE)
        assert not target.exists()

    def test_converge_refused_from_its_last_row(self, capsys, tmp_path, digit_limit, monkeypatch):
        # 2**n - 1 still fits at depth 14282; the last row's variance cell does not
        calls = []
        variance = analysis.exact_variance
        monkeypatch.setattr(
            analysis, "exact_variance", lambda params: calls.append(params) or variance(params)
        )
        target = tmp_path / "table"
        for output in ("-", str(target)):
            calls.clear()
            argv = ("converge", "--n", "14282", "--p", "1/2", "--output", output)
            assert run_cli(capsys, *argv) == (2, "", self.MESSAGE)
            assert len(calls) <= 1
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv, longest",
        [
            (("pmf", "--n", "3", "--p", _tiny(1433)), 4300),
            (("cdf", "--n", "4", "--resolution", "3", "--p", _tiny(1433)), 4300),
            (("density", "--n", "2", "--p", _tiny(2150)), 4300),
            (("converge", "--n", "1", "--p", _tiny(2149)), 4299),
            (("moments", "--n", "1", "--max-order", "1", "--p", _tiny(2149)), 4299),
            (("moments", "--n", "4757", "--p", "3/7"), 4300),
            (("moments", "--n", "500", "--p", "3/7", "--max-order", "29"), 4235),
            (("sample", "--n", "3", "--p", "1e-4299", "--reps", "100",
              "--parents", "gauss:0,1;gauss:1,1"), 4300),
        ],
        ids=_argv_id,
    )
    def test_at_the_bound(self, capsys, digit_limit, argv, longest):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        cells = out.replace("/", ",").replace("\n", ",").split(",")
        assert max(len(cell.lstrip("-")) for cell in cells) == longest


class TestCapOverride:
    """What the one materialization cap bounds; nothing overrides it."""

    def test_cdf_cap_bounds_the_resolution_not_the_depth(self, capsys):
        code, out, _ = run_cli(capsys, "cdf", "--n", "24", "--p", "1/3", "--resolution", "3")
        assert code == 0
        assert len(csv_rows(out)) == 9
        code, _, err = run_cli(capsys, "cdf", "--n", "20", "--p", "1/3")
        assert code == 2
        assert "cdf grid" in err


class TestFileOutput:
    def test_csv_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "pmf", "--n", "2", "--p", "1/2", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("k,y_exact")

    def test_json_file_parses(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        run_cli(
            capsys, "decompose", "--n", "3", "--format", "json", "--output", str(target)
        )
        payload = json.loads(target.read_text())
        assert payload[2]["weaving"] == 21


# argv grammar for the fuzz test: every flag of every command, each with
# values that parse (some of them fail later, at run time) and values that
# are usage errors
_FLAG_VALUES = {
    "--n": (["1", "2", "3", "7", "9"], ["0", "-1", "x", ""]),
    "--p": (["1/2", "2/3", "0.3", "1e-9", "1e-400"], ["0", "1", "5/4", "-1/2", "1/0", "abc", "nan", "inf"]),
    "--resolution": (["1", "2", "5"], ["0", "-1", "x"]),
    "--max-order": (["1", "3"], ["0", "x"]),
    "--parents": (
        [
            "point:0;point:1", "gauss:0,1;gauss:1,1", "bernoulli:0.2;bernoulli:0.7",
            "uniform:0,1;uniform:1,2", "gauss:0,1e308;gauss:1,1e308", "point:1;point:1",
            "point:0;point:1e-320", "point:1e308;point:-1e308",
            "uniform:-1e200,1e200;point:1",
        ],
        [
            "uniform:1,0;point:1", "bernoulli:2;point:0", "gauss:0,nan;gauss:1,1",
            "gauss:0,-1;gauss:1,1", "warp:1;point:0", "point:0", "point:0,1;point:1",
        ],
    ),
    "--reps": (["100", "150"], ["1", "99", "x"]),
    "--seed": (["0", "7"], ["-1", "x"]),
    "--format": (["csv", "json"], ["xml"]),
}
_COMMON = ["--format", "--output", "--help", "--bogus"]
_COMMAND_FLAGS = {
    "pmf": ["--n", "--p"],
    "cdf": ["--n", "--p", "--resolution"],
    "triangle": ["--n"],
    "moments": ["--n", "--p", "--max-order"],
    "decompose": ["--n"],
    "sample": ["--n", "--p", "--parents", "--reps", "--seed"],
    "converge": ["--n", "--p"],
    "density": ["--n", "--p"],
    "bogus": [],
}


@st.composite
def _argv(draw, output_path):
    def value(flag):
        valid, invalid = _FLAG_VALUES[flag]
        return draw(st.sampled_from(valid if draw(st.integers(0, 5)) else invalid))

    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    flags = _COMMAND_FLAGS[command]
    argv = [command]
    for flag in flags:
        if draw(st.integers(0, 9)):  # now and then a required flag is missing
            argv += [flag, value(flag)]
    for flag in draw(st.lists(st.sampled_from(flags + _COMMON), max_size=2)):
        if flag == "--output":
            argv += [flag, draw(st.sampled_from(["-", output_path]))]
        elif flag in _FLAG_VALUES and draw(st.integers(0, 5)):
            argv += [flag, value(flag)]
        else:
            argv.append(flag)  # a bare flag, or one without its value
    return argv


@pytest.fixture(scope="module")
def fuzz_output(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "table.out")


class TestArgvFuzz:
    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(data=st.data())
    def test_exit_status_and_output_contract(self, fuzz_output, data):
        argv = data.draw(_argv(fuzz_output), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(exact, "MATERIALIZATION_CAP", 8), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exit:
                code = exit.code
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        text = out.getvalue()
        if os.path.exists(fuzz_output):
            with open(fuzz_output, encoding="utf-8") as handle:
                text += handle.read()
            os.remove(fuzz_output)
        assert "NaN" not in text
        assert "Infinity" not in text


ROOT = Path(__file__).resolve().parents[1]


class TestTracedChild:
    """bench/traced_child.py wraps public names of the package; a renamed or
    removed one breaks the traced benchmark, so it is run here on small input."""

    ROWS = {"pmf": 16, "sample": 1}  # rows each table below writes

    @pytest.mark.parametrize(
        "argv",
        [
            ("pmf", "--n", "4", "--p", "2/3"),
            ("sample", "--n", "4", "--p", "1/3", "--reps", "200"),
        ],
        ids=" ".join,
    )
    def test_stdout_unchanged_and_layers_traced(self, tmp_path, argv):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        trace = tmp_path / "trace.json"
        traced = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "traced_child.py"), str(trace), *argv],
            capture_output=True, env=env, timeout=120,
        )
        plain = subprocess.run(
            [sys.executable, "-m", "weaver", *argv], capture_output=True, env=env, timeout=120
        )
        assert traced.returncode == 0, traced.stderr.decode()
        assert plain.returncode == 0
        assert traced.stdout == plain.stdout
        summary = json.loads(trace.read_text())
        assert summary["layers"]["cli.emit_table"]["calls"] == 1
        assert summary["counts"]["cli.rows"] == self.ROWS[argv[0]]


class TestReferenceDigests:
    """The tables whose SHA-256 digests the benchmark checks, byte for byte."""

    DIGESTS = json.loads((ROOT / "bench" / "reference_digests.json").read_text())

    @pytest.mark.parametrize("command", list(DIGESTS))
    def test_table_matches_reference_digest(self, capsys, tmp_path, command):
        target = tmp_path / "table"
        code, out, _ = run_cli(capsys, *command.split(), "--output", str(target))
        assert (code, out) == (0, "")
        assert hashlib.sha256(target.read_bytes()).hexdigest() == self.DIGESTS[command]


class TestSecondDepthDigests:
    """SHA-256 of four 2**n tables at a second depth, in both formats.
    The digests were captured at commit c769f59, whose writers still
    rendered each cell by its type, before the tables declared columns
    and wrote text rows through one template."""

    DIGESTS = {
        ("pmf --n 12 --p 2/3", "csv"):
            "ffec29e902f2305ef92f4ba24c35a6571273514e15d17e3c303e92b885c082c9",
        ("pmf --n 12 --p 2/3", "json"):
            "f0f0cdd2d050b18ccdd2d74ffe496bcfb82b956d384918d0dad248cbacc5742a",
        ("density --n 12 --p 7/10", "csv"):
            "e26283c8d1ae7c892de749cf48092276ad9d19b453be3c94c63fa29493c2019c",
        ("density --n 12 --p 7/10", "json"):
            "1508ee355f696e1d1e3ba99621232b167d5a9007e234b7159660f6d3fd9b2ec5",
        ("cdf --n 14 --p 1/3 --resolution 12", "csv"):
            "f21e940f57d816fdfa4360eb4c17b2a7e9a630ba51c1ed5c00be8acace002da2",
        ("cdf --n 14 --p 1/3 --resolution 12", "json"):
            "ca10eb25e0e963ea3d02b3cf240e03fdf68a1f89c2f088e1cb631fe95d3c3de0",
        ("triangle --n 12", "csv"):
            "cfb5004d4ae28807ef4ec2b39a731b30add6b251dfb903effa92f8ce7b1b1ea8",
        ("triangle --n 12", "json"):
            "2915a7b14416aa9067580ef862f12d1c7bf368c25911cc1b9b3a0169643f408b",
    }

    @pytest.mark.parametrize("command, format", list(DIGESTS), ids="{0[0]}-{0[1]}".format)
    def test_table_matches_digest(self, capsys, tmp_path, command, format):
        target = tmp_path / "table"
        code, out, _ = run_cli(
            capsys, *command.split(), "--format", format, "--output", str(target)
        )
        assert (code, out) == (0, "")
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        assert digest == self.DIGESTS[command, format]


class TestSampleDigests:
    """SHA-256 of the ``sample`` CSV for the point, gauss, bernoulli and
    uniform parent pairs.  The uniform run reads its draws in slabs of
    4099, so each parent's stream spans many slabs and is drawn in more
    than one span wherever two CPUs are available.  The digests were
    captured at commit 026689d, whose uniform block sums were drawn in
    one pass on one thread."""

    DIGESTS = {
        ("sample --n 6 --p 2/3 --parents point:0;point:1 --reps 2000 --seed 7", None):
            "c45787ca1fcb3da4ed3f51c8bd0868527fe3c206e9ced4cf22aa5af6240dc6fb",
        ("sample --n 8 --p 2/3 --parents gauss:0,1;gauss:1,1 --reps 1500 --seed 7", None):
            "055fd1f1ac83eb807792752f6b10b46f026394d89b481a5ff19175ca807bf902",
        ("sample --n 8 --p 2/3 --parents bernoulli:0.2;bernoulli:0.7 --reps 1500 --seed 7", None):
            "f1cf9783de317c3e04d3163d08fa9efdb23c004ac8fd0c6a5e0f63b0ee3825d4",
        ("sample --n 10 --p 2/3 --parents uniform:0,1;uniform:1,2 --reps 1100 --seed 7", 4099):
            "a07c1116a2cbdfa3860c8563de808e6af0aedbd9c8e274cb66b1b4268a84b959",
    }

    @pytest.mark.parametrize(
        "command, slab", list(DIGESTS), ids=["point", "gauss", "bernoulli", "uniform"]
    )
    def test_sample_matches_digest(self, capsys, monkeypatch, command, slab):
        if slab is not None:
            monkeypatch.setattr(sampler, "UNIFORM_SLAB", slab)
        code, out, _ = run_cli(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[command, slab]
