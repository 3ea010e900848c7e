"""Command-line behaviour: tables, formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from weaver import analysis, cli, exact
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
    ]

    @staticmethod
    def expected(argv, format):
        args = cli.parse_config(list(argv))
        rows = cli._ROW_BUILDERS[args.command](args)
        # a rational cell built from integers holds its (exact, approx)
        # texts; the oracle renders the Fraction of the exact text, so the
        # approx text is checked against it too
        rows = [
            {k: Fraction(v[0]) if type(v) is tuple else v for k, v in row.items()} for row in rows
        ]
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
    """The 2**n tables are sized views whose rows are built afresh on every pass."""

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
        rows = cli._ROW_BUILDERS[args.command](args)
        first = list(rows)
        assert len(rows) == len(first) == count
        assert list(rows) == first
        assert first[0] is not next(iter(rows))  # a fresh row, not a stored one


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
        assert set(self.ARGV) == set(cli._ROW_BUILDERS)
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
        # order 200 from one pass, against the 8 leaves summed directly
        _, out, _ = run_cli(capsys, "moments", "--n", "3", "--p", "1/2", "--max-order", "200")
        by_name = {row["statistic"]: row for row in csv_rows(out)}
        moment = sum(Fraction(k, 7) ** 200 for k in range(8)) / 8
        assert by_name["moment_200"]["value_exact"] == str(moment)
        assert by_name["moment_200"]["value_approx"] == repr(float(moment))
        assert len(by_name) == 203

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

    def test_unwritable_output_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "pmf", "--n", "2", "--p", "1/2",
            "--output", str(tmp_path / "missing" / "out.csv"),
        )
        assert code == 2
        assert "i/o error" in err


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
    "--p": (["1/2", "2/3", "0.3", "1e-9"], ["0", "1", "5/4", "-1/2", "1/0", "abc", "nan", "inf"]),
    "--resolution": (["1", "2", "5"], ["0", "-1", "x"]),
    "--max-order": (["1", "3"], ["0", "x"]),
    "--parents": (
        [
            "point:0;point:1", "gauss:0,1;gauss:1,1", "bernoulli:0.2;bernoulli:0.7",
            "uniform:0,1;uniform:1,2", "gauss:0,1e308;gauss:1,1e308", "point:1;point:1",
            "point:0;point:1e-320", "point:1e308;point:-1e308",
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
    "decompose": ["--n", "--p"],
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
