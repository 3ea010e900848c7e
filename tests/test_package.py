"""The package root: it binds no names, numpy loads only with weaver.sampler,
and weaver.analysis only with the tables that use it.  Help and usage
errors load only the parser.  No run loads dataclasses, and only JSON
output loads json; the records are NamedTuples that keep the contract of
frozen records, and check their values again in _replace."""

import ast
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import weaver
from weaver.analysis import DecompositionRow
from weaver.errors import RangeError
from weaver.exact import WeaverDist, WeaverParams
from weaver.parents import ParentDistribution
from weaver.sampler import MomentReport, SampleRun

ROOT = Path(__file__).resolve().parents[1]

# run in a fresh interpreter: prints whether a module was loaded after the body
_PROBE = """
import sys
{body}
print({module!r} in sys.modules)
"""

_RUN_CLI = """
from weaver import cli
try:
    code = cli.main({argv!r})
except SystemExit as exit:  # --help
    code = exit.code
assert code == 0, code
"""

_REJECTED = """
from weaver import cli
try:
    cli.main({argv!r})
except SystemExit as exit:
    assert exit.code == 1, exit.code
else:
    raise AssertionError("accepted")
"""

_SAMPLE = ["sample", "--n", "4", "--p", "1/3"]


def _loaded(body: str, module: str) -> bool:
    result = subprocess.run(
        [sys.executable, "-c", _PROBE.format(body=body, module=module)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1] == "True"


class TestNoNumpy:
    @pytest.mark.parametrize(
        "argv",
        [
            ["pmf", "--n", "4", "--p", "2/3"],
            ["cdf", "--n", "4", "--p", "1/3", "--format", "json"],
            ["triangle", "--n", "3"],
            ["moments", "--n", "4", "--p", "3/7"],
            ["decompose", "--n", "4"],
            ["converge", "--n", "4", "--p", "1/4"],
            ["density", "--n", "3", "--p", "7/10"],
            ["sample", "--help"],
        ],
        ids=" ".join,
    )
    def test_exact_commands_never_import_numpy(self, argv):
        assert not _loaded(_RUN_CLI.format(argv=argv), "numpy")

    def test_package_import(self):
        assert not _loaded("import weaver", "numpy")

    def test_parents_import(self):
        assert not _loaded("import weaver.parents", "numpy")

    @pytest.mark.parametrize(
        "argv", [_SAMPLE, [*_SAMPLE, "--parents", "gauss:0,1;uniform:1,2"]], ids=" ".join
    )
    def test_sample_argv_parses_without_numpy(self, argv):
        # argparse builds the parents, as weaver.parents specs
        body = f"from weaver import cli\nassert cli.parse_config({argv!r}).parents[1].mean > 0"
        assert not _loaded(body, "numpy")

    # the specs of tests/test_cli.py::TestUsageErrors::test_rejected_parent_stderr
    @pytest.mark.parametrize(
        "spec",
        ["gauss:0,-1;gauss:1,1", "uniform:1,0;point:1", "bernoulli:2;point:0",
         "gauss:0,nan;gauss:1,1", "gauss:1;gauss:1,1"],
    )
    def test_rejected_spec_exits_1_without_numpy(self, spec):
        assert not _loaded(_REJECTED.format(argv=[*_SAMPLE, "--parents", spec]), "numpy")

    def test_sample_imports_numpy_and_runs(self):
        argv = ["sample", "--n", "4", "--p", "1/3", "--reps", "200", "--seed", "5"]
        assert _loaded(_RUN_CLI.format(argv=argv), "numpy")


# one small run of each command, as CSV
_CSV_RUNS = [
    ["pmf", "--n", "4", "--p", "2/3"],
    ["cdf", "--n", "4", "--p", "1/3"],
    ["triangle", "--n", "3"],
    ["moments", "--n", "4", "--p", "3/7"],
    ["decompose", "--n", "4"],
    ["sample", "--n", "4", "--p", "1/3", "--reps", "200", "--seed", "5"],
    ["converge", "--n", "4", "--p", "1/4"],
    ["density", "--n", "3", "--p", "7/10"],
]


class TestStartup:
    """What a run loads that it does not execute shows in every start-up."""

    @pytest.mark.parametrize("argv", [*_CSV_RUNS, ["--help"], ["sample", "--help"]], ids=" ".join)
    def test_no_run_loads_dataclasses(self, argv):
        assert not _loaded(_RUN_CLI.format(argv=argv), "dataclasses")

    @pytest.mark.parametrize("module", ["weaver.exact", "weaver.parents", "weaver.sampler"])
    def test_no_module_loads_dataclasses(self, module):
        assert not _loaded(f"import {module}", "dataclasses")

    @pytest.mark.parametrize("argv", [*_CSV_RUNS, ["--help"]], ids=" ".join)
    def test_csv_runs_never_load_json(self, argv):
        assert not _loaded(_RUN_CLI.format(argv=argv), "json")

    @pytest.mark.parametrize(
        "argv", [["triangle", "--n", "3"], ["moments", "--n", "4", "--p", "3/7"]], ids=" ".join
    )
    def test_json_output_loads_json(self, argv):
        assert _loaded(_RUN_CLI.format(argv=[*argv, "--format", "json"]), "json")


# each record: its fields in order, its repr, and for a record that checks
# its values, field changes that its constructor refuses
_RECORDS = [
    (WeaverParams, {"n": 3, "p": Fraction(1, 3)}, "WeaverParams(n=3, p=Fraction(1, 3))",
     [{"n": 0}, {"n": True}, {"p": Fraction(1)}, {"p": "abc"}]),
    (WeaverDist,
     {"params": WeaverParams(n=1, p=Fraction(1, 2)), "pmf": (Fraction(1, 2), Fraction(1, 2))},
     "WeaverDist(params=WeaverParams(n=1, p=Fraction(1, 2)), "
     "pmf=(Fraction(1, 2), Fraction(1, 2)))", []),
    (DecompositionRow,
     {"n": 2, "denom": 9, "weaving": 5, "merging": 4,
      "weaving_share": Fraction(5, 9), "merging_share": Fraction(4, 9)},
     "DecompositionRow(n=2, denom=9, weaving=5, merging=4, weaving_share=Fraction(5, 9), "
     "merging_share=Fraction(4, 9))", []),
    (ParentDistribution, {"family": "gaussian", "params": (0.0, 1.0), "scale": 1.0, "shift": 0.0},
     "ParentDistribution(family='gaussian', params=(0.0, 1.0), scale=1.0, shift=0.0)",
     [{"scale": float("inf")}, {"shift": float("nan")}, {"params": (0.0, -1.0)},
      {"params": (0.0,)}, {"family": "cauchy"}]),
    (SampleRun,
     {"n": 1, "k": 1, "parent_sums": (0.0, 1.0), "total": 1.0, "mean": 1.0,
      "conditional_mean": Fraction(1)},
     "SampleRun(n=1, k=1, parent_sums=(0.0, 1.0), total=1.0, mean=1.0, "
     "conditional_mean=Fraction(1, 1))", []),
    (MomentReport,
     {"replications": 100, "empirical_mean": 0.5, "empirical_variance": 0.25,
      "exact_mean": Fraction(1, 2), "exact_variance": 0.25, "standard_error": 0.05,
      "z_score": 0.0},
     "MomentReport(replications=100, empirical_mean=0.5, empirical_variance=0.25, "
     "exact_mean=Fraction(1, 2), exact_variance=0.25, standard_error=0.05, z_score=0.0)", []),
]


@pytest.mark.parametrize(
    "record, fields, text, refused", _RECORDS, ids=[entry[0].__name__ for entry in _RECORDS]
)
class TestRecords:
    """Every record is built by keyword or by position, is immutable, hashes
    and compares by its fields, prints as it did as a frozen dataclass, and
    is a tuple of its fields."""

    def test_keyword_and_positional(self, record, fields, text, refused):
        built = record(**fields)
        assert built == record(*fields.values())
        assert built._fields == tuple(fields)
        assert built == tuple(fields.values())
        assert built._asdict() == fields

    def test_immutable(self, record, fields, text, refused):
        built = record(**fields)
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(built, name, 0)
        assert built._asdict() == fields

    def test_equal_fields_hash_equal(self, record, fields, text, refused):
        assert hash(record(**fields)) == hash(record(*fields.values()))

    def test_repr(self, record, fields, text, refused):
        assert repr(record(**fields)) == text

    def test_replace_checks_its_values(self, record, fields, text, refused):
        built = record(**fields)
        assert built._replace() == built
        for change in refused:
            with pytest.raises(RangeError) as replaced:
                built._replace(**change)
            with pytest.raises(RangeError) as constructed:
                record(**{**fields, **change})
            assert str(replaced.value) == str(constructed.value)


class TestNoAnalysis:
    """The 2**n tables and the top-level help never compile weaver.analysis."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["pmf", "--n", "4", "--p", "2/3"],
            ["cdf", "--n", "4", "--p", "1/3", "--format", "json"],
            ["triangle", "--n", "3"],
            ["density", "--n", "3", "--p", "7/10"],
            ["--help"],
        ],
        ids=" ".join,
    )
    def test_tables_never_import_analysis(self, argv):
        assert not _loaded(_RUN_CLI.format(argv=argv), "weaver.analysis")

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--n", "4", "--p", "3/7"],
            ["decompose", "--n", "4"],
            ["converge", "--n", "4", "--p", "1/4"],
        ],
        ids=" ".join,
    )
    def test_list_tables_import_it(self, argv):
        assert _loaded(_RUN_CLI.format(argv=argv), "weaver.analysis")


class TestParseBeforeLoading:
    """Help, and a usage error caught before --p, compile only the parser:
    neither the table code nor weaver.exact nor fractions loads.  Every
    run that writes a table loads the table code."""

    MODULES = ["weaver.tables", "weaver.exact", "fractions"]

    @pytest.mark.parametrize("module", MODULES)
    @pytest.mark.parametrize("argv", [["--help"], ["pmf", "--help"], ["sample", "--help"]],
                             ids=" ".join)
    def test_help_loads_only_the_parser(self, argv, module):
        assert not _loaded(_RUN_CLI.format(argv=argv), module)

    @pytest.mark.parametrize("module", MODULES)
    @pytest.mark.parametrize("argv", [["bogus"], ["pmf", "--n", "0", "--p", "1/2"]], ids=" ".join)
    def test_usage_error_loads_only_the_parser(self, argv, module):
        assert not _loaded(_REJECTED.format(argv=argv), module)

    @pytest.mark.parametrize("argv", _CSV_RUNS, ids=" ".join)
    def test_table_runs_load_the_table_code(self, argv):
        assert _loaded(_RUN_CLI.format(argv=argv), "weaver.tables")


class TestLazyNamespace:
    """Names live in their submodules; the root only finds those modules."""

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            weaver.no_such_name

    def test_submodules_import_from_the_package(self):
        from weaver import parents, sampler

        assert parents is sys.modules["weaver.parents"]
        assert sampler is sys.modules["weaver.sampler"]


class TestPublicSurface:
    """The names each module defines without a leading underscore; a new one,
    or one that grows back, is an edit here."""

    SURFACE = {
        "exact": {
            "MATERIALIZATION_CAP", "WeaverParams", "WeaverDist", "realization_value",
            "pmf_point", "pmf_point_log2", "build_pmf_vector", "geometric_triangle_row",
            "cdf_at_dyadic", "cdf_grid", "jump_spectrum",
        },
        "analysis": {
            "DecompositionRow", "exact_variance", "exact_moment", "variance_decomposition",
            "pmodel_cell_masses",
        },
        "sampler": {
            "CHUNK", "PATH_ONLY_CAP", "RAW_DRAW_CAP", "STREAM_VERSION",
            "MomentReport", "SampleRun",
            "draw_selection_path", "monte_carlo_moments", "path_ensemble",
            "run_exponential_sample", "run_from_path", "simulate_mean_ensemble",
        },
        "parents": {
            "ParentDistribution", "point_mass", "bernoulli", "uniform_interval", "gaussian",
            "standardize_parents",
        },
        "cli": {"emit_table", "main", "parse_config"},
        "tables": set(),
        "errors": {"WeaverError", "RangeError", "CapacityError"},
    }

    @pytest.mark.parametrize("module", sorted(SURFACE))
    def test_defined_public_names(self, module):
        tree = ast.parse((ROOT / "src" / "weaver" / f"{module}.py").read_text())
        defined = set()
        for node in tree.body:  # top-level definitions; imports bind no new name
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        assert {name for name in defined if not name.startswith("_")} == self.SURFACE[module]


class TestReadme:
    def test_library_example_runs(self):
        blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
        assert len(blocks) == 1
        exec(blocks[0], {})

    # each `weaver ...` line of the "Command line" block, without its comment
    _COMMANDS = re.findall(
        r"^weaver (.*?)(?:\s+#.*)?$",
        re.search(r"## Command line\n.*?```sh\n(.*?)```", (ROOT / "README.md").read_text(),
                  re.DOTALL).group(1),
        re.MULTILINE,
    )

    def test_command_line_examples_found(self):
        assert len(self._COMMANDS) == 8

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_command_line_example_runs(self, tmp_path, command):
        result = subprocess.run(
            [sys.executable, "-m", "weaver", *shlex.split(command)],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert result.returncode == 0, result.stderr


class TestWorkflow:
    """The CI workflow parses, tests the package's Python floor, and runs
    files that exist.  PyYAML is a test extra; where it is missing these skip."""

    @staticmethod
    def _job() -> dict:
        yaml = pytest.importorskip("yaml")
        workflow = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text())
        return workflow["jobs"]["tier-1"]

    def test_lowest_python_is_the_floor(self):
        matrix = self._job()["strategy"]["matrix"]
        versions = matrix["python-version"] + [row["python-version"] for row in matrix["include"]]
        pyproject = (ROOT / "pyproject.toml").read_text()
        floor = re.search(r'requires-python = ">=(\d+)\.(\d+)', pyproject)
        # a version written unquoted would be read as a float, 3.10 as 3.1
        lowest = min(tuple(map(int, str(version).split("."))) for version in versions)
        assert lowest == tuple(map(int, floor.groups()))

    def test_run_steps_name_files_that_exist(self):
        runs = "\n".join(step.get("run", "") for step in self._job()["steps"])
        paths = re.findall(r"(?<![\w/$])(?:tests|bench)/[\w./-]+", runs)
        assert paths
        assert [path for path in paths if not (ROOT / path).is_file()] == []
