"""The package root: it binds no names, numpy loads only with weaver.sampler,
and weaver.analysis only with the tables that use it."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import weaver

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
         "gauss:0,nan;gauss:1,1"],
    )
    def test_rejected_spec_exits_1_without_numpy(self, spec):
        assert not _loaded(_REJECTED.format(argv=[*_SAMPLE, "--parents", spec]), "numpy")

    def test_sample_imports_numpy_and_runs(self):
        argv = ["sample", "--n", "4", "--p", "1/3", "--reps", "200", "--seed", "5"]
        assert _loaded(_RUN_CLI.format(argv=argv), "numpy")


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


class TestLazyNamespace:
    """Names live in their submodules; the root only finds those modules."""

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            weaver.no_such_name

    def test_submodules_import_from_the_package(self):
        from weaver import parents, sampler

        assert parents is sys.modules["weaver.parents"]
        assert sampler is sys.modules["weaver.sampler"]


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
