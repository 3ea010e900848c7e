"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest -q bench/selftest.py

They check that a corrupted exact table or an out-of-bounds z-score
counts as failed, that the tracer takes its own cost out of the layer
times, that every count metric of the traced run repeats exactly across
two runs, and that the benchmark refuses to run without the weaver
sources.  About two minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import run  # noqa: E402
import traced_child  # noqa: E402

WEAVER = [sys.executable, "-m", "weaver"]


def _checked(runner: run.Runner, outcome: run.Outcome) -> int:
    before = runner.failed
    runner.check(outcome)
    return runner.failed - before


@pytest.mark.parametrize("name", [inv.name for inv in run.exact_tables(random.Random(0))])
def test_one_flipped_byte_in_an_exact_table_fails(name, tmp_path):
    inv = next(i for i in run.exact_tables(random.Random(5)) if i.name == name)
    with run.Runner([inv], tmp_path) as runner:
        good = runner.run_one(inv, WEAVER)
        assert _checked(runner, good) == 0, good.failure
        middle = len(good.output) // 2
        flipped = good.output[:middle] + bytes([good.output[middle] ^ 1]) + good.output[middle + 1:]
        bad = replace(good, output=flipped, failure=None)
        assert _checked(runner, bad) == 1
    assert "digest" in bad.failure


def test_z_score_of_five_fails(tmp_path):
    inv = run.monte_carlo(random.Random(5))[1]
    with run.Runner([inv], tmp_path) as runner:
        good = runner.run_one(inv, WEAVER)
        assert _checked(runner, good) == 0, good.failure
    header, values = good.output.decode().splitlines()
    values = values.split(",")
    values[header.split(",").index("z_score")] = "5.0"
    bad = replace(good, output=f"{header}\n{','.join(values)}\n".encode(), failure=None)
    with run.Runner([inv], tmp_path) as fresh:  # no earlier output of this seed
        assert _checked(fresh, bad) == 1
    assert "z_score" in bad.failure


def test_wrapper_cost_is_taken_out_of_totals_and_self_times():
    tracer = traced_child.Tracer()
    # a 10 s root with one 6 s child, which has two 1 s leaves
    tracer.names += ["root", "child", "leaf", "leaf"]
    tracer.parents += [-1, 0, 1, 1]
    tracer.starts += [0.0, 1.0, 2.0, 4.0]
    tracer.ends += [10.0, 7.0, 3.0, 5.0]
    layers = tracer.summary(inside=0.01, outside=0.1)["layers"]
    assert layers["leaf"]["total_s"] == pytest.approx(2 * 0.99)
    assert layers["leaf"]["self_s"] == pytest.approx(2 * 0.99)
    # the child loses its own inside cost and the whole cost of two leaves
    assert layers["child"]["total_s"] == pytest.approx(6 - 0.01 - 2 * 0.11)
    assert layers["child"]["self_s"] == pytest.approx(6 - 0.01 - 2 * 0.11 - 2 * 0.99)
    assert layers["root"]["total_s"] == pytest.approx(10 - 0.01 - 3 * 0.11)
    assert layers["root"]["self_s"] == pytest.approx(10 - 0.01 - 3 * 0.11 - (6 - 0.01 - 2 * 0.11))


def test_wrapper_cost_is_measured():
    inside, outside = traced_child.wrapper_cost(batches=3, calls=2000)
    assert inside >= 0 and outside > 0


def _traced_counts(workload: str, seed: int) -> dict:
    result = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["correct"] and report["failed"] == 0
    return {k: v["value"] for k, v in report["metrics"].items() if v["unit"] == "count"}


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_count_metrics_repeat_exactly(workload):
    first = _traced_counts(workload, seed=1)
    assert first == _traced_counts(workload, seed=1)
    assert any(first.values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "monte-carlo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
