#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the weaver command line.

Run from the root of a weaver source checkout (no install needed; the
children import ``src/weaver``):

    python3 bench/run.py --workload exact-tables --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all               # every workload, one table
    python3 bench/run.py --workload monte-carlo --trace 1    # per-layer numbers

Every workload is a fixed list of ``python -m weaver ...`` invocations,
run as subprocesses one at a time: one client, closed loop.  A pass runs
the whole list once; a run repeats passes for ``--seconds`` and reports
medians.  Every output is checked (byte digests and closed forms for the
exact tables, statistical checks for ``sample``), and a failed check
counts against ``failed``.  The times are scaled by a host reference
timed between the invocations, because the host's speed drifts (see
bench/README.md).

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics, measured by running
each invocation through ``bench/traced_child.py`` (see bench/README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "reference_digests.json"
TRACED_CHILD = BENCH_DIR / "traced_child.py"
SPAWNER = BENCH_DIR / "spawner.py"

#: Wall-clock limit for one child process; the slowest takes about 3 s.
INVOCATION_TIMEOUT_S = 60.0
#: The host reference: a child that starts Python and imports what weaver
#: imports, with no weaver code.  One runs before each timed invocation.
REFERENCE_CODE = "import argparse, fractions, json, numpy"
#: wall_s and setup_s are scaled to a host on which the reference takes
#: this long (about its median on the machine of the baseline).
REFERENCE_SCALE_S = 0.15
#: A sample z-score at or beyond this magnitude fails the check.
Z_LIMIT = 4.0
#: Leaves spot-checked against the closed form per exact table.
SPOT_CHECKS = 32


# --------------------------------------------------------------------------
# output checks: each returns None when the output is correct, else a reason


def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    header, *lines = text.splitlines()
    return header.split(","), [line.split(",") for line in lines]


def _mass(p: Fraction, n: int, k: int) -> Fraction:
    ones = k.bit_count()
    return p**ones * (1 - p) ** (n - ones)


def check_pmf_csv(out: bytes, n: int, p: Fraction, ks: list[int]) -> str | None:
    header, rows = _csv(out.decode())
    if header != ["k", "y_exact", "y_approx", "p_exact", "p_approx"]:
        return f"unexpected pmf header {header}"
    if len(rows) != 1 << n:
        return f"pmf has {len(rows)} rows, expected {1 << n}"
    for k in ks:
        mass = _mass(p, n, k)
        expected = [str(k), str(Fraction(k, (1 << n) - 1)), None, str(mass), repr(float(mass))]
        row = rows[k]
        if any(e is not None and e != got for e, got in zip(expected, row)):
            return f"pmf row {k} is {row}, closed form gives mass {mass}"
    return None


def check_density_json(out: bytes, n: int, p: Fraction, ks: list[int]) -> str | None:
    rows = json.loads(out)
    if len(rows) != 1 << n:
        return f"density has {len(rows)} cells, expected {1 << n}"
    for k in ks:
        density = (1 << n) * _mass(p, n, k)
        row = rows[k]
        if (
            row["k"] != k
            or row["left"]["exact"] != str(Fraction(k, 1 << n))
            or row["density"]["exact"] != str(density)
        ):
            return f"density cell {k} is {row}, closed form gives {density}"
    return None


def check_cdf_csv(out: bytes, resolution: int) -> str | None:
    header, rows = _csv(out.decode())
    if header != ["k", "v_exact", "v_approx", "F_exact", "F_approx"]:
        return f"unexpected cdf header {header}"
    if len(rows) != (1 << resolution) + 1:
        return f"cdf has {len(rows)} rows, expected {(1 << resolution) + 1}"
    if rows[0][3] != "0" or rows[-1][3] != "1":
        return f"cdf runs from {rows[0][3]} to {rows[-1][3]}, expected 0 to 1"
    return None


def check_triangle_csv(out: bytes, n: int, ks: list[int]) -> str | None:
    header, rows = _csv(out.decode())
    if header != ["k", "exponent"] or len(rows) != 1 << n:
        return f"triangle has header {header} and {len(rows)} rows"
    total = sum(int(exponent) for _, exponent in rows)
    if total != n << (n - 1):
        return f"triangle row sums to {total}, expected n * 2**(n-1) = {n << (n - 1)}"
    for k in ks:
        if rows[k] != [str(k), str(k.bit_count())]:
            return f"triangle entry {k} is {rows[k]}, expected popcount {k.bit_count()}"
    return None


def check_moments_json(out: bytes, n: int, p: Fraction) -> str | None:
    values = {row["statistic"]: Fraction(row["value"]["exact"]) for row in json.loads(out)}
    variance = Fraction(4**n - 1, 3 * ((1 << n) - 1) ** 2) * p * (1 - p)
    expected = {"mean": p, "variance": variance, "moment_1": p, "moment_2": variance + p * p}
    for name, value in expected.items():
        if values.get(name) != value:
            return f"{name} is {values.get(name)}, closed form gives {value}"
    return None


def check_sample_csv(out: bytes, n: int, reps: int, seed: int) -> str | None:
    header, rows = _csv(out.decode())
    if len(rows) != 1:
        return f"sample report has {len(rows)} rows, expected 1"
    row = dict(zip(header, rows[0]))
    if (row.get("n"), row.get("replications"), row.get("seed")) != (str(n), str(reps), str(seed)):
        return f"sample report echoes n={row.get('n')} reps={row.get('replications')} seed={row.get('seed')}"
    z = float(row["z_score"])
    if not abs(z) < Z_LIMIT:
        return f"|z_score| = {abs(z)} is not below {Z_LIMIT}"
    return None


# --------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Invocation:
    name: str
    args: tuple[str, ...]  # after ``python -m weaver``
    output_file: str | None  # written through --output, else stdout
    check: Callable[[bytes], str | None]
    exact: bool  # exact outputs must match the reference digest


def exact_tables(rng: random.Random) -> list[Invocation]:
    def ks(n: int) -> list[int]:
        return [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(SPOT_CHECKS)]

    pmf_ks, density_ks, triangle_ks = ks(17), ks(15), ks(18)
    return [
        Invocation(
            "pmf", ("pmf", "--n", "17", "--p", "2/3"), None,
            lambda out: check_pmf_csv(out, 17, Fraction(2, 3), pmf_ks), True,
        ),
        Invocation(
            "density", ("density", "--n", "15", "--p", "7/10", "--format", "json"), "density.json",
            lambda out: check_density_json(out, 15, Fraction(7, 10), density_ks), True,
        ),
        Invocation(
            "cdf", ("cdf", "--n", "24", "--p", "1/3", "--resolution", "14"), "cdf.csv",
            lambda out: check_cdf_csv(out, 14), True,
        ),
        Invocation(
            "triangle", ("triangle", "--n", "18"), None,
            lambda out: check_triangle_csv(out, 18, triangle_ks), True,
        ),
        Invocation(
            "moments", ("moments", "--n", "12", "--p", "3/7", "--max-order", "4", "--format", "json"),
            None, lambda out: check_moments_json(out, 12, Fraction(3, 7)), True,
        ),
    ]


def _sample(name: str, n: int, parents: str, reps: int, seed: int) -> Invocation:
    args = ("sample", "--n", str(n), "--p", "2/3", "--parents", parents,
            "--reps", str(reps), "--seed", str(seed))
    return Invocation(name, args, None, lambda out: check_sample_csv(out, n, reps, seed), False)


def monte_carlo(rng: random.Random) -> list[Invocation]:
    return [
        # shallow runs, many replications: per-replication overhead dominates
        _sample("sample-point", 6, "point:0;point:1", 20000, rng.randrange(1 << 31)),
        _sample("sample-gauss", 8, "gauss:0,1;gauss:1,1", 10000, rng.randrange(1 << 31)),
        _sample("sample-bernoulli", 8, "bernoulli:0.2;bernoulli:0.7", 10000, rng.randrange(1 << 31)),
        # deep runs: bulk raw draws dominate
        _sample("sample-uniform", 17, "uniform:0,1;uniform:1,2", 1200, rng.randrange(1 << 31)),
    ]


#: The seed only picks sample seeds and spot-checked leaves; exact
#: inputs stay fixed because their check is byte identity.
WORKLOADS: dict[str, Callable[[random.Random], list[Invocation]]] = {
    "exact-tables": exact_tables,
    "monte-carlo": monte_carlo,
}


# --------------------------------------------------------------------------
# running children


@dataclass
class Outcome:
    invocation: Invocation
    seconds: float
    rss_mib: float
    output: bytes
    stderr: bytes
    failure: str | None = None
    trace: dict | None = None


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "WEAVER_MATERIALIZATION_CAP"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Spawner:
    """Runs children through ``bench/spawner.py``, so that their peak RSS
    is their own and not the harness's (see that file)."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.proc = subprocess.Popen(
            [sys.executable, str(SPAWNER)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=_child_env(), text=True,
        )

    def run(self, argv: list[str]) -> tuple[float, float, int, bytes, bytes]:
        """Run one child to completion; return wall seconds, peak RSS (MiB),
        exit code, stdout and stderr."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        request = {"argv": argv, "cwd": str(self.workdir), "stdout": str(out_path),
                   "stderr": str(err_path), "timeout": INVOCATION_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner exited with status {self.proc.wait()}")
        result = json.loads(reply)
        return (result["seconds"], result["maxrss_kib"] / 1024.0, result["code"],
                out_path.read_bytes(), err_path.read_bytes())

    def close(self) -> None:
        self.proc.stdin.close()  # the spawner exits once its current child has
        self.proc.stdout.close()
        self.proc.wait()


class Runner:
    """Runs and checks one workload's invocations; use it as a context
    manager, so that its spawner process is stopped."""

    def __init__(self, invocations: list[Invocation], workdir: Path) -> None:
        self.invocations = invocations
        self.workdir = workdir
        self.digests = json.loads(DIGESTS.read_text())
        self.first_output: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.spawner = Spawner(workdir)

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.spawner.close()

    def _record(self, failure: str | None, what: str) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            print(f"FAILED {what}: {failure}", file=sys.stderr)

    def run_one(self, inv: Invocation, prefix: list[str]) -> Outcome:
        args = list(inv.args)
        if inv.output_file is not None:
            target = self.workdir / inv.output_file
            target.unlink(missing_ok=True)
            args += ["--output", str(target)]
        seconds, rss, code, stdout, stderr = self.spawner.run(prefix + args)
        outcome = Outcome(inv, seconds, rss, stdout, stderr)
        if code == -signal.SIGKILL:
            outcome.failure = f"killed after the {INVOCATION_TIMEOUT_S:.0f} s timeout"
        elif code != 0:
            outcome.failure = f"exit status {code}: {stderr.decode(errors='replace')[-300:]}"
        elif inv.output_file is not None:
            if stdout:
                outcome.failure = "wrote to stdout although --output was given"
            else:
                outcome.output = target.read_bytes()
        return outcome

    def check(self, outcome: Outcome) -> None:
        """Check one output; the verdict counts toward attempted/failed."""
        inv = outcome.invocation
        if outcome.failure is None:
            outcome.failure = self._verify(inv, outcome.output)
        self._record(outcome.failure, f"weaver {' '.join(inv.args)}")

    def _verify(self, inv: Invocation, output: bytes) -> str | None:
        if inv.exact:
            digest = hashlib.sha256(output).hexdigest()
            if digest != self.digests[" ".join(inv.args)]:
                return f"output digest {digest} differs from the reference"
        else:
            # sample streams may change on purpose between versions, but a
            # fixed seed must give identical bytes within one run
            first = self.first_output.setdefault(inv.name, output)
            if output != first:
                return "same seed gave different bytes within one run"
        try:
            return inv.check(output)
        except (ValueError, KeyError, IndexError, TypeError) as err:
            return f"unparseable output: {err!r}"

    def measured_pass(
        self, prefix: list[str], before: Callable[[Invocation], None] | None = None
    ) -> list[Outcome]:
        """Run every invocation once through ``prefix``, calling ``before``
        with each invocation right before it runs."""
        outcomes = []
        for inv in self.invocations:
            if before is not None:
                before(inv)
            outcomes.append(self.run_one(inv, prefix))
        for outcome in outcomes:  # checks run outside the timed children
            self.check(outcome)
        return outcomes

    def help_seconds(self, prefix: list[str], command: str) -> float:
        """Wall time of ``<prefix> <command> --help``, checked."""
        seconds, _, code, stdout, stderr = self.spawner.run(prefix + [command, "--help"])
        failure = None
        if code != 0 or not stdout.startswith(f"usage: weaver {command}".encode()):
            failure = f"exit status {code}, stdout {stdout[:80]!r} {stderr[-200:]!r}"
        self._record(failure, f"weaver {command} --help")
        return seconds

    def reference_seconds(self) -> float:
        """Wall time of the host reference child (``REFERENCE_CODE``)."""
        seconds, _, code, _, stderr = self.spawner.run([sys.executable, "-c", REFERENCE_CODE])
        if code != 0:
            raise RuntimeError(f"the host reference failed: {stderr[-300:]!r}")
        return seconds


# --------------------------------------------------------------------------
# host record


def host_probe() -> float:
    """Median time of a fixed pure-Python loop, independent of weaver."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def host_metadata() -> dict[str, str]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "missing"
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": str(os.cpu_count()),
        "cpu": cpu,
    }


# --------------------------------------------------------------------------
# the two kinds of run


def repeat_passes(seconds: float, minimum: int, one_pass: Callable[[], None]) -> None:
    """Run passes for about ``seconds``: another pass starts only while one
    of median length still fits, and at least ``minimum`` passes run."""
    durations: list[float] = []
    start = time.perf_counter()
    while len(durations) < minimum or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        began = time.perf_counter()
        one_pass()
        durations.append(time.perf_counter() - began)


def pass_seconds(passes: list[list[Outcome]]) -> float:
    """Seconds for one pass, each invocation at its median over the passes.

    Slowdowns on a shared host often hit single invocations, and a
    per-invocation median discards them better than a median of pass sums.
    """
    per_invocation = zip(*([o.seconds for o in outcomes] for outcomes in passes))
    return sum(statistics.median(times) for times in per_invocation)


def end_to_end(runner: Runner, seconds: float) -> dict[str, tuple[float, str]]:
    weaver = [sys.executable, "-m", "weaver"]
    reference_times: list[float] = []
    help_times: list[float] = []
    passes: list[list[Outcome]] = []

    def before(inv: Invocation) -> None:
        # spread over the whole run, so that the reference, the --help runs
        # and the invocations see the same phases of the host
        reference_times.append(runner.reference_seconds())
        help_times.append(runner.help_seconds(weaver, inv.args[0]))

    # at least two passes, so every sample seed is run twice
    repeat_passes(seconds, 2, lambda: passes.append(runner.measured_pass(weaver, before)))
    wall, setup = pass_seconds(passes), statistics.median(help_times)
    reference = statistics.median(reference_times)
    scale = REFERENCE_SCALE_S / reference
    print(f"passes: {len(passes)}, pass seconds: "
          + " ".join(f"{sum(o.seconds for o in outcomes):.3f}" for outcomes in passes))
    print(f"unscaled: wall {wall:.6f} s, setup {setup:.6f} s, reference {reference:.6f} s")
    return {
        "wall_s": (wall * scale, "s"),
        "setup_s": (setup * scale, "s"),
        "peak_rss_mib": (statistics.median(max(o.rss_mib for o in outcomes) for outcomes in passes), "MiB"),
        "ok_ratio": (1.0 - runner.failed / runner.attempted, "ratio"),
    }


def _importtime_s(stderr: bytes, module: str) -> float:
    # "import time: self [us] | cumulative | <indent>name"
    for line in stderr.decode(errors="replace").splitlines():
        if line.startswith("import time:"):
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == module:
                return int(fields[1]) / 1e6
    return 0.0


def _layer_metrics(outcomes: list[Outcome]) -> dict[str, tuple[float, str]]:
    layers: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = {}
    for outcome in outcomes:
        for name, stats in outcome.trace["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in stats.items():
                acc[key] += value
        for name, value in outcome.trace["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def layer(name: str, key: str = "total_s") -> float:
        return layers.get(name, {}).get(key, 0)

    entries = counts.get("exact.build_pmf_vector_entries", 0)
    stderrs = [o.stderr for o in outcomes]
    return {
        "exact.build_pmf_vector_s": (layer("exact.build_pmf_vector"), "s"),
        "exact.build_pmf_vector_entries": (entries, "count"),
        "exact.pmf_objects_per_entry": (
            counts.get("exact.pmf_distinct_objects", 0) / entries if entries else 0.0, "ratio"),
        "exact.cdf_at_dyadic_s": (layer("exact.cdf_at_dyadic"), "s"),
        "exact.cdf_at_dyadic_calls": (layer("exact.cdf_at_dyadic", "calls"), "count"),
        "exact.realization_value_s": (layer("exact.realization_value"), "s"),
        "exact.realization_value_calls": (layer("exact.realization_value", "calls"), "count"),
        "exact.geometric_triangle_row_s": (layer("exact.geometric_triangle_row"), "s"),
        "analysis.exact_moment_s": (layer("analysis.exact_moment"), "s"),
        "analysis.exact_moment_calls": (layer("analysis.exact_moment", "calls"), "count"),
        "cli.parse_config_s": (layer("cli.parse_config"), "s"),
        "cli.emit_table_s": (layer("cli.emit_table"), "s"),
        "cli.rows": (counts.get("cli.rows", 0), "count"),
        "cli.bytes": (sum(len(o.output) for o in outcomes), "count"),
        "cli.rows_self_s": (layer("cli.main", "self_s"), "s"),
        "import.numpy_s": (statistics.median(_importtime_s(e, "numpy") for e in stderrs), "s"),
        "import.weaver_cli_s": (
            statistics.median(_importtime_s(e, "weaver.cli") for e in stderrs), "s"),
        "sampler.stream_setup_s": (layer("sampler.simulate_mean_ensemble", "self_s"), "s"),
        "sampler.draw_selection_path_s": (layer("sampler.draw_selection_path"), "s"),
        "sampler.draw_selection_path_calls": (layer("sampler.draw_selection_path", "calls"), "count"),
        "sampler.run_from_path_s": (layer("sampler.run_from_path"), "s"),
        "sampler.aggregate_s": (layer("sampler.monte_carlo_moments", "self_s"), "s"),
        "sampler.replications": (layer("sampler.run_exponential_sample", "calls"), "count"),
        "parents.draw_s": (layer("parents.draw"), "s"),
        "parents.draw_calls": (layer("parents.draw", "calls"), "count"),
        "parents.draw_values": (counts.get("parents.draw_values", 0), "count"),
    }


def _count_fingerprint(outcome: Outcome) -> dict:
    trace = outcome.trace
    return {
        "calls": {name: stats["calls"] for name, stats in trace["layers"].items()},
        "counts": trace["counts"],
        "bytes": len(outcome.output),
    }


def traced(runner: Runner, seconds: float) -> dict[str, tuple[float, str]]:
    python = [sys.executable]
    traced_prefix = python + ["-X", "importtime", str(TRACED_CHILD)]
    plain: list[list[Outcome]] = []
    traced_passes: list[list[Outcome]] = []
    first_counts: dict[str, dict] = {}

    def one_pair() -> None:
        plain.append(runner.measured_pass(python + ["-m", "weaver"]))
        outcomes = []
        for inv in runner.invocations:
            trace_path = runner.workdir / f"{inv.name}.trace.json"
            outcome = runner.run_one(inv, traced_prefix + [str(trace_path)])
            if outcome.failure is None:
                outcome.trace = json.loads(trace_path.read_text())
                trace_path.unlink()
            outcomes.append(outcome)
        for outcome in outcomes:
            if outcome.trace is not None:
                fingerprint = _count_fingerprint(outcome)
                expected = first_counts.setdefault(outcome.invocation.name, fingerprint)
                if fingerprint != expected:
                    outcome.failure = f"counts changed between traced passes: {fingerprint} != {expected}"
            runner.check(outcome)
        if not any(o.failure for o in outcomes):
            traced_passes.append(outcomes)

    repeat_passes(seconds, 1, one_pair)
    if not traced_passes:
        raise SystemExit("error: no traced pass completed")
    samples = [_layer_metrics(outcomes) for outcomes in traced_passes]
    # counts repeat exactly (checked above); times are medians
    metrics = {
        name: (value if unit == "count" else statistics.median(s[name][0] for s in samples), unit)
        for name, (value, unit) in samples[0].items()
    }
    metrics["host.probe_s"] = (host_probe(), "s")
    metrics["trace.overhead_s"] = (pass_seconds(traced_passes) - pass_seconds(plain), "s")
    print(f"passes: {len(plain)} untraced, {len(traced_passes)} traced")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    invocations = WORKLOADS[name](random.Random(seed))
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        with Runner(invocations, workdir) as runner:
            # untimed warm-up: compiles bytecode and fills the page cache
            runner.spawner.run([sys.executable, "-m", "weaver", "--help"])
            metrics = traced(runner, seconds) if trace else end_to_end(runner, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for metric, (value, unit) in metrics.items():
        print(f"{name:15s} {metric:36s} {value:>16.6f} {unit}")
    print(f"{name:15s} {'failed_ratio':36s} {runner.failed / runner.attempted:>16.6f} ratio")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)  # BENCHMARK.json's run_seconds
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weaver" / "__main__.py").is_file():
        print(f"error: {SRC / 'weaver'} not found; run from a weaver source checkout", file=sys.stderr)
        return 2
    meta = host_metadata()
    print("host: " + ", ".join(f"{k} {v}" for k, v in meta.items()) + f", probe {host_probe():.6f} s")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
