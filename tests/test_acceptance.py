"""End-to-end acceptance gate.

Each test covers one numbered criterion, enforces its runtime budget,
and prints a single pass/fail line (visible under ``pytest -s``).  The
criteria pin down: exact pmf values, triangle sums, closed-form vs
enumerated variance, the weaving/merging table, CDF anchors, the limit
of the variance ratio, Monte Carlo agreement for both moments and the
full law, mirror symmetry, the halving-cascade equivalence, and the
total-variance split of the merged variable.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from weaver import analysis, sampler
from weaver.exact import (
    DyadicPoint,
    WeaverParams,
    build_pmf_vector,
    cdf_at_dyadic,
    geometric_triangle_row,
    pmf_point,
    pmf_point_log2,
    realization_value,
)
from weaver.parents import gaussian


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number:02d} {label}: FAIL ({elapsed:.2f}s)", flush=True)
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(
            f"criterion {number:02d} {label}: FAIL "
            f"(over budget: {elapsed:.2f}s >= {budget_seconds}s)",
            flush=True,
        )
        raise AssertionError(f"criterion {number} exceeded its {budget_seconds}s budget")
    print(f"criterion {number:02d} {label}: PASS ({elapsed:.2f}s)", flush=True)


def test_criterion_01_depth_three_pmf_through_the_cli():
    with criterion(1, "pmf table W(3, 2/3) via CLI", 1.0):
        completed = subprocess.run(
            [sys.executable, "-m", "weaver", "pmf", "--n", "3", "--p", "2/3"],
            capture_output=True,
            text=True,
            check=True,
            # the package from this checkout, installed or not
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        )
        rows = completed.stdout.strip().splitlines()
        header = rows[0].split(",")
        masses = [Fraction(line.split(",")[header.index("p_exact")]) for line in rows[1:]]
        assert masses == [
            Fraction(1, 27), Fraction(2, 27), Fraction(2, 27), Fraction(4, 27),
            Fraction(2, 27), Fraction(4, 27), Fraction(4, 27), Fraction(8, 27),
        ]


def test_criterion_02_triangle_row_sums():
    with criterion(2, "geometric-triangle sums", 1.0):
        assert [sum(geometric_triangle_row(n)) for n in range(10)] == [
            0, 1, 4, 12, 32, 80, 192, 448, 1024, 2304,
        ]
        # row n sums to n * 2**(n-1): each bit is set in half of the leaves
        for n in range(1, 10):
            assert sum(geometric_triangle_row(n)) == n * (1 << (n - 1))


def test_criterion_03_variance_closed_form_vs_enumeration():
    with criterion(3, "closed-form variance equals enumeration", 30.0):
        for p in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 7), Fraction(9, 10)):
            for n in range(1, 15):
                params = WeaverParams(n=n, p=p)
                dist = build_pmf_vector(params)
                enumerated = sum(
                    (
                        mass * (realization_value(k, n) - p) ** 2
                        for k, mass in enumerate(dist.pmf)
                    ),
                    Fraction(0),
                )
                closed = Fraction((1 << 2 * n) - 1, 3 * ((1 << n) - 1) ** 2) * p * (1 - p)
                assert analysis.exact_variance(params) == closed == enumerated


def test_criterion_04_decomposition_table():
    with criterion(4, "weaving/merging decomposition table", 1.0):
        expected = [
            (1, 1, 1, 1.00, 0.00),
            (2, 9, 5, 0.56, 0.44),
            (3, 49, 21, 0.43, 0.57),
            (4, 225, 85, 0.38, 0.62),
            (5, 961, 341, 0.35, 0.65),
            (6, 3969, 1365, 0.34, 0.66),
        ]
        for n, denom, weaving, weaving_2dp, merging_2dp in expected:
            row = analysis.variance_decomposition(n)
            assert row.denom == denom  # n=5 reads 961 = 31**2, not the misprinted 931
            assert row.weaving == weaving
            assert row.merging == denom - weaving
            assert abs(float(row.weaving_share) - weaving_2dp) <= 0.005
            assert abs(float(row.merging_share) - merging_2dp) <= 0.005


def test_criterion_05_cdf_anchors_stable_under_refinement():
    with criterion(5, "CDF anchors at dyadic points", 1.0):
        for p in (Fraction(1, 3), Fraction(2, 3)):
            q = 1 - p
            anchors = [
                (1, 1, q),
                (1, 2, q * q),
                (3, 2, 1 - p * p),
                (3, 3, q**2 + p * q**2),
                (7, 3, 1 - p**3),
            ]
            for k, m, value in anchors:
                point = DyadicPoint(k=k, n=m)
                for depth in (m, m + 3):
                    assert cdf_at_dyadic(point, WeaverParams(n=depth, p=p)) == value


def test_criterion_06_variance_ratio_limit_and_edge_divergence():
    with criterion(6, "variance ratio decreases to 1/3", 1.0):
        p = Fraction(2, 3)
        bernoulli_variance = p * (1 - p)
        ratios = [
            analysis.exact_variance(WeaverParams(n=n, p=p)) / bernoulli_variance
            for n in range(1, 41)
        ]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] - Fraction(1, 3)) < Fraction(1, 10**12)
        # the limit law itself is out of numerical reach; its lack of a
        # density shows up as unbounded right-edge cell densities, which
        # stay quantifiable in log space far past overflow; level 0 is the
        # unit cell, of log2 density 0
        log_right = [0.0] + [
            n + pmf_point_log2((1 << n) - 1, WeaverParams(n=n, p=p)) for n in range(1, 61)
        ]
        assert all(a < b for a, b in zip(log_right, log_right[1:]))
        assert log_right[60] > 20  # (2p)**60 > 2**20 for p = 2/3
        assert 60 + pmf_point_log2(0, WeaverParams(n=60, p=p)) < -30


def test_criterion_07_monte_carlo_moments_with_gaussian_parents():
    with criterion(7, "Monte Carlo moments, gaussian parents", 60.0):
        n, p, reps = 8, Fraction(2, 3), 100_000
        h0, h1 = gaussian(0.0, 1.0), gaussian(1.0, 1.0)
        means = sampler.simulate_mean_ensemble(n, h0, h1, p, reps, seed=2024)
        exact_variance = float(analysis.exact_variance(WeaverParams(n=n, p=p))) + 1.0 / 255.0
        sample_mean = float(np.mean(means))
        sample_variance = float(np.var(means, ddof=1))
        mean_z = (sample_mean - float(p)) / np.sqrt(exact_variance / reps)
        assert abs(mean_z) < 4
        centered = means - sample_mean
        fourth_moment = float(np.mean(centered**4))
        variance_se = np.sqrt((fourth_moment - sample_variance**2) / reps)
        assert abs(sample_variance - exact_variance) < 3 * variance_se


def test_criterion_08_sampled_law_matches_exact_pmf():
    with criterion(8, "chi-squared fit of sampled Y_6 law", 30.0):
        n, p, reps = 6, Fraction(2, 3), 200_000
        params = WeaverParams(n=n, p=p)
        indices = sampler.path_ensemble(n, p, reps, seed=77).astype(np.int64)
        observed = np.bincount(indices, minlength=1 << n)
        expected = np.array([float(pmf_point(k, params)) * reps for k in range(1 << n)])
        assert expected.min() > 200  # every cell is far from the sparse regime
        _, p_value = scipy.stats.chisquare(observed, expected)
        assert p_value > 0.001


def test_criterion_09_mirror_symmetry_and_uniformity():
    with criterion(9, "mirror symmetry and p=1/2 uniformity", 5.0):
        for n in range(1, 11):
            for p in (Fraction(2, 3), Fraction(1, 5), Fraction(9, 11)):
                direct = build_pmf_vector(WeaverParams(n=n, p=p)).pmf
                mirrored = build_pmf_vector(WeaverParams(n=n, p=1 - p)).pmf
                assert list(direct) == list(reversed(mirrored))
            uniform = build_pmf_vector(WeaverParams(n=n, p=Fraction(1, 2))).pmf
            assert set(uniform) == {Fraction(1, 1 << n)}


def test_criterion_10_halving_cascade_equivalence():
    with criterion(10, "local halving cascade equals global weave", 10.0):
        for p in (Fraction(1, 3), Fraction(2, 3)):
            for n in range(1, 13):
                cells = analysis.pmodel_cell_masses(n, p)
                dist = build_pmf_vector(WeaverParams(n=n, p=p))
                assert cells == list(dist.pmf)


def test_criterion_11_merged_variable_total_variance():
    with criterion(11, "total-variance split of the merged variable", 10.0):
        for p in (Fraction(2, 3), Fraction(3, 7)):
            bernoulli_variance = p * (1 - p)
            for n in range(1, 13):
                params = WeaverParams(n=n, p=p)
                dist = build_pmf_vector(params)
                expected_conditional = sum(
                    (
                        mass * realization_value(k, n) * (1 - realization_value(k, n))
                        for k, mass in enumerate(dist.pmf)
                    ),
                    Fraction(0),
                )
                assert (
                    analysis.exact_variance(params) + expected_conditional
                    == bernoulli_variance
                )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
