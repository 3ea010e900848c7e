"""Parent populations, path sampling, full runs, and Monte Carlo reports."""

import hashlib
import math
import sys
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from weaver import analysis, sampler
from weaver.errors import CapacityError, ContractError, DegeneracyError, RangeError
from weaver.exact import DyadicPoint, SelectionPath, WeaverParams, cdf_at_dyadic, pmf_point
from weaver.parents import (
    ParentDistribution,
    bernoulli,
    gaussian,
    is_standardized,
    point_mass,
    standardize_parents,
    uniform_interval,
)

STANDARD = (point_mass(0.0), point_mass(1.0))

# every family, standardized, plus a pair of different families
PAIRS = {
    "point": STANDARD,
    "bernoulli": standardize_parents(bernoulli(0.2), bernoulli(0.7)),
    "uniform": standardize_parents(uniform_interval(0.0, 1.0), uniform_interval(1.0, 2.0)),
    "gauss": standardize_parents(gaussian(0.0, 1.0), gaussian(1.0, 2.0)),
    "mixed": standardize_parents(gaussian(-5.0, 2.0), uniform_interval(-1.0, 0.0)),
}


def numpy_draw(parent, rng, size):
    """``size`` observations of a point, uniform or Gaussian ``parent``,
    drawn by numpy directly and put through the parent's affine map."""
    direct = {
        "point-mass": lambda c: np.full(size, c),
        "uniform-interval": lambda a, b: rng.uniform(a, b, size),
        "gaussian": lambda mu, var: rng.normal(mu, math.sqrt(var), size),
    }
    return direct[parent.family](*parent.params) * parent.scale + parent.shift


class TestParents:
    def test_moments(self):
        assert point_mass(3.0).mean == 3.0
        assert point_mass(3.0).variance == 0.0
        assert bernoulli(0.25).mean == 0.25
        assert bernoulli(0.25).variance == pytest.approx(0.25 * 0.75)
        assert uniform_interval(2.0, 6.0).mean == 4.0
        assert uniform_interval(2.0, 6.0).variance == pytest.approx(16 / 12)
        assert gaussian(1.5, 2.0).mean == 1.5
        assert gaussian(1.5, 2.0).variance == 2.0

    def test_validation(self):
        with pytest.raises(RangeError):
            bernoulli(1.5)
        with pytest.raises(RangeError):
            uniform_interval(2.0, 2.0)
        with pytest.raises(RangeError):
            gaussian(0.0, -1.0)

    @pytest.mark.parametrize(
        "family, params, message",
        [
            ("bernoulli", (1.5,), r"must lie in \[0, 1\], got 1.5"),
            ("gaussian", (0.0, -1.0), "variance must be non-negative, got -1.0"),
            ("point-mass", (1.0, 2.0), r"point-mass takes 1 parameter\(s\), got 2"),
            ("bernoulli", (), r"bernoulli takes 1 parameter\(s\), got 0"),
            ("uniform-interval", (2.0, 1.0), r"needs a < b, got \(2.0, 1.0\)"),
        ],
        ids=["bernoulli-q", "gauss-variance", "point-count", "bernoulli-count", "uniform-order"],
    )
    def test_direct_construction_is_validated(self, family, params, message):
        with pytest.raises(RangeError, match=message):
            ParentDistribution(family, params)

    def test_factory_reports_the_float(self):
        with pytest.raises(RangeError, match=r"got 2.0$"):
            bernoulli(2)

    @pytest.mark.parametrize(
        "family, params",
        [
            (point_mass, (math.nan,)),
            (bernoulli, (math.nan,)),
            (uniform_interval, (-math.inf, 0.0)),
            (gaussian, (math.nan, 1.0)),
            (gaussian, (0.0, math.inf)),
        ],
    )
    def test_validation_rejects_non_finite(self, family, params):
        with pytest.raises(RangeError):
            family(*params)

    def test_draw_statistics(self):
        rng = np.random.default_rng(42)
        for parent in (point_mass(2.0), bernoulli(0.3), uniform_interval(-1, 3), gaussian(5, 4)):
            draws = parent.draw(rng, 20000)
            assert draws.shape == (20000,)
            assert np.mean(draws) == pytest.approx(parent.mean, abs=0.05)
            assert np.var(draws) == pytest.approx(parent.variance, abs=0.1)

    # SHA-256 of draw()'s 1000 float64s (little-endian) from default_rng(19),
    # captured at commit 06e9a4f, when each family's draw lived in weaver.parents;
    # bernoulli's since draw became the block sums of blocks of one observation,
    # which draws Binomial(1, q): the same law, other realized values
    DRAW_DIGESTS = {
        "point": (point_mass(2.5),
                  "996bc8d14ad0673408ac4e9c2ab00819e1033db574e56b6ff58a49f33ca02960"),
        "bernoulli": (bernoulli(0.3),
                      "457ea1ca6377713e0fed9b18fa16644202aa81fbba403a85fe0244491aff6a0b"),
        "uniform": (uniform_interval(-1.0, 3.0),
                    "55f36c5b5cd3430430a5b14110273c9fa9708718b7f8ff03e512d0f1b47b4c4e"),
        "gauss": (gaussian(5.0, 4.0),
                  "c0786b32138f3527a17968d0eeef5a2c30e913f1461a299a39ec0a07212f216f"),
        "gauss-std": (PAIRS["mixed"][0],
                      "5ad22d6451dea4810fe272354f8625d3989f34dc3c26d11acac9fb7bdffd7f08"),
        "uniform-std": (PAIRS["mixed"][1],
                        "5d6f2580309a48c1571a10ed2ddf041fe1522335a19e3505a16a2b3e34cebd1a"),
    }

    @pytest.mark.parametrize("name", list(DRAW_DIGESTS))
    def test_draw_matches_digest(self, name):
        parent, digest = self.DRAW_DIGESTS[name]
        values = parent.draw(np.random.default_rng(19), 1000)
        assert values.dtype == np.float64
        assert hashlib.sha256(values.astype("<f8").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("size", [1000, 3 * sampler.UNIFORM_SLAB + 5])
    @pytest.mark.parametrize(
        "parent",
        [point_mass(2.5), uniform_interval(-1.0, 3.0), gaussian(5.0, 4.0), *PAIRS["mixed"]],
        ids=["point", "uniform", "gauss", "gauss-std", "uniform-std"],
    )
    def test_draw_is_numpy_direct_draw(self, parent, size):
        # past one slab, uniform draws come in up to two spans, one per CPU
        values = parent.draw(np.random.default_rng(19), size)
        expected = numpy_draw(parent, np.random.default_rng(19), size)
        assert values.tobytes() == expected.tobytes()

    def test_standardize_moves_means_to_zero_and_one(self):
        h0, h1 = standardize_parents(gaussian(3.0, 4.0), gaussian(7.0, 1.0))
        assert h0.mean == pytest.approx(0.0)
        assert h1.mean == pytest.approx(1.0)
        assert is_standardized(h0, h1)
        # variances shrink by the squared gap of the original means
        assert h0.variance == pytest.approx(4.0 / 16.0)
        assert h1.variance == pytest.approx(1.0 / 16.0)

    def test_standardize_is_affine_on_draws(self):
        base = uniform_interval(2.0, 10.0)
        other = uniform_interval(12.0, 14.0)
        h0, h1 = standardize_parents(base, other)
        rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
        raw = base.draw(rng1, 1000)
        shifted = h0.draw(rng2, 1000)
        slope = 1.0 / (other.mean - base.mean)
        assert shifted == pytest.approx((raw - base.mean) * slope)

    def test_standardize_adjacent_uniforms(self):
        h0, h1 = standardize_parents(uniform_interval(0.0, 2.0), uniform_interval(2.0, 4.0))
        assert (h0.mean, h1.mean) == (0.0, 1.0)
        assert h0.variance == pytest.approx((1 / 3) / 4)
        assert h1.variance == pytest.approx((1 / 3) / 4)

    def test_standardize_rejects_equal_means(self):
        with pytest.raises(DegeneracyError):
            standardize_parents(gaussian(1.0, 1.0), gaussian(1.0, 2.0))

    @pytest.mark.parametrize("mu0, mu1", [(0.0, 1e-320), (1e308, -1e308)])
    def test_standardize_rejects_non_finite_slope(self, mu0, mu1):
        with pytest.raises(DegeneracyError):
            standardize_parents(point_mass(mu0), point_mass(mu1))

    def test_already_standard_pairs_pass_through(self):
        h0, h1 = standardize_parents(*STANDARD)
        assert (h0.mean, h1.mean) == (0.0, 1.0)


class TestSelectionSampling:
    def test_path_reproducible_from_seed(self):
        a = sampler.draw_selection_path(12, Fraction(1, 3), 99)
        b = sampler.draw_selection_path(12, Fraction(1, 3), 99)
        assert a == b

    def test_threshold_is_exact_for_dyadic_p(self):
        assert sampler._selection_threshold(Fraction(1, 2)) == 1 << 127
        assert sampler._selection_threshold(Fraction(3, 4)) == 3 << 126

    def test_extreme_p_biases_bits(self):
        near_one = sampler.draw_selection_path(40, Fraction(999, 1000), 0)
        near_zero = sampler.draw_selection_path(40, Fraction(1, 1000), 0)
        assert near_one.ones > 30
        assert near_zero.ones < 10

    def test_path_cap(self):
        sampler.draw_selection_path(63, Fraction(1, 2), 5)
        with pytest.raises(CapacityError):
            sampler.draw_selection_path(64, Fraction(1, 2), 5)

    def test_conditional_mean(self):
        path = SelectionPath(n=6, k=44)
        assert sampler.run_from_path(path, *STANDARD, 0).conditional_mean == Fraction(44, 63)

    def test_bit_marginals(self):
        # each selection is Bernoulli(p) marginally
        p = Fraction(1, 4)
        ks = sampler.path_ensemble(8, p, 4000, seed=11)
        for j in range(8):
            frequency = np.mean((ks.astype(np.int64) >> j) & 1)
            assert frequency == pytest.approx(0.25, abs=0.03)

    def test_path_law_matches_pmf(self):
        # chi-squared goodness of fit of leaf indices against the exact law
        n, p, reps = 4, Fraction(1, 3), 30000
        params = WeaverParams(n=n, p=p)
        ks = sampler.path_ensemble(n, p, reps, seed=2)
        observed = np.bincount(ks.astype(np.int64), minlength=1 << n)
        expected = np.array([float(pmf_point(k, params)) * reps for k in range(1 << n)])
        _, p_value = scipy.stats.chisquare(observed, expected)
        assert p_value > 0.001


class TestRuns:
    def test_point_mass_run_is_exact(self):
        # unit point masses make every observation equal its selection bit
        run = sampler.run_exponential_sample(6, *STANDARD, Fraction(2, 5), 7)
        assert run.total == run.path.k
        assert run.mean == pytest.approx(float(run.conditional_mean))
        assert run.conditional_mean == Fraction(run.path.k, 63)

    def test_block_sizes_double(self):
        run = sampler.run_exponential_sample(5, *STANDARD, Fraction(1, 2), 3)
        bits = run.path.bits[::-1]
        for j, (bit, block_sum) in enumerate(zip(bits, run.block_sums), start=1):
            assert block_sum == bit * (1 << (j - 1))

    def test_block_order_is_chronological(self):
        # bit j-1 of the leaf index drives block j of size 2**(j-1)
        path = SelectionPath(n=4, k=0b0101)
        run = sampler.run_from_path(path, *STANDARD, 0)
        assert run.block_sums == (1.0, 0.0, 4.0, 0.0)

    @pytest.mark.parametrize("pair", sorted(PAIRS))
    @pytest.mark.parametrize("seed", [0, 11])
    def test_single_runs_are_replication_zero(self, pair, seed):
        # one stream contract: a single run is the first run of its ensemble
        h0, h1 = PAIRS[pair]
        n, p = 6, Fraction(2, 5)
        run = sampler.run_exponential_sample(n, h0, h1, p, seed)
        assert run == next(sampler.run_ensemble(n, h0, h1, p, 1, seed))
        assert run == next(sampler.run_ensemble(n, h0, h1, p, 3, seed))
        assert sampler.draw_selection_path(n, p, seed).k == sampler.path_ensemble(n, p, 1, seed)[0]
        assert sampler.draw_selection_path(n, p, seed) == run.path
        assert sampler.run_from_path(run.path, h0, h1, seed) == run

    def test_unstandardized_parents_rejected(self):
        with pytest.raises(ContractError):
            sampler.run_exponential_sample(4, point_mass(0.0), point_mass(2.0), Fraction(1, 2), 0)

    def test_raw_draw_cap(self):
        with pytest.raises(CapacityError):
            sampler.run_exponential_sample(31, *STANDARD, Fraction(1, 2), 0)

    def test_raw_draw_cap_on_a_fixed_path(self):
        path = SelectionPath(n=40, k=5)
        with pytest.raises(CapacityError):
            sampler.run_from_path(path, *STANDARD, 0)

    def test_ensemble_streams_are_independent_of_consumption(self):
        # replication i depends only on (seed, i), not on how many ran before
        full = [run.path.k for run in sampler.run_ensemble(6, *STANDARD, "1/2", 5, seed=21)]
        third = next(
            run.path.k
            for i, run in enumerate(sampler.run_ensemble(6, *STANDARD, "1/2", 5, seed=21))
            if i == 2
        )
        assert full[2] == third
        assert len(set(full)) > 1

    def test_gaussian_noise_spreads_block_sums(self):
        h0, h1 = gaussian(0.0, 1.0), gaussian(1.0, 1.0)
        run = sampler.run_exponential_sample(8, h0, h1, Fraction(1, 2), 13)
        assert run.total not in (float(k) for k in range(256))
        assert run.total == pytest.approx(sum(run.block_sums))
        assert run.mean == pytest.approx(run.total / 255)


class TestMonteCarlo:
    def test_moment_report_point_mass(self):
        report = sampler.monte_carlo_moments(6, *STANDARD, Fraction(2, 3), 20000, seed=5)
        assert report.exact_mean == Fraction(2, 3)
        exact_self = float(analysis.exact_variance(WeaverParams(n=6, p=Fraction(2, 3))))
        assert report.exact_variance == pytest.approx(exact_self)  # no within-population term
        assert abs(report.z_score) < 4
        assert report.empirical_variance == pytest.approx(report.exact_variance, rel=0.05)
        assert report.standard_error > 0
        assert report.z_score == pytest.approx(
            (report.empirical_mean - float(report.exact_mean)) / report.standard_error
        )

    def test_moment_report_adds_within_population_term(self):
        h0, h1 = gaussian(0.0, 1.0), gaussian(1.0, 1.0)
        report = sampler.monte_carlo_moments(5, h0, h1, Fraction(1, 2), 200, seed=1)
        base = float(analysis.exact_variance(WeaverParams(n=5, p=Fraction(1, 2))))
        assert report.exact_variance == pytest.approx(base + 1.0 / 31.0)

    def test_single_selection_variance_is_fully_bernoulli(self):
        # at depth 1 the divisor 2**n - 1 vanishes from the within term
        h0, h1 = gaussian(0.0, 0.5), gaussian(1.0, 2.0)
        report = sampler.monte_carlo_moments(1, h0, h1, Fraction(1, 4), 100, seed=6)
        expected = 0.25 * 0.75 + 0.25 * 2.0 + 0.75 * 0.5
        assert report.exact_variance == pytest.approx(expected)

    def test_per_cell_frequencies_within_four_sigma(self):
        # every leaf frequency sits inside the binomial 4-sigma band
        n, p, reps = 6, Fraction(2, 3), 100_000
        params = WeaverParams(n=n, p=p)
        ks = sampler.path_ensemble(n, p, reps, seed=31)
        observed = np.bincount(ks.astype(np.int64), minlength=1 << n)
        for k in range(1 << n):
            cell = float(pmf_point(k, params))
            sigma = (reps * cell * (1 - cell)) ** 0.5
            assert abs(observed[k] - reps * cell) < 4 * sigma

    def test_replication_floor(self):
        with pytest.raises(RangeError):
            sampler.monte_carlo_moments(4, *STANDARD, Fraction(1, 2), 99, seed=0)

    def test_overflowing_statistics_rejected(self):
        # finite parents whose spread overflows binary64 in the variance
        h0, h1 = standardize_parents(gaussian(0.0, 1e308), gaussian(1.0, 1e308))
        with pytest.raises(RangeError, match="empirical_variance is inf"):
            sampler.monte_carlo_moments(3, h0, h1, Fraction(1, 2), 100, seed=0)

    def test_vanishing_standard_error_rejected(self):
        # point masses leave only the conditional variance, which is below
        # binary64's range at p = 10**-400, so no z-score exists
        with pytest.raises(RangeError, match="standard_error is 0.0"):
            sampler.monte_carlo_moments(3, *STANDARD, Fraction(1, 10**400), 100, seed=0)

    def test_mean_ensemble_reproducible(self):
        a = sampler.simulate_mean_ensemble(5, *STANDARD, Fraction(1, 3), 50, seed=8)
        b = sampler.simulate_mean_ensemble(5, *STANDARD, Fraction(1, 3), 50, seed=8)
        assert np.array_equal(a, b)

    def test_mixture_of_lattice_values(self):
        means = sampler.simulate_mean_ensemble(4, *STANDARD, Fraction(1, 2), 500, seed=3)
        lattice = {k / 15 for k in range(16)}
        assert set(np.round(means, 12)) <= {round(v, 12) for v in lattice}
        assert Counter(np.round(means, 12)).most_common(1)[0][1] < 500

    def test_convergence_distance_shrinks_for_noisy_parents(self):
        # the within-population noise smears the CDF at shallow depths only
        h0, h1 = gaussian(0.0, 1.0), gaussian(1.0, 1.0)
        distances = sampler.convergence_ks(
            Fraction(2, 3), h0, h1, depths=(3, 8), resolution=3,
            replications=4000, seed=17,
        )
        assert [n for n, _ in distances] == [3, 8]
        gaps = [g for _, g in distances]
        assert gaps[0] > 2 * gaps[1]
        assert gaps[1] < 0.08

    def test_point_mass_parents_sit_at_monte_carlo_floor(self):
        # the sample mean already has the exact law, so only noise remains
        distances = sampler.convergence_ks(
            Fraction(2, 3), *STANDARD, depths=(3, 6, 12), resolution=3,
            replications=4000, seed=17,
        )
        assert all(gap < 0.03 for _, gap in distances)

    def test_convergence_against_point_queries(self):
        # the same samples measured against the O(n) cdf point by point
        h0, h1 = gaussian(0.0, 1.0), gaussian(1.0, 1.0)
        p, depths, resolution, reps, seed = Fraction(2, 3), (4, 6), 4, 300, 5
        distances = sampler.convergence_ks(p, h0, h1, depths, resolution, reps, seed)
        grid = np.arange(1, 16) / 16
        for n, gap in distances:
            params = WeaverParams(n=n, p=p)
            exact = np.array(
                [float(cdf_at_dyadic(DyadicPoint(k=k, n=resolution), params)) for k in range(1, 16)]
            )
            # depth n's ensemble is keyed by (seed, n)
            means = np.sort(sampler.simulate_mean_ensemble(n, h0, h1, p, reps, seed, key=(n,)))
            empirical = np.searchsorted(means, grid, side="left") / reps
            assert gap == float(np.max(np.abs(empirical - exact)))

    def test_convergence_resolution_validated(self):
        with pytest.raises(RangeError):
            sampler.convergence_ks(
                Fraction(1, 2), *STANDARD, depths=(2,), resolution=3,
                replications=100, seed=0,
            )

    @pytest.mark.parametrize("resolution", [0, -1])
    def test_convergence_resolution_must_be_positive(self, resolution):
        with pytest.raises(RangeError, match="resolution must be positive"):
            sampler.convergence_ks(
                Fraction(1, 2), *STANDARD, depths=(2,), resolution=resolution,
                replications=100, seed=0,
            )


class TestChunkedStreams:
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    @pytest.mark.parametrize(
        "short, long",
        [(sampler.CHUNK - 3, sampler.CHUNK + 7), (sampler.CHUNK + 2, 2 * sampler.CHUNK + 1)],
    )
    def test_prefix_stability(self, pair, short, long):
        # the first r replications do not depend on how many follow them
        h0, h1 = PAIRS[pair]
        a = sampler.simulate_mean_ensemble(5, h0, h1, "2/3", short, seed=4)
        b = sampler.simulate_mean_ensemble(5, h0, h1, "2/3", long, seed=4)
        assert np.array_equal(a, b[:short])
        paths = sampler.path_ensemble(5, "2/3", long, seed=4)
        assert np.array_equal(sampler.path_ensemble(5, "2/3", short, seed=4), paths[:short])

    def test_prefix_stability_across_uniform_slabs(self, monkeypatch):
        # cells that straddle a slab boundary sum their pieces the same way
        monkeypatch.setattr(sampler, "UNIFORM_SLAB", 10)
        h0, h1 = PAIRS["uniform"]
        a = sampler.simulate_mean_ensemble(6, h0, h1, "1/3", 40, seed=9)
        b = sampler.simulate_mean_ensemble(6, h0, h1, "1/3", 57, seed=9)
        assert np.array_equal(a, b[:40])

    @pytest.mark.parametrize("slab", [1, 7, 64, 1 << 17])
    def test_uniform_totals_against_one_draw(self, monkeypatch, slab):
        # slab by slab equals one reduceat over the whole stream
        monkeypatch.setattr(sampler, "UNIFORM_SLAB", slab)
        sizes = np.array([1, 2, 4, 8, 16, 3, 1, 32, 5], dtype=np.int64)
        totals = sampler._uniform_totals(np.random.default_rng(3), sizes)
        values = np.random.default_rng(3).random(int(sizes.sum()))
        expected = np.add.reduceat(values, np.cumsum(sizes) - sizes)
        assert totals == pytest.approx(expected, rel=1e-14)
        assert len(sampler._uniform_totals(np.random.default_rng(3), sizes[:0])) == 0

    def test_runs_match_the_mean_ensemble(self):
        h0, h1 = PAIRS["mixed"]
        reps = sampler.CHUNK + 5
        runs = list(sampler.run_ensemble(4, h0, h1, "1/3", reps, seed=8))
        means = sampler.simulate_mean_ensemble(4, h0, h1, "1/3", reps, seed=8)
        ks = sampler.path_ensemble(4, "1/3", reps, seed=8)
        assert np.array_equal([run.mean for run in runs], means)
        assert [run.path.k for run in runs] == ks.tolist()
        assert all(run.total == sum(run.block_sums) for run in runs[:50])

    def test_point_mass_means_sit_on_the_lattice(self):
        n, reps = 7, 3000
        means = sampler.simulate_mean_ensemble(n, *STANDARD, "3/5", reps, seed=12)
        ks = sampler.path_ensemble(n, "3/5", reps, seed=12)
        assert np.array_equal(means, ks / ((1 << n) - 1))
        assert len(set(ks.tolist())) > 20

    def test_ensembles_differ_by_seed(self):
        a = sampler.path_ensemble(10, "1/2", 100, seed=1)
        b = sampler.path_ensemble(10, "1/2", 100, seed=2)
        assert not np.array_equal(a, b)

    def test_convergence_keys_each_depth(self):
        # depth n's samples depend on (seed, n), not on its place in depths
        h0, h1 = PAIRS["gauss"]
        p, reps = Fraction(2, 3), 300
        both = sampler.convergence_ks(p, h0, h1, (4, 6), 3, reps, seed=1)
        alone = sampler.convergence_ks(p, h0, h1, (6,), 3, reps, seed=1)
        assert both[1] == alone[0]
        # seed 1 at the second depth no longer reuses seed 2 at the first
        means = sampler.simulate_mean_ensemble(6, h0, h1, p, reps, seed=1, key=(6,))
        other = sampler.simulate_mean_ensemble(6, h0, h1, p, reps, seed=2, key=(6,))
        assert not np.array_equal(means, other)

    def test_ensemble_validation(self):
        with pytest.raises(RangeError):
            sampler.simulate_mean_ensemble(4, *STANDARD, "1/2", 0, seed=0)
        with pytest.raises(RangeError):
            sampler.path_ensemble(0, "1/2", 10, seed=0)
        with pytest.raises(RangeError):
            sampler.path_ensemble(4, "1", 10, seed=0)
        with pytest.raises(CapacityError):
            sampler.path_ensemble(64, "1/2", 10, seed=0)
        with pytest.raises(CapacityError):
            sampler.simulate_mean_ensemble(31, *STANDARD, "1/2", 10, seed=0)
        with pytest.raises(ContractError):
            sampler.simulate_mean_ensemble(4, point_mass(0.0), point_mass(2.0), "1/2", 10, seed=0)

    @pytest.mark.parametrize(
        "draw",
        [
            lambda seed: sampler.path_ensemble(4, "1/2", 10, seed),
            lambda seed: sampler.simulate_mean_ensemble(4, *STANDARD, "1/2", 10, seed),
            lambda seed: list(sampler.run_ensemble(4, *STANDARD, "1/2", 10, seed)),
            lambda seed: sampler.convergence_ks("1/2", *STANDARD, (4,), 2, 10, seed),
            lambda seed: sampler.draw_selection_path(4, "1/2", seed),
            lambda seed: sampler.run_exponential_sample(4, *STANDARD, "1/2", seed),
            lambda seed: sampler.run_from_path(SelectionPath(n=4, k=5), *STANDARD, seed),
        ],
        ids=["paths", "means", "runs", "convergence", "path", "run", "run-from-path"],
    )
    def test_negative_seed_rejected(self, draw):
        with pytest.raises(RangeError, match="seed must be non-negative, got -1"):
            draw(-1)
        draw(0)


def _one_pass_totals(rng, sizes, slab):
    # the slab-by-slab loop on one thread, the order the stream is read in
    starts = np.cumsum(sizes) - sizes
    end = int(sizes.sum())
    totals = np.zeros(len(sizes))
    for lo in range(0, end, slab):
        values = rng.random(min(slab, end - lo))
        first = int(np.searchsorted(starts, lo, side="right")) - 1
        stop = int(np.searchsorted(starts, lo + len(values), side="left"))
        offsets = starts[first:stop] - lo
        offsets[0] = 0
        totals[first:stop] += np.add.reduceat(values, offsets)
    return totals


class TestUniformSpans:
    """``_uniform_totals`` draws a stream of several slabs in contiguous
    spans at once; the totals must equal the one-pass loop's exactly."""

    # 282 draws; at each slab and span count below, some span boundary
    # falls inside a cell, so that cell's pieces come from two spans
    SIZES = np.array([1, 2, 4, 8, 16, 3, 1, 32, 5, 64, 9, 128, 2, 7], dtype=np.int64)

    @pytest.fixture
    def spans_drawn(self, monkeypatch):
        # records the first draw of every span that _uniform_totals draws
        firsts = []
        slab_pieces = sampler._slab_pieces

        def recorded(rng, starts, lo, hi):
            firsts.append(lo)
            return slab_pieces(rng, starts, lo, hi)

        monkeypatch.setattr(sampler, "_slab_pieces", recorded)
        return firsts

    @pytest.mark.parametrize("slab", [1, 7, 64])
    @pytest.mark.parametrize("spans", [1, 2, 3])
    def test_spans_match_one_pass(self, monkeypatch, spans_drawn, slab, spans):
        monkeypatch.setattr(sampler, "UNIFORM_SLAB", slab)
        monkeypatch.setattr(sampler, "_span_count", lambda slabs: min(spans, slabs))
        split, single = np.random.default_rng(11), np.random.default_rng(11)
        threads = threading.active_count()
        totals = sampler._uniform_totals(split, self.SIZES)
        assert np.array_equal(totals, _one_pass_totals(single, self.SIZES, slab))
        assert split.bit_generator.state == single.bit_generator.state
        assert threading.active_count() == threads
        assert len(spans_drawn) == spans
        starts = set((np.cumsum(self.SIZES) - self.SIZES).tolist())
        assert spans == 1 or not starts.issuperset(spans_drawn)

    def test_more_spans_than_cores_under_fast_switching(self, monkeypatch):
        # eight spans on short slabs, with the interpreter switching threads
        # every microsecond: no span's pieces may be lost or misplaced
        monkeypatch.setattr(sampler, "UNIFORM_SLAB", 3)
        monkeypatch.setattr(sampler, "_span_count", lambda slabs: min(8, slabs))
        sizes = np.tile(self.SIZES, 20)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(5):
                split, single = np.random.default_rng(seed), np.random.default_rng(seed)
                totals = sampler._uniform_totals(split, sizes)
                assert np.array_equal(totals, _one_pass_totals(single, sizes, 3))
                assert split.bit_generator.state == single.bit_generator.state
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("failing", [0, 1, 2], ids=["caller", "worker", "last-worker"])
    def test_span_error_reaches_the_caller(self, monkeypatch, failing):
        monkeypatch.setattr(sampler, "UNIFORM_SLAB", 7)
        monkeypatch.setattr(sampler, "_span_count", lambda slabs: min(3, slabs))
        slab_pieces = sampler._slab_pieces
        firsts = [0, 13 * 7, 27 * 7]  # 41 slabs in 3 spans

        def pieces(rng, starts, lo, hi):
            if lo == firsts[failing]:
                raise ValueError(f"span at {lo}")
            return slab_pieces(rng, starts, lo, hi)

        monkeypatch.setattr(sampler, "_slab_pieces", pieces)
        threads = threading.active_count()
        with pytest.raises(ValueError, match=f"span at {firsts[failing]}"):
            sampler._uniform_totals(np.random.default_rng(11), self.SIZES)
        assert threading.active_count() == threads

    def test_span_count(self):
        assert sampler._span_count(1) == 1
        assert 1 <= sampler._span_count(1 << 20) <= 2

    def test_one_slab_draws_on_the_calling_thread(self, spans_drawn):
        threads = threading.active_count()
        sampler._uniform_totals(np.random.default_rng(11), self.SIZES)
        assert spans_drawn == [0]
        assert threading.active_count() == threads


class TestSelectionCompare:
    P_VALUES = ("1/2", "1/3", "2/3", "3/4", "1/1000", "999/1000", "5/7")

    @staticmethod
    def scalar(words, threshold):
        return [((int(hi) << 64) | int(lo)) < threshold for hi, lo in words]

    @pytest.mark.parametrize("p", P_VALUES)
    def test_random_words(self, p):
        threshold = sampler._selection_threshold(Fraction(p))
        words = np.random.default_rng(threshold % 1000).integers(
            0, 1 << 64, size=(2000, 2), dtype=np.uint64
        )
        assert sampler._selection_bits(words, threshold).tolist() == self.scalar(words, threshold)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_ties_on_the_high_word(self, p):
        threshold = sampler._selection_threshold(Fraction(p))
        t_hi, t_lo = threshold >> 64, threshold & ((1 << 64) - 1)
        mask = (1 << 64) - 1
        his = {t_hi, (t_hi - 1) & mask, (t_hi + 1) & mask}
        los = {0, mask, t_lo, (t_lo - 1) & mask, (t_lo + 1) & mask}
        words = np.array([(hi, lo) for hi in sorted(his) for lo in sorted(los)], dtype=np.uint64)
        assert sampler._selection_bits(words, threshold).tolist() == self.scalar(words, threshold)

    def test_grid_shape(self):
        words = np.random.default_rng(0).integers(0, 1 << 64, size=(3, 5, 2), dtype=np.uint64)
        threshold = sampler._selection_threshold(Fraction(1, 3))
        bits = sampler._selection_bits(words, threshold)
        assert bits.shape == (3, 5)
        assert bits.ravel().tolist() == self.scalar(words.reshape(-1, 2), threshold)


class TestBlockSums:
    SIZE, CELLS = 64, 20000

    @pytest.mark.parametrize(
        "parent",
        [
            bernoulli(0.3),
            uniform_interval(-1.0, 3.0),
            gaussian(5.0, 4.0),
            PAIRS["gauss"][0],
            PAIRS["bernoulli"][1],
            PAIRS["uniform"][1],
        ],
        ids=["bernoulli", "uniform", "gauss", "gauss-std", "bernoulli-std", "uniform-std"],
    )
    def test_closed_form_moments(self, parent):
        m, cells = self.SIZE, self.CELLS
        sizes = np.full(cells, m, dtype=np.int64)
        sums = sampler._parent_sums(parent, np.random.default_rng(21), sizes)
        assert sums.shape == (cells,)
        assert abs(np.mean(sums) - m * parent.mean) < 4 * math.sqrt(m * parent.variance / cells)
        assert np.var(sums, ddof=1) == pytest.approx(m * parent.variance, rel=0.05)

    def test_point_mass_is_exact(self):
        sizes = np.array([1, 2, 4, 1024], dtype=np.int64)
        rng = np.random.default_rng(0)
        assert sampler._parent_sums(point_mass(2.5), rng, sizes).tolist() == [2.5, 5.0, 10.0, 2560.0]
        h0, h1 = STANDARD
        assert sampler._parent_sums(h1, rng, sizes).tolist() == [1.0, 2.0, 4.0, 1024.0]
        assert sampler._parent_sums(h0, rng, sizes).tolist() == [0.0] * 4

    @pytest.mark.parametrize(
        "parent", [uniform_interval(-1.0, 3.0), PAIRS["mixed"][1], gaussian(1.0, 2.0)]
    )
    def test_against_summed_draws(self, parent):
        # two-sample KS of block sums against sums of individual draws
        m, cells = 16, 4000
        sizes = np.full(cells, m, dtype=np.int64)
        sums = sampler._parent_sums(parent, np.random.default_rng(5), sizes)
        drawn = numpy_draw(parent, np.random.default_rng(6), m * cells).reshape(cells, m).sum(axis=1)
        assert scipy.stats.ks_2samp(sums, drawn).pvalue > 0.001
