"""Parent populations, path sampling, full runs, and Monte Carlo reports."""

import hashlib
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from weaver import analysis, sampler
from weaver.errors import CapacityError, RangeError
from weaver.exact import WeaverParams, pmf_point
from weaver.parents import (
    ParentDistribution,
    _parse_spec,
    bernoulli,
    gaussian,
    point_mass,
    standardize_parents,
    uniform_interval,
)

STANDARD = (point_mass(0.0), point_mass(1.0))

# the refusal of a point(0), point(2) pair, which is not standardized
UNSTANDARDIZED = (
    "parents must be standardized to means 0 and 1, got (0.0, 2.0); run standardize_parents first"
)


def refused(message):
    """pytest.raises for a RangeError whose whole text is ``message``."""
    return pytest.raises(RangeError, match=f"^{re.escape(message)}$")


# every family, standardized, plus a pair of different families
PAIRS = {
    "point": STANDARD,
    "bernoulli": standardize_parents(bernoulli(0.2), bernoulli(0.7)),
    "uniform": standardize_parents(uniform_interval(0.0, 1.0), uniform_interval(1.0, 2.0)),
    "gauss": standardize_parents(gaussian(0.0, 1.0), gaussian(1.0, 2.0)),
    "mixed": standardize_parents(gaussian(-5.0, 2.0), uniform_interval(-1.0, 0.0)),
}


def numpy_draw(parent, rng, size):
    """``size`` observations of ``parent``, drawn by numpy directly and put
    through the parent's affine map."""
    direct = {
        "point-mass": lambda c: np.full(size, c),
        "bernoulli": lambda q: (rng.random(size) < q).astype(np.float64),
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
            # not the bare ValueError or TypeError of float()
            ("gaussian", ("a", 1.0), "^cannot interpret 'a' as a float$"),
            ("gaussian", (None, 1.0), "^cannot interpret None as a float$"),
            ("gaussian", (0.0, [1]), r"^cannot interpret \[1\] as a float$"),
        ],
        ids=[
            "bernoulli-q", "gauss-variance", "point-count", "bernoulli-count", "uniform-order",
            "gauss-str", "gauss-none", "gauss-list",
        ],
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

    @pytest.mark.parametrize(
        "affine",
        [{"scale": math.nan}, {"shift": math.inf}, {"scale": -math.inf}],
        ids=["scale-nan", "shift-inf", "scale-minus-inf"],
    )
    def test_validation_rejects_non_finite_affine_map(self, affine):
        # a nan scale would otherwise give a nan mean and variance
        with pytest.raises(RangeError, match="scale and shift must be finite"):
            ParentDistribution("gaussian", (0.0, 1.0), **affine)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ParentDistribution("point-mass", (10**400,)),
             "point-mass parameters must be finite, got (inf,)"),
            (lambda: ParentDistribution("gaussian", (0, 10**400)),
             "gaussian parameters must be finite, got (0.0, inf)"),
            (lambda: ParentDistribution("uniform-interval", (0, 10**400)),
             "uniform-interval parameters must be finite, got (0.0, inf)"),
            (lambda: ParentDistribution("gaussian", (0.0, 1.0), scale=10**400),
             "scale and shift must be finite, got inf and 0.0"),
            (lambda: ParentDistribution("gaussian", (0.0, 1.0), shift=-(10**400)),
             "scale and shift must be finite, got 1.0 and -inf"),
            (lambda: point_mass(10**400), "point-mass parameters must be finite, got (inf,)"),
            # the range check comes first
            (lambda: bernoulli(10**400), "bernoulli parameter must lie in [0, 1], got inf"),
        ],
        ids=["point", "gauss", "uniform", "scale", "shift", "point_mass", "bernoulli"],
    )
    def test_int_past_binary64_is_a_range_error(self, build, message):
        # float() of such an int raises OverflowError; it is read as an infinity
        with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
            build()

    def test_values_are_stored_as_floats(self):
        record = ParentDistribution("uniform-interval", (-1, 2), scale=3, shift=0)
        assert record == uniform_interval(-1.0, 2.0)._replace(scale=3.0)
        assert {type(value) for value in (*record.params, record.scale, record.shift)} == {float}
        # any value that float() reads is read
        assert ParentDistribution("gaussian", ("0.5", True)) == gaussian(0.5, 1.0)

    def test_params_list_is_stored_as_a_tuple(self):
        params = [0.0, 1.0]
        from_list, from_tuple = ParentDistribution("gaussian", params), gaussian(0.0, 1.0)
        assert from_list == from_tuple and type(from_list.params) is tuple
        assert hash(from_list) == hash(from_tuple)
        params.append(5.0)  # the caller's list is not the record's
        assert from_list == from_tuple
        assert (from_list.mean, from_list.variance) == (0.0, 1.0)

    # README's short spec names, and the records they give
    SHORT_SPECS = {
        "point:0": point_mass(0.0),
        "bernoulli:0.25": bernoulli(0.25),
        "uniform:-1,2": uniform_interval(-1.0, 2.0),
        "gauss:0,1": gaussian(0.0, 1.0),
    }

    @pytest.mark.parametrize(
        "spec, short",
        [
            ("pointmass:0", "point:0"),
            ("point-mass:0", "point:0"),
            ("POINT:0", "point:0"),
            ("Bernoulli:0.25", "bernoulli:0.25"),
            ("uniform-interval:-1,2", "uniform:-1,2"),
            ("UNIFORM-Interval:-1,2", "uniform:-1,2"),
            ("gaussian:0,1", "gauss:0,1"),
            (" Gauss :0,1", "gauss:0,1"),
        ],
    )
    def test_spec_aliases(self, spec, short):
        # a family name is read lower-cased and stripped
        assert _parse_spec(spec) == _parse_spec(short) == self.SHORT_SPECS[short]

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

    @pytest.mark.parametrize("size", [1000, 393221])
    @pytest.mark.parametrize(
        "parent",
        [point_mass(2.5), uniform_interval(-1.0, 3.0), gaussian(5.0, 4.0), *PAIRS["mixed"]],
        ids=["point", "uniform", "gauss", "gauss-std", "uniform-std"],
    )
    def test_draw_is_numpy_direct_draw(self, parent, size):
        # past one raw batch, uniform draws come in several calls
        values = parent.draw(np.random.default_rng(19), size)
        expected = numpy_draw(parent, np.random.default_rng(19), size)
        assert values.tobytes() == expected.tobytes()

    def test_standardize_moves_means_to_zero_and_one(self):
        h0, h1 = standardize_parents(gaussian(3.0, 4.0), gaussian(7.0, 1.0))
        assert h0.mean == pytest.approx(0.0)
        assert h1.mean == pytest.approx(1.0)
        sampler._check_run(4, h0, h1)  # standardized up to round-off
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
        with refused("parent means coincide (1.0); no fluctuation between the two centres "
                     "of gravity is possible"):
            standardize_parents(gaussian(1.0, 1.0), gaussian(1.0, 2.0))

    @pytest.mark.parametrize("mu0, mu1", [(0.0, 1e-320), (1e308, -1e308)])
    def test_standardize_rejects_non_finite_slope(self, mu0, mu1):
        with refused(f"parent means {mu0} and {mu1} admit no finite standardizing slope "
                     "in binary64"):
            standardize_parents(point_mass(mu0), point_mass(mu1))

    def test_already_standard_pairs_pass_through(self):
        h0, h1 = standardize_parents(*STANDARD)
        assert (h0.mean, h1.mean) == (0.0, 1.0)


class TestSelectionSampling:
    def test_path_reproducible_from_seed(self):
        a = sampler.draw_selection_path(12, Fraction(1, 3), 99)
        b = sampler.draw_selection_path(12, Fraction(1, 3), 99)
        assert a == b
        # the leaf index itself, a plain int: replication 0 of the ensemble
        assert type(a) is int and a == sampler.path_ensemble(12, Fraction(1, 3), 1, 99)[0]

    def test_threshold_is_exact_for_dyadic_p(self):
        assert sampler._selection_threshold(Fraction(1, 2)) == 1 << 127
        assert sampler._selection_threshold(Fraction(3, 4)) == 3 << 126

    def test_extreme_p_biases_bits(self):
        near_one = sampler.draw_selection_path(40, Fraction(999, 1000), 0)
        near_zero = sampler.draw_selection_path(40, Fraction(1, 1000), 0)
        assert near_one.bit_count() > 30
        assert near_zero.bit_count() < 10

    def test_path_cap(self):
        sampler.draw_selection_path(63, Fraction(1, 2), 5)
        with pytest.raises(CapacityError):
            sampler.draw_selection_path(64, Fraction(1, 2), 5)

    def test_conditional_mean(self):
        assert sampler.run_from_path(6, 44, *STANDARD, 0).conditional_mean == Fraction(44, 63)

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
        assert run.total == run.k
        assert run.mean == pytest.approx(float(run.conditional_mean))
        assert run.conditional_mean == Fraction(run.k, 63)

    @staticmethod
    def record_parent_sums(monkeypatch):
        """Wrap ``sampler._parent_sums``; returns the list of (parent,
        sizes) that each call asked for, in call order."""
        calls, parent_sums = [], sampler._parent_sums

        def recording(parent, rng, sizes):
            calls.append((parent, sizes.tolist()))
            return parent_sums(parent, rng, sizes)

        monkeypatch.setattr(sampler, "_parent_sums", recording)
        return calls

    def test_ensemble_asks_each_parent_for_its_leaf_count(self, monkeypatch):
        # per chunk, h0 draws 2**n - 1 - k observations and h1 draws k, one
        # cell per replication, in the order of the ensemble's paths
        n, reps = 5, sampler.CHUNK + 40
        h0, h1 = PAIRS["gauss"]
        calls = self.record_parent_sums(monkeypatch)
        sampler.simulate_mean_ensemble(n, h0, h1, "2/5", reps, seed=3)
        ks = sampler.path_ensemble(n, "2/5", reps, seed=3).astype(np.int64).tolist()
        assert [parent for parent, _ in calls] == [h0, h1, h0, h1]
        assert [len(sizes) for _, sizes in calls] == [sampler.CHUNK] * 2 + [40] * 2
        assert calls[0][1] + calls[2][1] == [(1 << n) - 1 - k for k in ks]
        assert calls[1][1] + calls[3][1] == ks

    @pytest.mark.parametrize("k", range(32))
    def test_run_asks_each_parent_for_its_leaf_count(self, monkeypatch, k):
        h0, h1 = STANDARD
        calls = self.record_parent_sums(monkeypatch)
        run = sampler.run_from_path(5, k, h0, h1, seed=4)
        assert calls == [(h0, [31 - k]), (h1, [k])]
        assert run.parent_sums == (0.0, float(k))
        assert run.total == run.parent_sums[0] + run.parent_sums[1]

    @pytest.mark.parametrize("k", ["2**n", -1, True, 1.5], ids=str)
    def test_bad_leaf_index_refused_before_any_draw(self, monkeypatch, k):
        # before the raw draw cap (n = 40) and the parents (unstandardized)
        calls = self.record_parent_sums(monkeypatch)
        unstandardized = (point_mass(0.0), point_mass(2.0))
        for n, parents in ((5, STANDARD), (5, unstandardized), (40, STANDARD)):
            bad = 1 << n if k == "2**n" else k
            with refused(f"leaf index must be an integer in [0, 2**{n} - 1], got {bad!r}"):
                sampler.run_from_path(n, bad, *parents, seed=0)
        assert calls == []

    @pytest.mark.parametrize(
        ("pair", "n"),
        [*((pair, 6) for pair in sorted(PAIRS)), ("uniform", 10), ("uniform", 12)],
        ids=[*sorted(PAIRS), "uniform-10", "uniform-12"],
    )
    def test_empty_parent_sum_is_zero(self, pair, n):
        # leaf 0 draws no h1 observation and leaf 2**n - 1 no h0 one; the
        # other sum holds all of them (raw draws at n = 10, counted at 12)
        h0, h1 = PAIRS[pair]
        top = (1 << n) - 1
        for k, empty in ((0, 1), (top, 0)):
            run = sampler.run_from_path(n, k, h0, h1, seed=5)
            assert run.parent_sums[empty] == 0.0
            assert run.total == run.parent_sums[1 - empty]
            assert math.isfinite(run.total)

    @pytest.mark.parametrize(
        ("pair", "n"),
        [*((pair, 6) for pair in sorted(PAIRS)), ("uniform", 18)],
        ids=[*sorted(PAIRS), "uniform-18"],
    )
    @pytest.mark.parametrize("seed", [0, 11])
    def test_single_runs_are_replication_zero(self, pair, n, seed):
        # one stream contract: a single run is replication 0 of its ensembles,
        # and its total adds its two parent sums as the ensemble's does
        h0, h1 = PAIRS[pair]
        p = Fraction(2, 5)
        run = sampler.run_exponential_sample(n, h0, h1, p, seed)
        for replications in (1, 3):
            assert run.k == sampler.path_ensemble(n, p, replications, seed)[0]
            means = sampler.simulate_mean_ensemble(n, h0, h1, p, replications, seed)
            assert run.mean == means[0]
        assert run.total == run.parent_sums[0] + run.parent_sums[1]
        assert run.n == n and type(run.k) is int
        assert sampler.draw_selection_path(n, p, seed) == run.k
        assert sampler.run_from_path(run.n, run.k, h0, h1, seed) == run

    def test_unstandardized_parents_rejected(self):
        with refused(UNSTANDARDIZED):
            sampler.run_exponential_sample(4, point_mass(0.0), point_mass(2.0), Fraction(1, 2), 0)

    def test_standardization_slack(self):
        # means 0 and 1 up to 1e-12 pass; further off, or NaN, is refused
        sampler._check_run(4, point_mass(-1e-12), point_mass(1.0 + 2.0**-40))
        with pytest.raises(RangeError, match="must be standardized"):
            sampler._check_run(4, point_mass(2e-12), point_mass(1.0))
        with pytest.raises(RangeError, match="must be standardized"):
            sampler._check_run(4, point_mass(0.0), point_mass(1.0 + 2.0**-39))
        nan_mean = ParentDistribution("uniform-interval", (1e308, 1.7e308), scale=0.0)
        with pytest.raises(RangeError, match=r"got \(0.0, nan\)"):
            sampler._check_run(4, point_mass(0.0), nan_mean)

    def test_raw_draw_cap(self):
        with pytest.raises(CapacityError):
            sampler.run_exponential_sample(31, *STANDARD, Fraction(1, 2), 0)

    def test_raw_draw_cap_on_a_fixed_path(self):
        with pytest.raises(CapacityError):
            sampler.run_from_path(40, 5, *STANDARD, 0)


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
        # one integer rule, with the report's least: a float, a bool or a
        # numpy integer is refused as 99 is
        for replications in (99, 150.0, True, np.int64(200)):
            with pytest.raises(RangeError, match="must be an integer >= 100, got "):
                sampler.monte_carlo_moments(4, *STANDARD, Fraction(1, 2), replications, seed=0)

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

    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize(
        "pair",
        [
            (gaussian(0.0, 1.0), gaussian(1.0, 1.0)),
            # unequal variances: an h0/h1 swap changes the law
            standardize_parents(gaussian(3.0, 4.0), gaussian(7.0, 1.0)),
        ],
        ids=["gauss", "unequal-variances"],
    )
    def test_gaussian_means_follow_their_exact_law(self, pair, n):
        # given leaf k the total is S_{N-k}(h0) + S_k(h1), so the sample
        # mean is a 2**n-term normal mixture with W(n, p) weights.  Seed
        # and threshold are fixed in advance: investigate a failure, do
        # not re-seed it
        h0, h1 = pair
        p, big_n = Fraction(2, 3), (1 << n) - 1
        params = WeaverParams(n=n, p=p)
        k = np.arange(1 << n)
        weights = np.array([float(pmf_point(int(leaf), params)) for leaf in k])
        centres = (h0.mean * (big_n - k) + h1.mean * k) / big_n
        spreads = np.sqrt(h0.variance * (big_n - k) + h1.variance * k) / big_n

        def mixture_cdf(x):
            return scipy.stats.norm.cdf((x[:, None] - centres) / spreads) @ weights

        means = sampler.simulate_mean_ensemble(n, h0, h1, p, 4000, seed=17)
        assert scipy.stats.kstest(means, mixture_cdf).pvalue > 0.001


def block_oracle_means(n, h0, h1, p, replications, rng):
    """Sample means by the per-block construction, drawn by numpy
    directly: for each replication, n Bernoulli(p) selections, then
    2**j observations in block j of the parent its selection picks."""
    means = np.empty(replications)
    for r in range(replications):
        picks = rng.random(n) < float(p)
        blocks = [numpy_draw(h1 if pick else h0, rng, 1 << j).sum() for j, pick in enumerate(picks)]
        means[r] = math.fsum(blocks) / ((1 << n) - 1)
    return means


class TestAgainstBlockOracle:
    """The two parent sums of a leaf have the law of its 2**n - 1 block
    observations: the sampler's means against the per-block oracle's.
    Seeds and thresholds are fixed in advance: investigate a failure, do
    not re-seed it."""

    REPS = 4000

    @staticmethod
    def z_scores(means, report):
        # of the mean and the variance, against their exact values; the
        # variance's standard error takes the sample's 4th central moment
        reps = len(means)
        centered = means - np.mean(means)
        mu4 = np.mean(centered**4)
        z_mean = (np.mean(means) - float(report.exact_mean)) / report.standard_error
        z_var = (np.var(means, ddof=1) - report.exact_variance) / math.sqrt(
            (mu4 - report.exact_variance**2) / reps
        )
        return z_mean, z_var

    @pytest.mark.parametrize(
        ("pair", "n"),
        [*((pair, 6) for pair in sorted(PAIRS)), ("uniform", 12)],
        ids=[*sorted(PAIRS), "uniform-12"],
    )
    def test_sampler_matches_block_oracle(self, pair, n):
        h0, h1 = PAIRS[pair]
        p = Fraction(2, 5)
        means = sampler.simulate_mean_ensemble(n, h0, h1, p, self.REPS, seed=29)
        report = sampler.monte_carlo_moments(n, h0, h1, p, self.REPS, seed=29)
        oracle = block_oracle_means(n, h0, h1, p, self.REPS, np.random.default_rng(31))
        assert scipy.stats.ks_2samp(means, oracle).pvalue > 0.001
        for sample in (means, oracle):
            assert max(map(abs, self.z_scores(sample, report))) < 4


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

    def test_prefix_stability_across_uniform_batches(self, monkeypatch):
        # cells on either side of a batch boundary, and of the first block
        # drawn as bit counts, read the streams the same way
        monkeypatch.setattr(sampler, "_UNIFORM_BATCH", 10)
        monkeypatch.setattr(sampler, "_RAW_BATCH", 100)
        h0, h1 = PAIRS["uniform"]
        a = sampler.simulate_mean_ensemble(12, h0, h1, "1/3", 40, seed=9)
        b = sampler.simulate_mean_ensemble(12, h0, h1, "1/3", 57, seed=9)
        assert np.array_equal(a, b[:40])

    @pytest.mark.parametrize("batch", [1, 7, 64, 1 << 17])
    def test_uniform_totals_against_one_draw(self, monkeypatch, batch):
        # batch by batch equals one call over every cell, value for value,
        # and leaves the generator where that call does
        sizes = np.array([1, 2, 4, 8, 16, 3, 1, 32, 5, 1024, 7, 1 << 20] * 11, dtype=np.int64)
        whole, batched = np.random.default_rng(3), np.random.default_rng(3)
        monkeypatch.setattr(sampler, "_UNIFORM_BATCH", 1 << 20)
        monkeypatch.setattr(sampler, "_RAW_BATCH", 1 << 20)
        expected = sampler._uniform_totals(whole, sizes)
        monkeypatch.setattr(sampler, "_UNIFORM_BATCH", batch)
        monkeypatch.setattr(sampler, "_RAW_BATCH", batch)
        assert np.array_equal(sampler._uniform_totals(batched, sizes), expected)
        assert batched.bit_generator.state == whole.bit_generator.state
        assert len(sampler._uniform_totals(np.random.default_rng(3), sizes[:0])) == 0

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
        h0, h1 = PAIRS["gauss"]
        means = sampler.simulate_mean_ensemble(6, h0, h1, "2/3", 300, seed=1)
        other = sampler.simulate_mean_ensemble(6, h0, h1, "2/3", 300, seed=2)
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
        with refused(UNSTANDARDIZED):
            sampler.simulate_mean_ensemble(4, point_mass(0.0), point_mass(2.0), "1/2", 10, seed=0)

    @pytest.mark.parametrize(
        "draw",
        [
            lambda seed: sampler.path_ensemble(4, "1/2", 10, seed),
            lambda seed: sampler.simulate_mean_ensemble(4, *STANDARD, "1/2", 10, seed),
            lambda seed: sampler.draw_selection_path(4, "1/2", seed),
            lambda seed: sampler.run_exponential_sample(4, *STANDARD, "1/2", seed),
            lambda seed: sampler.run_from_path(4, 5, *STANDARD, seed),
        ],
        ids=["paths", "means", "path", "run", "run-from-path"],
    )
    def test_negative_seed_rejected(self, draw):
        with pytest.raises(RangeError, match="^seed must be an integer >= 0, got -1$"):
            draw(-1)
        draw(0)


def _uniform_moments(m):
    """Exact mean, variance, and 4th and 8th central moments of the
    Irwin-Hall sum of m uniforms on [0, 1), from the cumulants of U(0, 1),
    ``B_r / r``: 1/12, -1/120, 1/252 and -1/240 at orders 2, 4, 6 and 8."""
    k2, k4, k6, k8 = (m * Fraction(1, r) for r in (12, -120, 252, -240))
    mu4 = k4 + 3 * k2**2
    mu8 = k8 + 28 * k6 * k2 + 35 * k4**2 + 210 * k4 * k2**2 + 105 * k2**4
    return Fraction(m, 2), k2, mu4, mu8


class TestUniformBitCounts:
    """A uniform block of ``_BIT_COUNT_MIN`` observations or more is 53
    binomial bit counts, one per bit of the doubles ``Generator.random()``
    returns: the law of its summed raw draws.  A smaller block adds up its
    raw draws, which are cheaper there."""

    def test_against_a_scalar_oracle(self, monkeypatch):
        # cell by cell: a small block sums its raw draws; the first large
        # block reads a 128-bit seed word, and each large block draws 53
        # counts in bit order from the generator it seeds, summed exactly
        # as Fractions; each total is that sum rounded once.  Across batch
        # boundaries too, and the stream ends where the oracle's does
        monkeypatch.setattr(sampler, "_UNIFORM_BATCH", 4)
        monkeypatch.setattr(sampler, "_RAW_BATCH", 64)
        sizes = np.tile(np.array([1, 2, 3, 16, 1 << 16, 1 << 29, 7, 1, 1 << 20, 5, 1023, 1024]), 20)
        rng = np.random.default_rng(17)
        totals = sampler._uniform_totals(rng, sizes)
        oracle, counted = np.random.default_rng(17), None
        for m, total in zip(sizes.tolist(), totals.tolist()):
            if m < sampler._BIT_COUNT_MIN:
                assert total == pytest.approx(math.fsum(oracle.random(m).tolist()), rel=1e-13)
                continue
            if counted is None:
                counted = np.random.default_rng(oracle.integers(0, 1 << 64, 2, dtype=np.uint64))
            counts = counted.binomial(m, 0.5, 53)
            exact = sum(Fraction(int(count) << bit, 1 << 53) for bit, count in enumerate(counts))
            assert total == float(exact)
        assert rng.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("batch", [3, 1 << 14])
    @pytest.mark.parametrize(
        "sizes",
        [[0, 3, 5], [3, 0, 5], [3, 5, 0], [0], [0, 0, 0], [2, 0, 2], [7, 0, 1 << 12, 0, 2, 0]],
        ids=["leading", "interior", "trailing", "one", "all", "between", "beside-counted"],
    )
    def test_empty_cells_sum_to_zero_and_read_nothing(self, monkeypatch, sizes, batch):
        # an empty cell is 0.0; the others, and where the stream ends, are
        # those of the same call without it, across raw batch boundaries too
        monkeypatch.setattr(sampler, "_RAW_BATCH", batch)
        sizes = np.array(sizes, dtype=np.int64)
        filled = sizes > 0
        rng, without = np.random.default_rng(8), np.random.default_rng(8)
        totals = sampler._uniform_totals(rng, sizes)
        assert totals[~filled].tolist() == [0.0] * int((~filled).sum())
        assert np.array_equal(totals[filled], sampler._uniform_totals(without, sizes[filled]))
        assert rng.bit_generator.state == without.bit_generator.state

    def test_small_blocks_read_no_seed_word(self):
        # below the first large block the stream holds raw draws alone
        sizes = np.array([3, 1, sampler._BIT_COUNT_MIN - 1] * 5, dtype=np.int64)
        rng = np.random.default_rng(4)
        totals = sampler._uniform_totals(rng, sizes)
        draws = np.random.default_rng(4).random(int(sizes.sum()))
        assert np.array_equal(totals, np.add.reduceat(draws, np.cumsum(sizes) - sizes))
        assert rng.random() == np.random.default_rng(4).random(int(sizes.sum()) + 1)[-1]

    @pytest.mark.parametrize(
        "m",
        [1, 3, 1 << 16, (1 << (sampler.RAW_DRAW_CAP - 1)) - 1, 1 << (sampler.RAW_DRAW_CAP - 1),
         (1 << sampler.RAW_DRAW_CAP) - 1],
    )
    def test_largest_counts_round_once(self, m):
        # every count at its largest, m, up to the largest sum under the raw
        # draw cap, 2**cap - 1: the sum m * (1 - 2**-53), rounded once, no
        # overflow.  A higher cap fails here until the two-part split widens
        class Full:
            def binomial(self, n, p, size):
                return np.broadcast_to(n, size).copy()

        totals = sampler._bit_count_sums(Full(), np.full(3, m, dtype=np.int64))
        assert totals.tolist() == [float(Fraction(m * ((1 << 53) - 1), 1 << 53))] * 3

    @pytest.mark.parametrize("batch, cells", [(7, 40), (7, 7), (256, 600), (256, 3)])
    def test_one_call_covers_at_most_a_batch(self, monkeypatch, batch, cells):
        monkeypatch.setattr(sampler, "_UNIFORM_BATCH", batch)
        rng, calls = np.random.default_rng(2), []

        class Recording:
            def binomial(self, n, p, size):
                calls.append((n.shape, p, size))
                return rng.binomial(n, p, size)

        sampler._bit_count_sums(Recording(), np.arange(1, cells + 1, dtype=np.int64))
        assert all(size[0] <= batch and size == (shape[0], 53) and shape[1] == 1 and p == 0.5
                   for shape, p, size in calls)
        assert sum(size[0] for _, _, size in calls) == cells
        assert len(calls) == -(-cells // batch)

    @pytest.mark.parametrize("batch", [1, 100, 1 << 14])
    def test_raw_calls_stay_near_a_batch(self, monkeypatch, batch):
        # a call starts no cell past its first batch of draws, so it reads
        # fewer than batch + _BIT_COUNT_MIN doubles
        monkeypatch.setattr(sampler, "_RAW_BATCH", batch)
        rng, calls = np.random.default_rng(2), []

        class Recording:
            def random(self, size):
                calls.append(size)
                return rng.random(size)

        sizes = np.resize(np.array([1, 1023, 5, 512, 2]), 3001).astype(np.int64)
        sampler._raw_sums(Recording(), sizes)
        assert sum(calls) == sizes.sum()
        assert max(calls) < batch + sampler._BIT_COUNT_MIN

    CELLS = 100_000

    @pytest.mark.parametrize("m", [1, 2, 16, 1 << 16, 1 << 29])
    @pytest.mark.parametrize("draw", ["_uniform_totals", "_bit_count_sums"])
    def test_irwin_hall_moments(self, draw, m):
        # z-scores of the mean, the variance and the 4th standardized
        # moment, each against its exact standard error; bit counts at
        # every size, and raw draws below _BIT_COUNT_MIN
        mean, var, mu4, mu8 = _uniform_moments(m)
        sums = getattr(sampler, draw)(
            np.random.default_rng(26), np.full(self.CELLS, m, dtype=np.int64)
        )
        centered = sums - float(mean)
        z_mean = np.mean(centered) / math.sqrt(var / self.CELLS)
        z_var = (np.var(sums, ddof=1) - var) / math.sqrt((mu4 - var**2) / self.CELLS)
        kurtosis = mu4 / var**2
        assert kurtosis == 3 - Fraction(6, 5 * m)
        standardized = np.mean((centered / math.sqrt(var)) ** 4)
        z_kurtosis = (standardized - kurtosis) / math.sqrt((mu8 / var**4 - kurtosis**2) / self.CELLS)
        assert max(abs(z_mean), abs(z_var), abs(z_kurtosis)) < 4

    @pytest.mark.parametrize("draw", ["_uniform_totals", "_bit_count_sums"])
    def test_one_draw_is_uniform(self, draw):
        draws = getattr(sampler, draw)(np.random.default_rng(26), np.ones(self.CELLS, dtype=np.int64))
        assert draws.min() >= 0 and draws.max() < 1
        assert scipy.stats.kstest(draws, "uniform").pvalue > 0.001


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
