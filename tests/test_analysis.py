"""Moments, the weaving/merging split, densities, and limit diagnostics."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaver import analysis
from weaver.errors import RangeError
from weaver.exact import WeaverParams, build_pmf_vector, pmf_point, realization_value

probabilities = st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100))
depths = st.integers(min_value=1, max_value=10)
TINY = Fraction(1, 10**400)  # its float is 0.0


def enumerated_moment(n: int, p: Fraction, j: int) -> Fraction:
    # the halving cascade, not the popcount walk that exact_moment reads
    masses = analysis.pmodel_cell_masses(n, p)
    return sum(
        (mass * realization_value(k, n) ** j for k, mass in enumerate(masses)),
        Fraction(0),
    )


class TestMoments:
    @given(n=depths, p=probabilities)
    def test_mean_is_p_at_every_depth(self, n, p):
        params = WeaverParams(n=n, p=p)
        assert analysis.exact_moment(params, 1) == p
        assert enumerated_moment(n, p, 1) == p

    @given(n=depths, p=probabilities)
    def test_variance_closed_form(self, n, p):
        params = WeaverParams(n=n, p=p)
        enumerated = enumerated_moment(n, p, 2) - p * p
        assert analysis.exact_variance(params) == enumerated

    def test_variance_prefactor(self):
        # (4**n - 1) / (3 (2**n - 1)**2) times p(1-p)
        p = Fraction(1, 2)
        assert analysis.exact_variance(WeaverParams(n=1, p=p)) == Fraction(1, 4)
        assert analysis.exact_variance(WeaverParams(n=2, p=p)) == Fraction(5, 36)
        assert analysis.exact_variance(WeaverParams(n=3, p=p)) == Fraction(3, 28)

    @given(n=depths, p=probabilities, j=st.integers(min_value=1, max_value=8))
    @settings(max_examples=40)
    def test_general_moments_match_enumeration(self, n, p, j):
        params = WeaverParams(n=n, p=p)
        assert analysis.exact_moment(params, j) == enumerated_moment(n, p, j)

    @pytest.mark.parametrize("n", [20, 64, 200])
    @pytest.mark.parametrize("p", [Fraction(3, 7), TINY], ids=["3/7", "1e-400"])
    def test_low_orders_beyond_the_table_cap(self, n, p):
        params = WeaverParams(n=n, p=p)
        assert analysis.exact_moment(params, 1) == p
        assert analysis.exact_moment(params, 2) == analysis.exact_variance(params) + p * p

    @pytest.mark.parametrize("n", [5, 64])
    def test_mirror_identity(self, n):
        # complementing every selection maps Y under p onto 1 - Y under 1 - p
        p = Fraction(3, 7)
        params, mirrored = WeaverParams(n=n, p=p), WeaverParams(n=n, p=1 - p)
        raw = [Fraction(1)] + [analysis.exact_moment(params, t) for t in range(1, 7)]
        for j in range(1, 7):
            expected = sum(math.comb(j, t) * (-1) ** t * raw[t] for t in range(j + 1))
            assert analysis.exact_moment(mirrored, j) == expected

    def test_moment_order_validated(self):
        with pytest.raises(RangeError):
            analysis.exact_moment(WeaverParams(n=3, p=Fraction(1, 2)), 0)

    def test_moments_decrease_in_order(self):
        # every realization off the endpoints sits strictly inside (0, 1)
        params = WeaverParams(n=4, p=Fraction(1, 3))
        moments = [analysis.exact_moment(params, j) for j in (2, 3, 4)]
        assert moments[0] > moments[1] > moments[2]

    def test_second_moment_identity(self):
        params = WeaverParams(n=3, p=Fraction(2, 3))
        assert analysis.exact_variance(params) == Fraction(2, 21)
        assert analysis.exact_moment(params, 2) == Fraction(2, 21) + Fraction(4, 9)

    @given(n=st.integers(min_value=1, max_value=12), p=probabilities)
    @settings(max_examples=50)
    def test_variance_strictly_decreases_in_depth(self, n, p):
        older = analysis.exact_variance(WeaverParams(n=n, p=p))
        newer = analysis.exact_variance(WeaverParams(n=n + 1, p=p))
        assert newer < older


class TestDecomposition:
    # depth, denominator, weaving, merging
    TABLE = [
        (1, 1, 1, 0),
        (2, 9, 5, 4),
        (3, 49, 21, 28),
        (4, 225, 85, 140),
        (5, 961, 341, 620),
        (6, 3969, 1365, 2604),
    ]

    @pytest.mark.parametrize("n,denom,weaving,merging", TABLE)
    def test_integer_skeleton(self, n, denom, weaving, merging):
        row = analysis.variance_decomposition(n, Fraction(1, 2))
        assert (row.denom, row.weaving, row.merging) == (denom, weaving, merging)

    @given(n=st.integers(min_value=1, max_value=40), p=probabilities)
    def test_split_is_exhaustive(self, n, p):
        row = analysis.variance_decomposition(n, p)
        assert row.weaving + row.merging == row.denom
        assert row.denom == ((1 << n) - 1) ** 2
        assert row.weaving_share + row.merging_share == 1

    @given(n=st.integers(min_value=1, max_value=40))
    def test_weaving_is_the_diagonal_sum(self, n):
        # trace of the block-size matrix: 1 + 4 + ... + 4**(n-1)
        row = analysis.variance_decomposition(n, Fraction(1, 2))
        assert row.weaving == sum(4 ** (j - 1) for j in range(1, n + 1))

    @given(n=depths, p=probabilities)
    def test_shares_scale_bernoulli_variance(self, n, p):
        # variance of conditional means + expected conditional variance = p(1-p)
        row = analysis.variance_decomposition(n, p)
        params = WeaverParams(n=n, p=p)
        bernoulli = p * (1 - p)
        assert row.weaving_share * bernoulli == analysis.exact_variance(params)
        dist = build_pmf_vector(params)
        expected_conditional = sum(
            (
                mass * realization_value(k, n) * (1 - realization_value(k, n))
                for k, mass in enumerate(dist.pmf)
            ),
            Fraction(0),
        )
        assert row.merging_share * bernoulli == expected_conditional

    def test_share_limits(self):
        row = analysis.variance_decomposition(60, Fraction(1, 2))
        assert abs(row.weaving_share - Fraction(1, 3)) < Fraction(1, 10**17)
        assert abs(row.merging_share - Fraction(2, 3)) < Fraction(1, 10**17)


class TestMergedAndLimit:
    @given(n=depths, p=probabilities)
    def test_merged_variable_is_bernoulli(self, n, p):
        # merging y into a Bernoulli(y) outcome adds E[Y(1-Y)] to var(Y)
        params = WeaverParams(n=n, p=p)
        mean = analysis.exact_moment(params, 1)
        variance = analysis.exact_variance(params) + mean - analysis.exact_moment(params, 2)
        assert mean == p
        assert variance == p * (1 - p)

    @given(p=probabilities)
    def test_limit_variance(self, p):
        assert analysis.limit_variance(p) == p * (1 - p) / 3

    def test_variance_ratio_decreases_to_one_third(self):
        p = Fraction(2, 3)
        bernoulli = p * (1 - p)
        ratios = [
            analysis.exact_variance(WeaverParams(n=n, p=p)) / bernoulli for n in range(1, 41)
        ]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] - Fraction(1, 3)) < Fraction(1, 10**12)


class TestLocalDensity:
    def test_depth_three_table(self):
        # piecewise density over the eight cells (k/8, (k+1)/8)
        p = Fraction(7, 10)
        q = 1 - p
        params = WeaverParams(n=3, p=p)
        expected = [
            8 * q**3, 8 * p * q**2, 8 * p * q**2, 8 * p**2 * q,
            8 * p * q**2, 8 * p**2 * q, 8 * p**2 * q, 8 * p**3,
        ]
        got = [analysis.local_density(k, params) for k in range(8)]
        assert got == [pytest.approx(float(e)) for e in expected]

    def test_flat_at_one_half(self):
        params = WeaverParams(n=10, p=Fraction(1, 2))
        assert {analysis.local_density(k, params) for k in (0, 17, 1023)} == {1.0}

    def test_edge_cells(self):
        params = WeaverParams(n=3, p=Fraction(2, 3))
        assert analysis.local_density(7, params) == pytest.approx(64 / 27)
        assert analysis.local_density(0, params) == pytest.approx(8 / 27)

    @given(n=st.integers(min_value=1, max_value=64), p=probabilities, data=st.data())
    def test_matches_the_exact_mass(self, n, p, data):
        # 2**n times the exact rational mass, rounded once, is the oracle
        params = WeaverParams(n=n, p=p)
        k = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1), label="k")
        expected = float((1 << n) * pmf_point(k, params))
        assert analysis.local_density(k, params) == pytest.approx(expected, rel=1e-12)

    def test_log_space_fallback_continuous(self):
        # the same leaf one depth further down, across the old 2**64 fork:
        # one more zero-selection multiplies the density by 2(1-p)
        p = Fraction(3, 5)
        k = (1 << 40) - 1
        shallow = analysis.local_density(k, WeaverParams(n=64, p=p))
        deeper = analysis.local_density(k, WeaverParams(n=65, p=p))
        assert deeper == pytest.approx(shallow * 2 * float(1 - p), rel=1e-9)

    @pytest.mark.parametrize("p", [TINY, 1 - TINY], ids=["1e-400", "1-1e-400"])
    def test_log_space_at_extreme_p(self, p):
        # nearly all mass sits on the leaf of the likely selections
        likely = 0 if p < Fraction(1, 2) else (1 << 65) - 1
        params = WeaverParams(n=65, p=p)
        assert analysis.local_density(likely, params) == pytest.approx(2.0**65, rel=1e-12)
        assert analysis.local_density(likely ^ 1, params) == 0.0  # 2**65 * 10**-400 underflows

    def test_density_beyond_binary64_is_inf(self):
        params = WeaverParams(n=2000, p=Fraction(9, 10))
        assert analysis.local_density((1 << 2000) - 1, params) == math.inf  # 2**1696.0...
        assert analysis.local_density(0, params) == 0.0


class TestRoughness:
    def test_balanced_cascade_is_smooth(self):
        report = analysis.roughness_report(Fraction(1, 2), 40)
        assert report.bias_ratio == 1
        assert report.ratio == 1.0
        assert report.fractal_dimension == 0.0
        assert report.left_product == 1.0
        assert report.right_product == 1.0

    def test_biased_cascade_polarizes(self):
        p = Fraction(2, 3)
        report = analysis.roughness_report(p, 10)
        assert report.bias_ratio == Fraction(2)
        assert report.ratio == pytest.approx(2.0**10)
        assert report.fractal_dimension == pytest.approx(1.0)
        # left cells die, right cells blow up
        assert report.left_product == pytest.approx((2 / 3) ** 10)
        assert report.right_product == pytest.approx((4 / 3) ** 10)
        assert report.left_product < 1 < report.right_product

    def test_two_to_one_bias(self):
        report = analysis.roughness_report(Fraction(2, 3), 3)
        assert report.ratio == pytest.approx(8.0)
        assert report.fractal_dimension == pytest.approx(1.0)

    def test_log_products_linear_in_level(self):
        p = Fraction(9, 10)
        for level in (1, 7, 60):
            report = analysis.roughness_report(p, level)
            assert report.log2_right_product == pytest.approx(
                level * (1 + math.log2(0.9)), rel=1e-12
            )
            assert report.log2_left_product == pytest.approx(
                level * (1 + math.log2(0.1)), rel=1e-12
            )

    def test_huge_level_stays_finite_in_log_space(self):
        report = analysis.roughness_report(Fraction(99, 100), 5000)
        assert report.ratio == math.inf
        assert report.right_product == math.inf
        assert math.isfinite(report.log2_right_product)
        assert math.isfinite(report.log2_left_product)

    @pytest.mark.parametrize("p", ["1/3", "1/2", "2/3", "3/7"])
    def test_agrees_with_the_float_path(self, p):
        p = Fraction(p)
        for level in (1, 7, 60):
            report = analysis.roughness_report(p, level)
            old_dimension = math.log2(float(p / (1 - p)))
            assert report.fractal_dimension == pytest.approx(old_dimension, rel=1e-12)
            old_left = level * (1.0 + math.log2(float(1 - p)))
            old_right = level * (1.0 + math.log2(float(p)))
            assert report.log2_left_product == pytest.approx(old_left, rel=1e-12)
            assert report.log2_right_product == pytest.approx(old_right, rel=1e-12)
            assert report.ratio == pytest.approx(float((p / (1 - p)) ** level), rel=1e-12)

    def test_extreme_p(self):
        # log2(10**400) bits separate the two selections' masses
        bits = 400 * math.log2(10)
        report = analysis.roughness_report(TINY, 10)
        assert report.fractal_dimension == pytest.approx(-bits, rel=1e-12)
        assert (report.ratio, report.left_product, report.right_product) == (0.0, 1024.0, 0.0)
        assert report.log2_right_product == pytest.approx(10 * (1 - bits), rel=1e-12)
        report = analysis.roughness_report(1 - TINY, 10)
        assert report.fractal_dimension == pytest.approx(bits, rel=1e-12)
        assert (report.ratio, report.left_product, report.right_product) == (math.inf, 0.0, 1024.0)
        assert report.log2_left_product == pytest.approx(10 * (1 - bits), rel=1e-12)

    def test_level_validated(self):
        with pytest.raises(RangeError):
            analysis.roughness_report(Fraction(1, 2), -1)


class TestPmodelEquivalence:
    @given(n=depths, p=probabilities)
    def test_local_split_equals_global_weave(self, n, p):
        # the halving cascade and the popcount law land on the same vector
        cells = analysis.pmodel_cell_masses(n, p)
        dist = build_pmf_vector(WeaverParams(n=n, p=p))
        assert cells == list(dist.pmf)

    def test_cells_sum_to_one(self):
        assert sum(analysis.pmodel_cell_masses(9, Fraction(3, 7))) == 1


class TestDeepEnumeration:
    def test_total_variance_split_at_depth_sixteen(self):
        # the exact split survives half-million-term enumeration
        p = Fraction(1, 2)
        params = WeaverParams(n=16, p=p)
        dist = build_pmf_vector(params)
        scale = (1 << 16) - 1
        expected_conditional = (
            Fraction(
                sum(k * (scale - k) for k in range(1 << 16)),
                (1 << 16) * scale**2,
            )
        )
        assert analysis.exact_variance(params) + expected_conditional == p * (1 - p)
        assert sum(dist.pmf) == 1
