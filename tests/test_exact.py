"""Exact-arithmetic core: parameters, pmf, triangle, CDF, spectrum."""

import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaver import analysis, exact, sampler
from weaver.errors import CapacityError, RangeError
from weaver.exact import (
    WeaverParams,
    build_pmf_vector,
    cdf_at_dyadic,
    cdf_grid,
    geometric_triangle_row,
    jump_spectrum,
    pmf_point,
    pmf_point_log2,
    realization_value,
)
from weaver.parents import point_mass

# interior probabilities with small denominators, exercised exactly
probabilities = st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100))
depths = st.integers(min_value=1, max_value=10)


def brute_pmf(n: int, p: Fraction) -> list[Fraction]:
    """Independent oracle: mass at k from the popcount definition."""
    q = 1 - p
    return [p ** bin(k).count("1") * q ** (n - bin(k).count("1")) for k in range(1 << n)]


class TestAsExactProbability:
    """How exact._check_probability reads p as an exact Fraction."""

    def test_fraction_passthrough(self):
        assert exact._check_probability(Fraction(2, 3)) == Fraction(2, 3)

    def test_string_forms(self):
        assert exact._check_probability("2/3") == Fraction(2, 3)
        assert exact._check_probability("0.25") == Fraction(1, 4)

    def test_float_reads_as_decimal_literal(self):
        # 0.3 means the written decimal 3/10, not its binary64 neighbour; a
        # float subclass is read through float's own repr, which numpy 2
        # overrides, and a numpy float32 is no float
        assert exact._check_probability(0.3) == Fraction(3, 10)
        assert exact._check_probability(0.1) == Fraction(1, 10)
        assert WeaverParams(n=3, p=np.float64(0.3)).p == Fraction(3, 10)
        with pytest.raises(RangeError, match="^cannot interpret "):
            exact._check_probability(np.float32(0.3))

    def test_int_and_bool(self):
        # an int is read, then refused by its range; a bool is no probability
        with pytest.raises(RangeError, match=r"^p must lie strictly inside \(0, 1\), got 1$"):
            exact._check_probability(1)
        with pytest.raises(
            RangeError, match="^probability must be a Fraction, str, float, or int$"
        ):
            exact._check_probability(True)

    def test_garbage_rejected(self):
        with pytest.raises(RangeError):
            exact._check_probability("not-a-number")


class TestParams:
    def test_leaf_count(self):
        assert len(build_pmf_vector(WeaverParams(n=5, p=Fraction(1, 2))).pmf) == 32

    @pytest.mark.parametrize("bad_n", [0, -1])
    def test_depth_must_be_positive(self, bad_n):
        with pytest.raises(RangeError):
            WeaverParams(n=bad_n, p=Fraction(1, 2))

    @pytest.mark.parametrize("bad_p", [Fraction(0), Fraction(1), Fraction(7, 5), Fraction(-1, 2)])
    def test_degenerate_p_rejected(self, bad_p):
        with pytest.raises(RangeError):
            WeaverParams(n=3, p=bad_p)

    def test_p_coerced_from_string(self):
        assert WeaverParams(n=2, p="2/3").p == Fraction(2, 3)

    @pytest.mark.parametrize(
        "bad_p, text",
        [(float("nan"), "nan"), (float("inf"), "inf"), ("abc", "abc"), ("1/0", "1/0")],
    )
    def test_unparsable_p_is_a_range_error(self, bad_p, text):
        # not the bare ValueError / ZeroDivisionError of fractions
        message = f"cannot parse '{text}' as a fraction 'a/b' or a decimal"
        with pytest.raises(RangeError) as params_error:
            WeaverParams(n=3, p=bad_p)
        with pytest.raises(RangeError) as cells_error:
            analysis.pmodel_cell_masses(3, bad_p)
        assert str(params_error.value) == str(cells_error.value) == message

    @pytest.mark.parametrize(
        "bad_p, message",
        [
            (True, "probability must be a Fraction, str, float, or int"),
            (None, "cannot interpret None as an exact probability"),
            ([1], "cannot interpret [1] as an exact probability"),
        ],
        ids=["bool", "none", "list"],
    )
    def test_uninterpretable_p_is_a_range_error(self, bad_p, message):
        # not a bare TypeError: every refusal of the library is a RangeError
        with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
            WeaverParams(n=3, p=bad_p)


PARENTS = (point_mass(0.0), point_mass(1.0))
THIRD = WeaverParams(n=3, p=Fraction(1, 3))


@pytest.mark.parametrize(
    "call",
    [
        lambda: sampler.run_from_path(3, 1.5, *PARENTS, 0),
        lambda: cdf_at_dyadic(1.5, 3, THIRD),
        lambda: cdf_at_dyadic(True, 3, THIRD),
        lambda: cdf_at_dyadic(9, 3, THIRD),
        lambda: cdf_at_dyadic(-1, 3, THIRD),
        lambda: pmf_point(2.0, THIRD),
        lambda: pmf_point(True, THIRD),
    ],
    ids=[
        "run_from_path", "cdf_at_dyadic", "cdf_at_dyadic-bool", "cdf_at_dyadic-above",
        "cdf_at_dyadic-below", "pmf_point", "pmf_point-bool",
    ],
)
def test_non_integer_index_is_a_range_error(call):
    # rejected where it is given, not as a TypeError in the cdf walk or the
    # draws, and a leaf or grid index out of its range with it
    with pytest.raises(RangeError, match="integer"):
        call()


BAD_SEEDS = (1.5, True, -1)
BAD_COUNTS = (1.5, True, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: WeaverParams(n=True, p=Fraction(1, 3)),
        lambda: sampler.run_from_path(True, 0, *PARENTS, 0),
        lambda: geometric_triangle_row(True),
        lambda: analysis.variance_decomposition(True),
        lambda: sampler.path_ensemble(True, "1/2", 10, seed=0),
        lambda: cdf_at_dyadic(0, True, THIRD),
        lambda: cdf_grid(THIRD, True),
        lambda: sampler.run_from_path(1.5, 0, *PARENTS, 0),
        lambda: cdf_at_dyadic(0, 1.5, THIRD),
        lambda: cdf_grid(THIRD, 1.5),
        lambda: realization_value(0, 1.5),
        lambda: analysis.variance_decomposition(2.5),
        lambda: analysis.pmodel_cell_masses(2.0, "1/2"),
        lambda: sampler.draw_selection_path(2.0, "1/2", 0),
        lambda: sampler.simulate_mean_ensemble(
            2.0, point_mass(0.0), point_mass(1.0), "1/2", 10, seed=0
        ),
        lambda: cdf_at_dyadic(0, -1, THIRD),
        lambda: cdf_grid(THIRD, -1),
        # every other integer argument is checked by the same rule
        *(partial(sampler.path_ensemble, 4, "1/2", 10, seed) for seed in BAD_SEEDS),
        *(partial(sampler.path_ensemble, 4, "1/2", reps, 0) for reps in BAD_COUNTS),
        *(partial(sampler.simulate_mean_ensemble, 4, *PARENTS, "1/2", 10, seed)
          for seed in BAD_SEEDS),
        *(partial(sampler.simulate_mean_ensemble, 4, *PARENTS, "1/2", reps, 0)
          for reps in BAD_COUNTS),
        *(partial(analysis.exact_moment, THIRD, order)
          for order in BAD_COUNTS),
        *(partial(PARENTS[0].draw, np.random.default_rng(0), size) for size in BAD_SEEDS),
    ],
    ids=[
        "WeaverParams-bool", "run_from_path-bool", "triangle-bool", "decomposition-bool",
        "path_ensemble-bool", "cdf_at_dyadic-bool", "cdf_grid-bool", "run_from_path",
        "cdf_at_dyadic", "cdf_grid", "realization_value", "decomposition",
        "pmodel_cell_masses", "draw_selection_path", "simulate_mean_ensemble",
        "cdf_at_dyadic-negative", "cdf_grid-negative",
        *(
            f"{call}-{case}"
            for call in (
                "path_ensemble-seed", "path_ensemble-replications",
                "simulate_mean_ensemble-seed", "simulate_mean_ensemble-replications",
                "exact_moment-order", "draw-size",
            )
            for case in ("float", "bool", "below")
        ),
    ],
)
def test_bad_depth_is_a_range_error(call):
    # rejected where it is given: a bool or a float is no depth, resolution,
    # order, seed, count or draw size, nor is a value below its least
    with pytest.raises(RangeError, match="must be an integer >= "):
        call()


class TestPmf:
    def test_depth_three_table(self):
        # symbolic depth-3 masses, ordered by leaf index
        p = Fraction(2, 3)
        q = 1 - p
        expected = [q**3, p * q**2, p * q**2, p**2 * q, p * q**2, p**2 * q, p**2 * q, p**3]
        params = WeaverParams(n=3, p=p)
        assert [pmf_point(k, params) for k in range(8)] == expected

    @given(n=depths, p=probabilities)
    def test_vector_matches_pointwise(self, n, p):
        params = WeaverParams(n=n, p=p)
        dist = build_pmf_vector(params)
        assert list(dist.pmf) == brute_pmf(n, p)

    @given(n=depths, p=probabilities)
    def test_total_mass_is_one(self, n, p):
        dist = build_pmf_vector(WeaverParams(n=n, p=p))
        assert sum(dist.pmf) == 1

    @given(n=depths, p=probabilities)
    def test_adjacent_pair_ratio(self, n, p):
        # within every pair, the odd index carries f = p/(1-p) times the mass
        pmf = build_pmf_vector(WeaverParams(n=n, p=p)).pmf
        f = p / (1 - p)
        for left in range(0, 1 << n, 2):
            assert pmf[left + 1] == f * pmf[left]

    @given(n=depths, p=probabilities)
    def test_second_half_scales_by_f(self, n, p):
        # self-similarity: the top half repeats the bottom half times f
        pmf = build_pmf_vector(WeaverParams(n=n, p=p)).pmf
        f = p / (1 - p)
        half = 1 << (n - 1)
        assert list(pmf[half:]) == [f * mass for mass in pmf[:half]]

    def test_mass_conservation_at_deep_materialization(self):
        dist = build_pmf_vector(WeaverParams(n=16, p=Fraction(4, 9)))
        assert sum(dist.pmf) == 1

    def test_vector_matches_pointwise_at_depth_twelve(self):
        params = WeaverParams(n=12, p=Fraction(3, 5))
        dist = build_pmf_vector(params)
        assert all(dist.pmf[k] == pmf_point(k, params) for k in range(1 << 12))

    @given(n=depths, p=probabilities)
    def test_mirror_symmetry(self, n, p):
        # reversing the leaf order swaps the roles of p and 1-p
        direct = build_pmf_vector(WeaverParams(n=n, p=p)).pmf
        flipped = build_pmf_vector(WeaverParams(n=n, p=1 - p)).pmf
        assert list(direct) == list(reversed(flipped))

    def test_mirrored_leaf(self):
        # complementing all six bits maps leaf k of W(6, p) to leaf 63 - k of W(6, 1-p)
        params = WeaverParams(n=6, p=Fraction(2, 7))
        other = WeaverParams(n=6, p=Fraction(5, 7))
        for k in (0, 1, 17, 63):
            assert pmf_point(k, params) == pmf_point(63 - k, other)

    def test_uniform_at_one_half(self):
        dist = build_pmf_vector(WeaverParams(n=7, p=Fraction(1, 2)))
        assert set(dist.pmf) == {Fraction(1, 128)}

    def test_log_pmf_agrees(self):
        params = WeaverParams(n=12, p=Fraction(3, 7))
        for k in (0, 1, 100, 4095):
            expected = math.log2(float(pmf_point(k, params)))
            assert pmf_point_log2(k, params) == pytest.approx(expected, rel=1e-12)

    def test_materialization_cap(self, monkeypatch):
        with pytest.raises(CapacityError):
            build_pmf_vector(WeaverParams(n=25, p=Fraction(1, 2)))
        # the cap is read when each table is asked for, and depth == cap is allowed
        monkeypatch.setattr(exact, "MATERIALIZATION_CAP", 5)
        half = Fraction(1, 2)
        tables = {
            "pmf vector": lambda n: build_pmf_vector(WeaverParams(n=n, p=half)),
            "triangle row": geometric_triangle_row,
            "cdf grid": lambda n: cdf_grid(WeaverParams(n=n, p=half), n),
            "cell mass vector": lambda n: analysis.pmodel_cell_masses(n, half),
        }
        for what, build in tables.items():
            build(5)
            message = f"{what} needs 2**6 entries, above the materialization cap 5"
            with pytest.raises(CapacityError, match=re.escape(message)):
                build(6)
        # the moments walk the n selection bits, not the 2**n leaves
        assert analysis.exact_moment(WeaverParams(n=6, p=half), 1) == half

    def test_dist_mass_accessor(self):
        params = WeaverParams(n=4, p=Fraction(1, 3))
        dist = build_pmf_vector(params)
        assert dist.pmf[9] == pmf_point(9, params)
        with pytest.raises(RangeError):
            pmf_point(16, params)

    @given(n=depths, p=probabilities)
    def test_entries_share_the_jump_heights(self, n, p):
        pmf = build_pmf_vector(WeaverParams(n=n, p=p)).pmf
        assert len({id(mass) for mass in pmf}) <= n + 1


def log2_reference(x: Fraction) -> float:
    """log2 of x computed in 50-digit decimal, rounded once to binary64."""
    with localcontext() as context:
        context.prec = 50
        return float((Decimal(x.numerator) / Decimal(x.denominator)).ln() / Decimal(2).ln())


TINY = Fraction(1, 10**400)  # its float is 0.0


class TestLogSpace:
    """The log-space helpers take log2 of p and 1 - p exactly, at any p."""

    @pytest.mark.parametrize(
        "x",
        [
            Fraction(1), Fraction(1, 3), Fraction(3, 7), Fraction(3, 2), Fraction(3, 4),
            1 - Fraction(1, 10**6), 1 + Fraction(1, 10**6), 1 - Fraction(1, 10**12),
            TINY, 1 - TINY, 1 / TINY - 1, Fraction(1, 2**1100), Fraction(3**700, 2**1100),
        ],
        ids=[
            "1", "1/3", "3/7", "3/2", "3/4", "1-1e-6", "1+1e-6", "1-1e-12",
            "1e-400", "1-1e-400", "1e400-1", "2**-1100", "3**700/2**1100",
        ],
    )
    def test_log2_of_a_rational(self, x):
        assert exact._log2(x) == pytest.approx(log2_reference(x), rel=1e-15, abs=0)

    LEAVES = (0, 1, 12345, (1 << 70) - 1)

    @pytest.mark.parametrize("p", ["1/3", "1/2", "2/3", "3/7"])
    def test_pmf_log2_agrees_with_the_float_path(self, p):
        params = WeaverParams(n=70, p=Fraction(p))
        x = float(params.p)
        for k in self.LEAVES:
            ones = k.bit_count()
            old = ones * math.log2(x) + (70 - ones) * math.log2(1.0 - x)
            assert pmf_point_log2(k, params) == pytest.approx(old, rel=1e-12)

    # near p = 1 the float path's 1.0 - p and log2(float(p)) lose about
    # 1e-10 relative, so the decimal reference is the oracle here
    @pytest.mark.parametrize(
        "p",
        [TINY, 1 - TINY, Fraction(1, 10**6), 1 - Fraction(1, 10**6)],
        ids=["1e-400", "1-1e-400", "1e-6", "1-1e-6"],
    )
    def test_pmf_log2_at_extreme_p(self, p):
        params = WeaverParams(n=70, p=p)
        for k in self.LEAVES:
            ones = k.bit_count()
            expected = ones * log2_reference(p) + (70 - ones) * log2_reference(1 - p)
            assert pmf_point_log2(k, params) == pytest.approx(expected, rel=1e-12, abs=0)


class TestRealizations:
    def test_lattice_values(self):
        assert realization_value(0, 3) == 0
        assert realization_value(7, 3) == 1
        assert realization_value(3, 3) == Fraction(3, 7)

    @given(n=depths)
    def test_endpoints(self, n):
        assert realization_value(0, n) == 0
        assert realization_value((1 << n) - 1, n) == 1


class TestGeometricTriangle:
    def test_first_rows(self):
        assert geometric_triangle_row(0) == [0]
        assert geometric_triangle_row(1) == [0, 1]
        assert geometric_triangle_row(2) == [0, 1, 1, 2]
        assert geometric_triangle_row(3) == [0, 1, 1, 2, 1, 2, 2, 3]

    @given(n=st.integers(min_value=0, max_value=12))
    def test_row_entries_are_popcounts(self, n):
        row = geometric_triangle_row(n)
        assert row == [bin(k).count("1") for k in range(1 << n)]

    @given(n=st.integers(min_value=0, max_value=12))
    def test_row_sum_recursion(self, n):
        # each refinement doubles the previous sum and adds 2**(n-1) new ones
        if n > 0:
            previous = sum(geometric_triangle_row(n - 1))
            assert sum(geometric_triangle_row(n)) == 2 * previous + (1 << (n - 1))

    def test_sum_sequence(self):
        assert [sum(geometric_triangle_row(i)) for i in range(10)] == [
            0, 1, 4, 12, 32, 80, 192, 448, 1024, 2304,
        ]

    def test_closed_form(self):
        # each of the n bits is set in half of the 2**n leaves
        assert sum(geometric_triangle_row(0)) == 0
        for n in range(1, 20):
            assert sum(geometric_triangle_row(n)) == n * (1 << (n - 1))

    def test_row_cap(self):
        with pytest.raises(CapacityError):
            geometric_triangle_row(25)


class TestDyadicPoint:
    """The grid point k / 2**m, given to the cdf as the two ints k and m."""

    def test_bounds(self):
        assert (cdf_at_dyadic(0, 0, THIRD), cdf_at_dyadic(1, 0, THIRD)) == (0, 1)
        for k in (9, -1, True, 1.5):
            message = rf"^k must be an integer in \[0, 2\*\*3\], got {k}$"
            with pytest.raises(RangeError, match=message):
                cdf_at_dyadic(k, 3, THIRD)
        with pytest.raises(RangeError, match="^resolution must be an integer >= 0, got -1$"):
            cdf_at_dyadic(0, -1, THIRD)


class TestCdf:
    def brute_cdf(self, k: int, m: int, params: WeaverParams) -> Fraction:
        bound = k << (params.n - m)
        return sum(brute_pmf(params.n, params.p)[:bound], Fraction(0))

    @pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(2, 3)])
    def test_anchor_values(self, p):
        q = 1 - p
        params = WeaverParams(n=9, p=p)

        def F(k, m):
            return cdf_at_dyadic(k, m, params)

        assert F(1, 1) == q
        assert F(1, 2) == q * q
        assert F(3, 2) == 1 - p * p
        assert F(3, 3) == q**2 + p * q**2
        assert F(7, 3) == 1 - p**3

    def test_endpoints(self):
        params = WeaverParams(n=6, p=Fraction(1, 5))
        assert cdf_at_dyadic(0, 4, params) == 0
        assert cdf_at_dyadic(16, 4, params) == 1

    @pytest.mark.parametrize("n, p", [(3, Fraction(1, 2)), (6, Fraction(1, 5))])
    def test_row_zero_is_not_the_atom_at_zero(self, n, p):
        # F_n(0) = P(X <= 0) is the atom (1 - p)**n of leaf 0; at k = 0 the
        # cdf and its grid hold the mass strictly below 0, the limit law's F(0)
        params = WeaverParams(n=n, p=p)
        assert pmf_point(0, params) == (1 - p) ** n
        for m in range(n + 1):
            assert cdf_at_dyadic(0, m, params) == 0
            assert next(cdf_grid(params, m)[0]) == 0

    @given(
        p=probabilities,
        n=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    def test_matches_enumeration(self, p, n, data):
        m = data.draw(st.integers(min_value=0, max_value=n), label="resolution")
        k = data.draw(st.integers(min_value=0, max_value=1 << m), label="grid index")
        params = WeaverParams(n=n, p=p)
        assert cdf_at_dyadic(k, m, params) == self.brute_cdf(k, m, params)

    @given(p=probabilities, m=st.integers(min_value=0, max_value=6), data=st.data())
    def test_stable_under_refinement(self, p, m, data):
        k = data.draw(st.integers(min_value=0, max_value=1 << m), label="grid index")
        depth0 = max(m, 1)
        values = {
            cdf_at_dyadic(k, m, WeaverParams(n=depth0 + extra, p=p)) for extra in (0, 1, 3, 5)
        }
        assert len(values) == 1

    def test_monotone_in_grid(self):
        params = WeaverParams(n=8, p=Fraction(3, 11))
        values = [cdf_at_dyadic(k, 8, params) for k in range(257)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_unstable_resolution_rejected(self):
        params = WeaverParams(n=3, p=Fraction(1, 2))
        with pytest.raises(RangeError, match="^resolution 4 exceeds construction depth 3; "
                           "the value is not yet stable$"):
            cdf_at_dyadic(1, 4, params)


class TestCdfGrid:
    """The running-sum grid against the O(n) digit walk, point by point."""

    @pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3), Fraction(5, 7)])
    @pytest.mark.parametrize("n, m", [(1, 1), (6, 6), (9, 9), (9, 4), (12, 0), (12, 7)])
    def test_matches_point_queries(self, p, n, m):
        params = WeaverParams(n=n, p=p)
        sums, den = cdf_grid(params, m)
        assert [Fraction(s, den) for s in sums] == [
            cdf_at_dyadic(k, m, params) for k in range((1 << m) + 1)
        ]

    @given(p=probabilities, n=st.integers(min_value=1, max_value=8), data=st.data())
    def test_matches_point_queries_for_any_p(self, p, n, data):
        m = data.draw(st.integers(min_value=0, max_value=n), label="resolution")
        params = WeaverParams(n=n, p=p)
        sums, den = cdf_grid(params, m)
        grid = [Fraction(s, den) for s in sums]
        assert len(grid) == (1 << m) + 1
        assert grid == [cdf_at_dyadic(k, m, params) for k in range(len(grid))]

    @pytest.mark.parametrize(
        "p", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(5, 7), Fraction(1, 1000)]
    )
    @pytest.mark.parametrize("m", range(9))
    def test_start_walk_matches_point_queries(self, p, m):
        # the integer walk that starts a grid at any k, against the
        # Fraction walk, as rationals: its numerator at k over d**m
        params = WeaverParams(n=max(m, 1), p=p)
        d = p.denominator
        for k in range((1 << m) + 1):
            assert Fraction(exact._cdf_numerator(p, m, k), d**m) == cdf_at_dyadic(k, m, params), k

    @pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(5, 7)])
    @pytest.mark.parametrize("n, m", [(1, 1), (6, 6), (9, 4)])
    def test_grid_from_any_start(self, p, n, m):
        params = WeaverParams(n=n, p=p)
        whole = list(cdf_grid(params, m)[0])
        for start in range((1 << m) + 1):
            sums, den = cdf_grid(params, m, start)
            assert den == p.denominator**m
            assert list(sums) == whole[start:], start

    @pytest.mark.parametrize("start", [-1, 9, True, 1.0, "1"], ids=repr)
    def test_bad_start_refused_before_the_first_sum(self, start):
        # unchecked, -1 ran F above 1, 9 gave a single row of 1, and True read as 1
        with pytest.raises(RangeError, match=r"^k must be an integer in \[0, 2\*\*3\], got "):
            cdf_grid(WeaverParams(n=3, p="1/3"), 3, start)

    def test_start_at_the_end_yields_the_last_row(self):
        sums, den = cdf_grid(WeaverParams(n=3, p="1/3"), 3, 8)
        assert (list(sums), den) == ([27], 27)

    def test_unstable_resolution_rejected(self):
        with pytest.raises(RangeError, match="^resolution 4 exceeds construction depth 3; "
                           "the value is not yet stable$"):
            cdf_grid(WeaverParams(n=3, p=Fraction(1, 2)), 4)

    def test_cap_checked_before_refinement(self, monkeypatch):
        monkeypatch.setattr(exact, "MATERIALIZATION_CAP", 4)
        with pytest.raises(CapacityError, match="cdf grid needs 2\\*\\*5 entries"):
            cdf_grid(WeaverParams(n=3, p=Fraction(1, 2)), 5)


class TestJumpSpectrum:
    def test_heights_and_counts(self):
        p = Fraction(2, 5)
        q = 1 - p
        spectrum = jump_spectrum(WeaverParams(n=4, p=p))
        assert [count for _, count in spectrum] == [1, 4, 6, 4, 1]
        assert [height for height, _ in spectrum] == [
            q**4, p * q**3, p**2 * q**2, p**3 * q, p**4,
        ]

    @given(n=depths, p=probabilities)
    def test_spectrum_accounts_for_all_mass(self, n, p):
        spectrum = jump_spectrum(WeaverParams(n=n, p=p))
        assert sum(height * count for height, count in spectrum) == 1
        assert sum(count for _, count in spectrum) == 1 << n

    @settings(max_examples=25)
    @given(n=st.integers(min_value=1, max_value=8), p=probabilities)
    def test_heights_match_pmf_multiset(self, n, p):
        params = WeaverParams(n=n, p=p)
        from collections import Counter

        by_mass = Counter(brute_pmf(n, p))
        for height, count in jump_spectrum(params):
            assert by_mass[height] >= count  # distinct popcounts may collide for special p

    def test_exact_multiset_for_asymmetric_p(self):
        # away from p = 1/2 the popcount classes have distinct masses
        from collections import Counter

        spectrum = jump_spectrum(WeaverParams(n=5, p=Fraction(3, 5)))
        expanded = Counter({height: count for height, count in spectrum})
        assert expanded == Counter(brute_pmf(5, Fraction(3, 5)))


def test_oracles_reach_no_kernel(monkeypatch):
    # the tables and moments are checked against these oracles, which would
    # check nothing if they read the same integer kernels
    def kernel(*args, **kwargs):
        raise RuntimeError("an oracle reached a kernel")

    for module, name in [
        (exact, "_mass_numerators"), (exact, "cdf_grid"), (exact, "_cdf_numerator"),
        (analysis, "_moment_numerators"), (sampler, "_parent_sums"),
    ]:
        monkeypatch.setattr(module, name, kernel)
    p = Fraction(2, 3)
    params = WeaverParams(n=3, p=p)
    with pytest.raises(RuntimeError, match="kernel"):  # the patch is in effect
        build_pmf_vector(params)
    assert pmf_point(5, params) == p**2 * (1 - p)
    assert cdf_at_dyadic(3, 2, params) == 1 - p * p
    assert geometric_triangle_row(3) == [0, 1, 1, 2, 1, 2, 2, 3]
    assert analysis.pmodel_cell_masses(3, p)[5] == p**2 * (1 - p)
