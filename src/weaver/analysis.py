"""Exact moments, the weaving/merging variance split, and limit diagnostics.

The conditional mean under exponential sampling has mean p at every
depth and variance (4**n - 1) / (3 * (2**n - 1)**2) * p * (1-p), which
decreases monotonically to p*(1-p)/3; raw moments of every order follow
exactly from the n selection bits, one bit at a time, at any depth.
Forcing every lattice point back onto {0, 1} restores the full Bernoulli
variance p*(1-p); the gap is the expected conditional variance, which
splits p*(1-p) into a "weaving" share (variance of the conditional means)
and a "merging" share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from weaver.errors import RangeError
from weaver.exact import WeaverParams, _check_cap, _check_probability, _log2, pmf_point_log2


@dataclass(frozen=True)
class DecompositionRow:
    """Integer skeleton of the variance split at depth n.

    weaving + merging == denom, and the shares sum to 1; multiplying
    either share by p*(1-p) gives the corresponding variance component.
    """

    n: int
    denom: int
    weaving: int
    merging: int
    weaving_share: Fraction
    merging_share: Fraction


@dataclass(frozen=True)
class RoughnessReport:
    """Mass-ratio growth inside a single cell after repeated refinement.

    After ``level`` refinements of any leaf, the rightmost descendant
    carries bias_ratio**level times the mass of the leftmost one.  The
    two products scale the leaf's own mass: the left one,
    (2*(1-p))**level, measures the leftmost descendant density and the
    right one, (2*p)**level, the rightmost; for p above 1/2 the first
    shrinks to zero while the second grows without bound.  Both are also
    reported in base-2 logarithms so deep levels stay finite.
    """

    p: Fraction
    bias_ratio: Fraction
    level: int
    ratio: float
    fractal_dimension: float
    left_product: float
    right_product: float
    log2_left_product: float
    log2_right_product: float


def exact_variance(params: WeaverParams) -> Fraction:
    """Variance of the conditional sample mean, in closed form.

    (4**n - 1) / (3 * (2**n - 1)**2) * p * (1-p), exact.
    """
    n = params.n
    p = params.p
    return Fraction((1 << 2 * n) - 1, 3 * ((1 << n) - 1) ** 2) * p * (1 - p)


def _moment_numerators(params: WeaverParams, order: int) -> tuple[list[int], int]:
    """Numerators of E[K**t], t = 0..order, over d**n, for K = sum(b_i * 2**i).

    With p = a/d, adding selection bit i maps m[t] = d**i * E[K**t] to
    d*m[t] + a * sum(C(t, s) * m[s] * 2**(i*(t-s)) for s < t): O(n * order**2)
    integer work, no leaf visited.  Moment t of W(n, p) is m[t] / (d**n * (2**n - 1)**t).
    """
    a, d = params.p.numerator, params.p.denominator
    moments = [1] + [0] * order
    for i in range(params.n):
        for t in range(order, -1, -1):  # descending: m[s < t] are still bit i's inputs
            spread, binomial = 0, 1  # the sum by Horner's rule in 2**i; binomial is C(t, s)
            for s in range(t):
                spread = (spread + binomial * moments[s]) << i
                binomial = binomial * (t - s) // (s + 1)
            moments[t] = d * moments[t] + a * spread
    return moments, d**params.n


def exact_moment(params: WeaverParams, j: int) -> Fraction:
    """j-th raw moment of W(n, p), exact, in O(n * j**2) from the selection bits.

    Strictly decreasing in j for fixed parameters, since every interior
    support point lies strictly inside (0, 1).
    """
    if j < 1:
        raise RangeError(f"moment order must be positive, got {j}")
    numerators, denominator = _moment_numerators(params, j)
    return Fraction(numerators[j], denominator * ((1 << params.n) - 1) ** j)


def variance_decomposition(n: int, p: Fraction | str | float) -> DecompositionRow:
    """Split the Bernoulli variance p*(1-p) between weaving and merging.

    Over the common denominator (2**n - 1)**2, the weaving part is
    (4**n - 1)/3 (the diagonal of the block covariance table) and the
    merging part is 2*(4**n - 3*2**n + 2)/3 (everything off the
    diagonal); the two add up to the denominator exactly.
    """
    if n < 1:
        raise RangeError(f"n must be positive, got {n}")
    _check_probability(p)
    denom = ((1 << n) - 1) ** 2
    weaving = ((1 << 2 * n) - 1) // 3
    merging = 2 * ((1 << 2 * n) - 3 * (1 << n) + 2) // 3
    return DecompositionRow(
        n=n,
        denom=denom,
        weaving=weaving,
        merging=merging,
        weaving_share=Fraction(weaving, denom),
        merging_share=Fraction(merging, denom),
    )


def limit_variance(p: Fraction | str | float) -> Fraction:
    """Limit of the conditional-mean variance as the depth grows: p*(1-p)/3."""
    p = _check_probability(p)
    return p * (1 - p) / 3


def _exp2(log2_value: float) -> float:
    """2**log2_value in binary64: inf past its range, 0.0 below it."""
    return 2.0**log2_value if log2_value < 1024 else math.inf


def local_density(k: int, params: WeaverParams) -> float:
    """Average density over the cell around leaf k: 2**n times its mass.

    Assembled in log space at every depth, 2**(n + log2 mass), to a
    relative tolerance of 1e-12; exactly 1 for p = 1/2 at every leaf, and
    inf where the density lies beyond binary64's range.
    """
    return _exp2(params.n + pmf_point_log2(k, params))


def roughness_report(p: Fraction | str | float, level: int) -> RoughnessReport:
    """Quantify how fast the cell densities roughen under refinement.

    The rightmost-to-leftmost mass ratio after ``level`` refinements is
    bias_ratio**level with bias_ratio = p/(1-p); its growth rate against
    the cell count gives the dimension log2(bias_ratio), zero exactly
    when p = 1/2.
    """
    if level < 0:
        raise RangeError(f"level must be non-negative, got {level}")
    p = _check_probability(p)
    bias_ratio = p / (1 - p)
    log2_f = _log2(bias_ratio)
    log2_left = level * (1.0 + _log2(1 - p))
    log2_right = level * (1.0 + _log2(p))
    return RoughnessReport(
        p=p,
        bias_ratio=bias_ratio,
        level=level,
        ratio=_exp2(level * log2_f),
        fractal_dimension=log2_f,
        left_product=_exp2(log2_left),
        right_product=_exp2(log2_right),
        log2_left_product=log2_left,
        log2_right_product=log2_right,
    )


def pmodel_cell_masses(n: int, p: Fraction | str | float) -> list[Fraction]:
    """Cell masses of the continuous halving cascade after n rounds.

    Starts from unit mass on (0, 1) and repeatedly splits every cell in
    half, sending the fraction 1-p left and p right; cell k of the
    result is (k/2**n, (k+1)/2**n).  This local construction lands on
    the same numbers as the pmf of W(n, p), which is the discretisation
    statement connecting the two models.
    """
    if n < 1:
        raise RangeError(f"n must be positive, got {n}")
    p = _check_probability(p)
    _check_cap(n, "cell mass vector")
    q = 1 - p
    masses = [Fraction(1)]
    for _ in range(n):
        refined = []
        for m in masses:
            refined.append(q * m)
            refined.append(p * m)
        masses = refined
    return masses
