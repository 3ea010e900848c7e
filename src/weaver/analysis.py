"""Exact moments, the weaving/merging variance split, and the halving cascade.

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

from fractions import Fraction
from typing import NamedTuple

from weaver.exact import WeaverParams, _check_cap, _check_integer, _check_probability


class DecompositionRow(NamedTuple):
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
    _check_integer(j, 1, "moment order")
    numerators, denominator = _moment_numerators(params, j)
    return Fraction(numerators[j], denominator * ((1 << params.n) - 1) ** j)


def variance_decomposition(n: int) -> DecompositionRow:
    """Split the Bernoulli variance p*(1-p) between weaving and merging.

    Over the common denominator (2**n - 1)**2, the weaving part is
    (4**n - 1)/3 (the diagonal of the block covariance table) and the
    merging part is 2*(4**n - 3*2**n + 2)/3 (everything off the
    diagonal); the two add up to the denominator exactly.  The split is
    the same for every p.
    """
    _check_integer(n, 1)
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


def pmodel_cell_masses(n: int, p: Fraction | str | float) -> list[Fraction]:
    """Cell masses of the continuous halving cascade after n rounds.

    Starts from unit mass on (0, 1) and repeatedly splits every cell in
    half, sending the fraction 1-p left and p right; cell k of the
    result is (k/2**n, (k+1)/2**n).  This local construction lands on
    the same numbers as the pmf of W(n, p), which is the discretisation
    statement connecting the two models.
    """
    _check_integer(n, 1)
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
