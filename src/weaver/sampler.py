"""Exponential sampling: blocks of doubling size from two parent populations.

A run of depth n draws n independent Bernoulli(p) selections; selection
j picks the population for block j, which holds 2**(j-1) iid
observations, for 2**n - 1 observations in total.  The conditional mean
given the selections is an exact rational and follows W(n, p); the
unconditional sample mean adds the within-population noise on top.

Reproducibility contract: every ensemble takes one root seed, and
replication i derives its own independent generator from the pair
(seed, i) via a spawn-key split, so replications are order-independent
and may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from math import isfinite, sqrt
from typing import Iterator

import numpy as np

from weaver import analysis
from weaver.errors import CapacityError, ContractError, RangeError
from weaver.exact import SelectionPath, WeaverParams, as_exact_probability, cdf_grid
from weaver.parents import ParentDistribution, is_standardized

#: Resolution of the selection Bernoulli: each draw compares a 128-bit
#: uniform integer against the exact binary expansion of p.  The bias is
#: zero for dyadic p and below 2**-128 otherwise.
BERNOULLI_BITS = 128

#: Full runs draw 2**n - 1 observations; this is the desk-scale ceiling.
RAW_DRAW_CAP = 30

#: Selection paths alone need only n Bernoullis.
PATH_ONLY_CAP = 63


@dataclass(frozen=True)
class SampleRun:
    """One realization: the path, the block sums, and the derived means.

    ``seed`` is recorded when the run was started from an integer seed
    and is None when an already-running generator was supplied.
    """

    seed: int | None
    n: int
    path: SelectionPath
    block_sums: tuple[float, ...]
    total: float
    mean: float
    conditional_mean: Fraction


@dataclass(frozen=True)
class MomentReport:
    """Monte Carlo moments of the sample mean against their closed forms."""

    replications: int
    empirical_mean: float
    empirical_variance: float
    exact_mean: Fraction
    exact_variance: float
    standard_error: float
    z_score: float


def _as_generator(rng: int | np.random.Generator) -> tuple[np.random.Generator, int | None]:
    if isinstance(rng, np.random.Generator):
        return rng, None
    seed = int(rng)
    return np.random.default_rng(seed), seed


def _replication_rng(seed: int, index: int) -> np.random.Generator:
    # counter-based split: stream i is keyed by (root seed, i)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _selection_threshold(p: Fraction) -> int:
    # floor(p * 2**128); exact for dyadic p, off by < 2**-128 otherwise
    return (p.numerator << BERNOULLI_BITS) // p.denominator


def draw_selection_path(
    n: int, p: Fraction | str | float, rng: int | np.random.Generator
) -> SelectionPath:
    """Draw n independent Bernoulli(p) selections, packed as a path.

    Selections are drawn in block order (bit 0 first).  Each Bernoulli
    compares a fresh 128-bit uniform integer against the exact threshold
    floor(p * 2**128), so dyadic p is sampled without any bias.
    """
    if n < 1:
        raise RangeError(f"n must be positive, got {n}")
    if n > PATH_ONLY_CAP:
        raise CapacityError(f"path depth {n} above the path-only cap {PATH_ONLY_CAP}")
    p = as_exact_probability(p)
    WeaverParams(n=n, p=p)  # range-check p
    generator, _ = _as_generator(rng)
    threshold = _selection_threshold(p)
    words = generator.integers(0, 1 << 64, size=2 * n, dtype=np.uint64)
    k = 0
    for j in range(n):
        u = (int(words[2 * j]) << 64) | int(words[2 * j + 1])
        if u < threshold:
            k |= 1 << j
    return SelectionPath(n=n, k=k)


def conditional_mean_of(path: SelectionPath) -> Fraction:
    """The exact conditional mean determined by a path: k / (2**n - 1)."""
    return Fraction(path.k, (1 << path.n) - 1)


def _require_standardized(h0: ParentDistribution, h1: ParentDistribution) -> None:
    if not is_standardized(h0, h1):
        raise ContractError(
            f"parents must be standardized to means 0 and 1, got "
            f"({h0.mean}, {h1.mean}); run standardize_parents first"
        )


def run_from_path(
    path: SelectionPath,
    h0: ParentDistribution,
    h1: ParentDistribution,
    rng: int | np.random.Generator,
) -> SampleRun:
    """Draw the block observations for a fixed selection path."""
    _require_standardized(h0, h1)
    generator, seed = _as_generator(rng)
    parents = (h0, h1)
    sums = np.empty(path.n, dtype=np.float64)
    bits = path.bits[::-1]  # block order: selection for block j is bit j-1
    for j in range(1, path.n + 1):
        block = parents[bits[j - 1]].draw(generator, 1 << (j - 1))
        sums[j - 1] = block.sum()
    total = float(np.sum(sums))
    denominator = (1 << path.n) - 1
    return SampleRun(
        seed=seed,
        n=path.n,
        path=path,
        block_sums=tuple(float(s) for s in sums),
        total=total,
        mean=total / denominator,
        conditional_mean=conditional_mean_of(path),
    )


def run_exponential_sample(
    n: int,
    h0: ParentDistribution,
    h1: ParentDistribution,
    p: Fraction | str | float,
    rng: int | np.random.Generator,
) -> SampleRun:
    """One full run: draw a path, then 2**(j-1) observations per block j.

    Parents must already be standardized (means exactly 0 and 1).  The
    path is drawn first, then the blocks in order, so a fixed seed
    reproduces the run bit for bit.
    """
    if n > RAW_DRAW_CAP:
        raise CapacityError(
            f"depth {n} draws 2**{n} - 1 observations, above the raw draw cap {RAW_DRAW_CAP}"
        )
    _require_standardized(h0, h1)
    generator, seed = _as_generator(rng)
    path = draw_selection_path(n, p, generator)
    run = run_from_path(path, h0, h1, generator)
    if seed is None:
        return run
    return SampleRun(
        seed=seed,
        n=run.n,
        path=run.path,
        block_sums=run.block_sums,
        total=run.total,
        mean=run.mean,
        conditional_mean=run.conditional_mean,
    )


def run_ensemble(
    n: int,
    h0: ParentDistribution,
    h1: ParentDistribution,
    p: Fraction | str | float,
    replications: int,
    seed: int,
) -> Iterator[SampleRun]:
    """Yield independent runs, one derived generator per replication."""
    if replications < 1:
        raise RangeError(f"replications must be positive, got {replications}")
    for i in range(replications):
        yield run_exponential_sample(n, h0, h1, p, _replication_rng(seed, i))


def simulate_mean_ensemble(
    n: int,
    h0: ParentDistribution,
    h1: ParentDistribution,
    p: Fraction | str | float,
    replications: int,
    seed: int,
) -> np.ndarray:
    """Sample means of ``replications`` independent runs, in stream order."""
    means = np.empty(replications, dtype=np.float64)
    for i, run in enumerate(run_ensemble(n, h0, h1, p, replications, seed)):
        means[i] = run.mean
    return means


def path_ensemble(
    n: int, p: Fraction | str | float, replications: int, seed: int
) -> np.ndarray:
    """Leaf indices of ``replications`` independent selection paths.

    Draws paths only (no block observations), so depths up to the
    path-only cap are allowed; the conditional means are the indices
    divided by 2**n - 1.
    """
    if replications < 1:
        raise RangeError(f"replications must be positive, got {replications}")
    ks = np.empty(replications, dtype=np.uint64)
    for i in range(replications):
        ks[i] = draw_selection_path(n, p, _replication_rng(seed, i)).k
    return ks


def monte_carlo_moments(
    n: int,
    h0: ParentDistribution,
    h1: ParentDistribution,
    p: Fraction | str | float,
    replications: int,
    seed: int,
) -> MomentReport:
    """Empirical mean and variance of the sample mean vs the closed forms.

    The exact mean is p; the exact variance adds the within-population
    term (p*var(h1) + (1-p)*var(h0)) / (2**n - 1) to the exact variance
    of the conditional mean.  The z-score measures the empirical mean
    against its known standard error.  Aggregation is a deterministic
    pairwise reduction in replication order.  Finite parents can still
    overflow binary64 here (huge variances); a statistic that is not
    finite raises :class:`RangeError` instead of being reported.
    """
    if replications < 100:
        raise RangeError(
            f"at least 100 replications are needed for a moment report, got {replications}"
        )
    p = as_exact_probability(p)
    means = simulate_mean_ensemble(n, h0, h1, p, replications, seed)
    with np.errstate(over="ignore", invalid="ignore"):
        empirical_mean = float(np.mean(means))
        empirical_variance = float(np.var(means, ddof=1))
    exact_mean = p
    params = WeaverParams(n=n, p=p)
    within = (float(p) * h1.variance + float(1 - p) * h0.variance) / ((1 << n) - 1)
    exact_variance = float(analysis.exact_variance(params)) + within
    standard_error = sqrt(exact_variance / replications)
    z_score = (empirical_mean - float(exact_mean)) / standard_error
    report = MomentReport(
        replications=replications,
        empirical_mean=empirical_mean,
        empirical_variance=empirical_variance,
        exact_mean=exact_mean,
        exact_variance=exact_variance,
        standard_error=standard_error,
        z_score=z_score,
    )
    for field in fields(report):
        value = getattr(report, field.name)
        if isinstance(value, float) and not isfinite(value):
            raise RangeError(
                f"{field.name} is {value}: the parents' spread overflows binary64"
            )
    return report


def convergence_ks(
    p: Fraction | str | float,
    h0: ParentDistribution,
    h1: ParentDistribution,
    depths: tuple[int, ...],
    resolution: int,
    replications: int,
    seed: int,
) -> list[tuple[int, float]]:
    """Distance of the sample-mean distribution from its limit, per depth.

    For each depth n, compares the empirical CDF of the sample mean at
    the dyadic grid points k / 2**resolution against the exact stable
    CDF values there (which coincide with the limit distribution's), and
    reports the maximum absolute gap.  With noisy parents the gap
    shrinks as the within-population term (2**n - 1)**-1 fades; with
    point-mass parents the sample mean already has the exact law, so the
    gap sits at the Monte Carlo floor of order replications**-1/2 at
    every depth.  The resolution is bounded by the materialization cap.
    """
    p = as_exact_probability(p)
    if any(d < resolution for d in depths):
        raise RangeError(
            f"every depth must be at least the grid resolution {resolution}"
        )
    grid_size = 1 << resolution
    # stable under refinement: the grid is the same at every depth >= resolution
    # (W(n, p) needs n >= 1, hence the floor for resolution 0)
    limit = WeaverParams(n=max(resolution, 1), p=p)
    exact = np.array([float(value) for value in cdf_grid(limit, resolution)[1:-1]])
    grid = np.arange(1, grid_size) / grid_size
    out: list[tuple[int, float]] = []
    for offset, n in enumerate(depths):
        means = simulate_mean_ensemble(
            n, h0, h1, p, replications, seed + offset
        )
        empirical = np.searchsorted(np.sort(means), grid, side="left") / replications
        out.append((n, float(np.max(np.abs(empirical - exact)))))
    return out
