"""Exponential sampling: blocks of doubling size from two parent populations.

A run of depth n draws n independent Bernoulli(p) selections; selection
j picks the population for block j, which holds 2**(j-1) iid
observations.  The selected blocks of leaf k hold k observations of the
second parent and the others 2**n - 1 - k of the first, so a run is
drawn as one sum of each.  The conditional mean k / (2**n - 1) follows
W(n, p); the sample mean adds the within-population noise on top.

Reproducibility contract (stream version 4): an ensemble takes one root
seed and splits its replications into chunks of ``CHUNK``.  Chunk c
draws from three streams, ``SeedSequence(entropy=seed, spawn_key=(c,
purpose))``: purpose 0 holds the 128-bit path words, 1 and 2 the sums
of the first and second parent, one cell per replication.  Each stream
is read in replication order, so replication i is a pure function of
(seed, i): a shorter ensemble is a prefix of a longer one, and chunks
are independent of each other.  A caller that needs several ensembles
from one seed extends the spawn key in front of c (``convergence_ks``
keys each depth n as ``(n, c, purpose)``).  The single-run functions
are replication 0 of the ensemble with their seed: ``draw_selection_path``
reads chunk 0's path words, ``run_from_path`` reads chunk 0's parent
streams for the path it is given, and ``run_exponential_sample`` is
``run_from_path(draw_selection_path(n, p, seed), h0, h1, seed)``.
A seed is an int >= 0 and a replication count an int >= 1; a bool, a
float or a numpy integer raises RangeError, as it does for a depth.

This is the one module that imports numpy.  A parent population of
:mod:`weaver.parents` is only a spec; every draw from it is a sum of m
observations here, from its family's one sampler (a single draw is a sum
of one).  Each sampler draws the sum directly, not its observations, so
no sum costs more than 1023 draws whatever its size, and a sum of none
is 0.0.  A uniform sum of fewer than 2**10 observations adds up its raw
draws, where they are cheaper; a larger one is 53 binomial counts, one
per bit of a ``Generator.random()`` double, with the law of the sum of
its raw draws.  Those counts come from a generator seeded by a 128-bit
word that the parent's stream holds where the first such sum falls.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite, sqrt
from typing import Callable, Iterator, NamedTuple

import numpy as np

from weaver import analysis
from weaver.errors import CapacityError, RangeError
from weaver.exact import SelectionPath, WeaverParams, _check_integer, _check_probability, cdf_grid
from weaver.parents import ParentDistribution

#: Layout of the ensemble streams described above; realized samples
#: change whenever it does.
STREAM_VERSION = 4

#: Replications per chunk of an ensemble.  A chunk's path words are a few
#: hundred KiB at the raw draw cap, so memory stays flat in the count.
CHUNK = 1024

#: Full runs draw 2**n - 1 observations; this is the desk-scale ceiling.
RAW_DRAW_CAP = 30

#: Selection paths alone need only n Bernoullis.
PATH_ONLY_CAP = 63

# uniform sums of at least this many draws cost 53 binomial bit counts;
# smaller ones, where a raw draw is cheaper, add up their raw draws
_BIT_COUNT_MIN = 1 << 10
# uniform sums draw the bit counts of this many cells per call, and
# raw draws in calls of about this many doubles, so memory stays flat;
# no value depends on either
_UNIFORM_BATCH = 256
_RAW_BATCH = 1 << 14
_SHIFTS = np.arange(30, dtype=np.int64)

# stream purposes within a chunk
_PATH_WORDS, _H0_SUMS, _H1_SUMS = 0, 1, 2


class SampleRun(NamedTuple):
    """One realization: the path, the sums of its h0 and h1 observations
    (``parent_sums``, in that order), their total, and the derived means."""

    n: int
    path: SelectionPath
    parent_sums: tuple[float, float]
    total: float
    mean: float
    conditional_mean: Fraction


class MomentReport(NamedTuple):
    """Monte Carlo moments of the sample mean against their closed forms."""

    replications: int
    empirical_mean: float
    empirical_variance: float
    exact_mean: Fraction
    exact_variance: float
    standard_error: float
    z_score: float


def _stream(seed: int, key: tuple[int, ...], chunk: int, purpose: int) -> np.random.Generator:
    _check_integer(seed, 0, "seed")
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(*key, chunk, purpose))
    )


def _selection_threshold(p: Fraction) -> int:
    # floor(p * 2**128), for the 128-bit uniforms of _draw_words' two 64-bit
    # words: exact for dyadic p, off by < 2**-128 otherwise
    return (p.numerator << 128) // p.denominator


def _path_threshold(n: int, p: Fraction | str | float) -> int:
    _check_integer(n, 1)
    if n > PATH_ONLY_CAP:
        raise CapacityError(f"path depth {n} above the path-only cap {PATH_ONLY_CAP}")
    return _selection_threshold(_check_probability(p))


def _draw_words(generator: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    # one uniform 128-bit integer per selection, as (high, low) uint64 words
    return generator.integers(0, 1 << 64, size=(*shape, 2), dtype=np.uint64)


def _selection_bits(words: np.ndarray, threshold: int) -> np.ndarray:
    """Bernoulli outcomes ``(hi << 64 | lo) < threshold``, one per word pair.

    ``words[..., 0]`` and ``words[..., 1]`` are the high and low halves
    of each 128-bit uniform; comparing them lexicographically is the
    exact 128-bit compare.  ``threshold`` is below 2**128 since p < 1.
    """
    t_hi, t_lo = (np.uint64(half) for half in divmod(threshold, 1 << 64))
    hi, lo = words[..., 0], words[..., 1]
    return (hi < t_hi) | ((hi == t_hi) & (lo < t_lo))


def _leaf_indices(selected: np.ndarray) -> np.ndarray:
    # bit j of the leaf index is the selection for block j + 1
    shifts = np.arange(selected.shape[-1], dtype=np.uint64)
    return (selected.astype(np.uint64) << shifts).sum(axis=-1, dtype=np.uint64)


def draw_selection_path(n: int, p: Fraction | str | float, seed: int) -> SelectionPath:
    """Draw n independent Bernoulli(p) selections, packed as a path.

    The path is replication 0 of ``path_ensemble(n, p, 1, seed)``.  Each
    Bernoulli compares a fresh 128-bit uniform integer against the exact
    threshold floor(p * 2**128), so dyadic p is sampled without any bias.
    """
    return SelectionPath(n=n, k=int(path_ensemble(n, p, 1, seed)[0]))


def _check_run(n: int, h0: ParentDistribution, h1: ParentDistribution) -> None:
    _check_integer(n, 1)
    if n > RAW_DRAW_CAP:
        raise CapacityError(
            f"depth {n} draws 2**{n} - 1 observations, above the raw draw cap {RAW_DRAW_CAP}"
        )
    # means 0 and 1 up to float round-off; a NaN mean fails too
    if not (abs(h0.mean) <= 1e-12 and abs(h1.mean - 1.0) <= 1e-12):
        raise RangeError(
            f"parents must be standardized to means 0 and 1, got "
            f"({h0.mean}, {h1.mean}); run standardize_parents first"
        )


def _raw_sums(rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
    # sums of sizes[i] consecutive rng.random() draws, cell after cell; a
    # new call starts at the first cell to start at or past each multiple
    # of _RAW_BATCH draws.  An empty cell is 0.0 and reads nothing: it is
    # left out first, as reduceat would give it its neighbour's draw
    totals = np.zeros(len(sizes))
    cells = np.flatnonzero(sizes)
    sizes = sizes[cells]
    starts = np.cumsum(sizes) - sizes
    cuts = np.searchsorted(starts, range(0, int(sizes.sum()), _RAW_BATCH)).tolist()
    for lo, hi in zip(cuts, [*cuts[1:], len(sizes)]):
        if lo < hi:
            draws = rng.random(int(sizes[lo:hi].sum()))
            totals[cells[lo:hi]] = np.add.reduceat(draws, starts[lo:hi] - starts[lo])
    return totals


def _bit_count_sums(rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
    """For each cell, a sum with the law of ``sizes[i]`` iid ``rng.random()``
    draws, cell after cell, from 53 binomial draws whatever its size.

    A draw is ``(next_uint64 >> 11) * 2**-53``: 53 fair bits.  So a sum of
    m draws has the law of ``sum_b C_b * 2**(b - 53)``, with 53 independent
    ``C_b ~ Binomial(m, 1/2)``.  The counts are read in (cell, bit) order,
    ``_UNIFORM_BATCH`` cells per call.  The integer sum is split into two
    exact doubles, so each total is the exact sum rounded once (the split
    is exact for m < 2**30, every sum under the raw draw cap).
    """
    totals = np.empty(len(sizes))
    for at in range(0, len(sizes), _UNIFORM_BATCH):
        cells = sizes[at : at + _UNIFORM_BATCH]
        counts = rng.binomial(cells[:, None], 0.5, size=(len(cells), 53))
        low = (counts[:, :30] << _SHIFTS).sum(axis=1)  # bits 0..29, < 2**60
        high = (counts[:, 30:] << _SHIFTS[:23]).sum(axis=1)  # bits 30..52, < 2**53
        # sum = whole * 2**-23 + part * 2**-53, with whole < 2**53 and part < 2**30
        whole, part = high + (low >> 30), low & ((1 << 30) - 1)
        totals[at : at + len(cells)] = whole * 2.0**-23 + part * 2.0**-53
    return totals


def _uniform_totals(rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
    """Sums of ``sizes[i]`` uniforms on [0, 1), cell after cell, each with
    the law of that many ``rng.random()`` draws.

    A sum of fewer than ``_BIT_COUNT_MIN`` draws adds up its raw draws
    from ``rng``; a larger one is 53 bit counts (``_bit_count_sums``) from
    a generator seeded by a 128-bit word of ``rng``, read where the first
    such sum falls.  Both streams are read in cell order, so a prefix of
    the cells sums to the same values whatever follows it.
    """
    counted = sizes >= _BIT_COUNT_MIN
    first = int(np.argmax(counted)) if counted.any() else len(sizes)
    totals = np.empty(len(sizes))
    totals[:first] = _raw_sums(rng, sizes[:first])
    if first < len(sizes):
        counts_rng = np.random.default_rng(_draw_words(rng, ()))
        totals[counted] = _bit_count_sums(counts_rng, sizes[counted])
        rest = first + np.flatnonzero(~counted[first:])
        totals[rest] = _raw_sums(rng, sizes[rest])
    return totals


# the one sampler of each base family of weaver.parents: called as
# (rng, sizes, *params), it returns for each entry m of sizes the sum of
# m observations drawn from its sufficient statistic (m*c, a binomial
# count, a Gaussian with mean m*mu and spread sqrt(m)*sigma; a uniform
# adds up raw draws, or draws 53 binomial bit counts for a sum of 2**10
# or more), so no sum costs more than 1023 draws whatever its size, and a
# sum of none is 0.0.  Cells consume the stream in order, so the sums of
# a prefix of sizes do not depend on what follows it.
_BLOCK_SUMS: dict[str, Callable[..., np.ndarray]] = {
    "point-mass": lambda rng, sizes, c: sizes * c,
    "bernoulli": lambda rng, sizes, q: rng.binomial(sizes, q).astype(np.float64),
    "uniform-interval": lambda rng, sizes, a, b: a * sizes + (b - a) * _uniform_totals(rng, sizes),
    # sqrt(m) * sigma rather than sqrt(m * var): a spread that only
    # overflows in the moments must not already overflow in the draws
    "gaussian": lambda rng, sizes, mu, var: (
        mu * sizes + np.sqrt(sizes) * sqrt(var) * rng.standard_normal(len(sizes))
    ),
}


def _parent_sums(
    parent: ParentDistribution, rng: np.random.Generator, sizes: np.ndarray
) -> np.ndarray:
    """For each size m in ``sizes``, the sum of m iid observations of
    ``parent``: its family's sums, under its affine map."""
    base = _BLOCK_SUMS[parent.family](rng, sizes, *parent.params)
    return base * parent.scale + sizes * parent.shift


def _leaf_sums(
    ks: np.ndarray,
    n: int,
    h0: ParentDistribution,
    h1: ParentDistribution,
    seed: int,
    key: tuple[int, ...],
    chunk: int,
) -> tuple[np.ndarray, np.ndarray]:
    """h0's and h1's sums for the leaf indices ``ks`` of chunk ``chunk``:
    2**n - 1 - k observations of h0 and k of h1 per replication, one cell
    each from the parent's own stream of the chunk."""
    sizes = ks.astype(np.int64)
    return (
        _parent_sums(h0, _stream(seed, key, chunk, _H0_SUMS), (1 << n) - 1 - sizes),
        _parent_sums(h1, _stream(seed, key, chunk, _H1_SUMS), sizes),
    )


def run_from_path(
    path: SelectionPath, h0: ParentDistribution, h1: ParentDistribution, seed: int
) -> SampleRun:
    """Draw the observations for a fixed selection path.

    The two parent sums come from chunk 0's parent streams of
    ``seed``, so ``run_from_path(run.path, h0, h1, seed)`` reproduces the
    run that ``run_exponential_sample`` draws with that seed.
    """
    _check_run(path.n, h0, h1)
    sums = _leaf_sums(np.array([path.k]), path.n, h0, h1, seed, (), 0)
    s0, s1 = (float(cells[0]) for cells in sums)
    total = s0 + s1
    denominator = (1 << path.n) - 1
    return SampleRun(
        n=path.n,
        path=path,
        parent_sums=(s0, s1),
        total=total,
        mean=total / denominator,
        conditional_mean=Fraction(path.k, denominator),
    )


def run_exponential_sample(
    n: int,
    h0: ParentDistribution,
    h1: ParentDistribution,
    p: Fraction | str | float,
    seed: int,
) -> SampleRun:
    """One full run: draw a path, then the observations of its blocks.

    Parents must already be standardized (means exactly 0 and 1).  The
    path is checked and drawn before the parents are checked.
    """
    return run_from_path(draw_selection_path(n, p, seed), h0, h1, seed)


def _chunks(
    n: int,
    p: Fraction | str | float,
    replications: int,
    seed: int,
    key: tuple[int, ...],
) -> Iterator[tuple[int, np.ndarray]]:
    """The ensemble chunk by chunk: the chunk's index and its leaf indices."""
    _check_integer(replications, 1, "replications")
    threshold = _path_threshold(n, p)
    for chunk, start in enumerate(range(0, replications, CHUNK)):
        count = min(CHUNK, replications - start)
        words = _draw_words(_stream(seed, key, chunk, _PATH_WORDS), (count, n))
        yield chunk, _leaf_indices(_selection_bits(words, threshold))


def simulate_mean_ensemble(
    n: int,
    h0: ParentDistribution,
    h1: ParentDistribution,
    p: Fraction | str | float,
    replications: int,
    seed: int,
    *,
    key: tuple[int, ...] = (),
) -> np.ndarray:
    """Sample means of ``replications`` independent runs, in stream order.

    ``key`` is prepended to each chunk's spawn key, so one seed can carry
    several independent ensembles (``convergence_ks`` keys by depth).
    """
    _check_run(n, h0, h1)
    for entry in key:
        _check_integer(entry, 0, "key entry")
    denominator = (1 << n) - 1
    return np.concatenate([
        np.add(*_leaf_sums(ks, n, h0, h1, seed, key, chunk)) / denominator
        for chunk, ks in _chunks(n, p, replications, seed, key)
    ])


def path_ensemble(
    n: int, p: Fraction | str | float, replications: int, seed: int
) -> np.ndarray:
    """Leaf indices of ``replications`` independent selection paths.

    Draws paths only (no block observations), so depths up to the
    path-only cap are allowed; the conditional means are the indices
    divided by 2**n - 1.  These are the paths of the ensembles with the
    same seed.
    """
    return np.concatenate([ks for _, ks in _chunks(n, p, replications, seed, ())])


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
    finite raises :class:`RangeError` instead of being reported, and so
    does a standard error that underflows to 0 (point masses at tiny p).
    """
    _check_integer(replications, 100, "replications of a moment report")
    p = _check_probability(p)
    with np.errstate(over="ignore", invalid="ignore"):
        means = simulate_mean_ensemble(n, h0, h1, p, replications, seed)
        empirical_mean = float(np.mean(means))
        empirical_variance = float(np.var(means, ddof=1))
    exact_mean = p
    params = WeaverParams(n=n, p=p)
    within = (float(p) * h1.variance + float(1 - p) * h0.variance) / ((1 << n) - 1)
    exact_variance = float(analysis.exact_variance(params)) + within
    standard_error = sqrt(exact_variance / replications)
    if not standard_error:
        raise RangeError("standard_error is 0.0: the exact variance underflows binary64")
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
    for name, value in report._asdict().items():
        if isinstance(value, float) and not isfinite(value):
            raise RangeError(
                f"{name} is {value}: the parents' spread overflows binary64"
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
    every depth.  The resolution is at least 1 and bounded by the
    materialization cap.  Depth n's ensemble is keyed by (seed, n), so no
    two depths or seeds share a stream.
    """
    p = _check_probability(p)
    _check_integer(resolution, 1, "grid resolution")
    if any(d < resolution for d in depths):
        raise RangeError(
            f"every depth must be at least the grid resolution {resolution}"
        )
    grid_size = 1 << resolution
    # stable under refinement: the grid is the same at every depth >= resolution
    limit = WeaverParams(n=resolution, p=p)
    sums, denominator = cdf_grid(limit, resolution)
    # int true division rounds exactly as float(Fraction) does
    exact = np.array([total / denominator for total in sums])[1:-1]
    grid = np.arange(1, grid_size) / grid_size
    out: list[tuple[int, float]] = []
    for n in depths:
        means = simulate_mean_ensemble(n, h0, h1, p, replications, seed, key=(n,))
        empirical = np.searchsorted(np.sort(means), grid, side="left") / replications
        out.append((n, float(np.max(np.abs(empirical - exact)))))
    return out
