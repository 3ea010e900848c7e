"""Exponential sampling: blocks of doubling size from two parent populations.

A run of depth n draws n independent Bernoulli(p) selections; selection
j picks the population for block j, which holds 2**(j-1) iid
observations, for 2**n - 1 observations in total.  The conditional mean
given the selections is an exact rational and follows W(n, p); the
unconditional sample mean adds the within-population noise on top.

Reproducibility contract (stream version 2): an ensemble takes one root
seed and splits its replications into chunks of ``CHUNK``.  Chunk c
draws from three streams, ``SeedSequence(entropy=seed, spawn_key=(c,
purpose))``: purpose 0 holds the 128-bit path words, 1 and 2 the block
sums of the first and second parent.  Each stream is read in
(replication, block) order, so replication i is a pure function of
(seed, i): a shorter ensemble is a prefix of a longer one, and chunks
are independent of each other.  A caller that needs several ensembles
from one seed extends the spawn key in front of c (``convergence_ks``
keys each depth n as ``(n, c, purpose)``).  The single-run functions
are replication 0 of the ensemble with their seed: ``draw_selection_path``
reads chunk 0's path words, ``run_exponential_sample`` is the first run
of ``run_ensemble``, and ``run_from_path`` reads chunk 0's block-sum
streams for the path it is given.

This is the one module that imports numpy.  A parent population of
:mod:`weaver.parents` is only a spec; every draw from it is a block sum
here, from its family's one sampler (a single draw is a block of one).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from fractions import Fraction
from math import isfinite, sqrt
from typing import Callable, Iterator

import numpy as np

from weaver import _host, analysis
from weaver.errors import CapacityError, ContractError, RangeError
from weaver.exact import SelectionPath, WeaverParams, _check_probability, cdf_grid
from weaver.parents import ParentDistribution, is_standardized

#: Layout of the ensemble streams described above; realized samples
#: change whenever it does.
STREAM_VERSION = 2

#: Replications per chunk of an ensemble.  A chunk's arrays are a few
#: hundred KiB at the raw draw cap, so memory stays flat in the count.
CHUNK = 1024

#: Resolution of the selection Bernoulli: each draw compares a 128-bit
#: uniform integer against the exact binary expansion of p.  The bias is
#: zero for dyadic p and below 2**-128 otherwise.
BERNOULLI_BITS = 128

#: Full runs draw 2**n - 1 observations; this is the desk-scale ceiling.
RAW_DRAW_CAP = 30

#: Selection paths alone need only n Bernoullis.
PATH_ONLY_CAP = 63

#: Uniform block sums read raw draws in slabs of at most this many
#: doubles (1 MiB), so a deep block never holds all its draws at once.
UNIFORM_SLAB = 1 << 17

# stream purposes within a chunk
_PATH_WORDS, _H0_SUMS, _H1_SUMS = 0, 1, 2


@dataclass(frozen=True)
class SampleRun:
    """One realization: the path, the block sums, and the derived means."""

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


def _stream(seed: int, key: tuple[int, ...], chunk: int, purpose: int) -> np.random.Generator:
    if seed < 0:
        raise RangeError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(*key, chunk, purpose))
    )


def _selection_threshold(p: Fraction) -> int:
    # floor(p * 2**128); exact for dyadic p, off by < 2**-128 otherwise
    return (p.numerator << BERNOULLI_BITS) // p.denominator


def _path_threshold(n: int, p: Fraction | str | float) -> int:
    if n < 1:
        raise RangeError(f"n must be positive, got {n}")
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
    if n > RAW_DRAW_CAP:
        raise CapacityError(
            f"depth {n} draws 2**{n} - 1 observations, above the raw draw cap {RAW_DRAW_CAP}"
        )
    if not is_standardized(h0, h1):
        raise ContractError(
            f"parents must be standardized to means 0 and 1, got "
            f"({h0.mean}, {h1.mean}); run standardize_parents first"
        )


def _span_count(slabs: int) -> int:
    # spans drawn at once: at most two, one per CPU available, one per slab
    return min(2, _host.cpu_count(), slabs)


def _slab_pieces(
    rng: np.random.Generator, starts: np.ndarray, lo: int, hi: int
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Raw draws ``[lo, hi)`` of the stream, one slab at a time, from ``rng``
    at draw ``lo``: for each slab, the cells ``first:stop`` it touches and
    the sums of their pieces in it."""
    slab = np.empty(min(UNIFORM_SLAB, hi - lo))
    for at in range(lo, hi, UNIFORM_SLAB):
        values = rng.random(out=slab[: min(UNIFORM_SLAB, hi - at)])
        first = int(np.searchsorted(starts, at, side="right")) - 1
        stop = int(np.searchsorted(starts, at + len(values), side="left"))
        offsets = starts[first:stop] - at
        offsets[0] = 0  # the cell open at `at` continues into this slab
        yield first, stop, np.add.reduceat(values, offsets)


def _uniform_totals(rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
    """Sums of ``sizes[i]`` consecutive raw uniforms on [0, 1), cell after cell.

    The draws come in slabs of at most ``UNIFORM_SLAB``; a cell that
    straddles a slab boundary adds up its pieces, slab after slab.  Slab
    boundaries depend only on a cell's offset in the stream, so a prefix
    of the cells sums to the same values whatever follows it.

    A stream of several slabs is cut at slab boundaries into up to two
    contiguous spans (one per CPU available), drawn at once: this thread
    draws the first span from ``rng``, and a worker thread each later
    span from a copy of ``rng``'s bit generator advanced to the span's
    first draw.  One double is one 64-bit output, so every span reads
    the doubles a single pass would, and the pieces are added in slab
    order: the totals do not depend on the number of spans.  ``rng`` is
    left where a single pass leaves it, ``sum(sizes)`` draws on.
    """
    totals = np.zeros(len(sizes))
    end = int(sizes.sum())
    if not end:
        return totals
    starts = np.cumsum(sizes) - sizes
    slabs = -(-end // UNIFORM_SLAB)
    spans = _span_count(slabs)
    bounds = [i * slabs // spans * UNIFORM_SLAB for i in range(spans)] + [end]
    pieces = [None] * spans

    def draw(span: int, generator: np.random.Generator) -> None:
        try:
            pieces[span] = list(_slab_pieces(generator, starts, bounds[span], bounds[span + 1]))
        except Exception as error:  # re-raised in the calling thread
            pieces[span] = error

    workers = []
    for span in range(1, spans):
        bit_generator = type(rng.bit_generator)()
        bit_generator.state = rng.bit_generator.state
        generator = np.random.Generator(bit_generator.advance(bounds[span]))
        workers.append(threading.Thread(target=draw, args=(span, generator)))
    for worker in workers:
        worker.start()
    try:
        for first, stop, piece in _slab_pieces(rng, starts, 0, bounds[1]):
            totals[first:stop] += piece
    finally:
        for worker in workers:
            worker.join()
    for span_pieces in pieces[1:]:
        if isinstance(span_pieces, Exception):
            raise span_pieces
        for first, stop, piece in span_pieces:
            totals[first:stop] += piece
    if spans > 1:  # advance() also drops a buffered 32-bit half, which no double reads
        rng.bit_generator.advance(end - bounds[1])
    return totals


# the one sampler of each base family of weaver.parents: called as
# (rng, sizes, *params), it returns for each entry m of sizes the sum of
# m observations drawn from its sufficient statistic (m*c, a binomial
# count, a Gaussian with mean m*mu and spread sqrt(m)*sigma), so a block
# costs one draw at most.  Uniform blocks add up raw draws, on up to two
# threads with the same sums as on one (_uniform_totals).  Cells consume
# the stream in order, so the sums of a prefix of sizes do not depend on
# what follows it.
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
    """For each block size m in ``sizes``, the sum of m iid observations
    of ``parent``: its family's block sums, under its affine map."""
    base = _BLOCK_SUMS[parent.family](rng, sizes, *parent.params)
    return base * parent.scale + sizes * parent.shift


def _block_sums(
    selected: np.ndarray,
    h0: ParentDistribution,
    h1: ParentDistribution,
    seed: int,
    key: tuple[int, ...],
    chunk: int,
) -> np.ndarray:
    """Block sums for chunk ``chunk``'s (count, n) grid of selections.

    Cell (r, j) sums 2**j observations of the parent its selection picks.
    Each parent draws for its own cells, in (replication, block) order,
    from its own stream of the chunk.
    """
    sizes = np.broadcast_to(1 << np.arange(selected.shape[1], dtype=np.int64), selected.shape)
    sums = np.empty(selected.shape)
    for cells, parent, purpose in ((~selected, h0, _H0_SUMS), (selected, h1, _H1_SUMS)):
        sums[cells] = _parent_sums(parent, _stream(seed, key, chunk, purpose), sizes[cells])
    return sums


def _totals(sums: np.ndarray) -> np.ndarray:
    # block by block, so a run's total does not depend on its chunk's size
    totals = np.zeros(len(sums))
    for column in sums.T:
        totals += column
    return totals


def _sample_runs(n: int, selected: np.ndarray, sums: np.ndarray) -> Iterator[SampleRun]:
    # one run per row of a chunk's selection grid and block sums
    denominator = (1 << n) - 1
    totals = _totals(sums)
    rows = zip(_leaf_indices(selected).tolist(), sums.tolist(), totals.tolist())
    for k, block_sums, total in rows:
        yield SampleRun(
            n=n,
            path=SelectionPath(n=n, k=k),
            block_sums=tuple(block_sums),
            total=total,
            mean=total / denominator,
            conditional_mean=Fraction(k, denominator),
        )


def run_from_path(
    path: SelectionPath, h0: ParentDistribution, h1: ParentDistribution, seed: int
) -> SampleRun:
    """Draw the block observations for a fixed selection path.

    The block sums come from chunk 0's block-sum streams of ``seed``, so
    ``run_from_path(run.path, h0, h1, seed)`` reproduces the run that
    ``run_exponential_sample`` draws with that seed.
    """
    _check_run(path.n, h0, h1)
    selected = np.array([path.bits[::-1]], dtype=bool)  # block order
    sums = _block_sums(selected, h0, h1, seed, (), 0)
    return next(_sample_runs(path.n, selected, sums))


def run_exponential_sample(
    n: int,
    h0: ParentDistribution,
    h1: ParentDistribution,
    p: Fraction | str | float,
    seed: int,
) -> SampleRun:
    """One full run: draw a path, then 2**(j-1) observations per block j.

    Parents must already be standardized (means exactly 0 and 1).  The
    run is replication 0 of ``run_ensemble(n, h0, h1, p, 1, seed)``.
    """
    return next(run_ensemble(n, h0, h1, p, 1, seed))


def _chunks(
    n: int,
    p: Fraction | str | float,
    replications: int,
    seed: int,
    key: tuple[int, ...],
) -> Iterator[tuple[int, np.ndarray]]:
    """The ensemble chunk by chunk: the chunk's index and its boolean
    (count, n) selection grid (column j for block j + 1)."""
    if replications < 1:
        raise RangeError(f"replications must be positive, got {replications}")
    threshold = _path_threshold(n, p)
    for chunk, start in enumerate(range(0, replications, CHUNK)):
        count = min(CHUNK, replications - start)
        words = _draw_words(_stream(seed, key, chunk, _PATH_WORDS), (count, n))
        yield chunk, _selection_bits(words, threshold)


def run_ensemble(
    n: int,
    h0: ParentDistribution,
    h1: ParentDistribution,
    p: Fraction | str | float,
    replications: int,
    seed: int,
) -> Iterator[SampleRun]:
    """Yield independent runs in stream order; run i depends only on (seed, i)."""
    _check_run(n, h0, h1)
    for chunk, selected in _chunks(n, p, replications, seed, ()):
        yield from _sample_runs(n, selected, _block_sums(selected, h0, h1, seed, (), chunk))


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
    denominator = (1 << n) - 1
    return np.concatenate([
        _totals(_block_sums(selected, h0, h1, seed, key, chunk)) / denominator
        for chunk, selected in _chunks(n, p, replications, seed, key)
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
    return np.concatenate(
        [_leaf_indices(selected) for _, selected in _chunks(n, p, replications, seed, ())]
    )


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
    if replications < 100:
        raise RangeError(
            f"at least 100 replications are needed for a moment report, got {replications}"
        )
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
    every depth.  The resolution is at least 1 and bounded by the
    materialization cap.  Depth n's ensemble is keyed by (seed, n), so no
    two depths or seeds share a stream.
    """
    p = _check_probability(p)
    if resolution < 1:
        raise RangeError(f"grid resolution must be positive, got {resolution}")
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
