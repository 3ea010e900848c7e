"""Parent populations for exponential sampling.

Four finite-variance families are supported: point masses, Bernoulli,
uniform intervals, and Gaussians.  Each family is one table entry: its
closed-form mean and variance, raw draws, and block sums drawn from its
sufficient statistic.  Uniform block sums have none and add up raw
draws; a deep stream of them is drawn in up to two contiguous spans at
once, each from its jump-ahead offset in the stream, with the same
doubles and sums whatever the number of threads.  A distribution
carries an optional affine wrapping so that the standardizing transform
stays inside the type.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from weaver import _host
from weaver.errors import DegeneracyError, RangeError

#: Uniform block sums read raw draws in slabs of at most this many
#: doubles (1 MiB), so a deep block never holds all its draws at once.
UNIFORM_SLAB = 1 << 17

#: Absolute slack allowed when checking that a pair of parents has been
#: standardized to means exactly 0 and 1 (float round-off only).
STANDARDIZATION_TOL = 1e-12


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


@dataclass(frozen=True)
class _Family:
    """Closed forms and samplers of one base family, over its ``params``.

    ``draw(rng, size, *params)`` returns ``size`` observations;
    ``block_sums(rng, sizes, *params)`` returns, for each entry m of
    ``sizes``, the sum of m observations drawn from its sufficient
    statistic.
    """

    mean: Callable[..., float]
    variance: Callable[..., float]
    draw: Callable[..., np.ndarray]
    block_sums: Callable[..., np.ndarray]


_FAMILIES = {
    "point-mass": _Family(
        mean=lambda c: c,
        variance=lambda c: 0.0,
        draw=lambda rng, size, c: np.full(size, c, dtype=np.float64),
        block_sums=lambda rng, sizes, c: sizes * c,
    ),
    "bernoulli": _Family(
        mean=lambda q: q,
        variance=lambda q: q * (1.0 - q),
        draw=lambda rng, size, q: (rng.random(size) < q).astype(np.float64),
        block_sums=lambda rng, sizes, q: rng.binomial(sizes, q).astype(np.float64),
    ),
    "uniform-interval": _Family(
        mean=lambda a, b: 0.5 * (a + b),
        variance=lambda a, b: (b - a) ** 2 / 12.0,
        draw=lambda rng, size, a, b: rng.uniform(a, b, size),
        block_sums=lambda rng, sizes, a, b: a * sizes + (b - a) * _uniform_totals(rng, sizes),
    ),
    # sqrt(m) * sigma rather than sqrt(m * var): a spread that only
    # overflows in the moments must not already overflow in the draws
    "gaussian": _Family(
        mean=lambda mu, var: mu,
        variance=lambda mu, var: var,
        draw=lambda rng, size, mu, var: rng.normal(mu, math.sqrt(var), size),
        block_sums=lambda rng, sizes, mu, var: (
            mu * sizes + np.sqrt(sizes) * math.sqrt(var) * rng.standard_normal(len(sizes))
        ),
    ),
}


@dataclass(frozen=True)
class ParentDistribution:
    """One population, as ``scale * X + shift`` over a base family.

    ``params`` are the natural parameters of the base family:
    point-mass ``(c,)``, bernoulli ``(q,)``, uniform-interval ``(a, b)``
    with a < b, gaussian ``(mean, variance)``; all must be finite.
    """

    family: str
    params: tuple[float, ...]
    scale: float = 1.0
    shift: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise RangeError(
                f"unknown family {self.family!r}; expected one of {tuple(_FAMILIES)}"
            )
        if not all(math.isfinite(value) for value in self.params):
            raise RangeError(f"{self.family} parameters must be finite, got {self.params}")

    @property
    def mean(self) -> float:
        return self.scale * _FAMILIES[self.family].mean(*self.params) + self.shift

    @property
    def variance(self) -> float:
        return self.scale * self.scale * _FAMILIES[self.family].variance(*self.params)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` iid observations as a float64 array."""
        base = _FAMILIES[self.family].draw(rng, size, *self.params)
        if self.scale == 1.0 and self.shift == 0.0:
            return base
        return base * self.scale + self.shift

    def block_sums(self, rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
        """For each block size m in ``sizes``, the sum of m iid observations.

        Sums come from the family's sufficient statistic (m*c, a binomial
        count, a Gaussian with mean m*mu and spread sqrt(m)*sigma), so a
        block costs one draw at most; uniform blocks add up raw draws,
        on up to two threads (see ``_uniform_totals``) with the same sums
        as on one.  Cells consume the stream in order, so the sums of a
        prefix of ``sizes`` do not depend on what follows it.
        """
        base = _FAMILIES[self.family].block_sums(rng, sizes, *self.params)
        if self.scale == 1.0 and self.shift == 0.0:
            return base
        return base * self.scale + sizes * self.shift


def point_mass(c: float) -> ParentDistribution:
    return ParentDistribution("point-mass", (float(c),))


def bernoulli(q: float) -> ParentDistribution:
    if not 0.0 <= q <= 1.0:
        raise RangeError(f"bernoulli parameter must lie in [0, 1], got {q}")
    return ParentDistribution("bernoulli", (float(q),))


def uniform_interval(a: float, b: float) -> ParentDistribution:
    if not a < b:
        raise RangeError(f"uniform interval needs a < b, got ({a}, {b})")
    return ParentDistribution("uniform-interval", (float(a), float(b)))


def gaussian(mean: float, variance: float) -> ParentDistribution:
    if variance < 0.0:
        raise RangeError(f"variance must be non-negative, got {variance}")
    return ParentDistribution("gaussian", (float(mean), float(variance)))


def standardize_parents(
    h0: ParentDistribution, h1: ParentDistribution
) -> tuple[ParentDistribution, ParentDistribution]:
    """Affinely map the pair so the means become exactly 0 and 1.

    Applies x -> (x - mean(h0)) / (mean(h1) - mean(h0)) to both
    populations; variances scale by the squared slope.  A pair with
    equal means admits no such map and is rejected.
    """
    mu0 = h0.mean
    mu1 = h1.mean
    if mu0 == mu1:
        raise DegeneracyError(
            f"parent means coincide ({mu0}); no fluctuation between the "
            "two centres of gravity is possible"
        )
    slope = 1.0 / (mu1 - mu0)
    # a spread that overflows to +-inf leaves a slope of 0
    if not math.isfinite(slope) or slope == 0.0:
        raise DegeneracyError(
            f"parent means {mu0} and {mu1} admit no finite standardizing slope "
            "in binary64"
        )

    def _apply(h: ParentDistribution) -> ParentDistribution:
        return replace(h, scale=h.scale * slope, shift=(h.shift - mu0) * slope)

    return _apply(h0), _apply(h1)


def is_standardized(h0: ParentDistribution, h1: ParentDistribution) -> bool:
    """True when the means are 0 and 1 up to float round-off."""
    return (
        abs(h0.mean) <= STANDARDIZATION_TOL
        and abs(h1.mean - 1.0) <= STANDARDIZATION_TOL
    )
