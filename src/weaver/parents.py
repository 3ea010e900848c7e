"""Parent populations for exponential sampling.

Four finite-variance families are supported: point masses, Bernoulli,
uniform intervals, and Gaussians.  Each knows its closed-form mean and
variance, and carries an optional affine wrapping so that the
standardizing transform stays inside the type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from weaver.errors import DegeneracyError, RangeError

FAMILIES = ("point-mass", "bernoulli", "uniform-interval", "gaussian")

#: Absolute slack allowed when checking that a pair of parents has been
#: standardized to means exactly 0 and 1 (float round-off only).
STANDARDIZATION_TOL = 1e-12


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
        if self.family not in FAMILIES:
            raise RangeError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if not all(math.isfinite(value) for value in self.params):
            raise RangeError(f"{self.family} parameters must be finite, got {self.params}")

    @property
    def mean(self) -> float:
        return self.scale * self._base_mean() + self.shift

    @property
    def variance(self) -> float:
        return self.scale * self.scale * self._base_variance()

    def _base_mean(self) -> float:
        if self.family == "point-mass":
            return self.params[0]
        if self.family == "bernoulli":
            return self.params[0]
        if self.family == "uniform-interval":
            a, b = self.params
            return 0.5 * (a + b)
        mu, _ = self.params
        return mu

    def _base_variance(self) -> float:
        if self.family == "point-mass":
            return 0.0
        if self.family == "bernoulli":
            q = self.params[0]
            return q * (1.0 - q)
        if self.family == "uniform-interval":
            a, b = self.params
            return (b - a) ** 2 / 12.0
        _, var = self.params
        return var

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` iid observations as a float64 array."""
        if self.family == "point-mass":
            base = np.full(size, self.params[0], dtype=np.float64)
        elif self.family == "bernoulli":
            base = (rng.random(size) < self.params[0]).astype(np.float64)
        elif self.family == "uniform-interval":
            a, b = self.params
            base = rng.uniform(a, b, size)
        else:
            mu, var = self.params
            base = rng.normal(mu, math.sqrt(var), size)
        if self.scale == 1.0 and self.shift == 0.0:
            return base
        return base * self.scale + self.shift


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
