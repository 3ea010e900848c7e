"""Parent populations for exponential sampling, as specs with closed forms.

Four finite-variance families are supported: point masses, Bernoulli,
uniform intervals, and Gaussians.  A population is its family, the
family's parameters, and an optional affine wrapping, so that the
standardizing transform stays inside the type; its mean and variance
are closed forms, and every construction checks the family's parameter
count and range.  The command line's spec syntax (``gauss:0,1``, and two
specs joined by ``;``) is parsed here.  Nothing here needs numpy: every
draw is a sum of observations from :mod:`weaver.sampler`, one sampler per family.
"""

from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple

from weaver.errors import RangeError
from weaver.exact import _Checked, _check_integer


def _float(value: float) -> float:
    # float(value), or an infinity of its sign for an int that float() refuses
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


# each base family: its parameter count, and over its params the closed-form
# mean and variance and the message for params outside its range ("" inside)
_FAMILIES: dict[str, tuple[int, Callable[..., float], Callable[..., float], Callable[..., str]]] = {
    "point-mass": (1, lambda c: c, lambda c: 0.0, lambda c: ""),
    "bernoulli": (
        1, lambda q: q, lambda q: q * (1.0 - q),
        lambda q: "" if 0.0 <= q <= 1.0 else f"bernoulli parameter must lie in [0, 1], got {q}",
    ),
    "uniform-interval": (
        2, lambda a, b: 0.5 * (a + b), lambda a, b: (b - a) * (b - a) / 12.0,
        lambda a, b: "" if a < b else f"uniform interval needs a < b, got ({a}, {b})",
    ),
    "gaussian": (
        2, lambda mu, var: mu, lambda mu, var: var,
        lambda mu, var: f"variance must be non-negative, got {var}" if var < 0.0 else "",
    ),
}


class ParentDistribution(_Checked, NamedTuple("ParentDistribution", [
    ("family", str), ("params", tuple[float, ...]), ("scale", float), ("shift", float)])):
    """One population, as ``scale * X + shift`` over a base family.

    ``params`` are the natural parameters of the base family:
    point-mass ``(c,)``, bernoulli ``(q,)`` with q in [0, 1],
    uniform-interval ``(a, b)`` with a < b, gaussian ``(mean, variance)``
    with variance >= 0; these, ``scale`` and ``shift`` must be finite in
    binary64, or :class:`RangeError` is raised.  Each is stored as a float,
    ``params`` as a tuple.
    """

    __slots__ = ()

    def __new__(cls, family: str, params: tuple[float, ...], scale: float = 1.0,
                shift: float = 0.0) -> ParentDistribution:
        params, scale, shift = tuple(map(_float, params)), _float(scale), _float(shift)
        if family not in _FAMILIES:
            raise RangeError(f"unknown family {family!r}; expected one of {tuple(_FAMILIES)}")
        arity, _, _, range_error = _FAMILIES[family]
        if len(params) != arity:
            raise RangeError(f"{family} takes {arity} parameter(s), got {len(params)}")
        # the range first: a NaN probability is reported as outside [0, 1]
        if message := range_error(*params):
            raise RangeError(message)
        if not all(map(math.isfinite, params)):
            raise RangeError(f"{family} parameters must be finite, got {params}")
        if not (math.isfinite(scale) and math.isfinite(shift)):
            raise RangeError(f"scale and shift must be finite, got {scale} and {shift}")
        return super().__new__(cls, family, params, scale, shift)

    @property
    def mean(self) -> float:
        return self.scale * _FAMILIES[self.family][1](*self.params) + self.shift

    @property
    def variance(self) -> float:
        return self.scale * self.scale * _FAMILIES[self.family][2](*self.params)

    def draw(self, rng: Any, size: int) -> Any:
        """Draw ``size`` iid observations from a numpy Generator as a float64
        array: ``size`` (an int >= 0) sums of one observation each."""
        _check_integer(size, 0, "size")
        import numpy as np

        from weaver.sampler import _parent_sums

        return _parent_sums(self, rng, np.ones(size, dtype=np.int64))


def point_mass(c: float) -> ParentDistribution:
    return ParentDistribution("point-mass", (c,))


def bernoulli(q: float) -> ParentDistribution:
    return ParentDistribution("bernoulli", (q,))


def uniform_interval(a: float, b: float) -> ParentDistribution:
    return ParentDistribution("uniform-interval", (a, b))


def gaussian(mean: float, variance: float) -> ParentDistribution:
    return ParentDistribution("gaussian", (mean, variance))


# family name in a parent spec: its base family
_SPEC_FAMILIES = {
    "point": "point-mass",
    "pointmass": "point-mass",
    "point-mass": "point-mass",
    "bernoulli": "bernoulli",
    "uniform": "uniform-interval",
    "uniform-interval": "uniform-interval",
    "gauss": "gaussian",
    "gaussian": "gaussian",
}


def _parse_spec(spec: str) -> ParentDistribution:
    """The population of one spec ``family:a,b``."""
    name, _, arg_text = spec.partition(":")
    key = name.strip().lower()
    if key not in _SPEC_FAMILIES:
        raise RangeError(
            f"unknown parent family {name!r}; expected one of "
            "point:c, bernoulli:q, uniform:a,b, gauss:mean,variance"
        )
    try:
        args = [float(a) for a in arg_text.split(",")] if arg_text else []
    except ValueError:
        raise RangeError(f"bad numeric parameters in parent spec {spec!r}") from None
    return ParentDistribution(_SPEC_FAMILIES[key], tuple(args))


def _parse_pair(text: str) -> tuple[ParentDistribution, ParentDistribution]:
    """The two populations of ``spec;spec``, as ``sample --parents`` takes them."""
    specs = text.split(";")
    if len(specs) != 2:
        raise RangeError(f"expected two parent specs separated by ';', got {text!r}")
    return _parse_spec(specs[0]), _parse_spec(specs[1])


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
        raise RangeError(
            f"parent means coincide ({mu0}); no fluctuation between the "
            "two centres of gravity is possible"
        )
    slope = 1.0 / (mu1 - mu0)
    # a spread that overflows to +-inf leaves a slope of 0
    if not math.isfinite(slope) or slope == 0.0:
        raise RangeError(
            f"parent means {mu0} and {mu1} admit no finite standardizing slope "
            "in binary64"
        )

    def _apply(h: ParentDistribution) -> ParentDistribution:
        return ParentDistribution(h.family, h.params, h.scale * slope, (h.shift - mu0) * slope)

    return _apply(h0), _apply(h1)
