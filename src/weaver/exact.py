"""Exact construction and queries for the Weaver distribution W(n, p).

W(n, p) is the distribution of the conditional sample mean produced by
``n`` independent Bernoulli(p) selections over blocks of doubling size.
It places mass ``p**ones(k) * (1-p)**(n-ones(k))`` on the lattice point
``k / (2**n - 1)``, where ``ones(k)`` is the number of one-bits in the
leaf index ``k`` (``0 <= k < 2**n``).

Everything in this module is computed with exact rational arithmetic
(:class:`fractions.Fraction`).  Binary64 enters only through the
explicit log-space helpers meant for depths far beyond the
materialization cap; those carry a documented relative tolerance of
1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb
from typing import Iterator

from weaver.errors import CapacityError, RangeError, RefinementError

#: Largest depth of the 2**n tables (pmf vector, triangle row, cdf grid,
#: cell mass vector), with no override; point queries are O(n), and the
#: moments O(n * order**2), at any depth.  The tables read a leaf's
#: mass from its popcount and the CLI streams them row by row, so their
#: memory does not grow with depth and the cap bounds time only.
MATERIALIZATION_CAP = 19


def as_exact_probability(value: Fraction | str | float | int) -> Fraction:
    """Coerce ``value`` to an exact :class:`Fraction`.

    Strings accept both fraction syntax (``"2/3"``) and decimal syntax
    (``"0.25"``); either parses exactly.  Floats are converted through
    their shortest decimal representation, never through their binary
    expansion, so ``0.1`` becomes exactly ``1/10``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("probability must be a Fraction, str, float, or int")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact probability")


def _check_probability(value: Fraction | str | float | int) -> Fraction:
    """``value`` as an exact Fraction strictly inside (0, 1), else a RangeError."""
    try:
        p = as_exact_probability(value)
    except (ValueError, ZeroDivisionError):  # "abc", "1/0", nan, inf
        raise RangeError(f"cannot parse {str(value)!r} as a fraction 'a/b' or a decimal")
    # the endpoints collapse the cascade onto a single leaf
    if not 0 < p < 1:
        raise RangeError(f"p must lie strictly inside (0, 1), got {p}")
    return p


@dataclass(frozen=True)
class WeaverParams:
    """Parameters of W(n, p): the number of selections and the selection bias.

    ``p`` may be given as a Fraction, a string, or a float; it is stored
    as an exact rational and must lie strictly inside (0, 1).  The
    degenerate endpoints are rejected because they collapse the cascade
    onto a single leaf and break every ratio identity.
    """

    n: int
    p: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise RangeError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "p", _check_probability(self.p))


@dataclass(frozen=True)
class SelectionPath:
    """One vector of n binary selections, encoded as the integer k.

    Bit j of ``k`` records the outcome of selection j+1 (the block of
    size 2**j), so ``k = sum(b[j] << j)`` and the bit tuple reads
    most-significant selection first.
    """

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise RangeError(f"path length must be positive, got {self.n}")
        if not 0 <= self.k < 1 << self.n:
            raise RangeError(f"k={self.k} outside [0, 2**{self.n} - 1]")

    @classmethod
    def from_bits(cls, bits: tuple[int, ...]) -> "SelectionPath":
        """Build a path from the bit vector (b[n-1], ..., b[0])."""
        k = 0
        for b in bits:
            if b not in (0, 1):
                raise RangeError(f"selection bits must be 0 or 1, got {b!r}")
            k = (k << 1) | b
        return cls(n=len(bits), k=k)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.k >> j) & 1 for j in range(self.n - 1, -1, -1))

    @property
    def ones(self) -> int:
        return self.k.bit_count()


@dataclass(frozen=True)
class WeaverDist:
    """W(n, p) together with its materialized pmf vector."""

    params: WeaverParams
    pmf: tuple[Fraction, ...]


@dataclass(frozen=True)
class DyadicPoint:
    """The point k / 2**n of the dyadic grid at resolution n."""

    k: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise RangeError(f"resolution must be non-negative, got {self.n}")
        if not 0 <= self.k <= 1 << self.n:
            raise RangeError(f"k={self.k} outside [0, 2**{self.n}]")

    @property
    def value(self) -> Fraction:
        return Fraction(self.k, 1 << self.n)


def _check_leaf_index(k: int, n: int) -> None:
    if not 0 <= k < 1 << n:
        raise RangeError(f"leaf index k={k} outside [0, 2**{n} - 1]")


def _check_cap(n: int, what: str) -> None:
    if n > MATERIALIZATION_CAP:
        raise CapacityError(
            f"{what} needs 2**{n} entries, above the materialization cap {MATERIALIZATION_CAP}"
        )


def realization_value(k: int, n: int) -> Fraction:
    """The k-th support point of W(n, p): k / (2**n - 1).

    The support is an equispaced lattice on [0, 1]; consecutive points
    differ by exactly 1 / (2**n - 1).
    """
    if n < 1:
        raise RangeError(f"n must be positive, got {n}")
    _check_leaf_index(k, n)
    return Fraction(k, (1 << n) - 1)


def pmf_point(k: int, params: WeaverParams) -> Fraction:
    """Mass at leaf k: p**ones(k) * (1-p)**(n - ones(k)).

    O(n) via the popcount of k; never materializes the vector.
    """
    _check_leaf_index(k, params.n)
    ones = k.bit_count()
    p = params.p
    return p**ones * (1 - p) ** (params.n - ones)


def pmf_point_log2(k: int, params: WeaverParams) -> float:
    """Base-2 logarithm of the mass at leaf k, in binary64.

    Intended for depths beyond the materialization cap (multifractal
    diagnostics at n of 40 and more).  Relative tolerance 1e-12.
    """
    _check_leaf_index(k, params.n)
    ones = k.bit_count()
    p = params.p
    return ones * _log2(p) + (params.n - ones) * _log2(1 - p)


def _log2(x: Fraction) -> float:
    """Base-2 logarithm of the positive rational x, in binary64, at any magnitude.

    x is 2**shift times a quotient in [3/4, 3/2), a shift of its numerator
    or denominator, so no float of x itself is formed (p = 10**-400 would
    round to 0.0), and log1p of the exact quotient minus 1 keeps full
    relative precision near x = 1.
    """
    num, den = x.numerator, x.denominator
    shift = num.bit_length() - den.bit_length()  # num / den / 2**shift in (1/2, 2)
    num, den = (num, den << shift) if shift >= 0 else (num << -shift, den)
    if 4 * num < 3 * den:
        num, shift = num << 1, shift - 1
    elif 2 * num >= 3 * den:
        den, shift = den << 1, shift + 1
    return shift + math.log1p((num - den) / den) / math.log(2)


def build_pmf_vector(params: WeaverParams) -> WeaverDist:
    """The full pmf vector of W(n, p), as a tuple of 2**n entries.

    The mass at leaf k depends on k only through ones(k), so entry k is
    the :func:`jump_spectrum` height indexed by ones(k); the 2**n entries
    share those n+1 Fraction objects.  Entry k equals :func:`pmf_point`
    at k and the entries sum to 1 exactly.
    """
    _check_cap(params.n, "pmf vector")
    heights = [height for height, _ in jump_spectrum(params)]
    ones = map(int.bit_count, range(1 << params.n))
    return WeaverDist(params=params, pmf=tuple(map(heights.__getitem__, ones)))


def geometric_triangle_row(n: int) -> list[int]:
    """Row n of the multiplicative triangle, as integer exponents.

    Entry k is the exponent of the bias ratio f = p/(1-p) in the mass at
    leaf k, i.e. the number of one-bits of k.  Row n+1 is row n followed
    by row n shifted up by one.  The independent oracle of the tables,
    which read ones(k) from k.
    """
    if n < 0:
        raise RangeError(f"row index must be non-negative, got {n}")
    _check_cap(n, "triangle row")
    row = [0]
    for _ in range(n):
        row += [e + 1 for e in row]
    return row


def exponent_sum(n: int) -> int:
    """Sum of row n of the exponent triangle: n * 2**(n-1).

    Each of the n bits is set in half of the 2**n leaves.
    """
    if n < 0:
        raise RangeError(f"row index must be non-negative, got {n}")
    return (n << n) >> 1


def cdf_at_dyadic(point: DyadicPoint, params: WeaverParams) -> Fraction:
    """Distribution function of W(n, p) at the dyadic point k / 2**m.

    Equals the total mass of the leaves with index j < k * 2**(n - m),
    computed in O(n) by walking the binary digits of that bound.  The
    value is stable under refinement: any params.n >= m returns the
    identical rational.  Interior dyadic points carry no atom, so the
    left and right limits agree there; the endpoint 1 returns the total
    mass.
    """
    if point.n > params.n:
        raise RefinementError(
            f"resolution {point.n} exceeds construction depth {params.n}; "
            "the value is not yet stable"
        )
    bound = point.k << (params.n - point.n)
    if bound >= 1 << params.n:
        return Fraction(1)
    p = params.p
    q = 1 - p
    total = Fraction(0)
    prefix = Fraction(1)
    for i in range(params.n - 1, -1, -1):
        if (bound >> i) & 1:
            # every index sharing the consumed prefix with a 0 here lies below
            total += prefix * q
            prefix *= p
        else:
            prefix *= q
    return total


def cdf_grid(params: WeaverParams, resolution: int) -> tuple[Iterator[int], int]:
    """Distribution function of W(n, p) at every point k / 2**m, m = resolution.

    Returns the 2**m + 1 values as integer numerators over their common
    denominator d**m (p = a/d), like :func:`_mass_numerators`.  The cdf
    is stable under refinement, so the grid is the running sum of the
    depth-m mass numerators, leaf k's indexed by ones(k), in O(2**m)
    integer adds.  Entry k over the denominator equals
    :func:`cdf_at_dyadic` at k / 2**m, which stays the O(n) point query.

    The sums come one at a time from an iterator, not as a list; the cap
    and refinement checks run when this is called, before the first one.
    """
    _check_cap(resolution, "cdf grid")
    if resolution > params.n:
        raise RefinementError(
            f"resolution {resolution} exceeds construction depth {params.n}; "
            "the value is not yet stable"
        )
    numerators, denominator = _mass_numerators(params.p, resolution)
    ones = map(int.bit_count, range(1 << resolution))
    return accumulate(map(numerators.__getitem__, ones), initial=0), denominator


def _mass_numerators(p: Fraction, m: int) -> tuple[list[int], int]:
    """The depth-m masses over their common denominator.

    With p = a/d, a leaf with e one-bits carries a**e * (d-a)**(m-e) / d**m;
    returns those m+1 numerators, indexed by e, and d**m.  The 2**n
    tables read their masses from here; :func:`pmf_point`,
    :func:`cdf_at_dyadic` and ``analysis.pmodel_cell_masses`` do not, so
    they stay independent oracles for them.
    """
    a, d = p.numerator, p.denominator
    return [a**e * (d - a) ** (m - e) for e in range(m + 1)], d**m


def jump_spectrum(params: WeaverParams) -> list[tuple[Fraction, int]]:
    """Heights and multiplicities of the jumps of the step CDF.

    There are n+1 distinct heights p**j * (1-p)**(n-j), the height with
    j one-bits occurring at C(n, j) leaves; the multiplicity-weighted
    heights sum to 1.  For p = 1/2 every height equals 2**-n.
    """
    numerators, denominator = _mass_numerators(params.p, params.n)
    return [(Fraction(w, denominator), comb(params.n, j)) for j, w in enumerate(numerators)]


def mirror_index(k: int, n: int) -> int:
    """Index of the leaf mirrored across 1/2: 2**n - 1 - k.

    Complementing every selection bit maps W(n, p) onto W(n, 1-p), so
    the mass of W(n, p) at k equals the mass of W(n, 1-p) at the mirror.
    """
    if n < 1:
        raise RangeError(f"n must be positive, got {n}")
    _check_leaf_index(k, n)
    return ((1 << n) - 1) - k
