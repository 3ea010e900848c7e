"""Exact construction and queries for the Weaver distribution W(n, p).

W(n, p) is the distribution of the conditional sample mean produced by
``n`` independent Bernoulli(p) selections over blocks of doubling size.
It places mass ``p**ones(k) * (1-p)**(n-ones(k))`` on the lattice point
``k / (2**n - 1)``, where ``ones(k)`` is the number of one-bits in the
leaf index ``k`` (``0 <= k < 2**n``).

Everything in this module is exact: the point queries in Fractions, and
the kernels of the 2**n tables in integer numerators over a common
denominator.  Binary64 enters only through the one log-space point
query, :func:`pmf_point_log2`, meant for depths far beyond the
materialization cap; it carries a documented relative tolerance of 1e-12.

Every integer argument of the package (depth, resolution, moment order,
seed, replication count) is checked by :func:`_check_integer`: its type
must be int itself, a bool or a float is refused, and so is a value below
its least.  A leaf index k and a grid point k / 2**m are plain ints too,
checked the same way by :func:`_check_leaf_index` and :func:`_check_dyadic`
against their ranges; p is read and checked by :func:`_check_probability`
alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from math import comb
from typing import Any, Iterable, Iterator, NamedTuple

from weaver.errors import CapacityError, RangeError

#: Largest depth of the 2**n tables (pmf vector, triangle row, cdf grid,
#: cell mass vector), with no override; point queries are O(n), and the
#: moments O(n * order**2), at any depth.  The tables read a leaf's
#: mass from its popcount and the CLI streams them row by row, so their
#: memory does not grow with depth and the cap bounds time only.
MATERIALIZATION_CAP = 19


def _check_probability(value: Fraction | str | float | int) -> Fraction:
    """``value`` as an exact Fraction strictly inside (0, 1), else a RangeError.

    Strings accept both fraction syntax (``"2/3"``) and decimal syntax
    (``"0.25"``); either parses exactly.  Floats are converted through
    their shortest decimal representation, never through their binary
    expansion, so ``0.1`` becomes exactly ``1/10``.  A bool, or a value of
    any other type, is refused too.
    """
    if isinstance(value, bool):
        raise RangeError("probability must be a Fraction, str, float, or int")
    if not isinstance(value, (Fraction, str, float, int)):
        raise RangeError(f"cannot interpret {value!r} as an exact probability")
    try:
        p = Fraction(float.__repr__(value) if isinstance(value, float) else value)
    except (ValueError, ZeroDivisionError):  # "abc", "1/0", nan, inf
        raise RangeError(f"cannot parse {str(value)!r} as a fraction 'a/b' or a decimal")
    # the endpoints collapse the cascade onto a single leaf
    if not 0 < p < 1:
        raise RangeError(f"p must lie strictly inside (0, 1), got {p}")
    return p


class _Checked:
    # first base of a checked record: namedtuple's _make, and so _replace, skips __new__
    __slots__ = ()

    @classmethod
    def _make(cls, fields: Iterable[Any]) -> Any:
        return cls(*fields)


class WeaverParams(_Checked, NamedTuple("WeaverParams", [("n", int), ("p", Fraction)])):
    """Parameters of W(n, p): the number of selections and the selection bias.

    ``p`` may be given as a Fraction, a string, or a float; it is stored
    as an exact rational and must lie strictly inside (0, 1).  The
    degenerate endpoints are rejected because they collapse the cascade
    onto a single leaf and break every ratio identity.
    """

    __slots__ = ()

    def __new__(cls, n: int, p: Fraction | str | float) -> WeaverParams:
        _check_integer(n, 1)
        return super().__new__(cls, n, _check_probability(p))


class WeaverDist(NamedTuple):
    """W(n, p) together with its materialized pmf vector."""

    params: WeaverParams
    pmf: tuple[Fraction, ...]


def _check_integer(value: int, least: int, what: str = "depth") -> None:
    # type, not isinstance, as for a leaf index: a bool is no integer argument
    if type(value) is not int or value < least:
        raise RangeError(f"{what} must be an integer >= {least}, got {value!r}")


def _check_leaf_index(k: int, n: int) -> None:
    # type, not isinstance: a bool is an int to isinstance, but no index
    if type(k) is not int or not 0 <= k < 1 << n:
        raise RangeError(f"leaf index must be an integer in [0, 2**{n} - 1], got {k!r}")


def _check_dyadic(k: int, m: int) -> None:
    _check_integer(m, 0, "resolution")
    if type(k) is not int or not 0 <= k <= 1 << m:
        raise RangeError(f"k must be an integer in [0, 2**{m}], got {k!r}")


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
    _check_integer(n, 1)
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
    _check_integer(n, 0)
    _check_cap(n, "triangle row")
    row = [0]
    for _ in range(n):
        row += [e + 1 for e in row]
    return row


def _check_refinement(resolution: int, params: WeaverParams) -> None:
    if resolution > params.n:
        raise RangeError(
            f"resolution {resolution} exceeds construction depth {params.n}; "
            "the value is not yet stable"
        )


def cdf_at_dyadic(k: int, m: int, params: WeaverParams) -> Fraction:
    """Mass of W(n, p) strictly below the dyadic point k / 2**m.

    Equals the total mass of the leaves with index j < k * 2**(n - m),
    computed in O(n) by walking the binary digits of that bound.  The
    value is stable under refinement: any params.n >= m returns the
    identical rational.  Interior dyadic points carry no atom, so there
    it is the distribution function F_n, and at k = 2**m it is F_n(1) = 1.
    At k = 0 it is 0, the limit law's F(0), not F_n(0) = (1 - p)**n, the
    atom of leaf 0.
    """
    _check_dyadic(k, m)
    _check_refinement(m, params)
    bound = k << (params.n - m)
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


def cdf_grid(
    params: WeaverParams, resolution: int, start: int = 0
) -> tuple[Iterator[int], int]:
    """:func:`cdf_at_dyadic` at every point k / 2**m, m = resolution: F_n
    there, but 0 at k = 0, where F_n(0) is the atom (1 - p)**n of leaf 0.

    Returns the 2**m + 1 values, or those from k = ``start`` on, as
    integer numerators over their common denominator d**m (p = a/d), like
    :func:`_mass_numerators`.  The cdf is stable under refinement, so the
    grid is the running sum of the depth-m mass numerators, leaf k's
    indexed by ones(k), in O(2**m) integer adds, from its value at
    ``start`` (:func:`_cdf_numerator`).

    The sums come one at a time from an iterator, not as a list; every
    check, of ``start`` too, runs at this call, before the first one.
    """
    _check_dyadic(start, resolution)
    _check_cap(resolution, "cdf grid")
    _check_refinement(resolution, params)
    numerators, denominator = _mass_numerators(params.p, resolution)
    ones = map(int.bit_count, range(start, 1 << resolution))
    first = _cdf_numerator(params.p, resolution, start)
    return accumulate(map(numerators.__getitem__, ones), initial=first), denominator


def _cdf_numerator(p: Fraction, m: int, k: int) -> int:
    """The numerator of F(k / 2**m) over d**m (p = a/d), 0 <= k <= 2**m.

    The integer form of :func:`cdf_at_dyadic`'s O(m) digit walk: each
    one-bit of k adds the leaves that share its higher bits and have a
    zero in its place, a subtree of mass (d-a) * d**i times the prefix's
    a**ones * (d-a)**zeros, over d**m.
    """
    a, d = p.numerator, p.denominator
    if k >> m:
        return d**m
    total, prefix = 0, 1
    for i in range(m - 1, -1, -1):
        if (k >> i) & 1:
            total += prefix * (d - a) * d**i
            prefix *= a
        else:
            prefix *= d - a
    return total


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
