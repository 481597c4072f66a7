"""Where the two constructions meet: enumeration and geography data.

A pair of invariants (x', y) = (p_g, c1^2) is interesting here when it is
realized both by a rigid degree-2 canonical cover (a pair (d, s) in the
DEGREE2_ALWAYS zone) and by a smooth surface on a rational normal scroll.
Such a pair forces the corresponding moduli space to contain at least two
components with different canonical behavior.  This module enumerates
those pairs line by line, with an explicit scroll witness attached to
every emitted point, and also produces the line-and-interval data that
locates all the covers in the (chi, c1^2) plane.  That interval is read
off the cover layer (`zones(d)`, `deformation_class`, `cover_invariants`),
so this module states no zone boundary of its own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .classify import BlowupPair, DeformationClass, deformation_class, zones
from .invariants import cover_invariants
from .scrolls import (DivisorClass, ScrollSpec, line_for_m, scroll_admissible,
                      scroll_surface_invariants)

if TYPE_CHECKING:
    from fractions import Fraction


def _s_ratio(m: int, d: int) -> tuple[int, int]:
    """s_for_degree(m, d) as an unreduced (numerator, denominator > 0)."""
    return ((m - 5) * d * d + 9 * (m - 3) * d - (m - 3) ** 2 * (m + 4),
            2 * (2 * m - 7))


def _total_ratio(m: int, x_prime: int) -> tuple[int, int]:
    """scroll_class_total(m, x_prime) as an unreduced (numerator,
    denominator > 0)."""
    den = (m - 1) * (m - 2)
    return 6 * x_prime + 3 * (m + 1) * den, den


def s_for_degree(m: int, d: int) -> Fraction:
    """Point count s making the (d, s) cover land on the line for m.

    Exact rational; a fractional value simply means no cover with that
    degree sits on the line.
    """
    if m < 4:
        raise ValueError("m must be at least 4")
    if d < 1:
        raise ValueError("d must be positive")
    from fractions import Fraction
    return Fraction(*_s_ratio(m, d))


def scroll_class_total(m: int, x_prime: int) -> Fraction:
    """The quantity r*m + 3*l forced by p_g = x_prime on the line for m."""
    if m < 4:
        raise ValueError("m must be at least 4")
    from fractions import Fraction
    return Fraction(*_total_ratio(m, x_prime))


class ScrollWitness(NamedTuple):
    r: int
    l: int
    a: int
    b: int
    c: int


def find_witness(m: int, total: int) -> ScrollWitness | None:
    """Admissible scroll data with r*m + 3*l == total, or None.

    Checking r in {6, 7, 8} is exhaustive: for fixed total, both
    positivity slacks evaluated at the largest allowed a depend only on
    r mod 3, so if the smallest representative of a residue class fails,
    every r in that class fails.  Within the chosen (r, l) the returned
    partition (a, a, r-3-2a) with the smallest admissible a is the
    lexicographically smallest admissible one, because admissibility only
    constrains the minimum entry a.
    """
    found = _witness_search(m, total)
    return None if found is None else _witness(*found)


def _witness_search(m: int, total: int) -> tuple[ScrollSpec, DivisorClass] | None:
    """The scroll S(a, b, c) and the class mH + lF of find_witness, or None."""
    for r in (6, 7, 8):
        l, rem = divmod(total - r * m, 3)
        if rem:
            continue
        cls = DivisorClass(m, l)
        for a in range(1, (r - 3) // 3 + 1):
            spec = ScrollSpec(a, a, r - 3 - 2 * a)
            if scroll_admissible(spec, cls):
                return spec, cls
    return None


def _witness(spec: ScrollSpec, cls: DivisorClass) -> ScrollWitness:
    return ScrollWitness(spec.r, cls.l, *spec)


class TwoComponentPoint(NamedTuple):
    """An invariant pair realized by both constructions, with its witness."""

    x_prime: int
    y: int
    m: int
    d: int
    s: int
    scroll_witness: ScrollWitness


class UnwitnessedCandidate(NamedTuple):
    """A cover on the line not matched by any divisor of this line's class.

    These are reported rather than silently dropped; "reason" says which
    step of the witness search ruled them out.  A candidate rejected here
    can still be a point of another line's enumeration, since distinct
    lines intersect.
    """

    d: int
    s: int
    x_prime: int
    y: int
    reason: str


class Enumeration(NamedTuple):
    m: int
    d_max: int
    points: tuple[TwoComponentPoint, ...]
    unwitnessed: tuple[UnwitnessedCandidate, ...]


def two_component_points(m: int, d_max: int) -> Enumeration:
    """Enumerate certified points on the line for m with cover degree <= d_max.

    A degree d survives when s_for_degree(m, d) is an integer >= 1 and the
    pair (d, s) classifies as DEGREE2_ALWAYS.  Each survivor is then either
    certified by an explicit admissible scroll witness or reported in the
    unwitnessed list.  Deterministic; an empty result is meaningful.
    """
    # on_line(m, .), with the line read once; line_for_m checks m
    num, den, intercept = line_for_m(m)
    if d_max < 2:
        raise ValueError("d_max must be at least 2")
    points: list[TwoComponentPoint] = []
    unwitnessed: list[UnwitnessedCandidate] = []
    for d in range(2, d_max + 1):
        s, rem = divmod(*_s_ratio(m, d))
        if rem or s < 1:
            continue
        pair = BlowupPair(d, s)
        if deformation_class(pair) is not DeformationClass.DEGREE2_ALWAYS:
            continue
        inv = cover_invariants(pair)
        x_prime, y = inv.p_g, inv.c1sq
        if den * y != num * x_prime + den * intercept:
            raise AssertionError(f"cover ({d},{s}) missed its own line, m={m}")
        total, rem = divmod(*_total_ratio(m, x_prime))
        if rem:
            unwitnessed.append(UnwitnessedCandidate(
                d, s, x_prime, y, "r*m+3*l is not an integer"))
            continue
        found = _witness_search(m, total)
        if found is None:
            unwitnessed.append(UnwitnessedCandidate(
                d, s, x_prime, y, "no admissible scroll"))
            continue
        if scroll_surface_invariants(*found) != (x_prime, y):
            raise AssertionError(f"witness does not reproduce ({x_prime},{y})")
        points.append(TwoComponentPoint(x_prime, y, m, d, s, _witness(*found)))
    return Enumeration(m=m, d_max=d_max, points=tuple(points),
                       unwitnessed=tuple(unwitnessed))


class GeographyLine(NamedTuple):
    """For one value of d, the line chi -> c1^2 and its realized x interval.

    The line is y = 2*x + intercept with intercept = d^2 - 3*d - 4; the
    integer points with x_min <= x <= x_max are the (chi, c1sq) pairs of
    the covers whose deformation class is settled (degree 1 or rigidly
    degree 2).
    """

    d: int
    intercept: int
    x_min: int
    x_max: int


# The deformation classes that are settled: the realized interval runs over
# the covers carrying one of them.
_SETTLED = (DeformationClass.DEGREE1, DeformationClass.DEGREE2_ALWAYS)


def geography_lines(d_values) -> list[GeographyLine]:
    """Line and realized interval for each requested d, sorted by d.

    chi falls as s grows, so x_max is chi at s = 1 and x_min is chi at the
    largest s <= zones(d).cover_yes_max whose class is settled.
    """
    out = []
    for d in sorted(set(int(d) for d in d_values)):
        if d < 2:
            raise ValueError("d must be at least 2")
        s_last = next(s for s in range(zones(d).cover_yes_max, 0, -1)
                      if deformation_class(BlowupPair(d, s)) in _SETTLED)
        out.append(GeographyLine(
            d=d, intercept=d * d - 3 * d - 4,
            x_min=cover_invariants(BlowupPair(d, s_last)).chi,
            x_max=cover_invariants(BlowupPair(d, 1)).chi))
    return out
