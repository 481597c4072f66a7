"""Surfaces on three dimensional rational normal scrolls.

S(a, b, c) is the scroll of degree a+b+c in projective space of dimension
a+b+c+2; H is the hyperplane class, F the fiber class.  A general member
of |mH + lF| with the two positivity conditions below is a smooth surface
whose canonical bundle is very ample, and its invariants are linear in
the single quantity r*m + 3*l.  Eliminating that quantity puts the
invariant pair (p_g, c1^2) on a line depending only on m, which is what
the exclusion test here exploits.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .classify import _checked


@_checked
class ScrollSpec(NamedTuple):
    a: int
    b: int
    c: int

    def _check(self):
        if not (0 <= self.a <= self.b <= self.c):
            raise ValueError("need 0 <= a <= b <= c")

    @property
    def r(self) -> int:
        """Dimension of the ambient projective space, plus one."""
        return self.a + self.b + self.c + 3

    @property
    def degree(self) -> int:
        return self.r - 3


@_checked
class DivisorClass(NamedTuple):
    m: int
    l: int

    def _check(self):
        if self.m < 4:
            raise ValueError("m must be at least 4")


def scroll_surface_invariants(spec: ScrollSpec, cls: DivisorClass) -> tuple[int, int]:
    """(p_g, c1^2) of a general member of |mH + lF| on S(a, b, c).

    Both values are provably integers; a non integer intermediate would
    mean corrupted inputs, so it raises.
    """
    m, l, r = cls.m, cls.l, spec.r
    t = r * m + 3 * l
    # p_g = (m-2)(m-1)t/6 - (m-2)(m-1)(m+1)/2
    p_g, rem = divmod((m - 2) * (m - 1) * (t - 3 * (m + 1)), 6)
    c1sq = (m - 3) * (m - 1) * t - m * (m - 3) * (3 * m + 1)
    if rem:
        raise ValueError(f"non integral p_g for {spec}, {cls}")
    return p_g, c1sq


def line_for_m(m: int) -> tuple[int, int, int]:
    """The line carrying all |mH + lF| invariant pairs, for fixed m.

    Returned as (slope numerator, slope denominator, intercept) with
    y = (num/den) * x + intercept, all exact integers, unreduced.
    """
    if m < 4:
        raise ValueError("m must be at least 4")
    return 6 * (m - 3), m - 2, -(m - 3) * (m + 3)


def on_line(m: int, point: tuple[int, int]) -> bool:
    """Exact membership test of (x, y) on the line for m."""
    num, den, intercept = line_for_m(m)
    x, y = point
    return den * y == num * x + den * intercept


def scroll_line_hits(pairs: list[tuple[int, int]]) -> list[tuple[tuple[int, int], int]]:
    """All (pair, m) incidences between the given pairs and the lines.

    The scan over m is finite without any arbitrary cap: the slope lies in
    [3, 6), so a point (x, y) with x >= 0 can only sit on the line for m
    when m*m <= 6x - y + 9 (and m*m <= 3x - y + 9 when x < 0).  Everything
    is checked with exact integer arithmetic.
    """
    if not pairs:
        raise ValueError("need at least one invariant pair")
    hits = []
    for x, y in pairs:
        bound = max(6 * x, 3 * x) - y + 9
        if bound < 16:
            continue
        for m in range(4, isqrt(bound) + 1):
            if on_line(m, (x, y)):
                hits.append(((x, y), m))
    return hits


def scroll_admissible(spec: ScrollSpec, cls: DivisorClass) -> bool:
    """The two positivity conditions guaranteeing a smooth canonical member.

    m*a + l > 0 makes mH + lF very ample, and (m-3)*a + r + l - 5 > 0 makes
    the adjoint bundle very ample.  Sufficient, not necessary: the pair
    (p_g, c1sq) = (5, 8) on the m = 4 line is realized by S(1, 2, 2) with
    l = -4, where mH + lF is merely base point free (m*a + l == 0).
    """
    m, l = cls.m, cls.l
    a, r = spec.a, spec.r
    return m * a + l > 0 and (m - 3) * a + r + l - 5 > 0

