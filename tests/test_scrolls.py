"""Surfaces on three-dimensional rational normal scrolls."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cangeo.classify import BlowupPair
from cangeo.invariants import cover_invariants
from cangeo.scrolls import (
    DivisorClass,
    ScrollSpec,
    line_for_m,
    on_line,
    scroll_admissible,
    scroll_line_hits,
    scroll_surface_invariants,
)

SEVEN_PAIRS = [(3, 5), (3, 6), (4, 8), (4, 9), (4, 10), (5, 13), (5, 14)]


def _invariant_points():
    out = []
    for d, s in SEVEN_PAIRS:
        inv = cover_invariants(BlowupPair(d, s))
        out.append((inv.p_g, inv.c1sq))
    return out


def test_scroll_spec_validation():
    with pytest.raises(ValueError):
        ScrollSpec(2, 1, 3)
    with pytest.raises(ValueError):
        ScrollSpec(-1, 0, 2)
    assert ScrollSpec(1, 1, 1).r == 6
    assert ScrollSpec(0, 1, 2).degree == 3
    with pytest.raises(ValueError):
        DivisorClass(3, 0)


def test_parametric_invariants_reference_values():
    # S(7,7,7): r = 24, divisor 4H - 24F gives (9, 20)
    assert scroll_surface_invariants(ScrollSpec(7, 7, 7),
                                     DivisorClass(4, -24)) == (9, 20)
    # S(1,2,2): r = 8, divisor 4H - 4F gives (5, 8)
    assert scroll_surface_invariants(ScrollSpec(1, 2, 2),
                                     DivisorClass(4, -4)) == (5, 8)
    # S(1,1,1): r = 6, divisor 4H + 0F gives (9, 20) again
    assert scroll_surface_invariants(ScrollSpec(1, 1, 1),
                                     DivisorClass(4, 0)) == (9, 20)


def test_line_coefficients():
    assert line_for_m(4) == (6, 2, -7)
    assert line_for_m(5) == (12, 3, -16)
    assert line_for_m(6) == (18, 4, -27)
    with pytest.raises(ValueError):
        line_for_m(3)


def test_on_line_examples():
    assert on_line(4, (9, 20))
    assert on_line(5, (9, 20))      # the two smallest lines meet there
    assert on_line(4, (5, 8))
    assert not on_line(4, (9, 21))
    assert on_line(11, (135, 608))
    assert on_line(13, (264, 1280))


def test_seven_pairs_give_single_line_hit():
    hits = scroll_line_hits(_invariant_points())
    assert hits == [((5, 8), 4)]


def test_line_hits_empty_input_rejected():
    with pytest.raises(ValueError):
        scroll_line_hits([])


def test_line_hits_multiple_memberships_reported():
    hits = scroll_line_hits([(9, 20)])
    assert ((9, 20), 4) in hits and ((9, 20), 5) in hits


# The one documented exception to the inequality route: these data put a
# smooth canonically embedded surface with (p_g, c1sq) = (5, 8) on the
# m = 4 line even though scroll_admissible returns False for them.
SPECIAL_M4_CASE = (ScrollSpec(1, 2, 2), DivisorClass(4, -4))


def test_special_m4_case_realizes_but_fails_inequalities():
    spec, cls = SPECIAL_M4_CASE
    assert scroll_surface_invariants(spec, cls) == (5, 8)
    # the sufficient inequalities fail, so this realization needs the
    # separate argument; admissibility correctly reports False
    assert not scroll_admissible(spec, cls)


def test_admissible_examples():
    assert scroll_admissible(ScrollSpec(1, 1, 1), DivisorClass(4, 0))
    assert scroll_admissible(ScrollSpec(1, 1, 1), DivisorClass(11, -7))
    assert not scroll_admissible(ScrollSpec(1, 1, 1), DivisorClass(7, -7))
    assert not scroll_admissible(ScrollSpec(0, 1, 2), DivisorClass(4, 0))


scroll_specs = st.tuples(st.integers(0, 5), st.integers(0, 5),
                         st.integers(0, 5)).map(
    lambda t: ScrollSpec(*sorted(t)))
divisors = st.tuples(st.integers(4, 14), st.integers(-20, 20)).map(
    lambda t: DivisorClass(*t))


@given(scroll_specs, divisors)
def test_every_scroll_surface_lands_on_its_line(spec, cls):
    point = scroll_surface_invariants(spec, cls)
    assert on_line(cls.m, point)


@given(scroll_specs, divisors)
def test_parametric_formulas_from_first_principles(spec, cls):
    # recompute with the raw closed forms, unreduced
    m, l, r = cls.m, cls.l, spec.r
    total = r * m + 3 * l
    pg6 = (m - 2) * (m - 1) * total - 3 * (m - 2) * (m - 1) * (m + 1)
    assert pg6 % 6 == 0
    y = (m - 3) * (m - 1) * total - m * (m - 3) * (3 * m + 1)
    assert scroll_surface_invariants(spec, cls) == (pg6 // 6, y)
