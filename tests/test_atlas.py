"""Enumeration of two-component invariant pairs and the geography data."""

from __future__ import annotations

from fractions import Fraction
from math import ceil, isqrt

import pytest

from cangeo.atlas import (
    ScrollWitness,
    find_witness,
    geography_lines,
    s_for_degree,
    scroll_class_total,
    two_component_points,
)
from cangeo.classify import BlowupPair, TriState, smooth_cover_exists
from cangeo.invariants import cover_invariants
from cangeo.scrolls import DivisorClass, ScrollSpec, on_line, scroll_surface_invariants

# Reference: residues of d (mod the listed modulus) for which the
# arithmetic chain closes: s integral and the scroll class quantity
# r*m + 3*l integral.
CONGRUENCES: dict[int, tuple[int, frozenset[int]]] = {
    5: (4, frozenset({1, 2})),
    6: (25, frozenset({0, 3})),
    7: (7, frozenset({4, 6})),
    8: (21, frozenset({5, 19})),
    9: (88, frozenset({6, 30, 61, 85})),
    10: (39, frozenset({7, 20, 22, 35})),
}


def congruence_ok(m: int, d: int) -> bool:
    if m not in CONGRUENCES:
        raise ValueError("congruence table covers 5 <= m <= 10 only")
    modulus, residues = CONGRUENCES[m]
    return d % modulus in residues


def test_s_for_degree_reference_values():
    assert s_for_degree(11, 20) == 96
    assert s_for_degree(13, 29) == 201
    assert s_for_degree(4, 7) == 3
    assert s_for_degree(5, 5) == 9
    assert s_for_degree(10, 9) == 11
    # fractional value means no cover of that degree on the line
    assert s_for_degree(6, 1).denominator != 1


def test_s_for_degree_equals_the_three_term_sum():
    for m in range(4, 31):
        den = 2 * (2 * m - 7)
        for d in range(1, 501):
            want = (Fraction((m - 5) * d * d, den)
                    + Fraction(9 * (m - 3) * d, den)
                    - Fraction((m - 3) ** 2 * (m + 4), den))
            got = s_for_degree(m, d)
            assert type(got) is Fraction and got == want, (m, d)


def test_s_for_degree_validation():
    with pytest.raises(ValueError):
        s_for_degree(3, 5)
    with pytest.raises(ValueError):
        s_for_degree(5, 0)


def test_congruence_table_against_direct_arithmetic():
    # the residue classes must coincide exactly with "s integral and the
    # scroll class quantity integral", checked degree by degree
    for m in range(5, 11):
        for d in range(1, 401):
            s = s_for_degree(m, d)
            direct = False
            if s.denominator == 1:
                x_prime = d * (d + 3) // 2 - int(s) + 1
                direct = scroll_class_total(m, x_prime).denominator == 1
            assert congruence_ok(m, d) == direct, (m, d)


def test_congruence_outside_table():
    with pytest.raises(ValueError):
        congruence_ok(4, 10)
    with pytest.raises(ValueError):
        congruence_ok(11, 10)


def test_find_witness_basic():
    assert find_witness(4, 24) == ScrollWitness(r=6, l=0, a=1, b=1, c=1)
    assert find_witness(11, 45) == ScrollWitness(r=6, l=-7, a=1, b=1, c=1)
    # total 28 on the m=7 line admits no scroll: the only residue match
    # forces l = -7 and then m*a + l = 0
    assert find_witness(7, 28) is None


def test_witness_search_r_range_is_exhaustive():
    # slack at the maximal balanced partition depends on r only through
    # r mod 3, so r in {6,7,8} decides existence; spot check larger r
    # never succeeds where the small ones failed
    for m, total in [(7, 28), (10, 44)]:
        assert find_witness(m, total) is None
        for r in range(9, 30):
            if (total - r * m) % 3:
                continue
            l = (total - r * m) // 3
            for a in range(1, (r - 3) // 3 + 1):
                spec = ScrollSpec(a, a, r - 3 - 2 * a)
                from cangeo.scrolls import scroll_admissible
                assert not scroll_admissible(spec, DivisorClass(m, l)), (m, r, a)


M4_POINTS = {(9, 20): (4, 6), (15, 38): (5, 6), (23, 62): (6, 5), (33, 92): (7, 3)}


def test_enumeration_m4():
    result = two_component_points(4, 10)
    assert {(p.x_prime, p.y): (p.d, p.s) for p in result.points} == M4_POINTS
    assert result.unwitnessed == ()
    for p in result.points:
        spec = ScrollSpec(p.scroll_witness.a, p.scroll_witness.b, p.scroll_witness.c)
        cls = DivisorClass(4, p.scroll_witness.l)
        assert scroll_surface_invariants(spec, cls) == (p.x_prime, p.y)


def test_enumeration_m4_is_complete():
    # the degree quadratic opens downward for m = 4, so the list is finite
    assert len(two_component_points(4, 200).points) == 4


def test_enumeration_m11_and_m13():
    r11 = two_component_points(11, 40)
    assert [(p.x_prime, p.y, p.d, p.s) for p in r11.points] == [(135, 608, 20, 96)]
    assert r11.points[0].scroll_witness == ScrollWitness(r=6, l=-7, a=1, b=1, c=1)
    r13 = two_component_points(13, 40)
    assert [(p.x_prime, p.y, p.d, p.s) for p in r13.points] == [(264, 1280, 29, 201)]


@pytest.mark.parametrize("m", [12, 14, 15, 16, 17])
def test_enumeration_empty_lines(m):
    assert two_component_points(m, 100).points == ()


def test_unwitnessed_candidates_are_reported_not_dropped():
    r7 = two_component_points(7, 10)
    assert [(u.d, u.s, u.x_prime, u.y) for u in r7.unwitnessed] == [(6, 8, 20, 56)]
    assert r7.unwitnessed[0].reason == "no admissible scroll"
    r10 = two_component_points(10, 20)
    reasons = {(u.d, u.s): u.reason for u in r10.unwitnessed}
    assert reasons[(20, 99)] == "no admissible scroll"
    assert reasons[(9, 11)] == "r*m+3*l is not an integer"


def test_points_lie_on_their_line_and_in_the_rigid_zone():
    for m in (4, 5, 7, 9):
        for p in two_component_points(m, 60).points:
            assert on_line(m, (p.x_prime, p.y))
            inv = cover_invariants(BlowupPair(p.d, p.s))
            assert (inv.p_g, inv.c1sq) == (p.x_prime, p.y)


@pytest.mark.parametrize("m", [5, 6, 7, 8, 9, 10])
def test_enumeration_grows_with_the_window(m):
    small = two_component_points(m, 30)
    big = two_component_points(m, 200)
    assert len(big.points) > len(small.points)
    assert [p.d for p in big.points][:len(small.points)] == [p.d for p in small.points]


def test_enumeration_validation():
    with pytest.raises(ValueError):
        two_component_points(3, 50)
    with pytest.raises(ValueError):
        two_component_points(5, 1)


# --- geography ------------------------------------------------------------

# Independent reference for the realized intervals: a literal table for
# small d, where the degree-1 pairs extend the rigid zone downwards, and two
# conics A*x^2 + B*x*y + C*y^2 + D*x + E*y = 0 whose arcs cut out, on each
# line for d >= 7, the s = 1 endpoint (upper) and the maximal-s endpoint
# (lower).
INTERVALS = {2: (6, 6), 3: (5, 10), 4: (6, 15), 5: (8, 21), 6: (13, 28)}
UPPER_ENDPOINT_CONIC = (16, -8, 1, -48, -6)
LOWER_ENDPOINT_CONIC = (256, -96, 9, -638, 44)


def _line_conic_roots(conic, intercept):
    """Both x values where the conic meets y = 2*x + intercept, exactly."""
    A, B, C, D, E = conic
    c0 = intercept
    # substitute y = 2x + c0 and collect the quadratic in x
    qa = A + 2 * B + 4 * C
    qb = B * c0 + 4 * C * c0 + D + 2 * E
    qc = C * c0 * c0 + E * c0
    disc = qb * qb - 4 * qa * qc
    root = isqrt(disc)
    assert root * root == disc, f"discriminant {disc} is not a perfect square"
    return (Fraction(-qb - root, 2 * qa), Fraction(-qb + root, 2 * qa))


def _reference_interval(d):
    if d in INTERVALS:
        return INTERVALS[d]
    intercept = d * d - 3 * d - 4
    hi = max(_line_conic_roots(UPPER_ENDPOINT_CONIC, intercept))
    lo = max(_line_conic_roots(LOWER_ENDPOINT_CONIC, intercept))
    assert hi.denominator == 1, d
    return ceil(lo), int(hi)


def test_geography_endpoints_match_the_conic_reference():
    lines = geography_lines(range(2, 3001))
    assert [line.d for line in lines] == list(range(2, 3001))
    for line in lines:
        assert (line.x_min, line.x_max) == _reference_interval(line.d), line.d


def test_geography_small_d_intervals():
    for line in geography_lines(range(2, 7)):
        assert (line.x_min, line.x_max) == INTERVALS[line.d]
        assert line.intercept == line.d ** 2 - 3 * line.d - 4


def test_geography_d7_interval_from_conics():
    line = geography_lines([7])[0]
    assert (line.x_min, line.x_max) == (16, 36)


def test_geography_conic_endpoints_match_direct_scan():
    for d in range(7, 41):
        line = geography_lines([d])[0]
        chis = []
        s = 1
        while smooth_cover_exists(BlowupPair(d, s)) is TriState.YES:
            chis.append(cover_invariants(BlowupPair(d, s)).chi)
            s += 1
        assert (min(chis), max(chis)) == (line.x_min, line.x_max), d
        # every integer chi in between is realized
        assert sorted(chis) == list(range(line.x_min, line.x_max + 1)), d


def test_geography_points_sit_on_the_chi_line():
    for d in range(2, 12):
        intercept = d * d - 3 * d - 4
        s = 1
        while smooth_cover_exists(BlowupPair(d, s)) is TriState.YES:
            inv = cover_invariants(BlowupPair(d, s))
            assert inv.c1sq == 2 * inv.chi + intercept
            s += 1


def test_geography_sorted_and_validated():
    lines = geography_lines([5, 3, 9])
    assert [line.d for line in lines] == [3, 5, 9]
    with pytest.raises(ValueError):
        geography_lines([1])


def test_scroll_class_total_values():
    assert scroll_class_total(4, 9) == 24
    assert scroll_class_total(11, 135) == 45
    assert scroll_class_total(13, 264) == 54
    assert scroll_class_total(10, 44) == Fraction(11, 3) + 33
