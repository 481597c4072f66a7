from __future__ import annotations

import copy
import pickle
from fractions import Fraction
from math import ceil, floor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cangeo.classify import (
    BlowupPair,
    DeformationClass,
    TriState,
    _ratio_text,
    alpha_surjective,
    classify,
    deformation_class,
    ext1_nonzero,
    smooth_cover_exists,
    very_ample,
    zone_rule,
    zones,
)
from cangeo.fatpoints import FatPointSystem, PointConfiguration
from cangeo.invariants import ModuliDims, SurfaceInvariants
from cangeo.scrolls import DivisorClass, ScrollSpec

Y, N, U = TriState.YES, TriState.NO, TriState.UNKNOWN

# The seven pairs whose covers deform to birational canonical morphisms and
# the two where the question is open.  The library reads the class off the
# cover and Ext verdicts; the reference below reads it off these lists.
DEGREE1_PAIRS = frozenset(
    {(3, 5), (3, 6), (4, 8), (4, 9), (4, 10), (5, 13), (5, 14)})
OPEN_PAIRS = frozenset({(5, 12), (6, 17)})


# ---------------------------------------------------------------------------
# independent reference: the zone bounds as exact rationals, one function
# per verdict, with the d = 2, 3, 4 cases spelled out
# ---------------------------------------------------------------------------

def _half(n: int) -> Fraction:
    return Fraction(n, 2)


def _ref_very_ample(pair: BlowupPair) -> TriState:
    d, s = pair.d, pair.s
    if d == 2:
        ok = s == 1
    elif d == 3:
        ok = s <= 6
    elif d == 4:
        ok = s <= 10
    else:
        ok = s <= _half(d * d) + Fraction(3, 2) * d - 5
    return TriState.YES if ok else TriState.NO


def _ref_smooth_cover_exists(pair: BlowupPair) -> TriState:
    d, s = pair.d, pair.s
    if d == 2:
        return TriState.YES if s == 1 else TriState.NO
    if d == 3:
        return TriState.YES if s <= 6 else TriState.NO
    if d == 4:
        return TriState.YES if s <= 10 else TriState.NO
    necessary = Fraction(d * d, 5) + Fraction(3, 2) * d + Fraction(14, 5)
    if d == 5:
        if s <= 14:
            return TriState.YES
        return TriState.NO if s >= necessary else TriState.UNKNOWN
    sufficient = Fraction(d * d, 5) + Fraction(13, 10) * d + Fraction(21, 10)
    if s <= sufficient:
        return TriState.YES
    if s >= necessary:
        return TriState.NO
    return TriState.UNKNOWN


def _ref_alpha_surjective(pair: BlowupPair) -> TriState:
    d, s = pair.d, pair.s
    if d == 2:
        return TriState.YES if (s == 1 or s >= 6) else TriState.NO
    if d == 3:
        return TriState.YES if (s <= 4 or s >= 10) else TriState.NO
    if d == 4:
        return TriState.YES if (s <= 7 or s >= 15) else TriState.NO
    low_yes = _half(d * d) - _half(d) + 1     # integer for every d
    no_from = _half(d * d) - _half(1)         # half-integer for even d
    no_to = _half(d * d) + Fraction(3, 2) * d + 1
    if s <= low_yes or s >= no_to:
        return TriState.YES
    if no_from < s < no_to:
        return TriState.NO
    return TriState.UNKNOWN


def _ref_ext1_nonzero(pair: BlowupPair) -> TriState:
    d, s = pair.d, pair.s
    if d == 2:
        return TriState.YES if s >= 2 else TriState.NO
    if d == 3:
        return TriState.YES if s >= 5 else TriState.NO
    if d == 4:
        return TriState.YES if s >= 8 else TriState.NO
    low_no = _half(d * d) - _half(d) + 1
    yes_from = _half(d * d) - _half(1)
    if s <= low_no:
        return TriState.NO
    if s > yes_from:
        return TriState.YES
    return TriState.UNKNOWN


def _ref_degree2_zone(pair: BlowupPair) -> bool:
    d, s = pair.d, pair.s
    if d == 2:
        return s == 1
    if 3 <= d <= 6:
        return s <= _half(d * d) - _half(d) + 1
    return s <= Fraction(2 * d * d + 13 * d + 21, 10)


def _ref_deformation_class(pair: BlowupPair) -> DeformationClass:
    if _ref_smooth_cover_exists(pair) is not TriState.YES:
        return DeformationClass.NOT_APPLICABLE
    key = (pair.d, pair.s)
    if key in DEGREE1_PAIRS:
        return DeformationClass.DEGREE1
    if key in OPEN_PAIRS:
        return DeformationClass.OPEN_QUESTION
    if _ref_degree2_zone(pair):
        return DeformationClass.DEGREE2_ALWAYS
    raise AssertionError(
        f"pair {key} has a smooth cover but no deformation class; "
        "this is a bug in the zone arithmetic")


def _ref_zone_rule(pair: BlowupPair) -> str:
    d = pair.d
    cls = _ref_deformation_class(pair)
    if cls is DeformationClass.DEGREE1:
        return "listed degree-1 pair"
    if cls is DeformationClass.OPEN_QUESTION:
        return "open case"
    if cls is DeformationClass.NOT_APPLICABLE:
        if _ref_smooth_cover_exists(pair) is TriState.UNKNOWN:
            return "smooth cover existence open"
        if _ref_very_ample(pair) is TriState.NO:
            return "not very ample"
        return "no smooth cover"
    if d == 2:
        return "d=2 rigid cover (s=1)"
    if 3 <= d <= 6:
        return f"rigid cover zone s <= (d^2-d+2)/2 = {(d * d - d + 2) // 2}"
    return f"rigid cover zone s <= (2d^2+13d+21)/10 = {Fraction(2 * d * d + 13 * d + 21, 10)}"


_CHECKED = [
    (very_ample, _ref_very_ample),
    (smooth_cover_exists, _ref_smooth_cover_exists),
    (alpha_surjective, _ref_alpha_surjective),
    (ext1_nonzero, _ref_ext1_nonzero),
    (deformation_class, _ref_deformation_class),
    (zone_rule, _ref_zone_rule),
]


def _assert_matches_reference(d: int, s: int) -> None:
    pair = BlowupPair(d, s)
    for fn, ref in _CHECKED:
        assert fn(pair) == ref(pair), (fn.__name__, d, s)


def _ref_bounds(d: int) -> list[Fraction]:
    """Every rational bound the reference compares s against, for d >= 5."""
    return [
        _half(d * d) + Fraction(3, 2) * d - 5,
        Fraction(d * d, 5) + Fraction(3, 2) * d + Fraction(14, 5),
        Fraction(d * d, 5) + Fraction(13, 10) * d + Fraction(21, 10),
        _half(d * d) - _half(d) + 1,
        _half(d * d) - _half(1),
        _half(d * d) + Fraction(3, 2) * d + 1,
        Fraction(2 * d * d + 13 * d + 21, 10),
    ]


def test_zones_match_the_rational_reference_on_every_pair_to_d40():
    for d in range(2, 41):
        for s in range(1, 2 * d * d + 11):
            _assert_matches_reference(d, s)


def test_zones_match_the_rational_reference_at_every_bound_to_d200():
    for d in range(41, 201):
        around = {1}
        for t in _ref_bounds(d):
            around.update(range(floor(t) - 1, ceil(t) + 2))
        for s in sorted(around):
            _assert_matches_reference(d, s)


def test_geography_range_equals_the_probe():
    # cli.cmd_geography emits s = 1..cover_yes_max; the old code probed s
    # upwards until the smooth cover verdict stopped being yes
    for d in range(2, 201):
        s = 1
        while _ref_smooth_cover_exists(BlowupPair(d, s)) is TriState.YES:
            s += 1
        assert zones(d).cover_yes_max == s - 1, d


def test_zones_are_kept_per_d_in_a_bounded_memo():
    # a table reads zones(d) several times a row; d itself is unbounded
    assert zones(50) is zones(50)
    assert zones(50) == zones.__wrapped__(50)
    assert zones.cache_info().maxsize is not None


def test_pair_validation():
    with pytest.raises(ValueError):
        BlowupPair(1, 1)
    with pytest.raises(ValueError):
        BlowupPair(3, 0)
    BlowupPair(2, 1)
    assert BlowupPair(4, 9)._replace(s=10) == BlowupPair(4, 10)


# Each checked record: fields that pass, fields that fail with the message,
# and the repr of the passing ones.
CHECKED_RECORDS = [
    (BlowupPair, (4, 9), (1, 9), "d must be at least 2",
     "BlowupPair(d=4, s=9)"),
    (FatPointSystem, (4, 2, 5), (4, 0, 5), "multiplicity must be positive",
     "FatPointSystem(degree=4, multiplicity=2, point_count=5)"),
    (PointConfiguration, (((0, 0), (1, 2)),), (((0, 0), (0, 0)),),
     "pairwise distinct", "PointConfiguration(points=((0, 0), (1, 2)))"),
    (SurfaceInvariants, (5, 0, 6, 10, 62), (5, 0, 6, 10, 61), "Noether",
     "SurfaceInvariants(p_g=5, q=0, chi=6, c1sq=10, c2=62)"),
    (ModuliDims, (10, 7, 3), (10, 7, 2), "codim must be mu - mu2",
     "ModuliDims(mu=10, mu2=7, codim=3)"),
    (ScrollSpec, (1, 2, 2), (2, 1, 2), "need 0 <= a <= b <= c",
     "ScrollSpec(a=1, b=2, c=2)"),
    (DivisorClass, (4, -4), (3, -4), "m must be at least 4",
     "DivisorClass(m=4, l=-4)"),
]


@pytest.mark.parametrize("cls, good, bad, message, text", CHECKED_RECORDS,
                         ids=[row[0].__name__ for row in CHECKED_RECORDS])
def test_records_are_immutable_named_tuples(cls, good, bad, message, text):
    rec = cls(*good)
    assert rec == cls(**dict(zip(cls._fields, good))) == good
    assert hash(rec) == hash(good) and type(rec) is cls
    assert repr(rec) == text
    assert rec._asdict() == dict(zip(cls._fields, good))
    assert not hasattr(rec, "__dict__")
    with pytest.raises(AttributeError):
        setattr(rec, cls._fields[0], bad[0])
    for same in (cls._make(good), rec._replace(), copy.copy(rec),
                 pickle.loads(pickle.dumps(rec))):
        assert same == rec and type(same) is cls
    # every way to build a record checks its fields as the constructor does
    changed = {f: b for f, g, b in zip(cls._fields, good, bad) if g != b}
    unchecked = tuple.__new__(cls, bad)
    for build in (lambda: cls(*bad), lambda: cls(**dict(zip(cls._fields, bad))),
                  lambda: cls._make(bad), lambda: rec._replace(**changed),
                  lambda: copy.copy(unchecked),
                  lambda: pickle.loads(pickle.dumps(unchecked))):
        with pytest.raises(ValueError, match=message):
            build()


def test_a_classification_record_holds_its_pair():
    pair = BlowupPair(4, 9)
    rec = classify(pair)
    assert rec.pair is pair and rec._asdict()["deformation"] is rec.deformation


# --- very ampleness -------------------------------------------------------

@pytest.mark.parametrize("d,s,want", [
    (2, 1, Y), (2, 2, N),
    (3, 6, Y), (3, 7, N),
    (4, 10, Y), (4, 11, N),
    (5, 15, Y), (5, 16, N),   # bound (25+15-10)/2 = 15
    (6, 22, Y), (6, 23, N),   # (36+18-10)/2 = 22
    (10, 60, Y), (10, 61, N),
])
def test_very_ample_boundaries(d, s, want):
    assert very_ample(BlowupPair(d, s)) is want


# --- smooth cover existence ----------------------------------------------

@pytest.mark.parametrize("d,s,want", [
    (2, 1, Y), (2, 2, N),
    (3, 6, Y), (3, 7, N),
    (4, 10, Y), (4, 11, N),
    (5, 14, Y), (5, 15, U), (5, 16, N),
    (6, 17, Y), (6, 18, U), (6, 19, N),
    (7, 21, Y), (7, 22, U), (7, 23, U), (7, 24, N),
    (11, 40, Y), (11, 41, U), (11, 43, U), (11, 44, N),
])
def test_smooth_cover_boundaries(d, s, want):
    assert smooth_cover_exists(BlowupPair(d, s)) is want


# --- alpha and ext1 -------------------------------------------------------

@pytest.mark.parametrize("d,s,want", [
    (2, 1, Y), (2, 2, N), (2, 5, N), (2, 6, Y),
    (3, 4, Y), (3, 5, N), (3, 9, N), (3, 10, Y),
    (4, 7, Y), (4, 8, N), (4, 14, N), (4, 15, Y),
    (5, 11, Y), (5, 12, U), (5, 13, N), (5, 20, N), (5, 21, Y),
    (6, 16, Y), (6, 17, U), (6, 18, N), (6, 27, N), (6, 28, Y),
    (7, 22, Y), (7, 23, U), (7, 24, U), (7, 25, N), (7, 35, N), (7, 36, Y),
])
def test_alpha_surjective_boundaries(d, s, want):
    assert alpha_surjective(BlowupPair(d, s)) is want


def test_ext1_mirrors_alpha_on_very_ample_pairs():
    # The Ext group is the cokernel of the multiplication map only where
    # the embedding exists, so the mirror property is asserted exactly
    # there.  Outside the very ample zone the two verdicts are unrelated
    # (for large s the map is surjective again while the Ext group stays
    # nonzero).
    for d in range(2, 40):
        for s in range(1, 3 * d * d):
            pair = BlowupPair(d, s)
            if very_ample(pair) is not Y:
                continue
            a, e = alpha_surjective(pair), ext1_nonzero(pair)
            assert (a is U) == (e is U), (d, s)
            if a is not U:
                assert (e is Y) == (a is N), (d, s)


def test_ext1_is_monotone_in_s():
    # adding base points can only create Ext classes, never destroy them
    order = {N: 0, U: 1, Y: 2}
    for d in range(2, 25):
        prev = 0
        for s in range(1, 2 * d * d):
            cur = order[ext1_nonzero(BlowupPair(d, s))]
            assert cur >= prev, (d, s)
            prev = cur


# --- deformation class ----------------------------------------------------

def _pairs_of_class(cls: DeformationClass) -> frozenset:
    """Every pair with d 2..6 and s <= cover_no_min whose class is cls."""
    return frozenset((d, s) for d in range(2, 7)
                     for s in range(1, zones(d).cover_no_min + 1)
                     if deformation_class(BlowupPair(d, s)) is cls)


def test_degree1_list():
    assert _pairs_of_class(DeformationClass.DEGREE1) == DEGREE1_PAIRS


def test_open_pairs():
    assert _pairs_of_class(DeformationClass.OPEN_QUESTION) == OPEN_PAIRS


def test_no_degree1_or_open_pair_past_d6():
    # (d^2-d+2)/2 - (2d^2+13d+21)/10 = (3d^2-18d-11)/10 >= 0 for d >= 7, so
    # every smooth cover has zero Ext and its class is DEGREE2_ALWAYS
    for d in range(7, 10**5 + 1):
        z = zones.__wrapped__(d)
        assert z.cover_yes_max <= z.alpha_yes_max, d


@pytest.mark.parametrize("d,s,want", [
    (2, 1, DeformationClass.DEGREE2_ALWAYS),
    (3, 4, DeformationClass.DEGREE2_ALWAYS),
    (4, 7, DeformationClass.DEGREE2_ALWAYS),
    (5, 11, DeformationClass.DEGREE2_ALWAYS),
    (6, 16, DeformationClass.DEGREE2_ALWAYS),
    (7, 21, DeformationClass.DEGREE2_ALWAYS),
    (8, 25, DeformationClass.DEGREE2_ALWAYS),
    (2, 2, DeformationClass.NOT_APPLICABLE),
    (3, 7, DeformationClass.NOT_APPLICABLE),
    (5, 15, DeformationClass.NOT_APPLICABLE),   # cover existence open
    (6, 18, DeformationClass.NOT_APPLICABLE),
])
def test_deformation_class_samples(d, s, want):
    assert deformation_class(BlowupPair(d, s)) is want


def test_degree2_zone_boundary_large_d():
    # (2d^2+13d+21)/10 at d=9 is exactly 30
    assert deformation_class(BlowupPair(9, 30)) is DeformationClass.DEGREE2_ALWAYS
    assert deformation_class(BlowupPair(9, 31)) is not DeformationClass.DEGREE2_ALWAYS


@given(st.integers(2, 80), st.integers(1, 500))
def test_every_pair_lands_in_exactly_one_class(d, s):
    pair = BlowupPair(d, s)
    cls = deformation_class(pair)
    assert isinstance(cls, DeformationClass)
    if cls is DeformationClass.NOT_APPLICABLE:
        assert smooth_cover_exists(pair) is not Y
    else:
        assert smooth_cover_exists(pair) is Y
        assert cls is {Y: DeformationClass.DEGREE1,
                       U: DeformationClass.OPEN_QUESTION,
                       N: DeformationClass.DEGREE2_ALWAYS}[ext1_nonzero(pair)]


@given(st.integers(2, 60), st.integers(1, 400))
def test_record_is_internally_consistent(d, s):
    rec = classify(BlowupPair(d, s))
    if rec.deformation is DeformationClass.DEGREE1:
        assert rec.ext1_nonzero is Y
        assert rec.smooth_cover is Y
    if rec.deformation is DeformationClass.DEGREE2_ALWAYS:
        assert rec.ext1_nonzero is N
        assert rec.smooth_cover is Y
    # a very ample system always gives a smooth cover candidate
    if rec.very_ample is Y and d <= 4:
        assert rec.smooth_cover is Y


def test_zone_rule_strings_are_distinct_and_nonempty():
    seen = {}
    for d, s in [(2, 1), (2, 2), (3, 5), (3, 4), (5, 12), (5, 15), (5, 16),
                 (7, 3), (9, 30)]:
        rule = zone_rule(BlowupPair(d, s))
        assert rule and isinstance(rule, str)
        seen[(d, s)] = rule
    assert seen[(3, 5)] == "listed degree-1 pair"
    assert seen[(5, 12)] == "open case"
    assert seen[(5, 15)] == "smooth cover existence open"
    assert seen[(2, 2)] == "not very ample"
    assert seen[(2, 1)] != seen[(3, 4)] != seen[(7, 3)]
    assert "21" in seen[(7, 3)]


def test_ratio_text_is_the_text_of_the_fraction():
    # slope cells and the rigid-zone rule text are written without Fraction
    for num in range(-60, 61):
        for den in range(-15, 16):
            if den:
                assert _ratio_text(num, den) == str(Fraction(num, den)), (num, den)
    with pytest.raises(ZeroDivisionError):
        _ratio_text(3, 0)
