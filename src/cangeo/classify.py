"""Case analysis for pairs (d, s): embedding line bundle d*L - E_1 - ... - E_s.

Pure integer arithmetic.  Several zone boundaries land exactly on
half-integers, where an off-by-one flips a verdict, so every boundary is
stated once, in `zones(d)`, as an integer threshold in s with its
denominator cleared; the verdicts only compare s against that record.

Verdicts are three valued.  "Unknown" is reserved for the gaps where
neither the sufficient nor the necessary bound applies; those gaps are
genuinely open and the code does not pretend otherwise.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache, wraps
from math import gcd
from typing import NamedTuple


class TriState(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class DeformationClass(Enum):
    """How the canonical morphism of a general deformation behaves.

    DEGREE1: the double cover deforms to a surface whose canonical map is
    birational onto its image.  DEGREE2_ALWAYS: every small deformation
    keeps a degree 2 canonical morphism.  OPEN_QUESTION: not settled.
    NOT_APPLICABLE: there is no smooth canonical double cover to deform.

    The class is read off two verdicts: NOT_APPLICABLE unless the smooth
    cover exists, and otherwise DEGREE1, OPEN_QUESTION or DEGREE2_ALWAYS
    as the Ext group is nonzero, unknown or zero.
    """

    DEGREE1 = "degree1"
    DEGREE2_ALWAYS = "degree2_always"
    OPEN_QUESTION = "open_question"
    NOT_APPLICABLE = "not_applicable"


def _checked(cls):
    """Class decorator for a NamedTuple whose `_check(self)` vets its
    fields: the check runs on every construction, by a call, `_make`,
    `_replace` (through `_make`), `copy.copy` or unpickling."""
    new = cls.__new__

    @wraps(new)
    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    cls.__new__ = __new__
    cls._make = classmethod(lambda cls, fields: cls(*fields))
    return cls


@_checked
class BlowupPair(NamedTuple):
    """d >= 2 and s >= 1: degree of the plane model and number of points."""

    d: int
    s: int

    def _check(self):
        if self.d < 2:
            raise ValueError("d must be at least 2")
        if self.s < 1:
            raise ValueError("s must be at least 1")


class Zones(NamedTuple):
    """Integer thresholds in s for one d: every verdict, and through them
    the deformation class, compares s against these fields alone.

    Each comment states the rational bound a field replaces for d >= 5;
    d = 2, 3, 4 come from a literal table.
    """

    ample_max: int      # very ample iff s <= d^2/2 + 3d/2 - 5
    cover_yes_max: int  # smooth cover if s <= d^2/5 + 13d/10 + 21/10; 14 at d = 5
    cover_no_min: int   # no smooth cover if s >= d^2/5 + 3d/2 + 14/5
    alpha_yes_max: int  # alpha onto and Ext zero if s <= d^2/2 - d/2 + 1
    alpha_no_min: int   # alpha not onto and Ext nonzero if s > (d^2 - 1)/2 ...
    alpha_yes_min: int  # ... but alpha onto again if s >= d^2/2 + 3d/2 + 1


_SMALL_D_ZONES = {
    2: Zones(1, 1, 2, 1, 2, 6),
    3: Zones(6, 6, 7, 4, 5, 10),
    4: Zones(10, 10, 11, 7, 8, 15),
}


# Every verdict reads zones(d), and a table asks for the same d row after
# row: the thresholds of the last 1024 values of d are kept.
@lru_cache(maxsize=1024)
def zones(d: int) -> Zones:
    """The zone thresholds for d >= 2, every denominator cleared."""
    if d in _SMALL_D_ZONES:
        return _SMALL_D_ZONES[d]
    dd = d * d
    return Zones(
        ample_max=(dd + 3 * d - 10) // 2,
        cover_yes_max=14 if d == 5 else (2 * dd + 13 * d + 21) // 10,
        cover_no_min=-(-(2 * dd + 15 * d + 28) // 10),   # ceiling
        alpha_yes_max=(dd - d + 2) // 2,
        alpha_no_min=(dd + 1) // 2,
        alpha_yes_min=(dd + 3 * d + 2) // 2,
    )


def s_runs(d: int, s_values: range) -> list[range]:
    """The window `s_values` (step 1) cut into runs of s on which, for this
    d, every verdict below, the deformation class and the rule text stay
    the same, so that every invariant and moduli dimension is affine in s.

    Every verdict compares s against one field t of zones(d), and the
    class and the rule text read only verdicts and those fields, so a run
    starts at t and t+1 for every field.  The cuts know no zone: a surplus
    one only splits a run in two.
    """
    cuts = {s_values.start, s_values.stop}
    for t in zones(d):
        cuts.update((t, t + 1))
    edges = sorted(c for c in cuts if s_values.start <= c <= s_values.stop)
    return [range(a, b) for a, b in zip(edges, edges[1:])]


def _tri(yes: bool, no: bool) -> TriState:
    return TriState.YES if yes else TriState.NO if no else TriState.UNKNOWN


def very_ample(pair: BlowupPair) -> TriState:
    """Is d*L - E very ample on the blown up plane?  Never unknown."""
    return _tri(pair.s <= zones(pair.d).ample_max, True)


def smooth_cover_exists(pair: BlowupPair) -> TriState:
    """Does a smooth canonical double cover branch divisor exist?

    For d <= 4 this is settled either way.  For d = 5 the answer is yes up
    to s = 14 and no from s = 16 on, leaving s = 15 open.  For d >= 6 there
    is a sufficient bound and a necessary bound with a genuine gap between
    them.
    """
    z, s = zones(pair.d), pair.s
    return _tri(s <= z.cover_yes_max, s >= z.cover_no_min)


def alpha_surjective(pair: BlowupPair) -> TriState:
    """Is the multiplication map of sections surjective for (d, s)?

    For d <= 4 the answer is an exact iff.  For d >= 5 there are a yes
    zone, a no zone, and a gap of floor((d - 3) / 2) integers in between
    (1, 1, 2, 2, 3 for d = 5..9) that stays unknown.
    """
    z, s = zones(pair.d), pair.s
    return _tri(s <= z.alpha_yes_max or s >= z.alpha_yes_min,
                s >= z.alpha_no_min)


def ext1_nonzero(pair: BlowupPair) -> TriState:
    """Are there nontrivial ribbon structures, i.e. is the Ext group nonzero?

    Where d*L - E is very ample (s <= zones(d).ample_max) this mirrors
    alpha_surjective with the verdicts flipped, since the Ext group is
    then the cokernel of the multiplication map.  Beyond that the two are
    unrelated: from s = zones(d).alpha_yes_min on both read yes.
    """
    z, s = zones(pair.d), pair.s
    return _tri(s >= z.alpha_no_min, s <= z.alpha_yes_max)


_CLASS_BY_EXT1 = {
    TriState.YES: DeformationClass.DEGREE1,
    TriState.UNKNOWN: DeformationClass.OPEN_QUESTION,
    TriState.NO: DeformationClass.DEGREE2_ALWAYS,
}


def deformation_class(pair: BlowupPair) -> DeformationClass:
    """Which deformation behavior the pair exhibits.

    A pair with no smooth cover (or where that existence is itself open)
    gets NOT_APPLICABLE; otherwise the Ext verdict decides the class.
    """
    if smooth_cover_exists(pair) is not TriState.YES:
        return DeformationClass.NOT_APPLICABLE
    return _CLASS_BY_EXT1[ext1_nonzero(pair)]


class ClassificationRecord(NamedTuple):
    pair: BlowupPair
    very_ample: TriState
    smooth_cover: TriState
    alpha_surjective: TriState
    ext1_nonzero: TriState
    deformation: DeformationClass


def classify(pair: BlowupPair) -> ClassificationRecord:
    """All verdicts for one pair."""
    return ClassificationRecord(
        pair=pair,
        very_ample=very_ample(pair),
        smooth_cover=smooth_cover_exists(pair),
        alpha_surjective=alpha_surjective(pair),
        ext1_nonzero=ext1_nonzero(pair),
        deformation=deformation_class(pair),
    )


def zone_rule(pair: BlowupPair) -> str:
    """Human readable note saying which rule produced the deformation class."""
    d = pair.d
    cls = deformation_class(pair)
    if cls is DeformationClass.DEGREE1:
        return "listed degree-1 pair"
    if cls is DeformationClass.OPEN_QUESTION:
        return "open case"
    if cls is DeformationClass.NOT_APPLICABLE:
        if smooth_cover_exists(pair) is TriState.UNKNOWN:
            return "smooth cover existence open"
        if very_ample(pair) is TriState.NO:
            return "not very ample"
        return "no smooth cover"
    if d == 2:
        return "d=2 rigid cover (s=1)"
    if d <= 6:
        return f"rigid cover zone s <= (d^2-d+2)/2 = {zones(d).alpha_yes_max}"
    return ("rigid cover zone s <= (2d^2+13d+21)/10 = "
            + _ratio_text(2 * d * d + 13 * d + 21, 10))


def _ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) without building the Fraction: "p/q" in
    lowest terms with q > 0, or "p" when q is 1."""
    if den > 0:
        g = gcd(num, den)
    elif den:
        g = -gcd(num, den)
    else:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    return f"{num // g}" if den == g else f"{num // g}/{den // g}"
