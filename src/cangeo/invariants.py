"""Closed-form invariants of the double cover, and moduli dimensions.

All integer formulas.  The Euler number c2 is derived from Noether's
formula 12*chi = c1^2 + c2 instead of being stored separately; the tests
check the derived value against an independent expression, so the formula
acts as a self check rather than a tautology.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .classify import (BlowupPair, DeformationClass, TriState, _checked, deformation_class,
                       smooth_cover_exists)

if TYPE_CHECKING:
    from fractions import Fraction


@_checked
class SurfaceInvariants(NamedTuple):
    p_g: int
    q: int
    chi: int
    c1sq: int
    c2: int

    def _check(self):
        if 12 * self.chi != self.c1sq + self.c2:
            raise ValueError("Noether's formula violated")
        if self.chi != self.p_g - self.q + 1:
            raise ValueError("chi must equal p_g - q + 1")

    @property
    def slope(self) -> Fraction:
        """The ratio c1^2 / c2 as an exact rational."""
        from fractions import Fraction
        return Fraction(self.c1sq, self.c2)


@_checked
class ModuliDims(NamedTuple):
    mu: int    # dimension of the moduli component
    mu2: int   # dimension of its degree-2-canonical-map stratum
    codim: int

    def _check(self):
        if not (self.mu >= self.mu2 >= 0):
            raise ValueError("need mu >= mu2 >= 0")
        if self.codim != self.mu - self.mu2:
            raise ValueError("codim must be mu - mu2")


def cover_invariants(pair: BlowupPair) -> SurfaceInvariants:
    """Numerical invariants of the canonical double cover for (d, s)."""
    if smooth_cover_exists(pair) is not TriState.YES:
        raise ValueError(f"no smooth cover for {pair}")
    d, s = pair.d, pair.s
    p_g = d * (d + 3) // 2 - s + 1
    chi = p_g + 1
    c1sq = 2 * d * d - 2 * s
    c2 = 12 * chi - c1sq
    return SurfaceInvariants(p_g=p_g, q=0, chi=chi, c1sq=c1sq, c2=c2)


def moduli_dims_degree1(pair: BlowupPair) -> ModuliDims:
    """Component dimension and degree-2 stratum dimension, degree-1 pairs."""
    if deformation_class(pair) is not DeformationClass.DEGREE1:
        raise ValueError(f"{pair} is not a degree-1 pair")
    d, s = pair.d, pair.s
    mu2 = h0_normal_of_cover(pair) - chi_tangent_blowup(s)
    codim = 2 * s + 1 - d * d     # the cokernel of alpha
    return ModuliDims(mu=mu2 + codim, mu2=mu2, codim=codim)


def moduli_dim_degree2(pair: BlowupPair) -> int:
    """Moduli component dimension in the rigid degree-2 zone."""
    if deformation_class(pair) is not DeformationClass.DEGREE2_ALWAYS:
        raise ValueError(f"{pair} is not in the rigid degree-2 zone")
    return h0_normal_of_cover(pair) - chi_tangent_blowup(pair.s)


def h0_normal_of_cover(pair: BlowupPair) -> int:
    """Sections of the normal sheaf of the covering map.

    Equals the fat-point count h0(degree 2d+6, multiplicity 4, s points)
    minus one; the oracle cross checks this identity in the tests.
    """
    if smooth_cover_exists(pair) is not TriState.YES:
        raise ValueError(f"no smooth cover for {pair}")
    d, s = pair.d, pair.s
    return 2 * d * d + 15 * d + 27 - 10 * s


def chi_tangent_blowup(s: int) -> int:
    """Euler characteristic of the tangent sheaf of the blown up plane.

    s = 0 is allowed and gives the plane itself.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    return 8 - 2 * s
