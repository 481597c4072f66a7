from __future__ import annotations

from fractions import Fraction

import pytest

from cangeo.classify import BlowupPair, DeformationClass, deformation_class
from cangeo.invariants import (
    ModuliDims,
    SurfaceInvariants,
    chi_tangent_blowup,
    cover_invariants,
    h0_normal_of_cover,
    moduli_dim_degree2,
    moduli_dims_degree1,
)

# (d, s) -> (p_g, q, chi, c1sq, slope)
INVARIANT_TABLE = {
    (3, 6): (4, 0, 5, 6, Fraction(1, 9)),
    (3, 5): (5, 0, 6, 8, Fraction(1, 8)),
    (4, 10): (5, 0, 6, 12, Fraction(1, 5)),
    (4, 9): (6, 0, 7, 14, Fraction(1, 5)),
    (4, 8): (7, 0, 8, 16, Fraction(1, 5)),
    (5, 14): (7, 0, 8, 22, Fraction(11, 37)),
    (5, 13): (8, 0, 9, 24, Fraction(2, 7)),
}

# (d, s) -> (mu, mu2)
MODULI_TABLE = {
    (3, 5): (44, 42),
    (3, 6): (38, 34),
    (4, 8): (48, 47),
    (4, 9): (42, 39),
    (4, 10): (36, 31),
    (5, 13): (42, 40),
    (5, 14): (36, 32),
}


@pytest.mark.parametrize("pair,want", sorted(INVARIANT_TABLE.items()))
def test_invariant_table(pair, want):
    inv = cover_invariants(BlowupPair(*pair))
    assert (inv.p_g, inv.q, inv.chi, inv.c1sq, inv.slope) == want


@pytest.mark.parametrize("pair,want", sorted(MODULI_TABLE.items()))
def test_moduli_table(pair, want):
    dims = moduli_dims_degree1(BlowupPair(*pair))
    assert (dims.mu, dims.mu2) == want
    d, s = pair
    assert dims.codim == 2 * s + 1 - d * d


def test_c2_from_two_independent_routes():
    # c2 comes out of Noether; it must also equal the direct topological
    # count 2*(2d^2 + 9d - 5s + 12)
    for d in range(2, 30):
        for s in range(1, d * d):
            pair = BlowupPair(d, s)
            try:
                inv = cover_invariants(pair)
            except ValueError:
                continue
            assert inv.c2 == 2 * (2 * d * d + 9 * d - 5 * s + 12), (d, s)


def test_noether_validation_is_enforced():
    with pytest.raises(ValueError):
        SurfaceInvariants(p_g=4, q=0, chi=5, c1sq=6, c2=53)
    with pytest.raises(ValueError):
        SurfaceInvariants(p_g=4, q=0, chi=6, c1sq=6, c2=54)
    SurfaceInvariants(p_g=4, q=0, chi=5, c1sq=6, c2=54)


def test_cover_required_for_invariants():
    with pytest.raises(ValueError):
        cover_invariants(BlowupPair(3, 7))
    with pytest.raises(ValueError):
        cover_invariants(BlowupPair(5, 15))


def test_moduli_requires_matching_class():
    with pytest.raises(ValueError):
        moduli_dims_degree1(BlowupPair(3, 4))
    with pytest.raises(ValueError):
        moduli_dim_degree2(BlowupPair(3, 5))


def test_moduli_dims_validation():
    with pytest.raises(ValueError):
        ModuliDims(mu=3, mu2=4, codim=-1)
    with pytest.raises(ValueError):
        ModuliDims(mu=4, mu2=3, codim=2)


def test_degree2_moduli_dimension_samples():
    # mu = 2d^2 + 15d + 19 - 8s on the rigid zone
    assert moduli_dim_degree2(BlowupPair(2, 1)) == 49
    assert moduli_dim_degree2(BlowupPair(3, 4)) == 50
    assert moduli_dim_degree2(BlowupPair(7, 21)) == 2 * 49 + 105 + 19 - 8 * 21


def test_moduli_from_parts_equal_the_closed_polynomials():
    # the polynomials the dimensions were first stated by, as references
    degree1 = degree2 = 0
    for d in range(2, 61):
        for s in range(1, d * d):
            pair = BlowupPair(d, s)
            cls = deformation_class(pair)
            mu2 = 2 * d * d + 15 * d + 19 - 8 * s
            if cls is DeformationClass.DEGREE1:
                dims = moduli_dims_degree1(pair)
                mu = d * d + 15 * d + 20 - 6 * s
                assert (dims.mu, dims.mu2, dims.codim) == (mu, mu2, mu - mu2)
                degree1 += 1
            elif cls is DeformationClass.DEGREE2_ALWAYS:
                assert moduli_dim_degree2(pair) == mu2, (d, s)
                degree2 += 1
    assert degree1 == 7 and degree2 > 0


def test_moduli_gap_matches_coker_formula_on_all_seven():
    for (d, s), (mu, mu2) in MODULI_TABLE.items():
        assert mu - mu2 == 2 * s + 1 - d * d


def test_h0_normal_of_cover_values():
    assert h0_normal_of_cover(BlowupPair(2, 1)) == 55
    assert h0_normal_of_cover(BlowupPair(3, 4)) == 50
    assert h0_normal_of_cover(BlowupPair(7, 14)) == 90
    with pytest.raises(ValueError):
        h0_normal_of_cover(BlowupPair(2, 3))


def test_chi_tangent_blowup():
    assert chi_tangent_blowup(0) == 8
    assert chi_tangent_blowup(4) == 0
    assert chi_tangent_blowup(14) == -20


def test_slope_is_exact_rational():
    inv = cover_invariants(BlowupPair(5, 14))
    assert inv.slope == Fraction(22, 74)
    assert isinstance(inv.slope, Fraction)


def test_chi_equals_pg_plus_one():
    # q = 0 throughout, so chi = p_g + 1 for every cover
    for d in range(2, 20):
        for s in range(1, d * d):
            try:
                inv = cover_invariants(BlowupPair(d, s))
            except ValueError:
                continue
            assert inv.chi == inv.p_g + 1
            assert inv.q == 0
