"""Canonical degree-2 covers of blown-up planes: invariants, zones, geography.

The package answers, exactly and deterministically, questions of the shape
"for the double plane branched over a degree-2d curve with s simple
singularities, blown up, what are the invariants, does the canonical map
stay 2-to-1 under deformation, and where does the surface sit in the
(chi, c1^2) plane".  A finite-field interpolation oracle cross-checks
every dimension formula against actual linear systems of plane curves
with fat base points.

Only `classify` and `defaults` load with the package.  The names of
`atlas`, `scrolls`, `invariants` and the oracle's `fatpoints`
(`two_component_points`, `cover_invariants`, `alpha_rank`, ...) are
loaded from their module on first use: the closed forms never import
numpy, and a command loads only the layers it runs.
"""

from .classify import (
    BlowupPair,
    ClassificationRecord,
    DeformationClass,
    TriState,
    alpha_surjective,
    classify,
    deformation_class,
    ext1_nonzero,
    smooth_cover_exists,
    very_ample,
    zone_rule,
)
from .defaults import (DEFAULT_PRIME, DEFAULT_SEED, DEFAULT_TRIALS, MAX_PRIME,
                       MAX_TRIALS)

__version__ = "0.1.0"

# Name -> module, for the names loaded from their module on first access
# (PEP 562), not at import.  `classify` stays eager: a later import of the
# submodule cangeo.classify would rebind the package attribute `classify`
# from the function to the module.
_LAZY = {name: module for module, names in {
    "atlas": (
        "Enumeration",
        "GeographyLine",
        "ScrollWitness",
        "TwoComponentPoint",
        "UnwitnessedCandidate",
        "find_witness",
        "geography_lines",
        "s_for_degree",
        "scroll_class_total",
        "two_component_points",
    ),
    "fatpoints": (
        "FatPointSystem",
        "MAX_ELIMINATION_WORK",
        "MAX_MATRIX_ENTRIES",
        "OracleLimitError",
        "PointConfiguration",
        "alpha_rank",
        "h0_fatpoints",
        "monomial_basis",
        "vanishing_matrix",
    ),
    "invariants": (
        "ModuliDims",
        "SurfaceInvariants",
        "chi_tangent_blowup",
        "cover_invariants",
        "h0_normal_of_cover",
        "moduli_dim_degree2",
        "moduli_dims_degree1",
    ),
    "scrolls": (
        "DivisorClass",
        "ScrollSpec",
        "line_for_m",
        "on_line",
        "scroll_admissible",
        "scroll_line_hits",
        "scroll_surface_invariants",
    ),
}.items() for name in names}


# Every public name is written once: in an import above or in _LAZY.  The
# imports also bind the submodule `defaults`, which is not exported.
__all__ = sorted(name for name in [*globals(), *_LAZY]
                 if name[0] != "_" and name != "defaults")


def __getattr__(name: str):
    # Not cached in the package namespace: every access reads the current
    # binding in the defining module, so a name rebound there is seen here
    # too.
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})

