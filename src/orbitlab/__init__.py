"""Orbit growth, covering volumes, and the geometry of flat quotients.

The package splits into exact and numeric halves. ``euclid``, ``groups``,
``orbit``, and ``algebra`` work over rationals and integers end to end,
so every count and comparison they report is exact. ``flatgeo`` and
``warped`` estimate volumes (seeded Monte Carlo and certified grid
geodesics respectively) and wrap the estimates in explicit guard bands.
numpy and scipy are runtime dependencies of those estimators only: they
are imported on the first Monte Carlo or grid call, not by ``import
orbitlab``, so the exact half never loads them.
"""

from . import errors
from .algebra import (
    AbelianPresentation,
    abelian_rank,
    hurewicz_ball_injection,
    independence_check,
    int_determinant,
    integer_rank,
    polycyclic_injection,
    smith_normal_form,
    snf_diagonal,
)
from .euclid import Isometry, Point, apply, compose, frac, inverse
from .flatgeo import (
    BASE_POINTS,
    ball_volume,
    classify_flat,
    dirichlet_contains,
    extension_at_most,
    nearest_lifts,
    ray_extension,
    reference_ball_volume,
    soul_axis,
    soul_dimension,
    thin_set_volume,
    verify_dual,
)
from .groups import (
    DeckGroup,
    GeneratedGroup,
    HeisenbergElement,
    TranslationLattice,
    builtin_deck_group,
    builtin_generated_group,
    heisenberg_group,
    hurewicz_images,
    word_ball,
    word_ball_counts,
    word_length,
    zk_deck,
    zk_group,
)
from .orbit import (
    GrowthSeries,
    finite_index_comparison,
    fit_power_law,
    milnor_check,
    orbit_ball_count,
    orbit_growth,
    subgroup_index,
    translation_subgroup,
    word_growth,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianPresentation",
    "BASE_POINTS",
    "DeckGroup",
    "GeneratedGroup",
    "GrowthSeries",
    "HeisenbergElement",
    "Isometry",
    "Point",
    "TranslationLattice",
    "abelian_rank",
    "apply",
    "ball_volume",
    "builtin_deck_group",
    "builtin_generated_group",
    "classify_flat",
    "compose",
    "dirichlet_contains",
    "errors",
    "extension_at_most",
    "finite_index_comparison",
    "fit_power_law",
    "frac",
    "heisenberg_group",
    "hurewicz_ball_injection",
    "hurewicz_images",
    "independence_check",
    "int_determinant",
    "integer_rank",
    "inverse",
    "milnor_check",
    "nearest_lifts",
    "orbit_ball_count",
    "orbit_growth",
    "polycyclic_injection",
    "ray_extension",
    "reference_ball_volume",
    "smith_normal_form",
    "snf_diagonal",
    "soul_axis",
    "soul_dimension",
    "subgroup_index",
    "thin_set_volume",
    "translation_subgroup",
    "verify_dual",
    "word_ball",
    "word_ball_counts",
    "word_growth",
    "word_length",
    "zk_deck",
    "zk_group",
]
