"""shadowgeom: desk-scale convex geometry of shadows.

Symmetric polytopes and zonotopes with brute-force exact measures, projection
bodies, minimum-volume enclosing ellipsoids with contact-point decompositions,
shadow-position normal forms, and volume maximization over slab families.
"""

__version__ = "0.1.0"

from .kernel import CapacityError, RandomSource, WeightedDirections
from .polytope import SymmetricHPolytope, cauchy_surface_check, random_symmetric_polytope
from .zonotope import (
    Zonotope,
    dominance_volume_bound,
    minkowski_inequality_check,
    mixed_volume_vn1,
    projection_body,
    volume_formula_check,
    zonotope_volume_floor,
)
from .ellipsoid import Ellipsoid, extract_john_decomposition, mvee_symmetric
from .shadow import (
    ball_shadow_ratio,
    loomis_whitney_check,
    min_shadow_direction,
    minimize_support,
    polar_vertices,
    shadow_position,
    verify_product_inequality,
)
from .family import (
    SlabFamilySpec,
    construct_pathological,
    direction_spread,
    kkt_report,
    maximize_volume_details,
    maximize_volume_in_family,
    shephard_demonstration,
    unit_body_volume_floor,
    verify_projection_identity,
)

__all__ = [
    "CapacityError",
    "Ellipsoid",
    "RandomSource",
    "SlabFamilySpec",
    "SymmetricHPolytope",
    "WeightedDirections",
    "Zonotope",
    "__version__",
    "ball_shadow_ratio",
    "cauchy_surface_check",
    "construct_pathological",
    "direction_spread",
    "dominance_volume_bound",
    "extract_john_decomposition",
    "kkt_report",
    "loomis_whitney_check",
    "maximize_volume_details",
    "maximize_volume_in_family",
    "min_shadow_direction",
    "minimize_support",
    "minkowski_inequality_check",
    "mixed_volume_vn1",
    "mvee_symmetric",
    "polar_vertices",
    "projection_body",
    "random_symmetric_polytope",
    "shadow_position",
    "shephard_demonstration",
    "unit_body_volume_floor",
    "verify_product_inequality",
    "verify_projection_identity",
    "volume_formula_check",
    "zonotope_volume_floor",
]
