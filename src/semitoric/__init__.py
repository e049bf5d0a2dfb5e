"""Exact tools for semi-toric boundary geometry.

The package computes, over exact rational and real quadratic arithmetic:
cusp cross-section chains and their resolution cycles, cone decompositions
with their validity conditions, boundary atlases for flat torus connections,
maximal unipotency of monodromy sets with quasi-canonical coordinates, and
framing changes of instanton series.
"""

from .connection import (
    BoundaryAtlas,
    MaxDepthPoint,
    NondescentWitness,
    Reconstruction,
    atlas_from_fan,
    compatibility_check,
    disc_translation_pullback,
    laurent_nabla,
    local_lattice,
    nondescent_witness,
    reconstruct,
    torus_nabla,
    torus_scaling_pullback,
)
from .cusp import (
    CycleResolution,
    VertexChain,
    build_fan,
    emit_figure,
    hull_vertices,
    self_intersections,
)
from .errors import (
    DegenerateInputError,
    FormatError,
    GroupMismatchError,
    MixedDiscriminantError,
    NotUnipotentError,
    RequiresRationalConeError,
    ResourceBoundError,
    SemitoricError,
    UnsupportedRankError,
)
from .fans import (
    Chart,
    Decomposition,
    GroupElement,
    Stratum,
    Support,
    boundary_chart,
    common_refinement,
    decompositions_match,
    is_mumford_type,
    is_refinement,
    sbb_decomposition,
    strata,
    validate_decomposition,
)
from .lattice import (
    Cone,
    ExactScalar,
    IntMatrix,
    Vector,
    complete_to_basis,
    cone_from_inequalities,
    cone_intersection,
    faces,
    hermite_normal_form,
    integer_kernel,
    is_strongly_convex,
    is_unimodular_part_of_basis,
)
from .monodromy import (
    MonodromySet,
    QuasiCanonicalCoordinates,
    integral_normalization,
    is_maximally_unipotent,
    m_matrix,
    minimal_polynomial,
    quasi_canonical_coordinates,
    unipotent_log,
    weight_spaces,
)
from .quadfield import (
    CuspData,
    QuadIdeal,
    cusp_cone,
    fundamental_totally_positive_unit,
    fundamental_unit,
    ring_basis,
    sqrtD,
)
from .report import Condition, Report
from .series import (
    FormalSeries,
    Framing,
    effectivity_check,
    reframe,
    reframing_preserves_effectivity,
    series,
    series_inverse,
    series_multiply,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
