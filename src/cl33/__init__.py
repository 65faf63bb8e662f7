"""Clifford algebra Cl(3,3) model of 3D Euclidean geometry.

Points are paravectors (weight + vector); transformations are versor
sandwiches and their Hodge-conjugate star-sandwich forms, covering
reflection, rotation, hyperbolic rotation, shear, non-uniform scale,
translation, cotranslation, perspective, and pseudo-perspective.
"""

from types import ModuleType as _ModuleType

from .blades import SQUARES, blade_geometric_product, blade_name, grade
from .errors import (
    ConvergenceError,
    CovectorResidue,
    DegenerateConfigurationError,
    DomainError,
    NonParavectorResidue,
    NotHodgeCompatible,
    NotLinearError,
    PipelineError,
    ResidualError,
)
from .multivector import (
    ATOL,
    GENERATORS,
    Multivector,
    RTOL,
    conjugation,
    exponential,
    geometric_product,
    grade_involution,
    grade_project,
    outer_product,
    reversion,
    tolerance,
    vector_contract,
)
from .euclid import (
    E,
    E_STAR,
    I_FULL,
    I_MINUS,
    I_PLUS,
    OMEGA_V,
    POINT_BASIS,
    Paravector,
    at_infinity,
    embed_covector,
    embed_paravector,
    embed_vector,
    extract_paravector,
    g,
    normalize_point,
    sector_vector,
    star_conjugate,
)
from .hodge import hodge_star
from .versors import (
    Composed,
    HodgeVersor,
    PerspectiveMap,
    SectorReport,
    Transform,
    Versor,
    apply_cotranslation,
    apply_hodge_sandwich,
    apply_sandwich,
    compose,
    cotranslation_versor,
    hodge_conjugate_versor,
    hyperbolic_versor,
    identity_versor,
    perspective_project,
    pseudo_perspective,
    pseudo_perspective_map,
    reflection_versor,
    rotation_versor,
    scale_versor,
    sector_image,
    shear_versor,
    translation_versor,
)
from .analysis import (
    Classification,
    ConditionReport,
    affine_matrix,
    classify_infinitesimal,
    composed_family_report,
    correction_terms,
    cotranslation_matrix,
    grade_parts,
    paravector_conditions,
    probe_points,
    projective_matrix_probe,
    worst_residuals,
)
from .pipeline import (
    Pipeline,
    PipelineStep,
    format_pipeline,
    format_points,
    inverse_pipeline,
    parse_pipeline,
    parse_points,
    point_line,
)

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__version__ = "0.1.0"
