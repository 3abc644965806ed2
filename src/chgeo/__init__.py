"""Numerical engine for homogeneous hypersurface geometry in complex
hyperbolic space: closed-form ambient curvature, the solvable group
model and its ruled minimal orbits, normal Jacobi fields with the
distance-r transversal map, a catalog of tube and equidistant
families, and the constraint classifier for three-curvature non-Hopf
data."""

from .ambient import (
    CurvatureModel,
    curvature,
    sectional_curvature,
)
from .families import (
    CatalogEntry,
    catalog,
    equidistant_profile,
    ruled_profile,
    structural_residuals,
    tube_spectrum,
)
from .classifier import (
    SolutionBranch,
    branch_profile,
    residual_hopf_weights,
    solve_case_one,
    solve_case_two,
)
from .errors import (
    DegeneratePlaneError,
    FocalPointError,
    FocalRadiusError,
    OpenCaseError,
    UnsupportedModelError,
    ValidationError,
)
from .jacobi import (
    EXCEPTIONAL_RADIUS,
    FocalMapData,
    image_shape_operator,
    jacobi_field,
    jacobi_numeric,
    normal_frame,
    transversal_map,
)
from .profiles import HopfAttitude, PrincipalProfile
from .solvable import (
    SolvableAlgebra,
    algebra_curvature,
    build_algebra,
    build_ruled,
    default_ruled_spec,
    horosphere_model,
    levi_civita,
)

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "CurvatureModel",
    "DegeneratePlaneError",
    "EXCEPTIONAL_RADIUS",
    "FocalMapData",
    "FocalPointError",
    "FocalRadiusError",
    "HopfAttitude",
    "OpenCaseError",
    "PrincipalProfile",
    "SolutionBranch",
    "SolvableAlgebra",
    "UnsupportedModelError",
    "ValidationError",
    "algebra_curvature",
    "branch_profile",
    "build_algebra",
    "build_ruled",
    "catalog",
    "curvature",
    "default_ruled_spec",
    "equidistant_profile",
    "horosphere_model",
    "image_shape_operator",
    "jacobi_field",
    "jacobi_numeric",
    "levi_civita",
    "normal_frame",
    "residual_hopf_weights",
    "ruled_profile",
    "sectional_curvature",
    "solve_case_one",
    "solve_case_two",
    "structural_residuals",
    "transversal_map",
    "tube_spectrum",
]
