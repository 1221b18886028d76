"""Skew-form SBP discretisations of first-order hyperbolic systems.

The split form P U_t + (A_i U)_{x_i} + A_i^T U_{x_i} + C U = F with skew C
telescopes its quadratic energy to pure boundary terms; with
summation-by-parts operators the same cancellation holds discretely, to
rounding, for the nonlinear equations, a non-standard linearisation, and
the dual equations alike.  This package builds the operators, assembles
the residuals for four model systems, and verifies the identities with
seeded batch checks.
"""

from .boundary import (
    BoundaryAnalysis,
    FaceClosure,
    analyze_boundary,
    build_sat,
    make_sat_config,
    swe_rewritten_contraction,
)
from .energy import (
    EnergyReport,
    boundary_contraction,
    energy_report,
    report_from_residual,
    total_energy,
)
from .models import (
    MODEL_KINDS,
    ModelSpec,
    coeff_matrices,
    dense_matrix,
    make_model,
    sample_state,
    swe_inverse,
    swe_quasilinear,
    swe_transform,
    with_params,
)
from .sbp_core import (
    Grid,
    SbpOperator1D,
    apply_derivative,
    boundary_quadrature,
    build_operators,
    build_sbp_operator,
    faces,
    inner_product,
    make_grid,
)
from .spatial_op import (
    Residual,
    bilinear_face_functional,
    eval_dual_residual,
    eval_new_linearised_pair,
    eval_primal_residual,
    eval_remainder_H,
)
from .timeint import Scenario, march, rk4_step
from .verify import (
    CheckReport,
    check_alpha_independence,
    check_decomposition,
    check_duality,
    check_energy_identity,
    check_swe_ansatz,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryAnalysis",
    "CheckReport",
    "EnergyReport",
    "FaceClosure",
    "Grid",
    "MODEL_KINDS",
    "ModelSpec",
    "Residual",
    "SbpOperator1D",
    "Scenario",
    "analyze_boundary",
    "apply_derivative",
    "bilinear_face_functional",
    "boundary_contraction",
    "boundary_quadrature",
    "build_operators",
    "build_sat",
    "build_sbp_operator",
    "check_alpha_independence",
    "check_decomposition",
    "check_duality",
    "check_energy_identity",
    "check_swe_ansatz",
    "coeff_matrices",
    "dense_matrix",
    "energy_report",
    "eval_dual_residual",
    "eval_new_linearised_pair",
    "eval_primal_residual",
    "eval_remainder_H",
    "faces",
    "inner_product",
    "make_grid",
    "make_model",
    "make_sat_config",
    "march",
    "report_from_residual",
    "rk4_step",
    "sample_state",
    "swe_inverse",
    "swe_quasilinear",
    "swe_rewritten_contraction",
    "swe_transform",
    "total_energy",
    "with_params",
    "__version__",
]
