"""Close evaluation of double-layer potentials for the interior Laplace
problem in 2D and 3D, with asymptotic near-boundary approximations, a
forward-peaked scattering operator toolbox, and an error-study harness."""

from .bie2d import (DensityGrid2D, assemble_nystrom, dirichlet_data, dlp_sum,
                    gauss_interior_value, harmonic_source, solve_density)
from .bie3d import (Density3D, apply_K_subtracted, assemble_galerkin,
                    dlp_weights, exact_point_source_3d,
                    gauss_interior_value_3d, harmonic_point_source_3d,
                    rotated_grid, solve_density3d)
from .closeeval2d import CloseEvalRequest2D, asym_coefficients, close_eval_2d
from .closeeval3d import close_eval_3d
from .geometry2d import (Curve2D, curve_eval, curve_grid, kite, point_inside,
                         star)
from .geometry3d import (Surface3D, direction, direction_angles, mushroom,
                         rotation_matrix, surface_point_and_normal,
                         unit_sphere)
from .harness import (ConfigError, ErrorStudyResult, InsufficientDataError,
                      NumericalError, OrderFit, Rejection, ResultBlock,
                      ResultRow, StudyConfig, config_from_dict, dump_fits,
                      eps_grid, fit_order, fit_results, load_config,
                      read_results_csv, run_error_map, write_outputs)
from .hgscatter import apply_L_asymptotic, apply_L_spectral
from .spectral import (QuadratureRule1D, SphericalCoeffs, analysis_grid,
                       gauss_legendre, mapped_rule, periodic_derivative,
                       periodic_nodes, sph_analysis, sph_half_basis,
                       sph_synthesis)

__all__ = [
    # bie2d
    "DensityGrid2D", "assemble_nystrom", "dirichlet_data", "dlp_sum",
    "gauss_interior_value", "harmonic_source", "solve_density",
    # bie3d
    "Density3D", "apply_K_subtracted", "assemble_galerkin", "dlp_weights",
    "exact_point_source_3d", "gauss_interior_value_3d",
    "harmonic_point_source_3d", "rotated_grid", "solve_density3d",
    # closeeval2d
    "CloseEvalRequest2D", "asym_coefficients", "close_eval_2d",
    # closeeval3d
    "close_eval_3d",
    # geometry2d
    "Curve2D", "curve_eval", "curve_grid", "kite", "point_inside", "star",
    # geometry3d
    "Surface3D", "direction", "direction_angles", "mushroom",
    "rotation_matrix", "surface_point_and_normal", "unit_sphere",
    # harness
    "ConfigError", "ErrorStudyResult", "InsufficientDataError",
    "NumericalError", "OrderFit", "Rejection", "ResultBlock", "ResultRow",
    "StudyConfig", "config_from_dict", "dump_fits", "eps_grid", "fit_order",
    "fit_results", "load_config", "read_results_csv", "run_error_map",
    "write_outputs",
    # hgscatter
    "apply_L_asymptotic", "apply_L_spectral",
    # spectral
    "QuadratureRule1D", "SphericalCoeffs", "analysis_grid",
    "gauss_legendre", "mapped_rule", "periodic_derivative", "periodic_nodes",
    "sph_analysis", "sph_half_basis", "sph_synthesis",
]
__version__ = "0.1.0"
