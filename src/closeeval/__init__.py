"""Close evaluation of double-layer potentials for the interior Laplace
problem in 2D and 3D, with asymptotic near-boundary approximations, a
forward-peaked scattering operator toolbox, and an error-study harness."""

from .bie2d import (DensityGrid2D, assemble_nystrom, dirichlet_data, dlp_sum,
                    gauss_interior_value, harmonic_source, solve_density)
from .bie3d import (Density3D, apply_K_subtracted, assemble_galerkin,
                    dlp_weights, exact_point_source_3d,
                    gauss_interior_value_3d, harmonic_point_source_3d,
                    rotated_grid, solve_density3d)
from .closeeval2d import (CloseEvalRequest2D, asym_coefficients, asym_eps2,
                          asym_eps3, dlp_ptr, dlp_subtraction)
from .closeeval3d import (CloseEvalRequest3D, asym_correction_3d,
                          asym_eps2_3d, dlp_numerical_3d)
from .geometry2d import (Curve2D, circle, curve_eval, curve_grid,
                         fourier_custom, kite, load_curve, point_inside, star)
from .geometry3d import (Surface3D, custom_radial, direction,
                         direction_angles, mushroom, rotated_frame,
                         rotation_matrix,
                         surface_point_and_normal, unit_sphere)
from .harness import (ConfigError, ErrorStudyResult, InsufficientDataError,
                      NumericalError, OrderFit, Rejection, ResultBlock,
                      ResultRow, StudyConfig, config_from_dict, dump_fits,
                      eps_grid, fit_order, fit_results, load_config,
                      read_results_csv, run_error_map, run_hg_study,
                      write_outputs)
from .hgscatter import (IntensityField, apply_L32, apply_L_asymptotic,
                        apply_L_spectral, poisson_close_eval)
from .spectral import (QuadratureRule1D, SphericalCoeffs, analysis_grid,
                       gauss_legendre, mapped_rule, periodic_derivative,
                       periodic_nodes, sph_analysis, sph_half_basis,
                       sph_synthesis, spherical_laplacian)

__all__ = [
    # bie2d
    "DensityGrid2D", "assemble_nystrom", "dirichlet_data", "dlp_sum",
    "gauss_interior_value", "harmonic_source", "solve_density",
    # bie3d
    "Density3D", "apply_K_subtracted", "assemble_galerkin", "dlp_weights",
    "exact_point_source_3d", "gauss_interior_value_3d",
    "harmonic_point_source_3d", "rotated_grid", "solve_density3d",
    # closeeval2d
    "CloseEvalRequest2D", "asym_coefficients", "asym_eps2", "asym_eps3",
    "dlp_ptr", "dlp_subtraction",
    # closeeval3d
    "CloseEvalRequest3D", "asym_correction_3d", "asym_eps2_3d",
    "dlp_numerical_3d",
    # geometry2d
    "Curve2D", "circle", "curve_eval", "curve_grid", "fourier_custom",
    "kite", "load_curve", "point_inside", "star",
    # geometry3d
    "Surface3D", "custom_radial", "direction", "direction_angles",
    "mushroom", "rotated_frame", "rotation_matrix",
    "surface_point_and_normal", "unit_sphere",
    # harness
    "ConfigError", "ErrorStudyResult", "InsufficientDataError",
    "NumericalError", "OrderFit", "Rejection", "ResultBlock", "ResultRow",
    "StudyConfig", "config_from_dict", "dump_fits", "eps_grid", "fit_order",
    "fit_results", "load_config", "read_results_csv", "run_error_map",
    "run_hg_study", "write_outputs",
    # hgscatter
    "IntensityField", "apply_L32", "apply_L_asymptotic", "apply_L_spectral",
    "poisson_close_eval",
    # spectral
    "QuadratureRule1D", "SphericalCoeffs", "analysis_grid",
    "gauss_legendre", "mapped_rule", "periodic_derivative", "periodic_nodes",
    "sph_analysis", "sph_half_basis", "sph_synthesis", "spherical_laplacian",
]
__version__ = "0.1.0"
