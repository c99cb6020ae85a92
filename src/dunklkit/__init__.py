"""dunklkit: a numerical workbench for Dunkl operators.

Root systems and reflection groups, exact and numerical Dunkl operators,
weighted quadrature against dμ_k, the rank-1 and radial Dunkl transforms
with spectral multiplier calculus, weighted functional-inequality
verification with sharp-constant probes, and linear/nonlinear damped wave
equations for the Dunkl Laplacian.
"""

__version__ = "0.1.0"

from .dunkl import (dunkl_apply_poly, dunkl_gradient_num,
                    dunkl_gradient_poly, dunkl_laplacian_num, dunkl_laplacian_poly,
                    integration_by_parts_residual)
from .extremal import (OptimizationResult, TrialFamily, inverse_power_family,
                       nelder_mead, power_gaussian_family, rayleigh_maximize)
from .functions import (PolyGauss1D, RadialPG, TestFunction, band_profile,
                        generate_corpus)
from .inequalities import (AdmissibilityReport, InequalitySpec, VerificationRecord,
                           admissible, ckn1_spec, ckn2_spec, ckn_fractional_spec,
                           evaluate_sides, gn1_spec, largest_admissible_a, make_spec,
                           sobolev_spec, trudinger_lhs, uncertainty_spec, verify_corpus,
                           weighted_rellich_spec)
from .measure import (WeightedQuadrature, build_quadrature, macdonald_mehta,
                      radial_quadrature, rank1_quadrature, weighted_lp_norm)
from .polynomial import Polynomial
from .rootsys import (ReflectionGroup, RootSystem, build_root_system, generate_group,
                      reflect, weight)
from .spectral import (DunklTransformRank1, DyadicPartition, RadialDunklTransform,
                       SpectralField, fractional_laplacian, homogeneous_norm,
                       littlewood_paley_project, riesz_potential, sobolev_norm,
                       square_function_l2_ratio)
from .waveeq import (WaveConfig, WaveSolution, decay_rate_fit, linear_mode_solution,
                     mode_time_derivative, solve_linear, solve_nonlinear, x_norm)
from .workbench import Workbench, radial_workbench, rank1_workbench
