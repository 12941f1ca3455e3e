"""Real-eigenvalue statistics of products of random matrices.

Three mutually cross-validating routes to the same observables:

* Monte Carlo over the matrix models (Haar-orthogonal truncations and real
  Ginibre factors), counting real eigenvalues structurally from the 1x1
  blocks of LAPACK's Hessenberg QR iteration;
* exact finite-size kernel formulas (weight convolutions, binomial-power
  series, contour-integral coefficients);
* closed-form asymptotic laws (the sqrt(N) arctanh law, the limiting
  density, and the log(N) law of the nearly-orthogonal regime).
"""

from .errors import (DomainError, NonConvergentError, PrecisionLossError,
                     SchurNoConvergenceError, SlowConvergenceError)
from .signedlog import SignedLogValue
from .quadrature import QuadratureResult, QuadratureSpec, Rule, integrate
from .contour import contour_line_integral
from .gammafns import log_beta, log_binomial, log_gamma, log_gamma_complex
from .weights import (WeightTable, ginibre_weight, ginibre_weight_asymptotic,
                      weight_asymptotic, weight_base, weight_product,
                      weight_table)
from .series import (SeriesParams, e_nm, f_decomposition_residual,
                     f_gin_infinite, f_gin_truncated, f_inf_asymptotic,
                     f_infinite, f_truncated)
from .exactdensity import (DensityCurve, asympt_expected, build_density_curve,
                           density_rho, expected_real_quadrature,
                           gin_asympt_expected, gin_expected_real_quadrature,
                           gin_limiting_density, kernel_S, limiting_density)
from .weakregime import (GjTable, GjValue, a_lm_closed, a_lm_mc,
                         expected_real_sum, g_j_contour, g_j_even_odd_asy,
                         g_j_mc, g_j_sym, weak_asymptotic)
from .montecarlo import (EnsembleKind, EnsembleSpec, SimulationEstimate,
                         count_real_eigs, estimate_expected_real, real_eigs,
                         sample_haar_orthogonal, sample_product, trial_rng)
from .reports import ComparisonReport, ReportRow

__version__ = "0.1.0"
