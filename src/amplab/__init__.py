"""amplab: a numerical laboratory for memory-free AMP on semi-random matrices.

The package simulates the memory-free iteration z^{t+1} = M f_{t+1}(z^t)
for matvec-only semi-random operators M, predicts its dynamics with the
deterministic state-evolution recursion, and applies both to the
high-temperature TAP equations of mean-field Ising models.
"""

from .amp import AmpTrace, gaussian_init, run_amp
from .ensembles import (ENSEMBLES, EnsembleDiagnostics, MatrixOperator,
                        build_random_orthogonal, build_sign_perm,
                        build_signed_hadamard, build_signed_sine,
                        build_wigner_coupling, build_wishart_coupling,
                        centered_resolvent, check_semi_random, dst_matvec,
                        fwht, involution_resolvent, operator_from_spec)
from .errors import AmpLabError, ConvergenceError, NumericError, ResourceError
from .hermite import gaussian_cross_moment, gaussian_expectation, hermite_eval
from .metrics import (ObservableReport, hermite_moment, ks_statistic,
                      report_from_traces, successive_diff)
from .spectral import (SpectralLaw, cauchy_derivative, cauchy_transform,
                       inverse_cauchy, r_transform, resolvent_variance)
from .state_evolution import (Nonlinearity, SECovariance,
                              center_divergence_free, preset_nonlinearity,
                              run_state_evolution)
from .tap import (TapParameters, TapRunResult, ensemble_law, g_nonlinearity,
                  gauge_conjugate, run_field_iteration, run_tap_amp,
                  solve_q_star, tap_residual)

__version__ = "0.1.0"
