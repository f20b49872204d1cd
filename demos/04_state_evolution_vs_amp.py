"""State evolution against an actual run, at desk scale.

The deterministic recursion predicts the variance sigma_t^2 and the
successive-difference curve d_t = E (Z_t - Z_{t-1})^2 of the limiting
Gaussian process.  Whether a finite-size run tracks those predictions
uniformly in t depends on the variance map sigma_t^2 -> sigma_{t+1}^2:

* the polynomial presets (square, cubic) have expanding maps at their
  fixed point, so finite-size variance fluctuations grow with t and only
  the first few steps are quantitative;
* saturating divergence-free nonlinearities with a contractive map track
  the prediction at every step.

This demo uses the contractive one (the magnetization nonlinearity at
beta = 2, theta = 2) on a signed Hadamard resolvent at N = 8192.

Run:  python3 demos/04_state_evolution_vs_amp.py
"""

import numpy as np

from amplab import (SpectralLaw, build_signed_hadamard, g_nonlinearity,
                    gaussian_init, hermite_moment, involution_resolvent,
                    preset_nonlinearity, run_amp, run_state_evolution,
                    solve_q_star, successive_diff)
from amplab.hermite import gaussian_expectation
from amplab.state_evolution import center_divergence_free

N, T = 8192, 8

params = solve_q_star(2.0, 2.0, SpectralLaw.rademacher())
g = g_nonlinearity(params)
sigma = float(np.sqrt(params.sigma_star_sq))
print(f"nonlinearity: g at beta=2, theta=2 (input scale sigma = {sigma:.4f})")

# contractive vs expanding variance maps, measured directly
def map_derivative(nonlin, spsi, sig2):
    h = 1e-5
    def m(s2):
        s = np.sqrt(s2)
        fb = center_divergence_free(nonlin, s)
        return spsi * gaussian_expectation(lambda y: fb.eval(y) ** 2, s)
    return (m(sig2 + h) - m(sig2 - h)) / (2 * h)

print(f"variance-map slope at the fixed point: "
      f"{map_derivative(g, params.sigma_psi_sq, params.sigma_star_sq):+.3f} "
      f"(contractive)")
print(f"for comparison, the square preset:      "
      f"{map_derivative(preset_nonlinearity('square'), 1.0, 1.0):+.3f} "
      f"(expanding)")

se = run_state_evolution([g] * T, params.sigma_star_sq,
                         params.sigma_psi_sq, T)
d = se.succ_diff_prediction()

coupling = build_signed_hadamard(N, seed=5)
op = involution_resolvent(coupling, params.lambda_star, params.sigma_psi_sq)
trace = run_amp(op, [g] * T, gaussian_init(N, sigma, seed=5), T)
sd = successive_diff(trace)

print(f"\n  {'t':>2} {'d_t (SE)':>12} {'empirical':>12} {'rel.err':>8}")
for t in range(1, T + 1):
    rel = abs(sd[t - 1] - d[t - 1]) / d[t - 1]
    print(f"  {t:2d} {d[t - 1]:12.6f} {sd[t - 1]:12.6f} {rel:8.2%}")

print("\nstandardized Hermite moments of z^t (Gaussianity check):")
print(f"  {'t':>2} {'H1':>9} {'H2':>9} {'H3':>9} {'H4':>9}")
for t in (1, 4, 8):
    ms = [hermite_moment(trace.iterates[t], k, sigma) for k in range(1, 5)]
    print(f"  {t:2d} " + " ".join(f"{m:9.5f}" for m in ms))
print(f"(single-run CLT scale at this size: {1 / np.sqrt(N):.5f})")
