"""The Ising application: one table per inverse temperature.

Solves the scalar fixed point, runs the magnetization iteration on three
couplings with the same two-point limiting spectrum, and compares their
successive-difference curves against the single state-evolution
prediction.  Universality is the fact that one deterministic curve
describes all three.

Run:  python3 demos/05_tap_universality.py          (about 15 s)
"""

import numpy as np

from amplab import (SpectralLaw, g_nonlinearity, run_state_evolution,
                    run_tap_amp, solve_q_star, successive_diff, tap_residual)

N, T, SEEDS = 4096, 10, (11, 12, 13, 14)
ENSEMBLES = ("signed-sine", "signed-hadamard", "random-orthogonal")
law = SpectralLaw.rademacher()

for beta in (2.0, 4.0):
    params = solve_q_star(beta, 2.0, law)
    print(f"\nbeta = {beta}, theta = 2:  q* = {params.q_star:.6f}, "
          f"sigma*^2 = {params.sigma_star_sq:.6f}, "
          f"lambda* = {params.lambda_star:.6f}")
    g = g_nonlinearity(params)
    se = run_state_evolution([g] * T, params.sigma_star_sq,
                             params.sigma_psi_sq, T)
    d = se.succ_diff_prediction()
    curves = {}
    residual = {}
    for ens in ENSEMBLES:
        acc = np.zeros(T)
        for seed in SEEDS:
            # the Haar budget has room for one residual: m^10's below, as
            # m^1's reveals no new direction
            result = run_tap_amp(ens, beta, 2.0, N, T, seed, params=params)
            trace, coupling = result.trace, result.coupling
            acc += successive_diff(trace)
        curves[ens] = acc / len(SEEDS)
        # On random-orthogonal the residual of m^10 depends on the vectors
        # queried before it: the lazy Haar store reveals U in query order,
        # so computing m^1's residual first changes the digits of m^10's.
        residual[ens] = [tap_residual(np.tanh(2.0 + trace.iterates[t]),
                                      coupling, params)
                         for t in (1, T)]
    print(f"  {'t':>2} {'SE d_t':>10} " +
          " ".join(f"{e:>18}" for e in ENSEMBLES))
    for t in range(1, T + 1):
        row = " ".join(f"{curves[e][t - 1]:18.6f}" for e in ENSEMBLES)
        print(f"  {t:2d} {d[t - 1]:10.6f} {row}")
    print("  TAP residual (last seed), t = 1 then t = 10:")
    for ens in ENSEMBLES:
        print(f"    {ens:18s} {residual[ens][0]:.3e} -> "
              f"{residual[ens][1]:.3e}")
