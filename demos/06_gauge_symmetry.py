"""Random external fields via the gauge transform.

A deterministic coupling with a random +/-1 field is the same model as the
sign-conjugated coupling with a uniform field: conjugation commutes with
every step of the iteration exactly (sign flips are exact in floating
point), so the identity holds entrywise, not just in distribution.

Run:  python3 demos/06_gauge_symmetry.py
"""

import numpy as np

from amplab import (SpectralLaw, build_signed_sine, g_nonlinearity,
                    gauge_conjugate, keep_iterates, resolvent_operator,
                    run_amp, solve_q_star)
from amplab.rng import rademacher, substream

N, T = 1024, 6
params = solve_q_star(2.0, 2.0, SpectralLaw.rademacher())
coupling = build_signed_sine(N, seed=21)
h = rademacher(substream(99, "field"), N)
gauged = gauge_conjugate(coupling, h)



def field_iterates(j, field, z0):
    """z^0..z^T of the TAP iteration on J with the +/-1 field vector."""
    trace = run_amp(resolvent_operator(j, params),
                    [g_nonlinearity(params, field)] * T, z0, T,
                    observe=keep_iterates)
    return trace.steps + trace.iterates


zbar0 = substream(17, "z0").normal(0.0, np.sqrt(params.sigma_star_sq), N)
with_field = field_iterates(coupling, h, h * zbar0)
unit_field = field_iterates(gauged, np.ones(N), zbar0)

print("entrywise identity diag(h) z^t(Jbar, 1) = z^t(J, h):")
for t in range(T + 1):
    gap = np.max(np.abs(with_field[t] - h * unit_field[t]))
    print(f"  t = {t}:  max |difference| = {gap:.3e}")

print("\neven observables transfer without any correction:")
overlap_field = float(np.mean(h * with_field[T]))
overlap_unit = float(np.mean(unit_field[T]))
print(f"  overlap <h, z^T>/N with field   = {overlap_field:+.10f}")
print(f"  plain average of z^T, unit run  = {overlap_unit:+.10f}")

sq_field = float(np.mean((with_field[T] - with_field[T - 1]) ** 2))
sq_unit = float(np.mean((unit_field[T] - unit_field[T - 1]) ** 2))
print(f"  successive diff, field run      = {sq_field:.10f}")
print(f"  successive diff, unit run       = {sq_unit:.10f}")

print(f"\nGaussian-limit scale for the overlap at this size: "
      f"{np.sqrt(params.sigma_star_sq / N):.5f}")
