"""Building semi-random operators and measuring their defining conditions.

Every operator is exposed through matvecs only.  The diagnostics report
entry delocalization, operator norm, and how close the conjugated core's
Gram matrix is to a scaled identity; the sqrt(N)-rescaled ratios make the
expected decay visible across sizes.

Run:  python3 demos/03_ensemble_diagnostics.py
"""

import numpy as np

from amplab import (MatrixOperator, build_random_orthogonal,
                    build_signed_hadamard, build_signed_sine,
                    check_semi_random, fwht)

print("involution check M(Mv) = v and norm preservation:")
# the random-orthogonal store needs a budget: a matvec reveals at most 2
# directions (the query's residual and the fresh part of its image); M v
# lies in the span the first matvec revealed, so the second reveals none
for build, n in ((build_signed_sine, 512), (build_signed_hadamard, 512),
                 (lambda n, seed: build_random_orthogonal(
                     n, seed, max_directions=2), 512)):
    op = build(n, seed=1)
    v = np.random.default_rng(0).standard_normal(n)
    err = np.linalg.norm(op.matvec(op.matvec(v)) - v) / np.linalg.norm(v)
    print(f"  {op.label:18s} ||M^2 v - v||/||v|| = {err:.2e}")

print("\ndiagnostics (dense mode), signed sine across sizes:")
print(f"  {'N':>5} {'psi_inf':>10} {'inf*sqrtN':>10} {'op_norm':>9} "
      f"{'offdiag':>10} {'diag_dev':>10}")
for n in (256, 512, 1024):
    diag = check_semi_random(build_signed_sine(n, seed=1), "dense")
    print(f"  {n:5d} {diag.psi_inf_norm:10.6f} {diag.inf_ratio:10.4f} "
          f"{diag.psi_op_norm:9.6f} {diag.max_offdiag_gram:10.2e} "
          f"{diag.max_diag_gram_dev:10.2e}")

print("\nthe identity matrix fails delocalization (diagnostic, not error):")
eye = MatrixOperator(256, np.positive, 1.0, "identity")
diag = check_semi_random(eye, "dense")
print(f"  psi_inf_norm = {diag.psi_inf_norm} (localized), "
      f"inf_ratio = {diag.inf_ratio:.1f} (does not decay)")

print("\nfast transforms under the hood:")
v = np.random.default_rng(1).standard_normal(4096)
w = fwht(v)
print(f"  fwht involution error at N=4096: "
      f"{np.max(np.abs(fwht(w) - v)):.2e}")
print(f"  fwht norm ratio: {np.linalg.norm(w) / np.linalg.norm(v):.15f}")

print("\nthe lazy random reflection reveals directions on demand:")
op = build_random_orthogonal(4096, seed=7, max_directions=6)
for k in range(3):
    op.matvec(np.random.default_rng(k).standard_normal(4096))
print(f"  directions stored after 3 matvecs: {op.haar_basis.q.shape[0]} "
      f"(out of a possible 4096)")
