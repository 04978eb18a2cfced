"""Convergence of the integral and Monte Carlo routes.

First the iterated Gauss-Legendre rule on the nested region: on an instance
with a high polynomial degree the node-count refinement shows spectral
convergence until the rule becomes exact and the differences hit the noise
floor.  Then the order-statistics Monte Carlo route: its error shrinks like
1/sqrt(replications) and the reported standard error tracks the true
deviation.
"""

from mnsurv import (
    QuadratureSpec,
    build_instance,
    integrate_region,
    log_dirichlet_integrand,
    survival_exact,
    survival_mc,
)

inst = build_instance(60, [0.3, 0.3], [14, 20])
logf = lambda s: log_dirichlet_integrand(inst, s)
exact = survival_exact(inst)
print(f"reference value by the exact route: {exact:.15f}")
print()

print("deterministic refinement (nodes per axis -> value, change):")
prev = None
for g in (4, 8, 16, 32, 64):
    val, logval = integrate_region(inst.weights, logf, QuadratureSpec(nodes=g))
    change = "" if prev is None else f"  change {abs(val - prev):.2e}"
    print(f"  G = {g:3d}: {val:.15f}  (rel err {abs(val - exact)/exact:.2e}){change}")
    prev = val
print()

print("monte carlo (replications -> estimate +- stderr, true error in stderrs):")
for reps in (10_000, 40_000, 160_000, 640_000):
    est, se = survival_mc(inst, reps, seed=321)
    err = abs(est - exact)
    print(f"  R = {reps:7d}: {est:.6f} +- {se:.6f}   |err| = {err:.2e} = {err / se:.2f} stderr")
print()

# the log-space shift makes the integrator indifferent to the overall scale
# of the integrand: adding c to logf adds c to the log of the integral, even
# where exp(c) alone underflows
c = -800.0
spec = QuadratureSpec(nodes=32)
_, log_base = integrate_region(inst.weights, logf, spec)
_, log_shifted = integrate_region(inst.weights, lambda s: logf(s) + c, spec)
print(f"shift invariance: |(log I[logf + c] - c) - log I[logf]| = "
      f"{abs(log_shifted - c - log_base):.2e}  (c = {c})")
