"""Convergence of the integral and Monte Carlo routes.

First the chain rule that both integral routes use: on a d = 6, n = 769
instance with a threshold far below its mean, its error against the exact
route falls with the nodes per panel until it reaches roundoff at the
default 64, in milliseconds.  Then, for contrast, the
tensor-product rule on a small instance, where G^d nodes are affordable:
spectral convergence until the rule becomes exact.  Last the order-statistics
Monte Carlo route: its error shrinks like 1/sqrt(replications) and the
reported standard error tracks the true deviation.
"""

import time

from mnsurv import (
    QuadratureSpec,
    build_instance,
    dirichlet_factors,
    integrate_chain,
    integrate_region,
    log_dirichlet_integrand,
    survival_dirichlet,
    survival_exact,
    survival_gaussian,
    survival_mc,
)

big = build_instance(769, [0.292, 0.074, 0.097, 0.103, 0.123, 0.163], [234, 11, 78, 71, 98, 157])
exact = survival_exact(big)
print(f"d = 6, n = 769: exact route {exact:.15f}")
print("chain rule (nodes per panel -> relative error of each route, time of both):")
for g in (32, 40, 48, 56, 64, 96, 128):
    spec = QuadratureSpec(nodes=g)
    survival_dirichlet(big, spec)  # builds the node-count's cached arrays
    start = time.perf_counter()
    diri = survival_dirichlet(big, spec)
    gauss = survival_gaussian(big, spec)
    ms = 1e3 * (time.perf_counter() - start)
    print(f"  G = {g:3d}: Dirichlet {abs(diri - exact) / exact:.1e}, "
          f"Gaussian {abs(gauss - exact) / exact:.1e}  ({ms:.0f} ms)")
print()

inst = build_instance(60, [0.3, 0.3], [14, 20])
logf = lambda s: log_dirichlet_integrand(inst, s)
exact = survival_exact(inst)
print(f"d = 2, n = 60: exact route {exact:.15f}")
print("tensor-product rule (nodes per axis -> value, change):")
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

# the chain rule works in log space, so it is indifferent to the overall
# scale of the integrand: adding c to the constant adds c to the log of the
# integral, even where exp(c) alone underflows
c = -800.0
f = dirichlet_factors(inst)
_, log_base = integrate_chain(inst.weights, f.constant, f.steps, f.end, powers=f.powers)
_, log_shifted = integrate_chain(inst.weights, f.constant + c, f.steps, f.end, powers=f.powers)
print(f"shift invariance: |(log I[logf + c] - c) - log I[logf]| = "
      f"{abs(log_shifted - c - log_base):.2e}  (c = {c})")
