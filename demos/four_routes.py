"""Evaluate one survival probability through all four routes.

The event P(X_1 >= 2, X_1 + X_2 >= 5) for X ~ Multinomial(12, (0.3, 0.3, 0.4))
is computed by the exact sequential-binomial recursion, by the Dirichlet-type integral over the
nested region, by the Gaussian-representation integral, and by simulating the
underlying order-statistics event.  The three deterministic routes agree to
near machine precision; the Monte Carlo estimate agrees within a few standard
errors.
"""

from mnsurv import (
    QuadratureSpec,
    build_instance,
    compare_routes,
    survival_dirichlet,
    survival_exact,
    survival_gaussian,
    survival_mc,
)

inst = build_instance(12, [0.3, 0.3], [2, 3])
print(f"n = {inst.n}, weights p = {inst.p.tolist()} (+ implicit {inst.weights.p_last:.2f})")
print(f"thresholds k = {inst.k.tolist()}, running sums kappa = {inst.kappa.tolist()}")
print(f"gaps j = {inst.j.tolist()}, offsets J = {inst.J.tolist()}, N = {inst.N}")
print()

spec = QuadratureSpec(nodes=48)
exact = survival_exact(inst)
diri = survival_dirichlet(inst, spec)
gauss = survival_gaussian(inst, spec)
mc_est, mc_se = survival_mc(inst, 500_000, seed=20240817)

print(f"exact recursion     {exact:.15f}")
print(f"dirichlet integral  {diri:.15f}   (rel diff {abs(diri-exact)/exact:.2e})")
print(f"gaussian integral   {gauss:.15f}   (rel diff {abs(gauss-exact)/exact:.2e})")
print(f"monte carlo         {mc_est:.6f} +- {mc_se:.6f}   ({abs(mc_est-exact)/mc_se:.2f} stderr off)")
print()

# the report object bundles the same information plus diagnostics
report = compare_routes(inst, spec, replications=500_000, seed=1)
print(f"max relative difference across deterministic routes: {report.max_rel_diff:.2e}")
print(f"diagnostics: delta_N = {report.delta_n:.6f}, gamma_tilde = {report.gamma_tilde:.6f}")
print()

# zero thresholds are vacuous and merge away; infeasible thresholds give 0
print("reduction and edge cases:")
for k in ([0, 3], [0, 0], [9, 9]):
    r = compare_routes(build_instance(12, [0.3, 0.3], k), spec)
    print(f"  k = {k}: exact = {r.exact}, dirichlet = {r.dirichlet}")
