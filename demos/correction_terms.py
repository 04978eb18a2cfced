"""How the correction terms of the Gaussian representation behave.

The prefactor correction delta_N vanishes as the sample grows when the
thresholds track their means; the tilt gamma_tilde is captured by its
cubic+quartic expansion with a fifth-order truncation error, demonstrated
here by scaling the offset down and watching the error drop by 2^5 per
halving.
"""

import numpy as np

from mnsurv import (
    build_instance,
    expansion_context,
    gamma_tilde,
    gamma_tilde_series,
    stirling_lambda,
)

print("Stirling error lambda_m against its classical bracket:")
for m in (1, 2, 5, 20, 100, 10**6):
    lam = stirling_lambda(m)
    print(f"  m = {m:>7}: lambda = {lam:.12e}  in [{1/(12*m+1):.6e}, {1/(12*m):.6e}]")
print()

print("delta_N along a mean-tracking sequence (d = 1, p = 0.3, k = round(N p) + 1):")
for N in (50, 100, 500, 1000, 5000, 10000):
    inst = build_instance(N + 1, [0.3], [round(N * 0.3) + 1])
    print(f"  N = {N:5d}: delta_N = {expansion_context(inst).delta_n:+.6e}")
print()

inst = build_instance(40, [0.22, 0.34], [11, 16])
print(f"instance n = {inst.n}, k = {inst.k.tolist()}: gamma_tilde = {gamma_tilde(inst):.10e}")
print(f"cubic+quartic expansion:                      {gamma_tilde_series(inst):.10e}")
print()

print("truncation error under offset scaling (each halving ~ factor 32):")
prev = None
for t in (0.4, 0.2, 0.1, 0.05):
    err = abs(gamma_tilde(inst, t) - gamma_tilde_series(inst, t))
    ratio = "" if prev is None else f"  ratio {prev / err:.1f}"
    print(f"  t = {t:4.2f}: |error| = {err:.3e}{ratio}")
    prev = err
