#!/usr/bin/env python3
# The free-resolvent kernel in closed Bessel form: evaluate it, difference it
# against the equation it must solve, push a Gaussian source through the
# resolvent quadrature, and watch quasi-mode residuals vanish as the packets
# concentrate on the dispersion curve.

import numpy as np

from diracshell import (
    SampledField,
    ShellParams,
    dispersion_energy,
    green_kernel,
    pde_residual,
    quasimode_residual,
    resolvent_apply,
)

M, Z = 1.0, 0.5j

g = green_kernel(M, Z, (1.0, 0.0))
print(f"kernel at x = (1, 0), m = {M:g}, z = {Z}")
print(f"  [{g.a11:+.6f}  {g.a12:+.6f}]")
print(f"  [{g.a21:+.6f}  {g.a22:+.6f}]")
h = green_kernel(M, np.conj(Z), (-1.0, -0.0)).as_array().conj().T
print(f"conjugate symmetry gap: {np.max(np.abs(g.as_array() - h)):.2e}")
print()

print("entrywise decay along the diagonal x = (r, r)")
for r in (2.0, 5.0, 10.0, 15.0):
    val = green_kernel(M, Z, (r, r)).max_abs()
    print(f"  r = {r:4.1f}  max|entry| = {val:.3e}")
print()

print("second-order convergence of the difference-quotient residual")
for hh in (4e-3, 2e-3, 1e-3):
    res = pde_residual(M, Z, (1.0, 0.5), hh).max_abs()
    print(f"  h = {hh:.0e}  residual = {res:.3e}")
print()

# push a two-component Gaussian through the resolvent and difference the
# output back: (D - z) u must reproduce the source
sigma = 0.15

def source(u, v):
    amp = np.exp(-(u * u + v * v) / (2.0 * sigma * sigma))
    return (amp, 0.5 * amp)

field = SampledField.sample(source, 0.6, 61)
step = 0.02
nodes = np.linspace(-3 * step, 3 * step, 7)
pts = np.array([(a, b) for a in nodes for b in nodes])
u = resolvent_apply(M, Z, field, pts).reshape(7, 7, 2)
worst = 0.0
for i in range(1, 6):
    for j in range(1, 6):
        d1 = (u[i + 1, j] - u[i - 1, j]) / (2 * step)
        d2 = (u[i, j + 1] - u[i, j - 1]) / (2 * step)
        r1 = -1j * d1[1] - d2[1] + (M - Z) * u[i, j, 0]
        r2 = -1j * d1[0] + d2[0] - (M + Z) * u[i, j, 1]
        f1, f2 = source(nodes[i], nodes[j])
        worst = max(worst, abs(r1 - f1), abs(r2 - f2))
print(f"resolvent round-trip: worst relative gap {100 * worst:.2f}% "
      f"on a 5 x 5 probe lattice")
print()

params = ShellParams(1.0, 1.0)
print("quasi-mode residuals R(w) for packets centred at p0 on the band")
print(f"{'w':>8}  {'p0 = 0':>12}  {'p0 = 2':>12}")
for w in (0.5, 0.25, 0.125, 0.0625):
    r0 = quasimode_residual(params, 0.0, w)
    r2 = quasimode_residual(params, 2.0, w)
    print(f"{w:>8.4f}  {r0:>12.6f}  {r2:>12.6f}")
print(f"band energies: z(0) = {dispersion_energy(params, 0.0):+.6f}, "
      f"z(2) = {dispersion_energy(params, 2.0):+.6f}")
print("every band point is approximate spectrum: the residuals tend to zero")
