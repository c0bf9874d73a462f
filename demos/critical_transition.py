#!/usr/bin/env python3
# The zero-energy fiber matching determinant over momentum: identically zero
# at the critical couplings eta = +-2 (every fiber carries a zero mode, the
# flat band), bounded away from zero the moment eta is detuned.

import numpy as np

from diracshell import ShellParams, kernel_at_zero_scan, matching_determinant

M = 1.0
GRID = np.linspace(-50.0, 50.0, 2001)

print("sup and min of |matching determinant at z = 0| over |p| <= 50, m = 1")
print(f"{'eta':>6}  {'sup |det|':>12}  {'min |det|':>12}")
for eta in (1.7, 1.9, 1.99, 2.0, 2.01, 2.1, 2.3, -2.0, -2.1):
    params = ShellParams(eta, M)
    dets = np.array([abs(matching_determinant(params, float(p), 0.0)) for p in GRID])
    print(f"{eta:>6.2f}  {dets.max():>12.3e}  {dets.min():>12.3e}")

print()
print("the critical scan helper reports the sup over the same grid directly:")
for eta in (2.0, -2.0):
    for m in (0.5, 1.0):
        top = kernel_at_zero_scan(ShellParams(eta, m))
        print(f"  eta = {eta:+.0f}, m = {m:g}:  sup = {top:.3e}")

print()
print("profile of |det| in p at fixed detuning (the floor sits at p = 0):")
params = ShellParams(2.1, M)
for p in (0.0, 1.0, 5.0, 20.0, 50.0):
    d = abs(matching_determinant(params, p, 0.0))
    bar = "#" * int(min(60, d / 2.0))
    print(f"  p = {p:5.1f}  |det| = {d:12.4f}  {bar}")
