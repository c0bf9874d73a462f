#!/usr/bin/env python3
# Tour of the shell spectrum as the coupling sweeps through the flat-band
# transition.  The set is always two closed rays; at eta = +-2 an infinitely
# degenerate eigenvalue appears at zero energy, and for eta between the
# critical values the extra band attaches to the negative side when
# eta * (eta^2 - 4) < 0.

from fractions import Fraction

from diracshell import ShellParams, band_edge, full_spectrum


def describe(desc):
    parts = []
    for comp in desc.components:
        d = comp.to_dict()
        if d["kind"] == "ray-left":
            parts.append(f"(-inf, {d['endpoint']:+.6f}]")
        elif d["kind"] == "ray-right":
            parts.append(f"[{d['endpoint']:+.6f}, +inf)")
        else:
            parts.append(f"{{{d['value']:g}}} x{d['multiplicity']}")
    return "  u  ".join(parts)


print("spectrum of the shell operator, m = 1")
print("=" * 64)
for eta_str in ("-3", "-2", "-1", "-1/2", "0", "1/2", "1", "2", "3"):
    params = ShellParams.from_decimal(eta_str, "1")
    desc = full_spectrum(params)
    tag = "critical" if params.critical else ("free" if params.eta == 0 else "")
    print(f"eta = {eta_str:>4}:  {describe(desc):<52} {tag}")

print()
print("band edge m |eta^2 - 4| / (eta^2 + 4) as an exact rational")
print("-" * 64)
for eta_str in ("1", "2", "3", "1/3", "8/3"):
    params = ShellParams.from_decimal(eta_str, "1")
    print(f"eta = {eta_str:>4}:  edge = {band_edge(params):.17g}  (= {params.band_ratio})")

print()
print("coupling inversion eta -> -4/eta leaves the set unchanged")
print("-" * 64)
for eta_str in ("1", "3", "-3/2"):
    params = ShellParams.from_decimal(eta_str, "1")
    partner = Fraction(-4) / params.eta_exact
    a = describe(full_spectrum(params))
    b = describe(full_spectrum(ShellParams.from_decimal(str(partner), "1")))
    print(f"eta = {eta_str:>4} vs {str(partner):>4}:  match = {a == b}")
