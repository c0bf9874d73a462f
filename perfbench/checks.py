"""Checks of the program's outputs against computations made apart from it.

* Resolvent: a Fourier-space reference built here with numpy,
  u_hat = (sigma.p + m sigma_3 + z) f_hat / (|p|^2 + m^2 - z^2), from the
  closed-form transform of the Gaussian source; and, on every
  central-difference stencil of targets, the round trip (D - z) u = f.
* Kernel points: green_kernel against the closed form evaluated with
  mpmath's K0/K1; the residual and its coarse/fine ratio against the
  program's documented bounds.
* verify: the rows run must match the regime derived in exact Fraction
  arithmetic, and each row's status must follow from its own measured
  value and threshold.

Each check returns a list of problems; an empty list means the output
passed.  Thresholds are the program's documented tolerances, except
REFERENCE_TOL below.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath
import numpy as np

from diracshell.tolerances import (
    BESSEL_REL_TOL,
    PDE_RESIDUAL_TOL,
    RESOLVENT_ROUNDTRIP_TOL,
    RICHARDSON_RATIO_BOUNDS,
)

import workloads

# Node-sum quadrature against the continuum resolvent of the untruncated
# Gaussian, relative to the source peak.  Measured at most 1.5e-4 on the
# 61^2 grid for target blocks within 8 nodes of the centre; it falls like
# h^2 (3e-4 at 41^2), so a wrong kernel or singular cell cannot stay under.
REFERENCE_TOL = 1e-3
# Trapezoid grid of the reference in momentum space: p in [-60, 60)^2 with
# 1024 nodes per axis.  The Gaussian factor is below 3e-18 beyond |p| = 60,
# and the images the rule adds lie 2 pi / dp = 54 apart; on 1536 nodes over
# [-70, 70)^2 the reference changes by 1e-13 relative.
P_TOP = 60.0
P_COUNT = 1024


def source(points, c2: complex) -> np.ndarray:
    """The Gaussian 2-spinor source at points of shape (k, 2)."""
    pts = np.asarray(points, dtype=float)
    g = np.exp(-(pts[:, 0] ** 2 + pts[:, 1] ** 2) / (2.0 * workloads.SIGMA ** 2))
    return np.stack([g, c2 * g], axis=1)


def fourier_resolvent(m: float, z: complex, c2: complex, points) -> np.ndarray:
    """Free resolvent of the source at the points, shape (k, 2), by the
    trapezoid rule in momentum space:
    u(x) = (2 pi)^-2 int exp(i p.x) (sigma.p + m sigma_3 + z) f_hat(p) / (|p|^2 + m^2 - z^2) dp,
    with f_hat = 2 pi sigma^2 exp(-sigma^2 |p|^2 / 2) (1, c2)."""
    pts = np.asarray(points, dtype=float)
    sigma = workloads.SIGMA
    p = np.linspace(-P_TOP, P_TOP, P_COUNT, endpoint=False)
    dp = p[1] - p[0]
    p1, p2 = p[:, None], p[None, :]
    q = p1 * p1 + p2 * p2
    g = 2.0 * math.pi * sigma ** 2 * np.exp(-0.5 * sigma ** 2 * q) / (q + m * m - z * z)
    w1 = ((z + m) + (p1 - 1j * p2) * c2) * g
    w2 = ((p1 + 1j * p2) + (z - m) * c2) * g
    e1 = np.exp(1j * np.outer(pts[:, 0], p))
    e2 = np.exp(1j * np.outer(pts[:, 1], p))
    scale = dp * dp / (4.0 * math.pi ** 2)
    u1 = np.einsum("kp,kp->k", e1, e2 @ w1.T)
    u2 = np.einsum("kp,kp->k", e1, e2 @ w2.T)
    return scale * np.stack([u1, u2], axis=1)


def stencil_gap(u_plus, h: float, m: float, z: complex, f_centre) -> float:
    """max |(D - z) u - f| at the centre of a plus stencil, by central
    differences; u_plus holds u at the centre, +x1, -x1, +x2, -x2 nodes
    (the order of workloads.PLUS)."""
    uc, ue, uw, un, us = (np.asarray(v) for v in u_plus)
    d1 = (ue - uw) / (2.0 * h)
    d2 = (un - us) / (2.0 * h)
    r1 = -1j * d1[1] - d2[1] + (m - z) * uc[0]
    r2 = -1j * d1[0] + d2[0] - (m + z) * uc[1]
    return max(abs(r1 - f_centre[0]), abs(r2 - f_centre[1]))


def round_trip_gap(u, offsets, f, h: float, m: float, z: complex) -> float:
    """Largest stencil_gap over the targets whose four neighbours are
    targets too; u and f hold the values at the targets, in offset order."""
    index = {tuple(off): k for k, off in enumerate(offsets)}
    gap = 0.0
    for (i, j), k in index.items():
        plus = [index.get((i + di, j + dj)) for di, dj in workloads.PLUS]
        if None not in plus:
            gap = max(gap, stencil_gap([u[q] for q in plus], h, m, z, f[k]))
    return gap


def check_resolvent(u, reference, peak: float) -> list:
    if np.shape(u) != np.shape(reference):
        return [f"resolvent output has shape {np.shape(u)}, expected {np.shape(reference)}"]
    err = float(np.max(np.abs(np.asarray(u) - reference))) / peak
    if not err <= REFERENCE_TOL:
        return [f"resolvent differs from the Fourier reference by {err:.3e} of the peak"]
    return []


def check_round_trip(gap: float, peak: float) -> list:
    if not gap / peak <= RESOLVENT_ROUNDTRIP_TOL:
        return [f"round trip (D - z) u - f is {gap / peak:.3e} of the peak"]
    return []


def kernel_closed_form(m: float, z: complex, x) -> np.ndarray:
    """G_z(x) = (i a / 2 pi) K1(a r) (sigma.x)/r + (1 / 2 pi) K0(a r) (z + m sigma_3),
    a = sqrt(m^2 - z^2) with Re a > 0, with mpmath's Bessel functions."""
    with mpmath.workdps(30):
        x1, x2 = mpmath.mpf(x[0]), mpmath.mpf(x[1])
        r = mpmath.sqrt(x1 * x1 + x2 * x2)
        zz = mpmath.mpc(z)
        a = mpmath.sqrt(m * m - zz * zz)
        k0 = mpmath.besselk(0, a * r) / (2 * mpmath.pi)
        k1 = 1j * a * mpmath.besselk(1, a * r) / (2 * mpmath.pi * r)
        g = [[(zz + m) * k0, k1 * (x1 - 1j * x2)], [k1 * (x1 + 1j * x2), (zz - m) * k0]]
        return np.array([[complex(v) for v in row] for row in g])


def check_kernel(kernel, reference) -> list:
    err = float(np.max(np.abs(np.asarray(kernel) - reference)) / np.max(np.abs(reference)))
    if not err <= BESSEL_REL_TOL:
        return [f"green_kernel differs from the mpmath closed form by {err:.3e} relative"]
    return []


def check_residuals(coarse, fine) -> list:
    """PDE residual at h = 1e-3 and its ratio to the residual at h = 2e-3."""
    top_c = float(np.max(np.abs(coarse)))
    top_f = float(np.max(np.abs(fine)))
    problems = []
    if not top_f <= PDE_RESIDUAL_TOL:
        problems.append(f"pde residual {top_f:.3e} above {PDE_RESIDUAL_TOL:g}")
    lo, hi = RICHARDSON_RATIO_BOUNDS
    if not (top_f > 0.0 and lo <= top_c / top_f <= hi):
        problems.append(f"residual ratio {top_c:.3e}/{top_f:.3e} outside [{lo}, {hi}]")
    return problems


SUITE_ROWS = (
    ("symbol", ("det_closed_vs_direct", "inverse_product", "anchor_split", "anchor_independence")),
    ("oracle", ("fiber_vs_dispersion",)),
    ("critical", None),
    ("limits", ("sup_decay_ratio", "im_limit_floor", "im_limit_cauchy")),
    ("greens", ("pde_residual", "pde_richardson_ratio", "bessel_derivative", "fourier_pair")),
)


def expected_rows(eta: Fraction, m: Fraction) -> list:
    """(row name, applicable) of verify --suite all, in order, from the exact
    parameters: symbols need eta != 0; the fiber oracle needs a non-critical
    eta != 0; the zero-energy kernel needs m != 0 and is a sup check iff
    eta^2 = 4; the limits need eta != 0 and m != 0."""
    critical = eta * eta == 4
    rows = []
    for suite, names in SUITE_ROWS:
        if suite == "critical":
            if m == 0:
                rows.append(("zero_energy_kernel", False))
            elif critical:
                rows.append(("critical_kernel_sup", True))
            else:
                rows.append(("detuned_kernel_floor", eta != 0))
            continue
        ok = {
            "symbol": eta != 0,
            "oracle": eta != 0 and not critical,
            "limits": eta != 0 and m != 0,
            "greens": True,
        }[suite]
        rows.extend((name, ok) for name in names)
    return rows


def _row_passes(row) -> bool:
    measured, threshold, comparison = row["measured"], row["threshold"], row["comparison"]
    if comparison == "<=":
        return measured <= threshold
    if comparison == ">=":
        return measured >= threshold
    if comparison == "in":
        return threshold[0] <= measured <= threshold[1]
    raise ValueError(f"unknown comparison {comparison!r}")


def check_verify(text: str, eta: str, m: str) -> list:
    """The document of a verify op that exited 0."""
    where = f"verify --eta={eta} --m={m}"
    try:
        doc = json.loads(text)
    except ValueError:
        return [f"{where}: output is not JSON"]
    eta_q, m_q = Fraction(eta), Fraction(m)
    problems = []
    if doc.get("pass") is not True:
        problems.append(f"{where}: exit 0 with pass {doc.get('pass')!r}")
    if doc.get("eta") != float(eta_q) or doc.get("m") != float(m_q) or doc.get("suite") != "all":
        problems.append(f"{where}: header {doc.get('suite')!r}, {doc.get('eta')!r}, {doc.get('m')!r}")
    rows = doc.get("checks", [])
    got = [(row.get("name"), row.get("status") != "not-applicable") for row in rows]
    if got != expected_rows(eta_q, m_q):
        problems.append(f"{where}: rows {got} do not match the regime")
        return problems
    for row in rows:
        if row["status"] == "not-applicable":
            continue
        try:
            status = "pass" if _row_passes(row) else "fail"
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            status = f"unreadable ({exc!r})"
        if row["status"] != status:
            problems.append(f"{where}: {row['name']} reads {row['status']}, its numbers say {status}")
    return problems


def is_error(out) -> bool:
    return isinstance(out, dict) and "error" in out


def check_run(workload: str, inputs: dict, report: dict) -> tuple:
    """(failed op count, problems) over every timed op of a run."""
    cycle = inputs["cycle"]
    outputs = report["outputs"]
    failed = 0
    problems = []
    if workload == "verify_sweep":
        for i, out in enumerate(outputs):
            entry = cycle[i % len(cycle)]
            if is_error(out) or out[0] != 0:
                failed += 1
                continue
            problems += check_verify(out[1], entry["eta"], entry["m"])
        return failed, problems
    if workload == "kernel_points":
        for entry, kernel in zip(cycle, report["kernels"]):
            problems += check_kernel(kernel, kernel_closed_form(workloads.MASS, entry["z"], entry["x"]))
        for out in outputs:
            if is_error(out):
                failed += 1
            else:
                problems += check_residuals(*out)
        return failed, problems
    c2 = inputs["c2"]
    m, h = workloads.MASS, workloads.spacing()
    peak = max(1.0, abs(c2))
    refs = [fourier_resolvent(m, e["z"], c2, e["targets"]) for e in cycle]
    for i, out in enumerate(outputs):
        if is_error(out):
            failed += 1
            continue
        e = cycle[i % len(cycle)]
        problems += check_resolvent(out, refs[i % len(cycle)], peak)
        gap = round_trip_gap(np.asarray(out), e["offsets"], source(e["targets"], c2), h, m, e["z"])
        problems += check_round_trip(gap, peak)
    return failed, problems
