"""Independent fiber oracle for the in-gap band.

Fourier transforming along the shell direction decomposes the operator
into a family of transmission problems on the transverse line, indexed by
the longitudinal momentum p.  At energy z inside the fiber gap
(-sqrt(p^2+m^2), sqrt(p^2+m^2)) each half-line carries exactly one decaying
solution of the fiber system

    (sigma_1 p +/- i kappa sigma_2 + m sigma_3) v = z v,
    kappa = sqrt(p^2 + m^2 - z^2) > 0,

and z is a fiber eigenvalue exactly when some combination of the two
decaying solutions satisfies the transmission condition

    i sigma_2 (f_up - f_down) = (eta/2) (f_up + f_down)      on the shell.

matching_determinant evaluates the determinant of that 2x2 homogeneous
system.  From the boundary-symbol module this module takes ShellParams
alone, and besides eta and m it reads only the exact fields: critical to
guard kernel_at_zero_scan, band_sign to refuse eta in {0, +2, -2},
band_ratio to place the upper end of fiber_eigenvalue's scan, and
band_sign * band_ratio as the band's slope scale in quasimode_residual.
The root itself is a sign change of the matching determinant, which is
formed from eta, m, p and z alone and calls no symbol function, so
agreement of the roots with the closed-form dispersion relation checks
both routes.

A normalization detail that matters: the textbook solution vectors
(p + kappa, z - m) and (p - kappa, z - m) each vanish identically at one
interior energy (z = m or z = -m, where the second component and, at
kappa = |p|, the first both cross zero), which would plant a spurious root
of the determinant there.  The determinant is therefore formed from the
equivalent rescaled pair

    up   = (|p| + kappa, z - m),      down = (z + m, |p| + kappa),

whose leading entries stay strictly positive across the whole gap; the
fiber at -p is unitarily equivalent to the fiber at +p, so evaluating at
|p| loses nothing.
"""
from __future__ import annotations

import math

import numpy as np

from .numerics import tanh_sinh
from .symbol import ShellParams
from .tolerances import (
    FIBER_BISECT_TOL,
    FIBER_GAP_MARGIN,
    FIBER_SCAN_NODES,
)

__all__ = [
    "matching_determinant",
    "fiber_eigenvalue",
    "kernel_at_zero_scan",
    "quasimode_residual",
]


def _require_in_gap(m: float, p, z) -> None:
    """Domain check: every real z lies strictly inside the fiber gap at its
    p (broadcastable arrays)."""
    p, z = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(z, dtype=float))
    half = np.hypot(p, m)
    outside = ~(np.abs(z) < half)
    if np.any(outside):
        p, z, half = (float(v[outside][0]) for v in (p, z, half))
        raise ValueError(
            f"z = {z!r} is outside the open fiber gap (-{half!r}, {half!r}) at p = {p!r}"
        )


def _match_det_raw(eta: float, m: float, p, z):
    """Matching determinant at p and real z, both floats or broadcastable
    float arrays.  Floats stay Python floats (the bisection's scalar calls
    would spend most of their time in numpy's 0-d overhead); both give the
    same bits.

    Columns of the homogeneous system in the coefficients (alpha, beta):
    A = (i sigma_2 - eta/2) up and B = -(i sigma_2 + eta/2) down, with
    i sigma_2 acting as (v1, v2) -> (v2, -v1).
    """
    sqrt = np.sqrt if isinstance(p, np.ndarray) or isinstance(z, np.ndarray) else math.sqrt
    p = abs(p)
    kappa = sqrt(p * p + m * m - z * z)
    lead = p + kappa
    up = (lead, z - m)
    down = (z + m, lead)
    a1 = up[1] - 0.5 * eta * up[0]
    a2 = -up[0] - 0.5 * eta * up[1]
    b1 = -down[1] - 0.5 * eta * down[0]
    b2 = down[0] - 0.5 * eta * down[1]
    return a1 * b2 - a2 * b1


def matching_determinant(params: ShellParams, p, z):
    """Determinant of the transmission matching system at real z in the open
    fiber gap.  Vanishes exactly at fiber eigenvalues; at critical coupling
    and z = 0 it vanishes identically in p (the flat band).  p and z
    broadcast: arrays give an array of determinants."""
    _require_in_gap(params.m, p, z)
    det = _match_det_raw(params.eta, params.m, np.asarray(p, dtype=float), np.asarray(z, dtype=float))
    return complex(float(det)) if det.ndim == 0 else det.astype(complex)


def fiber_eigenvalue(params: ShellParams, p: float):
    """The unique root of the matching determinant inside the fiber gap,
    or None when the scan finds no sign change.

    Sign-scan over FIBER_SCAN_NODES nodes spanning the gap up to a relative
    end margin FIBER_GAP_MARGIN (kappa degenerates at the endpoints), then
    bisection to FIBER_BISECT_TOL or to adjacent floats, whichever comes
    first.  Where the band edge ratio lies inside that margin, the scan
    ends halfway from it to the gap edge.  Undefined for eta in {0, +2, -2};
    ValueError for a non-finite p.
    """
    params.require_band()
    p = float(p)
    if not math.isfinite(p):
        raise ValueError(f"momentum must be finite, got {p!r}")
    half = math.hypot(p, params.m)
    if half == 0.0:
        raise ValueError("empty fiber gap (m = 0 and p = 0)")
    top = half * max(1.0 - FIBER_GAP_MARGIN, float((1 + params.band_ratio) / 2))
    if top >= half:  # the band is within rounding of the gap edge
        return None
    # the determinant is homogeneous of degree 2 in (p, m, z): its signs are
    # read at (p, m, z) 2^e with |(p, m)| 2^e in [1/2, 1), where squaring
    # neither over- nor underflows, and are exact wherever the plain
    # squares are normal floats
    e = -math.frexp(half)[1]
    p_e, m_e = math.ldexp(p, e), math.ldexp(params.m, e)

    def det_at(z: float) -> float:
        return _match_det_raw(params.eta, m_e, p_e, math.ldexp(z, e))

    zs = np.linspace(-top, top, FIBER_SCAN_NODES)
    det = _match_det_raw(params.eta, m_e, p_e, np.ldexp(zs, e))
    hits = np.nonzero(det == 0.0)[0]
    if hits.size:
        return float(zs[hits[0]])
    flips = np.nonzero(np.signbit(det[:-1]) != np.signbit(det[1:]))[0]
    if flips.size == 0:
        return None
    if flips.size > 1:
        raise RuntimeError(
            f"multiple sign changes of the matching determinant at p = {p!r}"
        )
    lo, hi = float(zs[flips[0]]), float(zs[flips[0] + 1])
    f_lo = det_at(lo)
    while hi - lo > FIBER_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats, as for |z| > 8192: no smaller bracket
            break
        f_mid = det_at(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_ZERO_ENERGY_GRID = np.linspace(-50.0, 50.0, 2001)  # the momenta of the z = 0 scans


def kernel_at_zero_scan(params: ShellParams) -> float:
    """max over _ZERO_ENERGY_GRID, 2001 momenta evenly spaced on [-50, 50],
    of |matching determinant at z = 0|.

    At critical coupling this is the flat-band certificate: the determinant
    vanishes for every p.  Requires critical parameters (and m != 0, so that
    z = 0 lies inside every fiber gap).
    """
    if not params.critical:
        raise ValueError(
            f"kernel scan requires critical coupling (eta = +/-2), got {params.eta!r}"
        )
    if params.m == 0.0:
        raise ValueError("m = 0: z = 0 is the edge of the fiber gap at p = 0")
    return float(np.max(np.abs(matching_determinant(params, _ZERO_ENERGY_GRID, 0.0))))


def quasimode_residual(params: ShellParams, p0: float, width: float) -> float:
    """Relative residual of a wave packet glued from fiber eigenvectors with
    a Gaussian momentum envelope of standard deviation `width` around p0:

        R = sqrt( int g^2 (z(p) - z(p0))^2 dp / int g^2 dp ),

    integrated by tanh_sinh in the packet variable s = (p - p0) / width over
    [-8, 8], so that p - p0 never loses digits to rounding however narrow
    the packet or far from p = 0 its centre.  The packet weight g^2 is the
    Gaussian density with standard deviation `width`, so for small widths
    R ~ |z'(p0)| width where the band has slope and R ~ width^2 at its
    extremum; as z is Lipschitz with constant band_ratio, R never exceeds
    band_ratio * width.  With the fiber eigenfunctions normalized the packet
    satisfies ||(A - z(p0)) f|| / ||f|| = R, so R -> 0 certifies that z(p0)
    belongs to the spectrum.  ValueError for a non-finite p0 or width, or a
    width <= 0."""
    if not (math.isfinite(p0) and math.isfinite(width)):
        raise ValueError(f"packet centre and width must be finite, got {p0!r} and {width!r}")
    if width <= 0.0:
        raise ValueError(f"envelope width must be positive, got {width!r}")
    # z(p) = scale * sqrt(p^2 + m^2), the band of dispersion_energy
    scale = params.require_band() * float(params.band_ratio)
    # (z(p) - z(p0)) / width = scale s (2 p0 + width s) / (|(p, m)| + |(p0, m)|)
    # is homogeneous of degree 0 in (p0, width, m): a power of two brings
    # their largest near 1, so that nothing under- or overflows
    e = -math.frexp(max(abs(p0), width, abs(params.m)))[1]
    p0, w, m = (math.ldexp(v, e) for v in (p0, width, params.m))
    base = math.hypot(p0, m)
    # the quotient is then at most of the order of max(|p0|, width), which
    # underflows once squared when |m| is far above both: a second power of
    # two lifts it near 1 before the squaring, and the result drops it again
    g = -math.frexp(max(abs(p0), w))[1]

    def envelope_sq(s):
        return np.exp(-0.5 * s * s)

    def weighted(s):
        # without the cancellation of z(p) - z(p0) near the band's extremum
        dz = np.ldexp(scale * s * (2.0 * p0 + w * s) / (np.hypot(p0 + w * s, m) + base), g)
        return envelope_sq(s) * dz * dz

    # for |m| << width the band has a corner at p = 0, s = -p0 / width: one
    # piece on each side
    cut = [-8.0, -p0 / w, 8.0] if abs(p0) < 8.0 * w else [-8.0, 8.0]
    num = sum(tanh_sinh(weighted, a, b) for a, b in zip(cut, cut[1:]))
    den = tanh_sinh(envelope_sq, -8.0, 8.0)
    return math.ldexp(width * math.sqrt(float(num) / float(den)), -g)
