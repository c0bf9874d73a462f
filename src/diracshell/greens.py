"""Free-resolvent kernel on the plane and its quadrature application.

For z off the free spectrum the resolvent of the free operator acts by
convolution with the matrix kernel

    G_z(x) = (i a / 2 pi) K_1(a |x|) (sigma . x)/|x|
             + (1 / 2 pi) K_0(a |x|) (z sigma_0 + m sigma_3),
    a = branch_sqrt(m^2 - z^2),

whose entries blow up like log |x| (K_0 part) and 1/|x| (K_1 part) at the
origin; both are locally integrable in 2D.  The module evaluates the
kernel, checks pointwise that its columns solve the homogeneous equation
away from the origin (pde_residual), verifies the K_0 Fourier pair that
underlies the boundary-symbol computation, and applies the resolvent to
sampled compactly supported data by node-sum quadrature with a dedicated
polar rule on the singular cell.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import Mat2C, _ts_nodes, bessel_k, bessel_k01_ray, branch_sqrt, pauli

__all__ = [
    "green_kernel",
    "pde_residual",
    "fourier_pair_check",
    "SampledField",
    "resolvent_apply",
]

_TWO_PI = 2.0 * math.pi


def green_kernel(m: float, z: complex, x) -> Mat2C:
    """Kernel matrix G_z(x) at a single point x != 0.

    Domain errors for z on the free spectrum propagate from branch_sqrt
    (m^2 - z^2 lands on its cut exactly for real z with |z| >= |m|).
    """
    m = float(m)
    z = complex(z)
    x1, x2 = float(x[0]), float(x[1])
    r = math.hypot(x1, x2)
    if r == 0.0:
        raise ValueError("the kernel is singular at x = 0")
    a = branch_sqrt(m * m - z * z)
    k0 = bessel_k(0, a * r)
    k1 = bessel_k(1, a * r)
    angular = pauli(1).scale(x1 / r) + pauli(2).scale(x2 / r)
    mass = pauli(0).scale(z) + pauli(3).scale(m)
    return angular.scale(1j * a * k1 / _TWO_PI) + mass.scale(k0 / _TWO_PI)


def pde_residual(m: float, z: complex, x, h: float) -> Mat2C:
    """Central-difference evaluation of (-i sigma.grad + m sigma_3 - z) G_z
    at x, acting on both kernel columns at once.

    Entrywise O(h^2) as h -> 0; requires h < |x|/4 so the stencil stays
    well away from the singularity.
    """
    x1, x2 = float(x[0]), float(x[1])
    h = float(h)
    r = math.hypot(x1, x2)
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h!r}")
    if h >= r / 4.0:
        raise ValueError(f"step {h!r} too coarse for |x| = {r!r} (need h < |x|/4)")
    inv2h = 1.0 / (2.0 * h)
    dx1 = (green_kernel(m, z, (x1 + h, x2)) - green_kernel(m, z, (x1 - h, x2))).scale(inv2h)
    dx2 = (green_kernel(m, z, (x1, x2 + h)) - green_kernel(m, z, (x1, x2 - h))).scale(inv2h)
    g = green_kernel(m, z, (x1, x2))
    grad = (pauli(1) @ dx1) + (pauli(2) @ dx2)
    return grad.scale(-1j) + (pauli(3) @ g).scale(m) - g.scale(z)


# ----------------------------------------------------------------------------
# K0 Fourier pair
# ----------------------------------------------------------------------------

def _k01_batch(a: complex, x: np.ndarray, block: int = 16384):
    """K0 and K1 at a*x over a positive array, in memory-bounded blocks (the
    quadrature behind bessel_k01_ray tabulates radii x integration nodes)."""
    k0_parts, k1_parts = [], []
    for lo in range(0, x.size, block):
        k0, k1 = bessel_k01_ray(a, x[lo : lo + block])
        k0_parts.append(k0)
        k1_parts.append(k1)
    return np.concatenate(k0_parts), np.concatenate(k1_parts)


def fourier_pair_check(kappa: float, p_grid=None) -> float:
    """Max relative error of the numerical cosine transform of K0(kappa|x|)
    against the closed form sqrt(pi/2) / sqrt(p^2 + kappa^2) over the grid.

    The integrand is even, so the transform reduces to
    sqrt(2/pi) int_0^inf K0(kappa x) cos(p x) dx.  The head cell absorbs the
    logarithmic singularity with a double-exponential rule; the rest is cut
    into chunks short against both the decay scale 1/kappa and the fastest
    oscillation, each handled by 16-point Gauss-Legendre.  Truncating at
    kappa x = 30 leaves a tail below 1e-13 relative.
    """
    kappa = float(kappa)
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa!r}")
    grid = np.linspace(-20.0, 20.0, 41) if p_grid is None else np.asarray(p_grid, dtype=float)
    p_top = max(1.0, float(np.max(np.abs(grid))))
    step = min(0.5 / kappa, math.pi / (4.0 * p_top))
    # truncation at kappa*x = 29 leaves a tail below 1e-13, well under the
    # 1e-6 target, and keeps every Bessel argument inside the engine's range
    x_top = 29.0 / kappa

    ts_h = 1.0 / 16.0
    head_x, head_w = _ts_nodes(0.0, step, ts_h, False)
    head_w = ts_h * head_w

    n_chunk = int(math.ceil((x_top - step) / step))
    gl_t, gl_w = np.polynomial.legendre.leggauss(16)
    mids = step + step * (np.arange(n_chunk) + 0.5)
    half = 0.5 * step
    body_x = (mids[:, None] + half * gl_t[None, :]).ravel()
    body_w = np.broadcast_to(half * gl_w, (n_chunk, 16)).ravel()

    x = np.concatenate([head_x, body_x])
    w = np.concatenate([head_w, body_w]) * _k01_batch(kappa, x, block=4096)[0].real
    transform = math.sqrt(2.0 / math.pi) * (np.cos(np.outer(grid, x)) @ w)
    closed = math.sqrt(math.pi / 2.0) / np.sqrt(grid * grid + kappa * kappa)
    return float(np.max(np.abs(transform - closed) / closed))


# ----------------------------------------------------------------------------
# resolvent application
# ----------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SampledField:
    """2-spinor samples on a uniform grid with square cells.

    values[i, j] is the spinor at (x1[i], x2[j]); shape (n1, n2, 2).  The
    spacing must match on both axes because the singular-cell quadrature
    integrates over one square cell.
    """

    x1: np.ndarray
    x2: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x1 = np.asarray(self.x1, dtype=float)
        x2 = np.asarray(self.x2, dtype=float)
        vals = np.asarray(self.values, dtype=complex)
        if x1.ndim != 1 or x2.ndim != 1 or x1.size < 2 or x2.size < 2:
            raise ValueError("grid axes must be 1D with at least 2 nodes each")
        h1 = np.diff(x1)
        h2 = np.diff(x2)
        h = h1[0]
        if h <= 0.0 or not (
            np.allclose(h1, h, rtol=1e-12, atol=0.0)
            and np.allclose(h2, h, rtol=1e-12, atol=0.0)
        ):
            raise ValueError("grid must be uniform with equal spacing on both axes")
        if vals.shape != (x1.size, x2.size, 2):
            raise ValueError(
                f"values must have shape {(x1.size, x2.size, 2)}, got {vals.shape}"
            )
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)
        object.__setattr__(self, "values", vals)

    @property
    def spacing(self) -> float:
        return float(self.x1[1] - self.x1[0])

    @classmethod
    def sample(cls, func, half_width: float, count: int) -> "SampledField":
        """Sample func(x1, x2) -> length-2 spinor on the centred square grid
        [-half_width, half_width]^2 with count nodes per axis."""
        axis = np.linspace(-half_width, half_width, count)
        vals = np.empty((count, count, 2), dtype=complex)
        for i, u in enumerate(axis):
            for j, v in enumerate(axis):
                vals[i, j] = func(u, v)
        return cls(axis, axis, vals)


def _singular_cell(m: float, z: complex, a: complex, h: float) -> Mat2C:
    """Integral of G_z over the square cell of side h centred at the
    singularity: midpoint rule in angle (16 nodes, kink-free placement),
    Gauss-Legendre in radius up to the cell boundary.  The odd K_1 part
    cancels by symmetry; the even K_0 part carries the log singularity,
    which the radial rule sees only through the bounded function r K_0."""
    n_ang = 16
    theta = (np.arange(n_ang) + 0.5) * (2.0 * math.pi / n_ang)
    w_ang = 2.0 * math.pi / n_ang
    rho = 0.5 * h / np.maximum(np.abs(np.cos(theta)), np.abs(np.sin(theta)))
    t, w = np.polynomial.legendre.leggauss(8)
    rr = 0.5 * rho[:, None] * (t[None, :] + 1.0)
    ww = (0.5 * rho[:, None] * w[None, :]) * w_ang
    r = rr.ravel()
    k0, k1 = bessel_k01_ray(a, r)
    k0 = k0.reshape(rr.shape)
    k1 = k1.reshape(rr.shape)
    s0 = np.sum(ww * rr * k0)
    s1c = np.sum(ww * rr * k1 * np.cos(theta)[:, None])
    s1s = np.sum(ww * rr * k1 * np.sin(theta)[:, None])
    diag = s0 / _TWO_PI
    c1 = 1j * a / _TWO_PI
    return Mat2C(
        (z + m) * diag,
        c1 * (s1c - 1j * s1s),
        c1 * (s1c + 1j * s1s),
        (z - m) * diag,
    )


def resolvent_apply(m: float, z: complex, f: SampledField, x_eval) -> np.ndarray:
    """Apply the free resolvent to the sampled field f at the given points.

    Node-sum quadrature u(x) = sum_j G_z(x - y_j) f(y_j) h^2 with the cell
    containing the singularity replaced by the polar product rule times the
    nearest node value.  The singular-cell geometry is exact when the
    evaluation point is a grid node, which is how the consistency check
    (finite differences reproduce f) is meant to be driven; off-node points
    inside the sampled rectangle are handled with the cell recentred on the
    evaluation point.

    x_eval: one point (x1, x2) or an array of shape (k, 2).  Returns the
    spinor values, shape (2,) or (k, 2).  Warns when an evaluation point
    lies within one cell of the sampled boundary, where the truncated
    convolution loses accuracy.
    """
    m = float(m)
    z = complex(z)
    a = branch_sqrt(m * m - z * z)
    if not isinstance(f, SampledField):
        raise TypeError("f must be a SampledField")
    pts = np.asarray(x_eval, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("x_eval must be one 2-vector or an array of shape (k, 2)")

    h = f.spacing
    n1, n2 = f.x1.size, f.x2.size
    y1 = np.repeat(f.x1, n2)
    y2 = np.tile(f.x2, n1)
    w = f.values.reshape(-1, 2)

    edge = np.minimum(
        np.minimum(pts[:, 0] - f.x1[0], f.x1[-1] - pts[:, 0]),
        np.minimum(pts[:, 1] - f.x2[0], f.x2[-1] - pts[:, 1]),
    )
    if np.any(np.abs(edge) < h):
        warnings.warn(
            "evaluation point within one cell of the sampled boundary; "
            "the truncated convolution is inaccurate there",
            stacklevel=2,
        )

    cell = _singular_cell(m, z, a, h)
    cell_arr = cell.as_array()
    out = np.empty((pts.shape[0], 2), dtype=complex)
    block = max(1, 2_000_000 // (n1 * n2))
    for lo in range(0, pts.shape[0], block):
        sub = pts[lo : lo + block]
        d1 = sub[:, 0][:, None] - y1[None, :]
        d2 = sub[:, 1][:, None] - y2[None, :]
        r = np.hypot(d1, d2)
        near = np.argmin(r, axis=1)
        rows = np.arange(sub.shape[0])
        off = np.maximum(np.abs(d1[rows, near]), np.abs(d2[rows, near]))
        sing = off <= 0.5 * h * (1.0 + 1e-12)
        quad_w = np.full(r.shape, h * h)
        quad_w[rows[sing], near[sing]] = 0.0
        r[rows[sing], near[sing]] = 1.0  # placeholder, weight already zeroed

        k0, k1 = _k01_batch(a, r.ravel())
        c0 = (quad_w * k0.reshape(r.shape)) / _TWO_PI
        c1 = (quad_w * k1.reshape(r.shape)) * (1j * a / _TWO_PI)
        phase = (d1 + 1j * d2) / r
        u1 = c0 @ ((z + m) * w[:, 0]) + (c1 * np.conj(phase)) @ w[:, 1]
        u2 = (c1 * phase) @ w[:, 0] + c0 @ ((z - m) * w[:, 1])
        u = np.stack([u1, u2], axis=1)
        if np.any(sing):
            u[sing] += w[near[sing]] @ cell_arr.T
        out[lo : lo + block] = u
    return out[0] if single else out
