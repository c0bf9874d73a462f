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

The kernel's three distinct entries are formed in one place,
_kernel_terms, for the point kernel, the singular cell, the offset table
and the direct sum alike.  The quadrature has two paths that give the same
sums.  At grid-node targets the kernel depends only on the integer offset
between nodes, so it is tabulated once over the offsets (one Bessel ray on
the distinct radii) and applied to the whole grid by zero-padded FFT; other
targets take the direct sum, one kernel value per target-source pair.
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
    """Kernel matrix G_z(x) at a single point x != 0, from _kernel_terms.

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
    c0, c1m, c1p = _kernel_terms(a, x1, x2, r, k0, k1, 1.0)
    # the mass term z sigma_0 + m sigma_3 adds 0 off the diagonal, which
    # turns an exactly vanishing -0 part of c1 phase into +0
    return Mat2C((z + m) * c0, c1m + 0.0, c1p + 0.0, (z - m) * c0)


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

def fourier_pair_check(kappa: float, p_grid=None) -> float:
    """Max relative error of the numerical cosine transform of K0(kappa|x|)
    against the closed form sqrt(pi/2) / sqrt(p^2 + kappa^2) over the grid.

    The integrand is even, so the transform reduces to
    sqrt(2/pi) int_0^inf K0(kappa x) cos(p x) dx, evaluated once per
    distinct |p| of the grid.  The head cell absorbs the logarithmic
    singularity with a double-exponential rule; the rest is cut into chunks
    of length min(2/kappa, pi/p_top): at most half a period of the fastest
    oscillation and two decay lengths, which 16-point Gauss-Legendre
    resolves to rounding.  Truncating at kappa x = 29 leaves a tail below
    1e-13 relative.
    """
    kappa = float(kappa)
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa!r}")
    grid = np.linspace(-20.0, 20.0, 41) if p_grid is None else np.asarray(p_grid, dtype=float)
    p_top = max(1.0, float(np.max(np.abs(grid))))
    step = min(2.0 / kappa, math.pi / p_top)
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
    w = np.concatenate([head_w, body_w]) * bessel_k01_ray(kappa, x)[0].real
    abs_p, back = np.unique(np.abs(grid), return_inverse=True)
    transform = math.sqrt(2.0 / math.pi) * (np.cos(np.outer(abs_p, x)) @ w)[back]
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


def _kernel_terms(a: complex, d1, d2, r, k0, k1, weight):
    """weight * G_z at the offsets (d1, d2) of length r > 0, given K0 and K1
    at a r, as its three distinct entries (c0, c1 conj(phase), c1 phase):

        weight * G_z(d) = [[(z + m) c0,        c1 conj(phase)],
                           [c1 phase,           (z - m) c0   ]],
        c0 = weight K0 / 2 pi,  c1 = weight (i a / 2 pi) K1,  phase = (d1 + i d2) / r.

    The one assembly of the kernel: for Python numbers (green_kernel at one
    point) as for arrays (the singular cell's polar nodes, the offset table
    and the direct sum)."""
    c0 = weight * k0 / _TWO_PI
    c1 = weight * (1j * a * k1 / _TWO_PI)
    phase = d1 / r + 1j * (d2 / r)
    return c0, c1 * phase.conjugate(), c1 * phase


def _singular_cell(a: complex, h: float):
    """Integral of G_z over the square cell of side h centred at the
    singularity, as the entries (c0, c1 conj(phase), c1 phase) of
    _kernel_terms: midpoint rule in angle (16 nodes, kink-free placement),
    Gauss-Legendre in radius up to the cell boundary, so the kernel is
    summed at polar nodes with weights r dr dtheta.  The odd K_1 part
    cancels by symmetry; the even K_0 part carries the log singularity,
    which the radial rule sees only through the bounded function r K_0."""
    n_ang = 16
    theta = (np.arange(n_ang) + 0.5) * (2.0 * math.pi / n_ang)
    rho = 0.5 * h / np.maximum(np.abs(np.cos(theta)), np.abs(np.sin(theta)))
    t, w = np.polynomial.legendre.leggauss(8)
    r = 0.5 * rho[:, None] * (t[None, :] + 1.0)
    weight = r * (0.5 * rho[:, None] * w[None, :]) * (2.0 * math.pi / n_ang)
    k0, k1 = bessel_k01_ray(a, r)
    terms = _kernel_terms(a, np.cos(theta)[:, None], np.sin(theta)[:, None], 1.0, k0, k1, weight)
    return tuple(np.sum(term) for term in terms)


def _smooth_length(n: int) -> int:
    """Smallest 2*3*5-smooth integer >= n, a fast FFT length."""
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _node_apply(m: float, z: complex, a: complex, f: SampledField, cell) -> np.ndarray:
    """The quadrature of resolvent_apply at every grid node, shape (n1, n2, 2).

    At a node target G_z(x_i - y_j) depends only on the integer offset
    i - j, so the kernel is tabulated once on the (2 n1 - 1) x (2 n2 - 1)
    offsets: one Bessel ray over the distinct radii h sqrt(di^2 + dj^2),
    and the singular cell at offset (0, 0).  The sum over sources is then
    an aperiodic convolution (Hockney & Eastwood, Computer Simulation Using
    Particles, ch. 6), done by FFT on arrays zero-padded to at least
    2 n - 1 per axis, rounded up to a 2*3*5-smooth length: the circular
    product wraps around only onto entries past the n nodes read off."""
    h = f.spacing
    n1, n2 = f.x1.size, f.x2.size
    d1, d2 = np.meshgrid(np.arange(1 - n1, n1), np.arange(1 - n2, n2), indexing="ij")
    s = (d1 * d1 + d2 * d2).ravel()
    rest = np.flatnonzero(s)  # every offset but the origin
    radius_sq, back = np.unique(s[rest], return_inverse=True)
    k0, k1 = bessel_k01_ray(a, h * np.sqrt(radius_sq))
    table = np.zeros((3,) + d1.shape, dtype=complex)
    table.reshape(3, -1)[:, rest] = _kernel_terms(
        a, d1.ravel()[rest], d2.ravel()[rest], np.sqrt(s[rest]), k0[back], k1[back], h * h
    )
    table[:, n1 - 1, n2 - 1] = cell

    shape = (_smooth_length(2 * n1 - 1), _smooth_length(2 * n2 - 1))
    c0, c1m, c1p = np.fft.fft2(table, shape)
    f1, f2 = np.fft.fft2(np.moveaxis(f.values, 2, 0), shape)
    u = np.fft.ifft2(np.stack([c0 * ((z + m) * f1) + c1m * f2, c1p * f1 + c0 * ((z - m) * f2)]))
    # offset (0, 0) sits at index (n1 - 1, n2 - 1) of the table
    return np.moveaxis(u[:, n1 - 1 : 2 * n1 - 1, n2 - 1 : 2 * n2 - 1], 0, 2)


def _direct_apply(m: float, z: complex, a: complex, f: SampledField, cell, pts, i, j) -> np.ndarray:
    """The quadrature of resolvent_apply at arbitrary points, shape (k, 2):
    one kernel value per target-source pair, in blocks of about 2e6 pairs.
    Each point's nearest node (i, j), from _node_index, takes the singular
    cell in place of its kernel value when the point lies within half a
    cell of it."""
    h = f.spacing
    n1, n2 = f.x1.size, f.x2.size
    y1 = np.repeat(f.x1, n2)
    y2 = np.tile(f.x2, n1)
    w = f.values.reshape(-1, 2)
    off = np.maximum(np.abs(pts[:, 0] - f.x1[i]), np.abs(pts[:, 1] - f.x2[j]))
    sing = off <= 0.5 * h * (1.0 + 1e-12)
    out = np.empty((pts.shape[0], 2), dtype=complex)
    block = max(1, 2_000_000 // (n1 * n2))
    for lo in range(0, pts.shape[0], block):
        sub = pts[lo : lo + block]
        d1 = sub[:, 0][:, None] - y1[None, :]
        d2 = sub[:, 1][:, None] - y2[None, :]
        r = np.hypot(d1, d2)
        rows = np.flatnonzero(sing[lo : lo + block])
        pair = rows, i[lo + rows] * n2 + j[lo + rows]
        r[pair] = 1.0  # placeholder, overwritten by the cell below
        k0, k1 = bessel_k01_ray(a, r)
        c0, c1m, c1p = _kernel_terms(a, d1, d2, r, k0, k1, h * h)
        c0[pair], c1m[pair], c1p[pair] = cell
        u1 = c0 @ ((z + m) * w[:, 0]) + c1m @ w[:, 1]
        u2 = c1p @ w[:, 0] + c0 @ ((z - m) * w[:, 1])
        out[lo : lo + block] = np.stack([u1, u2], axis=1)
    return out


def _node_index(axis: np.ndarray, h: float, coord: np.ndarray):
    """Index of the node of axis at each coordinate, and whether the
    coordinate sits on it (up to rounding: within 1e-9 of a cell)."""
    idx = np.clip(np.rint((coord - axis[0]) / h), 0, axis.size - 1).astype(int)
    return idx, np.abs(coord - axis[idx]) <= 1e-9 * h


def resolvent_apply(m: float, z: complex, f: SampledField, x_eval) -> np.ndarray:
    """Apply the free resolvent to the sampled field f at the given points.

    Node-sum quadrature u(x) = sum_j G_z(x - y_j) f(y_j) h^2 with the cell
    containing the singularity replaced by the polar product rule times the
    nearest node value.  Each point takes one of two paths, chosen by its
    own coordinates:

    * a point on a grid node reads its value off the whole-grid result of
      _node_apply: one kernel table over the integer offsets, applied by
      zero-padded FFT.  This is how the consistency check (finite
      differences reproduce f) is meant to be driven;
    * any other point takes the direct sum of _direct_apply, one kernel
      value per source node; inside the sampled rectangle its singular cell
      sits on the nearest node.

    On node points the two agree to rounding (about 1e-15 relative).

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
    if not np.all(np.isfinite(pts)):
        raise ValueError("x_eval must be finite")

    h = f.spacing
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

    cell = _singular_cell(a, h)
    i, on1 = _node_index(f.x1, h, pts[:, 0])
    j, on2 = _node_index(f.x2, h, pts[:, 1])
    on_node = on1 & on2
    out = np.empty((pts.shape[0], 2), dtype=complex)
    if np.any(on_node):
        out[on_node] = _node_apply(m, z, a, f, cell)[i[on_node], j[on_node]]
    if not np.all(on_node):
        out[~on_node] = _direct_apply(m, z, a, f, cell, pts[~on_node], i[~on_node], j[~on_node])
    return out[0] if single else out
