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
between nodes, so it is tabulated over the offsets (one Bessel ray on the
distinct radii and the singular cell's) and applied to the whole grid by
zero-padded FFT; other targets take the direct sum, one kernel value per
target-source pair.
Everything of the node path that does not depend on z (the offset
geometry, the distinct radii and the source's padded spectra) is built
once per field, on its first node-path call, and kept with the field,
whose arrays are read-only copies.  The singular cell is summed on 16
radii: the square's symmetry leaves two classes of polar angles.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

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
    c0, c1m, c1p = _kernel_terms(a, _phase(x1, x2, r), k0, k1, 1.0)
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

@functools.cache
def _gauss_legendre(n: int):
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], read-only.

    Built once per n, on first use rather than at import: importing
    numpy.polynomial adds about 1.6 MB to the process, which callers that
    never reach a Gauss-Legendre rule (green_kernel, pde_residual) should
    not pay."""
    rule = np.polynomial.legendre.leggauss(n)
    for arr in rule:
        arr.setflags(write=False)
    return rule


# most nodes one kappa of fourier_pair_check may take: its cosine table then
# holds 21 x 65,536 entries, about 11 MB, and every kappa >= 0.0226 fits
_FOURIER_PAIR_NODES = 1 << 16


def _fourier_pair_panels(kappa: float):
    """The head length, the top 29/kappa and the number of body panels of
    _fourier_pair_nodes; the count is a float, infinite where 29/kappa
    overflows, so a caller can weigh it before building anything."""
    head = min(2.0 / kappa, math.pi / 20.0)
    x_top = 29.0 / kappa
    return head, x_top, float(np.ceil((x_top - head) / min(4.0 / kappa, math.pi / 10.0)))


def _fourier_pair_nodes(kappa: float):
    """Nodes and weights of int_0^{29/kappa} f(x) dx for f = K0(kappa x) cos(p x).

    The head [0, min(2/kappa, pi/20)] absorbs the logarithmic singularity
    with a 129-node double-exponential rule.  The body up to kappa x = 29 is
    cut into equal panels of 16-point Gauss-Legendre, each at most
    min(4/kappa, pi/10) long: one period of the fastest cosine, cos(20 x),
    and four decay lengths.  The panels are equal so that the last one ends
    at kappa x = 29 exactly, inside the Bessel engine's range."""
    head, x_top, n_panel = _fourier_pair_panels(kappa)
    n_panel = int(n_panel)
    head_x, head_w = _ts_nodes(0.0, head, np.arange(-64, 65) / 16)
    half = 0.5 * (x_top - head) / n_panel
    mids = head + half * (2.0 * np.arange(n_panel) + 1.0)
    t, w = _gauss_legendre(16)
    body_x = (mids[:, None] + half * t).ravel()
    body_w = np.tile(half * w, n_panel)
    return np.concatenate([head_x, body_x]), np.concatenate([head_w / 16, body_w])


def fourier_pair_check(kappa) -> float:
    """Max relative error of the numerical cosine transform of K0(kappa|x|)
    against the closed form sqrt(pi/2) / sqrt(p^2 + kappa^2) over the
    integer momenta p = -20..20, the largest over every kappa given.

    kappa is one positive number or a non-empty sequence of them;
    ValueError for anything else, non-finite values included.  A kappa
    whose quadrature would take more than _FOURIER_PAIR_NODES (65,536)
    nodes, which is every kappa below about 0.0226 (the body takes about
    92/kappa panels of 16 nodes), is a ValueError too, raised before any
    array is built.  The integrand is even, so the transform reduces to
    sqrt(2/pi) int_0^inf K0(kappa x) cos(p x) dx, evaluated once per
    |p| = 0..20 on the nodes of _fourier_pair_nodes: a tanh-sinh head, then
    full-period 16-point Gauss-Legendre panels, which resolve cos(20 x) to
    rounding.  Truncating at kappa x = 29 leaves a tail below 1e-13
    relative, well under the 1e-6 target.  Every kappa's K0 values come
    from one Bessel ray along the real axis, at the arguments kappa x.
    """
    kappas = np.atleast_1d(np.asarray(kappa, dtype=float))
    if kappas.ndim != 1 or not kappas.size or not np.all(np.isfinite(kappas) & (kappas > 0.0)):
        raise ValueError(
            f"kappa must be positive and finite, one or a non-empty sequence, got {kappa!r}"
        )
    for k in kappas:
        size = 129 + 16 * _fourier_pair_panels(float(k))[2]
        if not size <= _FOURIER_PAIR_NODES:
            raise ValueError(f"kappa = {float(k)!r} needs {size:.3g} quadrature nodes, above "
                             f"the budget of {_FOURIER_PAIR_NODES} (kappa >= 0.0226 fits)")
    nodes = [_fourier_pair_nodes(float(k)) for k in kappas]
    k0 = bessel_k01_ray(1.0, np.concatenate([k * x for k, (x, _) in zip(kappas, nodes)]))[0].real
    cuts = np.cumsum([x.size for x, _ in nodes])[:-1]
    p = np.arange(21.0)
    worst = 0.0
    for k, (x, w), k0_k in zip(kappas, nodes, np.split(k0, cuts)):
        transform = math.sqrt(2.0 / math.pi) * (np.cos(np.outer(p, x)) @ (w * k0_k))
        closed = math.sqrt(math.pi / 2.0) / np.sqrt(p * p + k * k)
        worst = max(worst, float(np.max(np.abs(transform - closed) / closed)))
    return worst


# ----------------------------------------------------------------------------
# resolvent application
# ----------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SampledField:
    """2-spinor samples on a uniform grid with square cells.

    values[i, j] is the spinor at (x1[i], x2[j]); shape (n1, n2, 2).  The
    spacing must match on both axes because the singular-cell quadrature
    integrates over one square cell.  The field holds read-only copies of
    the three arrays, so editing the caller's arrays afterwards changes
    neither the validated grid nor the node plan built from it; the
    caller's arrays stay writable.  The plan (_NodePlan) is built on the
    field's first node-path call, not at construction.
    """

    x1: np.ndarray
    x2: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x1 = np.array(self.x1, dtype=float)
        x2 = np.array(self.x2, dtype=float)
        vals = np.array(self.values, dtype=complex)
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
        for name, arr in (("x1", x1), ("x2", x2), ("values", vals)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def spacing(self) -> float:
        return float(self.x1[1] - self.x1[0])

    @functools.cached_property
    def _node_plan(self) -> "_NodePlan":
        return _NodePlan.build(self)

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


def _phase(d1, d2, r):
    """The unit phase (d1 + i d2) / r of the offset (d1, d2) of length r > 0."""
    return d1 / r + 1j * (d2 / r)


def _kernel_terms(a: complex, phase, k0, k1, weight, back=None):
    """weight * G_z at offsets of unit phase `phase` (from _phase), given K0
    and K1 at a r, as its three distinct entries (c0, c1 conj(phase), c1 phase):

        weight * G_z(d) = [[(z + m) c0,        c1 conj(phase)],
                           [c1 phase,           (z - m) c0   ]],
        c0 = weight K0 / 2 pi,  c1 = weight (i a / 2 pi) K1,  phase = (d1 + i d2) / r.

    The one assembly of the kernel: for Python numbers (green_kernel at one
    point) as for arrays (the singular cell's polar nodes, the offset table
    and the direct sum).  With `back`, k0, k1 and weight are given on the
    distinct radii only: c0 and c1 are formed there and gathered to the
    offsets as c0[back], c1[back].  A gather commutes with elementwise
    arithmetic, so the values are those of the gathered inputs."""
    c0 = weight * k0 / _TWO_PI
    c1 = weight * (1j * a * k1 / _TWO_PI)
    if back is not None:
        c0, c1 = c0[back], c1[back]
    return c0, c1 * phase.conjugate(), c1 * phase


def _cell_nodes(h: float):
    """The singular cell's 16 radii and their weights r dr dtheta, for
    _cell_sum: midpoint rule in angle (16 nodes at the odd multiples of
    pi/16, kink-free placement), 8-node Gauss-Legendre in radius up to the
    cell boundary rho(theta) = h / (2 max(|cos theta|, |sin theta|)).

    The square's symmetry does most of that sum.  rho takes two values,
    at pi/16 and 3 pi/16, each shared by 8 of the 16 angles, so the K_0
    part is 8 times a sum over 2 x 8 = 16 radii.  Each class of 8 angles
    is closed under rotation by pi/2, so its phases sum to 0 and the odd
    K_1 entries are exactly 0.  The even K_0 part carries the log
    singularity, which the radial rule sees only through the bounded
    function r K_0."""
    t, w = _gauss_legendre(8)
    rho = 0.5 * h / np.cos(np.array([[1.0], [3.0]]) * (math.pi / 16.0))
    r = 0.5 * rho * (t + 1.0)
    # 8 angles of width 2 pi / 16 each: an angular weight of pi per class
    return r.ravel(), (r * (0.5 * rho * w) * math.pi).ravel()


def _cell_sum(a: complex, weight, k0, k1):
    """The singular cell as the entries (c0, c1 conj(phase), c1 phase) of
    _kernel_terms, from K0 and K1 at a r on _cell_nodes' radii r."""
    return np.sum(_kernel_terms(a, 1.0, k0, k1, weight)[0]), 0j, 0j


def _singular_cell(a: complex, h: float):
    """Integral of G_z over the square cell of side h centred at the
    singularity, from its own Bessel ray on _cell_nodes' 16 radii."""
    r, weight = _cell_nodes(h)
    return _cell_sum(a, weight, *bessel_k01_ray(a, r))


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


class _NodePlan(NamedTuple):
    """The part of _node_apply that does not depend on z, for one field.

    back and phase run over the (2 n1 - 1) x (2 n2 - 1) integer offsets,
    with the origin, offset (0, 0), at index (n1 - 1, n2 - 1); there they
    hold placeholders, since the singular cell takes the origin's place."""

    shape: tuple  # padded FFT shape
    radii: np.ndarray  # the distinct radii h sqrt(di^2 + dj^2) > 0
    back: np.ndarray  # each offset's radius: radii[back]
    phase: np.ndarray  # each offset's _phase
    spectra: np.ndarray  # fft2 of both source components, shape (2,) + shape

    @classmethod
    def build(cls, f: SampledField) -> "_NodePlan":
        n1, n2 = f.x1.size, f.x2.size
        d1, d2 = np.meshgrid(np.arange(1 - n1, n1), np.arange(1 - n2, n2), indexing="ij")
        s = d1 * d1 + d2 * d2
        # radius_sq[0] is the origin's 0, which takes no Bessel value
        radius_sq, back = np.unique(s, return_inverse=True)
        r = np.sqrt(s)
        r[n1 - 1, n2 - 1] = 1.0
        shape = (_smooth_length(2 * n1 - 1), _smooth_length(2 * n2 - 1))
        return cls(
            shape,
            f.spacing * np.sqrt(radius_sq[1:]),
            np.maximum(back.reshape(s.shape) - 1, 0),
            _phase(d1, d2, r),
            np.fft.fft2(np.moveaxis(f.values, 2, 0), shape),
        )


def _node_apply(m: float, z: complex, a: complex, f: SampledField) -> np.ndarray:
    """The quadrature of resolvent_apply at every grid node, shape (n1, n2, 2).

    At a node target G_z(x_i - y_j) depends only on the integer offset
    i - j, so the kernel is tabulated on the (2 n1 - 1) x (2 n2 - 1)
    offsets: the distinct radii h sqrt(di^2 + dj^2), and the singular cell
    at offset (0, 0).  One Bessel ray takes both, the distinct radii
    followed by _cell_nodes' 16.  The sum over sources is then
    an aperiodic convolution (Hockney & Eastwood, Computer Simulation Using
    Particles, ch. 6), done by FFT on arrays zero-padded to at least
    2 n - 1 per axis, rounded up to a 2*3*5-smooth length: the circular
    product wraps around only onto entries past the n nodes read off.

    Only the z-dependent work happens per call: the Bessel ray, the radial
    factors on the distinct radii, the cell's sum, three table FFTs and two
    inverse FFTs.  The rest comes from the field's _NodePlan.  The three
    entries are transformed one at a time into the two spinor components'
    spectra, and the table is freed before the inverse FFTs."""
    plan = f._node_plan
    h = f.spacing
    n1, n2 = f.x1.size, f.x2.size
    cell_r, cell_w = _cell_nodes(h)
    k0, k1 = bessel_k01_ray(a, np.concatenate([plan.radii, cell_r]))
    n = plan.radii.size
    cell = _cell_sum(a, cell_w, k0[n:], k1[n:])
    terms = _kernel_terms(a, plan.phase, k0[:n], k1[:n], h * h, plan.back)
    f1, f2 = plan.spectra
    table = np.zeros(plan.shape, dtype=complex)
    spec = np.empty(plan.shape, dtype=complex)

    def transform(entry: int) -> np.ndarray:
        table[: 2 * n1 - 1, : 2 * n2 - 1] = terms[entry]
        table[n1 - 1, n2 - 1] = cell[entry]
        return np.fft.fft2(table, out=spec)

    u1 = (z + m) * f1
    u2 = (z - m) * f2
    g = transform(0)
    np.multiply(g, u1, out=u1)
    np.multiply(g, u2, out=u2)
    u1 += np.multiply(transform(1), f2, out=spec)
    u2 += np.multiply(transform(2), f1, out=spec)
    del terms, table, spec, g
    u1 = np.fft.ifft2(u1)[n1 - 1 : 2 * n1 - 1, n2 - 1 : 2 * n2 - 1]
    u2 = np.fft.ifft2(u2)[n1 - 1 : 2 * n1 - 1, n2 - 1 : 2 * n2 - 1]
    return np.stack([u1, u2], axis=-1)


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
        c0, c1m, c1p = _kernel_terms(a, _phase(d1, d2, r), k0, k1, h * h)
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
    containing the singularity replaced by the polar product rule of
    _cell_nodes (16 radii) times the nearest node value.  Each point takes
    one of two paths, chosen by its own coordinates:

    * a point on a grid node reads its value off the whole-grid result of
      _node_apply: one kernel table over the integer offsets, applied by
      zero-padded FFT.  This is how the consistency check (finite
      differences reproduce f) is meant to be driven.  The field's first
      such call builds and keeps its z-independent part (offset geometry,
      distinct radii, source spectra), so later calls at other z on the
      same field pay only for the Bessel ray, which takes the cell's radii
      too, and the FFTs;
    * any other point takes the direct sum of _direct_apply, one kernel
      value per source node; inside the sampled rectangle its singular cell
      sits on the nearest node.

    On node points the two agree to rounding (about 1e-15 relative).

    x_eval: one point (x1, x2) or an array of shape (k, 2).  Returns the
    spinor values, shape (2,) or (k, 2).  Warns once per call, with their
    count, when evaluation points lie within one cell of the sampled
    boundary, where the truncated convolution loses accuracy.
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
    near = int(np.count_nonzero(np.abs(edge) < h))
    if near:
        warnings.warn(
            f"evaluation point within one cell of the sampled boundary: {near} of "
            f"{pts.shape[0]} points; the truncated convolution is inaccurate there",
            stacklevel=2,
        )

    i, on1 = _node_index(f.x1, h, pts[:, 0])
    j, on2 = _node_index(f.x2, h, pts[:, 1])
    on_node = on1 & on2
    out = np.empty((pts.shape[0], 2), dtype=complex)
    if np.any(on_node):
        out[on_node] = _node_apply(m, z, a, f)[i[on_node], j[on_node]]
    if not np.all(on_node):
        off = ~on_node
        out[off] = _direct_apply(m, z, a, f, _singular_cell(a, h), pts[off], i[off], j[off])
    return out[0] if single else out
