"""Shared numerics: branch-correct square root, modified Bessel K0/K1 for
complex argument, tanh-sinh quadrature, Pauli matrices and a broadcasting
2x2 complex matrix type.

Conventions
-----------
* branch_sqrt is the square root holomorphic on C cut along (-inf, 0] with
  positive real part; every other module routes complex square roots
  through it so the branch choice lives in exactly one spot.
* bessel_k evaluates the Laplace-type representation

      K_nu(w) = int_0^inf exp(-w cosh t) cosh(nu t) dt,   Re w > 0.

  On the positive real axis a trapezoid rule on the even integrand halves
  its step until it converges.  Off the axis the path is bent onto the ray
  Im t = -arg(w), which removes the oscillation of the integrand at
  infinity, and both pieces are integrated by tanh-sinh quadrature.  On
  either ray K0 and K1 share one exponential table.  A batch is sorted by
  |w| once, and one rule cuts the sorted run for both rays: at every power
  of two of the tail cutoff acosh(1 + _TAIL_DROP/|w|) and again every
  _BLOCK arguments, so neither a few tiny arguments nor a large batch
  inflate the tables, and a value does not depend on the order of its
  batch.  No special-function library is involved, so the mpmath oracle
  used in the tests is a genuinely independent check.
* Mat2C holds a 2x2 matrix, or an array of them when its entries are
  arrays; the symbol functions return it in both forms.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .tolerances import BESSEL_MAX_ARG, BESSEL_TARGET_TOL

__all__ = [
    "branch_sqrt",
    "bessel_k",
    "bessel_k01_ray",
    "pauli",
    "Mat2C",
    "tanh_sinh",
]


# ============================================================================
# branch-correct square root
# ============================================================================

def _scalar_or_array(v, kind):
    """v as a Python `kind` (float or complex) when it is a Python number,
    else as an ndarray of that kind.  Scalars thus keep Python arithmetic,
    whose last bits differ from numpy's complex operations."""
    return kind(v) if isinstance(v, (int, float, complex)) else np.asarray(v, dtype=kind)


def branch_sqrt(w):
    """Square root with branch cut (-inf, 0] and Re branch_sqrt(w) > 0.

    Works on a scalar (cmath) or elementwise on an array (numpy).  Raises
    ValueError when an argument lies on the cut (Im w == 0 and Re w <= 0),
    where no root with positive real part exists.
    """
    w = _scalar_or_array(w, complex)
    on_cut = (w.imag == 0.0) & (w.real <= 0.0)
    if np.count_nonzero(on_cut):
        bad = complex(np.asarray(w)[on_cut][0])
        raise ValueError(
            "branch_sqrt uses the branch holomorphic on C \\ (-inf, 0] with "
            f"Re > 0; argument {bad!r} lies on the excluded half-line"
        )
    return cmath.sqrt(w) if isinstance(w, complex) else np.sqrt(w)


# ============================================================================
# tanh-sinh quadrature
# ============================================================================

_TS_TMAX = 4.0


def _ts_nodes(a, b, h, odd_only):
    """Abscissas/weights of the tanh-sinh rule x = mid + rad*tanh(pi/2 sinh(t)).

    Nodes sit at t = k*h over [-tmax, tmax]; odd_only picks the new points
    of a step-halving refinement.  Offsets from the interval ends are formed
    without cancellation so integrable endpoint singularities stay resolved.
    """
    k_max = int(math.floor(_TS_TMAX / h))
    k = np.arange(-k_max, k_max + 1)
    if odd_only:
        k = k[np.abs(k) % 2 == 1]
    t = k * h
    g = 0.5 * math.pi * np.sinh(t)
    # 1 + tanh(g) = 2 / (1 + exp(-2g)), kept in product form for stability
    lo = (b - a) / (1.0 + np.exp(-2.0 * g))   # x - a
    hi = (b - a) / (1.0 + np.exp(2.0 * g))    # b - x
    x = np.where(t >= 0, b - hi, a + lo)
    wgt = (b - a) * 0.5 * math.pi * np.cosh(t) / (np.cosh(g) * np.cosh(g) * 2.0)
    return x, wgt


def tanh_sinh(f, a: float, b: float, rel_tol: float = 1e-13, max_level: int = 12):
    """Adaptive tanh-sinh quadrature of f over the finite interval [a, b].

    f maps an ndarray of abscissas to values (real or complex) whose last
    axis runs over the abscissas; leading axes, if any, hold a batch of
    integrands that share the nodes, as in the Bessel rays.  Integrable
    endpoint singularities are allowed.  Refinement halves the step and
    reuses previous evaluations; iteration stops once two consecutive
    levels agree to rel_tol for every integrand of the batch, and
    RuntimeError is raised when max_level halvings do not get there.
    """
    h = 0.5
    x, wgt = _ts_nodes(a, b, h, False)
    with np.errstate(under="ignore"):
        total = h * f(x) @ wgt
        for _ in range(max_level):
            h *= 0.5
            x, wgt = _ts_nodes(a, b, h, True)
            add = f(x) @ wgt
            new_total = 0.5 * total + h * add
            if np.all(np.abs(new_total - total) <= rel_tol * np.abs(new_total) + 1e-300):
                return new_total
            total = new_total
    raise RuntimeError(f"tanh_sinh missed rel_tol {rel_tol:g} in {max_level} levels")


# ============================================================================
# modified Bessel K0 / K1
# ============================================================================

_TAIL_DROP = 55.0  # the integrand's tail is cut where it has fallen by exp(-_TAIL_DROP)


def _tail_cutoff(scale: float) -> float:
    """Smallest U with scale*(cosh U - 1) >= _TAIL_DROP + U (monotone, so a
    couple of fixed-point passes suffice)."""
    u = math.acosh(1.0 + _TAIL_DROP / scale)
    for _ in range(3):
        u = math.acosh(1.0 + (_TAIL_DROP + u + math.log1p(u)) / scale)
    return u


_BLOCK = 4096  # radii per trapezoid table or tanh-sinh batch


def _k01_trapezoid(a: float, r: np.ndarray, rel_tol: float):
    """K0(x) and K1(x) at x = a r, positive reals sharing one table.

    Trapezoid rule on the even integrand exp(-x cosh t) cosh(nu t), cut at
    the tail cutoff of the smallest x; the even reflection kills the odd
    Euler-Maclaurin terms at t = 0 and the double-exponential tail kills
    them at the cutoff, so halving the step converges geometrically.  Both
    orders share the table; RuntimeError if 14 halvings miss rel_tol.
    """
    x = a * r
    u_max = _tail_cutoff(float(np.min(x)))
    n = 16
    def _trap(rows, h):
        return h * (0.5 * (rows[:, 0] + rows[:, -1]) + rows[:, 1:-1].sum(axis=1))

    def _table(c):  # exp(-x cosh t), built in place from c = cosh t
        e = np.outer(x, -c)
        return np.exp(e, out=e)

    with np.errstate(under="ignore"):
        c = np.cosh(np.linspace(0.0, u_max, n + 1))
        e = _table(c)
        k0 = _trap(e, u_max / n)
        e *= c
        k1 = _trap(e, u_max / n)
        for _ in range(14):
            h = u_max / n
            c = np.cosh((np.arange(n) + 0.5) * h)
            e = _table(c)
            k0_new = 0.5 * k0 + 0.5 * h * np.sum(e, axis=1)
            e *= c
            k1_new = 0.5 * k1 + 0.5 * h * np.sum(e, axis=1)
            n *= 2
            done = np.all(np.abs(k0_new - k0) <= rel_tol * np.abs(k0_new) + 1e-300) and np.all(
                np.abs(k1_new - k1) <= rel_tol * np.abs(k1_new) + 1e-300
            )
            k0, k1 = k0_new, k1_new
            if done:
                return k0, k1
    raise RuntimeError(f"K0/K1 trapezoid missed rel_tol {rel_tol:g} after 14 halvings")


def _blocks(x: np.ndarray):
    """Slices that cut an ascending run x of |w| at every power of two of the
    leading tail cutoff acosh(1 + _TAIL_DROP/x), and again every _BLOCK
    entries, so neither a few tiny arguments nor a large batch inflate the
    tables.  The cutoff falls as x grows, so each octave is an interval of
    x, found by one binary search."""
    if not x.size:
        return
    first, last = (math.frexp(math.acosh(1.0 + _TAIL_DROP / float(v)))[1] for v in (x[-1], x[0]))
    # acosh(1 + _TAIL_DROP/x) = 2^e at x = _TAIL_DROP / (cosh 2^e - 1)
    edges = [_TAIL_DROP / (2.0 * math.sinh(math.ldexp(1.0, e - 1)) ** 2)
             for e in range(last - 1, first - 1, -1)]
    cuts = [0, *np.searchsorted(x, edges, side="right").tolist(), x.size]
    for lo, hi in zip(cuts, cuts[1:]):
        for start in range(lo, hi, _BLOCK):
            yield slice(start, min(start + _BLOCK, hi))


def _k01_rotated_ray(a: complex, r: np.ndarray, rel_tol: float):
    """K0(a r) and K1(a r) for positive radii r along the ray arg = arg(a).

    The contour [0, inf) is bent into the vertical segment t = -i s,
    0 <= s <= phi, followed by the horizontal ray t = u - i phi.  On the
    horizontal part Im(w cosh t) decays like exp(-u), so the tail is free
    of oscillation for every arg(w) in (-pi/2, pi/2).  On both pieces the
    K1 factor cosh(t) is the exponent's own c = cosh t, so one table of
    exp(-w c) serves both orders.
    """
    phi = cmath.phase(a)
    sgn = 1.0 if phi >= 0 else -1.0
    w = a * r

    def pair(c):  # exp(-w c) and c exp(-w c), the integrands of K0 and K1
        e = np.empty((2, w.size, c.size), dtype=complex)
        np.multiply.outer(-w, c, out=e[0])
        np.exp(e[0], out=e[0])
        np.multiply(e[0], c, out=e[1])
        return e

    # vertical segment: -i*sgn * int_0^{|phi|} exp(-w cos s) cos(nu s) ds
    vertical = -1j * sgn * tanh_sinh(lambda s: pair(np.cos(s)), 0.0, abs(phi), rel_tol, 11)
    # horizontal ray: int_0^U exp(-w cosh(u - i phi)) cosh(nu (u - i phi)) du
    u_max = _tail_cutoff(float(np.min(np.abs(w))) * max(math.cos(phi) ** 2, 1e-12))
    horizontal = tanh_sinh(lambda u: pair(np.cosh(u - 1j * phi)), 0.0, u_max, rel_tol, 11)
    return vertical + horizontal


def bessel_k01_ray(a: complex, r):
    """K0 and K1 at a*r for an array of positive radii r, with Re a > 0.

    Batch companion of bessel_k, and the one owner of the memory bound: the
    radii are sorted once and the sorted run is cut by _blocks, the same
    rule for both rays.  Each block goes through the trapezoid on a real
    ray or through tanh-sinh on a rotated one, with the tail cutoff of its
    own smallest radius.  A radius's value depends on its block alone, so
    it does not depend on the order of the batch.  Returns the pair (k0,
    k1) of complex arrays shaped like r; ValueError for a non-finite a or
    radius, RuntimeError when a block misses BESSEL_TARGET_TOL.
    """
    a = complex(a)
    if not cmath.isfinite(a) or a.real <= 0.0:
        raise ValueError(f"bessel argument ray must be finite with Re > 0, got direction {a!r}")
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)) or np.any(r <= 0.0):
        raise ValueError("radii must be finite and strictly positive")
    order = np.argsort(r, axis=None, kind="stable")
    run = r.ravel()[order]
    x = abs(a) * run
    if x.size and x[-1] > BESSEL_MAX_ARG:
        msg = f"bessel_k accuracy degrades for |w| > {BESSEL_MAX_ARG:g} (|w| = {x[-1]:.3g})"
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    ray, scale = (_k01_trapezoid, a.real) if a.imag == 0.0 else (_k01_rotated_ray, a)
    k0 = np.empty(r.size, dtype=complex)
    k1 = np.empty(r.size, dtype=complex)
    for sel in _blocks(x):
        k0[order[sel]], k1[order[sel]] = ray(scale, run[sel], BESSEL_TARGET_TOL)
    return k0.reshape(r.shape), k1.reshape(r.shape)


def bessel_k(order: int, w: complex) -> complex:
    """Modified Bessel function K_order(w) for complex w with Re w > 0.

    order must be 0 or 1.  Guaranteed relative accuracy BESSEL_REL_TOL for
    1e-3 <= |w| <= BESSEL_MAX_ARG; outside that modulus the routine still
    evaluates but emits an accuracy warning for |w| > BESSEL_MAX_ARG where
    the result underflows toward zero.
    """
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order!r}")
    w = complex(w)
    k0, k1 = bessel_k01_ray(w, np.array([1.0]))
    out = (k0 if order == 0 else k1)[0]
    if w.imag == 0.0:
        return complex(out.real, 0.0)
    return complex(out)


# ============================================================================
# Pauli matrices and 2x2 complex matrices
# ============================================================================

@dataclass(frozen=True)
class Mat2C:
    """2x2 complex matrix; exactly the algebra the boundary symbols need.

    Entries are scalars or ndarrays of one shape, in which case the value
    stands for that array of matrices and every operation acts per matrix
    by numpy broadcasting.  Scalar entries keep Python complex arithmetic.
    """

    a11: complex
    a12: complex
    a21: complex
    a22: complex

    @staticmethod
    def identity() -> "Mat2C":
        return Mat2C(1.0 + 0j, 0j, 0j, 1.0 + 0j)

    def det(self) -> complex:
        return self.a11 * self.a22 - self.a12 * self.a21

    def __add__(self, other: "Mat2C") -> "Mat2C":
        return Mat2C(
            self.a11 + other.a11,
            self.a12 + other.a12,
            self.a21 + other.a21,
            self.a22 + other.a22,
        )

    def __sub__(self, other: "Mat2C") -> "Mat2C":
        return Mat2C(
            self.a11 - other.a11,
            self.a12 - other.a12,
            self.a21 - other.a21,
            self.a22 - other.a22,
        )

    def __matmul__(self, other: "Mat2C") -> "Mat2C":
        return Mat2C(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def scale(self, s: complex) -> "Mat2C":
        return Mat2C(s * self.a11, s * self.a12, s * self.a21, s * self.a22)

    def real_part(self) -> "Mat2C":
        """Entrywise real part (not the Hermitian part)."""
        return Mat2C(
            *(_scalar_or_array(e.real, complex) for e in (self.a11, self.a12, self.a21, self.a22))
        )

    def max_abs(self):
        """Entrywise sup norm, one value per matrix."""
        return np.maximum(
            np.maximum(abs(self.a11), abs(self.a12)), np.maximum(abs(self.a21), abs(self.a22))
        )

    def as_array(self) -> np.ndarray:
        """The matrices as a complex ndarray of shape (..., 2, 2)."""
        entries = np.broadcast_arrays(self.a11, self.a12, self.a21, self.a22)
        return np.stack(entries, axis=-1).astype(complex).reshape(entries[0].shape + (2, 2))


_PAULI = (
    Mat2C(1 + 0j, 0j, 0j, 1 + 0j),
    Mat2C(0j, 1 + 0j, 1 + 0j, 0j),
    Mat2C(0j, -1j, 1j, 0j),
    Mat2C(1 + 0j, 0j, 0j, -1 + 0j),
)


def pauli(k: int) -> Mat2C:
    """Pauli matrix sigma_k, with sigma_0 the identity."""
    if not isinstance(k, int) or isinstance(k, bool) or k not in (0, 1, 2, 3):
        raise IndexError(f"Pauli index must be an integer in 0..3, got {k!r}")
    return _PAULI[k]
