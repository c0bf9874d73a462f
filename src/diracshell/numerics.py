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

  by one rule: a trapezoid in u on the even integrand along the steepest
  descent contour cosh t(u) = 1 + e^{-i phi} (cosh u - 1), phi = arg w,
  halving its step until it converges.  On it w cosh t = w + |w| (cosh u - 1)
  is real past its value at u = 0, so

      K0(w) = e^{|w| - w} int_0^inf exp(-|w| cosh u) tau(u) du,
      K1(w) = e^{|w| - w} int_0^inf exp(-|w| cosh u) tau(u) cosh t(u) du,
      tau(u) = t'(u) = sqrt((cosh u + 1) / (cosh u - 1 + 2 e^{i phi})):

  the exponential table is real for every direction, each node carries the
  complex weights tau and tau e^{i phi} cosh t = tau (cosh u - 1 + e^{i phi}),
  and each argument the factor e^{|w| - w}, K1's times e^{-i phi}.  The
  integrand decays in a strip of half-width at least 1.14 around the real
  u axis for every |phi| < pi/2, so the node count does not grow toward the
  imaginary axis.  On the real axis phi = 0, tau = 1 and the factor is 1.
  A batch is sorted by |w| once and cut at every power of two of the tail
  cutoff acosh(1 + _TAIL_DROP/|w|) and again every _BLOCK arguments, so
  neither a few tiny arguments nor a large batch inflate the tables, and a
  value does not depend on the order of its batch; each refinement's table
  is built at most _TABLE radii x nodes at a time.  Arguments below
  _MIN_ARG are rejected up front.  No special-function library is
  involved, so the mpmath oracle used in the tests is a genuinely
  independent check.
* tanh_sinh, the trapezoid rule after x = tanh(pi/2 sinh t), and the K0/K1
  trapezoid refine through one driver, _halve: one step-halving loop, one
  stop test and one RuntimeError when the levels run out.
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
_TS_REL_TOL = 1e-13  # two consecutive levels must agree to this
_TS_MAX_LEVEL = 12  # step halvings before tanh_sinh gives up


def _ts_nodes(a, b, t):
    """Abscissas/weights of the tanh-sinh rule x = mid + rad*tanh(pi/2 sinh(t))
    at the nodes t.  Offsets from the interval ends are formed without
    cancellation so integrable endpoint singularities stay resolved.
    """
    g = 0.5 * math.pi * np.sinh(t)
    # 1 + tanh(g) = 2 / (1 + exp(-2g)), kept in product form for stability
    lo = (b - a) / (1.0 + np.exp(-2.0 * g))   # x - a
    hi = (b - a) / (1.0 + np.exp(2.0 * g))    # b - x
    x = np.where(t >= 0, b - hi, a + lo)
    wgt = (b - a) * 0.5 * math.pi * np.cosh(t) / (np.cosh(g) * np.cosh(g) * 2.0)
    return x, wgt


def _halve(total, h, n, level, rel_tol, halvings):
    """The one refinement loop of the trapezoid rules (tanh_sinh, K0/K1).

    total holds a batch's level-0 trapezoid sums, step h over n intervals
    of [0, n h]; level(u) returns the plain sums of every integrand over the
    n midpoints u.  Each halving sets total to 0.5 total + (h/2) level(u),
    returned once every integrand's last two levels agree to rel_tol;
    RuntimeError when `halvings` halvings do not get there."""
    for _ in range(halvings):
        new = 0.5 * total + 0.5 * h * level((np.arange(n) + 0.5) * h)
        if np.all(np.abs(new - total) <= rel_tol * np.abs(new) + 1e-300):
            return new
        total, h, n = new, 0.5 * h, 2 * n
    raise RuntimeError(f"trapezoid missed rel_tol {rel_tol:g} in {halvings} halvings")


def tanh_sinh(f, a: float, b: float):
    """Adaptive tanh-sinh quadrature of f over the finite interval [a, b].

    f maps an ndarray of abscissas to values (real or complex) whose last
    axis runs over the abscissas; leading axes, if any, hold a batch of
    integrands that share the nodes.  Integrable endpoint singularities are
    allowed as far as the rule resolves them: x^-1/2 on [0, 1] converges,
    x^-0.9 does not.  The trapezoid in t over [-_TS_TMAX, _TS_TMAX] from
    step 1/2 is refined by _halve until two levels agree to _TS_REL_TOL
    for every integrand; RuntimeError after _TS_MAX_LEVEL halvings,
    ValueError before any work for a non-finite endpoint.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"tanh_sinh needs finite endpoints, got [{a!r}, {b!r}]")

    def level(u):
        x, wgt = _ts_nodes(a, b, u - _TS_TMAX)
        return f(x) @ wgt

    h, n = 0.5, 16  # level 0: step 1/2 over [-_TS_TMAX, _TS_TMAX]
    with np.errstate(under="ignore"):
        x, wgt = _ts_nodes(a, b, np.arange(n + 1) * h - _TS_TMAX)
        return _halve(h * f(x) @ wgt, h, n, level, _TS_REL_TOL, _TS_MAX_LEVEL)


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


_BLOCK = 4096  # radii per block of a sorted batch
_TABLE = 1 << 20  # entries, radii x nodes, of one refinement table of the trapezoid


def _k01_trapezoid(a: float | complex, r: np.ndarray):
    """K0(w) and K1(w) at w = a r for positive radii r, sharing one table.

    Trapezoid rule in u on the even integrand along the steepest descent
    contour cosh t(u) = 1 + e^{-i phi} (cosh u - 1), phi = arg a, where
    exp(-w cosh t) = e^{|w| - w} exp(-|w| cosh u): the table exp(-|w| cosh u)
    is real, each node carries tau = t'(u) and tau e^{i phi} cosh t(u), and
    each radius the factor e^{|w| - w}, K1's times e^{-i phi}.  The branch
    point of tau nearest the real u axis, at cosh u = 1 - 2 e^{i phi}, stays
    at least 1.14 away from it for |phi| < pi/2, and exp(-|w| cosh u) decays
    for |Im u| < pi/2, so the trapezoid converges geometrically on a strip
    of half-width at least 1.14 for every direction (Trefethen & Weideman,
    SIAM Rev. 56, 2014); the even reflection kills the odd Euler-Maclaurin
    terms at u = 0 and the double-exponential tail kills them at the
    cutoff, taken at the smallest |w|.  For real a, phi = 0, tau = 1 and
    cosh t = cosh u: the table's in-place products and row sums alone give
    the values.  Otherwise one einsum per table forms the four real sums
    against the weights' real and imaginary parts, each row on its own, so
    a value does not depend on how many rows share its table.  _halve
    refines the (2, radii) batch of 16-step sums, each level's table built
    _TABLE entries at a time; RuntimeError if 14 halvings miss
    BESSEL_TARGET_TOL.
    """
    v = abs(a) * r  # |w|
    phi = cmath.phase(a)
    u_max = _tail_cutoff(float(np.min(v)))
    h, n = u_max / 16, 16  # level 0
    def _trap(rows):  # level 0's trapezoid sums of a table's rows
        return h * (0.5 * (rows[:, 0] + rows[:, -1]) + rows[:, 1:-1].sum(axis=1))

    turn = cmath.exp(1j * phi)
    branch = 1.0 - 2.0 * turn  # tau's branch point, in cosh u

    def _weights(c):  # rows Re tau, Im tau, Re tau k, Im tau k at cosh u = c
        # k = e^{i phi} cosh t = c - 1 + e^{i phi}; K1's factor e^{-i phi} comes
        # last.  None on the real axis, where tau = 1 and k = c
        if phi == 0.0:
            return None
        tau = np.sqrt((c + 1.0) / (c - branch))
        tau_k = tau * (c - (1.0 - turn))
        return np.array([tau.real, tau.imag, tau_k.real, tau_k.imag])

    def _table(v, c):  # exp(-v c) for arguments v, built in place
        e = np.multiply.outer(v, -c)
        np.exp(e, out=e)
        return e

    def _sums(e, c, g):  # K0's and K1's plain sums over a table's nodes, (2, rows)
        if g is None:
            s0 = np.sum(e, axis=1)
            e *= c
            return s0, np.sum(e, axis=1)
        return np.einsum("ij,kj->ik", e, g).view(complex).T

    def level(u):  # the plain sums of K0's and K1's integrands over the nodes u
        c = np.cosh(u)
        g = _weights(c)
        rows = max(1, _TABLE // u.size)
        s = np.empty((2, v.size), dtype=float if g is None else complex)
        for lo in range(0, v.size, rows):
            s[:, lo:lo + rows] = _sums(_table(v[lo:lo + rows], c), c, g)
        return s

    with np.errstate(under="ignore"):
        c = np.cosh(np.linspace(0.0, u_max, n + 1))
        e = _table(v, c)
        g = _weights(c)
        if g is None:
            k0 = _trap(e)
            e *= c
            return _halve(np.stack([k0, _trap(e)]), h, n, level, BESSEL_TARGET_TOL, 14)
        g[:, ::n] *= 0.5  # the end nodes 0 and n
        total = _halve(h * _sums(e, c, g), h, n, level, BESSEL_TARGET_TOL, 14)
        total[1] /= turn
        return total * np.exp((abs(a) - a) * r)


def _blocks(x: np.ndarray):
    """Slices that cut an ascending run x of |w| at every power of two of the
    leading tail cutoff acosh(1 + _TAIL_DROP/x), and again every _BLOCK
    entries, so neither a few tiny arguments nor a large batch inflate the
    trapezoid's tables.  The cutoff falls as x grows, so each octave is an
    interval of x, found by one binary search."""
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


# smallest |w| the engine takes.  The tail cutoff keeps cosh finite for a
# smallest |w| down to about 4.5e-306; 1e-290 leaves a wide margin above
# it and is the floor that README documents for accepted input
_MIN_ARG = 1e-290


def bessel_k01_ray(a: complex, r):
    """K0 and K1 at a*r for an array of positive radii r, with Re a > 0.

    Batch companion of bessel_k, and the one owner of the memory bound: the
    radii are sorted once, the sorted run is cut by _blocks, and each block
    takes the trapezoid on the steepest descent contour of its direction,
    with a real exponential table for every direction.  Each block has the
    tail cutoff of its own smallest radius, so a radius's value depends on
    its block alone, not on the order of the batch.
    Returns the pair (k0, k1) of complex arrays shaped like r; ValueError,
    before any work, for a non-finite a or radius or for |a| r < _MIN_ARG,
    RuntimeError when a block misses BESSEL_TARGET_TOL.
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
    if x.size and x[0] < _MIN_ARG:
        raise ValueError(f"bessel argument |w| = |a| r = {x[0]:.3g} is below {_MIN_ARG:g}, "
                         "where the tail cutoff of the K0/K1 table overflows")
    if x.size and x[-1] > BESSEL_MAX_ARG:
        msg = f"bessel_k accuracy degrades for |w| > {BESSEL_MAX_ARG:g} (|w| = {x[-1]:.3g})"
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    k0 = np.empty(r.size, dtype=complex)
    k1 = np.empty(r.size, dtype=complex)
    for sel in _blocks(x):
        k0[order[sel]], k1[order[sel]] = _k01_trapezoid(a, run[sel])
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

@dataclass(frozen=True, slots=True)
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
