"""Boundary symbols of the delta-shell interaction.

The shell couples the two half-planes only through the trace of the free
resolvent on the interface line, and in the Fourier variable p dual to the
coordinate along the line that trace acts as multiplication by a 2x2
matrix.  This module evaluates those multiplier matrices:

* single_layer_symbol  -- the resolvent trace Chat_z(p) itself,
* boundary_symbol      -- the invertibility of  -sqrt(p^2+1) (1/eta + Chat_z(p))
                          decides whether z is in the spectrum,
* reference_symbol /
  weyl_symbol          -- the z-independent self-adjoint anchor and the
                          z-dependent part it splits off; their difference
                          reproduces boundary_symbol for every anchor,
* boundary_symbol_inverse and the scalar dispersion_function whose zeros
  are exactly the in-gap band,
* limit_sup_table / limit_im_table -- boundary-value diagnostics of the
  inverse symbol as z approaches the real axis.

Every symbol function broadcasts over the momentum p and the spectral
parameter z: scalars give a Mat2C (or complex) in Python arithmetic, arrays
give a Mat2C whose entries are arrays of that shape.

Conventions: the unitary Fourier transform exp(-i p x)/sqrt(2 pi) along the
shell direction; kappa = branch_sqrt(p^2 + m^2 - z^2) with Re kappa > 0,
so decaying transverse modes always carry positive decay rate.  Flipping
the transform sign flips the sign of the off-diagonal symbol entries and
nothing else.
"""
from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .numerics import Mat2C, _scalar_or_array, branch_sqrt, pauli
from .tolerances import SINGULAR_C_SCALE

__all__ = [
    "ShellParams",
    "SymbolPoint",
    "SingularSymbolError",
    "single_layer_symbol",
    "reference_symbol",
    "weyl_symbol",
    "boundary_symbol",
    "boundary_det",
    "dispersion_function",
    "boundary_symbol_inverse",
    "critical_momenta",
    "hybrid_grid",
    "limit_sup_table",
    "limit_im_table",
    "default_anchor",
]

DEFAULT_SUP_Y = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
DEFAULT_IM_Y = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)


# Fraction("1e-20000000") builds 10**20000000 as an exact integer, which takes
# seconds, and the exact band arithmetic then squares it.  from_decimal
# refuses decimal exponents beyond CPython's default limit on the digits of
# an integer converted from text (sys.int_info.default_max_str_digits), the
# limit Fraction already applies to the digits of the mantissa.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def _exact(text: str) -> Fraction:
    """Fraction(text), or ValueError at once when text is a decimal with an
    exponent beyond +-_MAX_EXPONENT."""
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        # five digits decide: any longer exponent is beyond the limit too
        if int(digits[:5] or "0") > _MAX_EXPONENT:
            raise ValueError(f"exponent of {text!r} is beyond +-{_MAX_EXPONENT}")
    return Fraction(text)


class SingularSymbolError(ValueError):
    """The boundary symbol is not invertible at the requested point: the
    scalar dispersion function vanishes there, signalling a spectral point."""


@dataclass(frozen=True)
class ShellParams:
    """Shell strength eta and mass m.

    Criticality (eta equal to +2 or -2, where the in-gap band degenerates
    into a flat band at zero energy) is decided by exact comparison of the
    parsed input value, never by a floating tolerance: build instances with
    from_decimal when the input arrives as text so that e.g. "1.9999999"
    stays non-critical while "2.0" is critical.  The exact rational fields
    also feed the spectrum-set arithmetic, which keeps band edges of a
    coupling and of its -4/eta partner bit-identical.
    """

    eta: float
    m: float
    eta_exact: Fraction = field(default=None, repr=False, compare=False)
    m_exact: Fraction = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "eta", float(self.eta))
        object.__setattr__(self, "m", float(self.m))
        if self.eta_exact is None:
            object.__setattr__(self, "eta_exact", Fraction(self.eta))
        if self.m_exact is None:
            object.__setattr__(self, "m_exact", Fraction(self.m))

    @classmethod
    def from_decimal(cls, eta: str, m: str) -> "ShellParams":
        """Build from exact strings: decimals, scientific notation, "p/q".
        A decimal exponent beyond +-4300 is a ValueError."""
        eta_exact = _exact(eta)
        m_exact = _exact(m)
        return cls(float(eta_exact), float(m_exact), eta_exact, m_exact)

    @property
    def critical(self) -> bool:
        return self.eta_exact == 2 or self.eta_exact == -2

    # the in-gap band in exact arithmetic: the one source of its side, edge and momenta

    @property
    def band_sign(self) -> int:
        """Sign of eta (eta^2 - 4): the gap side (-1 or +1) of the in-gap
        band, 0 at eta in {0, +2, -2}, where there is none."""
        s = self.eta_exact * (self.eta_exact * self.eta_exact - 4)
        return (s > 0) - (s < 0)

    @property
    def band_ratio(self) -> Fraction:
        """|eta^2 - 4| / (eta^2 + 4): the band edge in units of |m|."""
        e2 = self.eta_exact * self.eta_exact
        return abs(e2 - 4) / (e2 + 4)

    def require_band(self) -> int:
        """band_sign, or ValueError at eta in {0, +2, -2}."""
        if not self.band_sign:
            raise ValueError(f"no isolated in-gap band at eta = {self.eta!r}")
        return self.band_sign

    def band_momenta(self, x: float):
        """+/- sqrt(x^2 / band_ratio^2 - m^2) from the exact radicand, or None
        below the band edge; 8 ulp below zero (a rounded edge x) gives (0, 0)."""
        q2x2 = (Fraction(x) / self.band_ratio) ** 2
        m2 = self.m_exact * self.m_exact
        rad = q2x2 - m2
        if rad < -8 * Fraction(sys.float_info.epsilon) * (q2x2 + m2):
            return None
        root = math.sqrt(max(rad, 0))
        return (0.0 - root, root)  # (0.0, 0.0), not (-0.0, 0.0), at the edge


@dataclass(frozen=True)
class SymbolPoint:
    """Momentum p, spectral parameter z and the decay rate kappa they fix;
    scalars, or arrays for a batch of points."""

    p: float
    z: complex
    kappa: complex

    @classmethod
    def create(cls, p, z, m: float) -> "SymbolPoint":
        """kappa = branch_sqrt(p^2 + m^2 - z^2), with p and z broadcast;
        fails on the branch cut, i.e. for real z with |z| >= sqrt(p^2 + m^2)."""
        p = _scalar_or_array(p, float)
        z = _scalar_or_array(z, complex)
        return cls(p, z, branch_sqrt(p * p + m * m - z * z))


def _require_coupled(params: ShellParams) -> None:
    if params.eta == 0.0:
        raise ValueError("eta = 0 is the free operator; the boundary symbols are undefined")


def _anchor(zeta) -> complex:
    zeta = complex(zeta)
    if zeta.imag == 0.0:
        raise ValueError("anchor zeta must be non-real")
    return zeta


def _shell_scale(p):
    """sqrt(p^2 + 1), the weight of the boundary symbols."""
    return math.sqrt(p * p + 1.0) if isinstance(p, float) else np.sqrt(p * p + 1.0)


def _shifted(params: ShellParams, chat: Mat2C, p) -> Mat2C:
    """-sqrt(p^2+1) (sigma_0/eta + chat)."""
    return (pauli(0).scale(1.0 / params.eta) + chat).scale(-_shell_scale(p))


def default_anchor(params: ShellParams) -> complex:
    """Default non-real anchor point for the reference symbol."""
    return complex(0.0, 1.0 + abs(params.m))


def single_layer_symbol(params: ShellParams, point: SymbolPoint) -> Mat2C:
    """Multiplier matrix of the free-resolvent trace on the shell,

        Chat_z(p) = [[(z+m)/(2 kappa), p/(2 kappa)],
                     [p/(2 kappa),     (z-m)/(2 kappa)]].
    """
    two_k = 2.0 * point.kappa
    off = point.p / two_k
    return Mat2C((point.z + params.m) / two_k, off, off, (point.z - params.m) / two_k)


def boundary_symbol(params: ShellParams, point: SymbolPoint) -> Mat2C:
    """-sqrt(p^2+1) (sigma_0/eta + Chat_z(p)); z is in the spectrum exactly
    when this matrix fails to be boundedly invertible over p."""
    _require_coupled(params)
    return _shifted(params, single_layer_symbol(params, point), point.p)


def reference_symbol(params: ShellParams, zeta: complex, p) -> Mat2C:
    """z-independent anchor symbol: the entrywise real part of Chat at a
    fixed non-real anchor zeta, scaled like the boundary symbol."""
    _require_coupled(params)
    point = SymbolPoint.create(p, _anchor(zeta), params.m)
    return _shifted(params, single_layer_symbol(params, point).real_part(), point.p)


def weyl_symbol(params: ShellParams, z, zeta: complex, p) -> Mat2C:
    """sqrt(p^2+1) (Chat_z(p) - Re Chat_zeta(p)): the z-dependent part split
    off by the anchor.  reference_symbol - weyl_symbol = boundary_symbol for
    every admissible anchor."""
    _require_coupled(params)
    zeta = _anchor(zeta)
    z = _scalar_or_array(z, complex)
    if np.count_nonzero((z.imag == 0.0) & (abs(z.real) >= abs(params.m))):
        raise ValueError("real z must lie in the spectral gap (|z| < |m|)")
    pt_z = SymbolPoint.create(p, z, params.m)
    pt_a = SymbolPoint.create(p, zeta, params.m)
    diff = single_layer_symbol(params, pt_z) - single_layer_symbol(params, pt_a).real_part()
    return diff.scale(_shell_scale(pt_z.p))


def boundary_det(params: ShellParams, point: SymbolPoint) -> complex:
    """Closed-form determinant of the boundary symbol,

        det = (p^2+1) (1/eta^2 + z/(eta kappa) - 1/4).
    """
    _require_coupled(params)
    eta = params.eta
    return (point.p * point.p + 1.0) * (
        1.0 / (eta * eta) + point.z / (eta * point.kappa) - 0.25
    )


def dispersion_function(params: ShellParams, point: SymbolPoint) -> complex:
    """c(p, z) = (4 - eta^2) kappa + 4 eta z.  Proportional to the boundary
    determinant; its zeros over real z in the gap are the in-gap band."""
    _require_coupled(params)
    eta = params.eta
    return (4.0 - eta * eta) * point.kappa + 4.0 * eta * point.z


def boundary_symbol_inverse(params: ShellParams, point: SymbolPoint) -> Mat2C:
    """Inverse of the boundary symbol in closed form,

        -2 eta / (c sqrt(p^2+1)) [[2 kappa + eta(z-m), -eta p],
                                  [-eta p,             2 kappa + eta(z+m)]].

    Raises SingularSymbolError when |c| falls below the relative threshold
    SINGULAR_C_SCALE * (1 + |z| + |p|) at any of the points: such a point
    is (numerically) spectral.
    """
    _require_coupled(params)
    eta = params.eta
    m = params.m
    c = dispersion_function(params, point)
    singular = abs(c) <= SINGULAR_C_SCALE * (1.0 + abs(point.z) + abs(point.p))
    if np.count_nonzero(singular):
        p, z, singular = np.broadcast_arrays(point.p, point.z, singular)
        raise SingularSymbolError(
            f"dispersion function vanishes at p={float(p[singular][0])!r}, "
            f"z={complex(z[singular][0])!r}: the boundary symbol has no inverse there"
        )
    pref = -2.0 * eta / (c * _shell_scale(point.p))
    off = pref * (-eta * point.p)
    return Mat2C(
        pref * (2.0 * point.kappa + eta * (point.z - m)),
        off,
        off,
        pref * (2.0 * point.kappa + eta * (point.z + m)),
    )


def critical_momenta(params: ShellParams, x: float):
    """Real momenta where the boundary-value dispersion function c_{x+i0}
    vanishes:  p = +/- sqrt((eta^2+4)^2/(eta^2-4)^2 x^2 - m^2).

    Returns the ordered pair, or None when no such momenta exist (critical
    or zero coupling, or sign condition x eta (eta^2-4) > 0 violated).  The
    sign and the radicand are exact.
    Requires |x| >= |m| (boundary values on the essential spectrum).
    """
    x = float(x)
    if abs(x) < abs(params.m):
        raise ValueError(f"|x| >= |m| required, got x={x!r} with m={params.m!r}")
    return params.band_momenta(x) if x * params.band_sign > 0.0 else None


# ----------------------------------------------------------------------------
# diagnostics grids and boundary-value tables
# ----------------------------------------------------------------------------

def hybrid_grid(p_min: float = -100.0, p_max: float = 100.0, count: int = 4001) -> np.ndarray:
    """Momentum sample grid mixing linear coverage with geometric spacing.

    The linear part resolves order-one structures anywhere on the interval;
    the geometric part concentrates nodes over several decades so both the
    kappa ~ |p| tail and the unit-scale region stay resolved.  Returns
    exactly `count` sorted nodes.
    """
    if count < 2:
        raise ValueError(f"grid needs at least 2 nodes, got {count}")
    if not p_min < p_max:
        raise ValueError(f"empty momentum interval [{p_min!r}, {p_max!r}]")
    if not (p_min < 0.0 < p_max):
        return np.linspace(p_min, p_max, count)
    n_side = count // 4
    n_lin = count - 2 * n_side
    lin = np.linspace(p_min, p_max, n_lin)
    # geometric radii strictly inside the interval, spanning five decades;
    # midpoint exponents keep the ladder off round log-scale values, which
    # otherwise tend to collide with dispersion momenta in the diagnostics
    expo = (np.arange(1, n_side + 1) - 0.5) / n_side
    pos = p_max * 10.0 ** (-5.0 * expo)
    neg = p_min * 10.0 ** (-5.0 * expo)
    return np.sort(np.concatenate([lin, pos, neg]))


def _check_y_list(y_list) -> tuple:
    ys = tuple(float(y) for y in y_list)
    if not ys or any(y <= 0.0 for y in ys):
        raise ValueError("y values must be strictly positive")
    if any(b >= a for a, b in zip(ys, ys[1:])):
        raise ValueError("y values must be strictly decreasing")
    return ys


def limit_sup_table(params: ShellParams, x: float, y_list=DEFAULT_SUP_Y, p_grid=None):
    """Table of (y, sup over the grid of || y * inverse boundary symbol ||)
    at z = x + i y, entrywise sup norm.

    For x on the essential spectrum the true sup over all real p does not
    vanish when the dispersion function has real zeros: at a critical
    momentum pc the inverse grows like 1/y.  At a fixed node p the product
    behaves like y / (y + |p - pc|), so it decays linearly in y only once y
    is well below the node's distance from pc.  The table therefore leaves
    out the two nodes of every grid cell (consecutive nodes of the sorted
    grid) that contains a critical momentum; over the remaining nodes the
    sampled sup decays linearly in y, which is the strong-resolvent
    statement this table diagnoses.  Requires |x| >= |m|.
    """
    _require_coupled(params)
    x = float(x)
    if abs(x) < abs(params.m):
        raise ValueError(f"|x| >= |m| required, got x={x!r} with m={params.m!r}")
    ys = _check_y_list(y_list)
    grid = hybrid_grid() if p_grid is None else np.asarray(p_grid, dtype=float)
    if grid.size < 2:
        raise ValueError("p grid needs at least 2 nodes")
    crit = critical_momenta(params, x)
    if crit is not None:
        pc = np.array(crit)[:, None]
        cell = np.any((grid[:-1] <= pc) & (pc <= grid[1:]), axis=0)
        keep = np.ones(grid.size, dtype=bool)
        keep[:-1] &= ~cell
        keep[1:] &= ~cell
        grid = grid[keep]
        if grid.size == 0:
            raise ValueError("every grid node borders a critical momentum")
    rows = []
    for y in ys:
        inv = boundary_symbol_inverse(params, SymbolPoint.create(grid, complex(x, y), params.m))
        rows.append((y, y * float(np.max(inv.max_abs()))))
    return rows


def limit_im_table(params: ShellParams, x: float, interval, y_list=DEFAULT_IM_Y, n_nodes: int = 201):
    """Table of (y, max over the interval of |Im inverse boundary symbol|)
    at z = x + i y.

    The interval must sit strictly inside the fiber-oscillation window
    (-sqrt(x^2 - m^2), sqrt(x^2 - m^2)) and away from the critical momenta;
    there the imaginary part converges to a non-trivial boundary value,
    which is how the interval is certified as essential spectrum.
    """
    _require_coupled(params)
    x = float(x)
    if abs(x) <= abs(params.m):
        raise ValueError(f"|x| > |m| required, got x={x!r} with m={params.m!r}")
    a, b = (float(interval[0]), float(interval[1]))
    if not a < b:
        raise ValueError(f"empty interval [{a!r}, {b!r}]")
    half_window = math.sqrt(x * x - params.m * params.m)
    if a <= -half_window or b >= half_window:
        raise ValueError(
            f"interval [{a!r}, {b!r}] must lie strictly inside "
            f"(-{half_window!r}, {half_window!r})"
        )
    crit = critical_momenta(params, x)
    if crit is not None and any(a <= pc <= b for pc in crit):
        raise ValueError("interval touches a critical momentum")
    ys = _check_y_list(y_list)
    grid = np.linspace(a, b, n_nodes)
    rows = []
    for y in ys:
        inv = boundary_symbol_inverse(params, SymbolPoint.create(grid, complex(x, y), params.m))
        # inv - Re inv = i Im inv exactly, so this is the entrywise max |Im|
        rows.append((y, float(np.max((inv - inv.real_part()).max_abs()))))
    return rows
