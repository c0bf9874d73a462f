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

Every symbol function takes the parameters, the momentum p and the
spectral parameter z, and broadcasts over p and z: scalars give a Mat2C (or
complex) in Python arithmetic, arrays give a Mat2C whose entries are arrays
of that shape.  kappa is formed inside from params.m, and real z on the
branch cut (|z| >= sqrt(p^2 + m^2)) is a ValueError.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .numerics import Mat2C, _scalar_or_array, branch_sqrt, pauli
from .tolerances import SINGULAR_C_SCALE

__all__ = [
    "ShellParams",
    "SingularSymbolError",
    "single_layer_symbol",
    "reference_symbol",
    "weyl_symbol",
    "boundary_symbol",
    "boundary_det",
    "dispersion_function",
    "boundary_symbol_inverse",
    "critical_momenta",
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
    """Shell strength eta and mass m, each held once as its exact value:
    text parsed exactly by _exact, or a number's exact (binary) value.

    Equality and hashing read the exact values; the floats eta and m are
    their roundings.  Criticality (eta = +2 or -2, where the in-gap band
    degenerates into a flat band at zero energy) is an exact comparison, so
    "1.9999999" stays non-critical while "2.0" is critical.  The exact values
    also feed the band arithmetic, which keeps band edges of a coupling and
    of its -4/eta partner bit-identical.
    """

    eta_exact: Fraction
    m_exact: Fraction

    def __post_init__(self):
        eta, m = (_exact(v) if isinstance(v, str) else Fraction(v)
                  for v in (self.eta_exact, self.m_exact))
        object.__setattr__(self, "eta_exact", eta)
        object.__setattr__(self, "m_exact", m)
        # plain attributes, set here so that an overflowing value fails now
        object.__setattr__(self, "eta", float(eta))
        object.__setattr__(self, "m", float(m))

    @classmethod
    def from_decimal(cls, eta: str, m: str) -> "ShellParams":
        """Build from exact strings: decimals, scientific notation, "p/q".
        A decimal exponent beyond +-4300 is a ValueError."""
        return cls(_exact(eta), _exact(m))

    @property
    def critical(self) -> bool:
        return self.eta_exact == 2 or self.eta_exact == -2

    # the in-gap band in exact arithmetic: the one source of its side, edge and
    # momenta, worked out once per instance (the fiber oracle asks per momentum)

    @cached_property
    def band_sign(self) -> int:
        """Sign of eta (eta^2 - 4): the gap side (-1 or +1) of the in-gap
        band, 0 at eta in {0, +2, -2}, where there is none."""
        s = self.eta_exact * (self.eta_exact * self.eta_exact - 4)
        return (s > 0) - (s < 0)

    @cached_property
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


def _point(params: ShellParams, p, z):
    """(p, z, kappa) with kappa = branch_sqrt(p^2 + m^2 - z^2): p and z as
    Python numbers or arrays that broadcast; ValueError on the branch cut,
    i.e. for real z with |z| >= sqrt(p^2 + m^2)."""
    p = _scalar_or_array(p, float)
    z = _scalar_or_array(z, complex)
    return p, z, branch_sqrt(p * p + params.m * params.m - z * z)


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
    p = _scalar_or_array(p, float)
    return math.sqrt(p * p + 1.0) if isinstance(p, float) else np.sqrt(p * p + 1.0)


def _shifted(params: ShellParams, chat: Mat2C, p) -> Mat2C:
    """-sqrt(p^2+1) (sigma_0/eta + chat)."""
    return (pauli(0).scale(1.0 / params.eta) + chat).scale(-_shell_scale(p))


def default_anchor(params: ShellParams) -> complex:
    """Default non-real anchor point for the reference symbol."""
    return complex(0.0, 1.0 + abs(params.m))


def single_layer_symbol(params: ShellParams, p, z) -> Mat2C:
    """Multiplier matrix of the free-resolvent trace on the shell,

        Chat_z(p) = [[(z+m)/(2 kappa), p/(2 kappa)],
                     [p/(2 kappa),     (z-m)/(2 kappa)]].
    """
    p, z, kappa = _point(params, p, z)
    two_k = 2.0 * kappa
    off = p / two_k
    return Mat2C((z + params.m) / two_k, off, off, (z - params.m) / two_k)


def boundary_symbol(params: ShellParams, p, z) -> Mat2C:
    """-sqrt(p^2+1) (sigma_0/eta + Chat_z(p)); z is in the spectrum exactly
    when this matrix fails to be boundedly invertible over p."""
    chat = single_layer_symbol(params, p, z)
    _require_coupled(params)
    return _shifted(params, chat, p)


def reference_symbol(params: ShellParams, zeta: complex, p) -> Mat2C:
    """z-independent anchor symbol: the entrywise real part of Chat at a
    fixed non-real anchor zeta, scaled like the boundary symbol."""
    _require_coupled(params)
    return _shifted(params, single_layer_symbol(params, p, _anchor(zeta)).real_part(), p)


def weyl_symbol(params: ShellParams, z, zeta: complex, p) -> Mat2C:
    """sqrt(p^2+1) (Chat_z(p) - Re Chat_zeta(p)): the z-dependent part split
    off by the anchor.  reference_symbol - weyl_symbol = boundary_symbol for
    every admissible anchor."""
    _require_coupled(params)
    zeta = _anchor(zeta)
    z = _scalar_or_array(z, complex)
    if np.count_nonzero((z.imag == 0.0) & (abs(z.real) >= abs(params.m))):
        raise ValueError("real z must lie in the spectral gap (|z| < |m|)")
    diff = single_layer_symbol(params, p, z) - single_layer_symbol(params, p, zeta).real_part()
    return diff.scale(_shell_scale(p))


def boundary_det(params: ShellParams, p, z) -> complex:
    """Closed-form determinant of the boundary symbol,

        det = (p^2+1) (1/eta^2 + z/(eta kappa) - 1/4).
    """
    p, z, kappa = _point(params, p, z)
    _require_coupled(params)
    eta = params.eta
    return (p * p + 1.0) * (1.0 / (eta * eta) + z / (eta * kappa) - 0.25)


def _dispersion(eta: float, z, kappa):
    """c from z and kappa, shared by dispersion_function and the inverse."""
    return (4.0 - eta * eta) * kappa + 4.0 * eta * z


def dispersion_function(params: ShellParams, p, z) -> complex:
    """c(p, z) = (4 - eta^2) kappa + 4 eta z.  Proportional to the boundary
    determinant; its zeros over real z in the gap are the in-gap band."""
    _, z, kappa = _point(params, p, z)
    _require_coupled(params)
    return _dispersion(params.eta, z, kappa)


def boundary_symbol_inverse(params: ShellParams, p, z) -> Mat2C:
    """Inverse of the boundary symbol in closed form,

        -2 eta / (c sqrt(p^2+1)) [[2 kappa + eta(z-m), -eta p],
                                  [-eta p,             2 kappa + eta(z+m)]].

    Raises SingularSymbolError when |c| falls below the relative threshold
    SINGULAR_C_SCALE * (1 + |z| + |p|) at any of the points: such a point
    is (numerically) spectral.
    """
    p, z, kappa = _point(params, p, z)
    _require_coupled(params)
    eta = params.eta
    m = params.m
    c = _dispersion(eta, z, kappa)
    singular = abs(c) <= SINGULAR_C_SCALE * (1.0 + abs(z) + abs(p))
    if np.count_nonzero(singular):
        p, z, singular = np.broadcast_arrays(p, z, singular)
        raise SingularSymbolError(
            f"dispersion function vanishes at p={float(p[singular][0])!r}, "
            f"z={complex(z[singular][0])!r}: the boundary symbol has no inverse there"
        )
    pref = -2.0 * eta / (c * _shell_scale(p))
    off = pref * (-eta * p)
    return Mat2C(
        pref * (2.0 * kappa + eta * (z - m)),
        off,
        off,
        pref * (2.0 * kappa + eta * (z + m)),
    )


def critical_momenta(params: ShellParams, x: float):
    """Real momenta where the boundary-value dispersion function c_{x+i0}
    vanishes:  p = +/- sqrt((eta^2+4)^2/(eta^2-4)^2 x^2 - m^2).

    Returns the ordered pair, or None when no such momenta exist (critical
    or zero coupling, or sign condition x eta (eta^2-4) > 0 violated).  The
    sign and the radicand are exact.
    Requires a finite x with |x| >= |m| (boundary values on the essential
    spectrum).
    """
    x = float(x)
    if not (math.isfinite(x) and abs(x) >= abs(params.m)):
        raise ValueError(f"finite |x| >= |m| required, got x={x!r} with m={params.m!r}")
    return params.band_momenta(x) if x * params.band_sign > 0.0 else None


# ----------------------------------------------------------------------------
# boundary-value tables
# ----------------------------------------------------------------------------

# The momentum nodes of limit_sup_table, 4001 on [-100, 100]: 2001 evenly
# spaced for order-one structures anywhere, and on each side 1000 geometric
# radii over five decades below 100 for the kappa ~ |p| tail and the unit
# scale.  Midpoint exponents keep the ladder off round log-scale values,
# which otherwise tend to collide with dispersion momenta.
_LADDER = 100.0 * 10.0 ** (-5.0 * ((np.arange(1, 1001) - 0.5) / 1000))
_SUP_GRID = np.sort(np.concatenate([np.linspace(-100.0, 100.0, 2001), _LADDER, -_LADDER]))
_SUP_GRID.flags.writeable = False


def limit_sup_table(params: ShellParams, x: float):
    """Table of (y, sup over the grid of || y * inverse boundary symbol ||)
    at z = x + i y for y in DEFAULT_SUP_Y, entrywise sup norm, over the
    4001 nodes of _SUP_GRID.

    For x on the essential spectrum the true sup over all real p does not
    vanish when the dispersion function has real zeros: at a critical
    momentum pc the inverse grows like 1/y.  At a fixed node p the product
    behaves like y / (y + |p - pc|), so it decays linearly in y only once y
    is well below the node's distance from pc.  The table therefore keeps
    only the nodes at distance at least max(DEFAULT_SUP_Y) = 0.1 from every
    critical momentum, where that model stays within a factor 2 of
    y / |p - pc| for every y of the table; over them the sampled sup decays
    linearly in y, which is the strong-resolvent statement this table
    diagnoses.  Two momenta exclude at most 0.4 of the 200-wide grid, so
    nodes always remain.  Requires a finite x with |x| >= |m|.
    """
    _require_coupled(params)
    x = float(x)
    grid = _SUP_GRID
    crit = critical_momenta(params, x)
    if crit is not None:
        grid = grid[np.min(np.abs(grid[:, None] - np.array(crit)), axis=1) >= max(DEFAULT_SUP_Y)]
    rows = []
    for y in DEFAULT_SUP_Y:
        inv = boundary_symbol_inverse(params, grid, complex(x, y))
        rows.append((y, y * float(np.max(inv.max_abs()))))
    return rows


def limit_im_table(params: ShellParams, x: float):
    """Table of (y, max over the grid of |Im inverse boundary symbol|) at
    z = x + i y for y in DEFAULT_IM_Y, over 201 evenly spaced nodes on
    [-w/2, w/2], the centred half of the fiber-oscillation window (-w, w),
    w = sqrt(x^2 - m^2).

    The critical momenta +/- sqrt(x^2 / band_ratio^2 - m^2) lie outside
    (-w, w), as band_ratio < 1, so over the grid the imaginary part converges
    to a non-trivial boundary value, which is how the window is certified as
    essential spectrum.  Requires a finite x with |x| > |m|.
    """
    _require_coupled(params)
    x = float(x)
    if not (math.isfinite(x) and abs(x) > abs(params.m)):
        raise ValueError(f"finite |x| > |m| required, got x={x!r} with m={params.m!r}")
    # w is homogeneous of degree 1 in (x, m): a power of two brings |x| near
    # 1, so that x^2 neither under- nor overflows; an m^2 that still
    # underflows lies far below the rounding of x^2
    e = -math.frexp(x)[1]
    xs, ms = math.ldexp(x, e), math.ldexp(params.m, e)
    half = math.ldexp(0.5 * math.sqrt(xs * xs - ms * ms), -e)
    grid = np.linspace(-half, half, 201)
    rows = []
    for y in DEFAULT_IM_Y:
        inv = boundary_symbol_inverse(params, grid, complex(x, y))
        # inv - Re inv = i Im inv exactly, so this is the entrywise max |Im|
        rows.append((y, float(np.max((inv - inv.real_part()).max_abs()))))
    return rows
