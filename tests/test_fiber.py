"""Fiber transmission oracle: matching determinant, roots, quasi-modes."""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from diracshell.fiber import (
    _match_det_raw,
    fiber_eigenvalue,
    kernel_at_zero_scan,
    matching_determinant,
    quasimode_residual,
)
from diracshell.numerics import pauli
from diracshell.spectrum import dispersion_energy, dispersion_momentum
from diracshell.symbol import ShellParams
from diracshell.tolerances import (
    CRITICAL_KERNEL_TOL,
    NONCRITICAL_KERNEL_FLOOR,
    ORACLE_DISPERSION_TOL,
    QUASIMODE_RESIDUAL_TOL,
)


# ----------------------------------------------------------------------------
# matching determinant
# ----------------------------------------------------------------------------

def test_matching_det_vanishes_identically_at_critical_zero():
    par = ShellParams.from_decimal("2", "1")
    for p in (0.0, 1.0, 5.0, 20.0):
        assert abs(matching_determinant(par, p, 0.0)) <= 1e-13 * (1.0 + p) ** 2
    par = ShellParams.from_decimal("-2", "0.5")
    for p in (0.0, 2.0, 40.0):
        assert abs(matching_determinant(par, p, 0.0)) <= 1e-13 * (1.0 + p) ** 2


def test_matching_det_frozen_noncritical_value():
    par = ShellParams.from_decimal("2.5", "1")
    assert matching_determinant(par, 0.0, 0.0) == 1.125 + 0.0j


def test_matching_det_brackets_the_band():
    par = ShellParams.from_decimal("1", "1")
    lo = matching_determinant(par, 0.0, -0.61).real
    hi = matching_determinant(par, 0.0, -0.59).real
    assert lo * hi < 0.0


def test_matching_det_domain():
    par = ShellParams.from_decimal("1", "1")
    with pytest.raises(ValueError):
        matching_determinant(par, 0.0, 1.0)  # gap endpoint excluded
    with pytest.raises(ValueError):
        matching_determinant(par, 2.0, 3.0)  # beyond the gap


def test_matching_det_even_in_momentum():
    par = ShellParams.from_decimal("-1.5", "1")
    for p in (0.25, 1.0, 7.0):
        assert matching_determinant(par, p, 0.3) == matching_determinant(par, -p, 0.3)


# ----------------------------------------------------------------------------
# decaying fiber solutions
# ----------------------------------------------------------------------------

def _fiber_matrix(p, kappa, m, side):
    """sigma_1 p + side * i kappa sigma_2 + m sigma_3."""
    return pauli(1).scale(p) + pauli(2).scale(side * 1j * kappa) + pauli(3).scale(m)


def test_fiber_solution_eigenvector_residuals():
    # the textbook decaying solutions (p +/- kappa, z - m) on the two half-lines
    rng = np.random.default_rng(71)
    m = rng.uniform(0.05, 2.0, 200) * rng.choice([-1.0, 1.0], 200)
    p = rng.uniform(-6.0, 6.0, 200)
    z = rng.uniform(-0.95, 0.95, 200) * np.hypot(p, m)
    kappa = np.sqrt(p * p + m * m - z * z)
    assert np.all(kappa > 0.0)
    scale = 1.0 + np.abs(p) + np.abs(z) + kappa
    for side in (1.0, -1.0):
        vec = np.stack([p + side * kappa, z - m], axis=-1)[..., None]
        mats = _fiber_matrix(p, kappa, m, side).as_array()
        res = (mats @ vec)[..., 0] - z[:, None] * vec[..., 0]
        assert np.all(np.max(np.abs(res), axis=-1) <= 1e-12 * scale * scale)


def test_matching_determinant_broadcasts():
    par = ShellParams.from_decimal("1.5", "1")
    p = np.array([0.0, 0.5, 3.0])[:, None]
    z = np.array([-0.7, 0.0, 0.4])
    det = matching_determinant(par, p, z)
    assert det.shape == (3, 3)
    for i in range(3):
        for j in range(3):
            assert det[i, j] == matching_determinant(par, float(p[i, 0]), float(z[j]))
    with pytest.raises(ValueError):
        matching_determinant(par, p, np.array([0.0, 1.0]))  # z = 1 is a gap endpoint at p = 0
    # the Python-float path that fiber_eigenvalue bisects with gives the same bits
    ps, zs = np.linspace(-3.0, 3.0, 25), np.linspace(-0.9, 0.9, 19)
    grid = matching_determinant(par, ps[:, None], zs)
    for i, pv in enumerate(ps):
        for j, zv in enumerate(zs):
            assert grid[i, j] == _match_det_raw(par.eta, par.m, float(pv), float(zv))


# ----------------------------------------------------------------------------
# root finding against the closed form
# ----------------------------------------------------------------------------

def test_fiber_eigenvalue_stops_at_adjacent_floats():
    # near |z| = 3e4 neighbouring floats are 3.6e-12 apart, wider than
    # FIBER_BISECT_TOL, so a bisection run to that tolerance never ended
    par = ShellParams.from_decimal("1", "29626")
    for p in (0.0, 5.0):
        root = fiber_eigenvalue(par, p)
        assert abs(root - dispersion_energy(par, p)) <= ORACLE_DISPERSION_TOL


def test_fiber_eigenvalue_frozen_values():
    par = ShellParams.from_decimal("1", "1")
    assert abs(fiber_eigenvalue(par, 0.0) + 0.6) <= 1e-9
    assert abs(fiber_eigenvalue(par, 1.0) + 0.6 * math.sqrt(2.0)) <= 1e-9
    got = fiber_eigenvalue(ShellParams.from_decimal("3", "1"), 2.0)
    assert abs(got - float(Fraction(5, 13)) * math.sqrt(5.0)) <= 1e-9


def test_fiber_eigenvalue_matches_dispersion():
    for eta in ("0.5", "-1", "3"):
        for m in ("0.5", "2"):
            par = ShellParams.from_decimal(eta, m)
            for p in np.linspace(0.0, 10.0, 9):
                root = fiber_eigenvalue(par, p)
                assert root is not None
                assert abs(root - dispersion_energy(par, p)) <= ORACLE_DISPERSION_TOL


def test_fiber_eigenvalue_at_masses_whose_squares_overflow():
    # m^2 overflows from |m| ~ 1.4e154, where the plain determinant is inf
    # or nan and the scan would find no sign change
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cases = (("1", "1e200", 0.0), ("1", "1.3e154", 0.0), ("-1/2", "1e200", 3e199), ("3", "1e300", 0.0))
        for eta, m, p in cases:
            par = ShellParams.from_decimal(eta, m)
            root, want = fiber_eigenvalue(par, p), dispersion_energy(par, p)
            assert abs(root - want) <= 1e-12 * abs(want), (eta, m, p)


def test_fiber_eigenvalue_domain():
    with pytest.raises(ValueError):
        fiber_eigenvalue(ShellParams.from_decimal("2", "1"), 0.0)
    with pytest.raises(ValueError):
        fiber_eigenvalue(ShellParams.from_decimal("0", "1"), 0.0)
    with pytest.raises(ValueError):
        fiber_eigenvalue(ShellParams.from_decimal("1", "0"), 0.0)  # empty gap


def test_no_roots_on_the_wrong_gap_side():
    # eta=1 puts the band on the negative side; the positive half of the gap
    # must be free of sign changes (and of near-zeros) of the determinant
    par = ShellParams.from_decimal("1", "1")
    for p in (0.0, 0.7, 3.0):
        half = math.hypot(p, par.m)
        zs = np.linspace(1e-6, 0.999 * half, 500)
        dets = np.array([matching_determinant(par, p, z).real for z in zs])
        assert np.all(dets > 0.0) or np.all(dets < 0.0)
        with pytest.raises(ValueError, match="sign condition"):
            dispersion_momentum(par, float(zs[0]))


# ----------------------------------------------------------------------------
# flat-band kernel scan
# ----------------------------------------------------------------------------

def test_kernel_scan_critical_dichotomy():
    for eta in ("2", "-2"):
        for m in ("0.5", "1"):
            par = ShellParams.from_decimal(eta, m)
            assert kernel_at_zero_scan(par) <= CRITICAL_KERNEL_TOL
    grid = np.linspace(-50.0, 50.0, 2001)
    for eta in ("1.9", "-1.9", "2.1", "-2.1"):
        par = ShellParams.from_decimal(eta, "1")
        dets = [abs(matching_determinant(par, p, 0.0)) for p in grid]
        assert min(dets) >= NONCRITICAL_KERNEL_FLOOR


def test_kernel_scan_domain():
    with pytest.raises(ValueError):
        kernel_at_zero_scan(ShellParams.from_decimal("1.9", "1"))
    with pytest.raises(ValueError):
        kernel_at_zero_scan(ShellParams.from_decimal("2", "0"))  # no gap at m=0


# ----------------------------------------------------------------------------
# quasi-mode residuals
# ----------------------------------------------------------------------------

def test_quasimode_residual_decreases_with_width():
    par = ShellParams.from_decimal("1", "1")
    for p0 in (0.0, 2.0):
        r = [quasimode_residual(par, p0, w) for w in (0.5, 0.25, 0.125)]
        assert r[0] > r[1] > r[2] > 0.0
    assert quasimode_residual(par, 0.0, 0.125) < QUASIMODE_RESIDUAL_TOL


def test_quasimode_residual_slope_oracle():
    # away from the band extremum R(w) ~ |z'(p0)| w; at eta=1, m=1, p0=2 the
    # closed form gives |z'(2)| = (3/5) * 2 / sqrt(5)
    par = ShellParams.from_decimal("1", "1")
    slope = 0.6 * 2.0 / math.sqrt(5.0)
    w = 0.05
    assert abs(quasimode_residual(par, 2.0, w) / w - slope) <= 0.1 * slope


def test_quasimode_residual_where_the_direct_form_fails():
    # for |m| << width the band has a corner at p = 0 inside the packet;
    # with m = 0, R = 0.6 width up to the far tail
    for m in ("0", "1e-6"):
        got = quasimode_residual(ShellParams.from_decimal("1", m), 0.5, 0.1)
        assert abs(got - 0.06) <= 1e-6, m
    # at the band minimum z - z(0) cancels; there R = |s| width^2 sqrt(3) / (2 m)
    # to leading order, with s = -3/5 the slope factor at eta = 1
    for m, width in ((1.0, 1e-4), (2.0, 1e-3)):
        got = quasimode_residual(ShellParams(1.0, m), 0.0, width)
        want = 0.6 * width * width * math.sqrt(3.0) / (2.0 * m)
        assert abs(got - want) <= 1e-5 * want, (m, width)


@pytest.mark.parametrize("eta, m, p0, width", [
    ("1", "1", 5.0, 1e-8),  # these three raised RuntimeError: p - p0 lost its digits
    ("1", "1", 2.0, 1e-11),
    ("1", "1", 1e6, 1.0),
    ("1", "1", 5.0, 1e-100),  # p0 +- 8 width rounded to p0: ZeroDivisionError
    ("1", "1/1000", 8193.0, 1 / 32),  # gave 0.018750000000021066, above the bound
])
def test_quasimode_residual_of_narrow_or_far_packets(eta, m, p0, width):
    par = ShellParams.from_decimal(eta, m)
    slope = float(par.band_ratio) * abs(p0) / math.hypot(p0, par.m)  # |z'(p0)|
    got = quasimode_residual(par, p0, width)
    assert abs(got - slope * width) <= 1e-6 * slope * width
    assert got <= float(par.band_ratio) * width


def test_quasimode_residual_is_homogeneous_to_the_last_bit():
    # R(l p0, l width, l m) = l R(p0, width, m); a power of two l = 2^+-1000
    # once ended in nan (0/0 at m = 0) or in an overflow warning
    for m, p0, width in ((1.0, 2.0, 0.25), (0.0, 0.0, 0.5), (1e-3, -3.0, 1.0)):
        want = quasimode_residual(ShellParams(1.0, m), p0, width)
        for k in (1000, -1000):
            par = ShellParams(1.0, math.ldexp(m, k))
            got = quasimode_residual(par, math.ldexp(p0, k), math.ldexp(width, k))
            assert got == math.ldexp(want, k), (m, p0, width, k)


def test_quasimode_residual_far_below_the_mass():
    # |m| far above width and |p0|: (z(p) - z(p0))^2 / width^2 is about 1e-602
    # and used to underflow to 0, while R = 0.6 sqrt(3) width^2 / (2 m) is normal
    width, m = 0.25, 1e300
    got = quasimode_residual(ShellParams(1.0, m), 0.0, width)
    want = 0.6 * math.sqrt(3.0) * width * width / (2.0 * m)
    assert abs(got - want) <= 1e-10 * want


def test_quasimode_residual_domain():
    par = ShellParams.from_decimal("1", "1")
    with pytest.raises(ValueError):
        quasimode_residual(par, 0.0, 0.0)
    for p0, width in ((math.inf, 0.1), (math.nan, 0.1), (0.0, math.inf), (0.0, math.nan)):
        with pytest.raises(ValueError):
            quasimode_residual(par, p0, width)
    with pytest.raises(ValueError):
        quasimode_residual(ShellParams.from_decimal("2", "1"), 0.0, 0.1)
