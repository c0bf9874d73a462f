"""Boundary symbol: closed forms, inverses, anchor split, limit tables."""
import math
from fractions import Fraction

import numpy as np
import pytest

from diracshell.numerics import Mat2C
from diracshell.symbol import (
    DEFAULT_IM_Y,
    DEFAULT_SUP_Y,
    ShellParams,
    SingularSymbolError,
    SymbolPoint,
    boundary_det,
    boundary_symbol,
    boundary_symbol_inverse,
    critical_momenta,
    default_anchor,
    dispersion_function,
    hybrid_grid,
    limit_im_table,
    limit_sup_table,
    reference_symbol,
    single_layer_symbol,
    weyl_symbol,
)
from diracshell.tolerances import (
    DET_IDENTITY_RTOL,
    INVERSE_ENTRY_TOL,
    LIMIT_IM_CAUCHY,
    LIMIT_IM_FLOOR,
    ZETA_INDEPENDENCE_TOL,
)


def _random_gap_z(rng):
    """Random z off the real axis (always admissible)."""
    return complex(rng.uniform(-3, 3), rng.uniform(0.3, 2.5) * rng.choice([-1, 1]))


# ----------------------------------------------------------------------------
# parameters and symbol points
# ----------------------------------------------------------------------------

def test_params_criticality_is_exact():
    assert ShellParams.from_decimal("2.0", "1").critical
    assert ShellParams.from_decimal("-2", "0.5").critical
    assert ShellParams.from_decimal("2e0", "1").critical
    assert not ShellParams.from_decimal("1.9999999", "1").critical
    assert not ShellParams.from_decimal("2.0000001", "1").critical


def test_params_exact_fields_from_decimal():
    par = ShellParams.from_decimal("0.1", "-2.5")
    assert par.eta_exact == Fraction(1, 10)
    assert par.m_exact == Fraction(-5, 2)
    assert par.eta == 0.1 and par.m == -2.5


def test_symbol_point_kappa_and_cut():
    pt = SymbolPoint.create(0.0, 0.0, 1.0)
    assert pt.kappa == 1.0
    # real z on the fiber branch cut is rejected
    with pytest.raises(ValueError):
        SymbolPoint.create(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SymbolPoint.create(3.0, -4.0, 0.0)


# ----------------------------------------------------------------------------
# closed forms at frozen points
# ----------------------------------------------------------------------------

def test_single_layer_symbol_at_origin():
    par = ShellParams.from_decimal("1", "1")
    got = single_layer_symbol(par, SymbolPoint.create(0.0, 0.0, 1.0))
    assert (got - Mat2C(0.5, 0.0, 0.0, -0.5)).max_abs() == 0.0


def test_single_layer_symbol_momentum_parity():
    par = ShellParams.from_decimal("1.5", "0.5")
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = rng.uniform(0.1, 8.0)
        z = _random_gap_z(rng)
        plus = single_layer_symbol(par, SymbolPoint.create(p, z, par.m))
        minus = single_layer_symbol(par, SymbolPoint.create(-p, z, par.m))
        assert plus.a11 == minus.a11 and plus.a22 == minus.a22
        assert plus.a12 == -minus.a12


def test_boundary_symbol_and_inverse_at_origin():
    par = ShellParams.from_decimal("1", "1")
    pt = SymbolPoint.create(0.0, 0.0, 1.0)
    theta = boundary_symbol(par, pt)
    assert (theta - Mat2C(-1.5, 0.0, 0.0, -0.5)).max_abs() == 0.0
    inv = boundary_symbol_inverse(par, pt)
    assert (inv - Mat2C(-2.0 / 3.0, 0.0, 0.0, -2.0)).max_abs() <= 1e-15


def test_boundary_symbol_requires_coupling():
    par = ShellParams.from_decimal("0", "1")
    pt = SymbolPoint.create(0.0, 0.5j, 1.0)
    with pytest.raises(ValueError):
        boundary_symbol(par, pt)


# ----------------------------------------------------------------------------
# determinant and inverse identities on random samples
# ----------------------------------------------------------------------------

def test_det_closed_form_matches_direct_determinant():
    rng = np.random.default_rng(17)
    for eta, m in ((1.0, 1.0), (-3.0, 0.5), (2.0, 2.0), (0.7, -1.0)):
        par = ShellParams(eta, m)
        for _ in range(300):
            pt = SymbolPoint.create(rng.uniform(-10, 10), _random_gap_z(rng), m)
            direct = boundary_symbol(par, pt).det()
            closed = boundary_det(par, pt)
            assert abs(direct - closed) <= DET_IDENTITY_RTOL * abs(closed)


def test_det_proportional_to_dispersion_function():
    # det theta = c (p^2+1) / (4 eta^2 kappa)
    par = ShellParams.from_decimal("1.5", "1")
    rng = np.random.default_rng(29)
    for _ in range(100):
        pt = SymbolPoint.create(rng.uniform(-6, 6), _random_gap_z(rng), par.m)
        lhs = boundary_det(par, pt)
        c = dispersion_function(par, pt)
        rhs = c * (pt.p * pt.p + 1.0) / (4.0 * par.eta * par.eta * pt.kappa)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_inverse_product_is_identity():
    rng = np.random.default_rng(41)
    eye = Mat2C.identity()
    for eta in (1.0, -2.0, 3.5, 0.25):
        par = ShellParams(eta, 1.0)
        for _ in range(250):
            pt = SymbolPoint.create(rng.uniform(-10, 10), _random_gap_z(rng), par.m)
            prod = boundary_symbol(par, pt) @ boundary_symbol_inverse(par, pt)
            assert (prod - eye).max_abs() <= INVERSE_ENTRY_TOL


def test_inverse_refuses_spectral_points():
    par = ShellParams.from_decimal("1", "1")
    # z = -0.6 at p = 0 lies on the dispersion curve: c = 0 exactly
    pt = SymbolPoint.create(0.0, -0.6 + 0.0j, 1.0)
    with pytest.raises(SingularSymbolError):
        boundary_symbol_inverse(par, pt)


# ----------------------------------------------------------------------------
# broadcasting: one array call equals the scalar calls point by point
# ----------------------------------------------------------------------------

def _entries(v):
    if isinstance(v, Mat2C):
        return np.stack(np.broadcast_arrays(v.a11, v.a12, v.a21, v.a22), axis=-1)
    return np.asarray(v)[..., None]


def _assert_pointwise(batch, scalar_at, shape, scale_at=None):
    """Entrywise agreement to 1e-15 relative to the largest entry, or to
    scale_at(idx) for a value formed by cancellation."""
    got = _entries(batch)
    assert got.shape[:-1] == shape
    for idx in np.ndindex(*shape):
        want = _entries(scalar_at(idx))
        scale = np.max(np.abs(want)) if scale_at is None else scale_at(idx)
        assert np.all(np.abs(got[idx] - want) <= 1e-15 * scale), idx


def test_symbol_functions_broadcast_over_p_and_z():
    rng = np.random.default_rng(61)
    p = rng.uniform(-10.0, 10.0, (5, 1))
    z = np.array([_random_gap_z(rng) for _ in range(4)] + [0.3 + 0.0j])
    shape = (5, 5)
    for eta, m in (("1", "1"), ("-4/3", "0.5"), ("2", "2")):
        par = ShellParams.from_decimal(eta, m)
        zeta = default_anchor(par)
        batch = SymbolPoint.create(p, z, par.m)

        def point(idx):
            return SymbolPoint.create(float(p[idx[0], 0]), complex(z[idx[1]]), par.m)

        _assert_pointwise(batch.kappa, lambda i: point(i).kappa, shape)
        for fn in (single_layer_symbol, boundary_symbol, boundary_det, dispersion_function,
                   boundary_symbol_inverse):
            _assert_pointwise(fn(par, batch), lambda i: fn(par, point(i)), shape)
        # the Weyl symbol is a difference of two terms of the size of the
        # reference symbol
        _assert_pointwise(
            weyl_symbol(par, z, zeta, p),
            lambda i: weyl_symbol(par, z[i[1]], zeta, p[i[0], 0]),
            shape,
            lambda i: reference_symbol(par, zeta, p[i[0], 0]).max_abs(),
        )
        _assert_pointwise(
            reference_symbol(par, zeta, p[:, 0]), lambda i: reference_symbol(par, zeta, p[i[0], 0]), (5,)
        )


def test_array_inverse_refuses_any_spectral_point():
    par = ShellParams.from_decimal("1", "1")
    with pytest.raises(SingularSymbolError, match="p=0.0"):
        boundary_symbol_inverse(par, SymbolPoint.create(np.array([1.0, 0.0, 2.0]), -0.6, 1.0))
    with pytest.raises(ValueError):
        SymbolPoint.create(np.array([0.0, 3.0]), 2.0, 1.0)  # z = 2 on the cut at p = 0


# ----------------------------------------------------------------------------
# anchor split
# ----------------------------------------------------------------------------

def test_anchor_split_reconstructs_boundary_symbol():
    rng = np.random.default_rng(53)
    for eta, m in ((1.0, 1.0), (-0.5, 2.0), (2.0, 0.5)):
        par = ShellParams(eta, m)
        zeta = default_anchor(par)
        for _ in range(200):
            p = rng.uniform(-10, 10)
            z = _random_gap_z(rng)
            theta = boundary_symbol(par, SymbolPoint.create(p, z, m))
            split = reference_symbol(par, zeta, p) - weyl_symbol(par, z, zeta, p)
            scale = max(1.0, theta.max_abs())
            assert (split - theta).max_abs() <= ZETA_INDEPENDENCE_TOL * scale


def test_anchor_split_is_anchor_independent():
    par = ShellParams.from_decimal("1", "1")
    rng = np.random.default_rng(59)
    zeta1 = default_anchor(par)
    zeta2 = 0.7 - 1.3j
    for _ in range(200):
        p = rng.uniform(-10, 10)
        z = _random_gap_z(rng)
        s1 = reference_symbol(par, zeta1, p) - weyl_symbol(par, z, zeta1, p)
        s2 = reference_symbol(par, zeta2, p) - weyl_symbol(par, z, zeta2, p)
        scale = max(1.0, s1.max_abs())
        assert (s1 - s2).max_abs() <= ZETA_INDEPENDENCE_TOL * scale


def test_anchor_must_be_nonreal():
    par = ShellParams.from_decimal("1", "1")
    with pytest.raises(ValueError):
        reference_symbol(par, 1.5, 0.0)
    with pytest.raises(ValueError):
        weyl_symbol(par, 0.2j, 1.5, 0.0)


# ----------------------------------------------------------------------------
# critical momenta
# ----------------------------------------------------------------------------

def test_critical_momenta_frozen_example():
    par = ShellParams.from_decimal("6", "2")
    got = critical_momenta(par, 2.0)
    assert got is not None
    assert abs(got[0] + 1.5) <= 1e-13 and abs(got[1] - 1.5) <= 1e-13


def test_critical_momenta_sign_and_window():
    par = ShellParams.from_decimal("1", "1")
    # eta/(eta^2-4) < 0: needs x < 0 for real momenta
    assert critical_momenta(par, 1.3) is None
    got = critical_momenta(par, -1.3)
    assert got is not None
    window = math.sqrt(1.3 * 1.3 - 1.0)
    assert got[1] > window  # always outside the oscillation window
    assert critical_momenta(ShellParams.from_decimal("2", "1"), 1.5) is None
    assert critical_momenta(ShellParams.from_decimal("0", "1"), 1.5) is None
    with pytest.raises(ValueError):
        critical_momenta(par, 0.5)


# ----------------------------------------------------------------------------
# diagnostics grid and limit tables
# ----------------------------------------------------------------------------

def test_hybrid_grid_shape_and_coverage():
    grid = hybrid_grid()
    assert grid.size == 4001
    assert grid[0] == -100.0 and grid[-1] == 100.0
    assert np.all(np.diff(grid) > 0.0)  # sorted, no duplicates
    pos = grid[grid > 0.0]
    assert pos.min() < 5e-3  # geometric ladder reaches small momenta
    custom = hybrid_grid(-5.0, 5.0, 801)
    assert custom.size == 801 and custom[0] == -5.0 and custom[-1] == 5.0
    one_sided = hybrid_grid(1.0, 2.0, 11)
    assert np.allclose(one_sided, np.linspace(1.0, 2.0, 11))


def test_hybrid_grid_validation():
    with pytest.raises(ValueError):
        hybrid_grid(count=1)
    with pytest.raises(ValueError):
        hybrid_grid(2.0, 2.0, 100)


def test_limit_sup_table_decays_linearly_in_y():
    par = ShellParams.from_decimal("1", "1")
    for x in (1.0, -1.0, 1.5, -1.5):
        rows = limit_sup_table(par, x)
        assert [y for y, _ in rows] == list(DEFAULT_SUP_Y)
        assert rows[-1][1] < 0.05 * rows[0][1]


def test_limit_sup_table_leaves_out_critical_cells():
    # eta = 6, m = 2: the critical momenta at x = 2 are exactly +-1.5
    par = ShellParams.from_decimal("6", "2")
    cases = (
        # +-1.5 are nodes, so both cells around each go: +-1, +-1.5, +-2
        (np.linspace(-3.0, 3.0, 13), [0, 1, 5, 6, 7, 11, 12]),
        # +-1.5 lie inside the cells [-1.6, -0.8] and [0.8, 1.6]
        (np.linspace(-3.2, 3.2, 9), [0, 1, 4, 7, 8]),
    )
    for grid, kept in cases:
        rows = limit_sup_table(par, 2.0, p_grid=grid)
        for y, value in rows:
            inv = boundary_symbol_inverse(par, SymbolPoint.create(grid[kept], 2.0 + 1j * y, 2.0))
            assert abs(value - y * np.max(inv.max_abs())) <= 1e-15 * value
        assert rows[-1][1] < 0.05 * rows[0][1]


def test_limit_sup_table_domain():
    par = ShellParams.from_decimal("1", "1")
    with pytest.raises(ValueError):
        limit_sup_table(par, 0.5)  # inside the gap
    with pytest.raises(ValueError):
        limit_sup_table(par, 1.0, y_list=(1e-1, 1e-1))  # not decreasing
    with pytest.raises(ValueError):
        limit_sup_table(par, 1.0, p_grid=[0.0])  # degenerate grid


def test_limit_im_table_has_nontrivial_limit():
    for eta in ("1", "2"):
        par = ShellParams.from_decimal(eta, "1")
        for x in (2.0, -2.0):
            half = 0.5 * math.sqrt(x * x - 1.0)
            rows = limit_im_table(par, x, (-half, half))
            assert rows[-1][1] >= LIMIT_IM_FLOOR
            assert abs(rows[-1][1] - rows[-2][1]) <= LIMIT_IM_CAUCHY
            assert [y for y, _ in rows] == list(DEFAULT_IM_Y)


def test_limit_im_table_domain():
    par = ShellParams.from_decimal("1", "1")
    with pytest.raises(ValueError):
        limit_im_table(par, 1.0, (-0.1, 0.1))  # |x| > |m| strict
    with pytest.raises(ValueError):
        limit_im_table(par, 2.0, (-2.0, 2.0))  # exceeds the window
    with pytest.raises(ValueError):
        limit_im_table(par, 2.0, (0.5, 0.5))  # empty interval


def test_default_anchor_tracks_the_mass():
    assert default_anchor(ShellParams.from_decimal("1", "1")) == 2.0j
    assert default_anchor(ShellParams.from_decimal("1", "-3")) == 4.0j
