"""Boundary symbol: closed forms, inverses, anchor split, limit tables."""
import argparse
import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from diracshell import cli, symbol
from diracshell.fiber import fiber_eigenvalue
from diracshell.numerics import Mat2C, branch_sqrt, pauli
from diracshell.spectrum import dispersion_momentum
from diracshell.symbol import (
    DEFAULT_IM_Y,
    DEFAULT_SUP_Y,
    ShellParams,
    SingularSymbolError,
    boundary_det,
    boundary_symbol,
    boundary_symbol_inverse,
    default_anchor,
    dispersion_function,
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
# parameters and the branch cut
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


def test_params_compare_and_hash_by_exact_value():
    crit = ShellParams.from_decimal("2", "1")
    near = ShellParams.from_decimal("2.0000000000000001", "1")
    assert crit.eta == near.eta and crit.critical and not near.critical
    assert crit != near and hash(crit) != hash(near)
    for same in (ShellParams(2.0, 1), ShellParams("2", "1.0"), ShellParams(Fraction(4, 2), 1.0)):
        assert same == crit and hash(same) == hash(crit)


@pytest.mark.parametrize("value, exact", [
    (1.0, Fraction(1)),
    (0.1, Fraction(3602879701896397, 36028797018963968)),  # the float's binary value
    (3, Fraction(3)),
    (Fraction(-4, 3), Fraction(-4, 3)),
])
def test_params_hold_a_number_at_its_exact_value(value, exact):
    par = ShellParams(value, value)
    assert type(par.eta_exact) is Fraction and type(par.m_exact) is Fraction
    assert par.eta_exact == par.m_exact == exact
    assert type(par.eta) is float and par.eta == par.m == float(exact)


def test_params_overflow_fails_at_construction():
    for args in (("1e400", "1"), (1, 10**400), (Fraction(-10**400, 3), 1)):
        with pytest.raises(OverflowError):
            ShellParams(*args)


def test_every_text_path_refuses_a_huge_exponent_before_parsing(monkeypatch):
    def plain(value, *rest):  # Fraction of a text with an exponent builds 10**exponent
        assert not (isinstance(value, str) and "e" in value.lower()), value
        return Fraction(value, *rest)

    monkeypatch.setattr(symbol, "Fraction", plain)
    for text in ("1e20000000", "-1e-20000000", "2E+4301", "0e-99999999999999999999"):
        for make in (lambda: ShellParams.from_decimal(text, "1"),
                     lambda: ShellParams.from_decimal("1", text),
                     lambda: ShellParams(text, 1),
                     lambda: ShellParams(1.0, text)):
            with pytest.raises(ValueError, match=r"beyond \+-4300"):
                make()
        with pytest.raises(argparse.ArgumentTypeError, match=r"beyond \+-4300"):
            cli._exact_float(text)  # greens-eval --m


def test_symbol_functions_reject_the_branch_cut():
    # real z with |z| >= sqrt(p^2 + m^2) has no kappa with Re kappa > 0
    par = ShellParams.from_decimal("1", "1")
    massless = ShellParams.from_decimal("1", "0")
    for fn in (single_layer_symbol, boundary_symbol, boundary_det, dispersion_function,
               boundary_symbol_inverse):
        with pytest.raises(ValueError, match="branch_sqrt"):
            fn(par, 0.0, 1.0)
        with pytest.raises(ValueError, match="branch_sqrt"):
            fn(massless, 3.0, -4.0)
        # z = 2 is on the cut at p = 0 only
        with pytest.raises(ValueError, match="branch_sqrt"):
            fn(par, np.array([0.0, 3.0]), 2.0)
        with pytest.raises(ValueError, match="branch_sqrt"):
            fn(par, 3.0, np.array([0.5j, 4.0]))


# ----------------------------------------------------------------------------
# closed forms at frozen points
# ----------------------------------------------------------------------------

def test_single_layer_symbol_at_origin():
    par = ShellParams.from_decimal("1", "1")
    got = single_layer_symbol(par, 0.0, 0.0)
    # kappa = sqrt(m^2) = 1 at p = z = 0
    assert (got - Mat2C(0.5, 0.0, 0.0, -0.5)).max_abs() == 0.0
    assert single_layer_symbol(ShellParams.from_decimal("1", "2"), 0, 0).a11 == 0.5


def test_single_layer_symbol_momentum_parity():
    par = ShellParams.from_decimal("1.5", "0.5")
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = rng.uniform(0.1, 8.0)
        z = _random_gap_z(rng)
        plus = single_layer_symbol(par, p, z)
        minus = single_layer_symbol(par, -p, z)
        assert plus.a11 == minus.a11 and plus.a22 == minus.a22
        assert plus.a12 == -minus.a12


def test_boundary_symbol_and_inverse_at_origin():
    par = ShellParams.from_decimal("1", "1")
    theta = boundary_symbol(par, 0.0, 0.0)
    assert (theta - Mat2C(-1.5, 0.0, 0.0, -0.5)).max_abs() == 0.0
    inv = boundary_symbol_inverse(par, 0.0, 0.0)
    assert (inv - Mat2C(-2.0 / 3.0, 0.0, 0.0, -2.0)).max_abs() <= 1e-15


def test_boundary_symbol_requires_coupling():
    par = ShellParams.from_decimal("0", "1")
    with pytest.raises(ValueError, match="eta = 0"):
        boundary_symbol(par, 0.0, 0.5j)


# ----------------------------------------------------------------------------
# determinant and inverse identities on random samples
# ----------------------------------------------------------------------------

def test_det_closed_form_matches_direct_determinant():
    rng = np.random.default_rng(17)
    for eta, m in ((1.0, 1.0), (-3.0, 0.5), (2.0, 2.0), (0.7, -1.0)):
        par = ShellParams(eta, m)
        for _ in range(300):
            p, z = rng.uniform(-10, 10), _random_gap_z(rng)
            direct = boundary_symbol(par, p, z).det()
            closed = boundary_det(par, p, z)
            assert abs(direct - closed) <= DET_IDENTITY_RTOL * abs(closed)


def test_det_proportional_to_dispersion_function():
    # det theta = c (p^2+1) / (4 eta^2 kappa)
    par = ShellParams.from_decimal("1.5", "1")
    rng = np.random.default_rng(29)
    for _ in range(100):
        p, z = rng.uniform(-6, 6), _random_gap_z(rng)
        kappa = cmath.sqrt(p * p + par.m * par.m - z * z)  # Re z^2 < p^2 + m^2 here
        lhs = boundary_det(par, p, z)
        c = dispersion_function(par, p, z)
        rhs = c * (p * p + 1.0) / (4.0 * par.eta * par.eta * kappa)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_inverse_product_is_identity():
    rng = np.random.default_rng(41)
    eye = pauli(0)
    for eta in (1.0, -2.0, 3.5, 0.25):
        par = ShellParams(eta, 1.0)
        for _ in range(250):
            p, z = rng.uniform(-10, 10), _random_gap_z(rng)
            prod = boundary_symbol(par, p, z) @ boundary_symbol_inverse(par, p, z)
            assert (prod - eye).max_abs() <= INVERSE_ENTRY_TOL


def test_inverse_forms_kappa_once(monkeypatch):
    calls = []

    def counted(w):
        calls.append(w)
        return branch_sqrt(w)

    monkeypatch.setattr(symbol, "branch_sqrt", counted)
    boundary_symbol_inverse(ShellParams.from_decimal("1", "1"), np.linspace(-1.0, 1.0, 5), 0.5j)
    assert len(calls) == 1


def test_inverse_refuses_spectral_points():
    par = ShellParams.from_decimal("1", "1")
    # z = -0.6 at p = 0 lies on the dispersion curve: c = 0 exactly
    with pytest.raises(SingularSymbolError):
        boundary_symbol_inverse(par, 0.0, -0.6 + 0.0j)


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
        for fn in (single_layer_symbol, boundary_symbol, boundary_det, dispersion_function,
                   boundary_symbol_inverse):
            _assert_pointwise(
                fn(par, p, z), lambda i: fn(par, float(p[i[0], 0]), complex(z[i[1]])), shape
            )
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
        boundary_symbol_inverse(par, np.array([1.0, 0.0, 2.0]), -0.6)


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
            theta = boundary_symbol(par, p, z)
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
# band momenta
# ----------------------------------------------------------------------------

def test_band_momenta_frozen_example():
    assert ShellParams.from_decimal("6", "2").band_momenta(2.0) == (-1.5, 1.5)


def test_band_momenta_sign_and_window():
    par = ShellParams.from_decimal("1", "1")
    # eta/(eta^2-4) < 0: needs x < 0 for real momenta
    assert par.band_momenta(1.3) is None
    got = par.band_momenta(-1.3)
    assert got is not None
    window = math.sqrt(1.3 * 1.3 - 1.0)
    assert got[1] > window  # always outside the oscillation window
    for eta in ("0", "2", "-2"):
        assert ShellParams.from_decimal(eta, "1").band_momenta(1.5) is None
        assert ShellParams.from_decimal(eta, "1").band_momenta(-1.5) is None
    with pytest.raises(ValueError):
        limit_sup_table(par, 0.5)  # |x| < |m|: inside the gap


def test_band_momenta_beyond_the_squares_range():
    # math.sqrt of the exact radicand converted it to a float first, which
    # overflowed (OverflowError) or underflowed (a root of 0)
    par = ShellParams.from_decimal("1", "1")
    assert par.band_momenta(-1e200) == (-1.6666666666666667e200, 1.6666666666666667e200)
    lo, hi = par.band_momenta(-1e308)
    assert lo == -hi and abs(hi - 1.6666666666666668e308) <= math.ulp(hi)  # exact: 1.6666666666666666850e308
    with pytest.raises(ValueError, match="float range"):
        par.band_momenta(-1.7e308)  # 2.8e308
    root = ShellParams.from_decimal("1", "1e-200").band_momenta(-1e-200)[1]
    assert abs(root / (4.0 / 3.0 * 1e-200) - 1.0) <= 1e-15


# ----------------------------------------------------------------------------
# diagnostics grid and limit tables
# ----------------------------------------------------------------------------

def test_hybrid_grid_shape_and_coverage():
    grid = symbol._SUP_GRID
    assert grid.size == 4001
    assert grid[0] == -100.0 and grid[-1] == 100.0
    assert np.all(np.diff(grid) > 0.0)  # sorted, no duplicates
    pos = grid[grid > 0.0]
    assert pos.min() < 5e-3  # geometric ladder reaches small momenta


def test_limit_sup_table_decays_linearly_in_y():
    par = ShellParams.from_decimal("1", "1")
    for x in (1.0, -1.0, 1.5, -1.5):
        rows = limit_sup_table(par, x)
        assert [y for y, _ in rows] == list(DEFAULT_SUP_Y)
        assert rows[-1][1] < 0.05 * rows[0][1]


def test_limit_sup_table_leaves_out_critical_cells():
    # eta = 6, m = 2: the critical momenta at x = 2 are exactly +-1.5, and
    # the largest y of the table is 0.1
    par = ShellParams.from_decimal("6", "2")
    crit = par.band_momenta(2.0)
    assert crit == (-1.5, 1.5)
    grid = symbol._SUP_GRID
    near = np.min(np.abs(grid[:, None] - np.array(crit)), axis=1) < 0.1
    assert np.count_nonzero(near & (grid < 0.0)) and np.count_nonzero(near & (grid > 0.0))
    rows = limit_sup_table(par, 2.0)
    for y, value in rows:
        inv = boundary_symbol_inverse(par, grid[~near], 2.0 + 1j * y)
        assert abs(value - y * np.max(inv.max_abs())) <= 1e-15 * value
    assert rows[-1][1] < 0.05 * rows[0][1]
    # the left-out nodes do not decay: with them the sup would stay near 2.7
    y = DEFAULT_SUP_Y[-1]
    assert y * np.max(boundary_symbol_inverse(par, grid[near], 2.0 + 1j * y).max_abs()) > 1.0


def test_limit_sup_table_domain():
    par = ShellParams.from_decimal("1", "1")
    with pytest.raises(ValueError):
        limit_sup_table(par, 0.5)  # inside the gap


def test_limit_im_table_has_nontrivial_limit():
    for eta in ("1", "2"):
        par = ShellParams.from_decimal(eta, "1")
        for x in (2.0, -2.0):
            rows = limit_im_table(par, x)
            assert rows[-1][1] >= LIMIT_IM_FLOOR
            assert abs(rows[-1][1] - rows[-2][1]) <= LIMIT_IM_CAUCHY
            assert [y for y, _ in rows] == list(DEFAULT_IM_Y)


def test_limit_im_table_domain():
    par = ShellParams.from_decimal("1", "1")
    with pytest.raises(ValueError):
        limit_im_table(par, 1.0)  # |x| > |m| strict


def _im_table_grid(monkeypatch, par, x):
    grids = []
    inverse = symbol.boundary_symbol_inverse

    def spy(params, p, z):
        grids.append(np.array(p))
        return inverse(params, p, z)

    monkeypatch.setattr(symbol, "boundary_symbol_inverse", spy)
    limit_im_table(par, x)
    return grids[0]


def test_limit_im_table_samples_the_centred_half_window(monkeypatch):
    cases = (("1", "1", 2.0), ("3", "2", -4.0), ("-1/2", "1e-3", 7.5), ("1", "1e100", 3e100))
    for eta, mass, x in cases:
        par = ShellParams.from_decimal(eta, mass)
        grid = _im_table_grid(monkeypatch, par, x)
        half = 0.5 * math.sqrt(x * x - par.m * par.m)
        assert grid.size == 201 and grid[0] == -half and grid[-1] == half
        assert np.all(np.diff(grid) > 0.0)
    # x^2 underflows here, yet the window keeps its width
    for mass in ("1e-200", "1e-300"):
        par = ShellParams.from_decimal("1", mass)
        grid = _im_table_grid(monkeypatch, par, 2.0 * par.m)
        assert grid[-1] == -grid[0]
        assert abs(grid[-1] / (0.5 * math.sqrt(3.0) * par.m) - 1.0) <= 1e-15


@pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
def test_non_finite_inputs_are_refused(value):
    # they used to give rows of nan, a nan or no root
    par = ShellParams.from_decimal("1", "1")
    for call in (limit_sup_table, limit_im_table, ShellParams.band_momenta, dispersion_momentum,
                 fiber_eigenvalue):
        with pytest.raises(ValueError, match="finite"):
            call(par, value)


def test_limit_tables_refuse_squares_beyond_the_float_range():
    # they warned of numpy overflows and returned rows of nan
    par = ShellParams.from_decimal("1", "1")
    for call in (limit_sup_table, limit_im_table):
        for x in (1e200, -1.35e154):
            with pytest.raises(ValueError, match=r"x\^2 \+ m\^2"):
                call(par, x)


def test_limit_im_table_refuses_a_prefactor_beyond_the_float_range():
    # x^2 + m^2 is finite here, but c sqrt(p^2 + 1) at |p| ~ x/2 is not: the
    # table warned of numpy overflows and returned rows of nan
    par = ShellParams.from_decimal("1", "1")
    for x in (8e153, 1.3e154):
        with pytest.raises(ValueError, match="float range"):
            limit_im_table(par, x)
    assert all(np.isfinite(v) and v > 0.0 for _, v in limit_im_table(par, 1e150))


def test_limit_sup_table_answers_when_the_momenta_leave_the_float_range():
    # at band_ratio ~ 1e-300 band_momenta(1e10) is a ValueError; momenta that
    # far out exclude no node of the grid
    par = ShellParams(2 + Fraction(1, 10**300), 1)
    with pytest.raises(ValueError, match="float range"):
        par.band_momenta(1e10)
    assert all(np.isfinite(v) and v > 0.0 for _, v in limit_sup_table(par, 1e10))


def test_default_anchor_tracks_the_mass():
    assert default_anchor(ShellParams.from_decimal("1", "1")) == 2.0j
    assert default_anchor(ShellParams.from_decimal("1", "-3")) == 4.0j
