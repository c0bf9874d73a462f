"""Green kernel closed form, PDE residual, Fourier pair, resolvent quadrature."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from diracshell import greens
from diracshell.greens import (
    SampledField,
    fourier_pair_check,
    green_kernel,
    pde_residual,
    resolvent_apply,
)
from diracshell.numerics import Mat2C, bessel_k01_ray, branch_sqrt
from diracshell.tolerances import (
    FOURIER_PAIR_TOL,
    PDE_RESIDUAL_TOL,
    RESOLVENT_ROUNDTRIP_TOL,
    RICHARDSON_RATIO_BOUNDS,
)

from oracle_bessel import bessel_k_oracle

TWO_PI = 2.0 * math.pi


def _oracle_kernel(m, z, x1, x2):
    """Independent assembly of G_z from the series/asymptotic Bessel oracle."""
    r = math.hypot(x1, x2)
    a = branch_sqrt(m * m - z * z)
    k0 = bessel_k_oracle(0, a * r)
    k1 = bessel_k_oracle(1, a * r)
    c1 = 1j * a * k1 / (TWO_PI * r)
    return Mat2C(
        k0 * (z + m) / TWO_PI,
        c1 * (x1 - 1j * x2),
        c1 * (x1 + 1j * x2),
        k0 * (z - m) / TWO_PI,
    )


# ----------------------------------------------------------------------------
# kernel values
# ----------------------------------------------------------------------------

def test_green_kernel_matches_oracle_assembly():
    cases = [
        (1.0, 0.0 + 0.0j, (1.0, 0.0)),
        (1.0, 0.5j, (0.3, -0.4)),
        (0.5, 0.2 + 0.1j, (-2.0, 1.5)),
        (2.0, -0.9 + 0.0j, (0.05, 0.02)),
        (-1.0, 0.3 + 0.0j, (4.0, 3.0)),
    ]
    for m, z, x in cases:
        got = green_kernel(m, z, x)
        want = _oracle_kernel(m, z, x[0], x[1])
        assert (got - want).max_abs() <= 1e-12 * want.max_abs()


def test_green_kernel_structure_on_the_axes():
    k0 = bessel_k_oracle(0, 1.0).real
    k1 = bessel_k_oracle(1, 1.0).real
    g = green_kernel(1.0, 0.0, (1.0, 0.0))
    assert abs(g.a11 - k0 / TWO_PI) <= 1e-13
    assert abs(g.a22 + k0 / TWO_PI) <= 1e-13
    assert abs(g.a12 - 1j * k1 / TWO_PI) <= 1e-13
    assert g.a12 == g.a21
    # x on the second axis: sigma.x = sigma_2 gives a real antisymmetric pair
    g = green_kernel(1.0, 0.0, (0.0, 1.0))
    assert abs(g.a12 - k1 / TWO_PI) <= 1e-13
    assert abs(g.a21 + k1 / TWO_PI) <= 1e-13


def test_green_kernel_parity_split():
    rng = np.random.default_rng(83)
    for _ in range(40):
        m = rng.uniform(0.5, 2.0)
        z = complex(rng.uniform(-0.4, 0.4) * m, rng.uniform(0.0, 1.5))
        x = rng.uniform(-3.0, 3.0, size=2)
        if math.hypot(*x) < 0.1:
            continue
        plus = green_kernel(m, z, x)
        minus = green_kernel(m, z, -x)
        even = plus + minus  # K0 (mass/energy) part, diagonal
        odd = plus - minus  # K1 (sigma.x) part, off-diagonal
        assert abs(even.a12) <= 1e-14 * plus.max_abs()
        assert abs(even.a21) <= 1e-14 * plus.max_abs()
        assert abs(odd.a11) <= 1e-14 * plus.max_abs()
        assert abs(odd.a22) <= 1e-14 * plus.max_abs()


def test_green_kernel_conjugate_symmetry():
    rng = np.random.default_rng(89)
    for _ in range(40):
        m = rng.uniform(0.5, 2.0)
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.1, 1.5))
        x = rng.uniform(-3.0, 3.0, size=2)
        if math.hypot(*x) < 0.1:
            continue
        lhs = green_kernel(m, z.conjugate(), x).as_array()
        rhs = green_kernel(m, z, -x).as_array().conj().T
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))


def test_green_kernel_decay():
    m, z = 1.0, 0.5
    a = branch_sqrt(m * m - z * z).real
    for r in (20.0, 24.0):
        g = green_kernel(m, z, (r / math.sqrt(2.0), r / math.sqrt(2.0)))
        assert g.max_abs() <= math.exp(-0.9 * a * r)
    # log-linear fit of the decay rate over |x| in [5, 20]
    radii = np.linspace(5.0, 20.0, 11)
    vals = np.log([green_kernel(1.0, 0.0, (r, 0.0)).max_abs() for r in radii])
    slope = np.polyfit(radii, vals, 1)[0]
    assert abs(-slope - 1.0) <= 0.05


def test_green_kernel_domain():
    with pytest.raises(ValueError):
        green_kernel(1.0, 0.0, (0.0, 0.0))
    # real z on the free spectrum: branch cut
    with pytest.raises(ValueError):
        green_kernel(1.0, 1.5, (1.0, 0.0))
    with pytest.raises(ValueError):
        green_kernel(1.0, -1.0, (1.0, 0.0))
    with pytest.raises(ValueError):
        green_kernel(0.0, 0.0, (1.0, 0.0))  # massless gap is empty


def test_a_decay_rate_beyond_the_float_range_is_a_domain_error():
    # m^2 - z^2 overflows to inf here; the error must name that, not the
    # Bessel ray's direction inf+nanj that follows from it
    field = _gaussian_field(count=11)
    for m, z in ((1e200, 0.5j), (1.0, 1e200 + 0.5j)):
        with pytest.raises(ValueError, match=r"m\^2 - z\^2 leaves the float range"):
            green_kernel(m, z, (1.0, 0.0))
        with pytest.raises(ValueError, match=r"m\^2 - z\^2 leaves the float range"):
            resolvent_apply(m, z, field, (0.0, 0.0))


# ----------------------------------------------------------------------------
# PDE residual
# ----------------------------------------------------------------------------

def test_pde_residual_small_at_fine_steps():
    assert pde_residual(1.0, 0.0, (1.0, 0.0), 1e-3).max_abs() <= PDE_RESIDUAL_TOL
    assert pde_residual(1.0, 0.4 + 0.0j, (0.5, -0.3), 1e-3).max_abs() <= PDE_RESIDUAL_TOL
    assert pde_residual(2.0, 0.5j, (-2.0, 1.0), 1e-3).max_abs() <= PDE_RESIDUAL_TOL


def test_pde_residual_second_order_convergence():
    rng = np.random.default_rng(97)
    lo, hi = RICHARDSON_RATIO_BOUNDS
    for _ in range(10):
        phi = rng.uniform(0.0, TWO_PI)
        r = rng.uniform(0.5, 3.0)
        x = (r * math.cos(phi), r * math.sin(phi))
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.2, 1.0))
        coarse = pde_residual(1.0, z, x, 2e-3).max_abs()
        fine = pde_residual(1.0, z, x, 1e-3).max_abs()
        assert lo <= coarse / fine <= hi


def test_pde_residual_domain():
    with pytest.raises(ValueError):
        pde_residual(1.0, 0.0, (1.0, 0.0), 0.3)  # h >= |x|/4
    with pytest.raises(ValueError):
        pde_residual(1.0, 0.0, (1.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        pde_residual(0.0, 0.0, (1.0, 0.0), 1e-3)  # z inside sigma(A_0)


# ----------------------------------------------------------------------------
# Fourier pair
# ----------------------------------------------------------------------------

def test_fourier_pair_meets_tolerance():
    assert fourier_pair_check() <= FOURIER_PAIR_TOL


def test_fourier_pair_takes_every_kappa_in_one_ray_below_the_engine_range(monkeypatch):
    seen = []
    ray = greens.bessel_k01_ray

    def spy(a, r):
        seen.append(np.array(r))
        return ray(a, r)

    monkeypatch.setattr(greens, "bessel_k01_ray", spy)
    fourier_pair_check()
    (w,) = seen
    # 129 head nodes per kappa, then full-period panels ending at kappa x = 29
    assert w.size == 3 * 129 + 16 * (185 + 92 + 46)
    assert 28.9 < w.max() < 29.0


@pytest.mark.parametrize("beyond", (0.0, 1.0))
def test_fourier_pair_flags_a_kernel_fault(monkeypatch, beyond):
    # K0 off by 1e-9 relative, everywhere or only past the argument 1
    ray = greens.bessel_k01_ray

    def faulty(a, r):
        k0, k1 = ray(a, r)
        return np.where(np.abs(a * np.asarray(r)) > beyond, k0 * (1.0 + 1e-9), k0), k1

    monkeypatch.setattr(greens, "bessel_k01_ray", faulty)
    assert fourier_pair_check() > 1e-10


# ----------------------------------------------------------------------------
# sampled fields and the resolvent
# ----------------------------------------------------------------------------

def _gaussian_field(half_width=0.6, count=31, sig=0.15):
    def func(u, v):
        g = math.exp(-(u * u + v * v) / (2.0 * sig * sig))
        return (g, 0.5 * g)

    return SampledField.sample(func, half_width, count)


def test_sampled_field_constructor_checks():
    field = _gaussian_field()
    assert abs(field.spacing - 0.04) <= 1e-15
    assert field.values.shape == (31, 31, 2)
    with pytest.raises(ValueError):
        SampledField(np.array([0.0, 0.1, 0.3]), np.array([0.0, 0.1, 0.2]),
                     np.zeros((3, 3, 2)))
    with pytest.raises(ValueError):
        SampledField(np.array([0.0, 0.1]), np.array([0.0, 0.2]), np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        SampledField(np.array([0.0, 0.1]), np.array([0.0, 0.1]), np.zeros((2, 2)))


def test_sampled_field_holds_read_only_copies():
    axis = np.linspace(-0.5, 0.5, 11)
    vals = np.ones((11, 11, 2), dtype=complex)
    field = SampledField(axis, axis, vals)
    for arr in (field.x1, field.x2, field.values):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the caller's arrays are copied, not frozen
    assert axis.flags.writeable and vals.flags.writeable
    axis[0] = -0.7
    vals[5, 5] = 9.0
    assert field.x1[0] == -0.5 and field.values[5, 5, 0] == 1.0


def test_editing_the_source_array_leaves_the_field_unchanged():
    axis = np.linspace(-0.6, 0.6, 21)
    vals = np.array(_gaussian_field(count=21).values)
    field = SampledField(axis, axis, vals)
    pts = [(axis[10], axis[10]), (0.11, -0.07)]
    before = resolvent_apply(1.0, 0.5j, field, pts)
    vals *= 2.0
    axis[3] += 0.01
    assert np.array_equal(resolvent_apply(1.0, 0.5j, field, pts), before)


def test_resolvent_apply_zero_field_and_shapes():
    axis = np.linspace(-0.5, 0.5, 11)
    zero = SampledField(axis, axis, np.zeros((11, 11, 2)))
    single = resolvent_apply(1.0, 0.5j, zero, (0.1, 0.2))
    assert single.shape == (2,) and np.all(single == 0.0)
    many = resolvent_apply(1.0, 0.5j, zero, [(0.0, 0.0), (0.2, -0.1), (0.3, 0.3)])
    assert many.shape == (3, 2) and np.all(many == 0.0)


def test_resolvent_apply_warns_near_support_boundary():
    field = _gaussian_field()
    with pytest.warns(UserWarning):
        resolvent_apply(1.0, 0.5j, field, (0.59, 0.0))


def test_resolvent_apply_conjugation_reflection_symmetry():
    # conj(G_conj(z)((-d1, d2))) = G_z(d) entrywise, hence applying at the
    # mirrored points with the mirrored-conjugated source reproduces the
    # conjugate of the original output, on the direct sum (off-node points)
    # and on the node path alike
    field = _gaussian_field(count=21)
    mirrored = SampledField(field.x1, field.x2, np.conj(field.values[::-1, :, :]))
    z = 0.3 + 0.7j
    nodes = [(field.x1[i], field.x2[j]) for i, j in ((12, 14), (5, 10), (15, 7), (10, 10))]
    pts = np.array([[0.1, 0.2], [-0.3, 0.0], [0.25, -0.15]] + nodes)
    ref_pts = pts * np.array([-1.0, 1.0])
    direct = resolvent_apply(1.0, z, field, pts)
    mirror = resolvent_apply(1.0, z.conjugate(), mirrored, ref_pts)
    assert np.max(np.abs(direct - np.conj(mirror))) <= 1e-13 * np.max(np.abs(direct))


def test_resolvent_apply_rejects_spectral_z():
    field = _gaussian_field(count=11)
    with pytest.raises(ValueError):
        resolvent_apply(1.0, 2.0, field, (0.0, 0.0))


def test_resolvent_apply_rejects_non_finite_points():
    field = _gaussian_field(count=11)
    for pt in ((math.nan, 0.0), (0.0, math.inf)):
        with pytest.raises(ValueError):
            resolvent_apply(1.0, 0.5j, field, pt)


# ----------------------------------------------------------------------------
# node targets: offset table and FFT against the direct sum
# ----------------------------------------------------------------------------

@pytest.fixture
def distinct_radii(monkeypatch):
    """Send only the distinct radii of each batch through the Bessel ray of
    greens: the direct sum over a whole 31^2 grid repeats about 1.2e3 radii
    9e5 times, which would take a minute at complex a."""
    ray = greens.bessel_k01_ray

    def distinct(a, r):
        r = np.asarray(r, dtype=float)
        radii, back = np.unique(r, return_inverse=True)
        k0, k1 = ray(a, radii)
        return k0[back].reshape(r.shape), k1[back].reshape(r.shape)

    monkeypatch.setattr(greens, "bessel_k01_ray", distinct)


def _direct_sum(m, z, field, pts):
    """The direct-sum path of resolvent_apply, forced on every point."""
    a = branch_sqrt(m * m - z * z)
    cell = greens._singular_cell(a, field.spacing)
    pts = np.atleast_2d(pts)
    i, _ = greens._node_index(field.x1, field.spacing, pts[:, 0])
    j, _ = greens._node_index(field.x2, field.spacing, pts[:, 1])
    return greens._direct_apply(m, z, a, field, cell, pts, i, j)


def _grid_points(field):
    return np.stack(np.meshgrid(field.x1, field.x2, indexing="ij"), axis=-1).reshape(-1, 2)


def _spinor_field(x1, x2, sig=0.15, c2=0.5 - 0.3j):
    g = np.exp(-(x1[:, None] ** 2 + x2[None, :] ** 2) / (2.0 * sig * sig))
    return SampledField(x1, x2, g[..., None] * np.array([1.0, c2]))


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.filterwarnings("ignore:evaluation point within one cell")
def test_node_path_matches_direct_sum_on_the_whole_grid(distinct_radii):
    axis = np.linspace(-0.6, 0.6, 31)
    field = _spinor_field(axis, axis)
    pts = _grid_points(field)
    for z in (0.5j, 0.3 + 0.5j, 0.3 - 0.5j):
        assert _rel(resolvent_apply(1.0, z, field, pts), _direct_sum(1.0, z, field, pts)) <= 1e-12, z


@pytest.mark.filterwarnings("ignore:evaluation point within one cell")
def test_node_path_matches_direct_sum_on_a_rectangular_grid(distinct_radii):
    field = _spinor_field(np.linspace(-0.6, 0.6, 21), np.linspace(-0.9, 0.9, 31))
    pts = _grid_points(field)
    assert _rel(resolvent_apply(1.0, 0.3 + 0.5j, field, pts), _direct_sum(1.0, 0.3 + 0.5j, field, pts)) <= 1e-12


def test_node_path_single_target(distinct_radii):
    axis = np.linspace(-0.6, 0.6, 31)
    field = _spinor_field(axis, axis)
    pt = (axis[17], axis[12])
    got = resolvent_apply(1.0, 0.3 + 0.5j, field, pt)
    assert got.shape == (2,)
    assert _rel(got, _direct_sum(1.0, 0.3 + 0.5j, field, pt)[0]) <= 1e-12


def test_mixed_batch_rows_equal_their_single_target_calls(distinct_radii):
    axis = np.linspace(-0.6, 0.6, 31)
    field = _spinor_field(axis, axis)
    node = [(axis[15], axis[15]), (axis[3], axis[20]), (axis[22], axis[9])]
    off = [(0.1, 0.2), (-0.013, 0.25), (axis[8] + 0.3 * field.spacing, axis[8])]
    pts = np.array([node[0], off[0], node[1], off[1], off[2], node[2]])
    on_node = np.array([True, False, True, False, False, True])
    z = 0.3 - 0.5j
    batch = resolvent_apply(1.0, z, field, pts)
    singles = np.array([resolvent_apply(1.0, z, field, pt) for pt in pts])
    assert np.array_equal(batch[on_node], singles[on_node])
    assert _rel(batch[~on_node], singles[~on_node]) <= 1e-12
    assert _rel(batch, _direct_sum(1.0, z, field, pts)) <= 1e-12


@pytest.mark.filterwarnings("ignore:evaluation point within one cell")
@pytest.mark.parametrize("kind", ("node", "off-node", "mixed"))
def test_a_used_field_gives_the_bits_of_a_fresh_one(kind):
    # the node plan is built on the first node-path call and kept with the
    # field; a later call at another z reads it and must give the same bits
    # as the same call on a field that never saw a call
    axis = np.linspace(-0.6, 0.6, 31)
    field = _spinor_field(axis, axis)
    node = [(axis[15], axis[15]), (axis[3], axis[20]), (axis[22], axis[9])]
    off = [(0.1, 0.2), (-0.013, 0.25), (axis[8] + 0.3 * field.spacing, axis[8])]
    pts = {"node": node, "off-node": off, "mixed": [node[0], off[0], node[1], off[1]]}[kind]
    assert "_node_plan" not in vars(field)
    resolvent_apply(1.0, 0.5j, field, _grid_points(field))
    assert "_node_plan" in vars(field)
    for z in (0.3 - 0.5j, -0.8 - 0.2j):
        fresh = SampledField(field.x1, field.x2, field.values)
        assert np.array_equal(resolvent_apply(1.0, z, field, pts), resolvent_apply(1.0, z, fresh, pts))


def test_sampling_builds_no_node_plan():
    assert "_node_plan" not in vars(_gaussian_field(count=11))


# ----------------------------------------------------------------------------
# singular cell
# ----------------------------------------------------------------------------

CELL_Z = (0.5j, 0.3 + 0.5j, -0.8 - 0.2j, 1.5 + 0.05j)


def _polar_cell_c0(a, h):
    """The K_0 entry of the singular cell by the full polar rule: 16
    midpoint angles, each with 8 Gauss-Legendre radii up to the square's
    boundary, so 128 kernel values."""
    theta = (np.arange(16) + 0.5) * (2.0 * math.pi / 16)
    rho = 0.5 * h / np.maximum(np.abs(np.cos(theta)), np.abs(np.sin(theta)))
    t, w = np.polynomial.legendre.leggauss(8)
    r = 0.5 * rho[:, None] * (t[None, :] + 1.0)
    weight = r * (0.5 * rho[:, None] * w[None, :]) * (2.0 * math.pi / 16)
    k0, _ = bessel_k01_ray(a, r)
    return np.sum(weight * k0 / TWO_PI)


@pytest.mark.parametrize("z", CELL_Z)
def test_singular_cell_matches_the_full_polar_rule(z):
    a = branch_sqrt(1.0 - z * z)
    c0, c1m, c1p = greens._singular_cell(a, 0.02)
    assert c1m == 0 and c1p == 0
    ref = _polar_cell_c0(a, 0.02)
    assert abs(c0 - ref) <= 1e-15 * abs(ref), abs(c0 - ref) / abs(ref)


def test_singular_cell_takes_16_radii(monkeypatch):
    sizes = []
    ray = greens.bessel_k01_ray

    def spy(a, r):
        sizes.append(np.size(r))
        return ray(a, r)

    monkeypatch.setattr(greens, "bessel_k01_ray", spy)
    greens._singular_cell(branch_sqrt(1.0 - (0.3 + 0.5j) ** 2), 0.02)
    # two distinct cell-boundary distances times 8 radii, not 16 angles times 8
    assert sizes == [16]


def test_node_path_takes_the_cell_in_its_one_ray(monkeypatch):
    sizes = []
    ray = greens.bessel_k01_ray

    def spy(a, r):
        sizes.append(np.size(r))
        return ray(a, r)

    axis = np.linspace(-0.6, 0.6, 31)
    field = _spinor_field(axis, axis)
    monkeypatch.setattr(greens, "bessel_k01_ray", spy)
    resolvent_apply(1.0, 0.3 + 0.5j, field, (axis[15], axis[15]))
    # the grid's distinct radii followed by the singular cell's 16
    assert sizes == [field._node_plan.radii.size + 16]


# ----------------------------------------------------------------------------
# node targets: windows of the offset table or the FFT
# ----------------------------------------------------------------------------

def _plus_stencil(axis):
    c = axis.size // 2
    return np.array([(axis[c + di], axis[c + dj]) for di, dj in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))])


def _block(axis, half):
    c = axis.size // 2
    steps = range(-half, half + 1)
    return np.array([(axis[c + di], axis[c + dj]) for di in steps for dj in steps])


@pytest.mark.parametrize("count", (31, 61))
def test_window_and_fft_paths_agree(monkeypatch, count):
    axis = np.linspace(-0.6, 0.6, count)
    field = _spinor_field(axis, axis)
    pts = _plus_stencil(axis)
    for z in CELL_Z:
        got = []
        for few in (True, False):
            monkeypatch.setattr(greens, "_few_targets", lambda *_, few=few: few)
            got.append(resolvent_apply(1.0, z, field, pts))
        assert _rel(got[0], got[1]) <= 1e-14, z


@pytest.mark.filterwarnings("ignore:evaluation point within one cell")
def test_few_targets_skip_the_fft(monkeypatch):
    axis = np.linspace(-0.6, 0.6, 61)
    field = _spinor_field(axis, axis)
    resolvent_apply(1.0, 0.5j, field, _plus_stencil(axis))  # builds the node plan
    calls = []
    fft2 = np.fft.fft2

    def spy(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return fft2(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft2", spy)
    resolvent_apply(1.0, 0.3 + 0.5j, field, _plus_stencil(axis))
    assert calls == []
    # a 7 x 7 block, 49 targets, is past the rule's 29 at 61^2, and so is
    # the whole grid: three table transforms each
    resolvent_apply(1.0, 0.3 + 0.5j, field, _block(axis, 3))
    assert calls == [(125, 125)] * 3
    resolvent_apply(1.0, 0.3 + 0.5j, field, _grid_points(field))
    assert calls == [(125, 125)] * 6


def test_few_targets_on_a_warm_field_stay_small():
    axis = np.linspace(-0.6, 0.6, 61)
    field = _spinor_field(axis, axis)
    resolvent_apply(1.0, 0.5j, field, _plus_stencil(axis))
    tracemalloc.start()
    try:
        resolvent_apply(1.0, 0.3 + 0.5j, field, _plus_stencil(axis))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 0.99 MB: the three entries on the 121^2 offsets, and no padded
    # 125^2 arrays (1.76 MB through the FFT)
    assert peak <= 1.2e6, peak


def test_whole_grid_call_warns_once_with_its_count():
    field = _gaussian_field()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        resolvent_apply(1.0, 0.5j, field, _grid_points(field))
    assert len(caught) == 1
    # the outer ring of the 31 x 31 nodes
    message = str(caught[0].message)
    assert message.startswith("evaluation point within one cell of the sampled boundary: 120 of 961 points")


def test_interior_points_do_not_warn():
    field = _gaussian_field()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        resolvent_apply(1.0, 0.5j, field, [(0.0, 0.0), (0.1, -0.23), (field.x1[1], field.x2[-2])])


@pytest.mark.filterwarnings("ignore:evaluation point within one cell")
def test_round_trip_gap_is_second_order_in_the_spacing():
    # whole-grid (D - z) u - f by central differences at the interior nodes,
    # relative to the source peak; the gap is close to 18 h^2 (README table)
    m, z = 1.0, 0.5j
    gaps = []
    for count in (31, 61, 121, 201):
        field = _gaussian_field(count=count)
        h = field.spacing
        u = resolvent_apply(m, z, field, _grid_points(field)).reshape(count, count, 2)
        d1 = (u[2:, 1:-1] - u[:-2, 1:-1]) / (2.0 * h)
        d2 = (u[1:-1, 2:] - u[1:-1, :-2]) / (2.0 * h)
        uc, fc = u[1:-1, 1:-1], field.values[1:-1, 1:-1]
        r1 = -1j * d1[..., 1] - d2[..., 1] + (m - z) * uc[..., 0] - fc[..., 0]
        r2 = -1j * d1[..., 0] + d2[..., 0] - (m + z) * uc[..., 1] - fc[..., 1]
        gaps.append(max(np.max(np.abs(r1)), np.max(np.abs(r2))) / np.max(np.abs(field.values)))
    lo, hi = RICHARDSON_RATIO_BOUNDS
    assert lo <= gaps[0] / gaps[1] <= hi
    assert lo <= gaps[1] / gaps[2] <= hi
    assert gaps[3] < gaps[2]
    assert gaps[1] <= RESOLVENT_ROUNDTRIP_TOL
    print("round-trip gap at 31, 61, 121, 201 nodes per axis: " + ", ".join(f"{g:.3g}" for g in gaps))
