"""Branch square root, Bessel engine, quadrature and 2x2 matrix algebra."""
import cmath
import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from diracshell import greens, numerics
from diracshell.numerics import (
    Mat2C,
    bessel_k,
    bessel_k01_ray,
    branch_sqrt,
    pauli,
    tanh_sinh,
    _blocks,
    _k01_trapezoid,
)
from diracshell.tolerances import BESSEL_MAX_ARG, SQRT_REL_TOL

from oracle_bessel import bessel_k_oracle


# ----------------------------------------------------------------------------
# branch_sqrt
# ----------------------------------------------------------------------------

def test_branch_sqrt_principal_values():
    assert branch_sqrt(3.0 - 4.0j) == 2.0 - 1.0j
    assert branch_sqrt(4.0) == 2.0
    assert branch_sqrt(2.0j) == 1.0 + 1.0j


def test_branch_sqrt_square_roundtrip_right_halfplane():
    rng = np.random.default_rng(7)
    for _ in range(400):
        w = complex(rng.uniform(-50, 50), rng.uniform(0.01, 50) * rng.choice([-1, 1]))
        s = branch_sqrt(w)
        assert s.real > 0.0
        assert abs(s * s - w) <= SQRT_REL_TOL * abs(w) * 4
        assert branch_sqrt(w.conjugate()) == s.conjugate()


def test_branch_sqrt_rejects_the_cut():
    for w in (0.0, -1.0, -25.0, complex(-3.0, 0.0)):
        with pytest.raises(ValueError):
            branch_sqrt(w)


# ----------------------------------------------------------------------------
# modified Bessel engine vs the series/asymptotic oracle
# ----------------------------------------------------------------------------

def test_bessel_matches_oracle_real_axis():
    worst = 0.0
    for w in np.geomspace(0.05, 29.0, 40):
        for order in (0, 1):
            got = bessel_k(order, w)
            ref = bessel_k_oracle(order, w)
            worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 1e-12, worst


def test_bessel_matches_oracle_complex_arguments():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(60):
        r = rng.uniform(0.1, 20.0)
        phi = rng.uniform(-1.565, 1.565)  # Re w > 0, up to z next to the essential spectrum
        w = r * complex(math.cos(phi), math.sin(phi))
        for order in (0, 1):
            got = bessel_k(order, w)
            ref = bessel_k_oracle(order, w)
            worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 1e-11, worst


def test_bessel_ray_matches_scalar_calls():
    r = np.array([0.2, 0.7, 1.0, 3.5, 9.0, 20.0])
    # more radii than one block holds, checked on both sides of the seam
    long = np.random.default_rng(5).permutation(np.geomspace(0.05, 20.0, 4100))
    seam = [0, 4095, 4096, 4099]
    for a in (1.0, 0.4, complex(1.0, 0.8), complex(0.3, -0.25)):
        for radii, picks in ((r, range(r.size)), (long, seam)):
            k0, k1 = bessel_k01_ray(a, radii)
            for i in picks:
                assert abs(k0[i] - bessel_k(0, a * radii[i])) <= 1e-12 * abs(k0[i])
                assert abs(k1[i] - bessel_k(1, a * radii[i])) <= 1e-12 * abs(k1[i])
        assert [k.shape for k in bessel_k01_ray(a, np.empty((0, 3)))] == [(0, 3), (0, 3)]


# real and complex rays, the last at z = 1.5 + 0.01i, next to the essential spectrum
@pytest.mark.parametrize(
    "a", (1.0, 0.4, complex(1.0, 0.8), complex(0.3, -0.25), branch_sqrt(1.0 - (1.5 + 0.01j) ** 2))
)
def test_bessel_ray_values_do_not_depend_on_the_order_of_the_radii(a):
    r = np.geomspace(0.05, 20.0, 9000)
    perm = np.random.default_rng(9).permutation(r.size)
    k0, k1 = bessel_k01_ray(a, r)
    p0, p1 = bessel_k01_ray(a, r[perm])
    assert np.array_equal(p0, k0[perm]) and np.array_equal(p1, k1[perm])


def _rays_taken(monkeypatch):
    """The list that records, in order, the direction a that bessel_k01_ray
    hands the trapezoid for each block."""
    taken = []
    ray = numerics._k01_trapezoid

    def spy(a, *args):
        taken.append(a)
        return ray(a, *args)

    monkeypatch.setattr(numerics, "_k01_trapezoid", spy)
    return taken


# the four corners of criterion 9's region of z at m = 1 and z = 3 + 1e-300i,
# where arg a rounds to -pi/2; then |arg a| at 1.34, 1.36 and 1.5703, on both
# sides of the real axis, as the direction of a nears the imaginary axis
@pytest.mark.parametrize("a", [
    *(pytest.param(branch_sqrt(1.0 - z * z), id=f"z={z}")
      for z in (0.8 + 0.2j, 0.8 + 1j, -0.8 + 0.2j, -0.8 + 1j, 3 + 1e-300j)),
    *(pytest.param(cmath.rect(1.0, s * phi), id=f"arg a={s * phi:.5g}")
      for s in (1, -1) for phi in (1.34, 1.36, 1.5703)),
])
def test_bessel_rays_meet_the_oracle_up_to_the_imaginary_axis(monkeypatch, a):
    taken = _rays_taken(monkeypatch)
    r = np.geomspace(1e-3, 25.0, 20) / abs(a)
    k0, k1 = bessel_k01_ray(a, r)
    assert taken and all(t == a for t in taken)
    worst = 0.0
    for i in range(r.size):
        for got, order in ((k0[i], 0), (k1[i], 1)):
            ref = bessel_k_oracle(order, a * r[i])
            worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 1e-11, worst


def _grid_radii():
    """The distinct node offsets h sqrt(di^2 + dj^2) of a 61^2 grid with
    h = 0.02, the radii of the resolvent's node path (1,445 of them)."""
    k = np.arange(61)
    return 0.02 * np.sqrt(np.unique(k[:, None] ** 2 + k[None, :] ** 2)[1:])


def _ray_radii(a):
    """The grid's distinct radii, then 20 more from |w| = 1e-3 to 25."""
    return np.concatenate([_grid_radii(), np.geomspace(1e-3, 25.0, 20) / abs(a)])


# every direction takes one contour, from the real axis to the imaginary one
@pytest.mark.parametrize("phi", [s * phi for phi in (0.3, 0.9, 1.34, 1.36, 1.5, 1.5703)
                                 for s in (1, -1)])
def test_bessel_multi_radius_complex_rays_meet_the_oracle(phi):
    a = cmath.rect(1.0, phi)
    r = _ray_radii(a)
    k0, k1 = bessel_k01_ray(a, r)
    # every 61st grid radius and the 20 spread over the engine's range
    pick = [*range(0, 1445, 61), *range(1445, r.size)]
    worst = 0.0
    for i in pick:
        for got, order in ((k0[i], 0), (k1[i], 1)):
            ref = bessel_k_oracle(order, a * r[i])
            worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 1e-11, worst


def _table_entries(monkeypatch):
    """A one-item list that counts the exponential table entries, radii x
    nodes, that the K0/K1 trapezoid builds over all its levels."""
    count = [0]
    halve = numerics._halve

    def spy(total, h, n, level, *args):
        rows = total.shape[-1]
        count[0] += rows * (n + 1)  # level 0

        def counted(u):
            count[0] += rows * u.size
            return level(u)

        return halve(total, h, n, counted, *args)

    monkeypatch.setattr(numerics, "_halve", spy)
    return count


def test_bessel_ray_in_any_direction_costs_at_most_twice_a_real_one(monkeypatch):
    # on the real t axis the integrand of a complex ray decays only in the
    # strip |Im t| < pi/2 - |arg a|, and the node count grows without bound
    # as arg a nears pi/2; the steepest descent contour keeps a strip of
    # half-width at least 1.14 (111,437 entries on the real axis and 208,909
    # at 1.5703 when recorded)
    count = _table_entries(monkeypatch)
    r = np.concatenate([_grid_radii(), np.geomspace(1e-3, 25.0, 200)])
    bessel_k01_ray(1.0, r)
    real = count[0]
    for phi in (0.3, -0.9, 1.34, 1.5703):
        count[0] = 0
        bessel_k01_ray(cmath.rect(1.0, phi), r)
        assert 0 < count[0] <= 2 * real, (phi, count[0], real)


@pytest.mark.parametrize("a", (1.0, cmath.rect(1.0, -1.2), cmath.rect(1.0, -1.5)))
def test_bessel_trapezoid_values_do_not_depend_on_the_table_bound(monkeypatch, a):
    r = np.geomspace(1e-30, 20.0, 3000)
    k0, k1 = bessel_k01_ray(a, r)
    monkeypatch.setattr(numerics, "_TABLE", 1000)  # a few radii per refinement table
    s0, s1 = bessel_k01_ray(a, r)
    assert np.array_equal(s0, k0) and np.array_equal(s1, k1)


# a real ray, a complex one, and one next to the imaginary axis at
# z = 1.5 + 0.01i, next to the essential spectrum
@pytest.mark.parametrize("a", (1.0, complex(1.0, 0.8), branch_sqrt(1.0 - (1.5 + 0.01j) ** 2)))
def test_bessel_rejects_radii_below_its_range_before_any_work(monkeypatch, a):
    taken = _rays_taken(monkeypatch)
    floor = numerics._MIN_ARG / abs(a)
    for tiny in (0.5 * floor, 1e-320):
        with pytest.raises(ValueError, match="below"):
            bessel_k01_ray(a, np.array([0.5, tiny, 2.0]))
    assert taken == []
    # just above the floor the table still works, without a numpy warning
    k0, k1 = bessel_k01_ray(a, np.array([2.0 * floor, 1.0]))
    assert np.all(np.isfinite(k0)) and np.all(np.isfinite(k1)) and taken


@pytest.mark.parametrize("a", (1.0, complex(1.0, 0.8)))
def test_bessel_rejects_non_finite_radii(a):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            bessel_k01_ray(a, np.array([0.5, bad, 2.0]))
        with pytest.raises(ValueError):
            bessel_k(0, a * bad)


def test_bessel_rejects_non_finite_rays():
    nan, inf = math.nan, math.inf
    for a in (nan, inf, complex(nan, 0.8), complex(1.0, nan), complex(1.0, inf)):
        with pytest.raises(ValueError):
            bessel_k01_ray(a, np.array([1.0]))
        with pytest.raises(ValueError):
            bessel_k(1, a)


def _fourier_pair_radii(monkeypatch):
    """The one real batch fourier_pair_check hands the engine: for each
    kappa its tanh-sinh head cell, down to about 1e-39, then its
    Gauss-Legendre body."""
    seen = []

    def spy(a, r):
        seen.append(np.array(r))
        return bessel_k01_ray(a, r)

    monkeypatch.setattr(greens, "bessel_k01_ray", spy)
    greens.fourier_pair_check()
    (x,) = seen
    return x


def test_bessel_fourier_pair_batch_matches_oracle(monkeypatch):
    x = _fourier_pair_radii(monkeypatch)
    assert x.min() < 1e-38 and x.max() > 28.0
    assert len(list(_blocks(np.sort(x)))) >= 6
    k0, k1 = bessel_k01_ray(1.0, x)
    pick = np.unique(np.concatenate([np.arange(129), np.arange(129, x.size, 47), [x.size - 1]]))
    worst = 0.0
    for i in pick:
        for got, order in ((k0[i], 0), (k1[i], 1)):
            ref = bessel_k_oracle(order, x[i])
            worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 1e-12, worst


def test_bessel_banded_batch_matches_single_radius_calls():
    rng = np.random.default_rng(5)
    x = np.geomspace(1e-39, 29.0, 9000)
    rng.shuffle(x)
    k0, k1 = bessel_k01_ray(1.0, x)
    for i in range(0, x.size, 37):
        assert abs(k0[i] - bessel_k(0, x[i])) <= 1e-15 * abs(k0[i])
        # below x ~ 1e-20 the one-row table of a single radius sums K1 ~ 1/x
        # to 1.8e-15 of the oracle, the batch to 4e-16
        assert abs(k1[i] - bessel_k(1, x[i])) <= 5e-15 * abs(k1[i])


def test_bessel_scalar_real_values_are_frozen():
    # a single radius is its own band and block, so banding and blocking
    # batches must leave these bits of the scalar path alone
    frozen = (
        (1e-39, 89.9167501424262, 1.0000000000000001e+39),
        (2.3e-20, 45.334724252604225, 4.347826086956523e+19),
        (1e-05, 11.628856980944363, 99999.99993935571),
        (0.05, 3.11423402947199, 19.909674325882506),
        (0.3, 1.3724600605442974, 3.0559920334573247),
        (1.0, 0.42102443824070834, 0.6019072301972346),
        (2.5, 0.06234755320036618, 0.07389081634774707),
        (7.0, 0.00042479574186923174, 0.00045418248688489684),
        (15.0, 9.819536482396435e-08, 1.0141729369762093e-07),
        (29.0, 5.894950728792558e-14, 5.995740321238809e-14),
    )
    for x, k0, k1 in frozen:
        assert bessel_k(0, x) == complex(k0, 0.0), x
        assert bessel_k(1, x) == complex(k1, 0.0), x


def test_bessel_complex_values_are_frozen():
    # K0 and K1 at w = a r for |w| in {1e-3, 0.37, 4.2, 25}, in five
    # directions from near the real axis to next to the imaginary one; each
    # radius sits in its own tail-cutoff octave, so in its own block
    frozen = {
        0.3: (
            (7.023688492547406-0.29999892927145927j), (955.3328509709752-295.52117506199784j),
            (1.1759462803169642-0.267011213038138j), (2.275612232721236-0.8390251780620455j),
            (0.0020028748242798128-0.010591691885958602j), (0.001880534555142116-0.011807730960091403j),
            (3.302989499500373e-12-1.0054546209036043e-11j), (3.307219763146627e-12-1.0264212532150829e-11j),
        ),
        -0.9: (
            (7.02368655800653+0.8999979954174814j), (621.6072773746439+783.3295766564326j),
            (1.1229711969838723+0.8227743838122372j), (1.3699990772681008+2.2526658640473882j),
            (-0.03693526163759778-0.0240983399301053j), (-0.037587966525690526-0.02911410869477733j),
            (1.6972346942674977e-08+4.1172521459271306e-08j), (1.654684637509596e-08+4.1948630950561015e-08j),
        ),
        1.34: (
            (7.0236851478505455-1.3399988066731126j), (228.75129504197133-973.488050526989j),
            (1.06609566995278-1.2676155838693932j), (0.3167619243296525-2.8612720272096146j),
            (0.004466724986928352+0.2317618066729143j), (0.030552443559951195+0.2387620147794561j),
            (0.0008150755234524993+0.00010693185521187008j), (0.0008210179079158166+9.164766638274052e-05j),
        ),
        1.36: (
            (7.0236851034935315-1.3599988689194884j), (209.23721382077002-977.8681387261546j),
            (1.0635452368820937-1.2888078712752222j), (0.2649840933598833-2.8780444588581857j),
            (0.0119389434449795+0.2514458298829152j), (0.040621516911916844+0.25769514272096344j),
            (0.0013390321331189778+1.4691661635210927e-05j), (0.0013451593460167893-1.1314383507166046e-05j),
        ),
        -1.5703: (
            (7.023684789109662+1.5702996054340335j), (0.4955397576110637+1000.0036382825848j),
            (1.0387763136730035+1.5169444234006044j), (-0.2843578929959308+2.993027576762625j),
            (0.1468103717783511-0.5902906865550079j), (0.21719265800494106-0.5769494306756304j),
            (0.19745509665613956+0.14930084016296025j), (0.19451164880518856+0.15327959748532116j),
        ),
    }
    for arg, values in frozen.items():
        k0, k1 = bessel_k01_ray(cmath.rect(1.0, arg), np.array([1e-3, 0.37, 4.2, 25.0]))
        assert k0.tolist() == list(values[0::2]), arg
        assert k1.tolist() == list(values[1::2]), arg


def test_tanh_sinh_values_are_frozen():
    assert tanh_sinh(np.sin, 0.0, math.pi) == 2.0
    assert tanh_sinh(lambda x: x ** -0.5, 0.0, 1.0) == 1.9999999999999998
    batch = tanh_sinh(lambda x: np.array([np.exp(1j * x), np.cos(x)]), 0.0, 1.0)
    assert batch.tolist() == [0.8414709848078965+0.4596976941318603j, 0.8414709848078965+0j]


def test_bessel_real_ray_memory_is_bounded_by_blocks():
    x = np.geomspace(1e-30, 29.0, 200_000)
    np.random.default_rng(3).shuffle(x)
    tracemalloc.start()
    try:
        k0, k1 = bessel_k01_ray(1.0, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the widest table, for the radii near 1e-30, has 4096 rows and 257 nodes;
    # one table over all 200k radii would take 0.4 GB
    table = 4096 * 257 * 8
    assert peak <= k0.nbytes + k1.nbytes + 3 * table, peak / 1e6


def test_bessel_complex_ray_memory_is_bounded_by_blocks():
    x = np.geomspace(1e-6, 27.0, 8192)
    np.random.default_rng(3).shuffle(x)
    a = branch_sqrt(1.0 - (0.3 + 0.5j) ** 2)
    tracemalloc.start()
    try:
        bessel_k01_ray(a, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 3.5 MB: at arg a = -0.13 the table is real, as on the real axis
    assert peak <= 80e6, peak / 1e6


@pytest.mark.parametrize("phi", (1.34, 1.36, 1.5703))
def test_bessel_memory_next_to_the_imaginary_axis_is_bounded(phi):
    x = np.geomspace(1e-6, 27.0, 8192)
    np.random.default_rng(3).shuffle(x)
    tracemalloc.start()
    try:
        bessel_k01_ray(cmath.rect(1.0, -phi), x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 3.5 MB at 1.34 and 1.36 and 5.4 MB at 1.5703: the table is real,
    # the trapezoid builds it _TABLE entries at a time, and the contour's
    # strip stays at least 1.14 wide, so the node count stays near the real
    # axis's; one complex table of 4096 radii x 1024 nodes would take 67 MB
    assert peak <= 80e6, peak / 1e6


def test_resolvent_whole_grid_memory_stays_on_the_node_path():
    axis = np.linspace(-0.6, 0.6, 61)
    g = np.exp(-(axis[:, None] ** 2 + axis[None, :] ** 2) / 0.045)
    field = greens.SampledField(axis, axis, g[..., None] * np.array([1.0, 0.5 - 0.3j]))
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning):  # the boundary nodes
            greens.resolvent_apply(1.0, 0.3 + 0.5j, field, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the offset table and FFT need about 12.5 MB for all 3721 nodes; the
    # direct sum needs more than 100 MB for 5 of them at this z
    assert peak <= 25e6, peak / 1e6


def test_resolvent_node_targets_memory_on_a_warm_field():
    axis = np.linspace(-0.6, 0.6, 61)
    g = np.exp(-(axis[:, None] ** 2 + axis[None, :] ** 2) / 0.045)
    field = greens.SampledField(axis, axis, g[..., None] * np.array([1.0, 0.5 - 0.3j]))
    pts = np.array([(axis[30 + i], axis[30 + j]) for i in range(-3, 4) for j in range(-3, 4)])
    greens.resolvent_apply(1.0, 0.5j, field, pts)  # builds the field's node plan
    tracemalloc.start()
    try:
        greens.resolvent_apply(1.0, 0.5j, field, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 2 MB: the kernel terms on the 14.6k offsets, the padded table,
    # one spectrum buffer and the two spectral accumulators; transforming
    # the three table entries and the source together per call needs 4.1 MB
    assert peak <= 3e6, peak / 1e6


def test_bessel_domain_checks_and_range_warning():
    with pytest.raises(ValueError):
        bessel_k(2, 1.0)
    with pytest.raises(ValueError):
        bessel_k(0, -1.0)
    with pytest.raises(ValueError):
        bessel_k(0, 0.0)
    with pytest.warns(RuntimeWarning):
        val = bessel_k(0, BESSEL_MAX_ARG + 5.0)
    assert np.isfinite(val.real)


# ----------------------------------------------------------------------------
# tanh-sinh quadrature
# ----------------------------------------------------------------------------

def test_tanh_sinh_smooth_and_singular_integrands():
    assert abs(tanh_sinh(np.sin, 0.0, math.pi) - 2.0) <= 1e-12
    # integrable endpoint singularity, exact value 2
    assert abs(tanh_sinh(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0) - 2.0) <= 1e-11
    got = tanh_sinh(lambda x: np.exp(1j * x), 0.0, 1.0)
    want = complex(math.sin(1.0), 1.0 - math.cos(1.0))
    assert abs(got - want) <= 1e-12


def test_tanh_sinh_rejects_non_finite_endpoints():
    # an infinite end warned "invalid value encountered in subtract"; a NaN
    # end ran all the levels before it raised RuntimeError
    calls = []

    def f(x):
        calls.append(x.size)
        return np.exp(x)

    for a, b in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError):
            tanh_sinh(f, a, b)
    assert calls == []


def test_quadratures_raise_when_levels_run_out(monkeypatch):
    # x^-0.9 integrates to 10; the last level is off by 2e-4, far above rel_tol
    with pytest.raises(RuntimeError):
        tanh_sinh(lambda x: x ** -0.9, 0.0, 1.0)
    monkeypatch.setattr(numerics, "BESSEL_TARGET_TOL", -1.0)  # an unreachable target
    with pytest.raises(RuntimeError):
        _k01_trapezoid(1.0, np.array([1.0]))
    with pytest.raises(RuntimeError):  # next to the imaginary axis
        _k01_trapezoid(cmath.rect(1.0, 1.5), np.array([1.0]))
    # through the engine, from a batch cut into several blocks
    many_bands = np.geomspace(1e-30, 29.0, 64)
    assert len(list(_blocks(many_bands))) > 1
    with pytest.raises(RuntimeError):
        bessel_k01_ray(1.0, many_bands)


# ----------------------------------------------------------------------------
# Mat2C and the Pauli basis
# ----------------------------------------------------------------------------

def _random_mats(rng, n):
    """n random matrices as one Mat2C with array entries."""
    e = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
    return Mat2C(*e)


def test_mat2c_algebra_identities():
    rng = np.random.default_rng(23)
    a = _random_mats(rng, 50)
    b = _random_mats(rng, 50)
    ab = a @ b
    assert np.all(np.abs(ab.det() - a.det() * b.det()) <= 1e-12 * np.maximum(1.0, np.abs(a.det() * b.det())))
    assert np.all(((a + b) - b - a).max_abs() <= 1e-15 * (a.max_abs() + b.max_abs()))
    assert np.all((a @ pauli(0) - a).max_abs() == 0.0)
    assert np.all((pauli(0) @ a - a).max_abs() == 0.0)
    # the array path agrees with numpy's stacked matrix algebra
    arr_a, arr_b = a.as_array(), b.as_array()
    assert arr_a.shape == (50, 2, 2)
    assert np.allclose(ab.as_array(), arr_a @ arr_b, rtol=0.0, atol=1e-14)
    assert np.allclose((a - b).as_array(), arr_a - arr_b, rtol=0.0, atol=0.0)
    assert np.allclose(a.det(), np.linalg.det(arr_a), rtol=1e-13, atol=0.0)
    # each matrix of the stack matches the scalar computation; numpy's
    # complex array products may differ from Python's in the last bit
    for i in range(50):
        ai = Mat2C(*(complex(e[i]) for e in (a.a11, a.a12, a.a21, a.a22)))
        bi = Mat2C(*(complex(e[i]) for e in (b.a11, b.a12, b.a21, b.a22)))
        scale = ab.max_abs()[i]
        assert np.max(np.abs((ai @ bi).as_array() - ab.as_array()[i])) <= 1e-15 * scale
        assert abs((ai @ bi).max_abs() - scale) <= 1e-15 * scale


def test_mat2c_scalar_entries_stay_python_numbers():
    g = pauli(1).scale(0.3) + pauli(3) @ pauli(2).scale(1j)
    assert all(type(e) is complex for e in (g.a11, g.a12, g.a21, g.a22))
    assert g.as_array().shape == (2, 2)
    assert g.real_part().a11 == complex(g.a11.real)


def test_mat2c_has_no_instance_dict_pickles_and_stays_frozen():
    g = pauli(2).scale(0.5)
    stack = _random_mats(np.random.default_rng(2), 3)
    assert not hasattr(g, "__dict__") and not hasattr(stack, "__dict__")
    assert pickle.loads(pickle.dumps(g)) == g
    assert np.array_equal(pickle.loads(pickle.dumps(stack)).as_array(), stack.as_array())
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.a11 = 0j


def test_pauli_relations():
    eye = pauli(0)
    for k in (1, 2, 3):
        assert ((pauli(k) @ pauli(k)) - eye).max_abs() == 0.0
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i != j:
                anti = (pauli(i) @ pauli(j)) + (pauli(j) @ pauli(i))
                assert anti.max_abs() == 0.0
    assert ((pauli(1) @ pauli(2)) - pauli(3).scale(1j)).max_abs() == 0.0
