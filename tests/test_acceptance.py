"""End-to-end acceptance battery, one test per shipped guarantee.

Each criterion is exercised the way a downstream user would hit it: through
the CLI for serialized output, through the library API for the numerical
identities.  Expected numbers are frozen from exact rational arithmetic or
from the independent oracles kept next to this file, never from the code
under test.  Every test prints its measured margin, so `pytest -v -s`
doubles as a report.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from diracshell.cli import main
from diracshell.fiber import (
    fiber_eigenvalue,
    kernel_at_zero_scan,
    matching_determinant,
    quasimode_residual,
)
from diracshell.greens import (
    SampledField,
    fourier_pair_check,
    pde_residual,
    resolvent_apply,
)
from diracshell.numerics import bessel_k, pauli
from diracshell.spectrum import dispersion_energy, full_spectrum, symmetry_partner
from diracshell.symbol import (
    ShellParams,
    boundary_det,
    boundary_symbol,
    boundary_symbol_inverse,
    limit_im_table,
    limit_sup_table,
    reference_symbol,
    weyl_symbol,
)
from diracshell.tolerances import QUASIMODE_RESIDUAL_TOL

from oracle_bessel import bessel_k_oracle


# ----------------------------------------------------------------------------
# 1. spectrum table through the CLI
# ----------------------------------------------------------------------------

# columns: eta, m, left-ray endpoint, flat-band point (None if absent),
# right-ray endpoint; edges as exact rationals m |eta^2-4| / (eta^2+4)
SPECTRUM_TABLE = (
    ("-3", "1", Fraction(-5, 13), None, Fraction(1)),
    ("-2", "1", Fraction(-1), 0.0, Fraction(1)),
    ("-1", "1", Fraction(-1), None, Fraction(3, 5)),
    ("0", "1", Fraction(-1), None, Fraction(1)),
    ("1", "1", Fraction(-3, 5), None, Fraction(1)),
    ("2", "1", Fraction(-1), 0.0, Fraction(1)),
    ("3", "1", Fraction(-1), None, Fraction(5, 13)),
    ("-3", "2", Fraction(-10, 13), None, Fraction(2)),
)


def test_criterion_1_spectrum_table(capsys):
    start = time.perf_counter()
    for eta, m, left, flat, right in SPECTRUM_TABLE:
        assert main(["spectrum", "--eta", eta, "--m", m]) == 0
        doc = json.loads(capsys.readouterr().out)
        comps = doc["components"]
        assert comps[0]["kind"] == "ray-left"
        assert comps[-1]["kind"] == "ray-right"
        assert abs(comps[0]["endpoint"] - float(left)) <= 1e-13
        assert abs(comps[-1]["endpoint"] - float(right)) <= 1e-13
        if flat is None:
            assert len(comps) == 2
        else:
            assert len(comps) == 3
            assert comps[1] == {
                "kind": "point",
                "value": 0.0,
                "type": "eigenvalue",
                "multiplicity": "infinite",
            }
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1 PASS: 8 spectra exact to 1e-13 in {elapsed:.3f} s")


# ----------------------------------------------------------------------------
# 2. fiber oracle against the closed-form dispersion relation
# ----------------------------------------------------------------------------

def test_criterion_2_fiber_oracle_agreement():
    start = time.perf_counter()
    grid = [0.25 * k for k in range(41)]  # p = 0, 0.25, ..., 10
    worst = 0.0
    for eta in (0.5, -1.0, 1.5, -3.0, 5.0):
        for m in (0.5, 1.0, 2.0):
            params = ShellParams(eta, m)
            for p in grid:
                root = fiber_eigenvalue(params, p)
                worst = max(worst, abs(root - dispersion_energy(params, p)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 30.0
    print(f"criterion 2 PASS: 15 combos, worst gap {worst:.3e} in {elapsed:.2f} s")


# ----------------------------------------------------------------------------
# 3. dichotomy of the flat-band transition at the zero-energy kernel
# ----------------------------------------------------------------------------

def test_criterion_3_critical_kernel_dichotomy():
    start = time.perf_counter()
    grid = np.linspace(-50.0, 50.0, 2001)
    top = 0.0
    for eta in (2.0, -2.0):
        for m in (0.5, 1.0):
            top = max(top, kernel_at_zero_scan(ShellParams(eta, m)))
    assert top <= 1e-9
    floor = math.inf
    for eta in (1.9, -1.9, 2.1, -2.1):
        for m in (0.5, 1.0):
            params = ShellParams(eta, m)
            floor = min(
                floor,
                min(abs(matching_determinant(params, float(p), 0.0)) for p in grid),
            )
    assert floor >= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"criterion 3 PASS: critical sup {top:.3e}, detuned floor {floor:.3e} "
        f"in {elapsed:.2f} s"
    )


# ----------------------------------------------------------------------------
# 4. coupling inversion symmetry eta -> -4/eta
# ----------------------------------------------------------------------------

def test_criterion_4_inversion_symmetry():
    # -4/eta is taken in exact rational arithmetic; float division would
    # alias the partner coupling (e.g. 8/3 is not a binary float) and the
    # equality below is byte-exact, not approximate
    for eta in (1.0, 2.0, 3.0, 0.5, -1.5):
        params = ShellParams(eta, 1.0)
        direct = full_spectrum(params)
        partner = full_spectrum(symmetry_partner(params))
        left = json.dumps([c.to_dict() for c in direct.components], sort_keys=True)
        right = json.dumps([c.to_dict() for c in partner.components], sort_keys=True)
        assert left == right
    print("criterion 4 PASS: serialized spectra identical for 5 couplings")


# ----------------------------------------------------------------------------
# 5. symbol identities on random samples
# ----------------------------------------------------------------------------

def test_criterion_5_symbol_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst_det = worst_prod = worst_zeta = 0.0
    for _ in range(1000):
        eta = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 5.0))
        m = float(rng.uniform(0.2, 3.0))
        p = float(rng.uniform(-10.0, 10.0))
        # non-real z keeps kappa off the branch cut and theta invertible
        z = complex(
            rng.uniform(-3.0, 3.0),
            rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0),
        )
        params = ShellParams(eta, m)
        theta = boundary_symbol(params, p, z)
        direct = theta.det()
        worst_det = max(worst_det, abs(boundary_det(params, p, z) - direct) / abs(direct))
        prod = theta @ boundary_symbol_inverse(params, p, z)
        worst_prod = max(worst_prod, (prod - pauli(0)).max_abs())
        zeta_a = complex(0.0, 1.0 + m)
        zeta_b = complex(
            rng.uniform(-2.0, 2.0),
            rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0),
        )
        split_a = reference_symbol(params, zeta_a, p) - weyl_symbol(params, z, zeta_a, p)
        split_b = reference_symbol(params, zeta_b, p) - weyl_symbol(params, z, zeta_b, p)
        worst_zeta = max(worst_zeta, (split_a - split_b).max_abs())
    elapsed = time.perf_counter() - start
    assert worst_det <= 1e-12
    assert worst_prod <= 1e-12
    assert worst_zeta <= 1e-12
    assert elapsed < 5.0
    print(
        f"criterion 5 PASS: det {worst_det:.2e}, product {worst_prod:.2e}, "
        f"anchor {worst_zeta:.2e} over 1000 samples in {elapsed:.2f} s"
    )


# ----------------------------------------------------------------------------
# 6. boundary-value diagnostics of the inverse symbol
# ----------------------------------------------------------------------------

def test_criterion_6_boundary_limit_diagnostics():
    # at x = +-m, the couplings after the first two put a critical momentum
    # (a real zero of the dispersion function) next to a node of the grid;
    # at |eta| = 100 it sits inside the grid's dense geometric ladder
    cases = (
        ("1", "1"), ("2", "1"), ("3", "1"), ("-4/3", "1"), ("10", "1"), ("6", "2"),
        ("100", "1"), ("-100", "1"), ("100", "2"), ("100", "1/2"),
    )
    for eta, mass in cases:
        params = ShellParams.from_decimal(eta, mass)
        m = params.m
        for x in (m, -m, 1.5 * m, -1.5 * m):
            rows = limit_sup_table(params, x)  # rows of (y, y * sup)
            assert rows[0][0] == 1e-1 and rows[-1][0] == 1e-5
            assert rows[-1][1] < 0.05 * rows[0][1]
        for x in (2.0 * m, -2.0 * m):
            rows = limit_im_table(params, x)
            assert rows[-1][1] > 1e-3
            assert abs(rows[-1][1] - rows[-2][1]) <= 1e-6
    print("criterion 6 PASS: sup decays at the edges, Im limit settles in the bands")


# ----------------------------------------------------------------------------
# 7. quasi-mode residuals shrink with the packet width
# ----------------------------------------------------------------------------

def test_criterion_7_quasimode_residuals():
    params = ShellParams(1.0, 1.0)
    widths = (0.5, 0.25, 0.125)
    for p0 in (0.0, 2.0):
        res = [quasimode_residual(params, p0, w) for w in widths]
        assert res[0] > res[1] > res[2]
    finest = quasimode_residual(params, 0.0, 0.125)
    assert finest < QUASIMODE_RESIDUAL_TOL
    print(f"criterion 7 PASS: residuals decrease, R(0.125) = {finest:.4f} at p0 = 0")


# ----------------------------------------------------------------------------
# 8. special functions against the independent oracle
# ----------------------------------------------------------------------------

def test_criterion_8_special_functions():
    for order in (0, 1):
        got = bessel_k(order, 1.0)
        ref = bessel_k_oracle(order, 1.0)
        assert abs(got - ref) <= 1e-9 * abs(ref)
    worst = fourier_pair_check()
    assert worst <= 1e-6
    step = 1e-5
    deriv_gap = 0.0
    for w in (0.5, 1.0, 2.0, 5.0):
        fd = (bessel_k(0, w + step) - bessel_k(0, w - step)) / (2.0 * step)
        deriv_gap = max(deriv_gap, abs(fd + bessel_k(1, w)))
    assert deriv_gap <= 1e-5
    print(
        f"criterion 8 PASS: oracle match at w = 1, fourier {worst:.2e}, "
        f"derivative {deriv_gap:.2e}"
    )


# ----------------------------------------------------------------------------
# 9. kernel solves the equation and the resolvent round-trips a source
# ----------------------------------------------------------------------------

def test_criterion_9_kernel_and_resolvent():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    for _ in range(20):
        r = rng.uniform(0.5, 3.0)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        x = (r * math.cos(ang), r * math.sin(ang))
        z = complex(rng.uniform(-0.8, 0.8), rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0))
        coarse = pde_residual(1.0, z, x, 2e-3).max_abs()
        fine = pde_residual(1.0, z, x, 1e-3).max_abs()
        assert 3.5 <= coarse / fine <= 4.5

    m, z = 1.0, 0.5j
    sigma = 0.15

    def gauss(u, v):
        g = np.exp(-(u * u + v * v) / (2.0 * sigma * sigma))
        return (g, 0.5 * g)

    field = SampledField.sample(gauss, 0.6, 61)
    h = 0.02
    nodes = np.linspace(-3.0 * h, 3.0 * h, 7)
    pts = np.array([(a, b) for a in nodes for b in nodes])
    u = resolvent_apply(m, z, field, pts).reshape(7, 7, 2)
    # central differences of (D - z) u at the interior lattice nodes must
    # reproduce the source; the source peaks at 1, so the gap is relative
    worst = 0.0
    for i in range(1, 6):
        for j in range(1, 6):
            d1 = (u[i + 1, j] - u[i - 1, j]) / (2.0 * h)
            d2 = (u[i, j + 1] - u[i, j - 1]) / (2.0 * h)
            r1 = -1j * d1[1] - d2[1] + (m - z) * u[i, j, 0]
            r2 = -1j * d1[0] + d2[0] - (m + z) * u[i, j, 1]
            f1, f2 = gauss(nodes[i], nodes[j])
            worst = max(worst, abs(r1 - f1), abs(r2 - f2))
    elapsed = time.perf_counter() - start
    assert worst < 0.02
    assert elapsed < 60.0
    print(
        f"criterion 9 PASS: second order at 20 points, round-trip gap "
        f"{100 * worst:.2f}% in {elapsed:.2f} s"
    )
