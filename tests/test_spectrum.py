"""Spectrum assembly, band edges, dispersion relation, coupling symmetry."""
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from diracshell.numerics import branch_sqrt
from diracshell.spectrum import (
    SpectralComponent,
    SpectrumDescription,
    band_edge,
    classify_point,
    dispersion_energy,
    dispersion_momentum,
    full_spectrum,
    symmetry_partner,
)
from diracshell.symbol import ShellParams, boundary_det

GAP_SIDE_ETAS = ("0.5", "-0.5", "1", "-1", "1.9", "-1.9", "2.1", "-2.1", "3", "-3", "10", "-10")


# ----------------------------------------------------------------------------
# band edge and sign condition
# ----------------------------------------------------------------------------

def test_band_edge_frozen_values():
    assert band_edge(ShellParams.from_decimal("2", "1")) == 0.0
    assert band_edge(ShellParams.from_decimal("-2", "3")) == 0.0
    assert band_edge(ShellParams.from_decimal("1", "1")) == float(Fraction(3, 5))
    assert band_edge(ShellParams.from_decimal("3", "1")) == float(Fraction(5, 13))
    assert band_edge(ShellParams.from_decimal("3", "-2")) == float(Fraction(10, 13))
    # eta = 0 falls back to the free gap edge
    assert band_edge(ShellParams.from_decimal("0", "1")) == 1.0


def test_band_edge_free_limit():
    for eta in ("1e-3", "-1e-3"):
        par = ShellParams.from_decimal(eta, "2")
        assert abs(band_edge(par) - 2.0) <= 2.0 * par.eta * par.eta / 2.0


def test_dispersion_momentum_gap_side():
    # the right side answers, below the edge with None; the wrong side, z = 0
    # and eta in {0, +2, -2} are refused, where band_momenta gives None
    one, three = ShellParams.from_decimal("1", "1"), ShellParams.from_decimal("3", "1")
    assert dispersion_momentum(one, -0.5) is None
    pair = dispersion_momentum(three, 0.5)
    assert pair is not None and pair == three.band_momenta(0.5)
    for par, z in ((one, 0.5), (three, 0.0), (three, -0.0), (three, -0.5)):
        assert par.band_momenta(z) is None
        with pytest.raises(ValueError, match="sign condition"):
            dispersion_momentum(par, z)
    for eta in ("0", "2", "-2"):
        par = ShellParams.from_decimal(eta, "1")
        assert par.band_momenta(0.5) is None
        with pytest.raises(ValueError):
            dispersion_momentum(par, 0.5)


# ----------------------------------------------------------------------------
# dispersion relation
# ----------------------------------------------------------------------------

def test_dispersion_energy_frozen_values():
    par = ShellParams.from_decimal("1", "1")
    assert dispersion_energy(par, 0.0) == -float(Fraction(3, 5))
    assert abs(dispersion_energy(par, 1.0) + 0.6 * math.sqrt(2.0)) <= 1e-15
    assert dispersion_energy(ShellParams.from_decimal("3", "1"), 0.0) == float(Fraction(5, 13))
    for eta in ("0", "2", "-2"):
        with pytest.raises(ValueError):
            dispersion_energy(ShellParams.from_decimal(eta, "1"), 1.0)


def test_dispersion_energy_where_the_squares_leave_the_float_range():
    # p^2 + m^2 overflowed to an energy of -inf, or underflowed to 0
    one = ShellParams.from_decimal("1", "1")
    assert abs(dispersion_energy(one, 1e200) / -6e199 - 1.0) <= 1e-15
    tiny = ShellParams.from_decimal("1", "1e-170")
    assert abs(dispersion_energy(tiny, 0.0) / -6e-171 - 1.0) <= 1e-15
    with pytest.raises(ValueError, match="float range"):
        dispersion_energy(ShellParams.from_decimal("1e-3", "1.7e308"), 1.7e308)
    for p in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            dispersion_energy(one, p)


def test_dispersion_solves_unsquared_relation():
    rng = np.random.default_rng(67)
    for eta, m in ((1.0, 1.0), (-3.0, 0.5), (0.5, 2.0), (5.0, -1.0), (-2.1, 1.0)):
        par = ShellParams(eta, m)
        for _ in range(40):
            p = rng.uniform(-10, 10)
            z = dispersion_energy(par, p)
            kappa = branch_sqrt(p * p + m * m - z * z)
            rhs = 4.0 * z * eta / (eta * eta - 4.0)
            assert kappa.imag == 0.0 and kappa.real > 0.0
            assert rhs > 0.0
            assert abs(kappa.real - rhs) <= 1e-12 * max(1.0, rhs)


def test_dispersion_zeroes_the_boundary_determinant():
    for eta, m in ((1.0, 1.0), (3.0, 1.0), (-0.5, 2.0)):
        par = ShellParams(eta, m)
        for p in (0.0, 0.7, 3.0, -9.0):
            z = dispersion_energy(par, p)
            det = boundary_det(par, p, complex(z))
            assert abs(det) <= 1e-12 * (p * p + 1.0)


def test_dispersion_momentum_frozen_values():
    par = ShellParams.from_decimal("1", "1")
    assert dispersion_momentum(par, -0.6) == (0.0, 0.0)
    lo, hi = dispersion_momentum(par, -0.6 * math.sqrt(2.0))
    assert abs(hi - 1.0) <= 1e-10 and lo == -hi
    assert dispersion_momentum(par, -0.5) is None  # below the edge
    with pytest.raises(ValueError):
        dispersion_momentum(par, 0.5)  # wrong side of the gap
    with pytest.raises(ValueError):
        dispersion_momentum(ShellParams.from_decimal("2", "1"), 0.1)


def test_dispersion_roundtrip():
    for eta, m in ((1.0, 1.0), (-3.0, 0.5), (1.5, 2.0), (0.5, 1.0)):
        par = ShellParams(eta, m)
        for p in np.linspace(0.0, 10.0, 21):
            z = dispersion_energy(par, p)
            back = dispersion_momentum(par, z)
            assert back is not None
            # sqrt at the double root amplifies float noise to ~1e-8 near p=0
            assert abs(back[1] - p) <= 1e-7 * (1.0 + p)
            assert abs(dispersion_energy(par, back[1]) - z) <= 1e-10


def test_dispersion_monotone_in_momentum():
    par = ShellParams.from_decimal("-3", "1")
    ps = np.linspace(0.0, 20.0, 200)
    zs = np.array([abs(dispersion_energy(par, p)) for p in ps])
    assert np.all(np.diff(zs) > 0.0)


def test_edge_consistency():
    for eta in GAP_SIDE_ETAS:
        for m in ("0.5", "1", "2"):
            par = ShellParams.from_decimal(eta, m)
            assert abs(abs(dispersion_energy(par, 0.0)) - band_edge(par)) <= 1e-13


# ----------------------------------------------------------------------------
# full spectrum assembly
# ----------------------------------------------------------------------------

def test_full_spectrum_free_coupling():
    desc = full_spectrum(ShellParams.from_decimal("0", "1"))
    kinds = [(c.kind, c.endpoint) for c in desc.components]
    assert kinds == [("ray-left", -1.0), ("ray-right", 1.0)]


def test_full_spectrum_critical():
    desc = full_spectrum(ShellParams.from_decimal("2", "1"))
    assert [c.kind for c in desc.components] == ["ray-left", "point", "ray-right"]
    point = desc.components[1]
    assert point.endpoint == 0.0
    assert point.spectral_type == "eigenvalue"
    assert point.multiplicity == "infinite"
    assert desc.components[0].endpoint == -1.0
    assert desc.components[2].endpoint == 1.0


def test_full_spectrum_gap_band_sides():
    # negative side attachment iff eta (eta^2 - 4) < 0
    desc = full_spectrum(ShellParams.from_decimal("-3", "2"))
    assert desc.components[0].endpoint == -float(Fraction(10, 13))
    assert desc.components[1].endpoint == 2.0
    desc = full_spectrum(ShellParams.from_decimal("1", "1"))
    assert desc.components[0].endpoint == -float(Fraction(3, 5))
    assert desc.components[1].endpoint == 1.0
    for eta in GAP_SIDE_ETAS:
        par = ShellParams.from_decimal(eta, "1")
        negative_side = par.eta * (par.eta * par.eta - 4.0) < 0.0
        left, right = full_spectrum(par).components
        if negative_side:
            assert left.endpoint == -band_edge(par) and right.endpoint == 1.0
        else:
            assert left.endpoint == -1.0 and right.endpoint == band_edge(par)


def test_full_spectrum_massless_is_full_line():
    for eta in ("0", "1", "2", "-7.25"):
        desc = full_spectrum(ShellParams.from_decimal(eta, "0"))
        assert len(desc.components) == 1
        assert desc.components[0].kind == "full-line"
        assert desc.components[0].spectral_type == "continuous"


def test_full_spectrum_uses_mass_modulus():
    a = full_spectrum(ShellParams.from_decimal("3", "2"))
    b = full_spectrum(ShellParams.from_decimal("3", "-2"))
    assert a.components == b.components


def test_full_spectrum_structure_invariants():
    for eta in GAP_SIDE_ETAS + ("0", "2", "-2"):
        for m in ("0", "0.5", "1"):
            par = ShellParams.from_decimal(eta, m)
            desc = full_spectrum(par)
            assert desc.params == par
            points = [c for c in desc.components if c.kind == "point"]
            if par.critical and par.m != 0.0:
                assert len(points) == 1 and points[0].multiplicity == "infinite"
            else:
                assert not points
            # ordered by left endpoint, pairwise disjoint
            if len(desc.components) > 1:
                lefts = [c.endpoint for c in desc.components]
                assert lefts == sorted(lefts)
                assert desc.components[0].endpoint < desc.components[-1].endpoint


# ----------------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------------

def test_component_dict_shapes():
    left, point, right = full_spectrum(ShellParams.from_decimal("-2", "1")).components
    assert left.to_dict() == {
        "kind": "ray-left", "endpoint": -1.0, "closed": True, "type": "continuous",
    }
    assert point.to_dict() == {
        "kind": "point", "value": 0.0, "type": "eigenvalue", "multiplicity": "infinite",
    }
    line = full_spectrum(ShellParams.from_decimal("1", "0")).components[0]
    assert line.to_dict() == {"kind": "full-line", "type": "continuous"}
    assert SpectralComponent.from_dict(point.to_dict()) == point


def test_description_roundtrip_through_json():
    for eta, m in (("2", "1"), ("-3", "2"), ("1", "0"), ("0.5", "1")):
        desc = full_spectrum(ShellParams.from_decimal(eta, m))
        clone = SpectrumDescription.from_dict(json.loads(json.dumps(desc.to_dict())))
        assert clone == desc


# ----------------------------------------------------------------------------
# coupling symmetry eta -> -4/eta
# ----------------------------------------------------------------------------

def test_symmetry_partner_involution_and_spectra():
    for eta in ("1", "-1", "2", "-2", "3", "0.5", "-1.5"):
        par = ShellParams.from_decimal(eta, "1")
        partner = symmetry_partner(par)
        assert symmetry_partner(partner).eta_exact == par.eta_exact
        assert full_spectrum(partner).components == full_spectrum(par).components
        assert band_edge(partner) == band_edge(par)
    with pytest.raises(ValueError):
        symmetry_partner(ShellParams.from_decimal("0", "1"))


def test_symmetry_partner_serializes_identically():
    for eta in ("1", "2", "3", "0.5", "-1.5"):
        par = ShellParams.from_decimal(eta, "1")
        a = json.dumps([c.to_dict() for c in full_spectrum(par).components])
        b = json.dumps([c.to_dict() for c in full_spectrum(symmetry_partner(par)).components])
        assert a == b


# ----------------------------------------------------------------------------
# point classification
# ----------------------------------------------------------------------------

def test_classify_point():
    crit = ShellParams.from_decimal("2", "1")
    assert classify_point(crit, 0.0) == "eigenvalue-infinite"
    assert classify_point(crit, 0.5) == "resolvent"
    assert classify_point(crit, -1.0) == "continuous"
    par = ShellParams.from_decimal("1", "1")
    assert classify_point(par, -0.6) == "continuous"  # closed edge
    assert classify_point(par, -0.59) == "resolvent"
    assert classify_point(par, 0.3) == "resolvent"
    assert classify_point(par, 5.0) == "continuous"
    assert classify_point(par, 1.0 + 0.5j) == "resolvent"
    assert classify_point(ShellParams.from_decimal("1", "0"), 123.0) == "continuous"
