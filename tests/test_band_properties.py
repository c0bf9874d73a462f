"""Property tests of the in-gap band's exact side, edge and momenta, over
exact rational couplings that include values within 1e-30 of 0 and +/-2,
and of the quasi-mode residual that certifies the band's energies."""
import contextlib
import io
import json
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from diracshell.cli import main  # noqa: E402
from diracshell.fiber import quasimode_residual  # noqa: E402
from diracshell.spectrum import dispersion_energy, dispersion_momentum  # noqa: E402
from diracshell.symbol import ShellParams  # noqa: E402

TINY = Fraction(1, 10**30)
ETA = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=1000),
    st.builds(
        lambda centre, offset: centre + offset,
        st.sampled_from((0, 2, -2)),
        st.fractions(min_value=-TINY, max_value=TINY, max_denominator=10**40),
    ),
)
MASS = st.fractions(min_value=Fraction(1, 1000), max_value=10, max_denominator=1000)
ENERGY = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


def _run(command, eta, m) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([command, f"--eta={eta}", f"--m={m}"])
    assert code == 0, (command, eta, m)
    return buf.getvalue()


@settings(max_examples=150, deadline=None)
@given(eta=ETA, m=MASS, x=ENERGY)
def test_band_functions_raise_only_their_value_error(eta, m, x):
    params = ShellParams.from_decimal(str(eta), str(m))
    for func in (ShellParams.band_momenta, dispersion_momentum, dispersion_energy):
        try:
            got = func(params, x)
        except ValueError:
            continue
        if isinstance(got, tuple):
            assert got[0] == -got[1] and got[1] >= 0.0
        if isinstance(got, float):
            assert math.isfinite(got)
    _run("band-edges", eta, m)


@settings(max_examples=150, deadline=None)
@given(eta=ETA, m=MASS)
def test_band_edges_side_names_the_spectrum_ray(eta, m):
    edges = json.loads(_run("band-edges", eta, m))
    parts = json.loads(_run("spectrum", eta, m))["components"]
    edge, gap = edges["band_edge"], edges["gap_edge"]
    side = edges["side"]
    if side == "flat-band":
        assert [c["kind"] for c in parts] == ["ray-left", "point", "ray-right"]
        return
    left, right = parts[0]["endpoint"], parts[-1]["endpoint"]
    want = {"negative": (-edge, gap), "positive": (-gap, edge), "free": (-gap, gap)}[side]
    assert (left, right) == want


@settings(max_examples=150, deadline=None)
@given(eta=ETA.filter(lambda e: e != 0), m=MASS)
def test_partner_coupling_gives_identical_spectrum_documents(eta, m):
    def without_eta(text):
        return [line for line in text.splitlines() if not line.startswith('  "eta":')]

    doc = _run("spectrum", eta, m)
    partner = _run("spectrum", -4 / eta, m)
    assert without_eta(doc) == without_eta(partner)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    eta=st.fractions(min_value=-50, max_value=50, max_denominator=1000).filter(
        lambda e: e not in (0, 2, -2)),
    m=st.floats(min_value=1e-3, max_value=10.0),
    p0=st.floats(min_value=-1e6, max_value=1e6),
    width=st.floats(min_value=1e-12, max_value=1e3),
)
def test_quasimode_residual_answers_within_the_slope_bound(eta, m, p0, width):
    # z(p) is Lipschitz with constant band_ratio, so the packet's spread of
    # energies is at most band_ratio times its width in momentum
    params = ShellParams.from_decimal(str(eta), repr(m))
    got = quasimode_residual(params, p0, width)
    assert 0.0 <= got <= float(params.band_ratio) * width * (1.0 + 1e-12)
