"""Command-line surface: document shapes, exit codes, determinism."""
import inspect
import json
import math
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import diracshell
from diracshell import cli, fiber
from diracshell.cli import main
from diracshell.spectrum import SpectrumDescription, full_spectrum
from diracshell.symbol import ShellParams, boundary_det
from diracshell.tolerances import QUASIMODE_RESIDUAL_TOL


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


# ----------------------------------------------------------------------------
# spectrum
# ----------------------------------------------------------------------------

def test_spectrum_critical_document(capsys):
    code, out = run(capsys, "spectrum", "--eta", "2", "--m", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "dirac-shell/1"
    assert list(doc) == ["schema", "eta", "m", "components"]
    kinds = [c["kind"] for c in doc["components"]]
    assert kinds == ["ray-left", "point", "ray-right"]
    point = doc["components"][1]
    assert point["value"] == 0.0
    assert point["type"] == "eigenvalue"
    assert point["multiplicity"] == "infinite"
    for ray in (doc["components"][0], doc["components"][2]):
        assert ray["closed"] is True and ray["type"] == "continuous"


def test_spectrum_massless_document(capsys):
    code, out = run(capsys, "spectrum", "--eta", "1", "--m", "0")
    assert code == 0
    doc = json.loads(out)
    assert [c["kind"] for c in doc["components"]] == ["full-line"]


def test_spectrum_roundtrips_to_description(capsys):
    for eta, m in (("2", "1"), ("-3", "2"), ("0.5", "1"), ("1", "0")):
        code, out = run(capsys, "spectrum", "--eta", eta, "--m", m)
        assert code == 0
        desc = SpectrumDescription.from_dict(json.loads(out))
        assert desc == full_spectrum(ShellParams.from_decimal(eta, m))


# Known fault (ROADMAP item 8): a document carries the floats of eta and m,
# so from_dict rebuilds other parameters than the ones the command parsed
# wherever the text is not a binary fraction
@pytest.mark.xfail(strict=True, reason="spectrum documents drop the exact eta and m")
@pytest.mark.parametrize("eta", ["2.0000000000000001", "0.1", "-4/3"])
def test_spectrum_document_rebuilds_its_exact_parameters(capsys, eta):
    code, out = run(capsys, "spectrum", "--eta", eta, "--m", "1")
    assert code == 0
    doc = json.loads(out)
    rebuilt = SpectrumDescription.from_dict(doc).params
    assert len(full_spectrum(rebuilt).components) == len(doc["components"])
    assert SpectrumDescription.from_dict(doc) == full_spectrum(ShellParams.from_decimal(eta, "1"))


def test_spectrum_is_deterministic(capsys):
    _, first = run(capsys, "spectrum", "--eta", "-1.5", "--m", "0.5")
    _, second = run(capsys, "spectrum", "--eta", "-1.5", "--m", "0.5")
    assert first == second


def test_spectrum_rejects_bad_parameters(capsys):
    code, _ = run(capsys, "spectrum", "--eta", "abc", "--m", "1")
    assert code == 2


# ----------------------------------------------------------------------------
# band edges
# ----------------------------------------------------------------------------

def test_band_edges_sides(capsys):
    cases = {
        ("-3", "2"): ("negative", 10.0 / 13.0),
        ("3", "1"): ("positive", 5.0 / 13.0),
        ("2", "1"): ("flat-band", 0.0),
        ("0", "1"): ("free", 1.0),
        ("1", "0"): ("full-line", 0.0),
    }
    for (eta, m), (side, edge) in cases.items():
        code, out = run(capsys, "band-edges", "--eta", eta, "--m", m)
        assert code == 0
        doc = json.loads(out)
        assert doc["side"] == side
        assert abs(doc["band_edge"] - edge) <= 1e-15
        assert doc["gap_edge"] == abs(float(m))


# ----------------------------------------------------------------------------
# dispersion export
# ----------------------------------------------------------------------------

def test_dispersion_csv_frozen_rows(capsys):
    code, out = run(
        capsys, "dispersion", "--eta", "1", "--m", "1",
        "--p-min", "0", "--p-max", "1", "--p-count", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,z"
    assert lines[1] == "0,-0.59999999999999998"
    assert lines[2] == "1,-0.84852813742385702"


def test_dispersion_rows_zero_the_determinant(capsys):
    code, out = run(capsys, "dispersion", "--eta", "3", "--m", "1", "--p-count", "41")
    assert code == 0
    par = ShellParams.from_decimal("3", "1")
    for line in out.strip().splitlines()[1:]:
        p_txt, z_txt = line.split(",")
        p, z = float(p_txt), float(z_txt)
        det = boundary_det(par, p, complex(z))
        assert abs(det) <= 1e-10 * (p * p + 1.0)


def test_dispersion_json_format(capsys):
    code, out = run(
        capsys, "dispersion", "--eta", "3", "--m", "1", "--format", "json",
        "--p-min", "0", "--p-max", "2", "--p-count", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "dirac-shell/1"
    assert len(doc["rows"]) == 3
    assert doc["rows"][0]["p"] == 0.0
    assert doc["rows"][0]["z"] == 5.0 / 13.0


def test_dispersion_exit_codes(capsys):
    code, _ = run(capsys, "dispersion", "--eta", "2", "--m", "1")
    assert code == 3  # critical coupling: no dispersion curve
    code, _ = run(capsys, "dispersion", "--eta", "1", "--m", "1", "--p-count", "1")
    assert code == 2  # degenerate grid
    code, _ = run(capsys, "dispersion", "--eta", "1", "--m", "1",
                  "--p-min", "3", "--p-max", "-3")
    assert code == 2


def test_overflowing_grid_span_is_a_usage_error(capsys):
    # numpy warned "overflow encountered in subtract" inside linspace and the
    # command exited 3; under an error filter the warning escaped main
    for command in (["dispersion"], ["symbol-eval", "--z", "0.5j"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([*command, "--eta", "1", "--m", "1",
                         "--p-min", "-1e308", "--p-max", "1e308", "--p-count", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "overflows" in captured.err


def test_unallocatable_grid_is_a_usage_error(capsys):
    # numpy refuses the 7.28 TiB grid before it allocates anything
    for command in (["dispersion"], ["symbol-eval", "--z", "0.5j"]):
        code = main([*command, "--eta", "1", "--m", "1", "--p-count", "1000000000000"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--p-count 1000000000000" in captured.err


# ----------------------------------------------------------------------------
# symbol and kernel evaluation
# ----------------------------------------------------------------------------

def test_symbol_eval_document(capsys):
    code, out = run(
        capsys, "symbol-eval", "--eta", "1", "--m", "1", "--z", "0.5+0.5j",
        "--p-min", "-1", "--p-max", "1", "--p-count", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 3
    row = doc["rows"][1]
    assert row["p"] == 0.0
    assert set(row["theta"]) == {"a11", "a12", "a21", "a22"}
    assert all(len(pair) == 2 for pair in row["theta"].values())
    assert isinstance(row["inv_max_abs"], float)
    assert "reference" not in row


def test_symbol_eval_reports_singular_inverse(capsys):
    # z = -0.6 at p = 0 sits on the dispersion curve: no inverse there
    code, out = run(
        capsys, "symbol-eval", "--eta", "1", "--m", "1", "--z", "-0.6",
        "--p-min", "0", "--p-max", "1", "--p-count", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["inv_max_abs"] is None
    assert doc["rows"][1]["inv_max_abs"] is not None


def test_symbol_eval_anchor_split_columns(capsys):
    code, out = run(
        capsys, "symbol-eval", "--eta", "1", "--m", "1", "--z", "0.2",
        "--zeta", "2j", "--p-min", "0", "--p-max", "1", "--p-count", "2",
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    for key in ("a11", "a12", "a21", "a22"):
        ref, weyl, theta = row["reference"][key], row["weyl"][key], row["theta"][key]
        assert abs((ref[0] - weyl[0]) - theta[0]) <= 1e-12
        assert abs((ref[1] - weyl[1]) - theta[1]) <= 1e-12


def test_symbol_eval_requires_z(capsys):
    code, _ = run(capsys, "symbol-eval", "--eta", "1", "--m", "1")
    assert code == 2


# Whole documents of small invocations, whitespace removed; every float is
# written with 17 significant digits, so these pin the bytes of the values.
FROZEN_DOCUMENTS = {
    'symbol_complex_z': (
        '{"schema":"dirac-shell/1","eta":1,"m":1,"z":[0.5,0.5],"zeta":null,"rows":[{"'
        'p":-1,"theta":{"a11":[-2.117310996505557,-0.33465364290140476],"a12":[0.4887'
        '891890597581,0.060172698914350481],"a21":[0.4887891890597581,0.0601726989143'
        '50481],"a22":[-1.1397326183860408,-0.2143082450727038]},"det":[2.10615525342'
        '03893,0.77634934719892401],"dispersion":[6.2751593721918413,1.47370383087111'
        '86],"inv_max_abs":0.95496490052601701},{"p":2,"theta":{"a11":[-2.97085333253'
        '90865,-0.28633673515813096],"a12":[-0.9962771201104087,-0.049689940174038431'
        '],"a21":[-0.9962771201104087,-0.049689940174038431],"a22":[-1.97457621242867'
        '79,-0.23664679498409258]},"det":[4.8083166404837741,1.1694267245108221],"dis'
        'persion":[8.7165631201919034,1.665007242582764],"inv_max_abs":0.603138633441'
        '81684}]}'
    ),
    'symbol_zeta': (
        '{"schema":"dirac-shell/1","eta":3,"m":1,"z":[0.20000000000000001,0.100000000'
        '00000001],"zeta":[0,2],"rows":[{"p":0,"theta":{"a11":[-0.941107391798917,-0.'
        '063282626044685666],"a12":[-0,0],"a21":[-0,0],"a22":[0.073592101667523113,-0'
        '.042369873759079579]},"det":[-0.071939347733979753,0.035217499934588413],"di'
        'spersion":[-2.525475093769356,1.3015130501080987],"inv_max_abs":11.776117840'
        '953788,"reference":{"a11":[-0.55694013108331231,0],"a12":[-0,0],"a21":[-0,0]'
        ',"a22":[-0.10972653558335435,0]},"weyl":{"a11":[0.38416726071560481,0.063282'
        '626044685666],"a12":[0,0],"a21":[0,0],"a22":[-0.18331863725087746,0.04236987'
        '3759079579]}},{"p":1,"theta":{"a11":[-1.0753510165369125,-0.0565074810616950'
        '99],"a12":[-0.50371485724222509,-0.0051133294478938173],"a21":[-0.5037148572'
        '4222509,-0.0051133294478938173],"a22":[-0.06792130205246219,-0.0462808221659'
        '07461]},"det":[-0.18327848274394637,0.048454870825931237],"dispersion":[-4.6'
        '181960373765234,1.2712433789733391],"inv_max_abs":5.6802412278346885,"refere'
        'nce":{"a11":[-0.76007965538584454,0],"a12":[-0.28867513459481292,0],"a21":[-'
        '0.28867513459481292,0],"a22":[-0.18272938619621876,0]},"weyl":{"a11":[0.3152'
        '713611510678,0.056507481061695099],"a12":[0.2150397226474122,0.0051133294478'
        '938173],"a21":[0.2150397226474122,0.0051133294478938173],"a22":[-0.114808084'
        '14375655,0.046280822165907461]}}]}'
    ),
    'symbol_singular': (
        '{"schema":"dirac-shell/1","eta":1,"m":1,"z":[-0.59999999999999998,0],"zeta":'
        'null,"rows":[{"p":0,"theta":{"a11":[-1.25,0],"a12":[-0,0],"a21":[-0,0],"a22"'
        ':[-0,0]},"det":[1.1102230246251565e-16,0],"dispersion":[4.4408920985006262e-'
        '16,0],"inv_max_abs":null},{"p":1,"theta":{"a11":[-1.6350766145227884,0],"a12'
        '":[-0.55215763037423271,0],"a21":[-0.55215763037423271,0],"a22":[-0.53076135'
        '377432265,0]},"det":[0.56295742866836385,0],"dispersion":[1.4418745424597095'
        ',0],"inv_max_abs":2.9044409599327023}]}'
    ),
    'greens_imag': (
        '{"schema":"dirac-shell/1","m":1,"z":[0,0.5],"x":[1,0],"kernel":{"a11":[0.056'
        '745511913098304,0.028372755956549152],"a12":[0,0.088094690833147651],"a21":['
        '0,0.088094690833147651],"a22":[-0.056745511913098304,0.028372755956549152]}}'
    ),
    'greens_complex': (
        '{"schema":"dirac-shell/1","m":1,"z":[0.29999999999999999,0.5],"x":[0.5,-0.25]'
        ',"kernel":{"a11":[0.14940868656805359,0.080813551123856006],"a12":[-0.1082971'
        '5117334154,0.19362258155137702],"a21":[0.089919774537096681,0.202811269869499'
        '43],"a22":[-0.092486228999366676,0.049521516920777636]}}'
    ),
    # Re a21 is a product with a zero plus the mass term's zero: it prints 0, not -0
    'greens_signed_zero': (
        '{"schema":"dirac-shell/1","m":1,"z":[0,0.5],"x":[-2,0],"kernel":{"a11":[0.013'
        '602314554671162,0.0068011572773355811],"a12":[0,-0.018333469282116328],"a21":'
        '[0,-0.018333469282116328],"a22":[-0.013602314554671162,0.0068011572773355811]'
        '}}'
    ),
}

FROZEN_ARGV = {
    "symbol_complex_z": ("symbol-eval", "--eta", "1", "--m", "1", "--z", "0.5+0.5j",
                         "--p-min", "-1", "--p-max", "2", "--p-count", "2"),
    "symbol_zeta": ("symbol-eval", "--eta", "3", "--m", "1", "--z", "0.2+0.1j", "--zeta", "2j",
                    "--p-min", "0", "--p-max", "1", "--p-count", "2"),
    "symbol_singular": ("symbol-eval", "--eta", "1", "--m", "1", "--z", "-0.6",
                        "--p-min", "0", "--p-max", "1", "--p-count", "2"),
    "greens_imag": ("greens-eval", "--m", "1", "--z", "0.5j"),
    "greens_complex": ("greens-eval", "--m", "1", "--z", "0.3+0.5j", "--x1", "0.5", "--x2", "-0.25"),
    "greens_signed_zero": ("greens-eval", "--m", "1", "--z", "0.5j", "--x1", "-2", "--x2", "0"),
}


def test_symbol_and_greens_documents_frozen(capsys):
    for name, argv in FROZEN_ARGV.items():
        code, out = run(capsys, *argv)
        assert code == 0, name
        assert "".join(out.split()) == "".join(FROZEN_DOCUMENTS[name]), name


def test_greens_eval_document_and_domain(capsys):
    code, out = run(capsys, "greens-eval", "--m", "1", "--z", "0.5j",
                    "--x1", "1", "--x2", "0")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["kernel"]) == {"a11", "a12", "a21", "a22"}
    assert all(len(pair) == 2 for pair in doc["kernel"].values())
    code, _ = run(capsys, "greens-eval", "--m", "1", "--z", "0.5j",
                  "--x1", "0", "--x2", "0")
    assert code == 3
    code, _ = run(capsys, "greens-eval", "--m", "1", "--z", "1.5")
    assert code == 3  # z on the free spectrum


def test_greens_eval_rejects_a_radius_below_the_bessel_range(capsys):
    # the tail cutoff of the Bessel table overflows there: numpy used to warn
    # and the trapezoid gave up only after all of its halvings
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["greens-eval", "--m", "1", "--z", "0.5j", "--x1", "1e-320", "--x2", "0"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "|a| r = 1.12e-320" in captured.err  # a = sqrt(1.25), r = 1e-320


def test_greens_eval_mass_takes_the_text_of_every_other_mass(capsys):
    outs = {text: run(capsys, "greens-eval", "--m", text, "--z", "0.5j") for text in ("1/2", "0.5")}
    assert outs["1/2"] == outs["0.5"] and outs["0.5"][0] == 0
    for text in ("1e400", "nan", "inf", "1/0", "1e-99999"):
        assert run(capsys, "greens-eval", "--m", text, "--z", "0.5j") == (2, ""), text


def test_quasimode_document(capsys):
    code, out = run(capsys, "quasimode", "--eta", "1", "--m", "1",
                    "--p0", "0", "--width", "0.125")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["energy"] + 0.6) <= 1e-15
    assert 0.0 < doc["residual"] < QUASIMODE_RESIDUAL_TOL
    code, _ = run(capsys, "quasimode", "--eta", "2", "--m", "1")
    assert code == 3
    # a narrow packet far from p = 0 exited 3: the quadrature in p ran out of levels
    code, out = run(capsys, "quasimode", "--eta", "1", "--m", "1", "--p0", "5", "--width", "1e-8")
    assert code == 0
    assert abs(json.loads(out)["residual"] / 1e-8 - 3.0 / math.sqrt(26.0)) <= 1e-12


# ----------------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------------

def test_verify_oracle_suite_passes(capsys):
    code, out = run(capsys, "verify", "--suite", "oracle", "--eta", "1", "--m", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_oracle_finds_bands_inside_the_gap_margin(capsys):
    # the band edge ratio |eta^2 - 4|/(eta^2 + 4) lies within FIBER_GAP_MARGIN of 1
    for eta in ("0.01", "0.04", "100", "1000"):
        code, out = run(capsys, "verify", "--suite", "oracle", "--eta", eta, "--m", "1")
        assert code == 0, eta
        (row,) = json.loads(out)["checks"]
        assert row["status"] == "pass", (eta, row)


def test_verify_oracle_reports_a_missing_fiber_root(capsys):
    # at eta = 1e9 the band lies within rounding of the fiber-gap edge, so
    # the scan brackets no root and the row fails without a measured value
    code, out = run(capsys, "verify", "--suite", "oracle", "--eta", "1e9", "--m", "1")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    (row,) = doc["checks"]
    assert row["measured"] is None
    assert row["status"] == "fail"
    assert row["reason"] == "no fiber root found at p = 0"


def _textbook_det(eta, m, p, z):
    """The matching determinant on the textbook vectors (p + kappa, z - m)
    and (p - kappa, z - m), which vanish inside the gap: a faulty oracle."""
    kappa = np.sqrt(p * p + m * m - z * z)
    up, down = (p + kappa, z - m), (p - kappa, z - m)
    a1, a2 = up[1] - 0.5 * eta * up[0], -up[0] - 0.5 * eta * up[1]
    b1, b2 = -down[1] - 0.5 * eta * down[0], down[0] - 0.5 * eta * down[1]
    return a1 * b2 - a2 * b1


def test_verify_fails_the_oracle_row_on_a_fault_of_the_oracle(capsys, monkeypatch):
    # the scan's "multiple sign changes" RuntimeError was reported as a
    # domain error, exit 3, as if the input were at fault
    monkeypatch.setattr(fiber, "_match_det_raw", _textbook_det)
    for eta in ("1", "3"):
        code, out = run(capsys, "verify", "--suite", "all", "--eta", eta, "--m", "1")
        assert code == 1, eta
        (row,) = [c for c in json.loads(out)["checks"] if c["name"] == "fiber_vs_dispersion"]
        assert list(row) == ["name", "measured", "threshold", "comparison", "status", "reason"]
        assert row["status"] == "fail" and row["measured"] is None
        assert row["reason"].startswith("multiple sign changes of the matching determinant")


def test_verify_marks_uncoupled_parameters_not_applicable(capsys):
    code, out = run(capsys, "verify", "--suite", "symbol", "--eta", "0", "--m", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"]
    assert all(c["status"] == "not-applicable" for c in doc["checks"])


def test_verify_tolerance_override_can_force_failure(capsys):
    code, out = run(
        capsys, "verify", "--suite", "oracle", "--eta", "1", "--m", "1",
        "--tol-override", "ORACLE_DISPERSION_TOL=1e-30",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    assert any(c["status"] == "fail" for c in doc["checks"])


def test_verify_rejects_unknown_tolerance(capsys):
    code, _ = run(
        capsys, "verify", "--suite", "oracle", "--eta", "1", "--m", "1",
        "--tol-override", "NO_SUCH_NAME=1",
    )
    assert code == 2
    code, _ = run(
        capsys, "verify", "--suite", "oracle", "--eta", "1", "--m", "1",
        "--tol-override", "ORACLE_DISPERSION_TOL=abc",
    )
    assert code == 2


@pytest.mark.parametrize("value", ("nan", "inf", "-inf", "1e400"))
def test_verify_rejects_a_non_finite_override(capsys, value):
    # these ran the suite and then failed to print the threshold, exit 3
    code, out = run(
        capsys, "verify", "--suite", "oracle", "--eta", "1", "--m", "1",
        "--tol-override", f"ORACLE_DISPERSION_TOL={value}",
    )
    assert code == 2 and out == ""


def test_verify_override_takes_the_text_eta_and_m_take(capsys):
    code, out = run(
        capsys, "verify", "--suite", "oracle", "--eta", "1", "--m", "1",
        "--tol-override", "ORACLE_DISPERSION_TOL=1/10",
    )
    assert code == 0
    (row,) = json.loads(out)["checks"]
    assert row["threshold"] == 0.1


def test_verify_rejects_override_keys_no_suite_reads(capsys):
    code, out = run(
        capsys, "verify", "--suite", "symbol", "--tol-override", "SQRT_REL_TOL=-1",
    )
    assert code == 2 and out == ""


def test_override_keys_are_the_keys_the_suites_read():
    source = inspect.getsource(cli)
    read = set(re.findall(r'tols\["([A-Z0-9_]+)"\]', source))
    assert read == set(cli.VERIFY_TOLERANCES)
    assert len(cli.VERIFY_TOLERANCES) == len(read)  # no name listed twice


def test_verify_limits_survive_an_underflowing_window(capsys):
    # the window 0.5 sqrt(x^2 - m^2) at x = 2m was formed from squares that
    # underflow below about m = 1e-162 and collapsed to [-0.0, 0.0], exit 3
    rows = {}
    for m in ("1e-160", "1e-200", "1e-300"):
        code, out = run(capsys, "verify", "--suite", "limits", "--eta", "1", "--m", m)
        assert code == 0, m
        rows[m] = [(c["name"], c["measured"]) for c in json.loads(out)["checks"]]
    assert rows["1e-160"] == [
        ("sup_decay_ratio", 1.1173211015351532e-04),
        ("im_limit_floor", 0.3999999999999999),
        ("im_limit_cauchy", 5.551115123125783e-17),
    ]
    assert rows["1e-200"] == rows["1e-160"] == rows["1e-300"]


def test_verify_limits_next_to_criticality(capsys):
    # the float of each coupling is exactly +/-2.0 while the exact value is
    # not critical; the float band formulas used to divide by eta^2 - 4
    for eta in ("2.0000000000000001", "1.9999999999999999", "-2.0000000000000001"):
        code, out = run(capsys, "verify", "--suite", "limits", "--eta", eta, "--m", "1")
        assert code == 0, eta
        assert json.loads(out)["pass"] is True


def test_verify_all_without_mass_is_answered(capsys):
    code, out = run(capsys, "verify", "--suite", "all", "--eta", "1", "--m", "0")
    assert code in (0, 1)
    rows = {c["name"]: c for c in json.loads(out)["checks"]}
    assert rows["fiber_vs_dispersion"]["status"] == "not-applicable"


def test_verify_rejects_unknown_suite(capsys):
    code, _ = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2


# (name, status, repr(measured)) of every `verify --suite all` row: the JSON
# carries 17 significant digits, so these pin the bits of each measured value.
FROZEN_VERIFY = {
    ('1', '1'): (
        ('det_closed_vs_direct', 'pass', '8.560560326842289e-16'),
        ('inverse_product', 'pass', '9.930136612989092e-16'),
        ('anchor_split', 'pass', '4.47047574247688e-16'),
        ('anchor_independence', 'pass', '5.617389957663665e-16'),
        ('fiber_vs_dispersion', 'pass', '2.9543034685275416e-13'),
        ('detuned_kernel_floor', 'pass', '1.5'),
        ('sup_decay_ratio', 'pass', '0.00022011053145770313'),
        ('im_limit_floor', 'pass', '0.4948716576727404'),
        ('im_limit_cauchy', 'pass', '1.4693877670168831e-08'),
        ('pde_residual', 'pass', '2.9860488333019464e-07'),
        ('pde_richardson_ratio', 'pass', '4.000001293585263'),
        ('bessel_derivative', 'pass', '1.6860301514419924e-08'),
        ('fourier_pair', 'pass', '4.479028852665656e-14'),
    ),
    ('2', '1'): (
        ('det_closed_vs_direct', 'pass', '5.1745067241029535e-15'),
        ('inverse_product', 'pass', '5.3475422218306674e-15'),
        ('anchor_split', 'pass', '3.45760846255256e-16'),
        ('anchor_independence', 'pass', '4.097049245901317e-16'),
        ('fiber_vs_dispersion', 'not-applicable', 'None'),
        ('critical_kernel_sup', 'pass', '0'),
        ('sup_decay_ratio', 'pass', '0.00011634812400843008'),
        ('im_limit_floor', 'pass', '0.8660254062844386'),
        ('im_limit_cauchy', 'pass', '2.2500001306546835e-08'),
        ('pde_residual', 'pass', '2.9860488333019464e-07'),
        ('pde_richardson_ratio', 'pass', '4.000001293585263'),
        ('bessel_derivative', 'pass', '1.6860301514419924e-08'),
        ('fourier_pair', 'pass', '4.479028852665656e-14'),
    ),
    ('-8', '2'): (
        ('det_closed_vs_direct', 'pass', '1.1975552616464741e-15'),
        ('inverse_product', 'pass', '1.1102230246251565e-15'),
        ('anchor_split', 'pass', '2.441702820641942e-16'),
        ('anchor_independence', 'pass', '3.047762574198609e-16'),
        ('fiber_vs_dispersion', 'pass', '4.0945025148175773e-13'),
        ('detuned_kernel_floor', 'pass', '120'),
        ('sup_decay_ratio', 'pass', '0.000252235423284545'),
        ('im_limit_floor', 'pass', '2.9171381986755613'),
        ('im_limit_cauchy', 'pass', '3.191135933278133e-08'),
        ('pde_residual', 'pass', '2.5913341531423606e-07'),
        ('pde_richardson_ratio', 'pass', '4.0000041552415855'),
        ('bessel_derivative', 'pass', '1.6860301514419924e-08'),
        ('fourier_pair', 'pass', '4.479028852665656e-14'),
    ),
    ('0', '1'): (
        ('det_closed_vs_direct', 'not-applicable', 'None'),
        ('inverse_product', 'not-applicable', 'None'),
        ('anchor_split', 'not-applicable', 'None'),
        ('anchor_independence', 'not-applicable', 'None'),
        ('fiber_vs_dispersion', 'not-applicable', 'None'),
        ('detuned_kernel_floor', 'not-applicable', 'None'),
        ('sup_decay_ratio', 'not-applicable', 'None'),
        ('im_limit_floor', 'not-applicable', 'None'),
        ('im_limit_cauchy', 'not-applicable', 'None'),
        ('pde_residual', 'pass', '2.9860488333019464e-07'),
        ('pde_richardson_ratio', 'pass', '4.000001293585263'),
        ('bessel_derivative', 'pass', '1.6860301514419924e-08'),
        ('fourier_pair', 'pass', '4.479028852665656e-14'),
    ),
    ('2', '0'): (
        ('det_closed_vs_direct', 'pass', '4.853931722699185e-15'),
        ('inverse_product', 'pass', '3.972054645195637e-15'),
        ('anchor_split', 'pass', '2.2040252060299895e-16'),
        ('anchor_independence', 'pass', '3.1691502607109413e-16'),
        ('fiber_vs_dispersion', 'not-applicable', 'None'),
        ('zero_energy_kernel', 'not-applicable', 'None'),
        ('sup_decay_ratio', 'not-applicable', 'None'),
        ('im_limit_floor', 'not-applicable', 'None'),
        ('im_limit_cauchy', 'not-applicable', 'None'),
        ('pde_residual', 'pass', '3.2360970307621084e-07'),
        ('pde_richardson_ratio', 'pass', '4.00000040729184'),
        ('bessel_derivative', 'pass', '1.6860301514419924e-08'),
        ('fourier_pair', 'pass', '4.479028852665656e-14'),
    ),
}


def test_greens_suite_computes_each_residual_once(monkeypatch):
    calls = {"pde_residual": 0, "fourier_pair_check": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(cli, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(cli, name, counted)
    rows = cli.suite_greens(ShellParams.from_decimal("1", "1"), cli._tol_table(None))
    names = ["pde_residual", "pde_richardson_ratio", "bessel_derivative", "fourier_pair"]
    assert [row["name"] for row in rows] == names
    # three residuals at h = 1e-3, the first doubling as the Richardson pair's
    # fine value, one at h = 2e-3, and all three kappas in one check
    assert calls == {"pde_residual": 4, "fourier_pair_check": 1}


def test_verify_measured_values_frozen(capsys):
    for (eta, m), frozen in FROZEN_VERIFY.items():
        code, out = run(capsys, "verify", "--suite", "all", "--eta", eta, "--m", m)
        assert code == 0, (eta, m)
        rows = tuple((c["name"], c["status"], repr(c["measured"])) for c in json.loads(out)["checks"])
        assert rows == frozen, (eta, m)


# ----------------------------------------------------------------------------
# argument handling and output files
# ----------------------------------------------------------------------------

def test_missing_subcommand_is_usage_error(capsys):
    code, _ = run(capsys)
    assert code == 2


def test_out_file_matches_stdout(tmp_path, capsys):
    # every subcommand, both dispersion formats and a failing verify
    cases = (
        (0, "spectrum", "--eta", "3"),
        (0, "band-edges", "--eta", "3", "--m", "1"),
        (0, "dispersion", "--eta", "3", "--p-count", "5"),
        (0, "dispersion", "--eta", "3", "--p-count", "5", "--format", "json"),
        (0, "symbol-eval", "--z", "0.3+0.5j", "--zeta", "2j", "--p-count", "3"),
        (0, "greens-eval", "--z", "0.5j"),
        (0, "quasimode", "--p0", "0.5"),
        (0, "verify", "--suite", "critical"),
        (1, "verify", "--suite", "critical", "--tol-override", "NONCRITICAL_KERNEL_FLOOR=1e9"),
    )
    for k, (want, *args) in enumerate(cases):
        code, direct = run(capsys, *args)
        path = tmp_path / f"out{k}"
        assert code == want and main([*args, "--out", str(path)]) == want, args
        assert capsys.readouterr().out == "", args
        assert path.read_text() == direct, args
    # a missing directory and a directory: exit 2 with a message, no output
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code = main(["band-edges", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", target
        assert captured.err.startswith(f"error: cannot write {target}: "), captured.err


def test_band_edges_side_is_exact_next_to_criticality(capsys):
    # the float of each coupling is exactly +/-2.0; only the exact sign of
    # eta (eta^2 - 4) puts the side on the ray that spectrum moves
    for eta, side, ray in (("1.9999999999999999", "negative", 0),
                           ("2.0000000000000001", "positive", 1),
                           ("-1.9999999999999999", "positive", 1)):
        code, out = run(capsys, "band-edges", "--eta", eta, "--m", "1")
        assert code == 0 and json.loads(out)["side"] == side, eta
        _, out = run(capsys, "spectrum", "--eta", eta, "--m", "1")
        endpoint = json.loads(out)["components"][ray]["endpoint"]
        assert 0.0 < abs(endpoint) < 1e-16, eta


def test_scientific_notation_criticality(capsys):
    code, out = run(capsys, "band-edges", "--eta", "2e0", "--m", "1")
    assert code == 0
    assert json.loads(out)["side"] == "flat-band"


def test_negative_values_parse_without_equals_sign(capsys):
    # a value starting with '-' must not be read as an option
    for eta in ("-4/3", "-1e-1"):
        code, out = run(capsys, "band-edges", "--eta", eta, "--m", "1")
        assert code == 0, eta
        _, joined = run(capsys, "band-edges", f"--eta={eta}", "--m", "1")
        assert out == joined
    code, out = run(capsys, "greens-eval", "--m", "1", "--z", "-0.5+0.1j")
    assert code == 0
    assert json.loads(out)["z"] == [-0.5, 0.1]
    code, _ = run(capsys, "verify", "--suite", "oracle", "--eta", "-4/3", "--m", "1")
    assert code == 0


def test_non_finite_numbers_are_usage_errors(capsys):
    cases = (
        ("greens-eval", "--m", "1", "--z", "nan"),
        ("greens-eval", "--m", "1", "--z", "inf+1j"),
        ("greens-eval", "--m", "1", "--z", "1e400j"),
        ("greens-eval", "--m", "inf", "--z", "0.5j"),
        ("greens-eval", "--m", "1", "--z", "0.5j", "--x1", "nan"),
        ("greens-eval", "--m", "1", "--z", "0.5j", "--x2", "inf"),
        ("spectrum", "--eta", "1e400", "--m", "1"),
        ("band-edges", "--eta", "1", "--m", "1e400"),
        ("quasimode", "--eta", "1", "--m", "1", "--p0", "nan"),
        ("quasimode", "--eta", "1", "--m", "1", "--width", "inf"),
        ("symbol-eval", "--eta", "1", "--m", "1", "--z", "0.5j", "--p-max", "inf"),
    )
    for argv in cases:
        code, out = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""


def test_huge_decimal_exponents_are_refused_at_once(capsys):
    # Fraction built 10**|exponent|: 1e20000000 took half a minute to exit 2,
    # and the band arithmetic at 1e-20000000 never ended
    for text in ("1e20000000", "1e-20000000", "1E+99999999999999999999", "1e-4301", "0e-20000000"):
        for flags in ((f"--eta={text}", "--m=1"), ("--eta=1", f"--m={text}")):
            start = time.perf_counter()
            code, out = run(capsys, "band-edges", *flags)
            assert code == 2 and out == "", flags
            assert time.perf_counter() - start < 1.0, flags
    # up to the limit the exact value is kept: positive although its float is 0
    for text in ("1e-400", "1e-4300", "1e-0004300"):
        code, out = run(capsys, "band-edges", f"--eta={text}", "--m=1")
        assert code == 0
        doc = json.loads(out)
        assert doc["eta"] == 0 and doc["side"] == "negative"


def test_double_dash_attached_to_a_flag_is_a_usage_error(capsys):
    # argparse turns "--eta=--" into an empty list, which reached Fraction()
    for argv in (
        ("band-edges", "--eta=--"),
        ("greens-eval", "--z=--"),
        ("verify", "--suite", "oracle", "--tol-override=--"),
    ):
        code, out = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""


def test_results_that_overflow_are_domain_errors(capsys):
    # these printed -inf or nan, or ended in a traceback with exit 1
    # (a division by zero at eta = 1e-300, a non-finite JSON entry otherwise);
    # at eta = 1e-3 the band energy |z| ~ sqrt(p^2 + m^2) exceeds the float range
    cases = (
        ("dispersion", "--eta", "1e-3", "--m", "1.7e308", "--p-max", "1.7e308", "--p-count", "2"),
        ("symbol-eval", "--eta", "1", "--m", "1", "--z", "0.5j", "--p-min", "-1e300", "--p-count", "2"),
        ("symbol-eval", "--eta", "1e-300", "--m", "1", "--z", "0.5j", "--p-count", "2"),
        ("symbol-eval", "--eta", "1e300", "--m", "1", "--z", "0.5j", "--p-count", "2"),
        ("verify", "--suite", "critical", "--eta", "1e300", "--m", "1"),
        ("quasimode", "--eta", "1e-3", "--m", "1.7e308", "--p0", "1.7e308"),
        ("greens-eval", "--m", "1e300", "--z", "0.5j"),
    )
    for argv in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow notices
            code, out = run(capsys, *argv)
        assert code == 3, argv
        assert out == ""


def test_band_energies_whose_squares_overflow_are_answered(capsys):
    # p^2 + m^2 overflowed, so these printed "-inf is not a finite number" and
    # exited 3, although the energy, about -0.6 max(|p|, |m|), is a float
    for argv, energy in (
        (("quasimode", "--p0", "1e200"), -6e199),
        (("quasimode", "--m", "1e300"), -6e299),
        (("dispersion", "--p-min", "0", "--p-max", "1e200", "--p-count", "2"), -6e199),
        (("dispersion", "--p-max", "1e300", "--p-count", "2"), -6e299),
    ):
        code, out = run(capsys, argv[0], "--eta", "1", *argv[1:])
        assert code == 0, argv
        if argv[0] == "quasimode":
            doc = json.loads(out)
            got, residual = doc["energy"], doc["residual"]
            assert 0.0 < residual <= 0.6 * 0.25  # the slope bound band_ratio * width
        else:
            got = float(out.splitlines()[-1].split(",")[1])
        assert abs(got / energy - 1.0) <= 1e-15, argv


def test_limits_refuse_masses_whose_squares_overflow(capsys):
    # 1e160 stopped in band_momenta's float conversion; with that root mended
    # the tables printed overflow warnings and rows of nan, 0 and inf
    code = main(["verify", "--suite", "limits", "--eta", "1", "--m", "1e160"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "") and "x^2 + m^2" in captured.err
    code, out = run(capsys, "verify", "--suite", "limits", "--eta", "1", "--m", "1e150")
    assert code == 0 and json.loads(out)["pass"] is True
    # just below that edge the square is finite but the inverse's prefactor
    # is not: the run warned once and exited 0
    code = main(["verify", "--suite", "limits", "--eta", "1", "--m", "5e153"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "") and "float range" in captured.err


def test_readme_command_line_examples_run(capsys):
    # every dirac-shell line of the README's "Command line" block exits 0
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split()[1:] for line in block.splitlines() if line.startswith("dirac-shell ")]
    assert lines
    for argv in lines:
        code, out = run(capsys, *argv)
        assert code == 0, argv
        assert out


def test_readme_names_every_public_name():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    missing = [name for name in diracshell.__all__ if f"`{name}`" not in readme]
    assert not missing
    # and back: the names heading a bullet of the API highlights, before its
    # first colon, are public, so a deleted name does not linger there
    block = readme.split("Highlights of the API:\n", 1)[1].split("\n\n", 1)[0]
    heads = [name for bullet in block.split("\n- ")[1:]
             for name in re.findall(r"`(\w+)`", bullet.split(":", 1)[0])]
    assert len(heads) >= 20
    assert [name for name in heads if name not in diracshell.__all__] == []
