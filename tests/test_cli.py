"""Command-line surface: document shapes, exit codes, determinism."""
import inspect
import json
import math
import re
import time
import warnings

from diracshell import cli
from diracshell.cli import main
from diracshell.spectrum import SpectrumDescription, full_spectrum
from diracshell.symbol import ShellParams, SymbolPoint, boundary_det


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
        det = boundary_det(par, SymbolPoint.create(p, complex(z), 1.0))
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
        '{"schema":"dirac-shell/1","m":1,"z":[0.29999999999999999,0.5],"x":[0.5,-0.25'
        '],"kernel":{"a11":[0.14940868656805362,0.08081355112385602],"a12":[-0.108297'
        '15117334152,0.19362258155137699],"a21":[0.089919774537096681,0.2028112698694'
        '9941],"a22":[-0.09248622899936669,0.04952151692077765]}}'
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


def test_quasimode_document(capsys):
    code, out = run(capsys, "quasimode", "--eta", "1", "--m", "1",
                    "--p0", "0", "--width", "0.125")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["energy"] + 0.6) <= 1e-15
    assert 0.0 < doc["residual"] < 0.05
    code, _ = run(capsys, "quasimode", "--eta", "2", "--m", "1")
    assert code == 3


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


# ----------------------------------------------------------------------------
# argument handling and output files
# ----------------------------------------------------------------------------

def test_missing_subcommand_is_usage_error(capsys):
    code, _ = run(capsys)
    assert code == 2


def test_out_file_matches_stdout(tmp_path, capsys):
    _, direct = run(capsys, "band-edges", "--eta", "3", "--m", "1")
    path = tmp_path / "edges.json"
    code = main(["band-edges", "--eta", "3", "--m", "1", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    assert path.read_text() == direct


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
    # (a division by zero at eta = 1e-300, a non-finite JSON entry otherwise)
    cases = (
        ("dispersion", "--eta", "1", "--m", "1", "--p-max", "1e300", "--p-count", "2"),
        ("symbol-eval", "--eta", "1", "--m", "1", "--z", "0.5j", "--p-min", "-1e300", "--p-count", "2"),
        ("symbol-eval", "--eta", "1e-300", "--m", "1", "--z", "0.5j", "--p-count", "2"),
        ("symbol-eval", "--eta", "1e300", "--m", "1", "--z", "0.5j", "--p-count", "2"),
        ("verify", "--suite", "critical", "--eta", "1e300", "--m", "1"),
        ("quasimode", "--eta", "1", "--m", "1e300"),
        ("greens-eval", "--m", "1e300", "--z", "0.5j"),
    )
    for argv in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow notices
            code, out = run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
