"""Property test of the command line: any flag string given to any
subcommand is answered or rejected with a documented exit code (0 answer,
2 usage, 3 domain, and for verify 1 with a document that says it failed),
never with an exception that escapes `main`."""
import contextlib
import io
import json
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from diracshell import cli  # noqa: E402

NUMBER_TEXT = st.one_of(
    st.sampled_from(
        ("0", "-0", "1", "2", "-2", "4/3", "-4/3", "1/0", "0/0", "3/-7", "1e-30", "1e30",
         "1e300", "-1e300", "1e-300", "1e400", "nan", "inf", "-inf", "0.5+0.1j", "1j",
         "2.0000000000000001", "1e-400", "", " ", "abc", "--", "-", "0x10", "1_000")
    ),
    st.integers(min_value=-10**6, max_value=10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.fractions(max_denominator=10**6).map(str),
    st.complex_numbers(max_magnitude=1e6).map(lambda c: repr(c).strip("()")),
    st.text(alphabet="0123456789.-+eEj/ ", max_size=8),
)
# the work grows with --p-count, so counts stay small; other text stays malformed
COUNT_TEXT = st.one_of(
    st.integers(min_value=-3, max_value=300).map(str),
    NUMBER_TEXT.filter(lambda text: not text.strip().lstrip("+-").isdigit()),
)
TOL_TEXT = st.builds(
    lambda key, value: f"{key}={value}",
    st.sampled_from(cli.VERIFY_TOLERANCES + ("SQRT_REL_TOL", "", "x")),
    NUMBER_TEXT,
)

# value strategy of every flag a subcommand takes; --out is left out, so no
# example writes a file
COMMON = {"--eta": NUMBER_TEXT, "--m": NUMBER_TEXT, "--format": st.sampled_from(("json", "csv", "x"))}
GRID = {"--p-min": NUMBER_TEXT, "--p-max": NUMBER_TEXT, "--p-count": COUNT_TEXT}
FLAGS = {
    "spectrum": COMMON,
    "band-edges": COMMON,
    "dispersion": {**COMMON, **GRID},
    "symbol-eval": {**COMMON, **GRID, "--z": NUMBER_TEXT, "--zeta": NUMBER_TEXT},
    "greens-eval": {"--m": NUMBER_TEXT, "--z": NUMBER_TEXT, "--x1": NUMBER_TEXT,
                    "--x2": NUMBER_TEXT, "--format": st.sampled_from(("json", "csv"))},
    "quasimode": {**COMMON, "--p0": NUMBER_TEXT, "--width": NUMBER_TEXT},
    "verify": {**COMMON, "--suite": st.sampled_from(cli.VERIFY_SUITES + ("none",)),
               "--tol-override": TOL_TEXT},
}


# drawn first for every example, so most examples get past argparse
REQUIRED = {"symbol-eval": ["--z"], "greens-eval": ["--z"], "verify": ["--suite"]}


@st.composite
def argv_for(draw, command):
    flags = FLAGS[command]
    extra = draw(st.lists(st.sampled_from(sorted(flags)), max_size=len(flags) + 1))
    names = REQUIRED.get(command, []) + extra
    argv = [command]
    for name in names:
        value = draw(flags[name])
        # "--flag=value" keeps values such as "-" or "--" attached to their flag
        argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    return argv


def _exit_code(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        # a real run prints the Bessel range warning and numpy's overflow
        # warnings on stderr and goes on; the property is its exit code
        warnings.simplefilter("ignore", RuntimeWarning)
        code = cli.main(argv)
    if code == 1:
        assert argv[0] == "verify", argv
        assert json.loads(out.getvalue())["pass"] is False, argv
    return code


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_any_flags_exit_with_a_documented_code(command):
    # derandomized: every run draws the same examples, so tier-1 time is steady
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(argv=argv_for(command))
    def check(argv):
        assert _exit_code(argv) in (0, 1, 2, 3), argv

    check()
