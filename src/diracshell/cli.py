"""Command-line surface: compute, export, verify.

All numerical work lives in the library modules; this module only parses
decimal parameter strings (exactly, so criticality detection never depends
on binary rounding), drives the computations, and serializes results.

Output conventions: JSON documents carry "schema": "dirac-shell/1" and
every float is printed with 17 significant digits, which round-trips the
binary value exactly, so identical configurations produce byte-identical
output.  CSV uses a plain "p,z" header and '.' decimals regardless of
locale.  Each subcommand returns its document (or its CSV text) and main
alone writes it, to stdout or --out.  Exit codes: 0 success, 1
verification failure, 2 usage or parse error or an unwritable --out, 3
domain error.
"""
from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys

import numpy as np

from . import tolerances
from .fiber import _ZERO_ENERGY_GRID, fiber_eigenvalue, kernel_at_zero_scan
from .fiber import matching_determinant, quasimode_residual
from .greens import fourier_pair_check, green_kernel, pde_residual
from .numerics import bessel_k
from .spectrum import band_edge, dispersion_energy, full_spectrum
from .symbol import (
    ShellParams,
    SingularSymbolError,
    _exact,
    boundary_det,
    boundary_symbol,
    boundary_symbol_inverse,
    default_anchor,
    dispersion_function,
    limit_im_table,
    limit_sup_table,
    reference_symbol,
    weyl_symbol,
)

SCHEMA = "dirac-shell/1"

# the tolerances the suites read as tols["..."]: the only keys --tol-override takes
VERIFY_TOLERANCES = (
    "DET_IDENTITY_RTOL", "INVERSE_ENTRY_TOL", "ZETA_INDEPENDENCE_TOL", "ORACLE_DISPERSION_TOL",
    "CRITICAL_KERNEL_TOL", "NONCRITICAL_KERNEL_FLOOR", "LIMIT_DECAY_RATIO", "LIMIT_IM_FLOOR",
    "LIMIT_IM_CAUCHY", "PDE_RESIDUAL_TOL", "RICHARDSON_RATIO_BOUNDS", "BESSEL_DERIV_TOL",
    "FOURIER_PAIR_TOL",
)


class UsageError(Exception):
    """Configuration problem: reported on stderr with exit code 2."""


# ----------------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------------

def _scalar(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if not math.isfinite(v):  # an overflow: a domain error, not a traceback
            raise ValueError(f"the result {v!r} is not a finite number")
        return format(v, ".17g")
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _write_json(v, out: list, indent: int) -> None:
    # json.dumps almost suffices, but its float formatting cannot be pinned
    # to 17 significant digits, and byte-stable output is part of the
    # contract; hence this small emitter.
    pad = "  " * indent
    if isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(v.items()):
            out.append("  " * (indent + 1) + json.dumps(key) + ": ")
            _write_json(val, out, indent + 1)
            out.append(",\n" if i < len(v) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(v, (list, tuple)):
        seq = list(v)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(seq):
            out.append("  " * (indent + 1))
            _write_json(val, out, indent + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        out.append(_scalar(v))


def _dumps(doc) -> str:
    out = []
    _write_json(doc, out, 0)
    out.append("\n")
    return "".join(out)


def _csv(rows) -> str:
    lines = ["p,z"]
    for p, z in rows:
        lines.append(f"{_scalar(p)},{_scalar(z)}")
    return "\n".join(lines) + "\n"


def _cx(v: complex):
    return [v.real, v.imag]


def _mat(mat):
    return {"a11": _cx(mat.a11), "a12": _cx(mat.a12), "a21": _cx(mat.a21), "a22": _cx(mat.a22)}


def _output(text: str, path) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------------
# config parsing
# ----------------------------------------------------------------------------

def _params(args) -> ShellParams:
    try:
        return ShellParams.from_decimal(args.eta, args.m)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise UsageError(f"cannot parse --eta/--m: {exc}") from exc


def _finite(kind):
    """argparse type for a finite float or complex value; nan, inf and
    overflowing input such as 1e400 are usage errors."""

    def parse(text: str):
        try:
            value = kind(text.replace(" ", ""))
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not cmath.isfinite(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
        return value

    return parse


def _exact_float(text: str) -> float:
    """argparse type for a real value parsed exactly, as --eta and --m are;
    nan, inf and overflowing input such as 1e400 are usage errors."""
    try:
        return float(_exact(text))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}") from None


def _grid(args) -> np.ndarray:
    if args.p_count < 2:
        raise UsageError(f"--p-count must be at least 2, got {args.p_count}")
    if not args.p_min < args.p_max:
        raise UsageError(f"need --p-min < --p-max, got [{args.p_min}, {args.p_max}]")
    if not math.isfinite(args.p_max - args.p_min):
        raise UsageError(f"the span of [{args.p_min}, {args.p_max}] overflows a float")
    try:
        return np.linspace(args.p_min, args.p_max, args.p_count)
    except MemoryError:
        raise UsageError(f"--p-count {args.p_count} is too many points to allocate") from None


def _tol_table(overrides) -> dict:
    table = {name: getattr(tolerances, name) for name in VERIFY_TOLERANCES}
    for item in overrides or []:
        key, sep, text = item.partition("=")
        if not sep or key not in table:
            known = ", ".join(sorted(table))
            raise UsageError(f"{key!r} is no tolerance a verify suite reads; accepted: {known}")
        if not isinstance(table[key], float):
            raise UsageError(f"{key} is not a scalar tolerance and cannot be overridden")
        try:
            table[key] = _exact_float(text)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"cannot parse override value in {item!r}: {exc}") from None
    return table


# ----------------------------------------------------------------------------
# verification suites
# ----------------------------------------------------------------------------

def _check(name: str, measured: float, threshold, comparison: str) -> dict:
    if comparison == "<=":
        ok = measured <= threshold
    elif comparison == ">=":
        ok = measured >= threshold
    elif comparison == "in":
        ok = threshold[0] <= measured <= threshold[1]
    else:
        raise ValueError(f"unknown comparison {comparison!r}")
    return {
        "name": name,
        "measured": float(measured),
        "threshold": list(threshold) if comparison == "in" else float(threshold),
        "comparison": comparison,
        "status": "pass" if ok else "fail",
    }


def _not_applicable(name: str, reason: str) -> dict:
    return {
        "name": name,
        "measured": None,
        "threshold": None,
        "comparison": None,
        "status": "not-applicable",
        "reason": reason,
    }


def suite_symbol(params: ShellParams, tols: dict) -> list:
    """Algebraic identities of the boundary symbol on random points."""
    names = ("det_closed_vs_direct", "inverse_product", "anchor_split", "anchor_independence")
    if params.eta == 0.0:
        return [_not_applicable(n, "eta = 0: boundary symbols undefined") for n in names]
    rng = np.random.default_rng(20230817)
    p = rng.uniform(-10.0, 10.0, 1000)
    z = rng.uniform(-3.0, 3.0, 1000) + 1j * (
        rng.choice([-1.0, 1.0], 1000) * rng.uniform(0.3, 2.5, 1000)
    )
    anchor_a = default_anchor(params)
    anchor_b = 0.7 - 1.3j
    theta = boundary_symbol(params, p, z)
    closed = boundary_det(params, p, z)
    prod = theta @ boundary_symbol_inverse(params, p, z)
    split_a = reference_symbol(params, anchor_a, p) - weyl_symbol(params, z, anchor_a, p)
    split_b = reference_symbol(params, anchor_b, p) - weyl_symbol(params, z, anchor_b, p)
    scale = np.maximum(1.0, theta.max_abs())
    worst = (
        (np.max(np.abs(theta.det() - closed) / np.abs(closed)), tols["DET_IDENTITY_RTOL"]),
        (np.max((prod - prod.identity()).max_abs()), tols["INVERSE_ENTRY_TOL"]),
        (np.max((split_a - theta).max_abs() / scale), tols["ZETA_INDEPENDENCE_TOL"]),
        (np.max((split_a - split_b).max_abs() / scale), tols["ZETA_INDEPENDENCE_TOL"]),
    )
    return [_check(n, w, tol, "<=") for n, (w, tol) in zip(names, worst)]


def suite_oracle(params: ShellParams, tols: dict) -> list:
    """Fiber bound state against the closed-form dispersion relation."""
    if not params.band_sign:
        return [_not_applicable("fiber_vs_dispersion", f"eta = {params.eta:g}: no in-gap band")]
    if params.m == 0.0:
        return [_not_applicable("fiber_vs_dispersion", "m = 0: empty fiber gap at p = 0")]
    worst = 0.0
    for p in np.linspace(0.0, 10.0, 41):
        try:
            root = fiber_eigenvalue(params, float(p))
            reason = None if root is not None else f"no fiber root found at p = {p:g}"
        except RuntimeError as exc:  # a fault of the oracle, not of the input
            reason = str(exc)
        if reason:  # a failed check without a measured value
            row = _check("fiber_vs_dispersion", math.nan, tols["ORACLE_DISPERSION_TOL"], "<=")
            return [{**row, "measured": None, "reason": reason}]
        worst = max(worst, abs(root - dispersion_energy(params, float(p))))
    return [_check("fiber_vs_dispersion", worst, tols["ORACLE_DISPERSION_TOL"], "<=")]


def suite_critical(params: ShellParams, tols: dict) -> list:
    """Flat-band dichotomy: the zero-energy matching determinant vanishes
    identically at critical coupling and stays uniformly away from zero
    otherwise."""
    if params.m == 0.0:
        return [_not_applicable("zero_energy_kernel", "m = 0: no gap around zero energy")]
    if params.critical:
        top = kernel_at_zero_scan(params)
        return [_check("critical_kernel_sup", top, tols["CRITICAL_KERNEL_TOL"], "<=")]
    if params.eta == 0.0:
        return [_not_applicable("detuned_kernel_floor", "eta = 0: free operator")]
    floor = float(np.min(np.abs(matching_determinant(params, _ZERO_ENERGY_GRID, 0.0))))
    return [_check("detuned_kernel_floor", floor, tols["NONCRITICAL_KERNEL_FLOOR"], ">=")]


def suite_limits(params: ShellParams, tols: dict) -> list:
    """Boundary-value diagnostics of the inverse symbol near the real axis."""
    names = ("sup_decay_ratio", "im_limit_floor", "im_limit_cauchy")
    if params.eta == 0.0:
        return [_not_applicable(n, "eta = 0: boundary symbols undefined") for n in names]
    if params.m == 0.0:
        return [_not_applicable(n, "m = 0: no gap edge to probe") for n in names]
    m = abs(params.m)
    ratio = 0.0
    for x in (m, -m, 1.5 * m, -1.5 * m):
        rows = limit_sup_table(params, x)
        ratio = max(ratio, rows[-1][1] / rows[0][1])
    floor = math.inf
    cauchy = 0.0
    for x in (2.0 * m, -2.0 * m):
        rows = limit_im_table(params, x)
        floor = min(floor, rows[-1][1])
        cauchy = max(cauchy, abs(rows[-1][1] - rows[-2][1]))
    return [
        _check("sup_decay_ratio", ratio, tols["LIMIT_DECAY_RATIO"], "<="),
        _check("im_limit_floor", floor, tols["LIMIT_IM_FLOOR"], ">="),
        _check("im_limit_cauchy", cauchy, tols["LIMIT_IM_CAUCHY"], "<="),
    ]


def suite_greens(params: ShellParams, tols: dict) -> list:
    """Kernel sanity: PDE residual with its convergence order, the K0
    Fourier pair, and the K1 = -K0' relation."""
    m = params.m
    z = 0.5j * max(1.0, abs(m))
    points = ((1.0, 0.0), (0.7, -0.7), (-0.5, 1.2))
    residuals = [pde_residual(m, z, x, 1e-3).max_abs() for x in points]
    residual = max(residuals)
    # the Richardson pair at (1, 0), whose h = 1e-3 value is residuals[0]
    coarse = pde_residual(m, z, (1.0, 0.0), 2e-3).max_abs()
    fine = residuals[0]
    deriv = 0.0
    step = 1e-4
    for x in (0.5, 1.0, 2.0, 5.0):
        slope = (bessel_k(0, x + step) - bessel_k(0, x - step)).real / (2.0 * step)
        k1 = bessel_k(1, x).real
        deriv = max(deriv, abs(k1 + slope) / abs(k1))
    pair = fourier_pair_check()
    return [
        _check("pde_residual", residual, tols["PDE_RESIDUAL_TOL"], "<="),
        _check("pde_richardson_ratio", coarse / fine, tols["RICHARDSON_RATIO_BOUNDS"], "in"),
        _check("bessel_derivative", deriv, tols["BESSEL_DERIV_TOL"], "<="),
        _check("fourier_pair", pair, tols["FOURIER_PAIR_TOL"], "<="),
    ]


_SUITES = {
    "symbol": suite_symbol,
    "oracle": suite_oracle,
    "critical": suite_critical,
    "limits": suite_limits,
    "greens": suite_greens,
}

VERIFY_SUITES = (*_SUITES, "all")


def run_suite(name: str, params: ShellParams, tols: dict) -> list:
    """The checks of one suite, or of every suite in _SUITES order for "all"."""
    keys = _SUITES if name == "all" else (name,)
    return [check for key in keys for check in _SUITES[key](params, tols)]


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def cmd_spectrum(args) -> dict:
    return full_spectrum(_params(args)).to_dict()


def cmd_band_edges(args) -> dict:
    params = _params(args)
    edge = band_edge(params)
    if params.m == 0.0:
        side = "full-line"
    elif params.band_sign:
        side = "negative" if params.band_sign < 0 else "positive"
    else:
        side = "flat-band" if params.critical else "free"
    return {
        "eta": params.eta,
        "m": params.m,
        "gap_edge": abs(params.m),
        "band_edge": edge,
        "side": side,
    }


def cmd_dispersion(args):
    params = _params(args)
    grid = _grid(args)
    rows = [(float(p), dispersion_energy(params, float(p))) for p in grid]
    if args.format == "csv":
        return _csv(rows)
    return {
        "eta": params.eta,
        "m": params.m,
        "rows": [{"p": p, "z": z} for p, z in rows],
    }


def cmd_symbol_eval(args) -> dict:
    params = _params(args)
    grid = _grid(args)
    z, zeta = args.z, args.zeta
    rows = []
    for p in grid:
        p = float(p)
        row = {
            "p": p,
            "theta": _mat(boundary_symbol(params, p, z)),
            "det": _cx(boundary_det(params, p, z)),
            "dispersion": _cx(dispersion_function(params, p, z)),
        }
        try:
            row["inv_max_abs"] = boundary_symbol_inverse(params, p, z).max_abs()
        except SingularSymbolError:
            row["inv_max_abs"] = None
        if zeta is not None:
            row["reference"] = _mat(reference_symbol(params, zeta, p))
            row["weyl"] = _mat(weyl_symbol(params, z, zeta, p))
        rows.append(row)
    return {
        "eta": params.eta,
        "m": params.m,
        "z": _cx(z),
        "zeta": _cx(zeta) if zeta is not None else None,
        "rows": rows,
    }


def cmd_greens_eval(args) -> dict:
    x = [args.x1, args.x2]
    kernel = green_kernel(args.m, args.z, x)
    return {"m": args.m, "z": _cx(args.z), "x": x, "kernel": _mat(kernel)}


def cmd_quasimode(args) -> dict:
    params = _params(args)
    residual = quasimode_residual(params, args.p0, args.width)
    return {
        "eta": params.eta,
        "m": params.m,
        "p0": args.p0,
        "width": args.width,
        "energy": dispersion_energy(params, args.p0),
        "residual": residual,
    }


def cmd_verify(args) -> dict:
    params = _params(args)
    checks = run_suite(args.suite, params, _tol_table(args.tol_override))
    return {
        "suite": args.suite,
        "eta": params.eta,
        "m": params.m,
        "checks": checks,
        "pass": all(row["status"] != "fail" for row in checks),
    }


# ----------------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------------

def _add_common(sub, *, grid=False, fmt=None) -> None:
    sub.add_argument("--eta", default="1", help="shell strength, decimal string")
    sub.add_argument("--m", default="1", help="mass, decimal string")
    if grid:
        sub.add_argument("--p-min", type=_finite(float), default=-10.0)
        sub.add_argument("--p-max", type=_finite(float), default=10.0)
        sub.add_argument("--p-count", type=int, default=201)
    if fmt:
        sub.add_argument("--format", choices=fmt, default=fmt[0])
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads '-4/3', '-1e-1' and '-0.5+0.1j' as values.

    The stock matcher takes only plain negative decimals for values, so
    "--eta -4/3" would fail with "expected one argument".  None of the
    options here starts with a digit, so nothing becomes ambiguous.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def _get_values(self, action, arg_strings):
        # "--eta=--" arrives as ["--"], which argparse would turn into []
        if action.option_strings and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dirac-shell",
        description="Spectrum of the 2D Dirac operator with an electrostatic "
        "delta-shell on a straight line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="spectral components for given coupling and mass")
    _add_common(sp, fmt=("json",))
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("band-edges", help="gap edge and in-gap band edge")
    _add_common(sp, fmt=("json",))
    sp.set_defaults(func=cmd_band_edges)

    sp = sub.add_parser("dispersion", help="in-gap band z(p) over a momentum grid")
    _add_common(sp, grid=True, fmt=("csv", "json"))
    sp.set_defaults(func=cmd_dispersion)

    sp = sub.add_parser("symbol-eval", help="boundary symbol along a momentum grid")
    _add_common(sp, grid=True, fmt=("json",))
    sp.add_argument("--z", type=_finite(complex), required=True,
                    help="spectral parameter, e.g. '0.3' or '0.5+0.1j'")
    sp.add_argument("--zeta", type=_finite(complex), default=None,
                    help="optional anchor for the reference/Weyl split")
    sp.set_defaults(func=cmd_symbol_eval)

    sp = sub.add_parser("greens-eval", help="free-resolvent kernel at one point")
    sp.add_argument("--m", type=_exact_float, default="1", help="mass, decimal string")
    sp.add_argument("--z", type=_finite(complex), required=True,
                    help="spectral parameter off the free spectrum")
    sp.add_argument("--x1", type=_finite(float), default=1.0)
    sp.add_argument("--x2", type=_finite(float), default=0.0)
    sp.add_argument("--format", choices=("json",), default="json")
    sp.add_argument("--out", default=None, help="output path (default: stdout)")
    sp.set_defaults(func=cmd_greens_eval)

    sp = sub.add_parser("quasimode", help="wave-packet residual certifying band energies")
    _add_common(sp, fmt=("json",))
    sp.add_argument("--p0", type=_finite(float), default=0.0, help="packet centre momentum")
    sp.add_argument("--width", type=_finite(float), default=0.25, help="envelope width")
    sp.set_defaults(func=cmd_quasimode)

    sp = sub.add_parser("verify", help="run a verification suite, exit 1 on failure")
    _add_common(sp, fmt=("json",))
    sp.add_argument("--suite", choices=VERIFY_SUITES, required=True)
    sp.add_argument(
        "--tol-override",
        action="append",
        metavar="KEY=VAL",
        help="override a named tolerance, repeatable",
    )
    sp.set_defaults(func=cmd_verify)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    """Run one subcommand and write what it returns: a document gets the
    schema and exits 1 when it says "pass": false; CSV text goes as is."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code) if exc.code else 0
    try:
        result = args.func(args)
        text = result if isinstance(result, str) else _dumps({"schema": SCHEMA, **result})
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    try:
        _output(text, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 1 if isinstance(result, dict) and result.get("pass") is False else 0


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
