"""Command-line surface: compute, export, verify.

All numerical work lives in the library modules; this module only parses
decimal parameter strings (exactly, so criticality detection never depends
on binary rounding), drives the computations, and serializes results.

Output conventions: JSON documents carry "schema": "dirac-shell/1" and
every float is printed with 17 significant digits, which round-trips the
binary value exactly, so identical configurations produce byte-identical
output.  CSV uses a plain "p,z" header and '.' decimals regardless of
locale.  Exit codes: 0 success, 1 verification failure, 2 usage or parse
error, 3 domain error.
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
from .fiber import kernel_at_zero_scan, fiber_eigenvalue, matching_determinant, quasimode_residual
from .greens import fourier_pair_check, green_kernel, pde_residual
from .numerics import bessel_k
from .spectrum import band_edge, dispersion_energy, full_spectrum
from .symbol import (
    ShellParams,
    SingularSymbolError,
    SymbolPoint,
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

VERIFY_SUITES = ("symbol", "oracle", "critical", "limits", "greens", "all")

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
        if not math.isfinite(v):
            raise TypeError(f"non-finite float {v!r} has no JSON form")
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
        lines.append(f"{p:.17g},{z:.17g}")
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


def _grid(args) -> np.ndarray:
    if args.p_count < 2:
        raise UsageError(f"--p-count must be at least 2, got {args.p_count}")
    if not args.p_min < args.p_max:
        raise UsageError(f"need --p-min < --p-max, got [{args.p_min}, {args.p_max}]")
    return np.linspace(args.p_min, args.p_max, args.p_count)


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
            table[key] = float(text)
        except ValueError as exc:
            raise UsageError(f"cannot parse override value in {item!r}") from exc
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


def suite_symbol(params: ShellParams, tols: dict, samples: int = 1000) -> list:
    """Algebraic identities of the boundary symbol on random points."""
    names = ("det_closed_vs_direct", "inverse_product", "anchor_split", "anchor_independence")
    if params.eta == 0.0:
        return [_not_applicable(n, "eta = 0: boundary symbols undefined") for n in names]
    rng = np.random.default_rng(20230817)
    p = rng.uniform(-10.0, 10.0, samples)
    z = rng.uniform(-3.0, 3.0, samples) + 1j * (
        rng.choice([-1.0, 1.0], samples) * rng.uniform(0.3, 2.5, samples)
    )
    anchor_a = default_anchor(params)
    anchor_b = 0.7 - 1.3j
    pt = SymbolPoint.create(p, z, params.m)
    theta = boundary_symbol(params, pt)
    closed = boundary_det(params, pt)
    prod = theta @ boundary_symbol_inverse(params, pt)
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
        root = fiber_eigenvalue(params, float(p))
        if root is None:  # a failed check without a measured value
            row = _check("fiber_vs_dispersion", math.nan, tols["ORACLE_DISPERSION_TOL"], "<=")
            return [{**row, "measured": None, "reason": f"no fiber root found at p = {p:g}"}]
        worst = max(worst, abs(root - dispersion_energy(params, float(p))))
    return [_check("fiber_vs_dispersion", worst, tols["ORACLE_DISPERSION_TOL"], "<=")]


def suite_critical(params: ShellParams, tols: dict) -> list:
    """Flat-band dichotomy: the zero-energy matching determinant vanishes
    identically at critical coupling and stays uniformly away from zero
    otherwise."""
    if params.m == 0.0:
        return [_not_applicable("zero_energy_kernel", "m = 0: no gap around zero energy")]
    grid = np.linspace(-50.0, 50.0, 2001)
    if params.critical:
        top = kernel_at_zero_scan(params, grid)
        return [_check("critical_kernel_sup", top, tols["CRITICAL_KERNEL_TOL"], "<=")]
    if params.eta == 0.0:
        return [_not_applicable("detuned_kernel_floor", "eta = 0: free operator")]
    floor = float(np.min(np.abs(matching_determinant(params, grid, 0.0))))
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
        half = 0.5 * math.sqrt(x * x - m * m)
        rows = limit_im_table(params, x, (-half, half))
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
    residual = 0.0
    for x in ((1.0, 0.0), (0.7, -0.7), (-0.5, 1.2)):
        residual = max(residual, pde_residual(m, z, x, 1e-3).max_abs())
    coarse = pde_residual(m, z, (1.0, 0.0), 2e-3).max_abs()
    fine = pde_residual(m, z, (1.0, 0.0), 1e-3).max_abs()
    deriv = 0.0
    step = 1e-4
    for x in (0.5, 1.0, 2.0, 5.0):
        slope = (bessel_k(0, x + step) - bessel_k(0, x - step)).real / (2.0 * step)
        k1 = bessel_k(1, x).real
        deriv = max(deriv, abs(k1 + slope) / abs(k1))
    pair = max(fourier_pair_check(kappa) for kappa in (0.5, 1.0, 2.0))
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


def run_suite(name: str, params: ShellParams, tols: dict) -> list:
    if name == "all":
        checks = []
        for key in ("symbol", "oracle", "critical", "limits", "greens"):
            checks.extend(_SUITES[key](params, tols))
        return checks
    return _SUITES[name](params, tols)


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    params = _params(args)
    doc = {"schema": SCHEMA, **full_spectrum(params).to_dict()}
    _output(_dumps(doc), args.out)
    return 0


def cmd_band_edges(args) -> int:
    params = _params(args)
    edge = band_edge(params)
    if params.m == 0.0:
        side = "full-line"
    elif params.band_sign:
        side = "negative" if params.band_sign < 0 else "positive"
    else:
        side = "flat-band" if params.critical else "free"
    doc = {
        "schema": SCHEMA,
        "eta": params.eta,
        "m": params.m,
        "gap_edge": abs(params.m),
        "band_edge": edge,
        "side": side,
    }
    _output(_dumps(doc), args.out)
    return 0


def cmd_dispersion(args) -> int:
    params = _params(args)
    grid = _grid(args)
    rows = [(float(p), dispersion_energy(params, float(p))) for p in grid]
    if args.format == "csv":
        _output(_csv(rows), args.out)
    else:
        doc = {
            "schema": SCHEMA,
            "eta": params.eta,
            "m": params.m,
            "rows": [{"p": p, "z": z} for p, z in rows],
        }
        _output(_dumps(doc), args.out)
    return 0


def cmd_symbol_eval(args) -> int:
    params = _params(args)
    grid = _grid(args)
    z, zeta = args.z, args.zeta
    rows = []
    for p in grid:
        p = float(p)
        pt = SymbolPoint.create(p, z, params.m)
        row = {
            "p": p,
            "theta": _mat(boundary_symbol(params, pt)),
            "det": _cx(boundary_det(params, pt)),
            "dispersion": _cx(dispersion_function(params, pt)),
        }
        try:
            row["inv_max_abs"] = boundary_symbol_inverse(params, pt).max_abs()
        except SingularSymbolError:
            row["inv_max_abs"] = None
        if zeta is not None:
            row["reference"] = _mat(reference_symbol(params, zeta, p))
            row["weyl"] = _mat(weyl_symbol(params, z, zeta, p))
        rows.append(row)
    doc = {
        "schema": SCHEMA,
        "eta": params.eta,
        "m": params.m,
        "z": _cx(z),
        "zeta": _cx(zeta) if zeta is not None else None,
        "rows": rows,
    }
    _output(_dumps(doc), args.out)
    return 0


def cmd_greens_eval(args) -> int:
    m, z = args.m, args.z
    x = (args.x1, args.x2)
    kernel = green_kernel(m, z, x)
    doc = {
        "schema": SCHEMA,
        "m": m,
        "z": _cx(z),
        "x": [x[0], x[1]],
        "kernel": _mat(kernel),
    }
    _output(_dumps(doc), args.out)
    return 0


def cmd_quasimode(args) -> int:
    params = _params(args)
    residual = quasimode_residual(params, args.p0, args.width)
    doc = {
        "schema": SCHEMA,
        "eta": params.eta,
        "m": params.m,
        "p0": args.p0,
        "width": args.width,
        "energy": dispersion_energy(params, args.p0),
        "residual": residual,
    }
    _output(_dumps(doc), args.out)
    return 0


def cmd_verify(args) -> int:
    params = _params(args)
    tols = _tol_table(args.tol_override)
    checks = run_suite(args.suite, params, tols)
    ok = all(row["status"] != "fail" for row in checks)
    doc = {
        "schema": SCHEMA,
        "suite": args.suite,
        "eta": params.eta,
        "m": params.m,
        "checks": checks,
        "pass": ok,
    }
    _output(_dumps(doc), args.out)
    return 0 if ok else 1


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
    sp.add_argument("--m", type=_finite(float), default="1", help="mass")
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
