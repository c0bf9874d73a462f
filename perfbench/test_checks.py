"""Each check of the benchmark passes the program's real output and flags a
perturbed copy of it; the traced run's wrappers come out cleanly.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from diracshell import cli, greens  # noqa: E402

M = workloads.MASS
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def resolvent_case():
    """The program's resolvent on one plus stencil of the source, at real a."""
    c2 = 0.4 - 0.3j
    z = 0.5j
    two_s2 = 2.0 * workloads.SIGMA ** 2

    def src(u, v):
        g = np.exp(-(u * u + v * v) / two_s2)
        return (g, c2 * g)

    field = greens.SampledField.sample(src, workloads.HALF_WIDTH, workloads.GRID_COUNT)
    offsets = list(workloads.PLUS)
    targets = workloads._nodes((1, -2), offsets)
    u = greens.resolvent_apply(M, z, field, targets)
    return {"u": u, "z": z, "c2": c2, "offsets": offsets, "targets": targets}


def test_resolvent_reference_check_is_live(resolvent_case):
    ref = checks.fourier_resolvent(M, resolvent_case["z"], resolvent_case["c2"], resolvent_case["targets"])
    assert checks.check_resolvent(resolvent_case["u"], ref, 1.0) == []
    bad = resolvent_case["u"].copy()
    bad[2, 1] += 2e-3
    assert checks.check_resolvent(bad, ref, 1.0)


def test_round_trip_check_is_live(resolvent_case):
    case = resolvent_case
    f = checks.source(case["targets"], case["c2"])
    h = workloads.spacing()
    gap = checks.round_trip_gap(case["u"], case["offsets"], f, h, M, case["z"])
    assert checks.check_round_trip(gap, 1.0) == []
    bad = case["u"].copy()
    bad[1, 0] += 1e-3  # the +x1 neighbour: d/dx1 moves by 1e-3 / (2 h) = 0.025
    gap = checks.round_trip_gap(bad, case["offsets"], f, h, M, case["z"])
    assert checks.check_round_trip(gap, 1.0)


def test_kernel_check_is_live():
    z, x = 0.3 - 0.7j, (0.9, -1.4)
    kernel = greens.green_kernel(M, z, x).as_array()
    ref = checks.kernel_closed_form(M, z, x)
    assert checks.check_kernel(kernel, ref) == []
    bad = kernel.copy()
    bad[0, 1] *= 1.0 + 1e-8
    assert checks.check_kernel(bad, ref)


def test_residual_checks_are_live():
    z, x = -0.5 + 0.4j, (1.2, 0.3)
    coarse = greens.pde_residual(M, z, x, 2e-3).as_array()
    fine = greens.pde_residual(M, z, x, 1e-3).as_array()
    assert checks.check_residuals(coarse, fine) == []
    assert checks.check_residuals(coarse, fine * 1e4)       # residual above tolerance
    assert checks.check_residuals(2.0 * coarse, fine)       # not second order


def _verify_text(eta: str, m: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["verify", "--suite", "all", f"--eta={eta}", f"--m={m}"]) == 0
    return buf.getvalue()


def _perturbed(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


def test_verify_checks_are_live():
    text = _verify_text("2", "1")
    assert checks.check_verify(text, "2", "1") == []

    def fail_flag(doc):
        doc["pass"] = False

    def detuned_row(doc):
        row = next(r for r in doc["checks"] if r["name"] == "critical_kernel_sup")
        row["name"] = "detuned_kernel_floor"

    def missed_threshold(doc):
        row = next(r for r in doc["checks"] if r["name"] == "fourier_pair")
        row["measured"] = 2.0 * row["threshold"]

    def drop_row(doc):
        doc["checks"].pop()

    for edit in (fail_flag, detuned_row, missed_threshold, drop_row):
        assert checks.check_verify(_perturbed(text, edit), "2", "1"), edit.__name__
    # the same document does not describe a detuned coupling or another mass
    assert checks.check_verify(text, "19/10", "1")
    assert checks.check_verify(text, "2", "2")


def test_expected_rows_follow_the_regime():
    from fractions import Fraction as F

    def applicable(eta, m):
        return {name for name, ok in checks.expected_rows(F(eta), F(m)) if ok}

    assert "critical_kernel_sup" in applicable("-2", "1")
    assert "detuned_kernel_floor" in applicable("-4/3", "1")
    assert "fiber_vs_dispersion" not in applicable("2", "1")
    assert applicable("0", "1") == {"pde_residual", "pde_richardson_ratio", "bessel_derivative", "fourier_pair"}
    assert "zero_energy_kernel" not in applicable("2", "0")
    assert "sup_decay_ratio" not in applicable("1", "0")


def test_failed_verify_ops_are_counted():
    inputs = {"cycle": [{"eta": "3", "m": "1"}, {"eta": "2", "m": "1"}]}
    good = (0, _verify_text("2", "1"))
    report = {"outputs": [(1, "{}"), good, {"error": "ValueError()"}, good]}
    failed, problems = checks.check_run("verify_sweep", inputs, report)
    assert (failed, problems) == (2, [])


def test_tracer_restores_every_call_site():
    before = {(id(owner), attr): spans._get(owner, attr) for _, owner, attr, _ in spans._targets(cli, greens)}
    tracer = spans.Tracer(cli, greens)
    tracer.install()
    try:
        tracer.op = 0
        greens.pde_residual(M, 0.5j, (1.0, 0.0), 1e-3)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["spectrum"])
    finally:
        tracer.uninstall()
    after = {(id(owner), attr): spans._get(owner, attr) for _, owner, attr, _ in spans._targets(cli, greens)}
    assert before == after
    names = [s[2] for s in tracer.spans]
    assert names.count("greens.green_kernel") == 5
    assert names.count("numerics.bessel_k") == 10
    assert "cli.main" in names
    selfs = spans.self_times(tracer.spans)
    assert all(own >= 0.0 for own in selfs)
    metrics = spans.layer_metrics(tracer.spans, 1)
    assert metrics["greens.green_kernel.calls"] == 5


def test_metric_names_match_benchmark_json():
    units = spans.metric_units()
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(units.items())
    report = {"times": [0.1, 0.2, 0.3], "elapsed": 0.6, "peak_rss_mb": 50.0}
    e2e = run.end_to_end(report, [0.2, 0.3], 3, 1)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == [(k, v["unit"]) for k, v in e2e.items()]
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_repeat_for_a_seed():
    for name in workloads.WORKLOADS:
        a, b = workloads.make_inputs(name, 7), workloads.make_inputs(name, 7)
        assert repr(a) == repr(b)
        if name != "verify_sweep":
            assert repr(a) != repr(workloads.make_inputs(name, 8))
