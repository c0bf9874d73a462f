"""Spans around calls into the program's layers, for the traced run only.

A wrapper replaces a function at the name its caller looks it up under:
`bessel_k01_ray` inside `greens`, `fourier_pair_check` inside `cli`, the
suite functions inside `cli._SUITES`, and so on.  Each call records one
span [id, parent id, name, start, end, op id, count], where the count is
the number of radii of a Bessel ray and 0 elsewhere.  Spans stay in memory
and are written out when the run ends.  Untraced runs create no Tracer,
so they install no wrappers.
"""
from __future__ import annotations

import functools
import time

import numpy as np

SPAN_FIELDS = ("id", "parent", "name", "start", "end", "op", "count")

# (span name, statistics reported per op); every span name is a module of
# src/diracshell followed by the public function the span times
LAYER_METRICS = (
    ("numerics.bessel_k01_ray", ("us_per_radius", "radii", "calls", "s")),
    ("numerics.bessel_k", ("calls", "s")),
    ("greens.resolvent_apply", ("s", "self_s")),
    ("greens.fourier_pair_check", ("s", "self_s")),
    ("greens.green_kernel", ("calls", "s")),
    ("greens.pde_residual", ("s",)),
    ("greens.SampledField.sample", ("s",)),
    ("cli.main", ("self_s",)),
    ("cli.run_suite.symbol", ("s",)),
    ("cli.run_suite.oracle", ("s",)),
    ("cli.run_suite.critical", ("s",)),
    ("cli.run_suite.limits", ("s",)),
    ("cli.run_suite.greens", ("s",)),
    ("symbol.boundary_symbol", ("calls",)),
    ("symbol.boundary_symbol_inverse", ("calls",)),
    ("symbol.limit_sup_table", ("s",)),
    ("symbol.limit_im_table", ("s",)),
    ("fiber.fiber_eigenvalue", ("calls", "s")),
    ("fiber.matching_determinant", ("calls", "s")),
    ("spectrum.dispersion_energy", ("calls",)),
)
UNITS = {"calls": "count/op", "radii": "count/op", "s": "s/op", "self_s": "s/op", "us_per_radius": "us"}
# SampledField.sample runs in set-up, once per process, not per op
SETUP_SPANS = ("greens.SampledField.sample",)
OVERHEAD_METRICS = ("trace.traced_op_p50_ms", "trace.untraced_op_p50_ms", "trace.overhead_ms")


def metric_units() -> dict:
    """Name -> unit of every per-layer metric the traced run reports."""
    units = {}
    for span, stats in LAYER_METRICS:
        for stat in stats:
            units[f"{span}.{stat}"] = "s" if span in SETUP_SPANS else UNITS[stat]
    units.update(dict.fromkeys(OVERHEAD_METRICS, "ms"))
    return units


def _radii(a, r, *args, **kwargs) -> int:
    return int(np.size(r))


def _targets(cli, greens) -> list:
    """(span name, owner, attribute, count) for every wrapped call site."""
    names = [
        ("numerics.bessel_k01_ray", greens, "bessel_k01_ray", _radii),
        ("numerics.bessel_k", greens, "bessel_k", None),
        ("numerics.bessel_k", cli, "bessel_k", None),
        ("greens.green_kernel", greens, "green_kernel", None),
        ("greens.pde_residual", greens, "pde_residual", None),
        ("greens.pde_residual", cli, "pde_residual", None),
        ("greens.resolvent_apply", greens, "resolvent_apply", None),
        ("greens.fourier_pair_check", cli, "fourier_pair_check", None),
        ("greens.SampledField.sample", greens.SampledField, "sample", None),
        ("cli.main", cli, "main", None),
        ("symbol.boundary_symbol", cli, "boundary_symbol", None),
        ("symbol.boundary_symbol_inverse", cli, "boundary_symbol_inverse", None),
        ("symbol.limit_sup_table", cli, "limit_sup_table", None),
        ("symbol.limit_im_table", cli, "limit_im_table", None),
        ("fiber.fiber_eigenvalue", cli, "fiber_eigenvalue", None),
        ("fiber.matching_determinant", cli, "matching_determinant", None),
        ("spectrum.dispersion_energy", cli, "dispersion_energy", None),
    ]
    names += [(f"cli.run_suite.{key}", cli._SUITES, key, None) for key in cli._SUITES]
    return names


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else vars(owner)[attr]


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Span recorder with wrappers that can be put in and taken out."""

    def __init__(self, cli, greens):
        self.spans = []
        self.op = -1
        self._stack = []
        self._sites = []
        for name, owner, attr, count in _targets(cli, greens):
            orig = _get(owner, attr)
            if isinstance(orig, classmethod):
                wrapped = classmethod(self._wrap(name, orig.__func__, count))
            else:
                wrapped = self._wrap(name, orig, count)
            self._sites.append((owner, attr, orig, wrapped))
        self.installed = False

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, self.op,
                    count(*args, **kwargs) if count else 0]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapped in self._sites:
            _set(owner, attr, wrapped)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._sites:
            _set(owner, attr, orig)
        self.installed = False


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += s[4] - s[3]
    return [s[4] - s[3] - c for s, c in zip(spans, child)]


def layer_metrics(spans, traced_ops: int) -> dict:
    """Per-op layer metrics over the spans of traced ops (op id >= 0); the
    set-up spans are reported per process instead."""
    selfs = self_times(spans)
    sums = {}
    for s, own in zip(spans, selfs):
        setup = s[2] in SETUP_SPANS
        if s[5] < 0 and not setup:
            continue
        acc = sums.setdefault(s[2], [0, 0.0, 0.0, 0])
        acc[0] += 1
        acc[1] += s[4] - s[3]
        acc[2] += own
        acc[3] += s[6]
    out = {}
    for name, stats in LAYER_METRICS:
        calls, secs, own, count = sums.get(name, (0, 0.0, 0.0, 0))
        per = 1 if name in SETUP_SPANS else traced_ops
        values = {
            "calls": calls / per,
            "s": secs / per,
            "self_s": own / per,
            "radii": count / per,
            "us_per_radius": 1e6 * secs / count if count else 0.0,
        }
        for stat in stats:
            out[f"{name}.{stat}"] = values[stat]
    return out
