"""Mutation register: faults that `verify --suite all` must catch.

Each entry plants one fault with monkeypatch and names the rows it fails.
At every configuration below, spanning |eta| < 2, |eta| > 2, a mass above 1
and both critical couplings, verify must exit 1 with exactly those rows
failed.  The register holds catches only: a fault that verify misses is no
entry here until a check catches it.
"""
import contextlib
import io
import json

import pytest

from diracshell import greens, symbol
from diracshell.cli import main
from diracshell.numerics import Mat2C

CONFIGS = (("1", "1"), ("3", "1"), ("-1/2", "2"), ("2", "1"), ("-2", "1"))


def _k1_sign_flipped(monkeypatch):
    terms = greens._kernel_terms

    def faulty(a, phase, k0, k1, weight, back=None):
        return terms(a, phase, k0, -k1, weight, back)

    monkeypatch.setattr(greens, "_kernel_terms", faulty)


def _phases_swapped(monkeypatch):
    # c1 conj(phase) above the diagonal and c1 phase below, the other way round
    terms = greens._kernel_terms

    def faulty(a, phase, k0, k1, weight, back=None):
        c0, upper, lower = terms(a, phase, k0, k1, weight, back)
        return c0, lower, upper

    monkeypatch.setattr(greens, "_kernel_terms", faulty)


def _diagonal_swapped(monkeypatch):
    # (z - m) / 2 kappa above, (z + m) / 2 kappa below
    single = symbol.single_layer_symbol

    def faulty(params, p, z):
        chat = single(params, p, z)
        return Mat2C(chat.a22, chat.a12, chat.a21, chat.a11)

    monkeypatch.setattr(symbol, "single_layer_symbol", faulty)


MUTATIONS = {
    "k1_sign_in_kernel_terms": (_k1_sign_flipped, {"pde_residual", "pde_richardson_ratio"}),
    "phase_swapped_in_kernel_terms": (_phases_swapped, {"pde_residual", "pde_richardson_ratio"}),
    "diagonal_swapped_in_single_layer_symbol": (_diagonal_swapped, {"inverse_product"}),
}


@pytest.mark.parametrize("config", CONFIGS, ids=",".join)
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_verify_catches_the_mutation(monkeypatch, mutation, config):
    plant, rows = MUTATIONS[mutation]
    plant(monkeypatch)
    eta, m = config
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--suite", "all", "--eta", eta, "--m", m])
    assert code == 1, err.getvalue()
    failed = {c["name"] for c in json.loads(out.getvalue())["checks"] if c["status"] == "fail"}
    assert failed == rows
