"""Spectrum of the shell-coupled operator as a function of the coupling.

The free spectrum is (-inf, -|m|] u [|m|, inf).  Switching on the shell
pushes one band edge into the gap:

    |eta| < 2 or |eta| > 2 :  a band reaching |m| (eta^2-4)/(eta^2+4) in
                              modulus attaches to the negative side when
                              eta (eta^2 - 4) < 0 and to the positive side
                              otherwise; everything purely continuous;
    eta = +/-2              :  the in-gap band collapses to the flat band
                              {0}, an eigenvalue of infinite multiplicity;
    eta = 0                 :  free operator;
    m = 0                   :  the whole real line for every eta (no gap,
                              hence no transition).

Band edges are computed in exact rational arithmetic from the exact
parameter values carried by ShellParams, so the spectrum of eta and of its
partner coupling -4/eta serialize to identical bytes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .symbol import ShellParams

__all__ = [
    "SpectralComponent",
    "SpectrumDescription",
    "band_edge",
    "dispersion_energy",
    "dispersion_momentum",
    "full_spectrum",
    "symmetry_partner",
    "classify_point",
]


@dataclass(frozen=True)
class SpectralComponent:
    """One connected piece of the spectrum.

    kind: "ray-left" (-inf, endpoint], "ray-right" [endpoint, inf),
    "point" {endpoint}, or "full-line".  Rays and points are closed.
    multiplicity is None for continuous pieces and "infinite" for the
    flat band.
    """

    kind: str
    endpoint: float | None
    spectral_type: str  # "continuous" | "eigenvalue"
    multiplicity: str | None = None

    def contains(self, z: float) -> bool:
        if self.kind == "full-line":
            return True
        if self.kind == "ray-left":
            return z <= self.endpoint
        if self.kind == "ray-right":
            return z >= self.endpoint
        return z == self.endpoint

    def to_dict(self) -> dict:
        if self.kind == "full-line":
            out = {"kind": self.kind, "type": self.spectral_type}
        elif self.kind == "point":
            out = {"kind": self.kind, "value": self.endpoint, "type": self.spectral_type}
        else:
            out = {
                "kind": self.kind,
                "endpoint": self.endpoint,
                "closed": True,
                "type": self.spectral_type,
            }
        if self.multiplicity is not None:
            out["multiplicity"] = self.multiplicity
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SpectralComponent":
        kind = data["kind"]
        if kind == "point":
            endpoint = float(data["value"])
        elif kind == "full-line":
            endpoint = None
        else:
            endpoint = float(data["endpoint"])
        return cls(kind, endpoint, data["type"], data.get("multiplicity"))


@dataclass(frozen=True)
class SpectrumDescription:
    """Parameters plus the ordered tuple of disjoint spectral components."""

    params: ShellParams
    components: tuple

    def find(self, z: float):
        for comp in self.components:
            if comp.contains(z):
                return comp
        return None

    def to_dict(self) -> dict:
        return {
            "eta": self.params.eta,
            "m": self.params.m,
            "components": [c.to_dict() for c in self.components],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpectrumDescription":
        params = ShellParams(float(data["eta"]), float(data["m"]))
        return cls(
            params,
            tuple(SpectralComponent.from_dict(c) for c in data["components"]),
        )


def band_edge(params: ShellParams) -> float:
    """Modulus of the in-gap band edge, |m| |eta^2-4| / (eta^2+4).

    At eta = 0 this equals |m| (the free gap edge) and at the critical
    couplings it equals 0 (the flat band).  Exact up to the final rounding.
    """
    return float(abs(params.m_exact) * params.band_ratio)


def dispersion_energy(params: ShellParams, p: float) -> float:
    """Energy of the in-gap band at momentum p,

        z(p) = sign(eta (eta^2-4)) * |eta^2-4|/(eta^2+4) * sqrt(p^2 + m^2).

    Solves branch_sqrt(p^2 + m^2 - z^2) = 4 z eta/(eta^2 - 4) with both
    sides positive.  Undefined for eta in {0, +2, -2}.  The root is formed
    at a power-of-two scale, so p^2 + m^2 never over- or underflows; a
    non-finite p, or an energy beyond the float range, is a ValueError.
    """
    sign = params.require_band()
    if not math.isfinite(p):
        raise ValueError(f"finite p required, got p={p!r}")
    # sqrt(p^2 + m^2) is homogeneous of degree 1 in (p, m): a power of two
    # brings the larger of |p|, |m| near 1, and is exact wherever the plain
    # sum is a normal float
    e = math.frexp(max(abs(p), abs(params.m)))[1]
    ps, ms = math.ldexp(p, -e), math.ldexp(params.m, -e)
    try:
        return math.ldexp(sign * float(params.band_ratio) * math.sqrt(ps * ps + ms * ms), e)
    except OverflowError:
        raise ValueError(f"the band energy at p={p!r} lies beyond the float range") from None


def dispersion_momentum(params: ShellParams, z: float):
    """Ordered momentum pair solving the dispersion relation at energy z,

        p = +/- sqrt((eta^2+4)^2/(eta^2-4)^2 z^2 - m^2),

    or None below the band edge (ShellParams.band_momenta).  The sign
    condition z eta/(eta^2-4) > 0 must hold: energies on the wrong side of
    the gap never solve the unsquared relation, so they are rejected rather
    than silently mapped to the mirror band, and so is every z for eta in
    {0, +2, -2}.
    """
    z = float(z)
    pair = params.band_momenta(z)  # first, as it refuses a non-finite z
    if z * params.require_band() <= 0.0:
        raise ValueError(f"sign condition fails at z = {z!r}: no band on this side of the gap")
    return pair


def full_spectrum(params: ShellParams) -> SpectrumDescription:
    """Assemble the spectrum for the given coupling and mass."""
    m_edge = abs(params.m)
    if m_edge == 0.0:
        parts = (SpectralComponent("full-line", None, "continuous"),)
    elif params.critical:
        parts = (
            SpectralComponent("ray-left", -m_edge, "continuous"),
            SpectralComponent("point", 0.0, "eigenvalue", "infinite"),
            SpectralComponent("ray-right", m_edge, "continuous"),
        )
    else:
        side = params.band_sign  # 0 only at eta = 0, where the edge is m_edge
        edge = band_edge(params)
        parts = (
            SpectralComponent("ray-left", -edge if side < 0 else -m_edge, "continuous"),
            SpectralComponent("ray-right", edge if side > 0 else m_edge, "continuous"),
        )
    return SpectrumDescription(params, parts)


def symmetry_partner(params: ShellParams) -> ShellParams:
    """Parameters with coupling -4/eta, which share the spectrum of eta.

    The partner coupling is formed in exact rational arithmetic, so applying
    the map twice returns the original coupling exactly and both partners
    produce bit-identical band edges.
    """
    if params.eta == 0.0:
        raise ValueError("eta = 0 has no partner coupling")
    partner = Fraction(-4) / params.eta_exact
    return ShellParams(partner, params.m_exact)


def classify_point(params: ShellParams, z: complex) -> str:
    """Classify z as "continuous", "eigenvalue-infinite" (the flat band) or
    "resolvent".  Ray endpoints count as spectrum (the rays are closed)."""
    z = complex(z)
    if z.imag != 0.0:
        return "resolvent"
    comp = full_spectrum(params).find(z.real)
    if comp is None:
        return "resolvent"
    if comp.spectral_type == "eigenvalue":
        return "eigenvalue-infinite"
    return "continuous"
