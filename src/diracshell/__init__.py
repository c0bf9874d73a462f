"""Spectral toolkit for the two-dimensional Dirac operator with an
electrostatic delta-shell interaction supported on a straight line.

The package computes the spectrum as a function of the shell strength,
locates the band edges and the dispersion curve of the in-gap band,
detects the flat band that appears at the two critical couplings, and
verifies everything through an independent one-dimensional fiber oracle
and the explicit Green kernel.
"""
from .numerics import Mat2C, bessel_k, branch_sqrt, pauli, tanh_sinh
from .symbol import (
    ShellParams,
    SymbolPoint,
    boundary_det,
    boundary_symbol,
    boundary_symbol_inverse,
    critical_momenta,
    dispersion_function,
    hybrid_grid,
    limit_im_table,
    limit_sup_table,
    reference_symbol,
    single_layer_symbol,
    weyl_symbol,
    SingularSymbolError,
)
from .spectrum import (
    SpectralComponent,
    SpectrumDescription,
    band_edge,
    classify_point,
    dispersion_momentum,
    dispersion_energy,
    full_spectrum,
    sign_condition,
    symmetry_partner,
)
from .fiber import (
    fiber_eigenvalue,
    kernel_at_zero_scan,
    matching_determinant,
    quasimode_residual,
)
from .greens import (
    SampledField,
    fourier_pair_check,
    green_kernel,
    pde_residual,
    resolvent_apply,
)

__version__ = "0.1.0"

__all__ = [
    "Mat2C",
    "bessel_k",
    "branch_sqrt",
    "pauli",
    "tanh_sinh",
    "ShellParams",
    "SymbolPoint",
    "SingularSymbolError",
    "single_layer_symbol",
    "reference_symbol",
    "weyl_symbol",
    "boundary_symbol",
    "boundary_det",
    "dispersion_function",
    "boundary_symbol_inverse",
    "critical_momenta",
    "hybrid_grid",
    "limit_sup_table",
    "limit_im_table",
    "SpectralComponent",
    "SpectrumDescription",
    "band_edge",
    "sign_condition",
    "dispersion_energy",
    "dispersion_momentum",
    "full_spectrum",
    "symmetry_partner",
    "classify_point",
    "matching_determinant",
    "fiber_eigenvalue",
    "kernel_at_zero_scan",
    "quasimode_residual",
    "green_kernel",
    "pde_residual",
    "fourier_pair_check",
    "SampledField",
    "resolvent_apply",
    "__version__",
]
