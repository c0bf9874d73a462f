"""Spectral toolkit for the two-dimensional Dirac operator with an
electrostatic delta-shell interaction supported on a straight line.

The package computes the spectrum as a function of the shell strength,
locates the band edges and the dispersion curve of the in-gap band,
detects the flat band that appears at the two critical couplings, and
verifies everything through an independent one-dimensional fiber oracle
and the explicit Green kernel.
"""
from . import fiber, greens, numerics, spectrum, symbol
from .numerics import *  # noqa: F401,F403
from .symbol import *  # noqa: F401,F403
from .spectrum import *  # noqa: F401,F403
from .fiber import *  # noqa: F401,F403
from .greens import *  # noqa: F401,F403

__version__ = "0.1.0"

# the package exports the public names of its modules, listed once there
__all__ = [
    *numerics.__all__, *symbol.__all__, *spectrum.__all__, *fiber.__all__, *greens.__all__,
    "__version__",
]
