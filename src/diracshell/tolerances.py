"""Numerical tolerances and thresholds, collected in one place.

Every guaranteed accuracy quoted in a docstring refers to one of the named
constants below, so a single edit retunes the whole package (the command
line exposes the names that its verify suites read through --tol-override).
"""

# ---- numerics core ---------------------------------------------------------

SQRT_REL_TOL = 1e-14
"""branch_sqrt: |r*r - w| <= SQRT_REL_TOL * |w|."""

BESSEL_REL_TOL = 1e-9
"""bessel_k: guaranteed relative accuracy on 1e-3 <= |w| <= BESSEL_MAX_ARG."""

BESSEL_TARGET_TOL = 5e-14
"""bessel_k: internal refinement target of the adaptive quadrature."""

BESSEL_MAX_ARG = 30.0
"""bessel_k: beyond this modulus underflow dominates; a warning is issued."""

# ---- symbols ----------------------------------------------------------------

DET_IDENTITY_RTOL = 1e-12
"""Closed-form boundary determinant vs direct 2x2 determinant, relative."""

INVERSE_ENTRY_TOL = 1e-12
"""boundary_symbol @ boundary_symbol_inverse vs identity, entrywise."""

ZETA_INDEPENDENCE_TOL = 1e-12
"""reference_symbol - weyl_symbol must not depend on the anchor point."""

SINGULAR_C_SCALE = 1e-13
"""|c| <= SINGULAR_C_SCALE * (1 + |z| + |p|) counts as a symbol singularity."""

# ---- fiber oracle -----------------------------------------------------------

FIBER_SCAN_NODES = 2000
"""Sign-scan resolution across the fiber gap."""

FIBER_GAP_MARGIN = 1e-3
"""Relative margin excluding the gap endpoints from the scan."""

FIBER_BISECT_TOL = 1e-12
"""Absolute bisection tolerance for fiber eigenvalues."""

ORACLE_DISPERSION_TOL = 1e-9
"""Fiber root vs closed-form dispersion relation, absolute."""

CRITICAL_KERNEL_TOL = 1e-9
"""max |matching determinant at z=0| for critical coupling."""

NONCRITICAL_KERNEL_FLOOR = 1e-3
"""min |matching determinant at z=0| for detuned coupling."""

# ---- Green kernel ------------------------------------------------------------

PDE_RESIDUAL_TOL = 1e-4
"""Finite-difference Dirac residual of the kernel at step h = 1e-3."""

RICHARDSON_RATIO_BOUNDS = (3.5, 4.5)
"""Residual ratio under step halving certifying second-order convergence."""

FOURIER_PAIR_TOL = 1e-6
"""Numerical transform of the radial kernel vs closed form, relative."""

BESSEL_DERIV_TOL = 1e-5
"""K1 vs -K0' by central differences, relative."""

RESOLVENT_ROUNDTRIP_TOL = 0.02
"""Apply-then-differentiate round trip, relative to the peak of the input."""

QUASIMODE_RESIDUAL_TOL = 0.05
"""Quasi-mode residual at the narrowest tabulated envelope width."""

# ---- limit diagnostics --------------------------------------------------------

LIMIT_DECAY_RATIO = 0.05
"""sup-norm diagnostic at y=1e-5 must drop below this fraction of y=1e-1."""

LIMIT_IM_FLOOR = 1e-3
"""The boundary-value imaginary part must exceed this on spectral intervals."""

LIMIT_IM_CAUCHY = 1e-6
"""Cauchy increment between the two smallest y in the imaginary-part table."""
