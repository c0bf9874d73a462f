"""Seeded inputs of the four benchmark workloads.

Everything here is plain numpy: the measured worker imports
it next to the program, and the checking parent imports it without the
program.  One *cycle* is the list of ops a run repeats whole, so that every
run attempts the same mix and the share of failed ops never depends on
where a run stops.
"""
from __future__ import annotations

import numpy as np

WORKLOADS = ("verify_sweep", "resolvent_real", "resolvent_complex", "kernel_points")

# Couplings and masses for verify_sweep, as exact decimal strings.  The list
# covers |eta| < 2, eta = +-2, |eta| > 2 and the -4/eta partner of each
# non-critical coupling, at masses 1 and 2, plus the eta = 0 and m = 0
# regimes whose rows are "not-applicable".  It does not depend on the seed:
# the ops at (3, 1) and (-4/3, 1) fail because of the sup_decay_ratio fault
# of the limits suite, and a run counts them as failed in every cycle.
VERIFY_CONFIGS = (
    ("1", "1"),
    ("-4", "1"),
    ("-1/2", "1"),
    ("8", "1"),
    ("3", "1"),
    ("-4/3", "1"),
    ("2", "1"),
    ("-2", "1"),
    ("1/2", "2"),
    ("-8", "2"),
    ("2", "2"),
    ("0", "1"),
    ("2", "0"),
)

MASS = 1.0
# Gaussian source of both resolvent workloads: exp(-|x|^2 / (2 SIGMA^2)) times
# the spinor (1, c2), sampled on GRID_COUNT^2 nodes over [-HALF_WIDTH, HALF_WIDTH]^2.
SIGMA = 0.15
HALF_WIDTH = 0.6
GRID_COUNT = 61
BLOCK_HALF = 3          # resolvent_real targets: (2 * 3 + 1)^2 = 49 nodes
CENTRE_SHIFT = 5        # target blocks are centred within +-5 nodes of the origin
REAL_CYCLE = 4          # resolvent_real: z strata per cycle
COMPLEX_RE_BINS = 4     # resolvent_complex: Re z strata ...
COMPLEX_IM_BINS = 2     # ... times |Im z| strata; targets: one plus stencil
KERNEL_RE_BINS = 8      # kernel_points: Re z strata ...
KERNEL_IM_BINS = 4      # ... times |Im z| strata ...
KERNEL_R_BINS = 2       # ... times |x| strata
# criterion 9's region of spectral parameters and kernel points
RE_Z = (-0.8, 0.8)
ABS_IM_Z = (0.2, 1.0)
RADIUS = (0.5, 3.0)
# the five nodes of a central-difference stencil, centre first
PLUS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))


def grid_axis() -> np.ndarray:
    return np.linspace(-HALF_WIDTH, HALF_WIDTH, GRID_COUNT)


def spacing() -> float:
    return 2.0 * HALF_WIDTH / (GRID_COUNT - 1)


def _strata(rng, lo, hi, bins) -> np.ndarray:
    """One uniform draw in each of `bins` equal slices of [lo, hi)."""
    return lo + (hi - lo) * (np.arange(bins) + rng.uniform(size=bins)) / bins


def _complex_z(rng, re_bins, im_bins) -> list:
    """Stratified z with Re z in RE_Z and |Im z| in ABS_IM_Z, random sign."""
    out = []
    for re in _strata(rng, *RE_Z, re_bins):
        for im in _strata(rng, *ABS_IM_Z, im_bins):
            out.append(complex(re, rng.choice((-1.0, 1.0)) * im))
    return out


def _centre(rng) -> tuple:
    return tuple(int(v) for v in rng.integers(-CENTRE_SHIFT, CENTRE_SHIFT + 1, size=2))


def _nodes(centre, offsets) -> np.ndarray:
    """Grid-node coordinates at integer offsets from the centre node."""
    axis = grid_axis()
    mid = GRID_COUNT // 2
    return np.array(
        [(axis[mid + centre[0] + di], axis[mid + centre[1] + dj]) for di, dj in offsets]
    )


def make_inputs(workload: str, seed: int) -> dict:
    """The seeded inputs of one run: {"cycle": [...], ...}.

    Each cycle entry is a dict of plain values describing one op.  A
    resolvent op's targets are grid nodes at integer `offsets` from a
    seeded centre node.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "verify_sweep":
        order = rng.permutation(len(VERIFY_CONFIGS))
        return {"cycle": [{"eta": VERIFY_CONFIGS[i][0], "m": VERIFY_CONFIGS[i][1]} for i in order]}
    if workload == "kernel_points":
        cycle = []
        for z in _complex_z(rng, KERNEL_RE_BINS, KERNEL_IM_BINS):
            for r in _strata(rng, *RADIUS, KERNEL_R_BINS):
                ang = rng.uniform(0.0, 2.0 * np.pi)
                cycle.append({"z": z, "x": (float(r * np.cos(ang)), float(r * np.sin(ang)))})
        return {"cycle": cycle}
    c2 = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    if workload == "resolvent_real":
        offsets = [(di, dj) for di in range(-BLOCK_HALF, BLOCK_HALF + 1)
                   for dj in range(-BLOCK_HALF, BLOCK_HALF + 1)]
        zs = [complex(0.0, rng.choice((-1.0, 1.0)) * im)
              for im in _strata(rng, *ABS_IM_Z, REAL_CYCLE)]
    elif workload == "resolvent_complex":
        offsets = list(PLUS)
        zs = _complex_z(rng, COMPLEX_RE_BINS, COMPLEX_IM_BINS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cycle = [{"z": z, "offsets": offsets, "targets": _nodes(_centre(rng), offsets)} for z in zs]
    return {"cycle": cycle, "c2": c2}
