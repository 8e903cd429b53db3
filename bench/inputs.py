"""Workload inputs generated from the benchmark seed.

Seed 0 reproduces the acceptance fixtures exactly: disc centres (0, 0)
and (0.1, 0) (criterion 9) and CLI seed 0 for harmonic-check (criterion
8); the asymmetric sweep has b = 3 (criterion 7) for every seed.  Any
other seed moves the centres and the harmonic-check fields by amounts that
keep every correctness check with margin.  Only the standard library is
used here, so the parent process never imports numpy or the package under
test.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep1d", "construct2d", "harmonic2d")
DEFAULT_SEED = 0

# sweep1d: the acceptance fixture's schedule and tolerance.  The cap keeps
# one five-scale sweep near 2 s on a 2-core Xeon; the shipped descent hits
# it at every scale, which is why the quality numbers ride along.
SWEEP_N = 4096
SWEEP_EPSILONS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
SWEEP_TOL = 1e-4
SWEEP_MAX_ITERS = 2000

# construct2d: two recovered discs glued across an annulus, a barrier and
# a subregion energy, all on one 512-cell ball grid.
BALL_N = 512
DISC_RADIUS = 0.25
RECOVERY_EPSILONS = (3e-2, 1e-2)
GLUE = {"rho": 0.6, "delta": 0.2, "gamma": 0.1}
BARRIER_RADIUS = 0.5
ENERGY_REGION_RADIUS = 0.5

# harmonic2d: 100 fields give the 90th percentile of the per-field solve
# time ten samples beyond it.
HARMONIC_N = 64
HARMONIC_COUNT = 100
HARMONIC_CHECKED = 4


def make_inputs(workload: str, seed: int) -> dict:
    """Inputs of one workload; the same seed always gives the same dict."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "sweep1d":
        # b stays at 3 for every seed.  For about a quarter of other values
        # (b = 3.291, say) continuation_sweep's affine start lands one ulp
        # above b at the right end, so the exact boundary check fails.
        # That is a defect of the library, recorded in bench/README.md; b
        # can follow the seed once the sweep pins its endpoints exactly.
        return {
            "n": SWEEP_N,
            "epsilons": list(SWEEP_EPSILONS),
            "tol_grad": SWEEP_TOL,
            "max_iters": SWEEP_MAX_ITERS,
            "b": 3.0,
        }
    if workload == "construct2d":
        if seed == DEFAULT_SEED:
            centres = [[0.0, 0.0], [0.1, 0.0]]
        else:
            centres = [
                [round(cx + rng.uniform(-0.05, 0.05), 4), round(rng.uniform(-0.05, 0.05), 4)]
                for cx in (0.0, 0.1)
            ]
        return {
            "n": BALL_N,
            "disc_radius": DISC_RADIUS,
            "centres": centres,
            "epsilons": list(RECOVERY_EPSILONS),
            "glue": dict(GLUE),
            "barrier_radius": BARRIER_RADIUS,
            "energy_region_radius": ENERGY_REGION_RADIUS,
        }
    if workload == "harmonic2d":
        return {
            "n": HARMONIC_N,
            "count": HARMONIC_COUNT,
            "cli_seed": seed,
            "checked": sorted(rng.sample(range(HARMONIC_COUNT), HARMONIC_CHECKED)),
        }
    raise ValueError(f"unknown workload {workload!r}")
