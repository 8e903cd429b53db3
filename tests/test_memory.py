"""Transient memory of the 2D kernels, in units of one grid array.

numpy reports its data buffers to tracemalloc, so the peak of a call over
the memory traced when it starts is deterministic.  Each limit is the peak
measured on a ball at n = 256, rounded up to a tenth of a grid array; it
counts the result and every grid-sized temporary, so one more whole-grid
temporary in a kernel exceeds its limit by almost a whole unit.
"""

import math
import tracemalloc

import numpy as np
import pytest

import perimeter_phase as pp
from perimeter_phase import interpolation, potential

N = 256
EPS = 1e-2

# Measured: 2.0008, 3.2371, 3.2372, 3.4321, 4.9522, 3.3625.
LIMITS = {
    "h_tilde": 2.1,
    "tv_phase": 3.3,
    "modica_mortola_split": 3.3,
    "build_recovery": 3.5,
    "glue_two_stage": 5.0,
    "build_barrier": 3.4,
}


@pytest.fixture(scope="module")
def kernels():
    dom = pp.Domain.ball(1.0, N)
    zeros = np.zeros(dom.node_shape)
    pairs = [
        pp.SharpPair(pp.ScalarField(dom, zeros), region=pp.Disc(centre, 0.7))
        for centre in ((0.0, 0.0), (0.1, 0.0))
    ]
    u, v = (pp.build_recovery(pair, EPS)[0] for pair in pairs)
    spec = pp.AnnulusSpec(0.6, 0.2, 1.0)
    scaled = u.values / math.sqrt(EPS)
    # u and v cross, so the glue runs its two stages
    assert len(pp.glue(v, u, spec, budget=1e6)[1].stages) == 2
    calls = {
        "h_tilde": lambda: potential.h_tilde(scaled),
        "tv_phase": lambda: pp.tv_phase(u),
        "modica_mortola_split": lambda: pp.modica_mortola_split(u),
        "build_recovery": lambda: pp.build_recovery(pairs[0], EPS),
        "glue_two_stage": lambda: pp.glue(v, u, spec, budget=1e6),
        "build_barrier": lambda: interpolation.build_barrier(dom, 0.5, 1.0, EPS),
    }
    return calls, zeros.nbytes


def grid_peak(call, grid_bytes: float) -> float:
    """Peak traced memory of one call, in grid arrays, caches already warm."""
    call()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - start) / grid_bytes
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", list(LIMITS))
def test_kernel_transient_peak_stays_within_its_grid_count(kernels, name):
    calls, grid_bytes = kernels
    peak = grid_peak(calls[name], grid_bytes)
    assert peak <= LIMITS[name], f"{name} peaks at {peak:.4f} grid arrays"
