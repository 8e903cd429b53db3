"""Transient memory of the 2D kernels, in units of one grid array.

numpy reports its data buffers to tracemalloc, so the peak of a call over
the memory traced when it starts is deterministic.  Each limit is the peak
measured on a ball at n = 256, rounded up to a tenth of a grid array; it
counts the result and every grid-sized temporary, so one more whole-grid
temporary in a kernel exceeds its limit by almost a whole unit.  Two
entries are not on a ball: harmonic_replacement_box and positive_field
run on the box at n = 256, whose node grid is the same size.
"""

import math
import tracemalloc

import numpy as np
import pytest

import perimeter_phase as pp
from perimeter_phase import cli, fieldio, geometry, interpolation, potential

N = 256
EPS = 1e-2

# Measured: 2.0008, 1.9960, 1.9960, 2.6895, 3.7904, 3.6205, 3.2539, 1.2520,
# 1.2520, 1.9861, 2.0078, 4.7807, 0.0222, 1.4183, 1.4931, 2.4861, 1.4931,
# 1.2471.  A full-grid sum holds its array of summands and row blocks of
# 2^14 entries (a quarter of a grid array at n = 256, a sixteenth at
# n = 512); a subdomain energy also holds its cell fractions.  A two-stage
# glue peaks in its scans, a saturated glue, which scans no cell, in the
# energies of its two parts, about 0.2 grid arrays lower.  A disc's
# distances are one grid array plus numpy's fixed-size ufunc buffers (a
# quarter of a grid array at n = 256); recovery holds the input field, its
# node distances and one scale's build; save_binary writes a little-endian
# float64 field without a copy; marching squares holds its result, one byte
# per cell for the case codes and the cut flags, and arrays over the cut
# cells only.  The last three entries measured 6.3211, 13.2302 and 2.1586.
# A box's Laplace solve holds the field, its stencil, one padded buffer of
# two grid arrays and one spectrum of two at a time; a ball's CG adds its
# vectors.  A positive field is its two upsampled gathers, then the copy
# that ScalarField stores.
LIMITS = {
    "h_tilde": 2.1,
    "tv_phase": 2.0,
    "modica_mortola_split": 2.0,
    "build_recovery": 2.7,
    "glue_two_stage": 3.8,
    "glue_saturated": 3.7,
    "build_barrier": 3.3,
    "disc_signed_distance": 1.3,
    "rasterize_disc": 1.3,
    "region_cell_fraction_disc": 2.0,
    "annulus_stencil": 2.1,
    "run_recovery_three_scales": 4.8,
    "save_binary": 0.1,
    "interface_length_mask": 1.5,
    "e_eps": 1.5,
    "e_eps_subdomain": 2.5,
    "sharp_energy": 1.5,
    "l2_gap": 1.3,
    "harmonic_replacement_box": 6.4,
    "harmonic_replacement_ball": 13.3,
    "positive_field": 2.2,
}


@pytest.fixture(scope="module")
def kernels(tmp_path_factory):
    dom = pp.Domain.ball(1.0, N)
    zeros = np.zeros(dom.node_shape)
    pairs = [
        pp.SharpPair(pp.ScalarField(dom, zeros), region=pp.Disc(centre, 0.7))
        for centre in ((0.0, 0.0), (0.1, 0.0))
    ]
    u, v = (pp.build_recovery(pair, EPS)[0] for pair in pairs)
    # the construct2d benchmark's discs, saturated across the annulus
    sat_u, sat_v = (
        pp.build_recovery(pp.SharpPair(pp.ScalarField(dom, zeros), region=pp.Disc(c, 0.25)), EPS)[0]
        for c in ((0.0, 0.0), (0.1, 0.0))
    )
    spec = pp.AnnulusSpec(0.6, 0.2, 1.0)
    scaled = u.values / math.sqrt(EPS)
    disc = pp.Disc((0.1, 0.0), 0.7)
    inner_disc = pp.Disc((0.0, 0.0), 0.5)
    mask = pp.rasterize(disc, dom)
    box = pp.Domain.box(-1.0, 1.0, N)
    knots = np.random.default_rng(3).standard_normal((9, 9))
    positive = cli._positive_field(box, knots, 0.1)
    radial = interpolation._radial_nodes(dom)
    out = str(tmp_path_factory.mktemp("recovery"))
    dump = str(tmp_path_factory.mktemp("dump") / "u.f64")

    def recovery_cfg():
        return cli.parse_config("recovery", {
            "builtin": "zero",
            "domain": {"kind": "ball", "radius": 1.0, "n": N},
            "region": {"type": "disc", "center": [0.1, 0.0], "radius": 0.7},
            "epsilons": [3e-2, 2e-2, EPS],
            "dump_fields": True,
        })

    # u and v cross, so the glue runs its two stages
    assert len(pp.glue(v, u, spec, budget=1e6)[1].stages) == 2
    calls = {
        "h_tilde": lambda: potential.h_tilde(scaled),
        "tv_phase": lambda: pp.tv_phase(u),
        "modica_mortola_split": lambda: pp.modica_mortola_split(u),
        "build_recovery": lambda: pp.build_recovery(pairs[0], EPS),
        "glue_two_stage": lambda: pp.glue(v, u, spec, budget=1e6),
        "glue_saturated": lambda: pp.glue(sat_v, sat_u, spec, budget=1e6),
        "build_barrier": lambda: interpolation.build_barrier(dom, 0.5, 1.0, EPS),
        "disc_signed_distance": lambda: disc.signed_distance(dom.nodes_x, dom.nodes_y),
        "rasterize_disc": lambda: pp.rasterize(disc, dom),
        "region_cell_fraction_disc": lambda: geometry.region_cell_fraction(disc, dom),
        "annulus_stencil": lambda: interpolation._annulus_stencil(dom, radial, spec),
        "run_recovery_three_scales": lambda: cli._run_recovery(recovery_cfg(), out),
        "save_binary": lambda: fieldio.save_binary(u.field, dump),
        "interface_length_mask": lambda: pp.interface_length(mask, dom),
        "e_eps": lambda: pp.e_eps(u),
        "e_eps_subdomain": lambda: pp.e_eps(u, subdomain=inner_disc),
        "sharp_energy": lambda: pp.sharp_energy(pairs[0]),
        "l2_gap": lambda: pp.l2_gap(u.values, v.values, dom),
        "harmonic_replacement_box": lambda: pp.harmonic_replacement(positive),
        "harmonic_replacement_ball": lambda: pp.harmonic_replacement(u.field),
        "positive_field": lambda: cli._positive_field(box, knots, 0.1),
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


def test_harmonic_check_peak_does_not_grow_with_count(tmp_path, monkeypatch):
    """The fields are built on the pool's workers and dropped one by one.

    One worker, so the peak does not depend on how the solves of several
    workers happen to overlap in time (with 4 workers on 2 cores it
    varied by 8 grid arrays from run to run).
    """
    monkeypatch.setattr(cli, "_workers", lambda: 1)
    grid_bytes = (N + 1) ** 2 * np.dtype(float).itemsize

    def peak(count):
        cfg = cli.parse_config("harmonic-check", {"count": count, "n": N})
        return grid_peak(lambda: cli._run_harmonic_check(cfg, str(tmp_path)), grid_bytes)

    few, many = peak(4), peak(16)
    assert abs(many - few) < 0.5, f"count 4 peaks at {few:.4f}, count 16 at {many:.4f} grid arrays"
