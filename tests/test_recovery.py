"""Diffuse approximations of sharp pairs and their energy convergence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perimeter_phase as pp
from perimeter_phase import potential
from perimeter_phase.errors import ResolutionError, UnsupportedRegionError


def test_half_line_recovery_energy_approaches_surface_tension():
    # u = 0 with positivity set (0, inf): sharp energy is exactly C0
    dom = pp.Domain.interval(-1.0, 1.0, 20000)
    pair = pp.SharpPair(
        pp.ScalarField(dom, np.zeros(dom.node_shape)),
        region=pp.IntervalUnion(((0.0, np.inf),)),
    )
    assert pp.sharp_energy(pair).total == pytest.approx(pp.C0, rel=1e-14)
    for eps in (1e-1, 1e-2, 1e-3):
        state, report = pp.build_recovery(pair, eps)
        assert abs(report.energy.total - pp.C0) / pp.C0 <= 1e-3
        # pure profile: no shift needed on either side
        assert report.delta_bar == 0.0
        assert report.delta_under == 0.0


def test_sloped_pair_recovery_frozen_totals():
    dom = pp.Domain.interval(-1.0, 1.0, 20000)
    pair = pp.SharpPair(
        pp.ScalarField(dom, dom.nodes_x.copy()),
        region=pp.IntervalUnion(((0.0, np.inf),)),
    )
    sharp = pp.sharp_energy(pair).total
    assert sharp == pytest.approx(2.0 + pp.C0, rel=1e-12)
    totals = []
    for eps in (1e-1, 1e-2, 1e-3):
        _, report = pp.build_recovery(pair, eps)
        totals.append(report.energy.total)
    assert totals[0] == pytest.approx(3.678667, abs=5e-6)
    assert totals[1] == pytest.approx(4.403458, abs=5e-6)
    assert totals[2] == pytest.approx(4.591298, abs=5e-6)
    # monotone approach from below
    assert totals[0] < totals[1] < totals[2] < sharp


def test_recovery_converges_to_indicator():
    dom = pp.Domain.interval(-1.0, 1.0, 20000)
    pair = pp.SharpPair(
        pp.ScalarField(dom, dom.nodes_x.copy()),
        region=pp.IntervalUnion(((0.0, np.inf),)),
    )
    gaps = []
    l2 = []
    for eps in (1e-1, 1e-2, 1e-3):
        _, report = pp.build_recovery(pair, eps)
        gaps.append(report.h_tilde_l1_gap)
        l2.append(report.l2_gap)
    assert gaps[0] > gaps[1] > gaps[2]
    assert l2[0] > l2[1] > l2[2]
    assert gaps[2] <= 5e-3
    assert l2[2] <= 5e-2


def test_disc_recovery_2d():
    dom = pp.Domain.box(-1.0, 1.0, 512)
    pair = pp.SharpPair(
        pp.ScalarField(dom, np.zeros(dom.node_shape)),
        region=pp.Disc((0.0, 0.0), 0.5),
    )
    sharp = pp.sharp_energy(pair).total
    assert sharp == pytest.approx(pp.C0 * math.pi, rel=1e-14)
    state, report = pp.build_recovery(pair, 1e-2)
    assert abs(report.energy.total - sharp) / sharp <= 5e-3
    # the state is saturated away from the layer
    root = math.sqrt(1e-2)
    center = state.values[256, 256]
    corner = state.values[0, 0]
    assert center == pytest.approx(root, abs=1e-6)
    assert corner == pytest.approx(-root, abs=1e-6)


def test_half_plane_recovery_2d():
    dom = pp.Domain.box(-1.0, 1.0, 512)
    pair = pp.SharpPair(
        pp.ScalarField(dom, np.zeros(dom.node_shape)),
        region=pp.HalfPlane((1.0, 0.0), 0.0),
    )
    _, report = pp.build_recovery(pair, 1e-2)
    assert abs(report.energy.total - 2.0 * pp.C0) / (2.0 * pp.C0) <= 1e-2


def test_recovery_dominates_field_shifts():
    # a pair whose field is nonzero near the interface forces shifts
    dom = pp.Domain.interval(-1.0, 1.0, 4096)
    x = dom.nodes_x
    vals = 0.5 * x
    pair = pp.SharpPair(
        pp.ScalarField(dom, vals), region=pp.IntervalUnion(((0.0, np.inf),))
    )
    eps = 1e-2
    state, report = pp.build_recovery(pair, eps)
    t = pp.transition_halfwidth(eps)
    # shifts are the node extrema of u over the closed transition bands
    # (delta_under keeps its sign); here the signed distance is x itself
    assert report.delta_bar == np.max(vals[(x >= 0.0) & (x <= t)])
    assert report.delta_under == np.min(vals[(x <= 0.0) & (x >= -t)])
    assert report.delta_bar == pytest.approx(0.5 * t, rel=2e-2)
    assert report.delta_under == pytest.approx(-0.5 * t, rel=2e-2)
    # the state is exactly the defining composition
    prof = pp.transition_profile(eps, x)
    pos = np.maximum(prof, np.maximum(vals - report.delta_bar, 0.0))
    neg = np.minimum(prof, np.minimum(vals - report.delta_under, 0.0))
    expected = np.where(x >= 0.0, pos, neg)
    assert np.array_equal(state.values, expected)


def test_full_space_region_needs_no_band():
    dom = pp.Domain.interval(-1.0, 1.0, 256)
    pair = pp.SharpPair(
        pp.ScalarField(dom, np.abs(dom.nodes_x)), region=pp.FullSpace()
    )
    state, report = pp.build_recovery(pair, 1e-2)
    assert report.delta_bar == 0.0
    assert report.delta_under == 0.0
    # far from the wells the field survives unchanged: max(sqrt(eps), |x|)
    expected = np.maximum(math.sqrt(1e-2), np.abs(dom.nodes_x))
    assert np.array_equal(state.values, expected)


def test_recovery_resolution_error():
    # interface band thinner than the grid: both signs present but the
    # closed band {0 <= s <= t} misses every node
    dom = pp.Domain.interval(-1.0, 1.0, 16)
    x = dom.nodes_x
    pair = pp.SharpPair(
        pp.ScalarField(dom, x - 0.03125),
        region=pp.IntervalUnion(((0.03125, np.inf),)),
        bound_m=2.0,
    )
    with pytest.raises(ResolutionError) as err:
        pp.build_recovery(pair, 1e-4)
    assert "refine" in str(err.value)


class CountingRegion(pp.Region):
    """A region that counts the evaluations of its signed distance."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def signed_distance(self, x, y=None):
        self.calls += 1
        return self.inner.signed_distance(x, y)


def test_recovery_evaluates_the_signed_distance_once_per_pair():
    dom = pp.Domain.ball(1.0, 128)
    region = CountingRegion(pp.Disc((0.1, 0.0), 0.4))
    pair = pp.SharpPair(pp.ScalarField(dom, np.zeros(dom.node_shape)), region=region)
    for eps in (3e-2, 1e-2):
        pp.build_recovery(pair, eps)
    assert region.calls == 1
    expected = region.inner.signed_distance(dom.nodes_x, dom.nodes_y)
    assert pair.node_sd.tobytes() == expected.tobytes()
    assert not pair.node_sd.flags.writeable


def test_recovery_mask_only_pair_rejected():
    dom = pp.Domain.interval(-1.0, 1.0, 256)
    x = dom.nodes_x
    pair = pp.SharpPair(pp.ScalarField(dom, x.copy()), mask=(x >= 0.0))
    with pytest.raises(UnsupportedRegionError):
        pp.build_recovery(pair, 1e-2)


def indicator_gap(state, pair):
    """The phase gap by its definition: the node-weight L1 distance from
    h_tilde(u / sqrt(eps)) to the set's +/-1 indicator."""
    phase = potential.h_tilde(state.values / math.sqrt(state.epsilon))
    diff = np.abs(phase - np.where(pair.node_mask(), 1.0, -1.0))
    return float(np.sum(state.domain.node_weights * diff))


_BALL = pp.Domain.ball(1.0, 64)
_BOX = pp.Domain.box(-1.0, 1.0, 32)
_LINE = pp.Domain.interval(-1.0, 1.0, 64)
GAP_CASES = [
    (_BALL, pp.Disc((0.1, 0.0), 0.5)),
    (pp.Domain.ball(0.75, 32, (0.2, -0.3)), pp.Disc((0.0, 0.0), 0.4)),
    (_BALL, pp.Disc((3.0, 0.0), 0.5)),  # misses the domain
    (_BALL, pp.HalfPlane((1.0, 0.0), 0.0)),  # through a grid line: s = 0 at nodes
    (_BOX, pp.HalfPlane((1.0, 2.0), 0.1)),
    (_BALL, pp.Complement(pp.HalfPlane((0.0, 1.0), 0.0))),  # s = -0.0 at nodes
    (_BALL, pp.Complement(pp.Disc((0.0, 0.2), 0.3))),
    (_BOX, pp.FullSpace()),
    (_BOX, pp.EmptySpace()),
    (_LINE, pp.IntervalUnion(((-0.5, 0.25), (0.5, math.inf)))),
    (_LINE, pp.Complement(pp.IntervalUnion(((-math.inf, 0.0),)))),
]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    case=st.integers(0, len(GAP_CASES) - 1),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.floats(0.0, 1.0),
    amplitude=st.sampled_from([0.0, 0.3, 1.0]),
    eps=st.sampled_from([0.2, 0.1, 0.05]),
)
def test_recovery_phase_gap_is_the_indicator_gap_bitwise(case, seed, zeros, amplitude, eps):
    domain, region = GAP_CASES[case]
    rng = np.random.default_rng(seed)
    inside = pp.rasterize(region, domain)
    size = rng.uniform(0.0, amplitude, domain.node_shape)
    size[rng.random(domain.node_shape) < zeros] = 0.0
    # A sign-consistent field whose zeros are +0.0 or -0.0 on either side.
    values = np.where(inside, size, -size)
    flip = (size == 0.0) & (rng.random(domain.node_shape) < 0.5)
    values[flip] = -values[flip]
    pair = pp.SharpPair(pp.ScalarField(domain, values), region=region)
    state, report = pp.build_recovery(pair, eps)
    assert not np.any(inside & (state.values < 0.0))
    assert not np.any(~inside & (state.values > 0.0))
    assert report.h_tilde_l1_gap.hex() == indicator_gap(state, pair).hex()
