"""Diffuse approximations of sharp pairs and their energy convergence."""

import math

import numpy as np
import pytest

import perimeter_phase as pp
from perimeter_phase.errors import (
    DomainError,
    ResolutionError,
    UnsupportedRegionError,
)


def test_half_line_recovery_energy_approaches_surface_tension():
    # u = 0 with positivity set (0, inf): sharp energy is exactly c0
    dom = pp.Domain.interval(-1.0, 1.0, 20000)
    pair = pp.SharpPair(
        pp.ScalarField(dom, np.zeros(dom.node_shape)),
        region=pp.IntervalUnion(((0.0, np.inf),)),
    )
    assert pp.sharp_energy(pair).total == pytest.approx(pp.c0(), rel=1e-14)
    for eps in (1e-1, 1e-2, 1e-3):
        state, report = pp.build_recovery(pair, eps)
        assert abs(report.energy.total - pp.c0()) / pp.c0() <= 1e-3
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
    assert sharp == pytest.approx(2.0 + pp.c0(), rel=1e-12)
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
    assert sharp == pytest.approx(pp.c0() * math.pi, rel=1e-14)
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
    assert abs(report.energy.total - 2.0 * pp.c0()) / (2.0 * pp.c0()) <= 1e-2


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
    reports = pp.recovery_curve(pair, [3e-2, 1e-2])
    assert len(reports) == 2
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


def test_recovery_curve_validation():
    dom = pp.Domain.interval(-1.0, 1.0, 256)
    pair = pp.SharpPair(
        pp.ScalarField(dom, np.zeros(dom.node_shape)),
        region=pp.IntervalUnion(((0.0, np.inf),)),
    )
    reports = pp.recovery_curve(pair, (1e-1, 1e-2))
    assert [r.epsilon for r in reports] == [1e-1, 1e-2]
    with pytest.raises(DomainError):
        pp.recovery_curve(pair, ())
    with pytest.raises(DomainError):
        pp.recovery_curve(pair, (1e-2, 1e-1))
    with pytest.raises(DomainError):
        pp.recovery_curve(pair, (1e-1, -1e-2))
