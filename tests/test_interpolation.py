"""Annulus gluing and the radial barrier competitor."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perimeter_phase as pp
from perimeter_phase import interpolation
from perimeter_phase.errors import BudgetExceededError, DomainError


def radial(domain):
    if domain.dim == 1:
        return np.abs(domain.nodes_x)
    return np.hypot(domain.nodes_x, domain.nodes_y)


def test_annulus_spec_derived_quantities():
    spec = pp.AnnulusSpec(0.6, 0.2)
    assert interpolation._ramp_profile(1e-2, 2.0, spec.delta).theta == pytest.approx(
        16.0 * 2.0 / 0.2, rel=1e-14
    )
    assert spec.outer_radius == pytest.approx(0.8, rel=1e-14)
    with pytest.raises(DomainError):
        pp.AnnulusSpec(-0.1, 0.2)
    with pytest.raises(DomainError):
        pp.AnnulusSpec(0.6, 0.0)


def test_glue_identical_states_is_idempotent():
    dom = pp.Domain.ball(1.0, 128)
    eps = 1e-2
    vals = pp.transition_profile(eps, 0.4 - radial(dom))
    state = pp.PhaseState(pp.ScalarField(dom, vals), eps, 1.0)
    out, report = pp.glue(state, state, pp.AnnulusSpec(0.6, 0.2), budget=0.1)
    assert np.array_equal(out.values, state.values)
    assert report.excess <= 1e-12
    assert report.l2_gap_outside == 0.0


def test_glue_exact_zones_and_ordering():
    # ordered pair: u (outer) has the larger positivity set
    dom = pp.Domain.ball(1.0, 256)
    eps = 1e-2
    r = radial(dom)
    u_vals = pp.transition_profile(eps, 0.45 - r)
    v_vals = pp.transition_profile(eps, 0.25 - r)
    outer = pp.PhaseState(pp.ScalarField(dom, u_vals), eps, 1.0)
    inner = pp.PhaseState(pp.ScalarField(dom, v_vals), eps, 1.0)
    spec = pp.AnnulusSpec(0.6, 0.2)
    out, report = pp.glue(inner, outer, spec, budget=0.5)
    assert len(report.stages) == 1
    assert report.stages[0].direction == "rising"
    inner_zone = r <= spec.rho
    outer_zone = r > spec.outer_radius
    assert np.array_equal(out.values[inner_zone], inner.values[inner_zone])
    assert np.array_equal(out.values[outer_zone], outer.values[outer_zone])
    # ordered inputs stay sandwiched
    assert np.all(out.values >= inner.values - 1e-15)
    assert np.all(out.values <= outer.values + 1e-15)
    assert report.excess <= 0.5
    assert spec.rho + spec.delta / 8.0 <= report.r_star <= spec.rho + spec.delta / 4.0


def test_glue_constant_states_1d_ramp():
    # u = +M, v = -M: the output must ramp across the annulus; its energy
    # is set by the profile slope theta = 16 M / delta
    dom = pp.Domain.interval(-1.0, 1.0, 4096)
    eps = 1e-2
    ones = np.ones(dom.node_shape)
    outer = pp.PhaseState(pp.ScalarField(dom, ones.copy()), eps, 1.0)
    inner = pp.PhaseState(pp.ScalarField(dom, -ones.copy()), eps, 1.0)
    spec = pp.AnnulusSpec(0.6, 0.2)
    out, report = pp.glue(inner, outer, spec, budget=400.0)
    assert [s.direction for s in report.stages] == ["rising"]
    # frozen from a direct evaluation; about 2 ramps of 2 theta M each
    assert report.annulus_energy == pytest.approx(319.279391, abs=1e-4)
    assert report.excess == pytest.approx(319.437237, abs=1e-4)
    assert report.within_third is False
    # the scan stays inside its window
    assert 0.625 <= report.r_star <= 0.65
    # output is monotone in |x| across the rising annulus
    x = dom.nodes_x
    band = (np.abs(x) >= 0.6) & (np.abs(x) <= 0.8)
    assert np.all(np.abs(out.values[band]) <= 1.0 + 1e-12)
    assert np.array_equal(out.values[np.abs(x) <= 0.6], inner.values[np.abs(x) <= 0.6])


def test_glue_budget_exceeded():
    dom = pp.Domain.interval(-1.0, 1.0, 4096)
    eps = 1e-2
    ones = np.ones(dom.node_shape)
    outer = pp.PhaseState(pp.ScalarField(dom, ones.copy()), eps, 1.0)
    inner = pp.PhaseState(pp.ScalarField(dom, -ones.copy()), eps, 1.0)
    with pytest.raises(BudgetExceededError) as err:
        pp.glue(inner, outer, pp.AnnulusSpec(0.6, 0.2), budget=1.0)
    assert err.value.excess == pytest.approx(318.437237, abs=1e-4)


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(log_uniform(-8, 0), log_uniform(-6, 1), log_uniform(-3, 1))
def test_glue_ramp_saturates_within_an_eighth_of_the_annulus(epsilon, delta, bound_m):
    # The ramp's slope is at least its tail slope theta = 16 M / delta
    # everywhere and its value at 0 is 0, so at delta / 8 it has reached
    # theta * delta / 8 = 2 M >= M, whatever eps, delta and M.
    prof = interpolation._ramp_profile(epsilon, bound_m, delta)
    s = np.linspace(0.0, delta / 8.0, 257)
    assert np.all(prof.derivative(s) >= prof.tail_slope)
    assert prof.value(delta / 8.0) >= bound_m


def test_glue_two_stage_for_unordered_states():
    dom = pp.Domain.ball(1.0, 256)
    eps = 1e-2
    zeros = np.zeros(dom.node_shape)
    pair_a = pp.SharpPair(
        pp.ScalarField(dom, zeros.copy()), region=pp.Disc((0.0, 0.0), 0.25)
    )
    pair_b = pp.SharpPair(
        pp.ScalarField(dom, zeros.copy()), region=pp.Disc((0.1, 0.0), 0.25)
    )
    u, _ = pp.build_recovery(pair_a, eps)
    v, _ = pp.build_recovery(pair_b, eps)
    assert not np.all(u.values >= v.values)
    assert not np.all(v.values >= u.values)
    spec = pp.AnnulusSpec(0.6, 0.2)
    out, report = pp.glue(inner_state=v, outer_state=u, spec=spec, budget=0.1)
    assert [s.direction for s in report.stages] == ["rising", "falling"]
    r = radial(dom)
    assert np.array_equal(out.values[r <= 0.6], v.values[r <= 0.6])
    assert np.array_equal(out.values[r > 0.8], u.values[r > 0.8])
    # both states are saturated negative across the annulus, so gluing
    # changes nothing and the excess vanishes identically
    assert report.excess == 0.0
    assert report.l2_gap_outside == 0.0
    assert report.phase_l1_gap_outside == 0.0


def full_grid_scan(lo_vals, hi_vals, domain, epsilon, spec, direction, radii):
    """Scan energies from every cell of the grid: the cell density times the
    cell weight, kept where the anchor lies in the open annulus and the
    anchor's ramp value lies strictly between the two states, which have
    M = 1."""
    profile = interpolation._ramp_profile(epsilon, 1.0, spec.delta)
    r_nodes = radial(domain)
    anchor = (slice(None, -1),) * domain.dim
    in_annulus = (r_nodes[anchor] > spec.rho) & (r_nodes[anchor] < spec.outer_radius)
    energies = []
    for r in radii:
        ramp = profile.value(r_nodes - r if direction == "rising" else r - r_nodes)
        dens = pp.energy._cell_density(ramp, domain.h, epsilon)
        sandwich = (lo_vals[anchor] < ramp[anchor]) & (ramp[anchor] < hi_vals[anchor])
        energies.append(np.sum(dens * domain.cell_weights * (sandwich & in_annulus)))
    return np.array(energies)


def assert_scan_matches(stage, reference):
    assert np.max(reference) > 0.0
    np.testing.assert_allclose(stage.scan_energies, reference, rtol=1e-13, atol=0.0)
    assert stage.r_star == stage.scan_radii[np.argmin(reference)]


def test_glue_annulus_scan_matches_full_grid_ordered_ball():
    dom = pp.Domain.ball(1.0, 128)
    eps = 1e-2
    r = radial(dom)
    u = pp.transition_profile(eps, 0.7 - r)
    v = pp.transition_profile(eps, 0.65 - r)
    spec = pp.AnnulusSpec(0.6, 0.2)
    _, report = pp.glue(
        pp.PhaseState(pp.ScalarField(dom, v), eps, 1.0),
        pp.PhaseState(pp.ScalarField(dom, u), eps, 1.0),
        spec,
        budget=1e3,
    )
    (stage,) = report.stages
    assert_scan_matches(stage, full_grid_scan(v, u, dom, eps, spec, "rising", stage.scan_radii))


def test_glue_annulus_scan_matches_full_grid_unordered_ball():
    dom = pp.Domain.ball(1.0, 128)
    eps = 1e-2
    x, y = dom.nodes_x, dom.nodes_y
    # shifted discs: each state is the larger one on its side of the annulus
    u = pp.transition_profile(eps, 0.65 - np.hypot(x - 0.1, y))
    v = pp.transition_profile(eps, 0.65 - np.hypot(x + 0.1, y))
    spec = pp.AnnulusSpec(0.6, 0.2)
    _, report = pp.glue(
        pp.PhaseState(pp.ScalarField(dom, v), eps, 1.0),
        pp.PhaseState(pp.ScalarField(dom, u), eps, 1.0),
        spec,
        budget=1e3,
    )
    rising, falling = report.stages
    spec_outer = pp.AnnulusSpec(0.7, 0.1)
    spec_inner = pp.AnnulusSpec(0.6, 0.1)
    m = np.minimum(u, v)
    assert_scan_matches(
        rising, full_grid_scan(m, u, dom, eps, spec_outer, "rising", rising.scan_radii)
    )
    profile = interpolation._ramp_profile(eps, 1.0, spec_outer.delta)
    ramp = profile.value(radial(dom) - rising.r_star)
    w1 = np.minimum(u, np.maximum(m, ramp))
    assert_scan_matches(
        falling, full_grid_scan(w1, v, dom, eps, spec_inner, "falling", falling.scan_radii)
    )


def test_glue_annulus_scan_matches_full_grid_interval():
    dom = pp.Domain.interval(-1.0, 1.0, 1024)
    eps = 1e-2
    v = pp.transition_profile(eps, 0.7 - radial(dom))
    u = np.ones(dom.node_shape)
    spec = pp.AnnulusSpec(0.6, 0.2)
    _, report = pp.glue(
        pp.PhaseState(pp.ScalarField(dom, v), eps, 1.0),
        pp.PhaseState(pp.ScalarField(dom, u), eps, 1.0),
        spec,
        budget=1e3,
    )
    (stage,) = report.stages
    assert_scan_matches(stage, full_grid_scan(v, u, dom, eps, spec, "rising", stage.scan_radii))


def test_glue_rejects_mismatched_states():
    dom = pp.Domain.ball(1.0, 128)
    other = pp.Domain.ball(1.0, 64)
    eps = 1e-2
    a = pp.PhaseState(pp.ScalarField(dom, np.zeros(dom.node_shape)), eps, 1.0)
    b = pp.PhaseState(pp.ScalarField(other, np.zeros(other.node_shape)), eps, 1.0)
    spec = pp.AnnulusSpec(0.6, 0.2)
    with pytest.raises(DomainError):
        pp.glue(a, b, spec, budget=1.0)
    c = pp.PhaseState(pp.ScalarField(dom, np.zeros(dom.node_shape)), 2e-2, 1.0)
    with pytest.raises(DomainError):
        pp.glue(a, c, spec, budget=1.0)
    d = pp.PhaseState(pp.ScalarField(dom, np.zeros(dom.node_shape)), eps, 2.0)
    for inner, outer in ((a, d), (d, a)):
        with pytest.raises(DomainError, match="same amplitude bound"):
            pp.glue(inner, outer, spec, budget=1.0)
    with pytest.raises(DomainError):
        pp.glue(a, a, spec, budget=0.0)
    # annulus sticking out of the domain
    with pytest.raises(DomainError):
        pp.glue(a, a, pp.AnnulusSpec(0.9, 0.3), budget=1.0)


def test_descent_and_glue_results_keep_their_inputs_bound():
    dom = pp.Domain.interval(-1.0, 1.0, 256)
    eps, bound_m = 1e-2, 2.0
    vals = 1.5 * dom.nodes_x
    initial = pp.PhaseState(pp.ScalarField(dom, vals), eps, bound_m)
    descent = pp.minimize_e_eps(initial, max_iters=50)
    assert descent.state.bound_m == bound_m
    # the interior is clipped to [-2, 2], not to [-1, 1]
    assert np.max(np.abs(descent.state.values[1:-1])) > 1.0
    two = bound_m * np.ones(dom.node_shape)
    inner, outer = _profile_states(dom, eps, -two, two, bound_m)
    glued, _ = pp.glue(inner, outer, pp.AnnulusSpec(0.6, 0.2), budget=1e6)
    assert glued.bound_m == bound_m
    # the ramp saturates to +/- M inside the annulus
    assert np.min(glued.values) == -bound_m and np.max(glued.values) == bound_m


def test_barrier_1d_bound():
    dom = pp.Domain.interval(-1.0, 1.0, 4096)
    result = pp.build_barrier(dom, interface_radius=0.5, bound_m=1.0, epsilon=1e-3)
    # two boundary points, tent slope 4 over two side intervals of width 1/2
    expected_bound = pp.C0 * 2.0 + 16.0 + 1.0
    assert result.bound == pytest.approx(expected_bound, rel=1e-12)
    assert result.feasible
    assert result.energy.total <= result.bound
    # the interface sits at |x| = R: value crosses zero there
    x = dom.nodes_x
    signs = np.sign(result.state.values)
    assert np.all(signs[np.abs(x) < 0.45] > 0)
    assert np.all(signs[np.abs(x) > 0.55] < 0)


def test_barrier_2d_bound():
    dom = pp.Domain.ball(1.0, 256)
    result = pp.build_barrier(dom, interface_radius=0.5, bound_m=1.0, epsilon=1e-2)
    expected_bound = pp.C0 * math.pi + 16.0 * math.pi * 0.75 + 1.0
    assert result.bound == pytest.approx(expected_bound, rel=1e-12)
    assert result.feasible
    assert result.energy.total <= result.bound * 1.02


def test_barrier_composition_is_continuous_on_the_grid():
    # largest jump between neighboring nodes stays of order h * slope
    dom = pp.Domain.interval(-1.0, 1.0, 4096)
    result = pp.build_barrier(dom, interface_radius=0.5, bound_m=1.0, epsilon=1e-3)
    vals = result.state.values
    max_jump = np.max(np.abs(np.diff(vals)))
    # steepest feature is the profile core at slope 1/sqrt(eps)
    assert max_jump <= 2.0 * dom.h / math.sqrt(1e-3)


def test_barrier_infeasible_at_large_scale():
    dom = pp.Domain.interval(-1.0, 1.0, 1024)
    result = pp.build_barrier(dom, interface_radius=0.5, bound_m=1.0, epsilon=1.0)
    assert not result.feasible
    assert result.epsilon_threshold == pytest.approx(0.0625, rel=1e-6)
    # the state is still built and amplitude-consistent
    assert np.max(np.abs(result.state.values)) <= result.state.bound_m + 1e-12


def test_barrier_threshold_scaling():
    # the shift condition slope * t_band <= M / 2 controls the threshold:
    # halving (1 - R) doubles the slope and tightens the scale
    dom = pp.Domain.interval(-1.0, 1.0, 1024)
    t_wide = pp.barrier_feasibility_threshold(dom, 0.5, 1.0)
    t_narrow = pp.barrier_feasibility_threshold(dom, 0.75, 1.0)
    assert t_narrow < t_wide


def test_barrier_rejects_bad_radius():
    dom = pp.Domain.interval(-1.0, 1.0, 256)
    with pytest.raises(DomainError):
        pp.build_barrier(dom, interface_radius=1.5, bound_m=1.0, epsilon=1e-3)
    with pytest.raises(DomainError):
        pp.build_barrier(dom, interface_radius=0.0, bound_m=1.0, epsilon=1e-3)


def annulus_wide_stage(inner_vals, outer_vals, radial, domain, epsilon, spec, direction, profile):
    """One glue stage as scanned before band limiting: every candidate
    evaluates the ramp on every stencil node of the annulus cells, and the
    chosen ramp is evaluated on the whole grid."""
    lo_v, hi_v = (inner_vals, outer_vals) if direction == "rising" else (outer_vals, inner_vals)
    weights, nodes, where = interpolation._annulus_stencil(domain, radial, spec)
    anchor_nodes = nodes[where[0]]
    lo_a, hi_a = lo_v.ravel()[anchor_nodes], hi_v.ravel()[anchor_nodes]
    radii = np.linspace(spec.rho + spec.delta / 8.0, spec.rho + spec.delta / 4.0, 32)
    energies = np.empty(len(radii))
    for i, r in enumerate(radii):
        s = radial.ravel()[nodes] - r if direction == "rising" else r - radial.ravel()[nodes]
        ramp = profile.value(s)[where]
        dens = pp.energy._stencil_density(ramp[0], ramp[1:], domain.h, epsilon)
        sandwich = (lo_a < ramp[0]) & (ramp[0] < hi_a)
        energies[i] = float(np.sum(dens * weights * sandwich))
    r_star = float(radii[int(np.argmin(energies))])
    ramp = profile.value(radial - r_star if direction == "rising" else r_star - radial)
    if direction == "rising":
        out = np.minimum(outer_vals, np.maximum(inner_vals, ramp))
    else:
        out = np.maximum(outer_vals, np.minimum(inner_vals, ramp))
    return out, energies, r_star


def whole_grid_gaps(out, u, radial, domain, eps, spec):
    """(l2_gap_outside, phase_l1_gap_outside) summed over the whole grid."""
    weights = domain.node_weights * (radial > spec.rho)
    diff = out - u
    l2 = float(math.sqrt(np.sum(weights * diff * diff)))
    phase_diff = pp.h_tilde(out / math.sqrt(eps)) - pp.h_tilde(u / math.sqrt(eps))
    return l2, float(np.sum(weights * np.abs(phase_diff)))


def full_grid_glue(inner, outer, spec):
    """The glued values, (scan energies, r_star) per stage and the whole-grid
    outside gaps, with the stages chosen and chained as ``glue`` does."""
    domain, eps = inner.domain, inner.epsilon
    u, v = outer.values, inner.values
    radial = interpolation._radial_nodes(domain)
    if np.all(u >= v):
        profile = interpolation._ramp_profile(eps, inner.bound_m, spec.delta)
        out, energies, r_star = annulus_wide_stage(
            v, u, radial, domain, eps, spec, "rising", profile
        )
        return out, [(energies, r_star)], whole_grid_gaps(out, u, radial, domain, eps, spec)
    half = spec.delta / 2.0
    spec_outer = pp.AnnulusSpec(spec.rho + half, half)
    spec_inner = pp.AnnulusSpec(spec.rho, half)
    profile = interpolation._ramp_profile(eps, inner.bound_m, half)
    w1, e1, r1 = annulus_wide_stage(
        np.minimum(u, v), u, radial, domain, eps, spec_outer, "rising", profile
    )
    out, e2, r2 = annulus_wide_stage(
        v, w1, radial, domain, eps, spec_inner, "falling", profile
    )
    return out, [(e1, r1), (e2, r2)], whole_grid_gaps(out, u, radial, domain, eps, spec)


def _disc_states(n, eps, radius, centres):
    dom = pp.Domain.ball(1.0, n)
    zeros = np.zeros(dom.node_shape)
    discs = [pp.Disc(c, radius) for c in centres]
    pairs = [pp.SharpPair(pp.ScalarField(dom, zeros.copy()), region=d) for d in discs]
    return [pp.build_recovery(pair, eps)[0] for pair in pairs]


def _profile_states(dom, eps, inner_vals, outer_vals, bound_m=1.0):
    return [
        pp.PhaseState(pp.ScalarField(dom, vals), eps, bound_m) for vals in (inner_vals, outer_vals)
    ]


def _band_case(name):
    eps = 1e-2
    if name in ("ordered_ball", "ordered_ball_n16"):
        dom = pp.Domain.ball(1.0, 16 if name.endswith("n16") else 128)
        r = radial(dom)
        u = pp.transition_profile(eps, 0.7 - r)
        return _profile_states(dom, eps, pp.transition_profile(eps, 0.65 - r), u)
    if name == "two_stage_ball":
        dom = pp.Domain.ball(1.0, 128)
        x, y = dom.nodes_x, dom.nodes_y
        return _profile_states(
            dom,
            eps,
            pp.transition_profile(eps, 0.65 - np.hypot(x + 0.1, y)),
            pp.transition_profile(eps, 0.65 - np.hypot(x - 0.1, y)),
        )
    if name == "interval":
        dom = pp.Domain.interval(-1.0, 1.0, 1024)
        v = pp.transition_profile(eps, 0.7 - radial(dom))
        return _profile_states(dom, eps, v, np.ones(dom.node_shape))
    if name == "constant_pm_ball":
        dom = pp.Domain.ball(1.0, 128)
        return _profile_states(dom, eps, -np.ones(dom.node_shape), np.ones(dom.node_shape))
    if name == "constant_pm_interval":
        # h below the candidate spacing delta / 248: a cell can leave the
        # band between two candidates while still in the sandwich
        dom = pp.Domain.interval(-1.0, 1.0, 8192)
        two = 2.0 * np.ones(dom.node_shape)
        return _profile_states(dom, eps, -two, two, 2.0)
    if name == "empty_annulus_interval":
        # no anchor node lies in 0.6 < |x| < 0.8, so no band has a cell
        dom = pp.Domain.interval(-1.0, 1.0, 4)
        return _profile_states(dom, eps, -np.ones(dom.node_shape), np.ones(dom.node_shape))
    if name == "saturated":
        dom = pp.Domain.ball(1.0, 128)
        sat = -math.sqrt(eps) * np.ones(dom.node_shape)
        return _profile_states(dom, eps, sat, sat.copy())
    if name == "mixed_ball":
        # the states agree on x < 0 and differ on x >= 0, so every band
        # holds cells the scan skips next to cells it scores
        dom = pp.Domain.ball(1.0, 128)
        r = radial(dom)
        v = pp.transition_profile(eps, 0.65 - r)
        u = np.where(dom.nodes_x < 0.0, v, pp.transition_profile(eps, 0.7 - r))
        return _profile_states(dom, eps, v, u)
    if name == "discs_0.7":
        return _disc_states(128, eps, 0.7, [(0.1, 0.0), (0.0, 0.0)])
    if name == "discs_0.7_swapped":
        return _disc_states(128, eps, 0.7, [(0.0, 0.0), (0.1, 0.0)])
    raise ValueError(name)


# Whether each stage's scan has a nonzero energy, per case: the saturated
# states of the construct2d benchmark have an empty sandwich at every radius.
_BAND_CASES = {
    "ordered_ball": [True],
    "ordered_ball_n16": [True],
    "two_stage_ball": [True, True],
    "interval": [True],
    "constant_pm_ball": [True],
    "constant_pm_interval": [True],
    "empty_annulus_interval": [False],
    "saturated": [False],
    "mixed_ball": [True],
    "discs_0.7": [True, False],
    "discs_0.7_swapped": [True, True],
}


@pytest.mark.parametrize("name", list(_BAND_CASES))
def test_glue_band_limited_equals_full_grid_bitwise(name):
    inner, outer = _band_case(name)
    spec = pp.AnnulusSpec(0.6, 0.2)
    inner_bytes, outer_bytes = inner.values.tobytes(), outer.values.tobytes()
    out, report = pp.glue(inner, outer, spec, budget=1e6)
    # each stage composes into a buffer glue owns, never into an input
    assert inner.values.tobytes() == inner_bytes
    assert outer.values.tobytes() == outer_bytes
    ref_out, ref_stages, ref_gaps = full_grid_glue(inner, outer, spec)
    assert [bool(np.max(e) > 0.0) for e, _ in ref_stages] == _BAND_CASES[name]
    assert len(report.stages) == len(ref_stages)
    for stage, (energies, r_star) in zip(report.stages, ref_stages):
        assert np.array_equal(stage.scan_energies, energies)
        assert stage.r_star == r_star
    assert report.r_star == ref_stages[-1][1]
    assert np.array_equal(out.values, ref_out)
    # the gaps summed from the annulus terms are the whole-grid sums, bit for bit
    assert (report.l2_gap_outside, report.phase_l1_gap_outside) == ref_gaps


@pytest.mark.parametrize("name", ["ordered_ball", "two_stage_ball", "discs_0.7"])
def test_glue_of_fortran_ordered_states_is_bitwise_the_same(name):
    # the band is scattered back by flat index, which must reach the
    # buffer itself whatever its memory layout
    inner, outer = _band_case(name)
    spec = pp.AnnulusSpec(0.6, 0.2)
    ref, _ = pp.glue(inner, outer, spec, budget=1e6)
    f_inner, f_outer = _profile_states(
        inner.domain, inner.epsilon, np.asfortranarray(inner.values), np.asfortranarray(outer.values),
        inner.bound_m,
    )
    assert not f_outer.values.flags.c_contiguous
    out, _ = pp.glue(f_inner, f_outer, spec, budget=1e6)
    assert out.values.tobytes() == ref.values.tobytes()


@pytest.mark.parametrize("name", ["saturated", "discs_0.25"])
def test_glue_evaluates_no_ramp_where_the_states_agree(name, monkeypatch):
    # Saturated states agree across the annulus, so no cell is open for
    # the scan: the only ramp evaluation left is each stage's composition.
    if name == "saturated":
        inner, outer = _band_case(name)
    else:  # the construct2d benchmark's discs at a smaller grid
        outer, inner = _disc_states(128, 1e-2, 0.25, [(0.0, 0.0), (0.1, 0.0)])
    callers = []
    value = pp.SlopedProfile.value

    def counted(self, s):
        callers.append(sys._getframe(2).f_code.co_name)
        return value(self, s)

    monkeypatch.setattr(pp.SlopedProfile, "value", counted)
    _, report = pp.glue(inner, outer, pp.AnnulusSpec(0.6, 0.2), budget=1e6)
    assert callers == ["_glue_stage"] * len(report.stages)
    for stage in report.stages:
        assert not np.any(stage.scan_energies)
        assert stage.r_star == stage.scan_radii[0]
