"""Diffuse and sharp energies, the phase compression, and gap norms."""

import math

import numpy as np
import pytest

import perimeter_phase as pp
from perimeter_phase import geometry
from perimeter_phase.errors import (
    DomainError,
    InvalidPairError,
    UnsupportedRegionError,
)


def interval_state(n, values_fn, epsilon=1e-2, bound=1.0):
    dom = pp.Domain.interval(-1.0, 1.0, n)
    return pp.PhaseState(pp.ScalarField(dom, values_fn(dom.nodes_x)), epsilon, bound)


def test_scalar_field_validation():
    dom = pp.Domain.interval(-1.0, 1.0, 8)
    with pytest.raises(DomainError):
        pp.ScalarField(dom, np.zeros(5))
    bad = np.zeros(dom.node_shape)
    bad[3] = np.nan
    with pytest.raises(DomainError):
        pp.ScalarField(dom, bad)
    # values are copied, callers cannot mutate the field afterwards
    src = np.zeros(dom.node_shape)
    field = pp.ScalarField(dom, src)
    src[0] = 7.0
    assert field.values[0] == 0.0


def test_phase_state_validation():
    dom = pp.Domain.interval(-1.0, 1.0, 8)
    field = pp.ScalarField(dom, np.full(dom.node_shape, 1.5))
    with pytest.raises(DomainError):
        pp.PhaseState(field, 1e-2, 1.0)
    state = pp.PhaseState(field, 1e-2, 2.0)
    assert state.bound_m == 2.0
    with pytest.raises(DomainError):
        pp.PhaseState(field, -1e-2, 2.0)


def test_sharp_pair_validation():
    dom = pp.Domain.interval(-1.0, 1.0, 8)
    x = dom.nodes_x
    field = pp.ScalarField(dom, x.copy())
    region = pp.IntervalUnion(((0.0, np.inf),))
    with pytest.raises(InvalidPairError):
        pp.SharpPair(field)  # neither region nor mask
    with pytest.raises(InvalidPairError):
        pp.SharpPair(field, region=region, mask=x >= 0)  # both
    pair = pp.SharpPair(field, region=region)
    assert np.array_equal(pair.node_mask(), x >= 0.0)
    assert np.array_equal(pair.indicator_difference(), np.where(x >= 0, 1.0, -1.0))
    # sign inconsistency: positive values off the set
    with pytest.raises(InvalidPairError):
        pp.SharpPair(pp.ScalarField(dom, np.abs(x)), region=region)
    # mask route
    pair2 = pp.SharpPair(field, mask=(x >= 0.0))
    assert np.array_equal(pair2.node_mask(), x >= 0.0)


def test_dirichlet_energy_linear_exact():
    state = interval_state(128, lambda x: x)
    assert pp.dirichlet_energy(state.field) == pytest.approx(2.0, rel=1e-13)
    # restriction to the right half via a half-line region
    half = pp.IntervalUnion(((0.0, np.inf),))
    assert pp.dirichlet_energy(state.field, half) == pytest.approx(1.0, rel=1e-13)


def test_dirichlet_energy_sine():
    dom = pp.Domain.interval(-1.0, 1.0, 4096)
    field = pp.ScalarField(dom, np.sin(np.pi * dom.nodes_x))
    assert abs(pp.dirichlet_energy(field) - math.pi**2) / math.pi**2 <= 1e-6


def test_well_energy_constants():
    dom = pp.Domain.interval(-1.0, 1.0, 64)
    zero = pp.ScalarField(dom, np.zeros(dom.node_shape))
    eps = 1e-2
    # w(0) = 1 on the whole interval
    assert pp.well_energy(zero, eps) == pytest.approx(2.0 / eps, rel=1e-13)
    half = pp.ScalarField(dom, np.full(dom.node_shape, 0.5 * math.sqrt(eps)))
    assert pp.well_energy(half, eps) == pytest.approx(
        2.0 * pp.w(0.5) / eps, rel=1e-13
    )
    # saturated states cost nothing
    sat = pp.ScalarField(dom, np.full(dom.node_shape, math.sqrt(eps)))
    assert pp.well_energy(sat, eps) == 0.0


def test_e_eps_of_transition_profile_approaches_surface_tension():
    eps = 1e-3
    dom = pp.Domain.interval(-1.0, 1.0, 32768)
    vals = pp.transition_profile(eps, dom.nodes_x)
    state = pp.PhaseState(pp.ScalarField(dom, vals), eps, 1.0)
    total = pp.e_eps(state).total
    assert abs(total - pp.c0()) / pp.c0() <= 1e-3


def test_e_eps_splits_additively_on_complement():
    rng = np.random.default_rng(29)
    dom = pp.Domain.box(-1.0, 1.0, 64)
    vals = 0.5 * np.sin(2.0 * dom.nodes_x) * np.cos(dom.nodes_y)
    state = pp.PhaseState(pp.ScalarField(dom, vals), 5e-2, 1.0)
    for region in (
        pp.HalfPlane((1.0, 0.0), 0.0),
        pp.Disc((0.2, -0.1), 0.6),
        pp.HalfPlane((0.6, 0.8), rng.uniform(-0.3, 0.3)),
    ):
        inside = pp.e_eps(state, subdomain=region).total
        outside = pp.e_eps(state, subdomain=pp.Complement(region)).total
        full = pp.e_eps(state).total
        assert inside + outside == pytest.approx(full, rel=1e-12)


def test_sharp_energy_half_line():
    dom = pp.Domain.interval(-1.0, 1.0, 512)
    pair = pp.SharpPair(
        pp.ScalarField(dom, dom.nodes_x.copy()),
        region=pp.IntervalUnion(((0.0, np.inf),)),
    )
    breakdown = pp.sharp_energy(pair)
    assert breakdown.dirichlet == pytest.approx(2.0, rel=1e-13)
    assert breakdown.perimeter_weighted == pytest.approx(pp.c0(), rel=1e-14)
    assert breakdown.total == pytest.approx(2.0 + pp.c0(), rel=1e-13)


def test_sharp_energy_disc_region_and_mask():
    dom = pp.Domain.box(-1.0, 1.0, 256)
    zeros = np.zeros(dom.node_shape)
    disc = pp.Disc((0.0, 0.0), 0.5)
    pair = pp.SharpPair(pp.ScalarField(dom, zeros), region=disc)
    exact = pp.sharp_energy(pair)
    assert exact.perimeter_weighted == pytest.approx(pp.c0() * math.pi, rel=1e-14)
    # mask route estimates the same perimeter from the rasterized set
    pair_mask = pp.SharpPair(
        pp.ScalarField(dom, zeros), mask=pp.rasterize(disc, dom)
    )
    approx = pp.sharp_energy(pair_mask)
    assert approx.perimeter_weighted == pytest.approx(
        exact.perimeter_weighted, rel=0.08
    )
    # subdomain restriction needs the mask route
    with pytest.raises(UnsupportedRegionError):
        pp.sharp_energy(pair, subdomain=pp.HalfPlane((1.0, 0.0), 0.0))
    half = pp.sharp_energy(pair_mask, subdomain=pp.HalfPlane((1.0, 0.0), 0.0))
    assert half.perimeter_weighted == pytest.approx(
        0.5 * approx.perimeter_weighted, rel=0.05
    )


@pytest.mark.parametrize(
    "domain, region",
    [
        (pp.Domain.interval(-1.0, 1.0, 64), pp.IntervalUnion(((-0.3, 0.25), (0.5, np.inf)))),
        (pp.Domain.box(-1.0, 1.0, 64), pp.HalfPlane((1.0, 0.3), 0.1)),
        (pp.Domain.ball(1.0, 64), pp.Disc((0.1, 0.0), 0.5)),
        (pp.Domain.ball(1.0, 64), pp.Complement(pp.Disc((0.0, 0.0), 0.25))),
        (
            pp.Domain.box(-1.0, 1.0, 64),
            pp.Union((pp.Disc((-0.5, 0.0), 0.25), pp.Disc((0.5, 0.0), 0.25))),
        ),
        (pp.Domain.box(-1.0, 1.0, 64), pp.FullSpace()),
        (pp.Domain.box(-1.0, 1.0, 64), pp.EmptySpace()),
    ],
)
def test_region_pair_mask_is_rasterize_bitwise(domain, region):
    pair = pp.SharpPair(pp.ScalarField(domain, np.zeros(domain.node_shape)), region=region)
    mask = pair.node_mask()
    reference = pp.rasterize(region, domain)
    assert mask.dtype == reference.dtype == bool
    assert np.array_equal(mask, reference)
    assert np.array_equal(pair.indicator_difference(), np.where(reference, 1.0, -1.0))


def test_subdomain_energies_compute_cell_fractions_once(monkeypatch):
    dom = pp.Domain.ball(1.0, 64)
    values = 0.5 * np.tanh(dom.nodes_x / 0.1)
    field = pp.ScalarField(dom, values)
    state = pp.PhaseState(field, 1e-2, 1.0)
    sub = pp.Disc((0.1, 0.0), 0.5)
    calls = []
    real = geometry.region_cell_fraction

    def counting(region, domain):
        calls.append(region)
        return real(region, domain)

    monkeypatch.setattr(geometry, "region_cell_fraction", counting)
    breakdown = pp.e_eps(state, sub)
    assert len(calls) == 1
    dirichlet = pp.dirichlet_energy(field, sub)
    well = pp.well_energy(field, 1e-2, sub)
    assert (breakdown.dirichlet, breakdown.well) == (dirichlet, well)
    assert breakdown.total == dirichlet + well

    calls.clear()
    pair = pp.SharpPair(field, mask=values >= 0.0)
    sharp = pp.sharp_energy(pair, sub)
    assert len(calls) == 1
    assert sharp.dirichlet == dirichlet


def test_tv_phase_step_1d():
    eps = 1e-2
    root = math.sqrt(eps)
    state = interval_state(256, lambda x: np.where(x >= 0, 3.0 * root, -3.0 * root))
    assert pp.tv_phase(state) == pytest.approx(2.0, rel=1e-14)


def test_tv_phase_vertical_interface_2d():
    eps = 1e-2
    root = math.sqrt(eps)
    dom = pp.Domain.box(-1.0, 1.0, 64)
    vals = np.where(dom.nodes_x >= 0.0, 3.0 * root, -3.0 * root)
    state = pp.PhaseState(pp.ScalarField(dom, vals), eps, 1.0)
    # jump of 2 along a length-2 vertical line
    assert pp.tv_phase(state) == pytest.approx(4.0, rel=1e-13)


def test_modica_mortola_split_fields():
    state = interval_state(512, lambda x: 0.8 * np.sin(np.pi * x))
    split = pp.modica_mortola_split(state)
    assert split.lhs == pytest.approx(pp.e_eps(state).total, rel=1e-14)
    assert split.tv_term == pytest.approx(pp.tv_phase(state), rel=1e-14)
    assert split.rhs == pytest.approx(
        0.5 * pp.c0() * split.tv_term + split.excess_dirichlet, rel=1e-14
    )
    shifted = np.sign(state.values) * np.maximum(
        np.abs(state.values) - math.sqrt(state.epsilon), 0.0
    )
    assert split.excess_dirichlet == pytest.approx(
        pp.dirichlet_energy(pp.ScalarField(state.domain, shifted)), rel=1e-14
    )


def test_modica_mortola_split_resolved_fields_have_no_defect():
    rng = np.random.default_rng(31)
    dom = pp.Domain.interval(-1.0, 1.0, 1024)
    for _ in range(20):
        coeffs = rng.standard_normal(6) / np.arange(1, 7)
        u = np.zeros(dom.node_shape)
        for k, c in enumerate(coeffs, start=1):
            u += c * np.sin(np.pi * k * dom.nodes_x + rng.uniform(0, 2 * np.pi))
        u *= 0.9 / max(np.max(np.abs(u)), 1e-9)
        split = pp.modica_mortola_split(
            pp.PhaseState(pp.ScalarField(dom, u), 1e-2, 1.0)
        )
        assert split.lhs >= split.rhs - 1e-12


def test_modica_mortola_split_underresolved_defect():
    # a steep crossing whose nodes all skip the well band shows the O(h)
    # chain-rule defect; frozen from a direct evaluation of both sides
    dom = pp.Domain.interval(-1.0, 1.0, 16)
    u = np.clip(3.0 * (dom.nodes_x + 0.0625), -0.9, 0.9)
    split = pp.modica_mortola_split(pp.PhaseState(pp.ScalarField(dom, u), 1e-4, 1.0))
    defect = split.rhs - split.lhs
    assert defect == pytest.approx(2.5498666666666665, rel=1e-12)


def test_intermediate_phase_measure_inequality():
    rng = np.random.default_rng(37)
    dom = pp.Domain.interval(-1.0, 1.0, 512)
    for _ in range(25):
        u = np.clip(rng.normal(0.0, 0.3, dom.node_shape), -0.9, 0.9)
        state = pp.PhaseState(pp.ScalarField(dom, u), 1e-2, 1.0)
        for delta in (0.1, 0.25, 0.4):
            pm = pp.intermediate_phase_measure(state, delta)
            assert pm.measure <= pm.bound
    with pytest.raises(DomainError):
        pp.intermediate_phase_measure(state, 0.5)
    with pytest.raises(DomainError):
        pp.intermediate_phase_measure(state, 0.0)


def test_intermediate_phase_measure_saturated_state():
    # fully saturated states have zero intermediate phase
    eps = 1e-2
    state = interval_state(64, lambda x: np.where(x >= 0, 1.0, -1.0) * math.sqrt(eps))
    pm = pp.intermediate_phase_measure(state, 0.25)
    assert pm.measure == 0.0


def test_phase_band_measure():
    eps = 1e-2
    root = math.sqrt(eps)
    dom = pp.Domain.interval(-1.0, 1.0, 64)
    vals = np.where(np.abs(dom.nodes_x) < 0.5, 0.0, root)
    state = pp.PhaseState(pp.ScalarField(dom, vals), eps, 1.0)
    # the open band {|u| < sqrt(eps)} is |x| < 0.5 up to one node weight
    assert pp.phase_band_measure(state) == pytest.approx(1.0, abs=2 * dom.h)


def test_gap_norms():
    dom = pp.Domain.interval(0.0, 1.0, 4)
    a = np.array([1.0, 1.0, 1.0, 1.0, 1.0])
    b = np.zeros(5)
    # node weights sum to the measure 1
    assert pp.l2_gap(a, b, dom) == pytest.approx(1.0, rel=1e-14)
    assert pp.l1_gap(a, b, dom) == pytest.approx(1.0, rel=1e-14)
    c = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    assert pp.l1_gap(c, np.zeros(5), dom) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("dim", [1, 2])
def test_cell_density_kernel_on_gathered_cells_matches_the_full_grid(dim):
    from perimeter_phase.energy import _cell_density, _forward_differences, _stencil_density

    rng = np.random.default_rng(7)
    dom = pp.Domain.interval(-1.0, 1.0, 64) if dim == 1 else pp.Domain.box(-1.0, 1.0, 32)
    values = rng.uniform(-1.0, 1.0, dom.node_shape)
    eps = 3e-2
    # the stencil's forward differences are np.diff's, bit for bit
    expect = (np.diff(values),) if dim == 1 else (
        np.diff(values, axis=0)[:, :-1], np.diff(values, axis=1)[:-1, :])
    diffs = _forward_differences(values)
    assert len(diffs) == dim
    for got, want in zip(diffs, expect):
        assert np.array_equal(got, want)
    full = _cell_density(values, dom.h, eps)
    cells = np.nonzero(rng.random(full.shape) < 0.3)
    anchor = values[cells]
    aheads = [values[tuple(c + s for c, s in zip(cells, d))] for d in np.eye(dim, dtype=int)]
    assert np.array_equal(_stencil_density(anchor, aheads, dom.h, eps), full[cells])
    assert np.array_equal(_stencil_density(anchor, aheads, h=dom.h), _cell_density(values, h=dom.h)[cells])
    assert np.array_equal(_stencil_density(anchor, aheads, epsilon=eps), _cell_density(values, epsilon=eps)[cells])
