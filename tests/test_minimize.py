"""Projected descent, harmonic replacement, and the 1D sharp oracle."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

import perimeter_phase as pp
from perimeter_phase import geometry, minimize
from perimeter_phase.cli import random_positive_field
from perimeter_phase.errors import DomainError, NumericError


def test_energy_gradient_matches_difference_quotient():
    dom = pp.Domain.interval(-1.0, 1.0, 16)
    rng = np.random.default_rng(71)
    u = np.clip(rng.normal(0.0, 0.2, dom.node_shape), -0.8, 0.8)
    eps = 5e-2
    g = pp.energy_gradient(u, dom, eps)

    def total(vals):
        return pp.e_eps(pp.PhaseState(pp.ScalarField(dom, vals), eps, 1.0)).total

    step = 1e-7
    for i in (1, 5, 8, 14):
        plus = u.copy()
        minus = u.copy()
        plus[i] += step
        minus[i] -= step
        numeric = (total(plus) - total(minus)) / (2.0 * step)
        assert numeric == pytest.approx(dom.h * g[i], rel=1e-5, abs=1e-8)
    assert g[0] == 0.0 and g[-1] == 0.0


def test_energy_gradient_2d_boundary_zero():
    dom = pp.Domain.box(-1.0, 1.0, 16)
    rng = np.random.default_rng(73)
    u = np.clip(rng.normal(0.0, 0.2, dom.node_shape), -0.8, 0.8)
    g = pp.energy_gradient(u, dom, 5e-2)
    assert np.all(g[dom.boundary_mask] == 0.0)
    assert np.any(g[~dom.boundary_mask] != 0.0)


def test_minimize_config_validation():
    with pytest.raises(DomainError):
        pp.MinimizeConfig(bound_m=0.0)
    with pytest.raises(DomainError):
        pp.MinimizeConfig(bound_m=1.0, max_iters=-1)
    with pytest.raises(DomainError):
        pp.MinimizeConfig(bound_m=1.0, tol_grad=0.0)


def test_profile_initial_state_is_already_critical():
    # the saturated transition profile is a near-stationary point: descent
    # accepts it immediately at a modest tolerance and moves nothing
    eps = 0.1
    dom = pp.Domain.interval(-1.0, 1.0, 4096)
    vals = pp.transition_profile(eps, dom.nodes_x)
    state = pp.PhaseState(pp.ScalarField(dom, vals), eps, 1.0)
    result = pp.minimize_e_eps(
        state, pp.MinimizeConfig(bound_m=1.0, max_iters=100, tol_grad=1e-3)
    )
    assert result.converged
    assert result.iterations == 0
    assert np.array_equal(result.state.values, vals)


def test_descent_monotone_and_boundary_pinned():
    dom = pp.Domain.interval(-1.0, 1.0, 256)
    x = dom.nodes_x
    state = pp.PhaseState(pp.ScalarField(dom, x.copy()), 5e-2, 1.0)
    result = pp.minimize_e_eps(
        state, pp.MinimizeConfig(bound_m=1.0, max_iters=2000, tol_grad=1e-4)
    )
    energies = result.energies
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    assert result.state.values[0] == -1.0
    assert result.state.values[-1] == 1.0
    assert np.max(np.abs(result.state.values)) <= 1.0
    # descent did strictly better than the affine initial state
    assert energies[-1] < energies[0]


def test_recorded_energy_is_the_final_state_energy():
    dom = pp.Domain.interval(-1.0, 1.0, 256)
    state = pp.PhaseState(pp.ScalarField(dom, dom.nodes_x.copy()), 5e-2, 1.0)
    result = pp.minimize_e_eps(state, pp.MinimizeConfig(bound_m=1.0, max_iters=300))
    assert result.energies[-1] == pytest.approx(pp.e_eps(result.state).total, rel=1e-12)
    box = pp.Domain.box(-1.0, 1.0, 32)
    vals = np.clip(np.random.default_rng(5).normal(0.0, 0.3, box.node_shape), -0.9, 0.9)
    state = pp.PhaseState(pp.ScalarField(box, vals), 5e-2, 1.0)
    result = pp.minimize_e_eps(state, pp.MinimizeConfig(bound_m=1.0, max_iters=50))
    assert result.energies[-1] == pytest.approx(pp.e_eps(result.state).total, rel=1e-12)


def test_zero_and_linear_inits_agree():
    # the relaxed energies agree and the zero start locates the interface
    # at the midpoint by symmetry
    dom = pp.Domain.interval(-1.0, 1.0, 512)
    eps = 1e-2
    totals = {}
    for name in ("zero", "linear"):
        vals = np.zeros_like(dom.nodes_x) if name == "zero" else dom.nodes_x.copy()
        vals[0], vals[-1] = -1.0, 1.0
        state = pp.PhaseState(pp.ScalarField(dom, vals), eps, 2.0)
        result = pp.minimize_e_eps(
            state, pp.MinimizeConfig(bound_m=2.0, max_iters=60000, tol_grad=1e-4)
        )
        totals[name] = pp.e_eps(result.state).total
        crossings = pp.sign_change_locations(result.state.field)
        assert len(crossings) == 1
        assert abs(crossings[0]) <= 1e-6
    assert abs(totals["zero"] - totals["linear"]) / totals["linear"] <= 5e-3


def test_harmonic_replacement_1d_straightens():
    dom = pp.Domain.interval(-1.0, 1.0, 128)
    field = pp.ScalarField(dom, np.abs(dom.nodes_x))
    replaced = pp.harmonic_replacement(field)
    # harmonic in 1D with boundary values 1, 1 is the constant 1
    assert np.allclose(replaced.values, 1.0, atol=1e-9)
    assert pp.dirichlet_energy(replaced) <= 1e-16


def test_harmonic_replacement_is_dirichlet_minimizer():
    dom = pp.Domain.box(-1.0, 1.0, 32)
    rng = np.random.default_rng(79)
    vals = rng.normal(0.0, 1.0, dom.node_shape)
    field = pp.ScalarField(dom, vals)
    replaced = pp.harmonic_replacement(field)
    # boundary kept
    assert np.array_equal(
        replaced.values[dom.boundary_mask], vals[dom.boundary_mask]
    )
    base = pp.dirichlet_energy(replaced)
    assert base <= pp.dirichlet_energy(field)
    # any competitor with the same boundary pays at least as much
    for seed in range(5):
        bump_rng = np.random.default_rng(100 + seed)
        bump = bump_rng.normal(0.0, 0.05, dom.node_shape)
        bump[dom.boundary_mask] = 0.0
        competitor = pp.ScalarField(dom, replaced.values + bump)
        assert pp.dirichlet_energy(competitor) >= base - 1e-12


def test_harmonic_replacement_positive_data_positive_output():
    dom = pp.Domain.box(-1.0, 1.0, 32)
    field = random_positive_field(dom, np.random.Generator(np.random.Philox(7)), 0.1)
    assert np.all(field.values > 0.0)
    replaced = pp.harmonic_replacement(field)
    assert np.all(replaced.values > 0.0)


def _independent_harmonic_interior(domain, values):
    """Interior values of the harmonic extension, by spsolve on the
    interior block of a full-grid 3- or 5-point matrix built from kron."""
    n1 = domain.node_shape[0]
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n1, n1))
    if domain.dim == 1:
        lap = t.tocsr()
    else:
        eye = sp.identity(n1)
        lap = (sp.kron(t, eye) + sp.kron(eye, t)).tocsr()
    inner = np.flatnonzero(~domain.boundary_mask.ravel())
    outer = np.flatnonzero(domain.boundary_mask.ravel())
    a = lap[inner][:, inner].tocsc()
    rhs = -(lap[inner][:, outer] @ values.ravel()[outer])
    return spsolve(a, rhs)


@pytest.mark.parametrize(
    "domain",
    [pp.Domain.box(-1.0, 1.0, 64), pp.Domain.ball(1.0, 64), pp.Domain.interval(-1.0, 1.0, 256)],
    ids=["box64", "ball64", "interval256"],
)
def test_harmonic_replacement_matches_independent_direct_solve(domain):
    rng = np.random.default_rng(83)
    vals = rng.normal(0.0, 1.0, domain.node_shape)
    field = pp.ScalarField(domain, vals)
    replaced = pp.harmonic_replacement(field)
    interior = ~domain.boundary_mask
    expected = _independent_harmonic_interior(domain, vals)
    assert np.array_equal(replaced.values[~interior], vals[~interior])
    np.testing.assert_allclose(replaced.values[interior], expected, rtol=0.0, atol=1e-10)
    reference = vals.copy()
    reference[interior] = expected
    assert pp.dirichlet_energy(replaced) == pytest.approx(
        pp.dirichlet_energy(pp.ScalarField(domain, reference)), rel=1e-12
    )


def test_laplace_system_built_once_under_concurrent_first_calls(monkeypatch):
    dom = pp.Domain.box(-1.0, 1.0, 24)
    fields = [
        random_positive_field(dom, np.random.Generator(np.random.Philox(seed)), 0.1)
        for seed in range(4)
    ]
    builds = []
    real_build = minimize._build_laplace_system

    def slow_build(domain):
        builds.append(domain)
        time.sleep(0.05)
        return real_build(domain)

    monkeypatch.setattr(minimize, "_build_laplace_system", slow_build)
    monkeypatch.setattr(minimize, "_LAPLACE_CACHE", {})
    start = threading.Barrier(len(fields))

    def replace(field):
        start.wait(timeout=10)
        return pp.harmonic_replacement(field)

    # More threads than cores, switching often, all missing the cache at once.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(fields)) as pool:
            futures = [pool.submit(replace, f) for f in fields]
            concurrent = [f.result(timeout=30) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(builds) == 1

    monkeypatch.setattr(minimize, "_LAPLACE_CACHE", {})
    sequential = [pp.harmonic_replacement(f) for f in fields]
    assert len(builds) == 2
    for c, s in zip(concurrent, sequential):
        assert np.array_equal(c.values, s.values)


def test_laplace_cache_keeps_only_the_last_domain(monkeypatch):
    builds = []

    def counting_build(domain):
        builds.append(domain)
        return object()

    monkeypatch.setattr(minimize, "_build_laplace_system", counting_build)
    monkeypatch.setattr(minimize, "_LAPLACE_CACHE", {})
    first, second = (pp.Domain.interval(-1.0, 1.0, n) for n in (8, 9))
    system = minimize._laplace_system(first)
    assert minimize._laplace_system(first) is system
    assert len(builds) == 1

    # A new domain replaces the cached system instead of adding to it.
    minimize._laplace_system(second)
    assert len(builds) == 2
    assert list(minimize._LAPLACE_CACHE) == [geometry.domain_cache_key(second)]
    assert minimize._laplace_system(first) is not system
    assert len(builds) == 3


def test_harmonic_replacement_residual_guard_fires(monkeypatch):
    dom = pp.Domain.box(-1.0, 1.0, 16)
    a, coupling, interior, _ = minimize._laplace_system(dom)
    zero_factor = SimpleNamespace(solve=lambda b: np.zeros_like(b))
    monkeypatch.setitem(
        minimize._LAPLACE_CACHE,
        geometry.domain_cache_key(dom),
        (a, coupling, interior, zero_factor),
    )
    field = pp.ScalarField(dom, np.ones(dom.node_shape))
    with pytest.raises(NumericError, match="residual"):
        pp.harmonic_replacement(field)


def test_sharp_oracle_closed_forms():
    sym = pp.sharp_oracle_1d(1.0, 1.0)
    assert sym.interface == pytest.approx(0.0, abs=1e-9)
    assert sym.energy == pytest.approx(2.0 + pp.c0(), rel=1e-9)
    assert sym.energy == pytest.approx(14.0 / 3.0, rel=1e-9)
    asym = pp.sharp_oracle_1d(1.0, 3.0)
    assert asym.interface == pytest.approx(-0.5, abs=1e-9)
    assert asym.energy == pytest.approx(32.0 / 3.0, rel=1e-9)
    # oracle curve interpolates the three knots
    assert asym.value(-1.0) == pytest.approx(-1.0)
    assert asym.value(asym.interface) == pytest.approx(0.0, abs=1e-12)
    assert asym.value(1.0) == pytest.approx(3.0)


def test_sharp_oracle_matches_brute_force_scan():
    rng = np.random.default_rng(89)
    xs = np.linspace(-1.0, 1.0, 20001)
    grid = np.linspace(-0.999, 0.999, 201)
    x1g, x2g = np.meshgrid(grid, grid, indexing="ij")
    for _ in range(50):
        a = float(rng.uniform(0.2, 3.0))
        b = float(rng.uniform(0.2, 3.0))
        oracle = pp.sharp_oracle_1d(a, b)
        # closed form: interface (a - b) / (a + b), energy (a+b)^2/2 + c0
        x0 = (a - b) / (a + b)
        assert oracle.interface == pytest.approx(x0, abs=1e-6)
        assert oracle.energy == pytest.approx((a + b) ** 2 / 2.0 + pp.c0(), rel=1e-9)
        # no interior candidate does better
        energies = (
            a * a / (xs[1:-1] + 1.0) + b * b / (1.0 - xs[1:-1]) + pp.c0()
        )
        assert oracle.energy <= np.min(energies) + 1e-9
        # nor does any flat zero interval [x1, x2] with x1 <= x2
        flat = np.where(
            x1g <= x2g, a * a / (1.0 + x1g) + b * b / (1.0 - x2g) + pp.c0(), np.inf
        )
        assert float(flat.min()) >= oracle.energy - 1e-9


def test_sharp_oracle_rejects_bad_boundary():
    with pytest.raises(DomainError):
        pp.sharp_oracle_1d(0.0, 1.0)
    with pytest.raises(DomainError):
        pp.sharp_oracle_1d(1.0, -2.0)


def test_extract_sharp_limit_and_sign_changes():
    dom = pp.Domain.interval(-1.0, 1.0, 512)
    eps = 1e-2
    vals = pp.transition_profile(eps, dom.nodes_x - 0.25)
    state = pp.PhaseState(pp.ScalarField(dom, vals), eps, 1.0)
    pair = pp.extract_sharp_limit(state)
    assert np.array_equal(pair.node_mask(), vals >= 0.0)
    crossings = pp.sign_change_locations(state.field)
    assert len(crossings) == 1
    assert crossings[0] == pytest.approx(0.25, abs=1e-6)


def test_continuation_sweep_small():
    dom = pp.Domain.interval(-1.0, 1.0, 1024)
    entries = pp.continuation_sweep(
        dom, (1e-1, 3e-2), -1.0, 1.0, bound_m=2.0, tol_grad=1e-4, max_iters=4000
    )
    assert [e.epsilon for e in entries] == [1e-1, 3e-2]
    for entry in entries:
        assert entry.energy.total > 0.0
        assert abs(entry.interface) <= 0.05
        assert entry.l2_gap_to_oracle < 0.5
        assert entry.iterations <= 4000
    # energies increase toward the sharp value as the scale shrinks
    assert entries[0].energy.total < entries[1].energy.total


@pytest.mark.parametrize("right", [3.291, 3.437])
def test_continuation_sweep_keeps_exact_boundary_values(right):
    # -1 + (right + 1) rounds one ULP above these right values
    dom = pp.Domain.interval(-1.0, 1.0, 64)
    entries = pp.continuation_sweep(dom, (1e-1, 3e-2), -1.0, right, right, max_iters=5)
    for entry in entries:
        assert entry.state.values[0] == -1.0
        assert entry.state.values[-1] == right


def test_continuation_sweep_validation():
    dom = pp.Domain.interval(-1.0, 1.0, 256)
    with pytest.raises(DomainError):
        pp.continuation_sweep(dom, (), -1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        pp.continuation_sweep(dom, (1e-2, 1e-1), -1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        pp.continuation_sweep(dom, (1e-1,), 0.5, 1.0, 1.0)  # no straddle
    with pytest.raises(DomainError):
        pp.continuation_sweep(dom, (1e-1,), -1.0, 3.0, 1.0)  # bound too small
    box = pp.Domain.box(-1.0, 1.0, 64)
    with pytest.raises(DomainError):
        pp.continuation_sweep(box, (1e-1,), -1.0, 1.0, 2.0)
