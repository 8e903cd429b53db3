"""Projected descent, harmonic replacement, and the 1D sharp oracle."""

import dataclasses
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

import perimeter_phase as pp
from perimeter_phase import minimize
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


def _exact_nodes(dom):
    """Interior nodes whose cells (the one each anchors and those of its
    backward neighbours) all have full weight.  The gradient is the first
    variation of e_eps exactly there; next to the cut cells of a ball the
    clipped weights enter the energy but not the stencil."""
    exact = ~dom.boundary_mask
    if dom.dim == 2:
        full = np.zeros(dom.node_shape, dtype=bool)
        full[:-1, :-1] = dom.cell_weights == dom.h * dom.h
        exact &= full
        exact[1:, :] &= full[:-1, :]
        exact[:, 1:] &= full[:, :-1]
    return np.flatnonzero(exact)


_PROPERTY_DOMAINS = {
    "interval": lambda: pp.Domain.interval(-1.0, 1.0, 32),
    "box": lambda: pp.Domain.box(-1.0, 1.0, 12),
    "ball": lambda: pp.Domain.ball(1.0, 12),
}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    kind=st.sampled_from(sorted(_PROPERTY_DOMAINS)),
    seed=st.integers(0, 2**32 - 1),
    eps=st.floats(0.02, 0.5),
)
def test_energy_gradient_is_the_first_variation(kind, seed, eps):
    dom = _PROPERTY_DOMAINS[kind]()
    rng = np.random.default_rng(seed)
    root = math.sqrt(eps)
    # Values on both sides of the well's edges |u| = sqrt(eps).
    u = root * rng.uniform(-1.5, 1.5, dom.node_shape)
    g = pp.energy_gradient(u, dom, eps)
    assert np.all(g[dom.boundary_mask] == 0.0)
    assert not np.any(np.signbit(g[dom.boundary_mask]))

    def total(vals):
        return pp.e_eps(pp.PhaseState(pp.ScalarField(dom, vals), eps, 2.0)).total

    # e_eps is a polynomial of degree <= 4 in one node value as long as that
    # value stays off the kinks |u| = sqrt(eps) of w'', so the five-point
    # difference quotient is exact up to rounding in the sums.
    step = 1e-5
    away = np.abs(np.abs(u.ravel()) - root) > 1e-3
    candidates = np.intersect1d(_exact_nodes(dom), np.flatnonzero(away))
    cell_volume = dom.h**dom.dim
    for flat in rng.choice(candidates, size=min(5, candidates.size), replace=False):
        index = np.unravel_index(flat, dom.node_shape)
        values = []
        for k in (-2, -1, 1, 2):
            shifted = u.copy()
            shifted[index] += k * step
            values.append(total(shifted))
        numeric = (values[0] - 8.0 * values[1] + 8.0 * values[2] - values[3]) / (12.0 * step)
        assert numeric == pytest.approx(cell_volume * g[index], rel=1e-6, abs=1e-7)


# ---------------------------------------------------------------------------
# The projected descent with every pass out of place: the gradient, the
# projection, the energy and the well as plain formulas.  minimize_e_eps
# works in place and must reproduce these iterates bit for bit.


def _reference_w(t):
    inside = np.abs(t) <= 1.0
    return np.where(inside, (1.0 - t * t) ** 2, 0.0)


def _reference_w_prime(t):
    inside = np.abs(t) <= 1.0
    return np.where(inside, -4.0 * t * (1.0 - t * t), 0.0)


def _reference_gradient(values, domain, epsilon):
    h2 = domain.h * domain.h
    g = np.zeros_like(values)
    if domain.dim == 1:
        lap = (values[:-2] - 2.0 * values[1:-1] + values[2:]) / h2
        g[1:-1] = -2.0 * lap
    else:
        lap = (
            values[:-2, 1:-1]
            + values[2:, 1:-1]
            + values[1:-1, :-2]
            + values[1:-1, 2:]
            - 4.0 * values[1:-1, 1:-1]
        ) / h2
        g[1:-1, 1:-1] = -2.0 * lap
    g += _reference_w_prime(values / math.sqrt(epsilon)) / epsilon**1.5
    g[domain.boundary_mask] = 0.0
    return g


def _reference_cell_density(values, h, epsilon):
    if values.ndim == 1:
        anchor, aheads = values[:-1], (values[1:],)
    else:
        anchor, aheads = values[:-1, :-1], (values[1:, :-1], values[:-1, 1:])
    dens = None
    for ahead in aheads:
        grad = (ahead - anchor) / h
        dens = grad * grad if dens is None else dens + grad * grad
    return dens + _reference_w(anchor / math.sqrt(epsilon)) / epsilon


def _reference_project(values, bound_m, boundary_mask, boundary_values):
    out = np.clip(values, -bound_m, bound_m)
    out[boundary_mask] = boundary_values[boundary_mask]
    return out


def _reference_descent(initial, *, max_iters, tol_grad):
    domain = initial.domain
    epsilon = initial.epsilon
    bound_m = initial.bound_m
    boundary = domain.boundary_mask
    boundary_values = initial.values

    u = np.clip(initial.values.copy(), -bound_m, bound_m)
    u[boundary] = boundary_values[boundary]
    base_step = 0.9 * domain.h * domain.h / (4.0 * domain.dim)

    def total_energy(vals):
        dens = _reference_cell_density(vals, domain.h, epsilon)
        return float(np.sum(dens * domain.cell_weights))

    current = total_energy(u)
    energies = [current]
    for iterations in range(max_iters + 1):
        g = _reference_gradient(u, domain, epsilon)
        projected = _reference_project(u - g, bound_m, boundary, boundary_values)
        grad_sup = float(np.max(np.abs(u - projected)))
        converged = grad_sup <= tol_grad
        if converged or iterations == max_iters:
            break
        step = base_step
        for _ in range(minimize._MAX_HALVINGS + 1):
            trial = _reference_project(u - step * g, bound_m, boundary, boundary_values)
            trial_energy = total_energy(trial)
            if trial_energy <= current:
                break
            step *= 0.5
        else:
            raise NumericError("descent stalled")
        u = trial
        current = trial_energy
        energies.append(current)

    state = pp.PhaseState(pp.ScalarField(domain, u), epsilon, bound_m)
    return minimize.MinimizeResult(
        state=state,
        energies=np.asarray(energies),
        iterations=iterations,
        grad_sup=grad_sup,
        converged=converged,
    )


def _descent_case(name):
    """(initial state, stop rule keywords) of a named descent."""
    if name in ("zero", "linear"):
        dom = pp.Domain.interval(-1.0, 1.0, 512)
        vals = np.zeros(dom.node_shape) if name == "zero" else dom.nodes_x.copy()
        vals[0], vals[-1] = -1.0, 1.0
        state = pp.PhaseState(pp.ScalarField(dom, vals), 1e-2, 2.0)
        return state, dict(max_iters=1500, tol_grad=1e-4)
    if name == "bound_active":
        # sqrt(eps) = 0.3 > M = 0.2: the well pushes the state onto the bound,
        # the line search halves, and the descent converges.
        dom = pp.Domain.interval(-1.0, 1.0, 256)
        state = pp.PhaseState(pp.ScalarField(dom, 0.2 * dom.nodes_x), 0.09, 0.2)
        return state, dict(max_iters=3000, tol_grad=1e-5)
    # At n=98 rounding puts four array-edge nodes of the ball a few ulp
    # inside the circle; they are boundary nodes all the same.
    dom = {
        "box": lambda: pp.Domain.box(-1.0, 1.0, 48),
        "box_fortran": lambda: pp.Domain.box(-1.0, 1.0, 48),
        "ball": lambda: pp.Domain.ball(1.0, 48),
        "ball98": lambda: pp.Domain.ball(1.0, 98),
        "ball98_off_centre": lambda: pp.Domain.ball(1.0, 98, (0.1, 0.2)),
    }[name]()
    vals = np.clip(np.random.default_rng(3).normal(0.0, 0.5, dom.node_shape), -1.0, 1.0)
    # -0.0 entries: a sign flip of a zero would show in the bytes.  At this
    # eps the line search halves on some steps.
    vals[::7, ::5] = -0.0
    if name == "box_fortran":
        # ScalarField keeps the memory layout.  Boundary values a hair
        # above M are clipped by each projection, and the pin restores
        # them, so a pin lost on a Fortran-ordered buffer shows.
        vals[0, ::3] = 1.0 + 1e-13
        vals = np.asfortranarray(vals)
    state = pp.PhaseState(pp.ScalarField(dom, vals), 2e-3, 1.0)
    return state, dict(max_iters=300, tol_grad=1e-6)


@pytest.mark.parametrize(
    "name",
    ["zero", "linear", "bound_active", "box", "box_fortran", "ball", "ball98", "ball98_off_centre"],
)
def test_descent_is_bitwise_the_out_of_place_reference(name):
    initial, stop = _descent_case(name)
    before = initial.values.copy()
    result = pp.minimize_e_eps(initial, **stop)
    expected = _reference_descent(initial, **stop)
    assert result.state.values.tobytes() == expected.state.values.tobytes()
    assert result.energies.tobytes() == expected.energies.tobytes()
    assert result.grad_sup == expected.grad_sup
    assert result.iterations == expected.iterations
    assert result.converged == expected.converged
    assert initial.values.tobytes() == before.tobytes()
    if name == "bound_active":
        assert result.converged
        assert np.any(np.abs(result.state.values[1:-1]) == initial.bound_m)


@pytest.mark.parametrize("name", ["zero", "box", "ball", "ball98", "ball98_off_centre"])
def test_energy_gradient_is_bitwise_the_reference_formula(name):
    initial, _ = _descent_case(name)
    dom, u = initial.domain, initial.values
    for values in (u, np.asfortranarray(u), np.zeros_like(u), -np.zeros_like(u)):
        expected = _reference_gradient(values, dom, initial.epsilon).tobytes()
        g = pp.energy_gradient(values, dom, initial.epsilon)
        assert g.tobytes() == expected
        # Into a stale buffer of the same layout, from a precomputed w'.
        out = np.full_like(values, np.nan)
        prime = np.empty_like(values)
        pp.w(values / math.sqrt(initial.epsilon), prime=prime)
        assert pp.energy_gradient(
            values, dom, initial.epsilon, out=out, well_prime=prime
        ) is out
        assert out.tobytes() == expected


def test_sweep_is_bitwise_the_sweep_over_the_reference_descent(monkeypatch):
    dom = pp.Domain.interval(-1.0, 1.0, 1024)

    def sweep():
        return pp.continuation_sweep(
            dom, (1e-1, 1e-2, 1e-3), -1.0, 3.0, bound_m=3.0, tol_grad=1e-4, max_iters=200
        )

    entries = sweep()
    monkeypatch.setattr(minimize, "minimize_e_eps", _reference_descent)
    expected = sweep()
    assert len(entries) == len(expected) == 3
    for entry, ref in zip(entries, expected):
        assert entry.state.values.tobytes() == ref.state.values.tobytes()
        fields = ("epsilon", "energy", "tv", "interface", "l2_gap_to_oracle",
                  "phase_l1_gap", "iterations", "grad_sup", "converged")
        assert [getattr(entry, f) for f in fields] == [getattr(ref, f) for f in fields]


def test_minimize_rejects_a_bad_stop_rule_before_any_step(monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("a descent step was computed before the stop rule was checked")

    monkeypatch.setattr(minimize, "energy_gradient", work)
    dom = pp.Domain.interval(-1.0, 1.0, 64)
    state = pp.PhaseState(pp.ScalarField(dom, dom.nodes_x.copy()), 1e-2, 1.0)
    with pytest.raises(DomainError, match="max_iters must be nonnegative, got -1"):
        pp.minimize_e_eps(state, max_iters=-1)
    with pytest.raises(DomainError, match="tol_grad must be positive, got 0.0"):
        pp.minimize_e_eps(state, tol_grad=0.0)


def test_profile_initial_state_is_already_critical():
    # the saturated transition profile is a near-stationary point: descent
    # accepts it immediately at a modest tolerance and moves nothing
    eps = 0.1
    dom = pp.Domain.interval(-1.0, 1.0, 4096)
    vals = pp.transition_profile(eps, dom.nodes_x)
    state = pp.PhaseState(pp.ScalarField(dom, vals), eps, 1.0)
    result = pp.minimize_e_eps(state, max_iters=100, tol_grad=1e-3)
    assert result.converged
    assert result.iterations == 0
    assert np.array_equal(result.state.values, vals)


def test_descent_monotone_and_boundary_pinned():
    dom = pp.Domain.interval(-1.0, 1.0, 256)
    x = dom.nodes_x
    state = pp.PhaseState(pp.ScalarField(dom, x.copy()), 5e-2, 1.0)
    result = pp.minimize_e_eps(state, max_iters=2000, tol_grad=1e-4)
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
    result = pp.minimize_e_eps(state, max_iters=300)
    assert result.energies[-1] == pytest.approx(pp.e_eps(result.state).total, rel=1e-12)
    box = pp.Domain.box(-1.0, 1.0, 32)
    vals = np.clip(np.random.default_rng(5).normal(0.0, 0.3, box.node_shape), -0.9, 0.9)
    state = pp.PhaseState(pp.ScalarField(box, vals), 5e-2, 1.0)
    result = pp.minimize_e_eps(state, max_iters=50)
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
        result = pp.minimize_e_eps(state, max_iters=60000, tol_grad=1e-4)
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
    [
        pp.Domain.box(-1.0, 1.0, 64),
        pp.Domain.ball(1.0, 64),
        pp.Domain.ball(1.0, 98),
        pp.Domain.interval(-1.0, 1.0, 256),
    ],
    ids=["box64", "ball64", "ball98", "interval256"],
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


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    n=st.integers(8, 130),
    radius=st.floats(0.05, 5.0),
    cx=st.floats(-3.0, 3.0),
    cy=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=98, radius=1.0, cx=0.0, cy=0.0, seed=0)
@example(n=98, radius=0.7, cx=0.3, cy=-0.2, seed=1)
@example(n=8, radius=1.0, cx=0.0, cy=0.0, seed=2)
@example(n=130, radius=2.5, cx=-1.0, cy=0.5, seed=3)
def test_ball_harmonic_replacement_matches_independent_direct_solve(n, radius, cx, cy, seed):
    domain = pp.Domain.ball(radius, n, center=(cx, cy))
    vals = np.random.default_rng(seed).normal(0.0, 1.0, domain.node_shape)
    replaced = pp.harmonic_replacement(pp.ScalarField(domain, vals))
    interior = ~domain.boundary_mask
    assert replaced.values[~interior].tobytes() == vals[~interior].tobytes()
    expected = _independent_harmonic_interior(domain, vals)
    np.testing.assert_allclose(replaced.values[interior], expected, rtol=0.0, atol=1e-10)


def _reference_ball_laplace_solve(rhs, free):
    """The ball CG with its own direction array, copied into a zero-padded
    buffer before each stencil, and its first z formed before the loop."""
    keep = free.astype(float)
    padded = np.zeros(tuple(s + 2 for s in rhs.shape))
    x, q, r = np.zeros(rhs.shape), np.empty(rhs.shape), rhs * keep
    z = minimize._spectral_laplace_solve(r) * keep
    p = z.copy()
    rz, stop = float(np.sum(r * z)), 1e-12 * math.sqrt(np.sum(r * r))
    for _ in range(np.count_nonzero(free)):
        if not rz > 0.0 or math.sqrt(np.sum(r * r)) <= stop:
            break
        padded[1:-1, 1:-1] = p
        minimize._laplacian(padded, q)
        q *= -keep
        alpha = rz / float(np.sum(p * q))
        x += alpha * p
        r -= alpha * q
        z = minimize._spectral_laplace_solve(r) * keep
        rz, previous = float(np.sum(r * z)), rz
        p *= rz / previous
        p += z
    return x


def _ball_field(dom, kind):
    if kind == "positive":
        return random_positive_field(dom, np.random.Generator(np.random.Philox(dom.n)), 0.1)
    if kind == "zero":
        return pp.ScalarField(dom, np.zeros(dom.node_shape))
    # A recovered disc that crosses the ball's boundary, so the data change sign.
    cx, cy = dom.center
    disc = pp.Disc((cx + 0.5, cy), 0.7)
    pair = pp.SharpPair(pp.ScalarField(dom, np.zeros(dom.node_shape)), region=disc)
    return pp.build_recovery(pair, 2e-2)[0].field


@pytest.mark.parametrize("kind", ["positive", "recovered_disc", "zero"])
@pytest.mark.parametrize(
    "n, center",
    [(24, (0.0, 0.0)), (64, (0.0, 0.0)), (98, (0.0, 0.0)), (98, (0.1, 0.2)), (256, (0.0, 0.0))],
    ids=["ball24", "ball64", "ball98", "ball98_off_centre", "ball256"],
)
def test_ball_replacement_is_bitwise_the_reference_cg(monkeypatch, n, center, kind):
    field = _ball_field(pp.Domain.ball(1.0, n, center), kind)
    got = pp.harmonic_replacement(field).values
    monkeypatch.setattr(minimize, "_ball_laplace_solve", _reference_ball_laplace_solve)
    assert got.tobytes() == pp.harmonic_replacement(field).values.tobytes()


def _layouts(values):
    """values in C order, in Fortran order, and as an every-other-element view."""
    spread = np.full(tuple(2 * s for s in values.shape), np.nan)
    spread[::2, ::2] = values
    return {"C": values, "F": np.asfortranarray(values), "strided": spread[::2, ::2]}


def _bits(result):
    if isinstance(result, np.ndarray):
        return result.tobytes()
    floats = dataclasses.astuple(result) if dataclasses.is_dataclass(result) else (result,)
    return np.array(floats, dtype=float).tobytes()


def _layout_results(domain, values, epsilon):
    field = pp.ScalarField(domain, values)
    # ScalarField copies in order K, which makes a strided view C-contiguous;
    # the kernels get the view itself.
    field.values = values
    state = pp.PhaseState(field, epsilon, 1.0)
    descent = pp.minimize_e_eps(state, max_iters=30, tol_grad=1e-12)
    results = {
        "e_eps": pp.e_eps(state),
        "tv_phase": pp.tv_phase(state),
        "modica_mortola_split": pp.modica_mortola_split(state),
        "interface_length": pp.interface_length(values, domain),
        "interface_length_mask": pp.interface_length(values >= 0.0, domain),
        "energy_gradient": pp.energy_gradient(values, domain, epsilon),
        "harmonic_replacement": pp.harmonic_replacement(field).values,
        "descent_state": descent.state.values,
        "descent_energies": descent.energies,
        "sharp_energy": pp.sharp_energy(pp.extract_sharp_limit(state)),
    }
    return {name: _bits(result) for name, result in results.items()}


@settings(max_examples=8, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["box", "ball"]), seed=st.integers(0, 2**32 - 1))
def test_memory_layout_leaves_every_result_bitwise_unchanged(kind, seed):
    domain = pp.Domain.box(-1.0, 1.0, 64) if kind == "box" else pp.Domain.ball(1.0, 64)
    rng = np.random.default_rng(seed)
    values = np.clip(rng.normal(0.0, 0.5, domain.node_shape), -1.0, 1.0)
    values[rng.random(domain.node_shape) < 0.1] = -0.0
    runs = {name: _layout_results(domain, v, 2e-2) for name, v in _layouts(values).items()}
    for name in ("F", "strided"):
        for key, expected in runs["C"].items():
            assert runs[name][key] == expected, (name, key)


def _plain_neighbour_sum(values):
    if values.ndim == 1:
        return values[:-2] + values[2:]
    return ((values[:-2, 1:-1] + values[2:, 1:-1]) + values[1:-1, :-2]) + values[1:-1, 2:]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("negative_zero_share", [0.3, 1.0])
@pytest.mark.parametrize(
    "domain",
    [
        pp.Domain.interval(-1.0, 1.0, 2),
        pp.Domain.interval(-1.0, 1.0, 64),
        pp.Domain.box(-1.0, 1.0, 2),
        pp.Domain.box(-1.0, 1.0, 33),
        pp.Domain.ball(1.0, 40, center=(0.2, -0.1)),
    ],
    ids=["interval2", "interval64", "box2", "box33", "ball40"],
)
def test_laplacian_of_zeroed_interior_is_bitwise_the_neighbour_sum(
    domain, negative_zero_share, order
):
    # The harmonic right-hand side is the stencil of the field with its
    # interior set to +0.0; it must be the plain neighbour sum, -0.0 included.
    rng = np.random.default_rng(17)
    vals = rng.normal(0.0, 1.0, domain.node_shape)
    vals[rng.random(domain.node_shape) < negative_zero_share] = -0.0
    interior = ~domain.boundary_mask
    vals[interior] = 0.0
    vals = np.asarray(vals, order=order)
    inner = (slice(1, -1),) * domain.dim
    out = np.empty(vals[inner].shape)
    minimize._laplacian(vals, out)
    free = interior[inner]
    assert out[free].tobytes() == _plain_neighbour_sum(vals)[free].tobytes()


def _ball_fields(dom, count):
    return [
        random_positive_field(dom, np.random.Generator(np.random.Philox(seed)), 0.1)
        for seed in range(count)
    ]


def test_concurrent_ball_solves_equal_sequential_ones():
    fields = _ball_fields(pp.Domain.ball(1.0, 24), 4)
    start = threading.Barrier(len(fields))

    def replace(field):
        start.wait(timeout=10)
        return pp.harmonic_replacement(field)

    # More threads than cores, switching often, all solving at once.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(fields)) as pool:
            futures = [pool.submit(replace, f) for f in fields]
            concurrent = [f.result(timeout=30) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    sequential = [pp.harmonic_replacement(f) for f in fields]
    for c, s in zip(concurrent, sequential):
        assert c.values.tobytes() == s.values.tobytes()


def test_ball_with_zero_boundary_data_returns_exact_zeros():
    # r.z = 0 at the start, so CG stops before dividing 0 by 0
    dom = pp.Domain.ball(1.0, 32, center=(0.1, -0.2))
    replaced = pp.harmonic_replacement(pp.ScalarField(dom, np.zeros(dom.node_shape)))
    assert replaced.values.tobytes() == np.zeros(dom.node_shape).tobytes()


@pytest.mark.parametrize(
    "domain, fill",
    [
        (pp.Domain.interval(-1.0, 1.0, 16), np.inf),
        (pp.Domain.box(-1.0, 1.0, 16), np.inf),
        (pp.Domain.ball(1.0, 16), np.inf),
        (pp.Domain.interval(-1.0, 1.0, 16), np.nan),
        (pp.Domain.box(-1.0, 1.0, 16), np.nan),
        (pp.Domain.ball(1.0, 16), np.nan),
    ],
    ids=["interval", "box", "ball", "interval-nan", "box-nan", "ball-nan"],
)
def test_spectral_residual_guard_fires(monkeypatch, domain, fill):
    # Infinite eigenvalues give a zero solve, NaN ones a NaN solve.  A NaN
    # residual must fail the guard too, not reach ScalarField as a
    # non-finite field (a DomainError).  On balls a zero or NaN
    # preconditioner stops CG at once, leaving a zero interior.
    monkeypatch.setattr(
        minimize, "_stencil_eigenvalues", lambda m, dim: np.full((m,) * dim, fill)
    )
    field = pp.ScalarField(domain, np.ones(domain.node_shape))
    with pytest.raises(NumericError, match="residual"):
        pp.harmonic_replacement(field)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(["interval", "box"]),
    n=st.integers(2, 200),
    lo=st.floats(-3.0, 3.0),
    width=st.floats(0.01, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="interval", n=2, lo=-1.0, width=2.0, seed=0)
@example(kind="box", n=2, lo=-1.0, width=2.0, seed=1)
@example(kind="box", n=3, lo=0.5, width=0.25, seed=2)
@example(kind="box", n=199, lo=-2.0, width=7.0, seed=3)
@example(kind="box", n=200, lo=1.0, width=0.5, seed=4)
@example(kind="interval", n=201, lo=-0.5, width=3.0, seed=5)
def test_spectral_solve_matches_independent_direct_solve(kind, n, lo, width, seed):
    domain = (pp.Domain.interval if kind == "interval" else pp.Domain.box)(lo, lo + width, n)
    vals = np.random.default_rng(seed).normal(0.0, 1.0, domain.node_shape)
    replaced = pp.harmonic_replacement(pp.ScalarField(domain, vals))
    interior = ~domain.boundary_mask
    assert np.array_equal(replaced.values[~interior], vals[~interior])
    expected = _independent_harmonic_interior(domain, vals)
    np.testing.assert_allclose(replaced.values[interior], expected, rtol=0.0, atol=1e-10)


def test_sharp_oracle_closed_forms():
    sym = pp.sharp_oracle_1d(1.0, 1.0)
    assert sym.interface == pytest.approx(0.0, abs=1e-9)
    assert sym.energy == pytest.approx(2.0 + pp.C0, rel=1e-9)
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
        # closed form: interface (a - b) / (a + b), energy (a+b)^2/2 + C0
        x0 = (a - b) / (a + b)
        assert oracle.interface == pytest.approx(x0, abs=1e-6)
        assert oracle.energy == pytest.approx((a + b) ** 2 / 2.0 + pp.C0, rel=1e-9)
        # no interior candidate does better
        energies = (
            a * a / (xs[1:-1] + 1.0) + b * b / (1.0 - xs[1:-1]) + pp.C0
        )
        assert oracle.energy <= np.min(energies) + 1e-9
        # nor does any flat zero interval [x1, x2] with x1 <= x2
        flat = np.where(
            x1g <= x2g, a * a / (1.0 + x1g) + b * b / (1.0 - x2g) + pp.C0, np.inf
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
