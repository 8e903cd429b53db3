"""Constrained descent for the diffuse energy, and exact discrete tools.

The descent is projected explicit gradient flow: the first variation of
the discrete energy at interior nodes is

    -2 * (discrete Laplacian) + w'(u / sqrt(eps)) / eps**(3/2),

which is exact for the forward-difference energy with anchor-node well
sampling.  Steps are clipped to the amplitude box [-M, M], boundary
nodes stay pinned, and a halving line search from the explicit stability
step 0.9 h^2 / (4 dim) keeps the energy log, one entry per iterate,
non-increasing.  Stationarity is measured by the sup norm of the
projected gradient u - clip(u - g, -M, M).

harmonic_replacement solves the discrete Laplace equation with the
field's boundary values by a sparse LU factor of the Laplace matrix,
kept for the last domain solved on; because the stencil is the exact first
variation of the discrete Dirichlet sum, the replacement is its unique
minimizer among fields with those boundary values, and the discrete
minimum principle keeps it positive when the boundary is.

sharp_oracle_1d returns the closed-form minimizer of the 1D sharp
functional over single-interface candidates.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.linalg import splu

from . import energy as energy_mod
from . import potential
from .energy import EnergyBreakdown, PhaseState, ScalarField
from .errors import DomainError, NumericError
from .geometry import Domain, domain_cache_key

_MAX_HALVINGS = 30


@dataclass
class MinimizeConfig:
    bound_m: float = 1.0
    max_iters: int = 200000
    tol_grad: float = 1e-5

    def __post_init__(self):
        if not (self.bound_m > 0):
            raise DomainError(f"bound_m must be positive, got {self.bound_m}")
        if self.max_iters < 0:
            raise DomainError(f"max_iters must be nonnegative, got {self.max_iters}")
        if not (self.tol_grad > 0):
            raise DomainError(f"tol_grad must be positive, got {self.tol_grad}")


@dataclass
class MinimizeResult:
    state: PhaseState
    energies: np.ndarray
    iterations: int
    grad_sup: float
    converged: bool


def energy_gradient(values: np.ndarray, domain: Domain, epsilon: float) -> np.ndarray:
    """First variation of the discrete energy per unit cell volume.

    Returns -2 * Laplacian(u) + w'(u / sqrt(eps)) / eps^(3/2) at interior
    nodes and zero on the boundary.
    """
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
    g += potential.w_prime(values / math.sqrt(epsilon)) / epsilon**1.5
    g[domain.boundary_mask] = 0.0
    return g


def _project(values: np.ndarray, bound_m: float, boundary_mask, boundary_values):
    out = np.clip(values, -bound_m, bound_m)
    out[boundary_mask] = boundary_values[boundary_mask]
    return out


def minimize_e_eps(initial: PhaseState, config: MinimizeConfig) -> MinimizeResult:
    """Projected descent from the initial state at its epsilon.

    Boundary nodes keep the initial state's values.  The recorded energy
    log is non-increasing; failure to decrease after 30 step halvings at
    a non-stationary point raises NumericError.
    """
    domain = initial.domain
    epsilon = initial.epsilon
    bound_m = config.bound_m
    boundary = domain.boundary_mask
    boundary_values = initial.values

    u = np.clip(initial.values.copy(), -bound_m, bound_m)
    u[boundary] = boundary_values[boundary]
    base_step = 0.9 * domain.h * domain.h / (4.0 * domain.dim)

    def total_energy(vals: np.ndarray) -> float:
        dens = energy_mod._cell_density(vals, domain.h, epsilon)
        return float(np.sum(dens * domain.cell_weights))

    current = total_energy(u)
    energies = [current]
    # Each pass measures stationarity at the current iterate, whose index
    # is the number of steps taken; the last pass only measures.
    for iterations in range(config.max_iters + 1):
        g = energy_gradient(u, domain, epsilon)
        projected = _project(u - g, bound_m, boundary, boundary_values)
        grad_sup = float(np.max(np.abs(u - projected)))
        converged = grad_sup <= config.tol_grad
        if converged or iterations == config.max_iters:
            break
        step = base_step
        for _ in range(_MAX_HALVINGS + 1):
            trial = _project(u - step * g, bound_m, boundary, boundary_values)
            trial_energy = total_energy(trial)
            if trial_energy <= current:
                break
            step *= 0.5
        else:
            raise NumericError(
                "descent stalled: no step of the line search decreased the "
                f"energy at projected-gradient sup {grad_sup:.3e}"
            )
        u = trial
        current = trial_energy
        energies.append(current)

    state = PhaseState(ScalarField(domain, u), epsilon, bound_m)
    return MinimizeResult(
        state=state,
        energies=np.asarray(energies),
        iterations=iterations,
        grad_sup=grad_sup,
        converged=converged,
    )


# Holds the system of the last domain solved on, keyed by domain.  A
# factor can hold hundreds of MB (about 260 MB for a ball with n=512), so
# a new domain replaces the cached one.
_LAPLACE_CACHE: dict = {}
_LAPLACE_LOCK = threading.Lock()


def _build_laplace_system(domain: Domain):
    interior = ~domain.boundary_mask
    m = int(interior.sum())
    idx = -np.ones(domain.node_shape, dtype=np.int64)
    idx[interior] = np.arange(m)
    coords = np.argwhere(interior)
    offsets = ((-1,), (1,)) if domain.dim == 1 else ((-1, 0), (1, 0), (0, -1), (0, 1))

    rows_a = [np.arange(m)]
    cols_a = [np.arange(m)]
    vals_a = [np.full(m, 2.0 * domain.dim)]
    rows_b = []
    flats_b = []
    # Interior nodes of the supported domains never sit on the array edge
    # (edge nodes are flagged boundary), so neighbor indices stay in-grid.
    for off in offsets:
        nb = coords + np.asarray(off)
        j = idx[tuple(nb.T)]
        into_interior = j >= 0
        rows_a.append(np.arange(m)[into_interior])
        cols_a.append(j[into_interior])
        vals_a.append(np.full(int(into_interior.sum()), -1.0))
        rows_b.append(np.arange(m)[~into_interior])
        flats_b.append(np.ravel_multi_index(nb[~into_interior].T, domain.node_shape))

    a = csc_matrix(
        (np.concatenate(vals_a), (np.concatenate(rows_a), np.concatenate(cols_a))),
        shape=(m, m),
    )
    rows_b = np.concatenate(rows_b)
    coupling = csr_matrix(
        (np.ones(rows_b.size), (rows_b, np.concatenate(flats_b))),
        shape=(m, interior.size),
    )
    # A is symmetric positive definite, so no pivoting is needed and a
    # symmetric ordering keeps the factor small.
    factor = splu(
        a,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )
    return a, coupling, interior, factor


def _laplace_system(domain: Domain):
    """Cached interior Laplace system of a domain, built once per domain.

    Returns (matrix A, boundary coupling B, interior mask, LU factor of
    A): the interior values of the harmonic extension of node values g
    solve A x = B @ g.ravel().  Only the last domain's system is kept; it
    is read and replaced under a lock, so concurrent first calls build the
    system once.
    """
    key = domain_cache_key(domain)
    with _LAPLACE_LOCK:
        system = _LAPLACE_CACHE.get(key)
        if system is None:
            _LAPLACE_CACHE.clear()
            system = _LAPLACE_CACHE[key] = _build_laplace_system(domain)
    return system


def harmonic_replacement(field: ScalarField) -> ScalarField:
    """Discrete Dirichlet minimizer with the field's boundary values.

    Solves the 3- or 5-point Laplace system on interior nodes with the
    domain's cached sparse LU factor and checks the residual; the result
    is the unique minimizer of the discrete Dirichlet sum over fields
    agreeing with the input on the boundary mask.
    """
    domain = field.domain
    a, coupling, interior, factor = _laplace_system(domain)
    values = field.values
    b = coupling @ values.ravel()
    solution = factor.solve(b)
    residual = float(np.linalg.norm(a @ solution - b))
    if residual > 1e-8 * max(1.0, float(np.linalg.norm(b))):
        raise NumericError(f"Laplace solve residual too large: {residual:.3e}")

    out = values.copy()
    out[interior] = solution
    return ScalarField(domain, out)


@dataclass(frozen=True)
class OracleResult1D:
    interface: float
    energy: float
    knot_x: np.ndarray
    knot_y: np.ndarray

    def value(self, x):
        return np.interp(np.asarray(x, dtype=float), self.knot_x, self.knot_y)


def sharp_oracle_1d(a: float, b: float) -> OracleResult1D:
    """Minimize the 1D sharp energy with boundary values -a and +b.

    Candidates are piecewise affine: zero at a single interface point x0,
    affine to the boundary values, plus one interface cost, with energy
    a^2 / (1 + x0) + b^2 / (1 - x0) + cost; a flat zero interval between
    two points only adds Dirichlet energy.  The minimum is the closed form
    x0 = (a - b) / (a + b), energy = (a + b)^2 / 2 + interface cost.
    """
    if not (a > 0 and b > 0):
        raise DomainError(f"boundary magnitudes must be positive, got {a}, {b}")
    x0 = (a - b) / (a + b)
    return OracleResult1D(
        interface=x0,
        energy=0.5 * (a + b) ** 2 + potential.C0,
        knot_x=np.array([-1.0, x0, 1.0]),
        knot_y=np.array([-a, 0.0, b]),
    )


def extract_sharp_limit(state: PhaseState) -> energy_mod.SharpPair:
    """Sharp pair read off a diffuse state: the set is {u >= 0}."""
    mask = state.values >= 0.0
    return energy_mod.SharpPair(field=state.field, mask=mask, bound_m=state.bound_m)


def sign_change_locations(field: ScalarField) -> np.ndarray:
    """Linearly interpolated zero crossings of a 1D field."""
    if field.domain.dim != 1:
        raise DomainError("sign changes are only located on 1D grids")
    v = field.values
    x = field.domain.nodes_x
    inside = v >= 0.0
    flips = np.nonzero(inside[:-1] != inside[1:])[0]
    out = []
    for i in flips:
        t = v[i] / (v[i] - v[i + 1])
        out.append(x[i] + t * (x[i + 1] - x[i]))
    return np.asarray(out)


def _affine_start(x: np.ndarray, left: float, right: float) -> np.ndarray:
    """Affine interpolant of the boundary values on nodes x, exact at both ends.

    left + (right - left) * 1 can round one ULP away from right, so the
    endpoints are set afterwards.
    """
    vals = left + (right - left) * (x - x[0]) / (x[-1] - x[0])
    vals[0], vals[-1] = left, right
    return vals


@dataclass(frozen=True)
class SweepEntry:
    epsilon: float
    energy: EnergyBreakdown
    tv: float
    interface: float
    l2_gap_to_oracle: float
    phase_l1_gap: float
    iterations: int
    grad_sup: float
    converged: bool
    state: PhaseState


def continuation_sweep(
    domain: Domain,
    epsilons: Sequence[float],
    left_value: float,
    right_value: float,
    bound_m: float,
    tol_grad: float = 1e-5,
    max_iters: int = 200000,
) -> List[SweepEntry]:
    """Descend at each scale in turn, warm-starting from the previous one.

    Boundary values are left_value at the left endpoint and right_value
    at the right (they must straddle zero); the first scale starts from
    the affine interpolant.  Entries carry distances to the sharp oracle
    with the matching boundary magnitudes.
    """
    if domain.dim != 1:
        raise DomainError("continuation sweeps run on interval domains")
    eps = [float(e) for e in epsilons]
    if not eps or any(e <= 0 for e in eps) or any(
        b >= a for a, b in zip(eps, eps[1:])
    ):
        raise DomainError("epsilons must be positive and strictly decreasing")
    if not (left_value < 0.0 < right_value):
        raise DomainError("boundary values must straddle zero")
    a_mag, b_mag = -left_value, right_value
    if max(a_mag, b_mag) > bound_m:
        raise DomainError(
            f"bound_m = {bound_m} clips the boundary values {left_value}, {right_value}"
        )
    oracle = sharp_oracle_1d(a_mag, b_mag)

    x = domain.nodes_x
    u0 = _affine_start(x, left_value, right_value)
    current = PhaseState(ScalarField(domain, u0), eps[0], bound_m)
    entries: List[SweepEntry] = []
    oracle_vals = oracle.value(x)
    for e in eps:
        current = PhaseState(ScalarField(domain, current.values.copy()), e, bound_m)
        result = minimize_e_eps(
            current,
            MinimizeConfig(bound_m=bound_m, max_iters=max_iters, tol_grad=tol_grad),
        )
        current = result.state
        breakdown = energy_mod.e_eps(current)
        crossings = sign_change_locations(current.field)
        interface = float(crossings[0]) if crossings.size else math.nan
        l2 = energy_mod.l2_gap(current.values, oracle_vals, domain)
        phase = potential.h_tilde(current.values / math.sqrt(e))
        sign_ref = np.where(x >= oracle.interface, 1.0, -1.0)
        phase_l1 = energy_mod.l1_gap(phase, sign_ref, domain)
        entries.append(
            SweepEntry(
                epsilon=e,
                energy=breakdown,
                tv=energy_mod.tv_phase(current),
                interface=interface,
                l2_gap_to_oracle=l2,
                phase_l1_gap=phase_l1,
                iterations=result.iterations,
                grad_sup=result.grad_sup,
                converged=result.converged,
                state=current,
            )
        )
    return entries
