"""Constrained descent for the diffuse energy, and exact discrete tools.

The descent is projected explicit gradient flow: the first variation of
the discrete energy at interior nodes is

    -2 * (discrete Laplacian) + w'(u / sqrt(eps)) / eps**(3/2),

which is exact for the forward-difference energy with anchor-node well
sampling on full-weight cells (not next to the cut cells of a ball).
Steps are clipped to the amplitude box [-M, M], boundary nodes stay
pinned, and a halving line search from the explicit stability step
0.9 h^2 / (4 dim) keeps the energy log, one entry per iterate,
non-increasing.  Stationarity is measured by the sup norm of the
projected gradient u - clip(u - g, -M, M).  A step works in place in
buffers allocated once per descent, in C order, and keeps the order of
the floating-point operations up to power-of-two rescalings and sign
flips, so iterates and logs are bitwise those of the plain out-of-place
formulas.  The well is evaluated once per iterate: each line-search
energy pass divides the whole grid by sqrt(eps) once and calls
potential.w with prime=, which writes w' from the same 1 - t^2, and the
accepted trial's w' feeds the next energy_gradient call.  The descent
calls energy_gradient once per iteration and potential.w once per energy
evaluation, both through their module attributes, so a tracer that
replaces those attributes counts iterations and line-search trials.

harmonic_replacement solves the discrete Laplace equation with the
field's boundary values.  On intervals and boxes, whose boundary is the
array edge, discrete sine transforms diagonalise the stencil and solve it
exactly with numpy's FFT; on balls, conjugate gradients preconditioned
by that solve do.  A sine-transform solve allocates one zero-padded
buffer, which its 2 dim passes share, and holds one spectrum at a time.
The descent and the solve share one stencil, _laplacian, the exact first
variation of the discrete Dirichlet sum, so the replacement is that sum's
unique minimizer among fields with those boundary values, and the
discrete minimum principle keeps it positive when the boundary is.

sharp_oracle_1d returns the closed-form minimizer of the 1D sharp
functional over single-interface candidates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from . import energy as energy_mod
from . import potential
from .energy import EnergyBreakdown, PhaseState, ScalarField
from .errors import DomainError, NumericError
from .geometry import Domain

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


def _laplacian(values: np.ndarray, out: np.ndarray) -> None:
    """Write h^2 times the 3- or 5-point Laplacian on the inner block into out.

    The order (a - 2b) + c in 1D and ((a1 + a2) + a3) + a4 - 4b in 2D makes
    it bitwise the plain neighbour sum where the centre b is +0.0.  out
    must not overlap values.
    """
    if values.ndim == 1:
        np.multiply(values[1:-1], 2.0, out)
        np.subtract(values[:-2], out, out)
        out += values[2:]
    else:
        np.add(values[:-2, 1:-1], values[2:, 1:-1], out)
        out += values[1:-1, :-2]
        out += values[1:-1, 2:]
        out -= 4.0 * values[1:-1, 1:-1]


def energy_gradient(
    values: np.ndarray,
    domain: Domain,
    epsilon: float,
    out: np.ndarray | None = None,
    well_prime: np.ndarray | None = None,
) -> np.ndarray:
    """First variation of the discrete energy per unit cell volume.

    Returns -2 * Laplacian(u) + w'(u / sqrt(eps)) / eps^(3/2) at interior
    nodes and zero on the boundary, written into out when given.  Every
    node on the edge of the array is a boundary node, so the inner block
    and the boundary cover g.  well_prime, when given, holds
    w'(u / sqrt(eps)) on the whole grid in place of a w_prime call; its
    inner block is divided by eps^(3/2) in place.
    """
    g = np.empty(values.shape) if out is None else out
    inner = (slice(1, -1),) * domain.dim
    lap = g[inner]
    _laplacian(values, lap)
    lap /= -0.5 * (domain.h * domain.h)  # -2 * (sum / h^2), bit for bit
    if well_prime is None:
        slope = potential.w_prime(values[inner] / math.sqrt(epsilon))
    else:
        slope = well_prime[inner]
    slope /= epsilon**1.5
    lap += slope
    np.copyto(g, 0.0, where=domain.boundary_mask)
    return g


def _project(values: np.ndarray, bound_m: float, flat, pinned) -> None:
    """Clip values to [-M, M] in place and write the pinned boundary values.

    put indexes the array in C order whatever its memory layout.
    """
    np.maximum(values, -bound_m, out=values)
    np.minimum(values, bound_m, out=values)
    values.put(flat, pinned)


def minimize_e_eps(initial: PhaseState, config: MinimizeConfig) -> MinimizeResult:
    """Projected descent from the initial state at its epsilon.

    Boundary nodes keep the initial state's values.  The recorded energy
    log is non-increasing; failure to decrease after 30 step halvings at
    a non-stationary point raises NumericError.
    """
    domain = initial.domain
    epsilon = initial.epsilon
    root_eps = math.sqrt(epsilon)
    bound_m = config.bound_m
    flat = np.flatnonzero(domain.boundary_mask)
    pinned = initial.values.ravel()[flat]

    # (u, trial) and (prime_u, prime_trial) swap on acceptance.  trial
    # holds u - P(u - g), then each trial; prime_u holds w'(u / sqrt(eps)),
    # written by the energy pass that accepted u.
    u = initial.values.copy(order="C")
    _project(u, bound_m, flat, pinned)
    trial, g, scaled, well, prime_u, prime_trial = (
        np.empty(u.shape, order="C") for _ in range(6)
    )
    dens = np.empty(domain.cell_weights.shape, order="C")
    well_anchor = energy_mod._cell_stencil(well)[0]
    base_step = 0.9 * domain.h * domain.h / (4.0 * domain.dim)

    def total_energy(vals: np.ndarray, prime: np.ndarray) -> float:
        """Energy of vals; writes w'(vals / sqrt(eps)) into prime."""
        np.divide(vals, root_eps, out=scaled)
        potential.w(scaled, out=well, prime=prime)
        anchor, aheads = energy_mod._cell_stencil(vals)
        energy_mod._stencil_density(anchor, aheads, domain.h, out=dens)
        np.divide(well_anchor, epsilon, out=well_anchor)
        np.add(dens, well_anchor, out=dens)
        return float(np.sum(np.multiply(dens, domain.cell_weights, out=dens)))

    current = total_energy(u, prime_u)
    energies = [current]
    # Each pass measures stationarity at the current iterate, whose index
    # is the number of steps taken; the last pass only measures.
    for iterations in range(config.max_iters + 1):
        energy_gradient(u, domain, epsilon, out=g, well_prime=prime_u)
        np.subtract(u, g, trial)
        _project(trial, bound_m, flat, pinned)
        np.subtract(u, trial, trial)
        grad_sup = float(np.max(np.abs(trial, trial)))
        converged = grad_sup <= config.tol_grad
        if converged or iterations == config.max_iters:
            break
        step = base_step
        for _ in range(_MAX_HALVINGS + 1):
            np.multiply(g, step, trial)
            np.subtract(u, trial, trial)
            _project(trial, bound_m, flat, pinned)
            trial_energy = total_energy(trial, prime_trial)
            if trial_energy <= current:
                break
            step *= 0.5
        else:
            raise NumericError(
                "descent stalled: no step of the line search decreased the "
                f"energy at projected-gradient sup {grad_sup:.3e}"
            )
        u, trial = trial, u
        prime_u, prime_trial = prime_trial, prime_u
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


# Process-wide and read-only: harmonic-check reads a grid's eigenvalues
# once per field and a ball solve once per CG step, on any pool worker.
# Keeps the four most recently used (m, dim) grids.
@functools.lru_cache(maxsize=4)
def _stencil_eigenvalues(m: int, dim: int) -> np.ndarray:
    """Eigenvalues of the stencil, times the ((m + 1) / 2)^dim of the inverse transform."""
    sines = np.sin(np.pi * np.arange(1, m + 1) / (2 * (m + 1)))
    lam = 4.0 * (0.5 * (m + 1)) ** dim * sines * sines
    eig = lam if dim == 1 else lam[:, None] + lam[None, :]
    eig.flags.writeable = False
    return eig


def _spectral_laplace_solve(rhs: np.ndarray) -> np.ndarray:
    """Solve the 3- or 5-point system A x = rhs on a whole interval or square.

    rhs holds the nodes of the inner block; it is not written.  The DST-I
    diagonalises the tridiagonal [-1, 2, -1] of each axis with eigenvalues
    4 sin^2(pi k / 2 (m + 1)), and applied twice it is (m + 1) / 2 times
    the identity (Buzbee, Golub & Nielson 1970).  Each of the 2 dim passes
    takes the negated DST-I of the last axis, the imaginary part of the
    real FFT of [0, x] zero-padded to 2 (m + 1), and transposes; the signs
    cancel in pairs.  The passes share one padded buffer, and each drops
    the previous spectrum before its FFT allocates the next.
    """
    m, dim = rhs.shape[0], rhs.ndim
    eig = _stencil_eigenvalues(m, dim)
    padded = np.zeros(rhs.shape[:-1] + (2 * (m + 1),))
    coef = rhs
    for k in range(2 * dim):
        padded[..., 1 : m + 1] = coef
        del coef  # a view of the previous spectrum, freed before the next
        coef = np.fft.rfft(padded).imag[..., 1 : m + 1].T
        if k == dim - 1:
            coef /= eig
    return coef


def _ball_laplace_solve(rhs: np.ndarray, free: np.ndarray) -> np.ndarray:
    """CG for the 5-point system A x = rhs on the free nodes of the inner block.

    A p is minus the stencil of p padded with zeros, masked to the free
    nodes; the preconditioner, the sine-transform solve masked alike, is
    a principal block of the box's inverse (Concus & Golub 1973).  Stops
    at residual 1e-12 of rhs, when r.z is not positive (zero data gives
    zeros) or after one step per free node.  Dots are numpy sums, which
    do not depend on BLAS threads.
    """
    keep = free.astype(float)
    padded = np.zeros(tuple(s + 2 for s in rhs.shape))
    x, q, r = np.zeros(rhs.shape), np.empty(rhs.shape), rhs * keep
    z = _spectral_laplace_solve(r) * keep
    p = z.copy()
    rz, stop = float(np.sum(r * z)), 1e-12 * math.sqrt(np.sum(r * r))
    for _ in range(np.count_nonzero(free)):
        if not rz > 0.0 or math.sqrt(np.sum(r * r)) <= stop:
            break
        padded[1:-1, 1:-1] = p
        _laplacian(padded, q)
        q *= -keep
        alpha = rz / float(np.sum(p * q))
        x += alpha * p
        r -= alpha * q
        z = _spectral_laplace_solve(r) * keep
        rz, previous = float(np.sum(r * z)), rz
        p *= rz / previous
        p += z
    return x


def harmonic_replacement(field: ScalarField) -> ScalarField:
    """Discrete Dirichlet minimizer with the field's boundary values.

    Solves the 3- or 5-point Laplace system on interior nodes: exactly by
    discrete sine transforms on intervals and boxes, whose boundary is the
    array edge, and on balls by CG preconditioned with that solve.  Both
    paths check the residual of the stencil on the assembled field; the
    result is the unique minimizer of the discrete Dirichlet sum over
    fields agreeing with the input on the boundary mask.
    """
    domain = field.domain
    inner = (slice(1, -1),) * domain.dim
    interior = ~domain.boundary_mask
    out = field.values.copy()
    out[interior] = 0.0
    # The right-hand side, and after the solve the residual.
    stencil = np.empty(out[inner].shape)
    _laplacian(out, stencil)
    # Every node on the array edge is boundary, so the interior nodes lie
    # in the inner block; on intervals and boxes they fill it.
    if domain.kind == "ball":
        free = interior[inner]
        out[inner][free] = _ball_laplace_solve(stencil, free)[free]
    else:
        free = ...
        out[inner] = _spectral_laplace_solve(stencil)
    rhs_norm = float(np.linalg.norm(stencil[free]))
    _laplacian(out, stencil)
    residual = float(np.linalg.norm(stencil[free]))
    if not residual <= 1e-8 * max(1.0, rhs_norm):
        raise NumericError(f"Laplace solve residual too large: {residual:.3e}")
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
    v, x = field.values, field.domain.nodes_x
    i = np.flatnonzero((v[:-1] >= 0.0) != (v[1:] >= 0.0))
    t = v[i] / (v[i] - v[i + 1])
    return x[i] + t * (x[i + 1] - x[i])


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
    tol_grad: float = MinimizeConfig.tol_grad,
    max_iters: int = MinimizeConfig.max_iters,
) -> List[SweepEntry]:
    """Descend at each scale in turn, warm-starting from the previous one.

    Boundary values are left_value at the left endpoint and right_value
    at the right (they must straddle zero); the first scale starts from
    the affine interpolant.  Entries carry distances to the sharp oracle
    with the matching boundary magnitudes.
    """
    if domain.dim != 1:
        raise DomainError("continuation sweeps run on interval domains")
    eps = energy_mod.epsilon_schedule(epsilons)
    if not (left_value < 0.0 < right_value):
        raise DomainError("boundary values must straddle zero")
    a_mag, b_mag = -left_value, right_value
    if max(a_mag, b_mag) > bound_m:
        raise DomainError(
            f"bound_m = {bound_m} clips the boundary values {left_value}, {right_value}"
        )
    oracle = sharp_oracle_1d(a_mag, b_mag)

    x = domain.nodes_x
    values = _affine_start(x, left_value, right_value)
    entries: List[SweepEntry] = []
    oracle_vals = oracle.value(x)
    sign_ref = np.where(x >= oracle.interface, 1.0, -1.0)
    config = MinimizeConfig(bound_m=bound_m, max_iters=max_iters, tol_grad=tol_grad)
    for e in eps:
        # ScalarField copies values, and the descent copies the field.
        result = minimize_e_eps(PhaseState(ScalarField(domain, values), e, bound_m), config)
        current = result.state
        values = current.values
        breakdown = energy_mod.e_eps(current)
        crossings = sign_change_locations(current.field)
        interface = float(crossings[0]) if crossings.size else math.nan
        l2 = energy_mod.l2_gap(values, oracle_vals, domain)
        phase = potential.h_tilde(values / math.sqrt(e))
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
