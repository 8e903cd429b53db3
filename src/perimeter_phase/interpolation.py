"""Gluing states across an annulus, and barrier competitors.

Gluing joins an inner state v and an outer state u, which share one
amplitude bound M, across the annulus rho < |x| < rho + delta with a
steep radial ramp: a sloped profile of |x| - r with tail slope
theta = 16 M / delta.  The profile's slope is at least theta everywhere
and its value at 0 is 0, so within an eighth of the annulus width it
reaches theta * delta / 8 = 2 M >= M: the ramp saturates to +/- M there
for every eps, delta and M.  When u >= v everywhere a single composition
min(u, max(v, ramp)) suffices; otherwise the join runs in two stages
through the pointwise minimum, each on half the annulus with the ramp
of that width.  The ramp radius r is chosen from a scan of candidates in
[rho + delta/8, rho + delta/4] minimizing the ramp energy on the set
where the ramp lies strictly between the two states; the glued energy
then exceeds the two restricted energies by at most that amount, and the
construction verifies the final budget directly, against restricted
energies summed before any composition array exists.

The ramp is evaluated only on its transition band |x| - r within
reach = crossing_time + (bound - sqrt(eps))+ / tail_slope + h of r, where
bound is the largest |value| of the two states.  The profile's tail is
exactly linear, so past reach the ramp exceeds bound by tail_slope * h:
no state value lies beyond it, a cell outside the band is never in the
sandwich, and the composition there equals the one with the ramp at
+/- infinity, formed with no ramp grid.  The scan also skips every cell
where the two states do not differ in the ramp's direction (anchor
values lo >= hi): no ramp lies strictly between them there, so the cell
adds an exact +0.0 at every candidate.  Saturated states that agree
across the annulus leave no cell to scan, every scan energy is 0 and r
is the first candidate.  Scan energies and glued values are bitwise
those of the ramp evaluated everywhere.

Barriers are radial competitors matching a prescribed boundary plateau:
a tent that rises to M across the span between the interface sphere
|x| = R and the domain boundary, composed with the standard transition
profile of the signed distance to the sphere, shifted so the transition
band carries pure profile energy.  Their energy admits the closed-form
bound (interface cost) * (sphere area) + (tent Dirichlet energy) + 1 at
feasible scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import energy as energy_mod
from . import potential
from .energy import EnergyBreakdown, PhaseState, ScalarField
from .errors import BudgetExceededError, DomainError, NumericError
from .geometry import Complement, Disc, Domain, IntervalUnion, Region
from .profiles1d import (
    SlopedProfile,
    sloped_profile,
    splice_profile,
    tail_well_sup,
    transition_halfwidth,
    transition_profile,
)

_SCAN_CANDIDATES = 32
_BUDGET_SLACK = 1e-9


@dataclass(frozen=True)
class AnnulusSpec:
    """Annulus rho < |x| < rho + delta inside the unit-scale domain."""

    rho: float
    delta: float

    def __post_init__(self):
        if not (self.rho > 0):
            raise DomainError(f"rho must be positive, got {self.rho}")
        if not (self.delta > 0):
            raise DomainError(f"delta must be positive, got {self.delta}")

    @property
    def outer_radius(self) -> float:
        return self.rho + self.delta


@dataclass(frozen=True)
class GlueStage:
    direction: str
    r_star: float
    annulus_energy: float
    scan_radii: np.ndarray
    scan_energies: np.ndarray


@dataclass(frozen=True)
class GlueReport:
    r_star: float
    annulus_energy: float
    budget_gamma: float
    parts_energy: float
    total_energy: EnergyBreakdown
    excess: float
    within_third: bool
    stages: Tuple[GlueStage, ...]
    l2_gap_outside: float
    phase_l1_gap_outside: float


def _radial_nodes(domain: Domain) -> np.ndarray:
    if domain.dim == 1:
        return np.abs(domain.nodes_x)
    cx, cy = domain.center
    return np.hypot(domain.axis_x[:, None] - cx, domain.axis_y - cy)


def _ball_region(domain: Domain, radius: float) -> Region:
    if domain.dim == 1:
        return IntervalUnion(((-radius, radius),))
    return Disc(domain.center, radius)


def _check_glue_domain(domain: Domain, spec: AnnulusSpec) -> None:
    outer = spec.outer_radius
    if domain.dim == 1:
        if not (domain.lo < -outer and outer < domain.hi):
            raise DomainError(
                f"interval [{domain.lo}, {domain.hi}] does not contain the "
                f"annulus out to radius {outer}"
            )
    else:
        if domain.kind != "ball":
            raise DomainError("2D gluing needs a ball domain")
        if not (outer < domain.radius):
            raise DomainError(
                f"ball radius {domain.radius} does not contain the annulus "
                f"out to radius {outer}"
            )


def _ramp_profile(epsilon: float, bound_m: float, width: float) -> SlopedProfile:
    """The ramp across an annulus of this width: saturation to +/- M within
    width / 8 needs the tail slope theta = 16 M / width."""
    return sloped_profile(epsilon, 16.0 * bound_m / width)


def _ramp_values(radial: np.ndarray, profile: SlopedProfile, r: float, direction: str):
    if direction == "rising":
        return profile.value(radial - r)
    return profile.value(r - radial)


def _ring_cells(radial: np.ndarray, spec: AnnulusSpec) -> np.ndarray:
    """Cell mask of the cells whose anchor node lies in the open annulus."""
    anchor = radial[(slice(None, -1),) * radial.ndim]
    return (anchor > spec.rho) & (anchor < spec.outer_radius)


def _annulus_stencil(domain: Domain, radial: np.ndarray, spec: AnnulusSpec):
    """The cells whose anchor node lies in the open annulus.

    Returns their cell weights, the flat indices of the nodes their
    stencils touch, and a (1 + dim, cells) array locating in those nodes
    each cell's anchor (row 0) and its forward neighbour along each axis
    (the rows of ``energy._cell_stencil``).
    """
    in_ring = _ring_cells(radial, spec)
    offsets = [0] + [int(np.prod(radial.shape[axis + 1 :])) for axis in range(domain.dim)]
    # The ring padded to the node grid gives the anchors' flat indices in
    # order, and a node mask, not np.unique, the sorted nodes they touch.
    stencil = np.flatnonzero(np.pad(in_ring, (0, 1))) + np.array(offsets)[:, None]
    touched = np.zeros(radial.size, dtype=bool)
    touched[stencil] = True
    nodes = np.flatnonzero(touched)
    return domain.cell_weights[in_ring], nodes, np.searchsorted(nodes, stencil)


def _ramp_reach(profile: SlopedProfile, bound: float, h: float) -> float:
    """Distance from the ramp radius past which |ramp| exceeds bound.

    The profile reaches sqrt(eps) at crossing_time and continues linearly
    with tail_slope, so a larger bound is reached (bound - sqrt(eps)) /
    tail_slope later; the extra h puts the ramp a full tail_slope * h
    past bound, far beyond rounding.
    """
    excess = max(bound - math.sqrt(profile.epsilon), 0.0)
    return profile.crossing_time + excess / profile.tail_slope + h


def _scan_energies(
    lo_v: np.ndarray,
    hi_v: np.ndarray,
    radial: np.ndarray,
    domain: Domain,
    epsilon: float,
    spec: AnnulusSpec,
    direction: str,
    profile: SlopedProfile,
    reach: float,
    radii: np.ndarray,
) -> np.ndarray:
    """Ramp energy on the sandwich lo < ramp < hi at each candidate radius.

    Only the open cells, the annulus cells whose anchor values satisfy
    lo < hi, are scanned; the sandwich of any other cell is empty for
    every ramp.  The open cells are sorted by anchor radius and the nodes
    their stencils touch by radius, so a candidate's band is a slice of
    each.  The band's products are scattered into a zeroed buffer over
    all annulus cells in their original order, whose sum is bitwise the
    annulus-wide one.
    """
    energies = np.zeros(len(radii))
    # With no open cell every energy is 0: look for one on the anchor grids
    # before mapping any stencil.
    cell = (slice(None, -1),) * domain.dim
    if not np.any(_ring_cells(radial, spec) & (lo_v[cell] < hi_v[cell])):
        return energies
    weights, nodes, where = _annulus_stencil(domain, radial, spec)
    anchor_nodes = nodes[where[0]]
    lo_a, hi_a = lo_v.ravel()[anchor_nodes], hi_v.ravel()[anchor_nodes]
    open_cells = np.flatnonzero(lo_a < hi_a)
    contrib = np.zeros(len(anchor_nodes))
    where = where[:, open_cells]
    touched = np.zeros(len(nodes), dtype=bool)
    touched[where] = True
    kept = np.flatnonzero(touched)
    flat_radial = radial.ravel()
    node_order = kept[np.argsort(flat_radial[nodes[kept]])]
    node_radii = flat_radial[nodes[node_order]]
    position = np.empty(len(nodes), dtype=node_order.dtype)
    position[node_order] = np.arange(len(node_order))
    anchor_radii = flat_radial[anchor_nodes[open_cells]]
    cell_order = np.argsort(anchor_radii)
    anchor_radii = anchor_radii[cell_order]
    open_cells = open_cells[cell_order]
    where = position[where[:, cell_order]]
    weights, lo_a, hi_a = weights[open_cells], lo_a[open_cells], hi_a[open_cells]
    for i, r in enumerate(radii):
        c0, c1 = np.searchsorted(anchor_radii, (r - reach, r + reach))
        if c0 == c1:
            continue
        band = where[:, c0:c1]
        n0 = band.min()
        ramp = _ramp_values(node_radii[n0 : band.max() + 1], profile, float(r), direction)
        ramp = ramp[band - n0]
        dens = energy_mod._stencil_density(ramp[0], ramp[1:], domain.h, epsilon)
        sandwich = (lo_a[c0:c1] < ramp[0]) & (ramp[0] < hi_a[c0:c1])
        contrib.fill(0.0)
        contrib[open_cells[c0:c1]] = dens * weights[c0:c1] * sandwich
        energies[i] = float(np.sum(contrib))
    return energies


def _glue_stage(
    inner_vals: np.ndarray,
    outer_vals: np.ndarray,
    out: np.ndarray,
    radial: np.ndarray,
    domain: Domain,
    epsilon: float,
    spec: AnnulusSpec,
    direction: str,
    profile: SlopedProfile,
    bound: float,
) -> GlueStage:
    """One ramp composition across the annulus of spec, written into out.

    Each candidate radius r is scored by the ramp energy over the cells
    whose anchor lies in the open annulus and whose anchor ramp value lies
    strictly between the two states (``_scan_energies``).  A cell whose
    anchor values have lo >= hi has an empty sandwich for every ramp, and
    with bound >= the largest |value| of the two states, |ramp| exceeds
    bound wherever ||x| - r| >= reach (``_ramp_reach``), so only open
    cells whose anchor lies within reach of r can be in the sandwich.
    Every other cell adds (finite density) * weight * False, an exact
    +0.0, so it is left out of the scan.

    The ramp at the chosen radius r* is evaluated within reach of r* only.
    Elsewhere it lies beyond every state value, so the composition is the
    outer state past r* and min (max) of the two states inside it, with
    no ramp grid.  The band's states are gathered first: out may be
    either input.

    ``glue`` passes bound = sup = max(|u|, |v|) to every stage rather than
    the exact largest |value| of each stage's states.  A first-stage
    output lies in [min(u, v), u], so sup bounds every stage's states and
    reach can only grow.  Past the exact reach |ramp| already exceeds
    every state value, so the extra band cells stay out of the sandwich
    and the extra composition nodes pick the same state value as with
    the ramp at +/- infinity: every output is bitwise unchanged.
    """
    if direction == "rising":
        lo_v, hi_v, pick, clip = inner_vals, outer_vals, np.minimum, np.maximum
    else:
        lo_v, hi_v, pick, clip = outer_vals, inner_vals, np.maximum, np.minimum
    reach = _ramp_reach(profile, bound, domain.h)
    radii = np.linspace(
        spec.rho + spec.delta / 8.0, spec.rho + spec.delta / 4.0, _SCAN_CANDIDATES
    )
    energies = _scan_energies(
        lo_v, hi_v, radial, domain, epsilon, spec, direction, profile, reach, radii
    )
    best = int(np.argmin(energies))
    r_star = float(radii[best])
    # |radial - r*| < reach, tested within a prefilter twice as wide
    flat_radial = radial.ravel()
    near = radial > r_star - 2.0 * reach
    band = np.flatnonzero(np.logical_and(near, radial < r_star + 2.0 * reach, out=near))
    band = band[np.abs(flat_radial[band] - r_star) < reach]
    inner_band, outer_band = inner_vals.ravel()[band], outer_vals.ravel()[band]
    past = radial > r_star
    np.copyto(out, outer_vals, where=past)
    pick(outer_vals, inner_vals, out=out, where=np.logical_not(past, out=past))
    ramp = _ramp_values(flat_radial[band], profile, r_star, direction)
    np.put(out, band, pick(outer_band, clip(inner_band, ramp, out=ramp), out=ramp))
    return GlueStage(
        direction=direction,
        r_star=r_star,
        annulus_energy=float(energies[best]),
        scan_radii=radii,
        scan_energies=energies,
    )


def glue(
    inner_state: PhaseState,
    outer_state: PhaseState,
    spec: AnnulusSpec,
    budget: float,
) -> Tuple[PhaseState, GlueReport]:
    """Join inner and outer states across the annulus within the budget.

    Both states must share their grid, epsilon and amplitude bound M; the
    ramps saturate to +/- M, and the output state has that M.  The output
    equals the inner state on the closed ball of radius rho (node for
    node) and the outer state outside the open ball of radius
    rho + delta, and its total energy exceeds the sum of the two
    restricted energies by at most the budget; a larger overshoot raises
    BudgetExceededError carrying the overshoot beyond the budget.
    """
    if inner_state.domain != outer_state.domain:
        raise DomainError("glue needs both states on the same grid")
    if inner_state.epsilon != outer_state.epsilon:
        raise DomainError("glue needs both states at the same epsilon")
    if inner_state.bound_m != outer_state.bound_m:
        raise DomainError("glue needs both states under the same amplitude bound M")
    domain = inner_state.domain
    epsilon = inner_state.epsilon
    bound_m = inner_state.bound_m
    _check_glue_domain(domain, spec)
    sup = max(energy_mod._sup_abs(inner_state.values), energy_mod._sup_abs(outer_state.values))
    if sup > bound_m + 1e-12:
        raise DomainError(f"states exceed their amplitude bound {bound_m}: sup = {sup}")
    if not (budget > 0):
        raise DomainError(f"budget must be positive, got {budget}")
    # The parts read only the inputs: sum them while no composition exists.
    inner_ball = _ball_region(domain, spec.rho)
    parts = (
        energy_mod.e_eps(inner_state, subdomain=inner_ball).total
        + energy_mod.e_eps(outer_state, subdomain=Complement(_ball_region(domain, spec.outer_radius))).total
    )

    u = outer_state.values
    v = inner_state.values
    radial = _radial_nodes(domain)
    ordered = bool(np.all(u >= v))
    # One stage across the annulus, or two across its halves, outer first.
    width = spec.delta if ordered else spec.delta / 2.0
    profile = _ramp_profile(epsilon, bound_m, width)
    if ordered:
        out_vals = np.empty_like(u)
        stages = [
            _glue_stage(v, u, out_vals, radial, domain, epsilon, spec, "rising", profile, sup)
        ]
    else:
        out_vals = np.minimum(u, v)
        stages = [
            _glue_stage(
                out_vals, u, out_vals, radial, domain, epsilon,
                AnnulusSpec(spec.rho + width, width), "rising", profile, sup,
            ),
            _glue_stage(
                v, out_vals, out_vals, radial, domain, epsilon,
                AnnulusSpec(spec.rho, width), "falling", profile, sup,
            ),
        ]

    inner_zone = radial <= spec.rho
    outer_zone = radial >= spec.outer_radius
    ring = ~(inner_zone | outer_zone)  # the open annulus
    del radial
    if not np.array_equal(out_vals[inner_zone], v[inner_zone]) or not np.array_equal(
        out_vals[outer_zone], u[outer_zone]
    ):
        raise NumericError("glued field violates the bitwise zone contract")
    del inner_zone, outer_zone

    out_state = PhaseState(
        field=ScalarField(domain, out_vals), epsilon=epsilon, bound_m=bound_m
    )
    out_vals = out_state.values  # the state holds a copy; free the composition
    total = energy_mod.e_eps(out_state)
    excess = total.total - parts
    if excess > budget * (1.0 + _BUDGET_SLACK) + 1e-12:
        raise BudgetExceededError(
            f"glued energy exceeds the two-part sum by {excess:.6g}, "
            f"over the budget {budget:.6g}",
            excess=excess - budget,
        )

    annulus_energy = sum(s.annulus_energy for s in stages)
    # Node-weight gaps to u on |x| > rho.  Past rho + delta the glued field
    # is bitwise u, so each term off the open annulus is an exact +0.0: the
    # sums over a zeroed grid holding the annulus terms are the full ones.
    # Each block gathers only its own annulus nodes.
    root_eps = math.sqrt(epsilon)

    def gap_sum(term) -> float:
        def fill(rows, out):
            r = ring[rows]
            out.fill(0.0)
            out[r] = term(domain.node_weights[rows][r], out_vals[rows][r], u[rows][r])

        return energy_mod._blocked_sum(domain.node_shape, fill)

    def l2_term(weights, glued, outer):
        diff = glued - outer
        return weights * diff * diff

    def phase_term(weights, glued, outer):
        phase_diff = potential.h_tilde(glued / root_eps) - potential.h_tilde(outer / root_eps)
        return weights * np.abs(phase_diff)

    l2_out = math.sqrt(gap_sum(l2_term))
    l1_out = gap_sum(phase_term)
    report = GlueReport(
        r_star=stages[-1].r_star,
        annulus_energy=annulus_energy,
        budget_gamma=float(budget),
        parts_energy=parts,
        total_energy=total,
        excess=excess,
        within_third=annulus_energy <= budget / 3.0,
        stages=tuple(stages),
        l2_gap_outside=l2_out,
        phase_l1_gap_outside=l1_out,
    )
    return out_state, report


@dataclass(frozen=True)
class BarrierResult:
    state: PhaseState
    energy: EnergyBreakdown
    bound: float
    perimeter_term: float
    tent_dirichlet: float
    feasible: bool
    epsilon_threshold: float


def _barrier_geometry(domain: Domain, interface_radius: float):
    if domain.dim == 1:
        if domain.lo != -domain.hi:
            raise DomainError("1D barriers need a symmetric interval domain")
        rad = domain.hi
    else:
        if domain.kind != "ball":
            raise DomainError("2D barriers need a ball domain")
        rad = domain.radius
    if not (0.0 < interface_radius < rad):
        raise DomainError(
            f"interface radius must lie in (0, {rad}), got {interface_radius}"
        )
    return rad


def _barrier_feasible(
    epsilon: float,
    rad: float,
    measure: float,
    interface_radius: float,
    bound_m: float,
    kappa: float,
) -> bool:
    t_band = transition_halfwidth(epsilon, kappa)
    slope = 2.0 * bound_m / (rad - interface_radius)
    if slope * t_band > 0.5 * bound_m:
        return False
    if math.sqrt(epsilon) > 0.5 * bound_m:
        return False
    diam = 2.0 * rad
    if t_band >= diam:
        return False
    return tail_well_sup(epsilon, t_band, diam) * measure <= 0.5


def barrier_feasibility_threshold(
    domain: Domain, interface_radius: float, bound_m: float, kappa: float = 0.1
) -> float:
    """Largest scale at which the barrier construction is feasible.

    Found by a coarse logarithmic scan for the first infeasible scale
    above a feasible one, refined by bisection.
    """
    rad = _barrier_geometry(domain, interface_radius)
    measure = domain.measure
    grid = np.logspace(-10, 2, 481)
    feas = [
        _barrier_feasible(e, rad, measure, interface_radius, bound_m, kappa)
        for e in grid
    ]
    if not feas[0]:
        return 0.0
    if all(feas):
        return float(grid[-1])
    first_bad = next(i for i, ok in enumerate(feas) if not ok)
    lo, hi = float(grid[first_bad - 1]), float(grid[first_bad])
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if _barrier_feasible(mid, rad, measure, interface_radius, bound_m, kappa):
            lo = mid
        else:
            hi = mid
    return lo


def build_barrier(
    domain: Domain,
    interface_radius: float,
    bound_m: float,
    epsilon: float,
    kappa: float = 0.1,
) -> BarrierResult:
    """Radial competitor with plateau M at the boundary, interface at |x| = R.

    The construction composes the standard transition profile of
    s = R - |x| with a tent of slope 2M / (rad - R) centered on the
    interface sphere, shifted down (up) by slope * halfwidth on the
    inside (outside) so the transition band is pure profile.  At feasible
    scales the energy is at most
    (interface cost) * area(|x| = R) + tent Dirichlet energy + 1.
    """
    if not (bound_m > 0):
        raise DomainError(f"bound_m must be positive, got {bound_m}")
    if not (epsilon > 0):
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    rad = _barrier_geometry(domain, interface_radius)
    slope = 2.0 * bound_m / (rad - interface_radius)
    shift = slope * transition_halfwidth(epsilon, kappa)
    s = _radial_nodes(domain)
    np.subtract(interface_radius, s, out=s)
    pos = s >= 0.0
    vals = transition_profile(epsilon, s)
    tent = np.clip(np.multiply(s, slope, out=s), -bound_m, bound_m, out=s)
    splice_profile(pos, vals, tent, shift, -shift)
    del s, tent
    sup = energy_mod._sup_abs(vals)
    state = PhaseState(
        field=ScalarField(domain, vals),
        epsilon=epsilon,
        bound_m=max(bound_m, sup),
    )
    del vals  # the state holds a copy
    breakdown = energy_mod.e_eps(state)

    if domain.dim == 1:
        sphere_area = 2.0
        annulus_volume = 2.0 * (rad - interface_radius)
    else:
        sphere_area = 2.0 * math.pi * interface_radius
        annulus_volume = math.pi * (rad**2 - interface_radius**2)
    perimeter_term = potential.C0 * sphere_area
    tent_dirichlet = slope * slope * annulus_volume
    bound = perimeter_term + tent_dirichlet + 1.0

    feasible = _barrier_feasible(
        epsilon, rad, domain.measure, interface_radius, bound_m, kappa
    )
    threshold = barrier_feasibility_threshold(domain, interface_radius, bound_m, kappa)
    return BarrierResult(
        state=state,
        energy=breakdown,
        bound=bound,
        perimeter_term=perimeter_term,
        tent_dirichlet=tent_dirichlet,
        feasible=feasible,
        epsilon_threshold=threshold,
    )
