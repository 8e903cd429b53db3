"""Discrete energies on grid fields.

The diffuse energy of a field u is

    sum over cells of ( |forward-difference gradient|^2
                        + w(u_anchor / sqrt(eps)) / eps ) * cell weight,

with the well sampled at the cell's anchor node.  Pairing the gradient
cell with its anchor sample makes the discrete two-term lower bound
(through the antiderivative of 2*sqrt(w)) exact cell by cell, and makes
the 3- or 5-point Laplacian stencil the exact first variation at interior
nodes.

The sharp energy of a (field, set) pair is the same Dirichlet sum plus
the interface cost constant times the perimeter of the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geometry, potential
from .errors import DomainError, InvalidPairError, UnsupportedRegionError
from .geometry import Domain, Region

_SIGN_TOL = 1e-12


@dataclass
class ScalarField:
    """Finite node values on a domain grid.

    The constructor stores a copy of the input, so the finiteness and
    amplitude checks done at construction time stay valid no matter what
    the caller later does with the original array.
    """

    domain: Domain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float)
        if self.values.shape != self.domain.node_shape:
            raise DomainError(
                f"values shape {self.values.shape} does not match "
                f"grid {self.domain.node_shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise DomainError("field values must be finite")

    def copy(self) -> "ScalarField":
        return ScalarField(self.domain, self.values.copy())


def _check_amplitude(values: np.ndarray, bound_m: float) -> None:
    if not (bound_m > 0):
        raise DomainError(f"bound_m must be positive, got {bound_m}")
    sup = float(np.max(np.abs(values))) if values.size else 0.0
    if sup > bound_m + _SIGN_TOL:
        raise DomainError(
            f"field exceeds the amplitude bound: sup |u| = {sup} > M = {bound_m}"
        )


@dataclass
class PhaseState:
    """A field together with its scale eps and amplitude bound M."""

    field: ScalarField
    epsilon: float
    bound_m: float

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise DomainError(f"epsilon must be positive, got {self.epsilon}")
        _check_amplitude(self.field.values, self.bound_m)

    @property
    def domain(self) -> Domain:
        return self.field.domain

    @property
    def values(self) -> np.ndarray:
        return self.field.values


@dataclass
class SharpPair:
    """A field u and a set, with u >= 0 on the set and u <= 0 off it.

    The set is given either as a Region (preferred, enables exact
    perimeters and signed distances) or as a boolean node mask.  A region
    pair evaluates the region's signed distance at the grid nodes once, at
    construction, and keeps it read-only as node_sd (None for a mask pair);
    the node mask is {node_sd >= 0}, as ``geometry.rasterize`` defines it.
    """

    field: ScalarField
    region: Optional[Region] = None
    mask: Optional[np.ndarray] = None
    bound_m: float = 1.0

    def __post_init__(self):
        if (self.region is None) == (self.mask is None):
            raise InvalidPairError("provide exactly one of region or mask")
        self.node_sd = None
        if self.mask is not None:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != self.field.domain.node_shape:
                raise InvalidPairError("mask shape does not match the grid")
        else:
            domain = self.field.domain
            sd = self.region.signed_distance(domain.nodes_x, domain.nodes_y)
            # A read-only view: the region may hand out an array it owns.
            self.node_sd = np.asarray(sd, dtype=float).view()
            self.node_sd.flags.writeable = False
        _check_amplitude(self.field.values, self.bound_m)
        mask = self.node_mask()
        vals = self.field.values
        if np.any(vals[mask] < -_SIGN_TOL) or np.any(vals[~mask] > _SIGN_TOL):
            raise InvalidPairError(
                "field sign is inconsistent with the set: "
                "u must be >= 0 on it and <= 0 off it"
            )

    def node_mask(self) -> np.ndarray:
        if self.mask is not None:
            return self.mask
        return self.node_sd >= 0.0

    def indicator_difference(self) -> np.ndarray:
        """+1 on the set, -1 off it, per node."""
        return np.where(self.node_mask(), 1.0, -1.0)


@dataclass(frozen=True)
class EnergyBreakdown:
    dirichlet: float
    well: float
    perimeter_weighted: float
    total: float


@dataclass(frozen=True)
class MMSplit:
    """Two-term lower bound data: lhs >= rhs up to O(h) defects."""

    lhs: float
    rhs: float
    tv_term: float
    excess_dirichlet: float


@dataclass(frozen=True)
class PhaseMeasure:
    measure: float
    bound: float
    c_delta: float


def _cell_weights(domain: Domain, fraction: Optional[np.ndarray]) -> np.ndarray:
    """Cell weights, times a subdomain's cell fractions when given."""
    w = domain.cell_weights
    if fraction is not None:
        w = w * fraction
    return w


def _subdomain_fraction(domain: Domain, subdomain: Optional[Region]):
    """A subdomain's cell fractions, or None without a subdomain."""
    if subdomain is None:
        return None
    return geometry.region_cell_fraction(subdomain, domain)


def _cell_stencil(values: np.ndarray):
    """A node array's cell anchors and their forward neighbours, one per axis."""
    if values.ndim == 1:
        return values[:-1], (values[1:],)
    return values[:-1, :-1], (values[1:, :-1], values[:-1, 1:])


def _forward_differences(values: np.ndarray):
    """Per-cell forward differences of a node array: (dx,) or (dx, dy)."""
    anchor, aheads = _cell_stencil(values)
    return tuple(ahead - anchor for ahead in aheads)


def _stencil_density(
    anchor: np.ndarray,
    aheads,
    h: Optional[float] = None,
    epsilon: Optional[float] = None,
) -> np.ndarray:
    """Diffuse energy density of cells given by their stencil values.

    anchor holds each cell's anchor-node value and aheads its forward
    neighbour along each axis, as full-grid views (``_cell_stencil``) or
    gathered for a subset of cells.  The density is the squared
    forward-difference gradient when h is given, plus the well
    w(anchor / sqrt(eps)) / eps when epsilon is given.
    """
    dens = None
    if h is not None:
        for ahead in aheads:
            grad = (ahead - anchor) / h
            dens = grad * grad if dens is None else dens + grad * grad
    if epsilon is not None:
        well = potential.w(anchor / math.sqrt(epsilon)) / epsilon
        dens = well if dens is None else dens + well
    return dens


def _cell_density(
    values: np.ndarray, h: Optional[float] = None, epsilon: Optional[float] = None
) -> np.ndarray:
    """Diffuse energy density per cell of a raw node array.

    Works on bare arrays so the descent's inner loop builds no field
    objects; see ``_stencil_density`` for the terms.
    """
    anchor, aheads = _cell_stencil(values)
    return _stencil_density(anchor, aheads, h, epsilon)


def dirichlet_energy(field: ScalarField, subdomain: Optional[Region] = None) -> float:
    """Sum of |forward-difference gradient|^2 times cell weights."""
    domain = field.domain
    weights = _cell_weights(domain, _subdomain_fraction(domain, subdomain))
    return float(np.sum(_cell_density(field.values, h=domain.h) * weights))


def well_energy(
    field: ScalarField, epsilon: float, subdomain: Optional[Region] = None
) -> float:
    """Sum of w(u / sqrt(eps)) / eps at anchor nodes times cell weights."""
    if not (epsilon > 0):
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    domain = field.domain
    weights = _cell_weights(domain, _subdomain_fraction(domain, subdomain))
    return float(np.sum(_cell_density(field.values, epsilon=epsilon) * weights))


def e_eps(state: PhaseState, subdomain: Optional[Region] = None) -> EnergyBreakdown:
    """Diffuse energy of a state, optionally restricted to a subregion.

    The same as dirichlet_energy + well_energy, with the subdomain's cell
    weights computed once for both sums.
    """
    domain = state.domain
    weights = _cell_weights(domain, _subdomain_fraction(domain, subdomain))
    d = float(np.sum(_cell_density(state.values, h=domain.h) * weights))
    w = float(np.sum(_cell_density(state.values, epsilon=state.epsilon) * weights))
    return EnergyBreakdown(dirichlet=d, well=w, perimeter_weighted=0.0, total=d + w)


def sharp_energy(pair: SharpPair, subdomain: Optional[Region] = None) -> EnergyBreakdown:
    """Dirichlet energy plus the weighted perimeter of the pair's set."""
    domain = pair.field.domain
    if pair.region is not None and subdomain is not None:
        raise UnsupportedRegionError(
            "perimeter restricted to a subdomain is only supported for mask pairs"
        )
    fraction = _subdomain_fraction(domain, subdomain)
    weights = _cell_weights(domain, fraction)
    d = float(np.sum(_cell_density(pair.field.values, h=domain.h) * weights))
    if pair.region is not None:
        per = geometry.exact_perimeter(pair.region, domain)
    else:
        per = _mask_interface_length(pair.mask, domain, fraction)
    weighted = potential.C0 * per
    return EnergyBreakdown(
        dirichlet=d, well=0.0, perimeter_weighted=weighted, total=d + weighted
    )


def _mask_interface_length(
    mask: np.ndarray, domain: Domain, fraction: Optional[np.ndarray]
) -> float:
    if fraction is None:
        return geometry.interface_length(mask, domain)
    # Count only interface in cells at least half covered by the subdomain.
    include = fraction >= 0.5
    total = np.sum(geometry.per_cell_interface_lengths(mask, domain) * include)
    return float(total * domain.h if domain.dim == 2 else total)


def tv_phase(state: PhaseState) -> float:
    """Discrete total variation of the compressed phase h_tilde(u / sqrt(eps)).

    Each full transition between the wells contributes 2, so the
    interface content of a state is tv_phase / 2 in multiples of the
    grid's facet area.
    """
    p = potential.h_tilde(state.values / math.sqrt(state.epsilon))
    diffs = _forward_differences(p)
    if len(diffs) == 1:
        return float(np.sum(np.abs(diffs[0])))
    return float(np.sum(np.hypot(*diffs)) * state.domain.h)


def modica_mortola_split(state: PhaseState) -> MMSplit:
    """Two-term lower bound for the diffuse energy.

    lhs is the diffuse energy.  rhs pairs half the interface cost with
    the compressed-phase total variation, plus the Dirichlet energy of
    the overshoot sign(u) * max(|u| - sqrt(eps), 0).  On the continuum
    lhs >= rhs; discretely the gap can dip below zero only by an O(h)
    defect from the chain-rule inequality on cells.
    """
    lhs = e_eps(state).total
    root_eps = math.sqrt(state.epsilon)
    vals = state.values
    excess = np.sign(vals) * np.maximum(np.abs(vals) - root_eps, 0.0)
    excess_d = dirichlet_energy(ScalarField(state.domain, excess))
    tv = tv_phase(state)
    rhs = 0.5 * potential.C0 * tv + excess_d
    return MMSplit(lhs=lhs, rhs=rhs, tv_term=tv, excess_dirichlet=excess_d)


def intermediate_phase_measure(state: PhaseState, delta: float) -> PhaseMeasure:
    """Volume where the compressed phase is far from both wells.

    measure is the node-weight volume of {|h_tilde(u/sqrt(eps))| <= 1 - 2*delta};
    bound is C(delta) * eps * well_energy with C(delta) =
    1 / w(h_tilde_inverse(1 - delta)).  The discrete inequality
    measure <= bound holds exactly because both sides share node weights.
    """
    if not (0.0 < delta < 0.5):
        raise DomainError(f"delta must lie in (0, 1/2), got {delta}")
    root_eps = math.sqrt(state.epsilon)
    p = potential.h_tilde(state.values / root_eps)
    band = np.abs(p) <= 1.0 - 2.0 * delta
    measure = float(np.sum(state.domain.node_weights[band]))
    c_delta = 1.0 / potential.w(potential.h_tilde_inverse(1.0 - delta))
    bound = c_delta * state.epsilon * well_energy(state.field, state.epsilon)
    return PhaseMeasure(measure=measure, bound=bound, c_delta=c_delta)


def phase_band_measure(state: PhaseState) -> float:
    """Node-weight volume of the unsaturated band {|u| < sqrt(eps)}."""
    band = np.abs(state.values) < math.sqrt(state.epsilon)
    return float(np.sum(state.domain.node_weights[band]))


def l2_gap(a: np.ndarray, b: np.ndarray, domain: Domain) -> float:
    """Node-weight L2 distance between two node arrays."""
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(math.sqrt(np.sum(domain.node_weights * diff * diff)))


def l1_gap(a: np.ndarray, b: np.ndarray, domain: Domain) -> float:
    """Node-weight L1 distance between two node arrays."""
    diff = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    return float(np.sum(domain.node_weights * diff))
