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

Each full-grid sum (the energies, ``tv_phase``, ``l2_gap``) holds one
grid-sized array, its summands.  These are formed a row block at a time,
about 2^14 entries per block, with block-sized temporaries, and written
into one C-ordered array that a single ``np.sum`` reduces.  The summands
are elementwise results, so their bits do not depend on the blocking, and
numpy's pairwise summation depends only on the array: every sum is bitwise
the one over whole-grid temporaries.  A grid of one block is filled in a
single call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import geometry, potential
from .errors import DomainError, InvalidPairError
from .geometry import Domain, Region

_SIGN_TOL = 1e-12
# Entries per row block of a full-grid sum: 2^14 float64 values, 128 KiB,
# so a block's temporaries stay in a core's L2 cache.
_BLOCK_CELLS = 1 << 14


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


def _sup_abs(values: np.ndarray) -> float:
    """max |values|, exactly and without a |values| temporary; +0.0 for zeros."""
    return max(abs(float(np.max(values))), abs(float(np.min(values))))


def _check_amplitude(values: np.ndarray, bound_m: float) -> None:
    if not (bound_m > 0):
        raise DomainError(f"bound_m must be positive, got {bound_m}")
    sup = _sup_abs(values) if values.size else 0.0
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


def epsilon_schedule(epsilons: Sequence[float]) -> List[float]:
    """The scales of a continuation as floats: nonempty, finite, positive, strictly decreasing."""
    eps = [float(e) for e in epsilons]
    # inf > eps[0] > ... > eps[-1] > 0, which no NaN passes.
    if not eps or not all(a > b for a, b in zip([math.inf] + eps, eps + [0.0])):
        raise DomainError("epsilons must be nonempty, finite, positive and strictly decreasing")
    return eps


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
        # Boolean tests form no float array of the field's size.
        if np.any(mask & (vals < -_SIGN_TOL)) or np.any(~mask & (vals > _SIGN_TOL)):
            raise InvalidPairError(
                "field sign is inconsistent with the set: "
                "u must be >= 0 on it and <= 0 off it"
            )

    def node_mask(self) -> np.ndarray:
        if self.mask is not None:
            return self.mask
        return self.node_sd >= 0.0


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
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Diffuse energy density of cells given by their stencil values.

    anchor holds each cell's anchor-node value and aheads its forward
    neighbour along each axis, as full-grid views (``_cell_stencil``) or
    gathered for a subset of cells.  The density is the squared
    forward-difference gradient when h is given, plus the well
    w(anchor / sqrt(eps)) / eps when epsilon is given, each term added
    in place into the first, in this order.  The first term is written
    into out, or a new C-ordered array; the further terms share one
    scratch array.
    """
    dens = np.empty(anchor.shape) if out is None else out
    # One entry per term: the forward neighbour of each axis, None for the well.
    terms = (list(aheads) if h is not None else []) + ([None] if epsilon is not None else [])
    scratch = np.empty(anchor.shape) if len(terms) > 1 else None
    for i, ahead in enumerate(terms):
        term = scratch if i else dens
        if ahead is None:
            potential.w(np.divide(anchor, math.sqrt(epsilon), out=term), out=term)
            term /= epsilon
        else:
            np.subtract(ahead, anchor, out=term)
            term /= h
            term *= term
        if i:
            dens += term
    return dens


def _cell_density(
    values: np.ndarray, h: Optional[float] = None, epsilon: Optional[float] = None
) -> np.ndarray:
    """Diffuse energy density per cell of a raw node array.

    The whole-grid density that the row-blocked sums reproduce bit for
    bit; see ``_stencil_density`` for the terms.
    """
    anchor, aheads = _cell_stencil(values)
    return _stencil_density(anchor, aheads, h, epsilon)


def _blocked_sum(shape, fill) -> float:
    """np.sum of a new C-ordered array of this shape, written by row blocks.

    fill(rows, out) writes the summands of the row slice rows into out,
    the view of those rows; each block spans about _BLOCK_CELLS entries,
    and a shape that fits in one block is filled in one call.
    """
    terms = np.empty(shape)
    step = max(1, _BLOCK_CELLS // math.prod(shape[1:]))
    for start in range(0, shape[0], step):
        rows = slice(start, start + step)
        fill(rows, terms[rows])
    return float(np.sum(terms))


def _node_rows(values: np.ndarray, rows: slice) -> np.ndarray:
    """The node rows that the cells of a row slice touch: its rows and the next."""
    return values[rows.start : rows.stop + 1]


def _weighted_sum(
    values: np.ndarray, weights: np.ndarray, h=None, epsilon=None, nodes=None
) -> float:
    """Sum of a node array's cell density times the weights, by row blocks.

    nodes, when given, maps each block's node rows to the node values
    whose density is summed, so a derived field is formed a block at a
    time too.
    """
    def fill(rows, out):
        block = _node_rows(values, rows)
        anchor, aheads = _cell_stencil(block if nodes is None else nodes(block))
        _stencil_density(anchor, aheads, h, epsilon, out=out)
        np.multiply(out, weights[rows], out=out)

    return _blocked_sum(weights.shape, fill)


def dirichlet_energy(field: ScalarField) -> float:
    """Sum of |forward-difference gradient|^2 times cell weights."""
    domain = field.domain
    return _weighted_sum(field.values, domain.cell_weights, h=domain.h)


def well_energy(field: ScalarField, epsilon: float) -> float:
    """Sum of w(u / sqrt(eps)) / eps at anchor nodes times cell weights."""
    if not (epsilon > 0):
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    return _weighted_sum(field.values, field.domain.cell_weights, epsilon=epsilon)


def e_eps(state: PhaseState, subdomain: Optional[Region] = None) -> EnergyBreakdown:
    """Diffuse energy of a state, optionally restricted to a subregion.

    The same as dirichlet_energy + well_energy.  A subdomain scales each
    cell weight by the fraction of the cell it covers, computed once for
    both sums.
    """
    domain = state.domain
    weights = domain.cell_weights
    if subdomain is not None:
        fraction = geometry.region_cell_fraction(subdomain, domain)
        weights = np.multiply(fraction, weights, out=fraction)
    d = _weighted_sum(state.values, weights, h=domain.h)
    w = _weighted_sum(state.values, weights, epsilon=state.epsilon)
    return EnergyBreakdown(dirichlet=d, well=w, perimeter_weighted=0.0, total=d + w)


def sharp_energy(pair: SharpPair) -> EnergyBreakdown:
    """Dirichlet energy plus the weighted perimeter of the pair's set."""
    domain = pair.field.domain
    if pair.region is not None:
        per = geometry.exact_perimeter(pair.region, domain)
    else:
        per = geometry.interface_length(pair.mask, domain)
    d = _weighted_sum(pair.field.values, domain.cell_weights, h=domain.h)
    weighted = potential.C0 * per
    return EnergyBreakdown(
        dirichlet=d, well=0.0, perimeter_weighted=weighted, total=d + weighted
    )


def tv_phase(state: PhaseState) -> float:
    """Discrete total variation of the compressed phase h_tilde(u / sqrt(eps)).

    Each full transition between the wells contributes 2, so the
    interface content of a state is tv_phase / 2 in multiples of the
    grid's facet area.
    """
    root_eps = math.sqrt(state.epsilon)

    def fill(rows, out):
        p = np.divide(_node_rows(state.values, rows), root_eps)
        diffs = _forward_differences(potential.h_tilde(p, out=p))
        if len(diffs) == 1:
            np.abs(diffs[0], out=out)
        else:
            np.hypot(*diffs, out=out)

    total = _blocked_sum(state.domain.cell_weights.shape, fill)
    return total if state.domain.dim == 1 else total * state.domain.h


def modica_mortola_split(state: PhaseState) -> MMSplit:
    """Two-term lower bound for the diffuse energy.

    lhs is the diffuse energy.  rhs pairs half the interface cost with
    the compressed-phase total variation, plus the Dirichlet energy of
    the overshoot sign(u) * max(|u| - sqrt(eps), 0).  On the continuum
    lhs >= rhs; discretely the gap can dip below zero only by an O(h)
    defect from the chain-rule inequality on cells.
    """
    lhs = e_eps(state).total
    tv = tv_phase(state)
    root_eps = math.sqrt(state.epsilon)

    def overshoot(vals):
        excess = np.abs(vals)
        excess -= root_eps
        np.maximum(excess, 0.0, out=excess)
        excess *= np.sign(vals)
        return excess

    domain = state.domain
    excess_d = _weighted_sum(state.values, domain.cell_weights, h=domain.h, nodes=overshoot)
    rhs = 0.5 * potential.C0 * tv + excess_d
    return MMSplit(lhs=lhs, rhs=rhs, tv_term=tv, excess_dirichlet=excess_d)


def phase_band_measure(state: PhaseState) -> float:
    """Node-weight volume of the unsaturated band {|u| < sqrt(eps)}."""
    band = np.abs(state.values) < math.sqrt(state.epsilon)
    return float(np.sum(state.domain.node_weights[band]))


def l2_gap(a: np.ndarray, b: np.ndarray, domain: Domain) -> float:
    """Node-weight L2 distance between two node arrays."""
    a, b = (np.broadcast_to(x, domain.node_shape) for x in (a, b))

    def fill(rows, out):
        diff = np.subtract(a[rows], b[rows], dtype=float)
        np.multiply(domain.node_weights[rows], diff, out=out)
        out *= diff

    return math.sqrt(_blocked_sum(domain.node_shape, fill))


def l1_gap(a: np.ndarray, b: np.ndarray, domain: Domain) -> float:
    """Node-weight L1 distance between two node arrays."""
    diff = np.subtract(a, b, dtype=float, order="C")
    np.abs(diff, out=diff)
    return float(np.sum(np.multiply(domain.node_weights, diff, out=diff)))
