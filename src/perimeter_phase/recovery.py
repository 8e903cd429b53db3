"""Diffuse states recovering a sharp pair at prescribed scale.

Given a pair (u, set) with u >= 0 on the set and <= 0 off it, the
recovered state replaces u near the set boundary by the standard
transition profile of the signed distance s, and pushes u toward the
wells elsewhere:

    positive side (s >= 0): max(profile(s), max(u - delta_bar, 0))
    negative side (s < 0):  min(profile(s), min(u - delta_under, 0))

delta_bar is the sup of u over grid nodes with 0 <= s <= halfwidth and
delta_under the inf over -halfwidth <= s <= 0; subtracting them makes u
irrelevant inside the transition band, so the band carries pure profile
energy.  The construction needs the grid to resolve the band whenever
the set boundary actually crosses the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import energy as energy_mod
from . import potential
from .energy import EnergyBreakdown, PhaseState, ScalarField, SharpPair
from .errors import DomainError, ResolutionError, UnsupportedRegionError
from .profiles1d import splice_profile, transition_halfwidth, transition_profile


@dataclass(frozen=True)
class RecoveryReport:
    epsilon: float
    delta_bar: float
    delta_under: float
    energy: EnergyBreakdown
    l2_gap: float
    h_tilde_l1_gap: float


def _signed_distance_nodes(pair: SharpPair) -> np.ndarray:
    if pair.node_sd is None:
        raise UnsupportedRegionError(
            "recovery needs a region with a signed distance; "
            "mask-only pairs carry no distance information"
        )
    return pair.node_sd


def build_recovery(
    pair: SharpPair, epsilon: float, kappa: float = 0.1
) -> Tuple[PhaseState, RecoveryReport]:
    """Build the diffuse state recovering the pair at scale epsilon."""
    if not (epsilon > 0):
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    domain = pair.field.domain
    u = pair.field.values
    s = _signed_distance_nodes(pair)
    t_band = transition_halfwidth(epsilon, kappa)

    pos_side = s >= 0.0
    # No shift is needed when the set boundary misses the domain.
    delta_bar = delta_under = 0.0
    if pos_side.any() and not pos_side.all():
        # Both bands are closed and share the s = 0 slice.
        above, below = u[pos_side & (s <= t_band)], u[(s <= 0.0) & (s >= -t_band)]
        if not above.size or not below.size:
            raise ResolutionError(
                "grid does not resolve the transition band of width "
                f"{t_band:.3e}; refine so that h <= {t_band / 4:.3e}"
            )
        delta_bar, delta_under = float(np.max(above)), float(np.min(below))
    vals = splice_profile(
        pos_side, transition_profile(epsilon, s), u, delta_bar, delta_under
    )
    state = PhaseState(
        field=ScalarField(domain, vals), epsilon=epsilon, bound_m=pair.bound_m
    )
    vals = state.values  # the state holds a copy; free the spliced array
    breakdown = energy_mod.e_eps(state)
    l2 = energy_mod.l2_gap(vals, u, domain)
    # The state is >= 0 on the set and <= 0 off it (splice_profile; +/-0.0
    # counts on both sides), and so is h~ in [-1, 1]: its gap to the set's
    # +/-1 indicator is 1 - |h~| bit for bit, as rounding is symmetric.
    root_eps = math.sqrt(epsilon)

    def fill(rows, out):
        np.divide(vals[rows], root_eps, out=out)
        potential.h_tilde(out, out=out)
        np.subtract(1.0, np.abs(out, out=out), out=out)
        np.multiply(domain.node_weights[rows], out, out=out)

    h_l1 = energy_mod._blocked_sum(domain.node_shape, fill)
    report = RecoveryReport(
        epsilon=float(epsilon),
        delta_bar=delta_bar,
        delta_under=delta_under,
        energy=breakdown,
        l2_gap=l2,
        h_tilde_l1_gap=h_l1,
    )
    return state, report
