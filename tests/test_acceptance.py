"""Ten acceptance checks, one per shipped guarantee.

Each test records a PASS/FAIL line (printed in the terminal summary) and
then asserts, so a red run still reports every criterion's status.
"""

import math

import numpy as np
from scipy.integrate import quad

import perimeter_phase as pp
from perimeter_phase.cli import random_positive_field
from conftest import record_criterion

# Calibrated constants for the two inequality criteria.  C_SPLIT bounds
# the split defect (measured defect is zero at these resolutions, so any
# positive constant certifies the linear-in-h clause); C_TV covers the
# worst normalized total-variation defect, +17.5 on the 2D disc recovery
# state, with margin.
C_SPLIT = 1.0
C_TV = 40.0


def test_criterion_01_surface_tension():
    oracle, err = quad(lambda t: 2.0 * math.sqrt(pp.w(t)), 0.0, 1.0)
    oracle *= 2.0
    gap = abs(pp.C0 - oracle)
    passed = pp.C0 == 8.0 / 3.0 and gap <= 1e-9
    record_criterion(
        1, passed, f"C0 = 8/3 exactly, quadrature gap {gap:.3e} <= 1e-9"
    )
    assert passed


def _rk4_profile_curve(epsilon: float, s_max: float, n_steps: int) -> np.ndarray:
    root = math.sqrt(epsilon)

    def slope(phi: float) -> float:
        return math.sqrt(pp.w(phi / root)) / root

    ds = s_max / n_steps
    phi = 0.0
    out = np.empty(n_steps + 1)
    out[0] = 0.0
    for i in range(n_steps):
        k1 = slope(phi)
        k2 = slope(phi + 0.5 * ds * k1)
        k3 = slope(phi + 0.5 * ds * k2)
        k4 = slope(phi + ds * k3)
        phi += (ds / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = phi
    return out


def test_criterion_02_profile_fidelity():
    worst_ode = 0.0
    worst_scaling = 0.0
    for eps in (1.0, 0.1, 0.01):
        n_steps = 5120
        s_max = 10.0 * eps
        s_grid = (s_max / n_steps) * np.arange(n_steps + 1)
        rk4 = _rk4_profile_curve(eps, s_max, n_steps)
        pos = np.max(np.abs(pp.transition_profile(eps, s_grid) - rk4))
        neg = np.max(np.abs(pp.transition_profile(eps, -s_grid) + rk4))
        worst_ode = max(worst_ode, float(pos), float(neg))

        s_fine = np.linspace(-s_max, s_max, 1001)
        scaled = math.sqrt(eps) * pp.transition_profile(1.0, s_fine / eps)
        gap = np.max(np.abs(pp.transition_profile(eps, s_fine) - scaled))
        worst_scaling = max(worst_scaling, float(gap))
    passed = worst_ode <= 1e-8 and worst_scaling <= 1e-12
    record_criterion(
        2,
        passed,
        f"max |profile - RK4| = {worst_ode:.3e} <= 1e-8 on |s| <= 10*eps, "
        f"scaling defect {worst_scaling:.3e} <= 1e-12",
    )
    assert passed


def test_criterion_03_tail_bound_decreases():
    eps_list = (1e-2, 1e-3, 1e-4)
    vals = [
        pp.tail_well_sup(e, pp.transition_halfwidth(e, kappa=0.5), 1.0)
        for e in eps_list
    ]
    passed = all(b < a for a, b in zip(vals, vals[1:])) and vals[-1] <= 1e-3
    record_criterion(
        3,
        passed,
        "tail well sup "
        + " > ".join(f"{v:.3e}" for v in vals)
        + f", final <= 1e-3",
    )
    assert passed


def test_criterion_04_discrete_liminf(mm_family):
    worst = {}
    positive_tv = 0
    for exponent, states in mm_family.items():
        defects = []
        for state in states:
            split = pp.modica_mortola_split(state)
            defects.append(split.rhs - split.lhs)
            if split.tv_term > 0.0:
                positive_tv += 1
        worst[exponent] = max(defects)
    passed = all(worst[e] <= C_SPLIT * 2.0**-e for e in (8, 10, 12))
    record_criterion(
        4,
        passed,
        f"worst split defect {worst[8]:.3e} / {worst[10]:.3e} / {worst[12]:.3e} "
        f"at h = 2^-8 / 2^-10 / 2^-12, all <= {C_SPLIT}*h",
    )
    assert passed
    # the family genuinely crosses the wells: the bound is not vacuous
    assert positive_tv == 3 * 100


def test_criterion_05_recovery_limsup(recovery_bundle):
    sharp = recovery_bundle["sharp_1d"]
    totals = [report.energy.total for _, _, report in recovery_bundle["curve"]]
    gaps = [abs(t - sharp) for t in totals]
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    final_ok = gaps[-1] <= 0.05 * sharp

    disc_state, disc_report = recovery_bundle["disc"]
    sharp_2d = recovery_bundle["sharp_2d"]
    disc_gap = abs(disc_report.energy.total - sharp_2d)
    disc_ok = disc_gap <= 0.05 * sharp_2d

    passed = (
        monotone
        and final_ok
        and disc_ok
        and math.isclose(sharp, 14.0 / 3.0, rel_tol=1e-12)
        and math.isclose(sharp_2d, (8.0 / 3.0) * math.pi, rel_tol=1e-12)
    )
    record_criterion(
        5,
        passed,
        f"1D totals {totals[0]:.4f} -> {totals[1]:.4f} -> {totals[2]:.4f} "
        f"toward 14/3 (final gap {100 * gaps[-1] / sharp:.2f}%), "
        f"2D disc gap {100 * disc_gap / sharp_2d:.2f}% of (8/3)pi",
    )
    assert passed


def test_criterion_06_tv_compactness(mm_family, recovery_bundle, sweep_bundle):
    worst = -math.inf
    count = 0

    def check(state, total=None, tv=None):
        nonlocal worst, count
        if total is None:
            total = pp.e_eps(state).total
        if tv is None:
            tv = pp.tv_phase(state)
        defect = (tv - (2.0 / pp.C0) * total) / state.domain.h
        worst = max(worst, defect)
        count += 1

    for states in mm_family.values():
        for state in states:
            check(state)
    for _, state, report in recovery_bundle["curve"]:
        check(state, total=report.energy.total)
    disc_state, disc_report = recovery_bundle["disc"]
    check(disc_state, total=disc_report.energy.total)
    for entry in sweep_bundle["sym"] + sweep_bundle["asym"]:
        check(entry.state, total=entry.energy.total, tv=entry.tv)

    passed = worst <= C_TV
    record_criterion(
        6,
        passed,
        f"max (tv - (2/C0) E)/h = {worst:.2f} <= {C_TV} over {count} states",
    )
    assert passed


def test_criterion_07_minimizer_convergence(sweep_bundle):
    sym = sweep_bundle["sym"][-1]
    asym = sweep_bundle["asym"][-1]
    sym_oracle = 14.0 / 3.0
    asym_oracle = 32.0 / 3.0
    checks = {
        "sym energy": abs(sym.energy.total - sym_oracle) <= 0.05 * sym_oracle,
        "sym interface": abs(sym.interface) <= 0.02,
        "sym l2": sym.l2_gap_to_oracle <= 0.05,
        "sym phase l1": sym.phase_l1_gap <= 0.05,
        "asym energy": abs(asym.energy.total - asym_oracle) <= 0.05 * asym_oracle,
        "asym interface": abs(asym.interface - (-0.5)) <= 0.03,
    }
    passed = all(checks.values())
    record_criterion(
        7,
        passed,
        f"sym total {sym.energy.total:.4f} (oracle 14/3), x0 {sym.interface:.2e}, "
        f"l2 {sym.l2_gap_to_oracle:.4f}, phase l1 {sym.phase_l1_gap:.4f}; "
        f"asym total {asym.energy.total:.4f} (oracle 32/3), x0 {asym.interface:.4f}"
        + ("" if passed else "; failed: " + ", ".join(k for k, v in checks.items() if not v)),
    )
    assert passed


def test_criterion_08_harmonic_replacement():
    domain = pp.Domain.box(-1.0, 1.0, 64)
    rng = np.random.Generator(np.random.Philox(0))
    good = 0
    min_margin = math.inf
    for _ in range(100):
        field = random_positive_field(domain, rng, 0.1)
        replaced = pp.harmonic_replacement(field)
        before = pp.sharp_energy(
            pp.SharpPair(field, mask=field.values >= 0.0, bound_m=float(np.max(field.values)))
        ).total
        after = pp.sharp_energy(
            pp.SharpPair(replaced, mask=replaced.values >= 0.0, bound_m=float(np.max(field.values)))
        ).total
        margin = before - after
        min_margin = min(min_margin, margin)
        if margin > 1e-8 and bool(np.all(replaced.values > 0.0)):
            good += 1
    passed = good == 100
    record_criterion(
        8,
        passed,
        f"{good}/100 strictly positive with sharp-energy drop, "
        f"min margin {min_margin:.3e} > 1e-8",
    )
    assert passed


def test_criterion_09_glue_contract():
    domain = pp.Domain.ball(1.0, 256)
    eps, bound_m, gamma = 1e-2, 1.0, 0.1
    zeros = np.zeros(domain.node_shape)
    pair_u = pp.SharpPair(
        pp.ScalarField(domain, zeros.copy()),
        region=pp.Disc((0.0, 0.0), 0.25),
        bound_m=bound_m,
    )
    pair_v = pp.SharpPair(
        pp.ScalarField(domain, zeros.copy()),
        region=pp.Disc((0.1, 0.0), 0.25),
        bound_m=bound_m,
    )
    u_state, _ = pp.build_recovery(pair_u, eps)
    v_state, _ = pp.build_recovery(pair_v, eps)
    spec = pp.AnnulusSpec(0.6, 0.2)
    out_state, report = pp.glue(
        inner_state=v_state, outer_state=u_state, spec=spec, budget=gamma
    )

    x, y = domain.nodes_x, domain.nodes_y
    r = np.hypot(x, y)
    inner_zone = r <= 0.6
    outer_zone = r >= 0.8
    inner_exact = np.array_equal(
        out_state.values[inner_zone], v_state.values[inner_zone]
    )
    outer_exact = np.array_equal(
        out_state.values[outer_zone], u_state.values[outer_zone]
    )
    passed = inner_exact and outer_exact and report.excess <= gamma
    record_criterion(
        9,
        passed,
        f"inner/outer zones bitwise {inner_exact}/{outer_exact}, "
        f"excess {report.excess:.3e} <= gamma = {gamma}",
    )
    assert passed


def test_criterion_10_barrier_uniform_bound(sweep_bundle):
    results = {}
    dom_1d = pp.Domain.interval(-1.0, 1.0, 4096)
    for eps in (1e-2, 1e-3):
        results[("1d", eps)] = pp.build_barrier(
            dom_1d, interface_radius=0.5, bound_m=1.0, epsilon=eps
        )
    for n, eps in ((512, 1e-2), (1024, 1e-3)):
        results[("2d", eps)] = pp.build_barrier(
            pp.Domain.ball(1.0, n), interface_radius=0.5, bound_m=1.0, epsilon=eps
        )
    barrier_ok = all(
        res.feasible and res.energy.total <= 1.02 * res.bound
        for res in results.values()
    )

    band = pp.IntervalUnion(((-0.5, 0.5),))
    bound_1d = results[("1d", 1e-2)].bound
    sweep_worst = max(
        pp.e_eps(entry.state, subdomain=band).total
        for entry in sweep_bundle["sym"] + sweep_bundle["asym"]
    )
    sweep_ok = sweep_worst <= bound_1d

    passed = barrier_ok and sweep_ok
    ratios = ", ".join(
        f"{dim} eps={eps:g}: {res.energy.total:.3f}/{res.bound:.3f}"
        for (dim, eps), res in results.items()
    )
    record_criterion(
        10,
        passed,
        f"barrier energy/bound {ratios}; sweep local energy max "
        f"{sweep_worst:.3f} <= {bound_1d:.3f}",
    )
    assert passed
