"""Shared fixtures and the acceptance summary hook.

The expensive states (relaxation sweeps, recovery sequences, the seeded
random-field family) are built once per session and shared between the
acceptance criteria, several of which re-examine the same states.
"""

import numpy as np
import pytest

import perimeter_phase as pp

# Filled by tests/test_acceptance.py; printed at the end of the run so the
# log carries one explicit line per criterion.
ACCEPTANCE_RESULTS = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS[number] = (passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[number]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"ACCEPTANCE CRITERION {number}: {status} - {detail}"
        )


def damage_csv_lines(lines: list, damage: str) -> list:
    """The lines of a saved CSV field after one kind of damage."""
    if damage == "short_row":
        lines[2] = lines[2].rsplit(",", 1)[0]
    elif damage == "blank_line":
        lines.insert(2, "")
    else:
        lines = []
    return lines


# ---------------------------------------------------------------------------
# Seeded band-limited 1D fields.  Eight Fourier modes with 1/k coefficient
# decay, normalized to sup 0.9 so the amplitude bound 1 always holds.

_MODES = 8


def band_limited_field(seed: int, x: np.ndarray, amplitude: float = 0.9) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(_MODES) / np.arange(1, _MODES + 1)
    b = rng.standard_normal(_MODES) / np.arange(1, _MODES + 1)
    u = np.zeros_like(x)
    for k in range(1, _MODES + 1):
        u += a[k - 1] * np.cos(np.pi * k * x) + b[k - 1] * np.sin(np.pi * k * x)
    sup = np.max(np.abs(u))
    return amplitude * u / sup if sup > 0 else u


@pytest.fixture(scope="session")
def mm_family():
    """100 seeded fields at eps = 1e-2 on three dyadic grids.

    Returns {grid_exponent: [PhaseState, ...]} for exponents 8, 10, 12
    (h = 2**-exponent on (-1, 1)).
    """
    out = {}
    for exponent in (8, 10, 12):
        n = int(round(2.0 / 2.0 ** (-exponent)))
        domain = pp.Domain.interval(-1.0, 1.0, n)
        states = []
        for seed in range(100):
            u = band_limited_field(seed, domain.nodes_x)
            states.append(pp.PhaseState(pp.ScalarField(domain, u), 1e-2, 1.0))
        out[exponent] = states
    return out


@pytest.fixture(scope="session")
def recovery_bundle():
    """Recovery states for the 1D sloped pair and the 2D disc pair.

    1D: u(x) = x on (-1, 1) with positivity set (0, 1), h = 1e-4,
    eps in {1e-1, 1e-2, 1e-3}.  2D: u = 0 on (-1, 1)^2 with a disc of
    radius 0.5, 512^2 grid, eps = 1e-2.
    """
    domain = pp.Domain.interval(-1.0, 1.0, 20000)
    region = pp.IntervalUnion(((0.0, np.inf),))
    pair = pp.SharpPair(
        pp.ScalarField(domain, domain.nodes_x.copy()), region=region
    )
    sharp_1d = pp.sharp_energy(pair).total
    curve = []
    for eps in (1e-1, 1e-2, 1e-3):
        state, report = pp.build_recovery(pair, eps)
        curve.append((eps, state, report))

    domain2 = pp.Domain.box(-1.0, 1.0, 512)
    pair2 = pp.SharpPair(
        pp.ScalarField(domain2, np.zeros(domain2.node_shape)),
        region=pp.Disc((0.0, 0.0), 0.5),
    )
    sharp_2d = pp.sharp_energy(pair2).total
    state2, report2 = pp.build_recovery(pair2, 1e-2)
    return {
        "pair_1d": pair,
        "sharp_1d": sharp_1d,
        "curve": curve,
        "disc": (state2, report2),
        "sharp_2d": sharp_2d,
    }


# Relaxation budget shared by both sweeps.  Tight stationarity at these
# scales is diffusion limited (the boundary ramps relax on a time scale
# of order 1, i.e. h^-2 iterations), so the sweeps run to a fixed
# iteration cap and the criteria check the physical metrics instead of
# the gradient norm.
SWEEP_EPSILONS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
SWEEP_N = 4096
SWEEP_MAX_ITERS = 20000
SWEEP_TOL = 1e-4


@pytest.fixture(scope="session")
def sweep_bundle():
    """Continuation sweeps: symmetric (-1, 1) and asymmetric (-1, 3)."""
    domain = pp.Domain.interval(-1.0, 1.0, SWEEP_N)
    sym = pp.continuation_sweep(
        domain,
        SWEEP_EPSILONS,
        left_value=-1.0,
        right_value=1.0,
        bound_m=2.0,
        tol_grad=SWEEP_TOL,
        max_iters=SWEEP_MAX_ITERS,
    )
    asym = pp.continuation_sweep(
        domain,
        SWEEP_EPSILONS,
        left_value=-1.0,
        right_value=3.0,
        bound_m=3.0,
        tol_grad=SWEEP_TOL,
        max_iters=SWEEP_MAX_ITERS,
    )
    return {"sym": sym, "asym": asym}
