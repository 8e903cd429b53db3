"""Command-line experiment runner.

Each subcommand reads a JSON config, runs one experiment, and writes its
outputs (CSV tables, JSON summaries, raw field dumps) into the output
directory.  Outputs are byte-deterministic for a fixed config and seed:
floats are printed with %.17g (lossless for float64), JSON keys are
sorted.  Only harmonic-check draws random numbers: it seeds a
counter-based generator from the config, and it alone loads numpy.random.

Config keys and their defaults live in one place: the key table of each
subcommand in _TABLES (kind, seed and out, shared by all subcommands,
are checked in parse_config itself).  parse_config checks a config
against its table and writes the default of every absent optional key
into it, so the runners read cfg[key] and state no default of their own.
The library's own rules are not restated here: parse_config stores the
Domain that Domain.from_dict builds, the regions of region_from_dict and
the schedule of energy.epsilon_schedule, and adds only the CLI's policy
(power-of-two grid sizes, interval-only subcommands, count bounds).

Exit codes: 0 on success; 1 for bad input (config violations, domain or
region errors, unreadable files); 2 when a construction's verified
contract fails (budget exceeded, numerical guard).

Only the harmonic-replacement check runs on a thread pool, through
_map_chunks: one task per contiguous chunk of near-equal length, at most
one chunk per worker.  Results are joined in input order, so the thread
count never changes the output bytes, and when items fail the exception
raised is that of the first failing item in input order.  The pool has
one worker per CPU this process may run on (os.sched_getaffinity where
it exists, os.cpu_count elsewhere), at most 4.  The main thread draws
each field's 9x9 knots in index order from the seeded generator; the
worker that takes the knots builds the field, solves it and drops it, so
the fields alive at once are one per worker, whatever the count.

Recovery builds its scales in turn and dumps each as it is built: on the
pool two builds overlapped, and the benchmark's construct2d pipeline
peaked at about 73 MB of RSS instead of 58 MB, and was no faster.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from . import fieldio
from . import energy as energy_mod
from . import interpolation, minimize, potential, profiles1d, recovery
from .energy import PhaseState, ScalarField, SharpPair
from .errors import ConfigError, DomainError, PerimeterPhaseError
from .geometry import Domain, _finite, region_from_dict

_CONTRACT_CODES = {"budget-exceeded", "numeric"}
_N_MIN = 2**6
_N_MAX = 2**20
# Upper bounds on the sample points of a profile table and on the fields of
# a harmonic check, so that a mistyped count fails fast instead of running
# for minutes.
_PROFILE_COUNT_MAX = 1_000_000
_HARMONIC_COUNT_MAX = 10_000


def _workers() -> int:
    # cpu_count() counts the whole machine, also under taskset or a cpuset.
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(4, cpus)


def _map_chunks(fn: Callable, items: Sequence) -> list:
    """[fn(x) for x in items], one contiguous chunk of items per pool worker."""
    chunks = min(_workers(), len(items))
    if chunks == 0:
        return []
    bounds = [len(items) * i // chunks for i in range(chunks + 1)]

    def run(lo: int, hi: int) -> list:
        return [fn(x) for x in items[lo:hi]]

    with ThreadPoolExecutor(max_workers=chunks) as pool:
        futures = [pool.submit(run, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        # A chunk stops at its first failing item, and result() raises the
        # first failing chunk's exception: the first failing item's.
        return [y for future in futures for y in future.result()]


def _keep_freed_heap() -> None:
    """Have glibc keep freed grid arrays in its heap for reuse.

    By default glibc trims freed arrays off the heap top, so later grid
    temporaries fault their pages in again: construct2d took 21k to 54k
    minor faults (up to a third more wall time) by heap layout alone, and
    takes about 5k with arrays up to 32 MB kept in a heap trimmed past 64 MB.
    """
    libc = ctypes.CDLL(None) if sys.platform.startswith("linux") else None
    if hasattr(libc, "mallopt"):
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _fmt(x: float) -> str:
    return fieldio.FLOAT_FMT % float(x)


def _write_csv(path: str, header: List[str], rows: List[List[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# Config validation.  Each subcommand has one key table that maps every
# allowed key to a rule: the check its value must pass and its default, or
# _REQUIRED.  Checks append human-readable problems to a shared list;
# nothing raises until the whole config has been inspected.

_REQUIRED = object()
_STARTS = ("linear", "zero")


class _Rule(NamedTuple):
    # check(key, value, violations) may return a normalized value to store;
    # None as check leaves the value unchecked.
    check: Optional[Callable]
    default: object = _REQUIRED


def _number(positive=False) -> Callable:
    def check(key, val, violations):
        if not _finite(val):
            violations.append(f"{key} must be a finite number, got {val!r}")
        elif positive and not val > 0:
            violations.append(f"{key} must be positive, got {val}")

    return check


def _integer(low: int, high: Optional[int] = None) -> Callable:
    def check(key, val, violations):
        if not isinstance(val, int) or isinstance(val, bool):
            violations.append(f"{key} must be an integer, got {val!r}")
        elif val < low:
            violations.append(f"{key} must be >= {low}, got {val}")
        elif high is not None and val > high:
            violations.append(f"{key} must be <= {high}, got {val}")

    return check


def _choice(*choices: str) -> Callable:
    def check(key, val, violations):
        if not isinstance(val, str):
            violations.append(f"{key} must be a string, got {val!r}")
        elif val not in choices:
            violations.append(f"{key} must be one of {sorted(choices)}, got {val!r}")

    return check


def _input_file(key, val, violations):
    if not isinstance(val, str):
        violations.append(f"{key} must be a string, got {val!r}")
    elif not os.path.isfile(val):
        violations.append(f"{key} does not exist: {val}")


def _start(key, val, violations):
    if not isinstance(val, str):
        violations.append(f"{key} must be a string, got {val!r}")
    elif val not in _STARTS and not os.path.isfile(val):
        violations.append(f"{key} field does not exist: {val}")


def _boolean(key, val, violations):
    if not isinstance(val, bool):
        violations.append(f"{key} must be a boolean")


def _kappa(key, val, violations):
    if not _finite(val):
        violations.append(f"{key} must be a finite number, got {val!r}")
    elif not 0.0 < val < 1.0:
        violations.append(f"{key} must lie in (0, 1), got {float(val)}")


def _grid_n(key, n, violations):
    if not isinstance(n, int) or isinstance(n, bool):
        violations.append(f"{key} must be an integer, got {n!r}")
    elif n < _N_MIN or n > _N_MAX or (n & (n - 1)) != 0:
        violations.append(
            f"{key} must be a power of two between {_N_MIN} and {_N_MAX}, got {n}"
        )


def _domain(not_interval: Optional[str] = None) -> Callable:
    """The Domain of the data, built only once the CLI's grid-size policy
    holds; not_interval, if given, is the violation for 2D kinds."""

    def check(key, dom, violations):
        found = len(violations)
        if isinstance(dom, dict):
            if "n" in dom:
                _grid_n("domain.n", dom["n"], violations)
            if not_interval is not None and dom.get("kind") in ("box", "ball"):
                violations.append(not_interval)
        if len(violations) == found:
            try:
                return Domain.from_dict(dom)
            except DomainError as exc:
                violations.append(str(exc))

    return check


def _region(key, val, violations):
    try:
        return region_from_dict(val)
    except (PerimeterPhaseError, KeyError, TypeError, ValueError) as exc:
        violations.append(f"{key} is not a valid region: {exc}")


def _epsilons(key, eps, violations):
    # NaN and inf pass here and fail in epsilon_schedule.
    if not (isinstance(eps, list) and all(type(e) is float or _finite(e) for e in eps)):
        violations.append(f"{key} must be a list of numbers")
        return None
    try:
        return energy_mod.epsilon_schedule(eps)
    except DomainError as exc:
        violations.append(str(exc))


def _boundary(key, bnd, violations):
    ends = (bnd.get("left"), bnd.get("right")) if isinstance(bnd, dict) else (None, None)
    if not _finite(*ends):
        violations.append(f"{key} must be an object with numbers left and right")
    elif not ends[0] < 0.0 < ends[1]:
        violations.append(f"{key} values must straddle zero, got left={ends[0]}, right={ends[1]}")
    else:
        return dict(bnd, left=float(ends[0]), right=float(ends[1]))


_POSITIVE = _Rule(_number(positive=True))
_BOUND_M = _Rule(_number(positive=True), 1.0)
_KAPPA = _Rule(_kappa, 0.1)
_TOL_GRAD = _Rule(_number(positive=True), minimize.MinimizeConfig.tol_grad)
_MAX_ITERS = _Rule(_integer(0), minimize.MinimizeConfig.max_iters)

# Keys are checked in table order.
_TABLES: Dict[str, Dict[str, _Rule]] = {
    "profile": {
        "epsilon": _POSITIVE,
        "profile_kind": _Rule(_choice("standard", "linear_tail"), "standard"),
        "theta": _Rule(None, 0.0),
        "s_max": _POSITIVE,
        "count": _Rule(_integer(2, _PROFILE_COUNT_MAX), 1001),
    },
    "energy": {
        "field": _Rule(_input_file),
        "epsilon": _POSITIVE,
        "region": _Rule(_region, None),
    },
    "recovery": {
        "field": _Rule(_input_file),
        "builtin": _Rule(_choice("zero", "linear_x", "constant"), "zero"),
        "value": _Rule(_number()),
        "domain": _Rule(_domain()),
        "region": _Rule(_region),
        "epsilons": _Rule(_epsilons),
        "kappa": _KAPPA,
        "bound_m": _BOUND_M,
        "dump_fields": _Rule(_boolean, False),
    },
    "glue": {
        "u_field": _Rule(_input_file),
        "v_field": _Rule(_input_file),
        "epsilon": _POSITIVE,
        "bound_m": _BOUND_M,
        "rho": _POSITIVE,
        "delta": _POSITIVE,
        "gamma": _POSITIVE,
    },
    "barrier": {
        "domain": _Rule(_domain()),
        "interface_radius": _POSITIVE,
        "bound_m": _BOUND_M,
        "epsilon": _POSITIVE,
        "kappa": _KAPPA,
    },
    "minimize": {
        "initial": _Rule(_start, "linear"),
        "domain": _Rule(_domain("builtin initial fields need an interval domain")),
        "boundary": _Rule(_boundary),
        "epsilon": _POSITIVE,
        "bound_m": _BOUND_M,
        "tol_grad": _TOL_GRAD,
        "max_iters": _MAX_ITERS,
    },
    "sweep": {
        "domain": _Rule(_domain("sweeps need an interval domain")),
        "epsilons": _Rule(_epsilons),
        "bound_m": _POSITIVE,
        "boundary": _Rule(_boundary),
        "tol_grad": _TOL_GRAD,
        "max_iters": _MAX_ITERS,
    },
    "oracle1d": {"a": _POSITIVE, "b": _POSITIVE},
    "harmonic-check": {
        "count": _Rule(_integer(1, _HARMONIC_COUNT_MAX), 100),
        "n": _Rule(_grid_n, 64),
        "boundary_floor": _Rule(_number(positive=True), 0.1),
    },
}


def _cross_key_rules(kind: str, cfg: dict) -> dict:
    """Table entries replaced by what other keys say; None skips a key."""
    if kind == "profile" and cfg.get("profile_kind") == "linear_tail":
        return {"theta": _POSITIVE}  # only linear-tail profiles read theta
    if kind == "recovery":
        # An input field replaces the builtin start, its value and domain.
        if "field" in cfg:
            return dict.fromkeys(("builtin", "value", "domain"))
        if cfg.get("builtin") != "constant":
            return dict.fromkeys(("field", "value"))
        return {"field": None}
    if kind == "minimize":
        start = cfg.get("initial")
        if isinstance(start, str) and start not in _STARTS:
            # A start read from a file carries its domain and boundary values.
            return dict.fromkeys(("domain", "boundary"))
    return {}


def parse_config(kind: str, cfg: dict) -> dict:
    """Validate a config against the key table of its subcommand.

    Collects every violation before raising ConfigError, so one run
    reports all problems.  Fills in the default of every absent optional
    key, turns epsilons and boundary values into floats and parses
    regions, so runners read cfg[key] as it stands.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(["config root must be a JSON object"])
    violations: List[str] = []
    stated = cfg.get("kind")
    if stated is not None and stated != kind:
        violations.append(f"config kind {stated!r} does not match subcommand {kind!r}")
    seed = cfg.setdefault("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        violations.append(f"seed must be a nonnegative integer, got {seed!r}")
    if not isinstance(cfg.setdefault("out", "."), str):
        violations.append(f"out must be a string path, got {cfg['out']!r}")
    table = _TABLES[kind]
    for key in sorted(set(cfg) - set(table) - {"kind", "seed", "out"}):
        violations.append(f"unknown key {key!r}")
    for key, rule in {**table, **_cross_key_rules(kind, cfg)}.items():
        if rule is None:
            continue
        if key not in cfg:
            if rule.default is _REQUIRED:
                violations.append(f"missing required key {key!r}")
            else:
                cfg[key] = rule.default
        elif rule.check is not None:
            value = rule.check(key, cfg[key], violations)
            if value is not None:
                cfg[key] = value
    if violations:
        raise ConfigError(violations)
    return cfg


# ---------------------------------------------------------------------------
# Runners.  Each returns the list of paths it wrote.


def _run_profile(cfg: dict, out_dir: str) -> List[str]:
    epsilon = cfg["epsilon"]
    s = np.linspace(-cfg["s_max"], cfg["s_max"], cfg["count"])
    if cfg["profile_kind"] == "standard":
        value = profiles1d.transition_profile(epsilon, s)
        deriv = profiles1d.transition_profile_derivative(epsilon, s)
    else:
        prof = profiles1d.sloped_profile(epsilon, cfg["theta"])
        value, deriv = prof.value(s), prof.derivative(s)
    well = potential.w(value / math.sqrt(epsilon)) / epsilon
    rows = [
        [_fmt(s[i]), _fmt(value[i]), _fmt(deriv[i]), _fmt(well[i])]
        for i in range(len(s))
    ]
    path = os.path.join(out_dir, "profile.csv")
    _write_csv(path, ["s", "value", "derivative", "well_density"], rows)
    return [path]


def _run_energy(cfg: dict, out_dir: str) -> List[str]:
    field = fieldio.load_field(cfg["field"])
    sup = energy_mod._sup_abs(field.values)
    state = PhaseState(field, cfg["epsilon"], bound_m=max(sup, 1.0))
    breakdown = energy_mod.e_eps(state, subdomain=cfg["region"])
    payload = dataclasses.asdict(breakdown)
    payload["tv_phase"] = energy_mod.tv_phase(state)
    payload["phase_band_measure"] = energy_mod.phase_band_measure(state)
    path = os.path.join(out_dir, "energy.json")
    fieldio.write_json(path, payload)
    return [path]


def _recovery_input(cfg: dict):
    if "field" in cfg:
        return fieldio.load_field(cfg["field"])
    domain = cfg["domain"]
    if cfg["builtin"] == "zero":
        vals = np.zeros(domain.node_shape)
    elif cfg["builtin"] == "constant":
        vals = np.full(domain.node_shape, cfg["value"], dtype=float)
    else:
        vals = domain.nodes_x.copy()
    return ScalarField(domain, vals)


def _run_recovery(cfg: dict, out_dir: str) -> List[str]:
    pair = SharpPair(field=_recovery_input(cfg), region=cfg["region"], bound_m=cfg["bound_m"])
    sharp_total = energy_mod.sharp_energy(pair).total
    rows = []
    written = []
    for i, e in enumerate(cfg["epsilons"]):
        state, report = recovery.build_recovery(pair, e, cfg["kappa"])
        rows.append(
            [
                _fmt(report.epsilon),
                _fmt(report.energy.dirichlet),
                _fmt(report.energy.well),
                _fmt(report.energy.total),
                _fmt(sharp_total),
                _fmt(report.l2_gap),
                _fmt(report.h_tilde_l1_gap),
            ]
        )
        if cfg["dump_fields"]:
            dump = os.path.join(out_dir, f"recovery_{i:03d}.f64")
            fieldio.save_binary(state.field, dump)
            written.append(dump)
        del state  # one scale's state at a time: free it before the next build
    path = os.path.join(out_dir, "recovery.csv")
    _write_csv(
        path,
        ["epsilon", "dirichlet", "well", "total", "sharp_total", "l2_gap", "h_tilde_l1_gap"],
        rows,
    )
    return [path] + written


def _run_glue(cfg: dict, out_dir: str) -> List[str]:
    u_field = fieldio.load_field(cfg["u_field"])
    v_field = fieldio.load_field(cfg["v_field"])
    epsilon = cfg["epsilon"]
    bound_m = cfg["bound_m"]
    outer = PhaseState(u_field, epsilon, bound_m)
    inner = PhaseState(v_field, epsilon, bound_m)
    spec = interpolation.AnnulusSpec(cfg["rho"], cfg["delta"], bound_m)
    out_state, report = interpolation.glue(
        inner_state=inner,
        outer_state=outer,
        spec=spec,
        budget=cfg["gamma"],
    )
    dump = os.path.join(out_dir, "glued.f64")
    fieldio.save_binary(out_state.field, dump)
    payload = {
        "r_star": report.r_star,
        "annulus_energy": report.annulus_energy,
        "budget_gamma": report.budget_gamma,
        "parts_energy": report.parts_energy,
        "total": dataclasses.asdict(report.total_energy),
        "excess": report.excess,
        "within_third": report.within_third,
        "stages": [
            {
                "direction": s.direction,
                "r_star": s.r_star,
                "annulus_energy": s.annulus_energy,
            }
            for s in report.stages
        ],
        "l2_gap_outside": report.l2_gap_outside,
        "phase_l1_gap_outside": report.phase_l1_gap_outside,
    }
    path = os.path.join(out_dir, "glue.json")
    fieldio.write_json(path, payload)
    return [path, dump]


def _run_barrier(cfg: dict, out_dir: str) -> List[str]:
    result = interpolation.build_barrier(
        cfg["domain"],
        interface_radius=cfg["interface_radius"],
        bound_m=cfg["bound_m"],
        epsilon=cfg["epsilon"],
        kappa=cfg["kappa"],
    )
    dump = os.path.join(out_dir, "barrier.f64")
    fieldio.save_binary(result.state.field, dump)
    payload = {
        "energy": dataclasses.asdict(result.energy),
        "bound": result.bound,
        "perimeter_term": result.perimeter_term,
        "tent_dirichlet": result.tent_dirichlet,
        "feasible": result.feasible,
        "epsilon_threshold": result.epsilon_threshold,
        "within_bound": result.energy.total <= result.bound,
    }
    path = os.path.join(out_dir, "barrier.json")
    fieldio.write_json(path, payload)
    return [path, dump]


def _initial_state(cfg: dict) -> PhaseState:
    initial = cfg["initial"]
    epsilon = cfg["epsilon"]
    bound_m = cfg["bound_m"]
    if initial not in _STARTS:
        field = fieldio.load_field(initial)
        return PhaseState(field, epsilon, max(bound_m, energy_mod._sup_abs(field.values)))
    domain = cfg["domain"]
    left, right = cfg["boundary"]["left"], cfg["boundary"]["right"]
    x = domain.nodes_x
    if initial == "linear":
        vals = minimize._affine_start(x, left, right)
    else:
        vals = np.zeros_like(x)
        vals[0], vals[-1] = left, right
    return PhaseState(ScalarField(domain, vals), epsilon, bound_m)


def _run_minimize(cfg: dict, out_dir: str) -> List[str]:
    state = _initial_state(cfg)
    config = minimize.MinimizeConfig(
        bound_m=state.bound_m,
        max_iters=cfg["max_iters"],
        tol_grad=cfg["tol_grad"],
    )
    result = minimize.minimize_e_eps(state, config)
    breakdown = energy_mod.e_eps(result.state)
    dump = os.path.join(out_dir, "minimized.f64")
    fieldio.save_binary(result.state.field, dump)
    payload = {
        "energy": dataclasses.asdict(breakdown),
        "iterations": result.iterations,
        "grad_sup": result.grad_sup,
        "converged": result.converged,
    }
    if result.state.domain.dim == 1:
        payload["interfaces"] = [
            float(x) for x in minimize.sign_change_locations(result.state.field)
        ]
    path = os.path.join(out_dir, "minimize.json")
    fieldio.write_json(path, payload)
    return [path, dump]


def _run_sweep(cfg: dict, out_dir: str) -> List[str]:
    entries = minimize.continuation_sweep(
        cfg["domain"],
        epsilons=cfg["epsilons"],
        left_value=cfg["boundary"]["left"],
        right_value=cfg["boundary"]["right"],
        bound_m=cfg["bound_m"],
        tol_grad=cfg["tol_grad"],
        max_iters=cfg["max_iters"],
    )
    rows = [
        [
            _fmt(e.epsilon),
            _fmt(e.energy.total),
            _fmt(e.energy.dirichlet),
            _fmt(e.energy.well),
            _fmt(e.tv),
            _fmt(e.interface),
            _fmt(e.l2_gap_to_oracle),
            str(e.iterations),
            "1" if e.converged else "0",
            _fmt(e.grad_sup),
        ]
        for e in entries
    ]
    path = os.path.join(out_dir, "sweep.csv")
    header = ["epsilon", "total", "dirichlet", "well", "tv_phase", "interface_x"]
    header += ["l2_gap_to_oracle", "iterations", "converged", "grad_sup"]
    _write_csv(path, header, rows)
    return [path]


def _run_oracle1d(cfg: dict, out_dir: str) -> List[str]:
    oracle = minimize.sharp_oracle_1d(cfg["a"], cfg["b"])
    payload = {
        "interface": oracle.interface,
        "energy": oracle.energy,
        "knot_x": [float(x) for x in oracle.knot_x],
        "knot_y": [float(y) for y in oracle.knot_y],
    }
    path = os.path.join(out_dir, "oracle1d.json")
    fieldio.write_json(path, payload)
    return [path]


# Process-wide, because harmonic-check upsamples every field on the same
# grid; read-only, so the pool's workers share the arrays.
@functools.lru_cache(maxsize=8)
def _upsample_weights(k: int, m: int):
    """Read-only indices (i0, i0 + 1) and weights (1 - f, f) of m samples on k knots."""
    t = np.linspace(0.0, k - 1.0, m)
    i0 = np.clip(t.astype(int), 0, k - 2)
    f = t - i0
    arrays = (i0, i0 + 1, 1.0 - f, f)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _bilinear_upsample(coarse: np.ndarray, m: int) -> np.ndarray:
    i0, i1, w0, w1 = _upsample_weights(coarse.shape[0], m)
    rows = coarse[i0, :] * w0[:, None] + coarse[i1, :] * w1[:, None]
    # Each column gather is weighted and summed in place.
    out, ahead = rows[:, i0], rows[:, i1]
    out *= w0
    ahead *= w1
    out += ahead
    return out


def _positive_field(domain: Domain, knots: np.ndarray, floor: float) -> ScalarField:
    """floor plus the square of the bilinear upsampling of a knot array."""
    smooth = _bilinear_upsample(knots, domain.node_shape[0])
    smooth *= smooth
    smooth += floor
    return ScalarField(domain, smooth)


def random_positive_field(domain: Domain, rng: np.random.Generator, floor: float) -> ScalarField:
    """Smooth strictly positive random field, floor at the boundary and below."""
    return _positive_field(domain, rng.standard_normal((9, 9)), floor)


def _run_harmonic_check(cfg: dict, out_dir: str) -> List[str]:
    from numpy.random import Generator, Philox  # the only subcommand that draws

    count = cfg["count"]
    domain = Domain.box(-1.0, 1.0, cfg["n"])
    rng = Generator(Philox(cfg["seed"]))
    # Drawn here in index order; the workers build the fields (module doc).
    knots = [rng.standard_normal((9, 9)) for _ in range(count)]

    def process(coarse: np.ndarray):
        field = _positive_field(domain, coarse, cfg["boundary_floor"])
        replaced = minimize.harmonic_replacement(field)
        before = energy_mod.dirichlet_energy(field)
        after = energy_mod.dirichlet_energy(replaced)
        positive = bool(np.all(replaced.values > 0.0))
        return before, after, positive

    results = _map_chunks(process, knots)

    rows = []
    margins = []
    all_positive = True
    for i, (before, after, positive) in enumerate(results):
        margin = before - after
        margins.append(margin)
        all_positive = all_positive and positive
        rows.append(
            [str(i), _fmt(before), _fmt(after), _fmt(margin), "1" if positive else "0"]
        )
    csv_path = os.path.join(out_dir, "harmonic.csv")
    _write_csv(
        csv_path,
        ["index", "dirichlet_before", "dirichlet_after", "margin", "strictly_positive"],
        rows,
    )
    summary = {
        "count": count,
        "all_strictly_positive": all_positive,
        "min_margin": min(margins),
        "all_strict_drop": bool(min(margins) > 0.0),
    }
    json_path = os.path.join(out_dir, "harmonic.json")
    fieldio.write_json(json_path, summary)
    return [csv_path, json_path]


_RUNNERS: Dict[str, Callable] = {
    "profile": _run_profile,
    "energy": _run_energy,
    "recovery": _run_recovery,
    "glue": _run_glue,
    "barrier": _run_barrier,
    "minimize": _run_minimize,
    "sweep": _run_sweep,
    "oracle1d": _run_oracle1d,
    "harmonic-check": _run_harmonic_check,
}


# Built once per process: a pipeline may run several subcommands in one.
@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perimeter-phase",
        description="Experiments with diffuse phase energies and their sharp limit.",
    )
    parser.add_argument("command", choices=list(_RUNNERS), help="the experiment to run")
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--quiet", action="store_true", help="suppress the path listing")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _keep_freed_heap()
    try:
        with open(args.config, "r", encoding="utf-8") as f:
            cfg = json.load(f)
        if args.seed is not None and isinstance(cfg, dict):
            cfg["seed"] = args.seed
        cfg = parse_config(args.command, cfg)
        out_dir = args.out if args.out is not None else cfg["out"]
        os.makedirs(out_dir, exist_ok=True)
        written = _RUNNERS[args.command](cfg, out_dir)
    except PerimeterPhaseError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2 if exc.code in _CONTRACT_CODES else 1
    except (OSError, ValueError) as exc:
        # Covers unreadable files, bad JSON, and malformed binary dumps.
        print(f"error[input]: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        for path in written:
            print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
