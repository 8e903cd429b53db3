"""Command-line experiment runner.

Each subcommand reads a JSON config, runs one experiment, and writes its
outputs (CSV tables, JSON summaries, raw field dumps) into the output
directory.  Outputs are byte-deterministic for a fixed config and seed:
floats are printed with %.17g (lossless for float64), JSON keys are
sorted, and the only randomness flows through a counter-based generator
seeded from the config.

Config keys and their defaults live in one place: the key table of each
subcommand in _TABLES (kind, seed and out, shared by all subcommands,
are checked in parse_config itself).  parse_config checks a config
against its table and writes the default of every absent optional key
into it, so the runners read cfg[key] and state no default of their own.

Exit codes: 0 on success; 1 for bad input (config violations, domain or
region errors, unreadable files); 2 when a construction's verified
contract fails (budget exceeded, infeasible annulus, numerical guard).

The PERIMETER_PHASE_THREADS environment variable caps the worker pool
used for the embarrassingly parallel experiments (recovery curves and
the harmonic-replacement check); results are collected in input order,
so the thread count never changes the output bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from . import fieldio, potential
from . import energy as energy_mod
from . import interpolation, minimize, profiles1d, recovery
from .energy import PhaseState, ScalarField, SharpPair
from .errors import ConfigError, PerimeterPhaseError
from .geometry import Domain, region_from_dict

_FLOAT = "%.17g"
_CONTRACT_CODES = {"budget-exceeded", "infeasible-glue", "numeric"}
_N_MIN = 2**6
_N_MAX = 2**20
# Upper bounds on the sample points of a profile table and on the fields of
# a harmonic check, so that a mistyped count fails fast instead of running
# for minutes.
_PROFILE_COUNT_MAX = 1_000_000
_HARMONIC_COUNT_MAX = 10_000


def _workers() -> int:
    env = os.environ.get("PERIMETER_PHASE_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            return 1
    return min(4, os.cpu_count() or 1)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _fmt(x: float) -> str:
    return _FLOAT % float(x)


def _write_csv(path: str, header: List[str], rows: List[List[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(row) + "\n")


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def _breakdown_dict(b) -> dict:
    return {
        "dirichlet": b.dirichlet,
        "well": b.well,
        "perimeter_weighted": b.perimeter_weighted,
        "total": b.total,
    }


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


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _number(positive=False) -> Callable:
    def check(key, val, violations):
        if not _is_number(val):
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
    if not _is_number(val):
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


def _is_point(x) -> bool:
    return isinstance(x, (list, tuple)) and len(x) == 2 and all(_is_number(c) for c in x)


def _domain(not_interval: Optional[str] = None) -> Callable:
    """Domain check; not_interval, if given, is the violation for 2D kinds."""

    def check(key, dom, violations):
        if not isinstance(dom, dict):
            violations.append(f"domain must be an object, got {dom!r}")
            return
        kind = dom.get("kind")
        if kind not in ("interval", "box", "ball"):
            violations.append(f"domain.kind must be interval, box, or ball, got {kind!r}")
            return
        if "n" in dom:
            _grid_n("domain.n", dom["n"], violations)
        else:
            violations.append("missing required key 'domain.n'")
        if kind == "ball":
            if not _is_number(dom.get("radius")) or not dom["radius"] > 0:
                violations.append("domain.radius must be a positive number")
            if "center" in dom and not _is_point(dom["center"]):
                violations.append(
                    f"domain.center must be two finite numbers, got {dom['center']!r}"
                )
        else:
            lo, hi = dom.get("lo"), dom.get("hi")
            if not (_is_number(lo) and _is_number(hi) and lo < hi):
                violations.append("domain needs numbers lo < hi")
        if not_interval is not None and kind != "interval":
            violations.append(not_interval)

    return check


def _region(key, val, violations):
    try:
        return region_from_dict(val)
    except (PerimeterPhaseError, KeyError, TypeError, ValueError) as exc:
        violations.append(f"{key} is not a valid region: {exc}")


def _epsilons(key, eps, violations):
    if not isinstance(eps, list) or not eps or not all(_is_number(e) for e in eps):
        violations.append(f"{key} must be a nonempty list of numbers")
    elif any(e <= 0 for e in eps):
        violations.append(f"{key} must all be positive")
    elif any(b >= a for a, b in zip(eps, eps[1:])):
        violations.append(f"{key} must be strictly decreasing")
    else:
        return [float(e) for e in eps]


def _boundary(key, bnd, violations):
    ends = (bnd.get("left"), bnd.get("right")) if isinstance(bnd, dict) else ()
    if not _is_point(ends):
        violations.append(f"{key} must be an object with numbers left and right")
    elif not ends[0] < 0.0 < ends[1]:
        violations.append(f"{key} values must straddle zero, got left={ends[0]}, right={ends[1]}")
    else:
        return dict(bnd, left=float(ends[0]), right=float(ends[1]))


_POSITIVE = _Rule(_number(positive=True))
_BOUND_M = _Rule(_number(positive=True), 1.0)
_KAPPA = _Rule(_kappa, 0.1)
_CONVENTION = _Rule(
    _choice(profiles1d.TAIL_SLOPE_THETA, profiles1d.TAIL_SLOPE_SQRT_THETA),
    profiles1d.TAIL_SLOPE_THETA,
)
_TOL_GRAD = _Rule(_number(positive=True), 1e-5)
_MAX_ITERS = _Rule(_integer(0), 200000)

# Keys are checked in table order.
_TABLES: Dict[str, Dict[str, _Rule]] = {
    "profile": {
        "epsilon": _POSITIVE,
        "profile_kind": _Rule(_choice("standard", "linear_tail"), "standard"),
        "theta": _Rule(None, 0.0),
        "convention": _CONVENTION,
        "kappa": _KAPPA,
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
        "convention": _CONVENTION,
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


def _run_profile(cfg: dict, out_dir: str, rng) -> List[str]:
    prof = profiles1d.Profile(
        epsilon=cfg["epsilon"],
        kind=cfg["profile_kind"],
        theta=cfg["theta"],
        convention=cfg["convention"],
        kappa=cfg["kappa"],
    )
    s = np.linspace(-cfg["s_max"], cfg["s_max"], cfg["count"])
    value = np.asarray(prof.value(s), dtype=float)
    deriv = np.asarray(prof.derivative(s), dtype=float)
    well = np.asarray(prof.well_density(s), dtype=float)
    rows = [
        [_fmt(s[i]), _fmt(value[i]), _fmt(deriv[i]), _fmt(well[i])]
        for i in range(len(s))
    ]
    path = os.path.join(out_dir, "profile.csv")
    _write_csv(path, ["s", "value", "derivative", "well_density"], rows)
    return [path]


def _run_energy(cfg: dict, out_dir: str, rng) -> List[str]:
    field = fieldio.load_field(cfg["field"])
    sup = float(np.max(np.abs(field.values)))
    state = PhaseState(field, cfg["epsilon"], bound_m=max(sup, 1.0))
    breakdown = energy_mod.e_eps(state, subdomain=cfg["region"])
    payload = _breakdown_dict(breakdown)
    payload["tv_phase"] = energy_mod.tv_phase(state)
    payload["phase_band_measure"] = energy_mod.phase_band_measure(state)
    path = os.path.join(out_dir, "energy.json")
    _write_json(path, payload)
    return [path]


def _recovery_input(cfg: dict):
    if "field" in cfg:
        return fieldio.load_field(cfg["field"])
    domain = Domain.from_dict(cfg["domain"])
    if cfg["builtin"] == "zero":
        vals = np.zeros(domain.node_shape)
    elif cfg["builtin"] == "constant":
        vals = np.full(domain.node_shape, cfg["value"], dtype=float)
    else:
        vals = domain.nodes_x.copy()
    return ScalarField(domain, vals)


def _run_recovery(cfg: dict, out_dir: str, rng) -> List[str]:
    pair = SharpPair(field=_recovery_input(cfg), region=cfg["region"], bound_m=cfg["bound_m"])
    sharp_total = energy_mod.sharp_energy(pair).total

    def build(e: float):
        return recovery.build_recovery(pair, e, cfg["kappa"])

    with ThreadPoolExecutor(max_workers=_workers()) as pool:
        results = list(pool.map(build, cfg["epsilons"]))

    rows = []
    written = []
    for i, (state, report) in enumerate(results):
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
    path = os.path.join(out_dir, "recovery.csv")
    _write_csv(
        path,
        ["epsilon", "dirichlet", "well", "total", "sharp_total", "l2_gap", "h_tilde_l1_gap"],
        rows,
    )
    return [path] + written


def _run_glue(cfg: dict, out_dir: str, rng) -> List[str]:
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
        convention=cfg["convention"],
    )
    dump = os.path.join(out_dir, "glued.f64")
    fieldio.save_binary(out_state.field, dump)
    payload = {
        "r_star": report.r_star,
        "annulus_energy": report.annulus_energy,
        "budget_gamma": report.budget_gamma,
        "parts_energy": report.parts_energy,
        "total": _breakdown_dict(report.total_energy),
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
    _write_json(path, payload)
    return [path, dump]


def _run_barrier(cfg: dict, out_dir: str, rng) -> List[str]:
    domain = Domain.from_dict(cfg["domain"])
    result = interpolation.build_barrier(
        domain,
        interface_radius=cfg["interface_radius"],
        bound_m=cfg["bound_m"],
        epsilon=cfg["epsilon"],
        kappa=cfg["kappa"],
    )
    dump = os.path.join(out_dir, "barrier.f64")
    fieldio.save_binary(result.state.field, dump)
    payload = {
        "energy": _breakdown_dict(result.energy),
        "bound": result.bound,
        "perimeter_term": result.perimeter_term,
        "tent_dirichlet": result.tent_dirichlet,
        "feasible": result.feasible,
        "epsilon_threshold": result.epsilon_threshold,
        "within_bound": result.energy.total <= result.bound,
    }
    path = os.path.join(out_dir, "barrier.json")
    _write_json(path, payload)
    return [path, dump]


def _initial_state(cfg: dict) -> PhaseState:
    initial = cfg["initial"]
    epsilon = cfg["epsilon"]
    bound_m = cfg["bound_m"]
    if initial not in _STARTS:
        field = fieldio.load_field(initial)
        return PhaseState(field, epsilon, max(bound_m, float(np.max(np.abs(field.values)))))
    domain = Domain.from_dict(cfg["domain"])
    left, right = cfg["boundary"]["left"], cfg["boundary"]["right"]
    x = domain.nodes_x
    if initial == "linear":
        vals = minimize._affine_start(x, left, right)
    else:
        vals = np.zeros_like(x)
        vals[0], vals[-1] = left, right
    return PhaseState(ScalarField(domain, vals), epsilon, bound_m)


def _run_minimize(cfg: dict, out_dir: str, rng) -> List[str]:
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
        "energy": _breakdown_dict(breakdown),
        "iterations": result.iterations,
        "grad_sup": result.grad_sup,
        "converged": result.converged,
    }
    if result.state.domain.dim == 1:
        payload["interfaces"] = [
            float(x) for x in minimize.sign_change_locations(result.state.field)
        ]
    path = os.path.join(out_dir, "minimize.json")
    _write_json(path, payload)
    return [path, dump]


def _run_sweep(cfg: dict, out_dir: str, rng) -> List[str]:
    domain = Domain.from_dict(cfg["domain"])
    entries = minimize.continuation_sweep(
        domain,
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
        ]
        for e in entries
    ]
    path = os.path.join(out_dir, "sweep.csv")
    _write_csv(
        path,
        ["epsilon", "total", "dirichlet", "well", "tv_phase", "interface_x", "l2_gap_to_oracle"],
        rows,
    )
    return [path]


def _run_oracle1d(cfg: dict, out_dir: str, rng) -> List[str]:
    oracle = minimize.sharp_oracle_1d(cfg["a"], cfg["b"])
    payload = {
        "interface": oracle.interface,
        "energy": oracle.energy,
        "knot_x": [float(x) for x in oracle.knot_x],
        "knot_y": [float(y) for y in oracle.knot_y],
    }
    path = os.path.join(out_dir, "oracle1d.json")
    _write_json(path, payload)
    return [path]


def _bilinear_upsample(coarse: np.ndarray, m: int) -> np.ndarray:
    k = coarse.shape[0]
    t = np.linspace(0.0, k - 1.0, m)
    i0 = np.clip(t.astype(int), 0, k - 2)
    f = t - i0
    rows = coarse[i0, :] * (1.0 - f)[:, None] + coarse[i0 + 1, :] * f[:, None]
    return rows[:, i0] * (1.0 - f)[None, :] + rows[:, i0 + 1] * f[None, :]


def random_positive_field(domain: Domain, rng: np.random.Generator, floor: float) -> ScalarField:
    """Smooth strictly positive random field, floor at the boundary and below."""
    coarse = rng.standard_normal((9, 9))
    smooth = _bilinear_upsample(coarse, domain.node_shape[0])
    return ScalarField(domain, floor + smooth * smooth)


def _run_harmonic_check(cfg: dict, out_dir: str, rng) -> List[str]:
    count = cfg["count"]
    domain = Domain.box(-1.0, 1.0, cfg["n"])
    fields = [random_positive_field(domain, rng, cfg["boundary_floor"]) for _ in range(count)]

    def process(field: ScalarField):
        replaced = minimize.harmonic_replacement(field)
        before = energy_mod.dirichlet_energy(field)
        after = energy_mod.dirichlet_energy(replaced)
        positive = bool(np.all(replaced.values > 0.0))
        return before, after, positive

    with ThreadPoolExecutor(max_workers=_workers()) as pool:
        results = list(pool.map(process, fields))

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
    _write_json(json_path, summary)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perimeter-phase",
        description="Experiments with diffuse phase energies and their sharp limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--quiet", action="store_true", help="suppress the path listing")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as f:
            cfg = json.load(f)
        if args.seed is not None and isinstance(cfg, dict):
            cfg["seed"] = args.seed
        cfg = parse_config(args.command, cfg)
        out_dir = args.out if args.out is not None else cfg["out"]
        os.makedirs(out_dir, exist_ok=True)
        rng = _rng(cfg["seed"])
        written = _RUNNERS[args.command](cfg, out_dir, rng)
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
