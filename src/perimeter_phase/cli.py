"""Command-line experiment runner.

Each subcommand reads a JSON config, runs one experiment, and writes its
outputs (CSV tables, JSON summaries, raw field dumps) into the output
directory.  Outputs are byte-deterministic for a fixed config and seed:
floats are printed with %.17g (lossless for float64), JSON keys are
sorted, and the only randomness flows through a counter-based generator
seeded from the config.

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
from typing import Callable, Dict, List, Optional

import numpy as np

from . import fieldio, potential
from . import energy as energy_mod
from . import interpolation, minimize, profiles1d, recovery
from .energy import PhaseState, ScalarField, SharpPair
from .errors import ConfigError, PerimeterPhaseError
from .geometry import Domain, Region, region_from_dict

_FLOAT = "%.17g"
_CONTRACT_CODES = {"budget-exceeded", "infeasible-glue", "numeric"}
_N_MIN = 2**6
_N_MAX = 2**20


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
# Config validation.  Every validator appends human-readable problems to a
# shared list; nothing raises until the whole config has been inspected.


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_unknown_keys(cfg: dict, allowed: set, violations: List[str]) -> None:
    for key in sorted(set(cfg) - allowed):
        violations.append(f"unknown key {key!r}")


def _get_number(
    cfg: dict,
    key: str,
    violations: List[str],
    default=None,
    required=False,
    positive=False,
):
    if key not in cfg:
        if required:
            violations.append(f"missing required key {key!r}")
        return default
    val = cfg[key]
    if not _is_number(val):
        violations.append(f"{key} must be a finite number, got {val!r}")
        return default
    if positive and not (val > 0):
        violations.append(f"{key} must be positive, got {val}")
        return default
    return float(val)


def _get_int(
    cfg: dict, key: str, violations: List[str], default=None, required=False, low=None
):
    if key not in cfg:
        if required:
            violations.append(f"missing required key {key!r}")
        return default
    val = cfg[key]
    if not isinstance(val, int) or isinstance(val, bool):
        violations.append(f"{key} must be an integer, got {val!r}")
        return default
    if low is not None and val < low:
        violations.append(f"{key} must be >= {low}, got {val}")
        return default
    return val


def _get_string(
    cfg: dict,
    key: str,
    violations: List[str],
    default=None,
    required=False,
    choices=None,
):
    if key not in cfg:
        if required:
            violations.append(f"missing required key {key!r}")
        return default
    val = cfg[key]
    if not isinstance(val, str):
        violations.append(f"{key} must be a string, got {val!r}")
        return default
    if choices is not None and val not in choices:
        violations.append(f"{key} must be one of {sorted(choices)}, got {val!r}")
        return default
    return val


def _check_grid_n(n, where: str, violations: List[str]) -> None:
    if n is None:
        return
    if not isinstance(n, int) or isinstance(n, bool):
        violations.append(f"{where} must be an integer, got {n!r}")
        return
    if n < _N_MIN or n > _N_MAX or (n & (n - 1)) != 0:
        violations.append(
            f"{where} must be a power of two between {_N_MIN} and {_N_MAX}, got {n}"
        )


def _check_domain(cfg: dict, violations: List[str], required=True) -> Optional[dict]:
    if "domain" not in cfg:
        if required:
            violations.append("missing required key 'domain'")
        return None
    dom = cfg["domain"]
    if not isinstance(dom, dict):
        violations.append(f"domain must be an object, got {dom!r}")
        return None
    kind = dom.get("kind")
    if kind not in ("interval", "box", "ball"):
        violations.append(f"domain.kind must be interval, box, or ball, got {kind!r}")
        return None
    _check_grid_n(dom.get("n"), "domain.n", violations)
    if "n" not in dom:
        violations.append("missing required key 'domain.n'")
    if kind == "ball":
        if not _is_number(dom.get("radius")) or not dom.get("radius", 0) > 0:
            violations.append("domain.radius must be a positive number")
    else:
        lo, hi = dom.get("lo"), dom.get("hi")
        if not (_is_number(lo) and _is_number(hi) and lo < hi):
            violations.append("domain needs numbers lo < hi")
    return dom


def _check_region(cfg: dict, violations: List[str], required=True, key="region"):
    if key not in cfg:
        if required:
            violations.append(f"missing required key {key!r}")
        return None
    try:
        return region_from_dict(cfg[key])
    except (PerimeterPhaseError, KeyError, TypeError, ValueError) as exc:
        violations.append(f"{key} is not a valid region: {exc}")
        return None


def _check_epsilons(cfg: dict, violations: List[str]) -> Optional[List[float]]:
    if "epsilons" not in cfg:
        violations.append("missing required key 'epsilons'")
        return None
    eps = cfg["epsilons"]
    if not isinstance(eps, list) or not eps or not all(_is_number(e) for e in eps):
        violations.append("epsilons must be a nonempty list of numbers")
        return None
    if any(e <= 0 for e in eps):
        violations.append("epsilons must all be positive")
        return None
    if any(b >= a for a, b in zip(eps, eps[1:])):
        violations.append("epsilons must be strictly decreasing")
        return None
    return [float(e) for e in eps]


def _check_input_file(cfg: dict, key: str, violations: List[str], required=True):
    path = _get_string(cfg, key, violations, required=required)
    if path is not None and not os.path.isfile(path):
        violations.append(f"{key} does not exist: {path}")
        return None
    return path


def _check_kappa(cfg: dict, violations: List[str]) -> float:
    kappa = _get_number(cfg, "kappa", violations, default=0.1)
    if kappa is not None and not (0.0 < kappa < 1.0):
        violations.append(f"kappa must lie in (0, 1), got {kappa}")
        return 0.1
    return kappa


_COMMON_KEYS = {"kind", "seed", "out"}


def _validate_profile(cfg: dict, violations: List[str]) -> None:
    _check_unknown_keys(
        cfg,
        _COMMON_KEYS
        | {"epsilon", "profile_kind", "theta", "convention", "kappa", "s_max", "count"},
        violations,
    )
    _get_number(cfg, "epsilon", violations, required=True, positive=True)
    kind = _get_string(
        cfg,
        "profile_kind",
        violations,
        default="standard",
        choices={"standard", "linear_tail"},
    )
    if kind == "linear_tail":
        _get_number(cfg, "theta", violations, required=True, positive=True)
    _get_string(
        cfg,
        "convention",
        violations,
        default=profiles1d.TAIL_SLOPE_THETA,
        choices={profiles1d.TAIL_SLOPE_THETA, profiles1d.TAIL_SLOPE_SQRT_THETA},
    )
    _check_kappa(cfg, violations)
    _get_number(cfg, "s_max", violations, required=True, positive=True)
    _get_int(cfg, "count", violations, default=1001, low=2)


def _validate_energy(cfg: dict, violations: List[str]) -> None:
    _check_unknown_keys(cfg, _COMMON_KEYS | {"field", "epsilon", "region"}, violations)
    _check_input_file(cfg, "field", violations)
    _get_number(cfg, "epsilon", violations, required=True, positive=True)
    _check_region(cfg, violations, required=False)


def _validate_recovery(cfg: dict, violations: List[str]) -> None:
    _check_unknown_keys(
        cfg,
        _COMMON_KEYS
        | {"domain", "region", "epsilons", "kappa", "bound_m", "field", "builtin", "value", "dump_fields"},
        violations,
    )
    has_field = "field" in cfg
    if has_field:
        _check_input_file(cfg, "field", violations)
    else:
        _get_string(
            cfg,
            "builtin",
            violations,
            default="zero",
            choices={"zero", "linear_x", "constant"},
        )
        if cfg.get("builtin") == "constant":
            _get_number(cfg, "value", violations, required=True)
        _check_domain(cfg, violations, required=True)
    _check_region(cfg, violations, required=True)
    _check_epsilons(cfg, violations)
    _check_kappa(cfg, violations)
    _get_number(cfg, "bound_m", violations, default=1.0, positive=True)
    if "dump_fields" in cfg and not isinstance(cfg["dump_fields"], bool):
        violations.append("dump_fields must be a boolean")


def _validate_glue(cfg: dict, violations: List[str]) -> None:
    _check_unknown_keys(
        cfg,
        _COMMON_KEYS
        | {"u_field", "v_field", "epsilon", "bound_m", "rho", "delta", "gamma", "convention"},
        violations,
    )
    _check_input_file(cfg, "u_field", violations)
    _check_input_file(cfg, "v_field", violations)
    _get_number(cfg, "epsilon", violations, required=True, positive=True)
    _get_number(cfg, "bound_m", violations, default=1.0, positive=True)
    _get_number(cfg, "rho", violations, required=True, positive=True)
    _get_number(cfg, "delta", violations, required=True, positive=True)
    _get_number(cfg, "gamma", violations, required=True, positive=True)
    _get_string(
        cfg,
        "convention",
        violations,
        default=profiles1d.TAIL_SLOPE_THETA,
        choices={profiles1d.TAIL_SLOPE_THETA, profiles1d.TAIL_SLOPE_SQRT_THETA},
    )


def _validate_barrier(cfg: dict, violations: List[str]) -> None:
    _check_unknown_keys(
        cfg,
        _COMMON_KEYS | {"domain", "interface_radius", "bound_m", "epsilon", "kappa"},
        violations,
    )
    _check_domain(cfg, violations, required=True)
    _get_number(cfg, "interface_radius", violations, required=True, positive=True)
    _get_number(cfg, "bound_m", violations, default=1.0, positive=True)
    _get_number(cfg, "epsilon", violations, required=True, positive=True)
    _check_kappa(cfg, violations)


def _check_boundary(cfg: dict, violations: List[str]) -> None:
    if "boundary" not in cfg:
        violations.append("missing required key 'boundary'")
        return
    bnd = cfg["boundary"]
    if (
        not isinstance(bnd, dict)
        or not _is_number(bnd.get("left"))
        or not _is_number(bnd.get("right"))
    ):
        violations.append("boundary must be an object with numbers left and right")
        return
    if not (bnd["left"] < 0.0 < bnd["right"]):
        violations.append(
            f"boundary values must straddle zero, got left={bnd['left']}, "
            f"right={bnd['right']}"
        )


def _validate_minimize(cfg: dict, violations: List[str]) -> None:
    _check_unknown_keys(
        cfg,
        _COMMON_KEYS
        | {"domain", "epsilon", "bound_m", "initial", "boundary", "tol_grad", "max_iters", "step"},
        violations,
    )
    initial = cfg.get("initial", "linear")
    if not isinstance(initial, str):
        violations.append(f"initial must be a string, got {initial!r}")
        initial = "linear"
    if initial in ("linear", "zero"):
        dom = _check_domain(cfg, violations, required=True)
        if dom is not None and dom.get("kind") != "interval":
            violations.append("builtin initial fields need an interval domain")
        _check_boundary(cfg, violations)
    else:
        if not os.path.isfile(initial):
            violations.append(f"initial field does not exist: {initial}")
    _get_number(cfg, "epsilon", violations, required=True, positive=True)
    _get_number(cfg, "bound_m", violations, default=1.0, positive=True)
    _get_number(cfg, "tol_grad", violations, default=1e-5, positive=True)
    _get_int(cfg, "max_iters", violations, default=200000, low=0)
    if "step" in cfg:
        _get_number(cfg, "step", violations, positive=True)


def _validate_sweep(cfg: dict, violations: List[str]) -> None:
    _check_unknown_keys(
        cfg,
        _COMMON_KEYS
        | {"domain", "epsilons", "bound_m", "boundary", "tol_grad", "max_iters"},
        violations,
    )
    dom = _check_domain(cfg, violations, required=True)
    if dom is not None and dom.get("kind") != "interval":
        violations.append("sweeps need an interval domain")
    _check_epsilons(cfg, violations)
    _get_number(cfg, "bound_m", violations, required=True, positive=True)
    _check_boundary(cfg, violations)
    _get_number(cfg, "tol_grad", violations, default=1e-5, positive=True)
    _get_int(cfg, "max_iters", violations, default=200000, low=0)


def _validate_oracle1d(cfg: dict, violations: List[str]) -> None:
    _check_unknown_keys(cfg, _COMMON_KEYS | {"a", "b"}, violations)
    _get_number(cfg, "a", violations, required=True, positive=True)
    _get_number(cfg, "b", violations, required=True, positive=True)


def _validate_harmonic_check(cfg: dict, violations: List[str]) -> None:
    _check_unknown_keys(
        cfg, _COMMON_KEYS | {"count", "n", "boundary_floor"}, violations
    )
    _get_int(cfg, "count", violations, default=100, low=1)
    n = cfg.get("n", 64)
    _check_grid_n(n, "n", violations)
    _get_number(cfg, "boundary_floor", violations, default=0.1, positive=True)


_VALIDATORS: Dict[str, Callable] = {
    "profile": _validate_profile,
    "energy": _validate_energy,
    "recovery": _validate_recovery,
    "glue": _validate_glue,
    "barrier": _validate_barrier,
    "minimize": _validate_minimize,
    "sweep": _validate_sweep,
    "oracle1d": _validate_oracle1d,
    "harmonic-check": _validate_harmonic_check,
}


def parse_config(kind: str, cfg: dict) -> dict:
    """Validate a config against its experiment kind.

    Collects every violation before raising ConfigError, so one run
    reports all problems.
    """
    violations: List[str] = []
    if not isinstance(cfg, dict):
        raise ConfigError(["config root must be a JSON object"])
    stated = cfg.get("kind")
    if stated is not None and stated != kind:
        violations.append(f"config kind {stated!r} does not match subcommand {kind!r}")
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        violations.append(f"seed must be a nonnegative integer, got {seed!r}")
    if "out" in cfg and not isinstance(cfg["out"], str):
        violations.append(f"out must be a string path, got {cfg['out']!r}")
    _VALIDATORS[kind](cfg, violations)
    if violations:
        raise ConfigError(violations)
    return cfg


# ---------------------------------------------------------------------------
# Runners.  Each returns the list of paths it wrote.


def _run_profile(cfg: dict, out_dir: str, rng) -> List[str]:
    prof = profiles1d.Profile(
        epsilon=cfg["epsilon"],
        kind=cfg.get("profile_kind", "standard"),
        theta=cfg.get("theta", 0.0),
        convention=cfg.get("convention", profiles1d.TAIL_SLOPE_THETA),
        kappa=cfg.get("kappa", 0.1),
    )
    s = np.linspace(-cfg["s_max"], cfg["s_max"], cfg.get("count", 1001))
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
    region = region_from_dict(cfg["region"]) if "region" in cfg else None
    breakdown = energy_mod.e_eps(state, subdomain=region)
    payload = _breakdown_dict(breakdown)
    payload["tv_phase"] = energy_mod.tv_phase(state)
    payload["phase_band_measure"] = energy_mod.phase_band_measure(state)
    path = os.path.join(out_dir, "energy.json")
    _write_json(path, payload)
    return [path]


def _recovery_input(cfg: dict):
    if "field" in cfg:
        field = fieldio.load_field(cfg["field"])
        return field
    domain = Domain.from_dict(cfg["domain"])
    builtin = cfg.get("builtin", "zero")
    if builtin == "zero":
        vals = np.zeros(domain.node_shape)
    elif builtin == "constant":
        vals = np.full(domain.node_shape, float(cfg["value"]))
    else:
        vals = domain.nodes_x.copy()
    return ScalarField(domain, vals)


def _run_recovery(cfg: dict, out_dir: str, rng) -> List[str]:
    field = _recovery_input(cfg)
    region = region_from_dict(cfg["region"])
    bound_m = cfg.get("bound_m", 1.0)
    kappa = cfg.get("kappa", 0.1)
    pair = SharpPair(field=field, region=region, bound_m=bound_m)
    sharp_total = energy_mod.sharp_energy(pair).total
    epsilons = [float(e) for e in cfg["epsilons"]]

    def build(e: float):
        return recovery.build_recovery(pair, e, kappa)

    with ThreadPoolExecutor(max_workers=_workers()) as pool:
        results = list(pool.map(build, epsilons))

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
        if cfg.get("dump_fields", False):
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
    bound_m = cfg.get("bound_m", 1.0)
    outer = PhaseState(u_field, epsilon, bound_m)
    inner = PhaseState(v_field, epsilon, bound_m)
    spec = interpolation.AnnulusSpec(cfg["rho"], cfg["delta"], bound_m)
    out_state, report = interpolation.glue(
        inner_state=inner,
        outer_state=outer,
        spec=spec,
        budget=cfg["gamma"],
        convention=cfg.get("convention", profiles1d.TAIL_SLOPE_THETA),
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
        bound_m=cfg.get("bound_m", 1.0),
        epsilon=cfg["epsilon"],
        kappa=cfg.get("kappa", 0.1),
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
    initial = cfg.get("initial", "linear")
    epsilon = cfg["epsilon"]
    bound_m = cfg.get("bound_m", 1.0)
    if initial not in ("linear", "zero"):
        field = fieldio.load_field(initial)
        return PhaseState(field, epsilon, max(bound_m, float(np.max(np.abs(field.values)))))
    domain = Domain.from_dict(cfg["domain"])
    left = float(cfg["boundary"]["left"])
    right = float(cfg["boundary"]["right"])
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
        max_iters=cfg.get("max_iters", 200000),
        tol_grad=cfg.get("tol_grad", 1e-5),
        step=cfg.get("step"),
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
        epsilons=[float(e) for e in cfg["epsilons"]],
        left_value=float(cfg["boundary"]["left"]),
        right_value=float(cfg["boundary"]["right"]),
        bound_m=cfg["bound_m"],
        tol_grad=cfg.get("tol_grad", 1e-5),
        max_iters=cfg.get("max_iters", 200000),
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
    count = cfg.get("count", 100)
    n = cfg.get("n", 64)
    floor = cfg.get("boundary_floor", 0.1)
    domain = Domain.box(-1.0, 1.0, n)
    fields = [random_positive_field(domain, rng, floor) for _ in range(count)]

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
        out_dir = args.out if args.out is not None else cfg.get("out", ".")
        os.makedirs(out_dir, exist_ok=True)
        rng = _rng(cfg.get("seed", 0))
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
