"""End-to-end runs of the experiment CLI and its config validation."""

import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import perimeter_phase as pp
from perimeter_phase import cli, fieldio
from perimeter_phase.cli import main, parse_config
from perimeter_phase.errors import ConfigError
from conftest import damage_csv_lines


def write_config(path, payload):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)
    return str(path)


def run(tmp, kind, payload):
    # The config lives beside the output directory: a run writes <kind>.json
    # for barrier, energy, glue and the others, which would overwrite it.
    configs = tmp.parent / f"{tmp.name}-configs"
    configs.mkdir(exist_ok=True)
    cfg = write_config(configs / f"{kind}.json", payload)
    return main([kind, "--config", cfg, "--out", str(tmp), "--quiet"])


def test_parse_config_reports_every_violation():
    cfg = {
        "kind": "profile",
        "seed": -3,
        "bogus": 1,
        "domain": {"kind": "interval", "lo": -1.0, "hi": 1.0, "n": 100},
        "epsilons": [1e-2, 1e-1],
        "bound_m": -1.0,
        "boundary": {"left": 0.5, "right": 1.0},
    }
    with pytest.raises(ConfigError) as err:
        parse_config("sweep", cfg)
    msg = str(err.value)
    for fragment in (
        "does not match subcommand",
        "seed must be a nonnegative integer",
        "unknown key 'bogus'",
        "power of two",
        "strictly decreasing",
        "bound_m must be positive",
        "straddle zero",
    ):
        assert fragment in msg
    assert len(err.value.violations) == 7


def test_parse_config_accepts_minimal_sweep():
    cfg = {
        "domain": {"kind": "interval", "lo": -1.0, "hi": 1.0, "n": 256},
        "epsilons": [1e-1],
        "bound_m": 1.0,
        "boundary": {"left": -1.0, "right": 1.0},
    }
    assert parse_config("sweep", cfg) is cfg


@pytest.fixture
def field_path(tmp_path):
    dom = pp.Domain.interval(-1.0, 1.0, 64)
    path = str(tmp_path / "field.f64")
    fieldio.save_binary(pp.ScalarField(dom, np.full(dom.node_shape, 0.5)), path)
    return path


INTERVAL = {"kind": "interval", "lo": -1.0, "hi": 1.0, "n": 64}
BOUNDARY = {"left": -1.0, "right": 1.0}
HALF_LINE = {"type": "interval_union", "intervals": [[0.0, "inf"]]}


def minimal_configs(path):
    """Per subcommand: a valid config with only required keys, and the defaults it gets."""
    return {
        "profile": (
            {"epsilon": 1e-2, "s_max": 1.0},
            {"profile_kind": "standard", "theta": 0.0, "count": 1001},
        ),
        "energy": ({"field": path, "epsilon": 1e-1}, {"region": None}),
        "recovery": (
            {"domain": INTERVAL, "region": HALF_LINE, "epsilons": [1e-1]},
            {"builtin": "zero", "kappa": 0.1, "bound_m": 1.0, "dump_fields": False},
        ),
        "glue": (
            {"u_field": path, "v_field": path, "epsilon": 1e-2, "rho": 0.5, "delta": 0.2,
             "gamma": 0.5},
            {"bound_m": 1.0},
        ),
        "barrier": (
            {"domain": INTERVAL, "interface_radius": 0.5, "epsilon": 1e-2},
            {"bound_m": 1.0, "kappa": 0.1},
        ),
        "minimize": (
            {"domain": INTERVAL, "boundary": BOUNDARY, "epsilon": 1e-1},
            {"initial": "linear", "bound_m": 1.0, "tol_grad": 1e-5, "max_iters": 200000},
        ),
        "sweep": (
            {"domain": INTERVAL, "epsilons": [1e-1], "bound_m": 1.0, "boundary": BOUNDARY},
            {"tol_grad": 1e-5, "max_iters": 200000},
        ),
        "oracle1d": ({"a": 1.0, "b": 2.0}, {}),
        "harmonic-check": ({}, {"count": 100, "n": 64, "boundary_floor": 0.1}),
    }


def full_configs(path):
    """Per subcommand: a valid config that sets every key of its table."""
    ball = {"kind": "ball", "radius": 1.0, "n": 64, "center": [0.1, 0.0]}
    return {
        "profile": {"epsilon": 1e-2, "s_max": 1.0, "profile_kind": "linear_tail", "theta": 0.5,
                    "count": 11},
        "energy": {"field": path, "epsilon": 1e-1, "region": HALF_LINE},
        "recovery": {"field": path, "builtin": "constant", "value": 0.5, "domain": INTERVAL,
                     "region": HALF_LINE, "epsilons": [1e-1, 1e-2], "kappa": 0.2,
                     "bound_m": 2.0, "dump_fields": True},
        "glue": {"u_field": path, "v_field": path, "epsilon": 1e-2, "bound_m": 2.0, "rho": 0.5,
                 "delta": 0.2, "gamma": 0.5},
        "barrier": {"domain": ball, "interface_radius": 0.5, "bound_m": 2.0, "epsilon": 1e-2,
                    "kappa": 0.2},
        "minimize": {"initial": path, "domain": INTERVAL, "boundary": BOUNDARY, "epsilon": 1e-1,
                     "bound_m": 2.0, "tol_grad": 1e-3, "max_iters": 10},
        "sweep": {"domain": INTERVAL, "epsilons": [1e-1], "bound_m": 1.0, "boundary": BOUNDARY,
                  "tol_grad": 1e-3, "max_iters": 10},
        "oracle1d": {"a": 1.0, "b": 2.0},
        "harmonic-check": {"count": 3, "n": 128, "boundary_floor": 0.5},
    }


@pytest.mark.parametrize("kind", sorted(cli._TABLES))
def test_parse_config_fills_every_default(kind, field_path):
    required, defaults = minimal_configs(field_path)[kind]
    cfg = dict(required)
    assert parse_config(kind, cfg) is cfg
    assert set(cfg) == set(required) | set(defaults) | {"seed", "out"}
    assert cfg["seed"] == 0 and cfg["out"] == "."
    for key, value in defaults.items():
        assert cfg[key] == value, key


@pytest.mark.parametrize("kind", sorted(cli._TABLES))
def test_parse_config_accepts_every_table_key(kind, field_path):
    cfg = dict(full_configs(field_path)[kind], kind=kind, seed=4, out="somewhere")
    assert set(cfg) - {"kind", "seed", "out"} == set(cli._TABLES[kind])
    assert parse_config(kind, cfg) is cfg


def test_parse_config_makes_epsilons_and_boundary_floats():
    cfg = {"domain": INTERVAL, "epsilons": [1, 0.5], "bound_m": 2,
           "boundary": {"left": -1, "right": 2}}
    parse_config("sweep", cfg)
    assert cfg["epsilons"] == [1.0, 0.5]
    assert all(type(e) is float for e in cfg["epsilons"])
    assert cfg["boundary"] == {"left": -1.0, "right": 2.0}
    assert all(type(v) is float for v in cfg["boundary"].values())
    assert type(cfg["bound_m"]) is int


def test_profile_linear_tail_requires_theta():
    with pytest.raises(ConfigError) as err:
        parse_config(
            "profile", {"epsilon": 1e-2, "s_max": 1.0, "profile_kind": "linear_tail"}
        )
    assert any("theta" in v for v in err.value.violations)


def test_profile_run_writes_lossless_table(tmp_path):
    code = run(tmp_path, "profile", {"epsilon": 1e-2, "s_max": 0.05, "count": 5})
    assert code == 0
    lines = (tmp_path / "profile.csv").read_text().splitlines()
    assert lines[0] == "s,value,derivative,well_density"
    assert len(lines) == 6
    for line in lines[1:]:
        s_val, v_val, d_val, _ = (float(t) for t in line.split(","))
        assert v_val == pp.transition_profile(1e-2, s_val)
        assert d_val == pp.transition_profile_derivative(1e-2, s_val)


def read_profile_table(tmp):
    rows = (tmp / "profile.csv").read_text().splitlines()[1:]
    return np.array([[float(t) for t in row.split(",")] for row in rows]).T


def test_profile_linear_tail_table(tmp_path):
    # s_max = 2^-4 and count = 1025 make the grid exactly symmetric.
    payload = {"epsilon": 1e-2, "profile_kind": "linear_tail", "theta": 160.0,
               "s_max": 0.0625, "count": 1025}
    assert run(tmp_path, "profile", payload) == 0
    s, value, deriv, _ = read_profile_table(tmp_path)
    assert np.array_equal(s, -s[::-1])
    assert np.array_equal(value, -value[::-1])
    assert np.all(np.diff(value) > 0.0)
    tail = np.abs(s) > pp.sloped_profile(1e-2, 160.0).crossing_time
    assert 0 < np.count_nonzero(tail) < len(s)
    assert np.all(deriv[tail] == 160.0)


def test_profile_tiny_sqrt_theta_is_solved(tmp_path):
    # theta = 1e-150 = sqrt(1e-300), so theta^2 * eps = 1e-302: the profile
    # is tanh to double precision and its crossing time is about 174.9 eps.
    payload = {"epsilon": 1e-2, "profile_kind": "linear_tail", "theta": 1e-150,
               "s_max": 2.0, "count": 2001}
    assert run(tmp_path, "profile", payload) == 0
    s, value, deriv, _ = read_profile_table(tmp_path)
    assert np.all(np.diff(value) >= 0.0)
    assert np.max(np.abs(value)) == 0.1
    assert np.all(deriv >= 1e-150)
    assert np.max(np.abs(value - pp.transition_profile(1e-2, s))) <= 2e-16


@pytest.mark.parametrize(
    "theta, tag",
    [(1e-200, "error[domain]"), (float("inf"), "error[config]")],  # 1e-200^2 underflows
)
def test_profile_theta_without_a_profile_exits_one(tmp_path, capsys, theta, tag):
    payload = {"epsilon": 1e-2, "profile_kind": "linear_tail", "theta": theta,
               "s_max": 1.0, "count": 11}
    assert run(tmp_path, "profile", payload) == 1
    assert tag in capsys.readouterr().err
    assert not (tmp_path / "profile.csv").exists()


def test_oracle1d_run(tmp_path):
    code = run(tmp_path, "oracle1d", {"a": 1.0, "b": 3.0})
    assert code == 0
    data = json.loads((tmp_path / "oracle1d.json").read_text())
    assert data["interface"] == pytest.approx(-0.5)
    assert data["energy"] == pytest.approx(32.0 / 3.0)
    assert data["knot_y"] == [-1.0, 0.0, 3.0]


def test_energy_run_reports_breakdown(tmp_path):
    dom = pp.Domain.interval(-1.0, 1.0, 256)
    eps = 1e-1
    field = pp.ScalarField(dom, pp.transition_profile(eps, dom.nodes_x))
    fpath = str(tmp_path / "field.f64")
    fieldio.save_binary(field, fpath)
    code = run(tmp_path, "energy", {"field": fpath, "epsilon": eps})
    assert code == 0
    data = json.loads((tmp_path / "energy.json").read_text())
    state = pp.PhaseState(field, eps, 1.0)
    expect = pp.e_eps(state)
    assert data["total"] == expect.total
    assert data["dirichlet"] == expect.dirichlet
    assert data["tv_phase"] == pp.tv_phase(state)
    assert data["phase_band_measure"] >= 0.0


def test_parser_is_built_once_per_process():
    # construct2d runs five subcommands in one process.
    assert cli.build_parser() is cli.build_parser()


def test_harmonic_check_bytes_deterministic(tmp_path, monkeypatch):
    payload = {"count": 3, "n": 64, "boundary_floor": 0.1, "seed": 11}
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setattr(cli, "_workers", lambda: 1)
    cfg_a = write_config(tmp_path / "ha.json", payload)
    assert main(["harmonic-check", "--config", cfg_a, "--out", str(out_a), "--quiet"]) == 0
    monkeypatch.setattr(cli, "_workers", lambda: 3)
    cfg_b = write_config(tmp_path / "hb.json", payload)
    assert main(["harmonic-check", "--config", cfg_b, "--out", str(out_b), "--quiet"]) == 0
    for name in ("harmonic.csv", "harmonic.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    summary = json.loads((out_a / "harmonic.json").read_text())
    assert summary["all_strictly_positive"] is True
    assert summary["all_strict_drop"] is True
    assert summary["min_margin"] > 0.0


def test_minimize_run_small(tmp_path):
    payload = {
        "initial": "linear",
        "domain": {"kind": "interval", "lo": -1.0, "hi": 1.0, "n": 256},
        "boundary": {"left": -1.0, "right": 1.0},
        "epsilon": 5e-2,
        "bound_m": 1.0,
        "tol_grad": 1e-3,
        "max_iters": 4000,
    }
    code = run(tmp_path, "minimize", payload)
    assert code == 0
    data = json.loads((tmp_path / "minimize.json").read_text())
    assert data["energy"]["total"] > 0.0
    assert len(data["interfaces"]) == 1
    assert abs(data["interfaces"][0]) < 0.05
    out_field = fieldio.load_field(str(tmp_path / "minimized.f64"))
    assert out_field.domain.n == 256
    assert float(np.max(np.abs(out_field.values))) <= 1.0


def test_sweep_run_small(tmp_path):
    payload = {
        "domain": {"kind": "interval", "lo": -1.0, "hi": 1.0, "n": 256},
        "epsilons": [1e-1, 3e-2],
        "bound_m": 2.0,
        "boundary": {"left": -1.0, "right": 1.0},
        "tol_grad": 1e-3,
        "max_iters": 3000,
    }
    code = run(tmp_path, "sweep", payload)
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0].split(",") == [
        "epsilon",
        "total",
        "dirichlet",
        "well",
        "tv_phase",
        "interface_x",
        "l2_gap_to_oracle",
        "iterations",
        "converged",
        "grad_sup",
    ]
    assert len(lines) == 3
    first = [float(t) for t in lines[1].split(",")]
    second = [float(t) for t in lines[2].split(",")]
    assert first[0] == 1e-1 and second[0] == 3e-2
    assert 0.0 < first[1] < second[1] < 1.2 * (14.0 / 3.0)
    assert abs(first[5]) < 0.05 and abs(second[5]) < 0.05
    # The solve report of each scale, as continuation_sweep returns it.
    entries = pp.continuation_sweep(
        pp.Domain.interval(-1.0, 1.0, 256), [1e-1, 3e-2], -1.0, 1.0, 2.0,
        tol_grad=1e-3, max_iters=3000,
    )
    for line, entry in zip(lines[1:], entries):
        iterations, converged, grad_sup = line.split(",")[7:]
        assert int(iterations) == entry.iterations
        assert converged == ("1" if entry.converged else "0")
        assert float(grad_sup) == entry.grad_sup


def test_recovery_run_with_builtin(tmp_path):
    payload = {
        "builtin": "zero",
        "domain": {"kind": "interval", "lo": -1.0, "hi": 1.0, "n": 1024},
        "region": {"type": "interval_union", "intervals": [[0.0, "inf"]]},
        "epsilons": [1e-1, 1e-2],
        "dump_fields": True,
    }
    code = run(tmp_path, "recovery", payload)
    assert code == 0
    lines = (tmp_path / "recovery.csv").read_text().splitlines()
    assert lines[0].split(",") == [
        "epsilon",
        "dirichlet",
        "well",
        "total",
        "sharp_total",
        "l2_gap",
        "h_tilde_l1_gap",
    ]
    assert len(lines) == 3
    rows = [[float(t) for t in line.split(",")] for line in lines[1:]]
    # zero field over a half line: the sharp energy is one interface cost
    assert rows[0][4] == pytest.approx(pp.C0, rel=1e-12)
    assert rows[1][4] == rows[0][4]
    assert rows[1][3] == pytest.approx(pp.C0, rel=2e-2)
    assert rows[1][5] < rows[0][5]
    assert rows[1][6] < rows[0][6]
    dumped = fieldio.load_field(str(tmp_path / "recovery_001.f64"))
    assert dumped.domain.n == 1024


def test_glue_budget_exceeded_exit_code(tmp_path, capsys):
    dom = pp.Domain.interval(-1.0, 1.0, 1024)
    minus = pp.ScalarField(dom, np.full(dom.node_shape, -0.9))
    plus = pp.ScalarField(dom, np.full(dom.node_shape, 0.9))
    u_path, v_path = str(tmp_path / "u.f64"), str(tmp_path / "v.f64")
    fieldio.save_binary(minus, u_path)
    fieldio.save_binary(plus, v_path)
    payload = {
        "u_field": u_path,
        "v_field": v_path,
        "epsilon": 1e-2,
        "rho": 0.5,
        "delta": 0.2,
        "gamma": 0.5,
    }
    code = run(tmp_path, "glue", payload)
    assert code == 2
    assert "error[budget-exceeded]" in capsys.readouterr().err


def test_glue_success_writes_field_and_report(tmp_path):
    dom = pp.Domain.interval(-1.0, 1.0, 1024)
    same = pp.ScalarField(dom, np.full(dom.node_shape, 0.9))
    u_path, v_path = str(tmp_path / "u.f64"), str(tmp_path / "v.f64")
    fieldio.save_binary(same, u_path)
    fieldio.save_binary(same, v_path)
    payload = {
        "u_field": u_path,
        "v_field": v_path,
        "epsilon": 1e-2,
        "rho": 0.5,
        "delta": 0.2,
        "gamma": 0.5,
    }
    code = run(tmp_path, "glue", payload)
    assert code == 0
    data = json.loads((tmp_path / "glue.json").read_text())
    assert data["excess"] <= 1e-12
    assert 0.5 + 0.2 / 8 <= data["r_star"] <= 0.5 + 0.2 / 4
    glued = fieldio.load_field(str(tmp_path / "glued.f64"))
    assert np.array_equal(glued.values, same.values)


def test_barrier_run(tmp_path):
    payload = {
        "domain": {"kind": "interval", "lo": -1.0, "hi": 1.0, "n": 1024},
        "interface_radius": 0.5,
        "epsilon": 1e-2,
        "bound_m": 1.0,
    }
    code = run(tmp_path, "barrier", payload)
    assert code == 0
    data = json.loads((tmp_path / "barrier.json").read_text())
    assert data["feasible"] is True
    assert data["within_bound"] is True
    assert data["energy"]["total"] <= data["bound"]
    assert data["bound"] == pytest.approx(2.0 * pp.C0 + 16.0 + 1.0, rel=1e-12)


def test_missing_config_file_exits_one(tmp_path, capsys):
    code = main(["profile", "--config", str(tmp_path / "nope.json"), "--quiet"])
    assert code == 1
    assert "error[input]" in capsys.readouterr().err


def test_csv_field_with_an_out_of_range_index_exits_one(tmp_path, capsys):
    domain = pp.Domain.interval(-1.0, 1.0, 64)
    path = str(tmp_path / "field.csv")
    fieldio.save_csv(pp.ScalarField(domain, np.zeros(domain.node_shape)), path)
    lines = (tmp_path / "field.csv").read_text().split("\n")
    lines[-2] = "999," + lines[-2].split(",", 1)[1]
    (tmp_path / "field.csv").write_text("\n".join(lines))
    assert run(tmp_path, "energy", {"field": path, "epsilon": 1e-2}) == 1
    err = capsys.readouterr().err
    assert "error[input]" in err and "field.csv: node index 999" in err


@pytest.mark.parametrize("damage", ["short_row", "blank_line", "empty_file"])
def test_csv_field_with_missing_cells_exits_one(tmp_path, capsys, damage):
    domain = pp.Domain.interval(-1.0, 1.0, 64)
    path = str(tmp_path / "field.csv")
    fieldio.save_csv(pp.ScalarField(domain, np.zeros(domain.node_shape)), path)
    lines = (tmp_path / "field.csv").read_text().split("\n")
    (tmp_path / "field.csv").write_text("\n".join(damage_csv_lines(lines, damage)))
    assert run(tmp_path, "energy", {"field": path, "epsilon": 1e-2}) == 1
    err = capsys.readouterr().err
    assert "error[input]" in err and "field.csv: " in err


def test_malformed_json_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["profile", "--config", str(path), "--quiet"]) == 1
    assert "error[input]" in capsys.readouterr().err


def test_config_violations_exit_one(tmp_path, capsys):
    cfg = write_config(tmp_path / "p.json", {"s_max": 1.0})
    assert main(["profile", "--config", cfg, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "error[config]" in err
    assert "missing required key 'epsilon'" in err


@pytest.mark.parametrize(
    "kind, payload, bound",
    [
        ("profile", {"epsilon": 0.01, "s_max": 0.2}, 1_000_000),
        ("harmonic-check", {}, 10_000),
    ],
)
def test_count_above_its_bound_is_a_config_error(tmp_path, capsys, kind, payload, bound):
    parse_config(kind, dict(payload, count=bound))
    cfg = write_config(tmp_path / "c.json", dict(payload, count=bound + 1))
    out = tmp_path / "out"
    assert main([kind, "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "error[config]" in err
    assert f"count must be <= {bound}, got {bound + 1}" in err
    assert not out.exists()


def test_integer_beyond_float_range_is_a_config_error(tmp_path, capsys):
    # math.isfinite(10**400) raised OverflowError out of cli.main.
    assert run(tmp_path, "oracle1d", {"a": 10**400, "b": 2.0}) == 1
    err = capsys.readouterr().err
    assert "error[config]" in err and "a must be a finite number, got 1000" in err


def test_negative_seed_override_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "o.json", {"a": 1.0, "b": 2.0})
    out = tmp_path / "out"
    code = main(["oracle1d", "--config", cfg, "--out", str(out), "--seed", "-1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error[config]" in err
    assert "seed must be a nonnegative integer, got -1" in err
    assert not out.exists()


def test_minimize_linear_start_keeps_exact_boundary_values(tmp_path):
    payload = {
        "initial": "linear",
        "domain": {"kind": "interval", "lo": -1.0, "hi": 1.0, "n": 64},
        "boundary": {"left": -1.0, "right": 3.291},
        "epsilon": 1e-1,
        "bound_m": 3.291,
        "max_iters": 0,
    }
    assert run(tmp_path, "minimize", payload) == 0
    values = fieldio.load_field(str(tmp_path / "minimized.f64")).values
    assert values[0] == -1.0 and values[-1] == 3.291


def test_kind_mismatch_exits_one(tmp_path):
    cfg = write_config(tmp_path / "m.json", {"kind": "sweep", "a": 1.0, "b": 1.0})
    assert main(["oracle1d", "--config", cfg, "--quiet"]) == 1


def test_path_listing_and_quiet_flag(tmp_path, capsys):
    cfg = write_config(tmp_path / "o.json", {"a": 1.0, "b": 2.0})
    assert main(["oracle1d", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert str(tmp_path / "oracle1d.json") in out
    assert main(["oracle1d", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_minimize_step_is_an_unknown_key(tmp_path, capsys):
    payload = {"domain": INTERVAL, "boundary": BOUNDARY, "epsilon": 1e-1, "max_iters": 0,
               "step": 1e-6}
    assert run(tmp_path, "minimize", payload) == 1
    err = capsys.readouterr().err
    assert "error[config]" in err
    assert "unknown key 'step'" in err
    assert not (tmp_path / "minimized.f64").exists()


@pytest.mark.parametrize("center", [5, None, [0.1], [0.0, 0.0, 7]])
def test_malformed_ball_center_is_a_config_error(tmp_path, capsys, center):
    payload = {
        "domain": {"kind": "ball", "radius": 1.0, "n": 64, "center": center},
        "interface_radius": 0.5,
        "epsilon": 1e-2,
    }
    assert run(tmp_path, "barrier", payload) == 1
    err = capsys.readouterr().err
    assert "error[config]" in err
    assert f"domain.center must be two finite numbers, got {center!r}" in err


@pytest.mark.parametrize("kind", ["profile", "glue"])
def test_convention_is_an_unknown_key(tmp_path, capsys, field_path, kind):
    payload = dict(full_configs(field_path)[kind], convention="tail_slope_theta")
    assert run(tmp_path, kind, payload) == 1
    err = capsys.readouterr().err
    assert "error[config]" in err
    assert "unknown key 'convention'" in err
    assert not (tmp_path / {"profile": "profile.csv", "glue": "glue.json"}[kind]).exists()


def test_profile_kappa_is_an_unknown_key(tmp_path, capsys):
    assert run(tmp_path, "profile", {"epsilon": 1e-2, "s_max": 1.0, "kappa": 0.1}) == 1
    err = capsys.readouterr().err
    assert "error[config]" in err
    assert "unknown key 'kappa'" in err
    assert not (tmp_path / "profile.csv").exists()


BALL = {"kind": "ball", "radius": 1.0, "n": 64}


@pytest.mark.parametrize(
    "domain, message",
    [
        ([], "domain must be an object, got []"),
        (dict(BALL, kind=["ball"]), "domain.kind must be interval, box, or ball, got ['ball']"),
        ({"kind": "ball", "n": 64}, "missing required key 'domain.radius'"),
        (dict(BALL, radius=float("nan")), "domain.radius must be a positive finite number"),
        (dict(INTERVAL, lo=float("-inf")), "domain needs finite numbers lo < hi, got lo=-inf"),
        (dict(INTERVAL, hi="1"), "domain needs finite numbers lo < hi"),
        # A key the kind does not read was dropped: a misspelt centre ran on
        # a ball centred at the origin.
        (dict(BALL, centre=[0.5, 0.0]), "unknown key 'centre' for domain kind 'ball'"),
        (dict(BALL, lo=-1.0, hi=1.0), "unknown key 'lo', 'hi' for domain kind 'ball'"),
        (dict(INTERVAL, center=[0.0, 0.0]), "unknown key 'center' for domain kind 'interval'"),
        (dict(INTERVAL, kind="box", radius=1.0), "unknown key 'radius' for domain kind 'box'"),
    ],
    ids=["list", "kind_list", "no_radius", "nan_radius", "infinite_lo", "string_hi",
         "ball_centre", "ball_lo_hi", "interval_center", "box_radius"],
)
def test_malformed_config_domain_is_a_config_error(tmp_path, capsys, domain, message):
    payload = {"domain": domain, "interface_radius": 0.5, "epsilon": 1e-2}
    assert run(tmp_path, "barrier", payload) == 1
    err = capsys.readouterr().err
    assert "error[config]" in err and message in err
    assert not (tmp_path / "barrier.f64").exists()
    assert not (tmp_path / "barrier.json").exists()


@pytest.mark.parametrize(
    "epsilons, message",
    [
        ([0.1, float("nan"), 0.01], "finite, positive and strictly decreasing"),
        ([float("inf"), 0.1], "finite, positive and strictly decreasing"),
        ([], "epsilons must be nonempty"),
        ([0.1, True], "epsilons must be a list of numbers"),
        ([10**400], "epsilons must be a list of numbers"),
    ],
    ids=["nan", "inf", "empty", "bool", "huge_int"],
)
def test_malformed_epsilons_are_a_config_error(tmp_path, capsys, epsilons, message):
    payload = {"domain": INTERVAL, "epsilons": epsilons, "bound_m": 1.0, "boundary": BOUNDARY}
    assert run(tmp_path, "sweep", payload) == 1
    err = capsys.readouterr().err
    assert "error[config]" in err and message in err
    assert not (tmp_path / "sweep.csv").exists()


_DROP = object()


def _without(key):
    return lambda meta: {k: v for k, v in meta.items() if k != key}


def _with_domain(**changes):
    """A sidecar edit: set the domain's keys to changes, dropping those set to _DROP."""
    return lambda meta: dict(meta, domain={k: v for k, v in {**meta["domain"], **changes}.items()
                                           if v is not _DROP})


# Each of these escaped cli.main as a KeyError, TypeError, IndexError or
# AttributeError, except the last two: a key its kind does not read was dropped.
SIDECAR_DAMAGE = {
    "no_domain": (_without("domain"), "error[input]"),
    "domain_list": (lambda meta: dict(meta, domain=[]), "error[input]"),
    "no_n": (_with_domain(n=_DROP), "error[domain]"),
    "null_n": (_with_domain(n=None), "error[domain]"),
    "one_number_center": (_with_domain(center=[0.0]), "error[domain]"),
    "ball_lo": (_with_domain(lo=0.5), "error[domain]"),
    "ball_centre": (_with_domain(centre=[0.5, 0.0]), "error[domain]"),
}


@pytest.mark.parametrize("damage", sorted(SIDECAR_DAMAGE))
def test_malformed_sidecar_exits_one(tmp_path, capsys, damage):
    domain = pp.Domain.ball(1.0, 64)
    path = tmp_path / "field.f64"
    fieldio.save_binary(pp.ScalarField(domain, np.zeros(domain.node_shape)), str(path))
    sidecar = tmp_path / "field.f64.json"
    change, tag = SIDECAR_DAMAGE[damage]
    sidecar.write_text(json.dumps(change(json.loads(sidecar.read_text()))))
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "energy.json", {"field": str(path), "epsilon": 1e-1})
    assert main(["energy", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(tag) and "Traceback" not in err
    assert not (out / "energy.json").exists()


def test_sidecar_with_an_infinite_extent_exits_one(tmp_path, capsys):
    # This ran, exited 0 and wrote "total": NaN.
    domain = pp.Domain.interval(-1.0, 1.0, 64)
    path = tmp_path / "field.f64"
    fieldio.save_binary(pp.ScalarField(domain, np.zeros(domain.node_shape)), str(path))
    sidecar = tmp_path / "field.f64.json"
    sidecar.write_text(json.dumps(_with_domain(lo=float("-inf"))(json.loads(sidecar.read_text()))))
    assert "-Infinity" in sidecar.read_text()
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "energy.json", {"field": str(path), "epsilon": 1e-1})
    assert main(["energy", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error[domain]")
    assert not (out / "energy.json").exists()


@pytest.mark.parametrize("region", ["x", 5, [1], None])
@pytest.mark.parametrize("kind", ["energy", "recovery"])
def test_region_that_is_not_an_object_is_a_config_error(tmp_path, capsys, field_path, kind, region):
    payload = {
        "energy": {"field": field_path, "epsilon": 1e-2, "region": region},
        "recovery": {"domain": INTERVAL, "region": region, "epsilons": [1e-2]},
    }[kind]
    assert run(tmp_path, kind, payload) == 1
    err = capsys.readouterr().err
    assert "error[config]" in err
    assert f"region is not a valid region: a region must be an object, got {region!r}" in err


@pytest.mark.parametrize(
    "region, message",
    [
        ({"type": "disc", "center": [float("nan"), 0.0], "radius": 0.5},
         "disc center must be two finite numbers, got (nan, 0.0)"),
        ({"type": "disc", "center": [0.1], "radius": 0.5},
         "disc center must be two finite numbers, got (0.1,)"),
        ({"type": "disc", "center": [0.0, 0.0], "radius": float("inf")},
         "disc radius must be a positive finite number, got inf"),
        ({"type": "half_plane", "normal": [1.0, 0.0], "offset": float("nan")},
         "half-plane offset must be a finite number, got nan"),
        ({"type": "half_plane", "normal": [float("-inf"), 1.0], "offset": 0.0},
         "half-plane normal must be two finite numbers, got (-inf, 1.0)"),
        ({"type": "half_plane", "normal": [1.5e308, 1.5e308], "offset": 0.0},
         "half-plane normal must be nonzero, got (1.5e+308, 1.5e+308)"),  # length overflows
        ({"type": "disc", "center": [0.0, 0.0], "radius": 0.5, "centre": [1.0, 0.0]},
         "unknown key 'centre' for region type 'disc'"),
        ({"type": "half_plane", "normal": [1.0, 0.0], "offset": 0.0, "radius": 1.0, "x": 0},
         "unknown key 'radius', 'x' for region type 'half_plane'"),
        ({"type": "complement", "inner": {"type": "full_space", "inner": {}}},
         "unknown key 'inner' for region type 'full_space'"),
        ({"type": "disc", "center": [0.1, 0.0]}, "missing required key 'region.radius'"),
        ({"type": "union", "parts": 5}, "region.parts must be a list, got 5"),
    ],
    ids=["disc-nan-center", "disc-short-center", "disc-inf-radius", "half-plane-nan-offset",
         "half-plane-inf-normal", "half-plane-huge-normal", "disc-unknown-key",
         "half-plane-unknown-keys", "nested-unknown-key", "disc-missing-radius",
         "union-parts-not-a-list"],
)
def test_non_finite_region_parameters_are_rejected(tmp_path, capsys, field_path, region, message):
    with pytest.raises(pp.DomainError) as err:
        pp.region_from_dict(region)
    assert str(err.value) == message
    assert run(tmp_path, "energy", {"field": field_path, "epsilon": 1e-2, "region": region}) == 1
    err = capsys.readouterr().err
    assert "error[config]" in err
    assert f"region is not a valid region: {message}" in err
    assert not (tmp_path / "energy.json").exists()


def test_null_domain_n_is_a_config_error(tmp_path, capsys):
    payload = {
        "domain": {"kind": "ball", "radius": 1.0, "n": None},
        "interface_radius": 0.5,
        "epsilon": 1e-2,
    }
    assert run(tmp_path, "barrier", payload) == 1
    err = capsys.readouterr().err
    assert "error[config]" in err
    assert "domain.n must be an integer, got None" in err
    assert "missing required key 'domain.n'" not in err


def test_null_harmonic_check_n_is_a_config_error(tmp_path, capsys):
    assert run(tmp_path, "harmonic-check", {"count": 1, "n": None}) == 1
    err = capsys.readouterr().err
    assert "error[config]" in err
    assert "n must be an integer, got None" in err
    assert not (tmp_path / "harmonic.json").exists()


def _run_python(code, *args):
    """Run code in a fresh interpreter that imports this package; return its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pp.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=True
    )
    return done.stdout.strip()


_SCIPY_LOADED = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"


def test_cli_import_leaves_heavy_scipy_modules_out():
    # The package needs no scipy, only its tests do; loading it would cost
    # every CLI run at startup.
    assert _run_python(f"import sys, perimeter_phase.cli; print({_SCIPY_LOADED})") == "[]"


_RANDOM_LOADED = "[m for m in sys.modules if m.startswith('numpy.random')]"


def test_cli_import_leaves_numpy_random_out():
    # Only harmonic-check draws random numbers; every other run would pay
    # about 6 MB and 15 ms to load numpy.random.
    assert _run_python(f"import sys, perimeter_phase.cli; print({_RANDOM_LOADED})") == "[]"


def test_cli_runs_that_draw_nothing_run_without_numpy_random(tmp_path):
    configs = {
        "sweep": {"domain": INTERVAL, "epsilons": [1e-1, 5e-2], "bound_m": 1.0,
                  "boundary": BOUNDARY, "max_iters": 100},
        "recovery": {"domain": {"kind": "ball", "radius": 1.0, "n": 64},
                     "region": {"type": "disc", "center": [0.1, 0.0], "radius": 0.5},
                     "epsilons": [1e-1], "dump_fields": True},
        "oracle1d": {"a": 1.0, "b": 3.0},
    }
    runs = []
    for kind, payload in configs.items():
        cfg = write_config(tmp_path / f"{kind}.json", payload)
        runs.append([kind, "--config", cfg, "--out", str(tmp_path / kind), "--quiet"])
    code = (
        "import sys; sys.modules['numpy.random'] = None\n"
        "from perimeter_phase import cli\n"
        f"print([cli.main(argv) for argv in {runs!r}])"
    )
    assert _run_python(code) == "[0, 0, 0]"


def test_harmonic_check_draws_its_fields_from_a_philox_stream_of_the_seed(tmp_path):
    # The fields are those of Generator(Philox(seed)) in order, so moving
    # where the generator is made changes no output byte.
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "h.json", {"count": 3, "n": 64, "boundary_floor": 0.2})
    argv = ["harmonic-check", "--config", cfg, "--out", str(out), "--seed", "7", "--quiet"]
    assert main(argv) == 0
    rng = np.random.Generator(np.random.Philox(7))
    domain = pp.Domain.box(-1.0, 1.0, 64)
    lines = ["index,dirichlet_before,dirichlet_after,margin,strictly_positive"]
    for i in range(3):
        field = cli.random_positive_field(domain, rng, 0.2)
        replaced = pp.harmonic_replacement(field)
        before, after = pp.dirichlet_energy(field), pp.dirichlet_energy(replaced)
        positive = "1" if np.all(replaced.values > 0.0) else "0"
        lines.append(",".join([str(i)] + [cli._fmt(x) for x in (before, after, before - after)]
                              + [positive]))
    assert (out / "harmonic.csv").read_text() == "\n".join(lines) + "\n"


def test_cli_runs_without_scipy(tmp_path):
    configs = {
        "harmonic-check": {"count": 10, "n": 64, "boundary_floor": 0.1},
        "sweep": {"domain": INTERVAL, "epsilons": [1e-1, 5e-2], "bound_m": 1.0,
                  "boundary": BOUNDARY, "max_iters": 100},
        "recovery": {"domain": {"kind": "ball", "radius": 1.0, "n": 64},
                     "region": {"type": "disc", "center": [0.1, 0.0], "radius": 0.5},
                     "epsilons": [1e-1]},
    }
    runs = []
    for kind, payload in configs.items():
        cfg = write_config(tmp_path / f"{kind}.json", payload)
        runs.append([kind, "--config", cfg, "--out", str(tmp_path / kind), "--quiet"])
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from perimeter_phase import cli\n"
        f"print([cli.main(argv) for argv in {runs!r}])"
    )
    assert _run_python(code) == "[0, 0, 0]"


def test_laplace_solves_load_no_scipy():
    code = (
        "import sys, numpy as np, perimeter_phase as pp\n"
        "for domain in (pp.Domain.interval(-1.0, 1.0, 64), pp.Domain.box(-1.0, 1.0, 64),\n"
        "               pp.Domain.ball(1.0, 64, center=(0.1, 0.0))):\n"
        "    values = np.random.default_rng(3).normal(size=domain.node_shape)\n"
        "    out = pp.harmonic_replacement(pp.ScalarField(domain, values))\n"
        "    print(bool(np.all(np.isfinite(out.values))), " + _SCIPY_LOADED + ")\n"
    )
    assert _run_python(code).splitlines() == ["True []"] * 3


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes glibc's malloc")
def test_cli_keeps_freed_grid_arrays_in_the_heap(tmp_path):
    # Three 2 MB arrays freed together leave more than twice the largest
    # array glibc has mapped and freed at the top of its heap, so by default
    # it trims them off and the next round faults their pages in again.
    cfg = write_config(tmp_path / "oracle1d.json", {"a": 1.0, "b": 3.0})
    argv = ["oracle1d", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]
    code = (
        "import resource, sys, numpy as np\n"
        "from perimeter_phase import cli\n"
        "def rounds():\n"
        "    for _ in range(10):\n"
        "        arrays = [np.ones(1 << 18) for _ in range(3)]\n"
        "        del arrays\n"
        "if sys.argv[-1] == 'cli':\n"
        f"    assert cli.main({argv!r}) == 0\n"
        "rounds()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "rounds()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    trimmed, kept = (int(_run_python(code, mode)) for mode in ("plain", "cli"))
    assert trimmed >= 10 * 512  # a 2 MB array is 512 pages
    assert kept < 100


@pytest.mark.parametrize(
    "region",
    [
        {"type": "disc", "center": [0.0, 0.0], "radius": 0.5},
        {"type": "half_plane", "normal": [1.0, 0.0], "offset": 0.0},
        {"type": "complement", "inner": {"type": "disc", "center": [0.0, 0.0], "radius": 0.5}},
        {"type": "union", "parts": [HALF_LINE, {"type": "half_plane", "normal": [0, 1], "offset": 0}]},
    ],
)
def test_plane_region_on_an_interval_field_is_a_domain_error(tmp_path, capsys, field_path, region):
    assert run(tmp_path, "energy", {"field": field_path, "epsilon": 1e-2, "region": region}) == 1
    err = capsys.readouterr().err
    assert "error[domain]" in err and "needs a 2D domain" in err
    assert not (tmp_path / "energy.json").exists()


@pytest.mark.parametrize("kind", ["union", "intersection"])
def test_region_with_no_parts_is_a_config_error(tmp_path, capsys, field_path, kind):
    payload = {"field": field_path, "epsilon": 1e-2, "region": {"type": kind, "parts": []}}
    cfg = write_config(tmp_path / "config.json", payload)
    out = tmp_path / "out"
    assert main(["energy", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "error[config]" in err
    assert f"region is not a valid region: a {kind} needs at least one part" in err
    assert not out.exists() or not any(out.iterdir())
