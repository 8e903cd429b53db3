"""End-to-end runs of the experiment CLI and its config validation."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import perimeter_phase as pp
from perimeter_phase import cli, fieldio
from perimeter_phase.cli import main, parse_config
from perimeter_phase.errors import ConfigError


def write_config(path, payload):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)
    return str(path)


def run(tmp, kind, payload):
    cfg = write_config(tmp / f"{kind}.json".replace("-", "_"), payload)
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
            {"profile_kind": "standard", "theta": 0.0, "convention": "tail_slope_theta",
             "kappa": 0.1, "count": 1001},
        ),
        "energy": ({"field": path, "epsilon": 1e-1}, {"region": None}),
        "recovery": (
            {"domain": INTERVAL, "region": HALF_LINE, "epsilons": [1e-1]},
            {"builtin": "zero", "kappa": 0.1, "bound_m": 1.0, "dump_fields": False},
        ),
        "glue": (
            {"u_field": path, "v_field": path, "epsilon": 1e-2, "rho": 0.5, "delta": 0.2,
             "gamma": 0.5},
            {"bound_m": 1.0, "convention": "tail_slope_theta"},
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
                    "convention": "tail_slope_sqrt_theta", "kappa": 0.2, "count": 11},
        "energy": {"field": path, "epsilon": 1e-1, "region": HALF_LINE},
        "recovery": {"field": path, "builtin": "constant", "value": 0.5, "domain": INTERVAL,
                     "region": HALF_LINE, "epsilons": [1e-1, 1e-2], "kappa": 0.2,
                     "bound_m": 2.0, "dump_fields": True},
        "glue": {"u_field": path, "v_field": path, "epsilon": 1e-2, "bound_m": 2.0, "rho": 0.5,
                 "delta": 0.2, "gamma": 0.5, "convention": "tail_slope_sqrt_theta"},
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


def test_harmonic_check_bytes_deterministic(tmp_path, monkeypatch):
    payload = {"count": 3, "n": 64, "boundary_floor": 0.1, "seed": 11}
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("PERIMETER_PHASE_THREADS", "1")
    cfg_a = write_config(tmp_path / "ha.json", payload)
    assert main(["harmonic-check", "--config", cfg_a, "--out", str(out_a), "--quiet"]) == 0
    monkeypatch.setenv("PERIMETER_PHASE_THREADS", "3")
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
    ]
    assert len(lines) == 3
    first = [float(t) for t in lines[1].split(",")]
    second = [float(t) for t in lines[2].split(",")]
    assert first[0] == 1e-1 and second[0] == 3e-2
    assert 0.0 < first[1] < second[1] < 1.2 * (14.0 / 3.0)
    assert abs(first[5]) < 0.05 and abs(second[5]) < 0.05


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
    assert rows[0][4] == pytest.approx(pp.c0(), rel=1e-12)
    assert rows[1][4] == rows[0][4]
    assert rows[1][3] == pytest.approx(pp.c0(), rel=2e-2)
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
    assert data["bound"] == pytest.approx(2.0 * pp.c0() + 16.0 + 1.0, rel=1e-12)


def test_missing_config_file_exits_one(tmp_path, capsys):
    code = main(["profile", "--config", str(tmp_path / "nope.json"), "--quiet"])
    assert code == 1
    assert "error[input]" in capsys.readouterr().err


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


def test_cli_import_leaves_heavy_scipy_modules_out():
    # scipy.interpolate pulls in scipy.special and scipy.optimize, which
    # every CLI run would pay for at startup.
    heavy = ("scipy.interpolate", "scipy.special", "scipy.optimize")
    code = (
        "import sys, perimeter_phase.cli; "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(pp.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "[]"
