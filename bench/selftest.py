"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the package's own suite; they run
the workloads at reduced sizes (about ten seconds on a 2-core machine).
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import perimeter_phase as pp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, layer_metrics, self_times, union_length  # noqa: E402

# Metric-name prefixes that must read zero on a workload, because the
# workload never calls the layer.  potential.w is absent from the
# construct2d list: well_energy and glue's sandwich scan call it there.
# geometry.Domain is absent everywhere: every workload builds a grid.
EXPECTED_ZERO = {
    "sweep1d": (
        "minimize.harmonic_replacement.", "minimize.extract_sharp_limit.",
        "energy.sharp_energy.", "energy.modica_mortola_split.",
        "geometry.rasterize.", "geometry.region_cell_fraction.", "geometry.interface_length.",
        "profiles1d.", "recovery.", "interpolation.", "fieldio.", "cli.",
    ),
    "construct2d": (
        "minimize.continuation_sweep.", "minimize.minimize_e_eps.", "minimize.energy_gradient.",
        "minimize.harmonic_replacement.", "minimize.sharp_oracle_1d.",
        "minimize.iterations", "minimize.accept_ratio", "potential.w_prime.",
    ),
    "harmonic2d": (
        "minimize.continuation_sweep.", "minimize.minimize_e_eps.", "minimize.energy_gradient.",
        "minimize.sharp_oracle_1d.", "minimize.extract_sharp_limit.",
        "minimize.iterations", "minimize.accept_ratio", "potential.",
        "energy.e_eps.", "energy.well_energy.", "energy.tv_phase.", "energy.sharp_energy.",
        "energy.modica_mortola_split.",
        "geometry.rasterize.", "geometry.region_cell_fraction.", "geometry.interface_length.",
        "profiles1d.", "recovery.", "interpolation.", "fieldio.",
    ),
}


def small_inputs(workload: str) -> dict:
    inp = inputs.make_inputs(workload, inputs.DEFAULT_SEED)
    if workload == "sweep1d":
        inp["max_iters"] = 50
    if workload == "harmonic2d":
        inp["count"] = 20
        inp["checked"] = [3, 17]
    return inp


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each workload once untraced and once traced, at reduced size."""
    out = {}
    for workload in inputs.WORKLOADS:
        inp = small_inputs(workload)
        plain_dir = tmp_path_factory.mktemp(f"{workload}-plain")
        traced_dir = tmp_path_factory.mktemp(f"{workload}-traced")
        plain = worker.WORKLOADS[workload](inp, str(plain_dir), None)
        tracer = Tracer()
        traced = worker.WORKLOADS[workload](inp, str(traced_dir), tracer)
        out[workload] = {
            "plain": plain, "traced": traced, "layers": layer_metrics(tracer.spans),
            "plain_dir": plain_dir, "traced_dir": traced_dir,
        }
    return out


def _output_files(root: Path):
    # Configs name their own directory; compare only what the CLI wrote.
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file() and p.parent != root)


@pytest.mark.parametrize("workload", ["construct2d", "harmonic2d"])
def test_traced_cli_outputs_are_byte_identical(runs, workload):
    plain_dir, traced_dir = runs[workload]["plain_dir"], runs[workload]["traced_dir"]
    files = _output_files(plain_dir)
    assert files and files == _output_files(traced_dir)
    for rel in files:
        assert filecmp.cmp(plain_dir / rel, traced_dir / rel, shallow=False), rel


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_workloads_pass_their_checks(runs, workload):
    for kind in ("plain", "traced"):
        result = runs[workload][kind]
        assert result["failed"] == 0, result["problems"]
        assert result["attempted"] == run.OPS_PER_RUN[workload]


def test_traced_sweep_states_are_bitwise_equal():
    inp = small_inputs("sweep1d")
    domain = pp.Domain.interval(-1.0, 1.0, inp["n"])
    for _, right, bound_m in worker.sweep_cases(inp):
        plain = worker.run_sweep(inp, domain, right, bound_m)
        tracer = Tracer()
        tracer.install()
        try:
            traced = worker.run_sweep(inp, domain, right, bound_m)
        finally:
            tracer.uninstall()
        assert tracer.spans
        for a, b in zip(plain, traced, strict=True):
            assert np.array_equal(a.state.values, b.state.values)


def test_uninstall_restores_every_binding():
    from perimeter_phase import interpolation, profiles1d, recovery

    before = (pp.w, recovery.transition_profile, interpolation.transition_profile,
              profiles1d.SlopedProfile.value, pp.Domain.__init__)
    tracer = Tracer()
    tracer.install()
    assert recovery.transition_profile is interpolation.transition_profile is pp.transition_profile
    assert recovery.transition_profile is not before[1]
    tracer.uninstall()
    after = (pp.w, recovery.transition_profile, interpolation.transition_profile,
             profiles1d.SlopedProfile.value, pp.Domain.__init__)
    assert all(a is b for a, b in zip(before, after))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_layers_the_workload_never_calls_read_zero(runs, workload):
    layers = runs[workload]["layers"]
    zero = [k for k in layers if k.startswith(EXPECTED_ZERO[workload])]
    assert zero
    assert {k: layers[k] for k in zero if layers[k] != 0.0} == {}


def test_layers_the_workload_exercises_read_nonzero(runs):
    assert runs["sweep1d"]["layers"]["minimize.energy_gradient.calls"] > 0
    assert runs["sweep1d"]["layers"]["minimize.iterations"] == 10 * 50
    assert 0.0 < runs["sweep1d"]["layers"]["minimize.accept_ratio"] <= 1.0
    assert runs["construct2d"]["layers"]["geometry.interface_length.calls"] == 3
    assert runs["construct2d"]["layers"]["interpolation.glue.calls"] == 1
    assert runs["construct2d"]["layers"]["fieldio.load_field.bytes"] > 0
    assert runs["harmonic2d"]["layers"]["minimize.harmonic_replacement.calls"] == 20
    assert runs["harmonic2d"]["layers"]["cli.pool.concurrency"] > 0.0


def test_self_time_subtracts_the_union_of_overlapping_children():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap (two threads),
    # [8, 12] runs past the parent's end; the grandchild lies inside [1, 4].
    spans = [
        (1, "p", 0.0, 10.0, None, 1, 0.0),
        (2, "c", 1.0, 4.0, 1, 1, 0.0),
        (3, "c", 3.0, 6.0, 1, 2, 0.0),
        (4, "c", 8.0, 12.0, 1, 2, 0.0),
        (5, "g", 2.0, 3.0, 2, 1, 0.0),
    ]
    own = self_times(spans)
    assert own == {1: 10.0 - 7.0, 2: 3.0 - 1.0, 3: 3.0, 4: 4.0, 5: 1.0}
    assert union_length([(5.0, 6.0), (1.0, 2.0), (1.5, 3.0)], 0.0, 10.0) == 3.0
    assert union_length([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_same_seed_gives_identical_inputs():
    for workload in inputs.WORKLOADS:
        assert inputs.make_inputs(workload, 7) == inputs.make_inputs(workload, 7)
    for workload in ("construct2d", "harmonic2d"):
        assert inputs.make_inputs(workload, 7) != inputs.make_inputs(workload, 8)
    assert inputs.make_inputs("sweep1d", 0)["b"] == 3.0
    assert inputs.make_inputs("construct2d", 0)["centres"] == [[0.0, 0.0], [0.1, 0.0]]
    assert inputs.make_inputs("harmonic2d", 0)["cli_seed"] == 0


def test_benchmark_json_names_every_metric_the_runner_prints():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    layers = run.per_layer_names()
    assert [m["name"] for m in spec["per_layer"]] == layers
    assert [m["unit"] for m in spec["per_layer"]] == [run.layer_unit(n) for n in layers]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "harmonic2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
