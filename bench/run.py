"""Benchmark of the diffuse-to-sharp pipeline.

    python3 bench/run.py --workload sweep1d --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Each repetition runs the workload in a fresh interpreter
(``bench/worker.py``), so module-level caches start cold as they do on every
CLI call, and repetitions follow one another for ``--seconds`` seconds: a
closed loop with one caller.  ``PERIMETER_PHASE_THREADS`` is removed from
the children's environment, so the CLI pool has its default size.

With ``--trace 0`` the result carries the end-to-end metrics, medians over
the repetitions.  With ``--trace 1`` untraced and traced repetitions
alternate, and the result carries the per-layer metrics of the traced ones
plus the tracing overhead.  Lines before the last one are a readable
summary and the environment record; the last line of standard output is
the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import WORKLOADS, make_inputs  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "slowest_op_s": "s"}
# Printed and recorded, not part of the result line: failed_frac is 0 on a
# correct program, and the others exist on one workload only.
REPORTED = {
    "failed_frac": "1",
    "sym_s": "s",
    "asym_s": "s",
    "energy_sum": "1",
    "stationarity": "1",
    "glue_s": "s",
}
QUALITY = ("energy_sum", "stationarity")
OPS_PER_RUN = {"sweep1d": 2, "construct2d": 8, "harmonic2d": 1}
MIN_REPS = 3
CHILD_TIMEOUT_S = 150.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PERIMETER_PHASE_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, env):
    """Run the worker; return its last stdout line parsed, or None on failure."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"worker printed no result: {lines[-1]!r}", file=sys.stderr)
        return None


def measure(workload, inputs, seconds, trace, out, env) -> dict:
    """Alternate untraced (and traced) repetitions for the given time."""
    kinds = ("plain", "traced") if trace else ("plain",)
    reps = {kind: [] for kind in kinds}
    cycles = []
    start = time.monotonic()
    while True:
        cycle_start = time.monotonic()
        for kind in kinds:
            workdir = out / "work"
            shutil.rmtree(workdir, ignore_errors=True)
            spec = {
                "workload": workload,
                "inputs": inputs,
                "trace": kind == "traced",
                "workdir": str(workdir),
                "spans": str(out / "spans.json"),
            }
            reps[kind].append(run_child([json.dumps(spec)], env))
        cycles.append(time.monotonic() - cycle_start)
        elapsed = time.monotonic() - start
        if len(cycles) >= MIN_REPS and elapsed + statistics.median(cycles) > seconds:
            break
    shutil.rmtree(out / "work", ignore_errors=True)
    return reps


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def describe(values):
    """Median, quartiles and sample count of a list of numbers."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cache_sizes() -> dict:
    """L2 and L3 sizes of cpu0, as /sys reports them."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def environment(args, inputs, probe) -> dict:
    return {
        "commit": git_commit(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "python": probe["python"],
        "numpy": probe["numpy"],
        "scipy": probe["scipy"],
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "PERIMETER_PHASE_THREADS": "cleared for the children (was "
        + repr(os.environ.get("PERIMETER_PHASE_THREADS")) + ")",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs,
    }


def per_layer_names() -> list:
    from tracer import layer_metrics

    return list(layer_metrics([])) + [f"quality.{q}" for q in QUALITY] + ["trace.overhead_s"]


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_ms"):
        return "ms"
    if stat.endswith("_s"):
        return "s"
    if stat == "bytes":
        return "B"
    if stat in ("accept_ratio", "concurrency") + QUALITY:
        return "1"
    return "count"


def per_layer(plain, traced) -> dict:
    """Medians over the traced repetitions, and the tracing overhead."""
    values = {}
    for name in traced[0]["layers"]:
        values[name] = statistics.median(r["layers"][name] for r in traced)
    for name in QUALITY:
        values[f"quality.{name}"] = statistics.median(r["extra"].get(name, 0.0) for r in traced)
    values["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
    return {name: {"value": values[name], "unit": layer_unit(name)} for name in per_layer_names()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "perimeter_phase" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    # Also warms the file cache and writes the package's bytecode, which
    # users pay once per install, not once per call.
    probe = run_child(["--probe"], env)
    expected = (ROOT / "src" / "perimeter_phase").resolve()
    if probe is None or Path(probe["package"]).resolve().parent != expected:
        print("error: the package does not import from this checkout", file=sys.stderr)
        return 2

    inputs = make_inputs(args.workload, args.seed)
    out = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    reps = measure(args.workload, inputs, args.seconds, args.trace, out, env)

    every = [r for kind in reps.values() for r in kind]
    done = [r for r in every if r is not None]
    # A repetition that crashed or timed out fails all of its ops.
    lost = OPS_PER_RUN[args.workload] * (len(every) - len(done))
    attempted = sum(r["attempted"] for r in done) + lost
    failed = sum(r["failed"] for r in done) + lost
    for r in done:
        for op, problems in r["problems"].items():
            print(f"failed op {op}: {'; '.join(problems)}", file=sys.stderr)
    plain = [r for r in reps["plain"] if r is not None]
    traced = [r for r in reps.get("traced", []) if r is not None]
    if not plain or (args.trace and not traced):
        print("error: no repetition completed", file=sys.stderr)
        return 1

    summary = {name: describe([r[name] for r in plain]) for name in END_TO_END}
    for name in REPORTED:
        values = [r["extra"][name] for r in plain if name in r["extra"]]
        if values:
            summary[name] = describe(values)
    summary["failed_frac"] = {"value": failed / attempted, "attempted": attempted, "failed": failed}

    env_record = environment(args, inputs, probe)
    print("environment " + json.dumps(env_record, sort_keys=True))
    for name, stats in summary.items():
        unit = END_TO_END.get(name) or REPORTED[name]
        if "median" in stats:
            print(f"{args.workload:12s} {name:14s} {stats['median']:.6g} {unit}"
                  f"  (q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n={stats['n']})")
        else:
            print(f"{args.workload:12s} {name:14s} {stats['value']:.6g} {unit}"
                  f"  ({failed} of {attempted} ops)")

    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = {name: {"value": summary[name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items()}
    with open(out / "record.json", "w", encoding="utf-8") as f:
        json.dump({"environment": env_record, "summary": summary, "metrics": metrics,
                   "repetitions": reps}, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
