"""One repetition of one workload, in a fresh interpreter.

    python3 bench/worker.py '<spec as JSON>'
    python3 bench/worker.py --probe

The spec names the workload, its generated inputs, whether to trace, a
scratch directory for CLI outputs and a file for the spans.  The last line
of standard output is one JSON object with the repetition's timings, its
ops and their check results.  ``--probe`` reports the versions and the
location of the imported package instead.

Only the workload body is timed.  Its outputs are checked afterwards,
against the thresholds of the acceptance criteria, with the tracer already
removed, so checks neither count toward ``wall_s`` nor appear in spans.
numpy and the package are imported inside the functions, so that
``setup_s`` covers everything ``import perimeter_phase.cli`` loads.
"""

from __future__ import annotations

import csv
import json
import math
import os
import resource
import sys
import time
import traceback

C0 = 8.0 / 3.0


def _now() -> float:
    return time.perf_counter()


class Body:
    """Times the workload body; the tracer records only inside it."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.install()
        self.start = _now()
        return self

    def __exit__(self, *exc):
        self.wall_s = _now() - self.start
        # ru_maxrss is in KiB on Linux.
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.tracer is not None:
            self.tracer.uninstall()
        return False


class Ops:
    """Attempted ops with their wall times and check failures."""

    def __init__(self):
        self.seconds = {}
        self.problems = {}

    def attempt(self, name, fn, *args):
        start = _now()
        try:
            value = fn(*args)
        except Exception:  # a raising op is a failed op; the repetition goes on
            traceback.print_exc(file=sys.stderr)
            self.problems[name] = ["raised"]
            value = None
        self.seconds[name] = _now() - start
        return value

    def check(self, name, ok, message):
        if not ok:
            self.problems.setdefault(name, []).append(message)

    def summary(self, body: Body, extra: dict) -> dict:
        return {
            "wall_s": body.wall_s,
            "peak_rss_mb": body.peak_rss_mb,
            "slowest_op_s": max(self.seconds.values()),
            "attempted": len(self.seconds),
            "failed": len(self.problems),
            "problems": self.problems,
            "extra": extra,
        }


# ---------------------------------------------------------------------------
# sweep1d


def relative_stationarity(state) -> float:
    """max_F |g| / (max |2 lap u| + max |w'(u / sqrt(eps))| / eps^1.5).

    F is the interior minus the nodes at the amplitude bound whose gradient
    points outward, where the projected step cannot move.
    """
    import numpy as np

    import perimeter_phase as pp

    u, eps, m = state.values, state.epsilon, state.bound_m
    g = pp.energy_gradient(u, state.domain, eps)
    pinned = ((u >= m) & (g < 0.0)) | ((u <= -m) & (g > 0.0))
    free = ~state.domain.boundary_mask & ~pinned
    lap = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / state.domain.h**2
    well = np.abs(pp.w_prime(u[1:-1] / math.sqrt(eps))) / eps**1.5
    return float(np.max(np.abs(g[free])) / (np.max(np.abs(2.0 * lap)) + np.max(well)))


def sweep_cases(inp: dict):
    """(name, right boundary value, amplitude bound) of the two sweeps."""
    return (("sym", 1.0, 2.0), ("asym", inp["b"], inp["b"]))


def run_sweep(inp: dict, domain, right: float, bound_m: float):
    import perimeter_phase as pp

    return pp.continuation_sweep(
        domain,
        inp["epsilons"],
        left_value=-1.0,
        right_value=right,
        bound_m=bound_m,
        tol_grad=inp["tol_grad"],
        max_iters=inp["max_iters"],
    )


def sweep1d(inp: dict, workdir: str, tracer) -> dict:
    import numpy as np

    import perimeter_phase as pp

    cases = sweep_cases(inp)
    ops = Ops()
    sweeps = {}
    with Body(tracer) as body:
        domain = pp.Domain.interval(-1.0, 1.0, inp["n"])
        for name, right, bound_m in cases:
            sweeps[name] = ops.attempt(name, run_sweep, inp, domain, right, bound_m)

    energy_sum = 0.0
    stationarity = 0.0
    for name, right, bound_m in cases:
        entries = sweeps[name]
        if entries is None:
            continue
        for entry in entries:
            u = entry.state.values
            ops.check(name, u[0] == -1.0 and u[-1] == right,
                      f"boundary values moved at eps={entry.epsilon:g}")
            ops.check(name, float(np.max(np.abs(u))) <= bound_m,
                      f"|u| exceeds M at eps={entry.epsilon:g}")
            energy_sum += pp.e_eps(entry.state).total
            stationarity = max(stationarity, relative_stationarity(entry.state))
        final = entries[-1].state.values
        flips = int(np.count_nonzero((final[:-1] >= 0.0) != (final[1:] >= 0.0)))
        ops.check(name, flips == 1, f"final state has {flips} sign changes")
        oracle = 0.5 * (1.0 + right) ** 2 + C0
        total = pp.e_eps(entries[-1].state).total
        ops.check(name, abs(total - oracle) <= 0.05 * oracle,
                  f"final energy {total:.6g} not within 5% of {oracle:.6g}")

    return ops.summary(body, {
        "sym_s": ops.seconds["sym"],
        "asym_s": ops.seconds["asym"],
        "energy_sum": energy_sum,
        "stationarity": stationarity,
    })


# ---------------------------------------------------------------------------
# construct2d


def _write_config(workdir: str, step: str, cfg: dict) -> str:
    path = os.path.join(workdir, f"{step}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(cfg, f)
    return path


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def construct2d(inp: dict, workdir: str, tracer) -> dict:
    import numpy as np

    import perimeter_phase as pp
    from perimeter_phase import cli

    n, radius, glue = inp["n"], inp["disc_radius"], inp["glue"]
    eps = inp["epsilons"][-1]
    last = f"recovery_{len(inp['epsilons']) - 1:03d}.f64"
    ball = {"kind": "ball", "radius": 1.0, "n": n}
    out = {step: os.path.join(workdir, step) for step in ("rec_u", "rec_v", "glue", "barrier", "energy")}
    steps = {
        "rec_u": ("recovery", {
            "domain": ball, "epsilons": inp["epsilons"], "dump_fields": True,
            "region": {"type": "disc", "center": inp["centres"][0], "radius": radius}}),
        "rec_v": ("recovery", {
            "domain": ball, "epsilons": inp["epsilons"], "dump_fields": True,
            "region": {"type": "disc", "center": inp["centres"][1], "radius": radius}}),
        "glue": ("glue", {
            "u_field": os.path.join(out["rec_u"], last),
            "v_field": os.path.join(out["rec_v"], last),
            "epsilon": eps, **glue}),
        "barrier": ("barrier", {
            "domain": ball, "interface_radius": inp["barrier_radius"],
            "bound_m": 1.0, "epsilon": eps}),
        "energy": ("energy", {
            "field": os.path.join(out["glue"], "glued.f64"), "epsilon": eps,
            "region": {"type": "disc", "center": [0.0, 0.0],
                       "radius": inp["energy_region_radius"]}}),
    }
    argv = {
        step: [command, "--config", _write_config(workdir, step, cfg), "--out", out[step], "--quiet"]
        for step, (command, cfg) in steps.items()
    }
    fields = {
        "u": os.path.join(out["rec_u"], last),
        "v": os.path.join(out["rec_v"], last),
        "glued": os.path.join(out["glue"], "glued.f64"),
    }

    def sharp_limit(path):
        state = pp.PhaseState(pp.fieldio.load_field(path), eps, 1.0)
        pair = pp.extract_sharp_limit(state)
        return pp.sharp_energy(pair), pp.modica_mortola_split(state)

    ops = Ops()
    codes, limits = {}, {}
    with Body(tracer) as body:
        for step in steps:
            codes[step] = ops.attempt(step, cli.main, argv[step])
        for label, path in fields.items():
            limits[label] = ops.attempt(f"sharp_{label}", sharp_limit, path)

    for step, code in codes.items():
        ops.check(step, code == 0, f"exit code {code}")
    ran = {step for step in steps if step not in ops.problems}
    disc_sharp = C0 * 2.0 * math.pi * radius
    for step in ran & {"rec_u", "rec_v"}:
        with open(os.path.join(out[step], "recovery.csv"), newline="") as f:
            row = [r for r in csv.DictReader(f) if float(r["epsilon"]) == eps][0]
        total = float(row["total"])
        ops.check(step, abs(total - disc_sharp) <= 0.05 * disc_sharp,
                  f"recovery total {total:.6g} not within 5% of {disc_sharp:.6g}")
    if "glue" in ran:
        report = _read_json(os.path.join(out["glue"], "glue.json"))
        ops.check("glue", report["excess"] <= glue["gamma"],
                  f"glue excess {report['excess']:.6g} > gamma")
        shape = (n + 1, n + 1)
        u, v, glued = (np.fromfile(fields[k], dtype="<f8").reshape(shape) for k in ("u", "v", "glued"))
        axis = -1.0 + (2.0 / n) * np.arange(n + 1)
        x, y = np.meshgrid(axis, axis, indexing="ij")
        r = np.hypot(x, y)
        inner, outer = r <= glue["rho"], r >= glue["rho"] + glue["delta"]
        ops.check("glue", np.array_equal(glued[inner], v[inner]), "inner zone differs from v")
        ops.check("glue", np.array_equal(glued[outer], u[outer]), "outer zone differs from u")
    if "barrier" in ran:
        barrier = _read_json(os.path.join(out["barrier"], "barrier.json"))
        ops.check("barrier", barrier["feasible"], "barrier infeasible")
        ops.check("barrier", barrier["energy"]["total"] <= 1.02 * barrier["bound"],
                  "barrier energy above 1.02 * bound")
    if "energy" in ran:
        energy = _read_json(os.path.join(out["energy"], "energy.json"))
        ops.check("energy", math.isfinite(energy["total"]) and energy["total"] > 0.0,
                  f"energy total {energy['total']!r}")

    h = 2.0 / n
    for label, value in limits.items():
        if value is None:
            continue
        sharp, split = value
        perimeter = sharp.perimeter_weighted / C0
        circumference = 2.0 * math.pi * radius
        ops.check(f"sharp_{label}", abs(perimeter - circumference) <= 0.1 * circumference,
                  f"perimeter {perimeter:.6g} not within 10% of 2 pi r")
        defect = split.tv_term - (2.0 / C0) * split.lhs
        ops.check(f"sharp_{label}", defect <= 40.0 * h, f"tv defect {defect / h:.3g} h > 40 h")

    return ops.summary(body, {"glue_s": ops.seconds["glue"]})


# ---------------------------------------------------------------------------
# harmonic2d


def direct_harmonic(values):
    """Dirichlet sum of the discrete harmonic extension, by a sparse LU solve.

    The sum is the forward-difference one of the package (h cancels on a 2D
    square grid).  Returns the sum and the norm of the right-hand side.
    """
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve

    m = values.shape[0] - 2
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    a = (sp.kron(t, sp.identity(m)) + sp.kron(sp.identity(m), t)).tocsc()
    edge = values.copy()
    edge[1:-1, 1:-1] = 0.0
    rhs = (edge[:-2, 1:-1] + edge[2:, 1:-1] + edge[1:-1, :-2] + edge[1:-1, 2:]).ravel()
    u = values.copy()
    u[1:-1, 1:-1] = spsolve(a, rhs).reshape(m, m)
    gx = np.diff(u, axis=0)[:, :-1]
    gy = np.diff(u, axis=1)[:-1, :]
    return float(np.sum(gx * gx + gy * gy)), float(np.linalg.norm(rhs))


def harmonic_tolerance(n: int, rhs_norm: float, energy: float) -> float:
    """How far the CLI's CG solution may sit above the exact minimum.

    CG stops at ||r|| <= max(1e-12 ||b||, 1e-10); the energy excess of its
    iterate is r' A^-1 r <= ||r||^2 / lambda_min with lambda_min =
    8 sin^2(pi / 2n) for the 5-point matrix.  Summing 2 n^2 terms adds at
    most 2 n^2 machine epsilons of relative rounding.
    """
    residual = max(1e-12 * rhs_norm, 1e-10)
    lam_min = 8.0 * math.sin(math.pi / (2 * n)) ** 2
    return residual * residual / lam_min + 2 * n * n * sys.float_info.epsilon * energy


def harmonic2d(inp: dict, workdir: str, tracer) -> dict:
    import numpy as np

    import perimeter_phase as pp
    from perimeter_phase import cli

    n, floor, seed = inp["n"], 0.1, inp["cli_seed"]
    out = os.path.join(workdir, "harmonic")
    config = _write_config(workdir, "harmonic", {"count": inp["count"], "n": n, "boundary_floor": floor})
    argv = ["harmonic-check", "--config", config, "--out", out, "--seed", str(seed), "--quiet"]

    ops = Ops()
    with Body(tracer) as body:
        code = ops.attempt("harmonic_check", cli.main, argv)

    ops.check("harmonic_check", code == 0, f"exit code {code}")
    if not ops.problems:
        summary = _read_json(os.path.join(out, "harmonic.json"))
        ops.check("harmonic_check", summary["all_strictly_positive"], "a replacement is not positive")
        ops.check("harmonic_check", summary["all_strict_drop"], "a replacement did not lower the energy")
        with open(os.path.join(out, "harmonic.csv"), newline="") as f:
            after = [float(r["dirichlet_after"]) for r in csv.DictReader(f)]
        domain = pp.Domain.box(-1.0, 1.0, n)
        rng = np.random.Generator(np.random.Philox(seed))
        fields = [cli.random_positive_field(domain, rng, floor) for _ in range(max(inp["checked"]) + 1)]
        for i in inp["checked"]:
            exact, rhs_norm = direct_harmonic(fields[i].values)
            ops.check("harmonic_check", abs(after[i] - exact) <= harmonic_tolerance(n, rhs_norm, exact),
                      f"field {i}: dirichlet_after {after[i]!r} vs direct solve {exact!r}")

    return ops.summary(body, {})


WORKLOADS = {"sweep1d": sweep1d, "construct2d": construct2d, "harmonic2d": harmonic2d}


def main(argv) -> int:
    if argv[1:] == ["--probe"]:
        import numpy
        import scipy

        import perimeter_phase

        print(json.dumps({
            "package": perimeter_phase.__file__,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }))
        return 0

    spec = json.loads(argv[1])
    start = _now()
    import perimeter_phase.cli  # noqa: F401

    setup_s = _now() - start
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
    os.makedirs(spec["workdir"], exist_ok=True)
    result = WORKLOADS[spec["workload"]](spec["inputs"], spec["workdir"], tracer)
    result["setup_s"] = setup_s
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans)
        tracer.dump(spec["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
