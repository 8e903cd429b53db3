"""Outside-in tracer: spans around the package's public functions.

The wrappers are installed from the benchmark, not from the package.  A
traced function is replaced on every module namespace that binds it
(``recovery`` and ``interpolation`` import ``transition_profile`` by name,
the CLI reaches the library through module attributes), and a method or
constructor is replaced on its class.  Spans are kept in memory and
written out when the run ends.  The untraced benchmark run never imports
this module.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

# (module, attribute, extra stat, argument read by the stat as (index, name)).
# "nodes" counts elements of the grid-array argument, "bytes" is the size of
# the file argument after the call, "iterations" sums the returned
# MinimizeResult.iterations.  An attribute naming a class traces its
# construction.
TARGETS = (
    ("minimize", "continuation_sweep", None, None),
    ("minimize", "minimize_e_eps", "iterations", None),
    ("minimize", "energy_gradient", "nodes", (0, "values")),
    ("minimize", "harmonic_replacement", None, None),
    ("minimize", "sharp_oracle_1d", None, None),
    ("minimize", "extract_sharp_limit", None, None),
    ("potential", "w", "nodes", (0, "t")),
    ("potential", "w_prime", "nodes", (0, "t")),
    ("potential", "h_tilde", "nodes", (0, "t")),
    ("energy", "e_eps", None, None),
    ("energy", "dirichlet_energy", None, None),
    ("energy", "well_energy", None, None),
    ("energy", "tv_phase", None, None),
    ("energy", "sharp_energy", None, None),
    ("energy", "modica_mortola_split", None, None),
    ("geometry", "Domain", None, None),
    ("geometry", "rasterize", None, None),
    ("geometry", "region_cell_fraction", None, None),
    ("geometry", "interface_length", "nodes", (0, "values")),
    ("profiles1d", "transition_profile", "nodes", (1, "s")),
    ("profiles1d", "sloped_profile", None, None),
    ("profiles1d", "SlopedProfile.value", "nodes", (1, "s")),
    ("profiles1d", "tail_well_sup", None, None),
    ("recovery", "build_recovery", None, None),
    ("interpolation", "glue", None, None),
    ("interpolation", "build_barrier", None, None),
    ("fieldio", "save_binary", "bytes", (1, "path")),
    ("fieldio", "load_field", "bytes", (0, "path")),
    ("cli", "main", None, None),
)

_PACKAGE = "perimeter_phase"
# Spans opened in CLI pool workers have no enclosing span in their own
# thread; they take the open span of this function as their parent.
_ROOT = "cli.main"

ID, NAME, START, END, PARENT, THREAD, EXTRA = range(7)
Span = Tuple[int, str, float, float, Optional[int], int, float]


def _argument(args, kwargs, where):
    index, name = where
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Records one span per call of every function in ``TARGETS``."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Optional[int] = None
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, kind: Optional[str], where):
        tracer = self
        is_root = name == _ROOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            span_id = next(tracer._ids)
            stack.append(span_id)
            if is_root:
                tracer._root = span_id
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    tracer._root = None
                extra = 0.0
                if kind == "nodes":
                    extra = float(np.size(_argument(args, kwargs, where)))
                elif kind == "bytes":
                    path = _argument(args, kwargs, where)
                    extra = float(os.path.getsize(path)) if os.path.exists(path) else 0.0
                elif kind == "iterations" and result is not None:
                    extra = float(result.iterations)
                tracer.spans.append(
                    (span_id, name, start, end, parent, threading.get_ident(), extra)
                )

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Replace every traced function, method and constructor."""
        import perimeter_phase.cli  # noqa: F401  (loads every module)

        modules = [
            m
            for n, m in list(sys.modules.items())
            if n == _PACKAGE or n.startswith(_PACKAGE + ".")
        ]
        for module_name, attr, kind, where in TARGETS:
            name = f"{module_name}.{attr}"
            module = sys.modules[f"{_PACKAGE}.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self._wrap(name, getattr(cls, method), kind, where))
                continue
            original = getattr(module, attr)
            if isinstance(original, type):
                self._patch(original, "__init__", self._wrap(name, original.__init__, kind, where))
                continue
            wrapper = self._wrap(name, original, kind, where)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def uninstall(self) -> None:
        """Restore every replaced attribute, last patch first."""
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "thread", "extra"],
                       "spans": self.spans}, f)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, each clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return {
        s[ID]: (s[END] - s[START]) - union_length(children.get(s[ID], ()), s[START], s[END])
        for s in spans
    }


def _nearest_rank(sorted_values: List[float], pct: float) -> float:
    k = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(k) - 1]


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics of one traced run, zero for functions never called."""
    out: Dict[str, float] = {}
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)
    for module_name, attr, kind, _ in TARGETS:
        name = f"{module_name}.{attr}"
        mine = by_name.get(name, [])
        out[f"{name}.calls"] = float(len(mine))
        out[f"{name}.self_s"] = sum((own[s[ID]] for s in mine), 0.0)
        if kind in ("nodes", "bytes"):
            out[f"{name}.{kind}"] = sum((s[EXTRA] for s in mine), 0.0)

    solves = sorted(1e3 * (s[END] - s[START]) for s in by_name.get("minimize.harmonic_replacement", []))
    out["minimize.harmonic_replacement.p50_ms"] = _nearest_rank(solves, 50) if solves else 0.0
    out["minimize.harmonic_replacement.p90_ms"] = _nearest_rank(solves, 90) if solves else 0.0

    iterations = sum((s[EXTRA] for s in by_name.get("minimize.minimize_e_eps", [])), 0.0)
    out["minimize.iterations"] = iterations
    out["minimize.accept_ratio"] = _accept_ratio(spans, iterations)
    out["cli.pool.concurrency"] = _pool_concurrency(spans)
    return out


def _accept_ratio(spans: List[Span], iterations: float) -> float:
    """Iterations per potential.w call made inside minimize_e_eps spans."""
    by_id = {s[ID]: s for s in spans}

    def in_minimize(span_id: Optional[int]) -> bool:
        while span_id is not None:
            if by_id[span_id][NAME] == "minimize.minimize_e_eps":
                return True
            span_id = by_id[span_id][PARENT]
        return False

    evaluations = sum(1 for s in spans if s[NAME] == "potential.w" and in_minimize(s[PARENT]))
    return iterations / evaluations if evaluations else 0.0


def _pool_concurrency(spans: List[Span]) -> float:
    """Busy time of pool-worker spans over their wall extent, over all cli.main calls."""
    busy = extent = 0.0
    for root in (s for s in spans if s[NAME] == _ROOT):
        workers = [s for s in spans if s[PARENT] == root[ID] and s[THREAD] != root[THREAD]]
        if workers:
            busy += sum(s[END] - s[START] for s in workers)
            extent += max(s[END] for s in workers) - min(s[START] for s in workers)
    return busy / extent if extent > 0 else 0.0
