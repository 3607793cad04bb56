"""Outside-in tracing of the nehari2d layers.

`install` wraps every public function of the layer modules and rebinds
each module namespace that holds it, so calls made through another
module's imports, or through a module's own globals, are seen too.
Each wrapped call records a span (name, start, end, parent) in flat
in-memory arrays; `Tracer.dump` writes them out once, at the end of the
traced process, and `layer_metrics` turns a dump into per-layer numbers.
Nothing under `src/` is changed: the package is timed from outside.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("grid", "coeffs", "energy", "fiber", "spectrum", "solvers", "cli")

_FAMILY_BUILDERS = ("coeffs.identity_family", "coeffs.example_family")


class Tracer:
    """Span store plus a few work counters, filled by the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter[str] = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """Return `fn` wrapped in a span called `name`.

        `after(args, kwargs, result)` runs inside the span on a normal
        return and gives the value handed back to the caller.
        """
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    result = after(args, kwargs, result)
                return result
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def dump(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            counter_names=np.array(list(self.counters), dtype=str),
            counter_values=np.array(list(self.counters.values()), dtype=np.int64),
        )


def _hooks(tracer: Tracer) -> dict:
    """Per-function extras: work counters and wrapped return values."""

    def count_elems(name):
        def after(args, kwargs, result):
            tracer.counters[name + ".elems"] += int(np.size(args[0]))
            return result
        return after

    def traced_family(args, kwargs, fam):
        return dataclasses.replace(
            fam,
            a=tracer.wrap("coeffs.a", fam.a, count_elems("coeffs.a")),
            da=tracer.wrap("coeffs.da", fam.da, count_elems("coeffs.da")),
        )

    def projection(args, kwargs, result):
        # t_init is the 7th positional parameter of project_to_nehari
        t_init = kwargs.get("t_init", args[6] if len(args) > 6 else None)
        if t_init is None:
            tracer.counters["fiber.project_to_nehari.cold"] += 1
        if result.projectable:
            tracer.counters["fiber.project_to_nehari.projectable"] += 1
        return result

    def poisson(args, kwargs, solve):
        return tracer.wrap("spectrum.poisson_solve", solve)

    hooks = {name: traced_family for name in _FAMILY_BUILDERS}
    hooks["fiber.project_to_nehari"] = projection
    hooks["spectrum.make_poisson_solver"] = poisson
    return hooks


def install(tracer: Tracer):
    """Wrap the public functions of every layer; returns an undo callable.

    Must run before the package computes anything, so that the caches
    (`_EIGEN_CACHE`, `_POISSON_CACHE`) are filled through the wrappers.
    """
    package = importlib.import_module("nehari2d")
    modules = [importlib.import_module(f"nehari2d.{m}") for m in LAYERS]
    namespaces = [package, *modules]
    hooks = _hooks(tracer)
    undo = []
    for layer, mod in zip(LAYERS, modules):
        for fname, fn in list(vars(mod).items()):
            if (fname.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            name = f"{layer}.{fname}"
            wrapped = tracer.wrap(name, fn, hooks.get(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapped)
                        undo.append((ns, key, fn))

    def uninstall():
        for ns, key, fn in reversed(undo):
            setattr(ns, key, fn)

    return uninstall


# ---------------------------------------------------------------------------
# aggregation of a span dump


class Spans:
    """A loaded span dump with per-span durations and self times."""

    def __init__(self, path):
        with np.load(path) as d:
            self.names = [str(s) for s in d["names"]]
            self.name_id = d["name_id"]
            self.parent = d["parent"]
            self.dur = d["end"] - d["start"]
            self.counters = dict(
                zip((str(s) for s in d["counter_names"]),
                    (int(v) for v in d["counter_values"]))
            )
        n = len(self.dur)
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=n
        )
        self.self_time = self.dur - covered
        k = len(self.names)
        self.calls = np.bincount(self.name_id, minlength=k)
        self.self_by_name = np.bincount(
            self.name_id, weights=self.self_time, minlength=k
        )

    def _nid(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def _indices(self, name: str):
        return np.flatnonzero(self.name_id == self._nid(name))

    def _has_ancestor(self, idx: int, target: int) -> bool:
        p = int(self.parent[idx])
        while p >= 0:
            if self.name_id[p] == target:
                return True
            p = int(self.parent[p])
        return False

    def calls_of(self, name: str) -> int:
        nid = self._nid(name)
        return int(self.calls[nid]) if nid >= 0 else 0

    def self_of(self, name: str) -> float:
        nid = self._nid(name)
        return float(self.self_by_name[nid]) if nid >= 0 else 0.0

    def total_of(self, name: str) -> float:
        """Wall time inside `name`, not counting nested calls twice."""
        nid = self._nid(name)
        return float(sum(
            self.dur[i] for i in self._indices(name)
            if not self._has_ancestor(i, nid)
        ))

    def calls_under(self, name: str, ancestor: str) -> int:
        target = self._nid(ancestor)
        return sum(
            1 for i in self._indices(name) if self._has_ancestor(i, target)
        )

    def layer_self(self, layer: str) -> float:
        return float(sum(
            t for name, t in zip(self.names, self.self_by_name)
            if name.startswith(layer + ".")
        ))


# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    *((f"grid.{f}.{s}", u) for f in ("cell_values", "cell_gradients", "scatter_cells")
      for s, u in (("calls", "count"), ("self_s", "s"))),
    *((f"coeffs.{f}.{s}", u) for f in ("a", "da")
      for s, u in (("calls", "count"), ("elems", "count"), ("self_s", "s"))),
    *((f"energy.{f}.{s}", u)
      for f in ("total_energy", "euler_gradient", "nehari_residual",
                "scalar_energy_c", "scalar_euler_gradient_c")
      for s, u in (("calls", "count"), ("self_s", "s"))),
    ("fiber.project_to_nehari.calls", "count"),
    ("fiber.project_to_nehari.cold", "count"),
    ("fiber.project_to_nehari.self_s", "s"),
    ("fiber.project_to_nehari.total_s", "s"),
    ("fiber.project_to_nehari.projectable_ratio", "ratio"),
    ("fiber.scalar_fiber_root.calls", "count"),
    ("fiber.scalar_fiber_root.self_s", "s"),
    ("fiber.scalar_fiber_root.total_s", "s"),
    ("spectrum.principal_eigenpair.total_s", "s"),
    ("spectrum.poisson_solve.calls", "count"),
    ("spectrum.poisson_solve.self_s", "s"),
    ("solvers.descent_iters", "count"),
    ("solvers.trials_per_iter", "ratio"),
    ("solvers.refine_solution.calls", "count"),
    ("solvers.refine_solution.total_s", "s"),
    ("solvers.refine_solution.grad_evals", "count"),
    ("solvers.scalar_ground_state.total_s", "s"),
    ("solvers.diagonal_candidate.total_s", "s"),
    ("solvers.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("trace.overhead", "ratio"),
]


def layer_metrics(spans: Spans, descent_iters: int, overhead: float) -> dict:
    """Every PER_LAYER metric as {name: value}.

    `descent_iters` is the sum of the CSV `iterations` column; `overhead`
    is traced over untraced solve time.
    """
    out = {}
    for name, _unit in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = spans.calls_of(fn)
        elif stat == "self_s":
            out[name] = spans.self_of(fn) if "." in fn else spans.layer_self(fn)
        elif stat == "total_s":
            out[name] = spans.total_of(fn)
        elif stat in ("elems", "cold"):
            out[name] = spans.counters.get(name, 0)
    proj = spans.calls_of("fiber.project_to_nehari")
    projectable = spans.counters.get("fiber.project_to_nehari.projectable", 0)
    out["fiber.project_to_nehari.projectable_ratio"] = projectable / proj if proj else 0.0
    out["solvers.descent_iters"] = descent_iters
    out["solvers.trials_per_iter"] = proj / descent_iters if descent_iters else 0.0
    out["solvers.refine_solution.grad_evals"] = spans.calls_under(
        "energy.euler_gradient", "solvers.refine_solution"
    )
    out["trace.overhead"] = overhead
    return {name: out[name] for name, _unit in PER_LAYER}
