"""Span tracer that instruments hbvm from outside the package.

Each target function is replaced, in every ``hbvm.*`` module that binds it,
by a wrapper that records one span (target, parent span, start, end).  The
originals are put back when the tracer is uninstalled.  Problem energies and
gradients are not module functions, so systems are wrapped with
``dataclasses.replace`` instead, both for systems the benchmark builds and
for those ``get_problem`` hands to the CLI.

Spans stay in memory in flat arrays; a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from array import array

import numpy as np

# Layer -> "module:function" targets.  A target that no longer exists is
# reported as absent instead of failing the run, so the benchmark keeps
# working while functions are merged or deleted.
LAYER_TARGETS = {
    "legendre.node_systems": ("hbvm.legendre:gauss_system",
                              "hbvm.legendre:lobatto_system",
                              "hbvm.legendre:custom_system"),
    "tableau.build": ("hbvm.tableau:hbvm_tableau",
                      "hbvm.tableau:filtered_tableau",
                      "hbvm.tableau:basis_matrices"),
    "spectral.eigenvalues": ("hbvm.spectral_qr:eigenvalues",
                             "hbvm.spectral:eigenvalues"),
    "spectral.stability_function": ("hbvm.spectral:stability_function",),
    "spectral.a_stability_scan": ("hbvm.spectral:a_stability_scan",),
    "spectral.checks": ("hbvm.spectral:classify_spectrum",
                        "hbvm.spectral:isospectral_check",
                        "hbvm.spectral:invariant_subspace_residual",
                        "hbvm.spectral:w_transform_check",
                        "hbvm.spectral:verification_sweep"),
    "integrator.driver": ("hbvm.integrator:integrate",),
    "integrator.step": ("hbvm.integrator:rk_step",
                        "hbvm.integrator:_gamma_step_matrices"),
    "integrator.stage_solve": ("hbvm.integrator:_fixed_point",
                               "hbvm.integrator:_simplified_newton"),
    "integrator.jacobian": ("hbvm.integrator:_field_jacobian",),
    "integrator.lu_factor": ("hbvm.integrator:lu_factor",),
    "integrator.lu_solve": ("hbvm.integrator:lu_solve",),
    "problems.catalog": ("hbvm.problems:get_problem",),
    "cli.main": ("hbvm.cli:main",),
    "cli.output": ("hbvm.cli:_dump_json",
                   "hbvm.cli:_write",
                   "hbvm.integrator:trajectory_to_csv",
                   "hbvm.tableau:tableau_to_json"),
}
# Layers whose spans come from wrapped systems rather than module bindings.
SYSTEM_LAYERS = ("problems.H", "problems.grad_H")
LAYERS = tuple(LAYER_TARGETS) + SYSTEM_LAYERS

# Targets whose first argument's row count is recorded (the LU order).
_SIZED = {"hbvm.integrator:lu_factor"}


def _resolve(target: str):
    module_name, attr = target.split(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, attr, None)


class Tracer:
    """In-memory spans around hbvm layer boundaries."""

    def __init__(self):
        self.names: list[str] = []    # target id -> name
        self.layer_of: list[str] = []  # target id -> layer
        self.absent: list[str] = []
        self.parent = array("q")
        self.target = array("i")
        self.start = array("d")
        self.end = array("d")
        self.sizes: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] | None = None  # id(original) -> wrapper
        self._system_ids = {layer: self._target_id(layer, layer)
                            for layer in SYSTEM_LAYERS}

    def _target_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def wrap(self, fn, tid: int, sized: bool = False):
        """Return fn recording one span per call under target tid."""
        parent, target, start, end = self.parent, self.target, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        sizes = self.sizes.setdefault(self.names[tid], []) if sized else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(target)
            parent.append(stack[-1] if stack else -1)
            target.append(tid)
            end.append(0.0)
            stack.append(sid)
            if sizes is not None:
                sizes.append(int(np.shape(args[0])[0]))
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def instrument_system(self, system):
        """Copy of a HamiltonianSystem whose H and grad_H record spans."""
        ids = self._system_ids
        return dataclasses.replace(
            system,
            H=self.wrap(system.H, ids["problems.H"]),
            grad_H=self.wrap(system.grad_H, ids["problems.grad_H"]))

    def _traced_get_problem(self, fn, tid):
        traced_fn = self.wrap(fn, tid)

        @functools.wraps(fn)
        def get_problem(*args, **kwargs):
            problem = traced_fn(*args, **kwargs)
            return dataclasses.replace(
                problem, system=self.instrument_system(problem.system))

        return get_problem

    def _build_wrappers(self) -> dict[int, object]:
        """Resolve every target once and make its wrapper."""
        wrappers = {}
        for layer, targets in LAYER_TARGETS.items():
            for target in targets:
                fn = _resolve(target)
                if fn is None:
                    self.absent.append(target)
                    continue
                if id(fn) in wrappers:
                    continue
                tid = self._target_id(target, layer)
                if layer == "problems.catalog":
                    wrappers[id(fn)] = self._traced_get_problem(fn, tid)
                else:
                    wrappers[id(fn)] = self.wrap(fn, tid, sized=target in _SIZED)
        return wrappers

    def install(self) -> None:
        """Patch every hbvm module binding of every target that exists.

        A tracer may be installed and uninstalled many times; its spans
        accumulate across installs."""
        if self._wrappers is None:
            self._wrappers = self._build_wrappers()
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hbvm" or name.startswith("hbvm."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def absent_layers(self) -> list[str]:
        present = set(self.layer_of)
        return [layer for layer in LAYERS if layer not in present]

    def summary(self) -> dict:
        """Per-layer and per-target call counts and self times, plus the
        inclusive durations of step spans that are not nested in another
        step span."""
        n_targets = len(self.names)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        target = np.frombuffer(self.target, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        children = np.zeros_like(duration)
        np.add.at(children, parent[nested], duration[nested])
        self_time = duration - children
        calls = np.bincount(target, minlength=n_targets)
        self_s = np.bincount(target, weights=self_time, minlength=n_targets)

        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        targets = {}
        for tid, name in enumerate(self.names):
            layer = layers[self.layer_of[tid]]
            layer["calls"] += int(calls[tid])
            layer["self_s"] += float(self_s[tid])
            targets[name] = {"calls": int(calls[tid]), "self_s": float(self_s[tid])}

        step_ids = [tid for tid, layer in enumerate(self.layer_of)
                    if layer == "integrator.step"]
        is_step = np.isin(target, step_ids)
        parent_is_step = np.zeros_like(is_step)
        parent_is_step[nested] = is_step[parent[nested]]
        step_durations = duration[is_step & ~parent_is_step]
        return {"layers": layers, "targets": targets,
                "total_self_s": float(self_time.sum()),
                "step_durations_s": step_durations,
                "sizes": {name: max(v) for name, v in self.sizes.items() if v}}
