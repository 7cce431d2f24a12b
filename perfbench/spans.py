"""In-memory span tracer wrapped around the program's public functions.

The wrappers live here, in the benchmark, and are installed on every
module attribute of the ``hyiqp`` package that is bound to a traced
function.  Modules import each other's functions by name
(``from .oracle import solve_matrix``), so patching only the defining
module would let those calls escape their span.

A span is ``[name, start, end, parent, attrs]``; ``parent`` is the index of
the enclosing span or -1.  Self time is a span's duration minus the
durations of its direct children (calls are nested on one thread, so the
children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np


@functools.lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)


def _bound(fn, args, kwargs):
    return _signature(fn).bind(*args, **kwargs).arguments


def _matrix_attrs(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    return {"grid_points": a["cfg"].n_points, "requested": a["k_states"],
            "returned": len(out.eigenvalues)}


def _jacobi_attrs(fn, args, kwargs, out):
    return {"scalar": np.ndim(_bound(fn, args, kwargs)["x"]) == 0}


def _suite_attrs(fn, args, kwargs, out):
    return {"assertions": len(out), "failures": sum(not r.ok for r in out)}


# (module, function, attributes recorded from (fn, args, kwargs, result));
# the span is named module.function
TARGETS = (
    ("potential", "effective_potential", None),
    ("jacobi", "jacobi", _jacobi_attrs),
    ("spectrum", "energy", None),
    ("spectrum", "nu_consistency", None),
    ("spectrum", "normalization_constant", None),
    ("spectrum", "wavefunction", None),
    ("hft", "observable_for_params", None),
    ("tables", "regenerate_table", None),
    ("tables", "figure_wavefunction_data", None),
    ("oracle", "solve_matrix", _matrix_attrs),
    ("oracle", "solve_numerov", lambda fn, a, k, out: {"iterations": out.iterations}),
    ("oracle", "expectation_numeric", None),
    ("checks", "run_suite", _suite_attrs),
    ("cli", "main", None),
)


class Tracer:
    """Records spans while installed; restores every original on removal."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(fn, args, kwargs, out)
            return out

        return traced

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for module_name, _attr, _attrs in TARGETS:
            with contextlib.suppress(ImportError):
                importlib.import_module(f"hyiqp.{module_name}")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "hyiqp" or key.startswith("hyiqp."))]
        self.absent = []
        for module_name, attr, attrs in TARGETS:
            module = sys.modules.get(f"hyiqp.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(f"{module_name}.{attr}", original, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        checks = sys.modules.get("hyiqp.checks")
        for key, fn in dict(getattr(checks, "SUITES", {})).items():
            checks.SUITES[key] = self.wrap(f"checks.suite.{key}", fn)
            self._patched.append((checks.SUITES, key, fn))
        # output formatting: cells are formatted when the envelope is built,
        # then joined by render(); both count as cli.render
        envelope = getattr(sys.modules.get("hyiqp.cli"), "Envelope", None)
        if envelope is not None and hasattr(envelope, "render"):
            self._patch(envelope, "__init__", self.wrap("cli.render", envelope.__init__))
            self._patch(envelope, "render", self.wrap(
                "cli.render", envelope.render,
                lambda fn, a, k, out: {"bytes": len(out.encode("utf-8"))}))
        else:
            self.absent.append("cli.Envelope")

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans, lo: int, hi: int) -> list[float]:
    """Self time of each span in spans[lo:hi]; parents of that range lie inside it."""
    own = [s[2] - s[1] for s in spans[lo:hi]]
    for i in range(lo, hi):
        parent = spans[i][3]
        if parent >= lo:
            own[parent - lo] -= spans[i][2] - spans[i][1]
    return own


def _nearest(spans, index: int, lo: int, name: str) -> bool:
    while index >= lo:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def layer_metrics(spans, lo: int, hi: int) -> dict[str, float]:
    """Per-layer counts and self times of the spans in spans[lo:hi]."""
    own = self_times(spans, lo, hi)
    calls, self_s, wall_s, errors = {}, {}, {}, {}
    totals = dict.fromkeys(("scalar", "vector", "in_norm", "grid_points", "requested",
                            "returned", "iterations", "assertions", "failures",
                            "bytes"), 0)
    for i in range(lo, hi):
        name, start, end, parent, attrs = spans[i]
        attrs = attrs or {}
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i - lo]
        wall_s[name] = wall_s.get(name, 0.0) + end - start
        errors[name] = errors.get(name, 0) + ("error" in attrs)
        for key in ("grid_points", "requested", "returned", "iterations", "assertions",
                    "failures", "bytes"):
            totals[key] += attrs.get(key, 0)
        if name == "jacobi.jacobi" and "scalar" in attrs:
            totals["scalar" if attrs["scalar"] else "vector"] += 1
            totals["in_norm"] += _nearest(spans, parent, lo, "spectrum.normalization_constant")

    def ratio(a, b):
        return a / b if b else 0.0

    norm = "spectrum.normalization_constant"
    out = {
        f"{norm}.calls": calls.get(norm, 0),
        f"{norm}.self_s": self_s.get(norm, 0.0),
        f"{norm}.failures": errors.get(norm, 0),
        "jacobi.jacobi.scalar_calls": totals["scalar"],
        "jacobi.jacobi.vector_calls": totals["vector"],
        "jacobi.jacobi.self_s": self_s.get("jacobi.jacobi", 0.0),
        "jacobi.calls_per_norm": ratio(totals["in_norm"], calls.get(norm, 0)),
        "oracle.solve_matrix.grid_points": totals["grid_points"],
        "oracle.solve_matrix.states_requested": totals["requested"],
        "oracle.solve_matrix.states_returned": totals["returned"],
        "oracle.solve_matrix.bound_ratio": ratio(totals["returned"], totals["requested"]),
        "oracle.solve_numerov.iterations": totals["iterations"],
        "oracle.solve_numerov.failures": errors.get("oracle.solve_numerov", 0),
        "oracle.solve_numerov.s_per_iteration": ratio(
            self_s.get("oracle.solve_numerov", 0.0), totals["iterations"]),
        "checks.assertions": totals["assertions"],
        "checks.failures": totals["failures"],
        "cli.render_s": self_s.get("cli.render", 0.0),
        "cli.render_bytes": totals["bytes"],
        "trace.spans": hi - lo,
    }
    for name in ("spectrum.energy", "hft.observable_for_params", "oracle.solve_matrix",
                 "oracle.expectation_numeric", "oracle.solve_numerov"):
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in ("spectrum.energy", "spectrum.nu_consistency", "spectrum.wavefunction",
                 "hft.observable_for_params", "tables.regenerate_table",
                 "tables.figure_wavefunction_data", "potential.effective_potential",
                 "oracle.solve_matrix", "oracle.expectation_numeric", "oracle.solve_numerov"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for suite in ("reduction", "hft", "nu", "oracle"):
        out[f"checks.run_suite.{suite}_s"] = wall_s.get(f"checks.suite.{suite}", 0.0)
    return out
