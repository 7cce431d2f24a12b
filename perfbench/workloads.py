"""The three workloads.

Each workload is driven by one client in a closed loop: the next call
starts only when the previous one has returned.  A workload provides

* ``setup()``: input generation plus one warm-up call per layer;
* ``one_pass()``: the calls of one pass over every input, each returning a
  Result whose ``seconds`` covers the program's work only, never the checks;
* ``finish(results)``: output checks and accuracy references, run after
  the timed loop;
* ``trace_pass()``: the fixed list of calls one traced pass makes;
* ``reference()``: the wall time of one run of fixed work that is not the
  program's, taken between calls to gauge the host's speed.

No call of the timed loop may fail on today's program.  A known defect
is probed outside it, by ``probe()``, and reported on its own.
"""

from __future__ import annotations

import contextlib
import io
import json
import marshal
import math
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np
from hyiqp import (PAPER, PHYSICAL, HyiqpError, PotentialParams, checks, cli, for_mode,
                   get_molecule, hft, oracle, spectrum)

import inputs
import outputs
import stats

CLI_TIMEOUT_S = 150
CLI_ERROR_EXITS = (2, 3)          # the CLI's exits for a raised HyiqpError


@dataclass
class Result:
    """One call.  ``problems`` are outputs that failed a check; ``error`` is a
    loud failure (a raised HyiqpError or a CLI error exit).  Either fails the
    call; only problems make a run incorrect.  A call with ``timed`` false
    is checked and counted, but not timed."""

    kind: str
    seconds: float
    problems: list = field(default_factory=list)
    error: str | None = None
    detail: dict = field(default_factory=dict)
    timed: bool = True

    @property
    def failed(self) -> bool:
        return bool(self.problems or self.error)


# a synthetic module for the reference loop to load and run, as imports do
_REF_MODULE = marshal.dumps(compile("\n".join(
    f"def f{i}(x, y=1):\n    d = {{'a': x, 'b': [y, {i}]}}\n    return sum(d['b'])\n"
    f"class C{i}:\n    def m(self):\n        return f{i}({i})\n" for i in range(12)),
    "reference", "exec"))


def reference_loop() -> float:
    """Wall time of a fixed mix of interpreted work, about 1 ms: float
    arithmetic, loading and running a small module, dict and string churn,
    and small numpy operations.

    It is the benchmark's own code, so it does not change with the program;
    it measures how fast the host runs at the moment.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(1, 600):
        acc += math.sqrt(i) * math.exp(-1e-4 * i) / (1.0 + 1e-9 * acc)
    namespace = {}
    exec(marshal.loads(_REF_MODULE), namespace)
    acc += sum(namespace[f"C{i}"]().m() for i in range(12))
    table = {str(i): (i, float(i)) for i in range(400)}
    acc += len(json.dumps(table)) + len(sorted(table, key=len))
    x = np.linspace(0.0, 1.0, 400)
    for _ in range(10):
        acc += float(np.dot(np.exp(-x), np.sin(x)))
    return time.perf_counter() - start


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliCold:
    """Each call is a fresh ``python -m hyiqp.cli`` process, as users start it."""

    name = "cli_cold"
    kinds = ("energy", "table", "figure9", "expect_oracle", "check_all")

    def __init__(self, root, seed, env):
        self.root, self.env = root, env
        self.inputs = inputs.cli_inputs(seed)

    def run_cli(self, argv):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "hyiqp.cli", *argv], cwd=self.root,
                              env=self.env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        return time.perf_counter() - start, proc

    def reference(self) -> float:
        """Wall time of a bare interpreter start: the cold-process counterpart
        of the reference loop, which tracks cold CLI calls more closely."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=self.root, env=self.env,
                       capture_output=True, check=True, timeout=CLI_TIMEOUT_S)
        return time.perf_counter() - start

    def setup(self):
        _seconds, proc = self.run_cli(outputs.EXACT_ENERGY_ARGV)
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up CLI call failed: {proc.stderr.strip()}")

    def _call(self, kind, argv):
        seconds, proc = self.run_cli(argv)
        return Result(kind, seconds, detail={"argv": argv, "returncode": proc.returncode,
                                             "stdout": proc.stdout})

    def one_pass(self):
        return [lambda kind=kind: self._call(kind, self.inputs[kind]) for kind in self.kinds]

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def finish(self, results):
        # the exact level, once and untimed: it checks the CLI, not its speed
        exact = self._call("energy", list(outputs.EXACT_ENERGY_ARGV))
        exact.timed = False
        results.append(exact)
        references, first, anchor_errors = {}, {}, []
        for r in results:
            argv = r.detail["argv"]
            key = tuple(argv)
            if r.detail["returncode"] in CLI_ERROR_EXITS:
                r.error = f"{argv}: exit code {r.detail['returncode']}"
            else:
                if key not in references:
                    references[key] = outputs.cli_reference(r.kind, argv)
                r.problems += outputs.check_cli_run(r.kind, argv, r.detail["returncode"],
                                                    r.detail["stdout"], references[key],
                                                    first.get(key))
                first.setdefault(key, r.detail["stdout"])
            if r.kind == "check_all":
                anchor_errors.append(outputs.anchor_error_from_check(r.detail["stdout"]))
            r.detail.pop("stdout")
        named = {f"cli_{kind}_s": stats.summary([r.seconds for r in results
                                                 if r.kind == kind and r.timed], "s")
                 for kind in self.kinds}
        errors = [e for e in anchor_errors if e is not None]
        return named, max(errors) if errors else math.nan

    def trace_pass(self):
        def call(kind, argv):
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            result = Result(kind, time.perf_counter() - start)
            if code in CLI_ERROR_EXITS:
                result.error = f"{argv}: exit code {code}: {err.getvalue().strip()}"
            elif code != 0:
                result.problems.append(f"{argv}: exit code {code}")
            return result

        return [lambda kind=kind: call(kind, self.inputs[kind]) for kind in self.kinds]

    def cold_seconds(self):
        """One cold invocation per command, for the traced run's accounting."""
        return {kind: self.run_cli(self.inputs[kind])[0] for kind in self.kinds}


class ClosedFormSweep:
    """Warm, in-process closed-form work over many states."""

    name = "closed_form_sweep"
    reference = staticmethod(reference_loop)
    r = np.linspace(0.05, 20.0, 512)
    trace_states = 40

    def __init__(self, root, seed, env):
        self.inputs = inputs.sweep_inputs(seed)
        self.states = self.inputs["states"]

    def setup(self):
        self._state(self.states[0])

    def _state(self, state) -> Result:
        name, conv, mode, n, l = state
        p, mu = self.inputs["systems"][name]
        c = for_mode(mode)
        start = time.perf_counter()
        try:
            res = spectrum.energy(p, mu, n, l, c)
            spectrum.nu_consistency(p, mu, n, l, c)
            obs = [hft.observable_for_params(o, p, mu, n, l, c) for o in inputs.OBSERVABLES]
            norm = spectrum.normalization_constant(p, mu, n, l, c, conv)
            psi = spectrum.wavefunction(self.r, p, mu, n, l, c, convention=conv)
        except HyiqpError as exc:
            return Result("state", time.perf_counter() - start,
                          error=f"{state}: {type(exc).__name__}: {exc}")
        result = Result("state", time.perf_counter() - start)
        values = [res.energy, norm] + [v for o in obs
                                       for v in (o.paper_formula, o.machine_derivative)]
        if not all(math.isfinite(v) for v in values) or not np.all(np.isfinite(psi)):
            result.problems.append(f"{state}: non-finite output")
        if not norm > 0.0:
            result.problems.append(f"{state}: normalization constant {norm!r}")
        return result

    def one_pass(self):
        return [lambda s=s: self._state(s) for s in self.states]

    def peak_rss_mb(self):
        return self_peak_rss_mb()

    def finish(self, results):
        failed = {self.states[i % len(self.states)]
                  for i, r in enumerate(results) if r.failed}
        # the highest-degree paper-mode states carry the largest error (the
        # Jacobi recurrence cancels there), so they are always checked and the
        # maximum does not hinge on the seeded sample
        corners = [(name, conv, "paper", inputs.N_MAX, 0)
                   for name in inputs.MOLECULES for conv in inputs.CONVENTIONS]
        errors = []
        for state in corners + self.inputs["reference_sample"]:
            if state in failed or state == inputs.KNOWN_DEFECT:
                continue
            name, conv, mode, n, l = state
            p, mu = self.inputs["systems"][name]
            errors.append(outputs.norm_error(p, mu, n, l, for_mode(mode), conv))
        norm_err = max(errors)
        named = {
            "closed_form_states_per_s": {
                "value": len(results) / sum(r.seconds for r in results), "unit": "1/s",
                "count": len(results)},
            "closed_form_norm_err": {"value": norm_err, "unit": "1", "count": len(errors)},
        }
        return named, norm_err

    def trace_pass(self):
        return [lambda s=s: self._state(s) for s in self.states[:self.trace_states]]

    def probe(self) -> dict:
        """The known defect, run on its own: its error, or None once it is fixed."""
        return {"state": inputs.KNOWN_DEFECT, "error": self._state(inputs.KNOWN_DEFECT).error}


class GridOracle:
    """The exact-potential oracle: the Numerov-bound anchor and matrix-bound spectra."""

    name = "grid_oracle"
    reference = staticmethod(reference_loop)
    bracket = 0.02                        # the half-width check_oracle uses
    spectrum_l = range(4)                 # expect --oracle's default l_max = 3
    spectrum_k = 9                        # expect --oracle's default n_max + 1
    numeric = ("r_m2", "r_m1_screened", "kinetic", "p2")

    def __init__(self, root, seed, env):
        self.inputs = inputs.oracle_inputs(seed)

    def setup(self):
        sol = oracle.solve_matrix(checks.ANCHOR, 0, checks.ANCHOR_MU, checks.ANCHOR_CFG, 1,
                                  PAPER)
        e0 = sol.eigenvalues[0]
        oracle.solve_numerov(checks.ANCHOR, 0, checks.ANCHOR_MU, checks.ANCHOR_CFG,
                             (e0 - self.bracket, e0 + self.bracket), PAPER)
        oracle.expectation_numeric(sol, 0, "r_m2")
        self._spectrum(("H2",), range(1))

    def _anchor(self) -> Result:
        a = checks.ANCHOR
        start = time.perf_counter()
        try:
            sol = oracle.solve_matrix(a, 0, checks.ANCHOR_MU, checks.ANCHOR_CFG, 3, PAPER)
            nums = [oracle.solve_numerov(a, 0, checks.ANCHOR_MU, checks.ANCHOR_CFG,
                                         (e - self.bracket, e + self.bracket), PAPER)
                    for e in sol.eigenvalues]
        except HyiqpError as exc:
            return Result("anchor", time.perf_counter() - start,
                          error=f"anchor: {type(exc).__name__}: {exc}")
        result = Result("anchor", time.perf_counter() - start)
        exact = [spectrum.energy_hulthen(a.v0, a.alpha, checks.ANCHOR_MU, k, 0, PAPER)
                 for k in range(3)]
        errs = [abs(e - x) / abs(x) for e, x in zip(sol.eigenvalues, exact)]
        gap = abs(sol.eigenvalues[0] - nums[0].energy) / abs(nums[0].energy)
        result.detail = {"errors": errs, "dual_gap": gap}
        if list(sol.node_counts) != [0, 1, 2] or [n.node_count for n in nums] != [0, 1, 2]:
            result.problems.append(f"anchor node counts {sol.node_counts}, "
                                   f"{[n.node_count for n in nums]}")
        if gap > 1e-6:
            result.problems.append(f"anchor dual-method gap {gap:.3e} exceeds 1e-6")
        if max(errs[:2]) > 1e-4:
            result.problems.append(f"anchor error {max(errs[:2]):.3e} exceeds 1e-4")
        return result

    def _spectrum(self, molecules=inputs.MOLECULES, l_values=spectrum_l) -> Result:
        start = time.perf_counter()
        problems, error, values, requested, returned = [], None, [], 0, 0
        try:
            for name in molecules:
                mol = get_molecule(name)
                p = PotentialParams.from_molecule(mol, v0=self.inputs["v0"][name])
                cfg = oracle.default_config(mol.alpha)
                for l in l_values:
                    sol = oracle.solve_matrix(p, l, mol.mu, cfg, self.spectrum_k, PHYSICAL)
                    requested += self.spectrum_k
                    returned += len(sol.eigenvalues)
                    if np.any(sol.eigenvalues >= p.c):
                        problems.append(f"{name} l={l}: state at or above C returned")
                    for k in range(len(sol.eigenvalues)):
                        row = [oracle.expectation_numeric(sol, k, o) for o in self.numeric]
                        values.append((name, l, k, row))
        except HyiqpError as exc:
            error = f"spectrum: {type(exc).__name__}: {exc}"
        result = Result("spectrum", time.perf_counter() - start, problems, error,
                        detail={"requested": requested, "returned": returned})
        for name, l, k, (r_m2, _r_m1, _kin, p2) in values:
            if not (r_m2 > 0.0 and p2 > 0.0):
                result.problems.append(f"{name} l={l} k={k}: <r^-2>={r_m2}, <p^2>={p2}")
        return result

    def one_pass(self):
        return [self._anchor, self._spectrum]

    def peak_rss_mb(self):
        return self_peak_rss_mb()

    def finish(self, results):
        anchors = [r for r in results if r.kind == "anchor" and r.detail]
        spectra = [r for r in results if r.kind == "spectrum"]
        errs = anchors[-1].detail["errors"] if anchors else [math.nan] * 3
        anchor_err = max(errs[:2])
        named = {
            "oracle_anchor_s": stats.summary([r.seconds for r in anchors], "s"),
            "oracle_anchor_err": {"value": anchor_err, "unit": "1", "count": 2},
            "oracle_anchor_err_k2": {"value": errs[2], "unit": "1", "count": 1},
            "oracle_dual_gap": {"value": anchors[-1].detail["dual_gap"] if anchors
                                else math.nan, "unit": "1", "count": 1},
            "oracle_spectrum_s": stats.summary([r.seconds for r in spectra], "s"),
            "oracle_states_returned": {
                "value": sum(r.detail["returned"] for r in spectra),
                "unit": "count",
                "of_requested": sum(r.detail["requested"] for r in spectra)},
        }
        return named, anchor_err

    def trace_pass(self):
        return [self._anchor, self._spectrum]


WORKLOADS = {w.name: w for w in (CliCold, ClosedFormSweep, GridOracle)}
