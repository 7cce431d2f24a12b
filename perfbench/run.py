"""hyiqp benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Workloads: cli_cold, closed_form_sweep, grid_oracle, or ``all`` for the
three in turn.  The output is a JSON run record followed, on the last
line, by the result object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("cli_cold", "closed_form_sweep", "grid_oracle")
CLI_KINDS = ("energy", "table", "figure9", "expect_oracle", "check_all")
SETUP_PROBES = 3
IMPORT_PROBES = 3
MAX_TRACED_PASSES = 5
# named metrics every workload reports; ``--workload all`` prefixes them
PREFIXED = ("setup_s", "peak_rss_mb", "error_ratio", "call_s", "calls_per_s")
# after each call the workload's reference runs for at least this share of
# the call's time, so both sample the host's slow and fast spells alike
REF_SHARE = 0.1
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "call_cost": "ref",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "ref_err": "1",
}

PER_LAYER = {
    "import.python_floor_s": "s",
    "import.hyiqp_s": "s",
    **{f"cli.main.{kind}_s": "s" for kind in CLI_KINDS},
    **{f"cli.{kind}.accounted_share": "ratio" for kind in CLI_KINDS},
    "cli.render_s": "s",
    "cli.render_bytes": "bytes",
    "spectrum.normalization_constant.calls": "count",
    "spectrum.normalization_constant.self_s": "s",
    "spectrum.normalization_constant.failures": "count",
    "jacobi.jacobi.scalar_calls": "count",
    "jacobi.jacobi.vector_calls": "count",
    "jacobi.jacobi.self_s": "s",
    "jacobi.calls_per_norm": "count",
    "spectrum.wavefunction.self_s": "s",
    "tables.figure_wavefunction_data.self_s": "s",
    "spectrum.energy.calls": "count",
    "spectrum.energy.self_s": "s",
    "spectrum.nu_consistency.self_s": "s",
    "hft.observable_for_params.calls": "count",
    "hft.observable_for_params.self_s": "s",
    "tables.regenerate_table.self_s": "s",
    "potential.effective_potential.self_s": "s",
    "oracle.solve_matrix.calls": "count",
    "oracle.solve_matrix.self_s": "s",
    "oracle.solve_matrix.grid_points": "count",
    "oracle.solve_matrix.states_requested": "count",
    "oracle.solve_matrix.states_returned": "count",
    "oracle.solve_matrix.bound_ratio": "ratio",
    "oracle.expectation_numeric.calls": "count",
    "oracle.expectation_numeric.self_s": "s",
    "oracle.solve_numerov.calls": "count",
    "oracle.solve_numerov.self_s": "s",
    "oracle.solve_numerov.iterations": "count",
    "oracle.solve_numerov.failures": "count",
    "oracle.solve_numerov.s_per_iteration": "s",
    **{f"checks.run_suite.{suite}_s": "s" for suite in ("reduction", "hft", "nu", "oracle")},
    "checks.assertions": "count",
    "checks.failures": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def cap_threads() -> dict:
    """Cap BLAS/OpenMP threads at the usable CPU count; returns the caps set."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), nproc)) if current.isdigit() else str(nproc)
    # the built-in registry only: a user registry would change the outputs
    os.environ.pop("HYIQP_REGISTRY", None)
    return {var: os.environ[var] for var in THREAD_VARS}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def import_program():
    """Import hyiqp from this checkout's ``src``; refuse any other copy."""
    if not (SRC / "hyiqp" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'hyiqp'}")
    sys.path.insert(0, str(SRC))
    import hyiqp

    if Path(hyiqp.__file__).resolve().parent != (SRC / "hyiqp").resolve():
        raise SystemExit(f"error: imported hyiqp from {hyiqp.__file__}, not {SRC}")


def subprocess_seconds(argv, repeats: int) -> list[float]:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, check=True,
                       timeout=170)
        samples.append(time.perf_counter() - start)
    return samples


def setup_samples(args) -> list[float]:
    """Set-up time of fresh processes: interpreter, import, inputs, warm-up calls."""
    return subprocess_seconds([sys.executable, str(HERE / "run.py"), "--workload",
                               args.workload, "--seed", str(args.seed), "--setup-probe"],
                              SETUP_PROBES)


def closed_loop(workload, seconds: float):
    """Whole passes over the workload's inputs until the next one would end
    past ``seconds``, and at least MIN_PASSES.

    Returns the results, the reference times taken between calls, and each
    pass's mean call time over its mean reference time.
    """
    results, ref, costs = [], [], []
    start = time.perf_counter()
    while len(costs) < MIN_PASSES or (
            (time.perf_counter() - start) * (len(costs) + 1) / len(costs) <= seconds):
        calls, loops = [], []
        for call in workload.one_pass():
            calls.append(call())
            spent = 0.0
            while spent < REF_SHARE * calls[-1].seconds or not spent:
                loops.append(workload.reference())
                spent += loops[-1]
        results += calls
        ref += loops
        costs.append(statistics.fmean(r.seconds for r in calls) / statistics.fmean(loops))
    return results, ref, costs


def timed_run(workload, args):
    results, ref, costs = closed_loop(workload, args.seconds)
    peak = workload.peak_rss_mb()
    named, ref_err = workload.finish(results)
    probe = workload.probe() if hasattr(workload, "probe") else None
    setup = setup_samples(args)
    attempted = len(results)
    failed = sum(r.failed for r in results)
    timed = [r.seconds for r in results if r.timed]
    metrics = {
        "setup_s": stats.summary(setup, "s"),
        "call_cost": {**stats.summary(costs, "ref"), "calls": len(timed),
                      "ref_s": stats.summary(ref, "s")},
        "peak_rss_mb": {"value": peak, "unit": "MB", "count": 1},
        "ok_ratio": {"value": 1.0 - failed / attempted, "unit": "ratio",
                     "count": attempted},
        "ref_err": {"value": ref_err, "unit": "1", "count": 1},
    }
    named = {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"],
             "error_ratio": {"value": failed / attempted, "unit": "ratio",
                             "count": attempted}, **named}
    named["call_s"] = stats.summary(timed, "s")
    named["calls_per_s"] = {"value": len(timed) / sum(timed), "unit": "1/s",
                            "count": len(timed)}
    correct = math.isfinite(ref_err) and not any(r.problems for r in results)
    extra = {"named_metrics": named}
    if probe is not None:
        extra["known_defect"] = probe
    return results, metrics, extra, correct


def traced_run(workload, args):
    from spans import Tracer, layer_metrics

    # interleaved, so the import probes and cold calls share the machine's
    # slow and fast spells
    floor, imports, cold = [], [], {}
    for _ in range(IMPORT_PROBES):
        floor += subprocess_seconds([sys.executable, "-c", "pass"], 1)
        imports += subprocess_seconds([sys.executable, "-c", "import hyiqp"], 1)
        if hasattr(workload, "cold_seconds"):
            for kind, seconds in workload.cold_seconds().items():
                cold.setdefault(kind, []).append(seconds)
    cold = {kind: stats.median(samples) for kind, samples in cold.items()}
    tracer = Tracer()
    results, untraced, traced, ranges, main_s, probes = [], [], [], [], {}, []

    def one_pass():
        # the known defect is probed inside the pass, so its failure counts
        # in the layer metrics, but kept out of the results
        calls = [call() for call in workload.trace_pass()]
        if hasattr(workload, "probe"):
            probes.append(workload.probe())
        return calls

    start = time.perf_counter()
    while len(traced) < 2 or (time.perf_counter() - start < args.seconds
                              and len(traced) < MAX_TRACED_PASSES):
        begin = time.perf_counter()
        calls = one_pass()
        untraced.append(time.perf_counter() - begin)
        for r in calls:
            main_s.setdefault(r.kind, []).append(r.seconds)
        results += calls
        lo = len(tracer.spans)
        tracer.install()
        try:
            begin = time.perf_counter()
            results += one_pass()
            traced.append(time.perf_counter() - begin)
        finally:
            tracer.remove()
        ranges.append((lo, len(tracer.spans)))
    per_pass = [layer_metrics(tracer.spans, lo, hi) for lo, hi in ranges]
    layer = {name: stats.median([p[name] for p in per_pass]) for name in per_pass[0]}
    layer["import.python_floor_s"] = stats.median(floor)
    layer["import.hyiqp_s"] = stats.median(imports)
    for kind in CLI_KINDS:
        warm = stats.median(main_s[kind]) if kind in cold else 0.0
        layer[f"cli.main.{kind}_s"] = warm
        layer[f"cli.{kind}.accounted_share"] = (
            (layer["import.hyiqp_s"] + warm) / cold[kind] if kind in cold else 0.0)
    layer["trace.overhead_s"] = stats.median(traced) - stats.median(untraced)
    layer["trace.overhead_share"] = layer["trace.overhead_s"] / stats.median(untraced)
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(span_file)
    metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
    extra = {
        "traced_passes": len(traced),
        "pass_s": {"untraced": stats.summary(untraced, "s"),
                   "traced": stats.summary(traced, "s")},
        "cli_cold_s": cold,
        "absent": tracer.absent,
        "spans_file": str(span_file.relative_to(ROOT)),
    }
    if probes:
        extra["known_defect"] = probes[-1]
    correct = not any(r.problems for r in results)
    return results, metrics, extra, correct


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hyiqp").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(caps: dict) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "thread_caps": caps,
        "machine": platform.machine(),
    }


def run_one(args, caps) -> int:
    # imported here: numpy must start after cap_threads() and hyiqp after
    # import_program()
    import workloads

    start = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, child_env())
    workload.setup()
    setup_inprocess = time.perf_counter() - start
    if args.setup_probe:
        return 0
    run = traced_run if args.trace else timed_run
    results, metrics, extra, correct = run(workload, args)
    failures = [p for r in results for p in r.problems + [r.error] if p]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **environment(caps),
        "setup_inprocess_s": setup_inprocess,
        "metrics": metrics, **extra,
        "errors": sum(bool(r.error) for r in results),
        "failures": failures[:20],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": bool(correct), "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0


def run_all(args, caps) -> int:
    """The three workloads in turn, each in its own process."""
    records, correct, attempted, failed, metrics = {}, True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
        records[name] = record
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        if args.trace:
            for key, value in result["metrics"].items():
                metrics[f"{name}.{key}"] = value
            continue
        for key, value in record["named_metrics"].items():
            key = f"{name}.{key}" if key in PREFIXED else key
            metrics[key] = {"value": value["value"], "unit": value["unit"]}
    print(json.dumps({"record": {"workload": "all", "seed": args.seed,
                                 "environment": environment(caps), "runs": records}}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once in this process and exit (times setup_s)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    caps = cap_threads()
    if args.workload == "all":
        return run_all(args, caps)
    import_program()
    return run_one(args, caps)


if __name__ == "__main__":
    sys.exit(main())
