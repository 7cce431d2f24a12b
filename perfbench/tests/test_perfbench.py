"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

They are kept apart from the program's own test suite: two of them run
the benchmark end to end, which takes a minute or two.
"""

import contextlib
import io
import json
import subprocess
import sys

import pytest

import inputs
import outputs
import run
import spans
import workloads

NAMED_METRICS = {
    "cli_cold": ("cli_energy_s", "cli_table_s", "cli_figure9_s", "cli_expect_oracle_s",
                 "cli_check_all_s"),
    "closed_form_sweep": ("closed_form_states_per_s", "closed_form_norm_err"),
    "grid_oracle": ("oracle_anchor_s", "oracle_anchor_err", "oracle_dual_gap",
                    "oracle_spectrum_s"),
}
PER_WORKLOAD = run.PREFIXED


def bench(*args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=run.ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def cli_stdout(argv):
    from hyiqp import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(inputs.GENERATORS))
def test_same_seed_same_inputs(name):
    generate = inputs.GENERATORS[name]
    assert generate(11) == generate(11)


@pytest.mark.parametrize("name", sorted(inputs.GENERATORS))
def test_different_seeds_different_inputs(name):
    generate = inputs.GENERATORS[name]
    assert generate(11) != generate(12)


def test_known_defect_is_probed_outside_the_timed_states():
    for seed in range(3):
        assert inputs.KNOWN_DEFECT not in inputs.sweep_inputs(seed)["states"]
    probe = workloads.ClosedFormSweep(run.ROOT, 0, {}).probe()
    assert "ConvergenceError" in probe["error"]


def test_benchmark_json_names_what_the_harness_emits():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_one_command_emits_every_end_to_end_metric_with_a_unit():
    record, result = bench("--workload", "all", "--seed", "5", "--seconds", "0")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert "ConvergenceError" in record["runs"]["closed_form_sweep"]["known_defect"]["error"]
    expected = {f"{w}.{m}" for w in run.WORKLOAD_NAMES for m in PER_WORKLOAD}
    expected |= {m for names in NAMED_METRICS.values() for m in names}
    assert expected <= set(result["metrics"])
    for name, run_record in record["runs"].items():
        assert set(run_record["metrics"]) == set(run.END_TO_END)
        assert all(m["unit"] for m in run_record["metrics"].values())
    assert all(m["unit"] and isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric_with_a_unit():
    record, result = bench("--workload", "grid_oracle", "--seed", "5", "--seconds", "0",
                           "--trace", "1")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    assert result["metrics"]["oracle.solve_numerov.calls"]["value"] == 3
    assert record["absent"] == []


def test_clean_cli_output_passes():
    argv = outputs.EXACT_ENERGY_ARGV
    text = cli_stdout(argv)
    reference = outputs.cli_reference("energy", argv)
    assert outputs.check_cli_run("energy", argv, 0, text, reference, text) == []


def test_any_changed_byte_is_a_failure():
    argv = outputs.EXACT_ENERGY_ARGV
    text = cli_stdout(argv)
    reference = outputs.cli_reference("energy", argv)
    for i, char in enumerate(text):
        corrupted = text[:i] + ("0" if char != "0" else "1") + text[i + 1:]
        assert outputs.check_cli_run("energy", argv, 0, corrupted, reference, text), i


def test_changed_digit_disagrees_with_the_library():
    argv = ["table", "17"]
    text = cli_stdout(argv)
    reference = outputs.cli_reference("table", argv)
    lines = text.splitlines(keepends=True)
    row = next(i for i, ln in enumerate(lines) if ln.startswith("0,0,"))
    cells = lines[row].split(",")
    value = cells[2]                          # paper_formula; index 1 is a leading digit
    cells[2] = value[0] + ("9" if value[1] != "9" else "8") + value[2:]
    lines[row] = ",".join(cells)
    problems = outputs.check_cli_run("table", argv, 0, "".join(lines), reference)
    assert any("paper_formula" in p for p in problems)


def test_exact_level_must_print_as_minus_one_eighth():
    argv = outputs.EXACT_ENERGY_ARGV
    text = cli_stdout(argv).replace("-0.125", "-0.1250000000001")
    reference = outputs.cli_reference("energy", argv)
    assert any("exact level" in p for p in outputs.check_cli_run("energy", argv, 0, text,
                                                                   reference))


def test_check_output_must_pass_every_assertion():
    ok = "ok   - anchor-analytic-vs-matrix (rel=8.33e-06 (tol 1e-4))\npassed 1 assertions\n"
    assert outputs.check_cli_run("check_all", ["check", "all"], 0, ok, None) == []
    assert outputs.anchor_error_from_check(ok) == 8.33e-06
    bad = "FAIL - x\nok   - anchor-analytic-vs-matrix (rel=1e-3)\npassed 2 assertions\n"
    assert outputs.check_cli_run("check_all", ["check", "all"], 0, bad, None)
    assert outputs.check_cli_run("check_all", ["check", "all"], 1, ok, None)


def test_norm_reference_agrees_with_the_program():
    from hyiqp import PAPER, PotentialParams, get_molecule

    mol = get_molecule("CO")
    p = PotentialParams.from_molecule(mol)
    assert outputs.norm_error(p, mol.mu, 3, 1, PAPER, "orthodox") < 1e-9


def test_tracer_wraps_every_binding_and_restores_it():
    import hyiqp
    from hyiqp import PAPER, checks, oracle

    original = oracle.solve_matrix
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert checks.solve_matrix is oracle.solve_matrix is hyiqp.solve_matrix
        assert checks.solve_matrix is not original
        checks.SUITES["reduction"](PAPER)
    finally:
        tracer.remove()
    assert checks.solve_matrix is original and oracle.solve_matrix is original
    names = {s[0] for s in tracer.spans}
    assert {"checks.suite.reduction", "spectrum.energy"} <= names
    own = spans.self_times(tracer.spans, 0, len(tracer.spans))
    assert all(t >= -1e-9 for t in own)


def test_self_time_excludes_children():
    fake = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None], ["c", 2.0, 3.0, 1, None]]
    assert spans.self_times(fake, 0, 3) == [7.0, 2.0, 1.0]
