import contextlib
import dataclasses
import hashlib
import io
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyiqp.checks import ANCHOR, ANCHOR_CFG
from hyiqp.cli import EXIT_CHECK_FAILED, EXIT_DOMAIN, EXIT_LOOKUP, EXIT_OK, fmt, main
from hyiqp.constants import PHYSICAL, get_molecule
from hyiqp.potential import PotentialParams
from hyiqp.spectrum import energy


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_energy_collapsed_example(capsys):
    code, out, err = run(capsys, "energy", "--params", "0,0,0,0,0.5", "--mu", "1",
                         "--n", "0", "--l", "0", "--mode", "paper")
    assert code == EXIT_OK
    data_line = out.strip().splitlines()[-1]
    assert data_line.startswith("0,0,-0.125,")


def test_energy_molecule_matches_library_bit_for_bit(capsys):
    code, out, _ = run(capsys, "energy", "--molecule", "H2", "--n", "0", "--l", "0",
                       "--mode", "paper")
    assert code == EXIT_OK
    h2 = get_molecule("H2")
    from hyiqp.constants import PAPER

    res = energy(PotentialParams.from_molecule(h2), h2.mu, 0, 0, PAPER)
    cells = out.strip().splitlines()[-1].split(",")
    assert cells[2] == fmt(res.energy)
    assert cells[3] == fmt(res.gamma)


def test_energy_co_physical_regression_pin(capsys):
    # frozen from the first audited run; the value reproduces the
    # independent root solve of the quantization identity to every digit
    code, out, _ = run(capsys, "energy", "--molecule", "CO", "--n", "3", "--l", "2",
                       "--mode", "physical")
    assert code == EXIT_OK
    assert out.strip().splitlines()[-1].split(",")[2] == "2.52786215298"


def test_exit_code_unknown_molecule(capsys):
    code, out, err = run(capsys, "energy", "--molecule", "Xe2", "--n", "0", "--l", "0")
    assert code == EXIT_LOOKUP
    assert "unknown molecule" in err


def test_exit_code_domain_error(capsys):
    code, out, err = run(capsys, "energy", "--params", "0,0,0,0,-1", "--mu", "1",
                         "--n", "0", "--l", "0")
    assert code == EXIT_DOMAIN
    assert "alpha" in err


def test_conflicting_flags_rejected(capsys):
    code, _, err = run(capsys, "energy", "--molecule", "H2", "--mu", "2",
                       "--n", "0", "--l", "0")
    assert code == EXIT_DOMAIN and "--mu" in err
    code, _, err = run(capsys, "energy", "--params", "0,0,0,0,0.5", "--mu", "1",
                       "--v0", "3", "--n", "0", "--l", "0")
    assert code == EXIT_DOMAIN and "--v0" in err


def test_missing_table_notice_exits_zero(capsys):
    code, out, err = run(capsys, "table", "3")
    assert code == EXIT_OK
    assert "missing" in err
    assert "table: 3" in out


def test_table_10_contains_reference_fixture(capsys):
    code, out, _ = run(capsys, "table", "10")
    assert code == EXIT_OK
    first_data = out.strip().splitlines()[8]
    assert first_data.split(",")[0:2] == ["0", "0"]
    assert "-5.77750109574" in first_data


def test_byte_identical_reruns(capsys):
    _, out1, _ = run(capsys, "table", "14")
    _, out2, _ = run(capsys, "table", "14")
    assert out1 == out2
    _, out3, _ = run(capsys, "energy", "--molecule", "LiH", "--n", "1", "--l", "1")
    _, out4, _ = run(capsys, "energy", "--molecule", "LiH", "--n", "1", "--l", "1")
    assert out3 == out4


def test_figure2_column_labels(capsys):
    code, out, _ = run(capsys, "figure", "2", "--v0", "5")
    assert code == EXIT_OK
    header = [ln for ln in out.splitlines() if not ln.startswith("#")][0]
    assert header == "r,F,F1,F2,F3"


def test_figure5_emits_wavefunction_columns(capsys):
    code, out, _ = run(capsys, "figure", "5", "--points", "32")
    assert code == EXIT_OK
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "molecule,l,n,r,psi,density"
    assert lines[1].split(",")[0] == "H2"
    assert lines[1].split(",")[1] == "2"


def test_json_envelope(capsys):
    code, out, _ = run(capsys, "energy", "--molecule", "H2", "--n", "0", "--l", "0",
                       "--mode", "paper", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["meta"]["mode"] == "paper"
    assert doc["meta"]["constants"] == "codata2018"
    assert doc["meta"]["command"].startswith("hyiqp energy")
    assert doc["columns"][2] == "energy"
    assert len(doc["rows"]) == 1


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, "table", "17", "--output", str(target))
    assert code == EXIT_OK
    assert out == ""
    text = target.read_text()
    assert "paper_table" in text


def test_expect_report_with_fixture_column(capsys):
    code, out, _ = run(capsys, "expect", "--molecule", "H2", "--observable", "r-2",
                       "--n-max", "1", "--l-max", "1", "--mode", "paper")
    assert code == EXIT_OK
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0].split(",")[:4] == ["n", "l", "paper_formula", "machine_derivative"]
    # the (0,0) cell carries the reference fixture
    row00 = lines[1].split(",")
    assert row00[5] == "-2.03579269252"


def test_check_suite_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "reduction")
    assert code == EXIT_OK
    assert "ok   - energy-reduction-closure" in out
    assert "passed" in out


def test_check_failure_exits_one(capsys, monkeypatch):
    from hyiqp import checks

    def broken():
        return [checks.CheckResult(name="injected-failure", ok=False, detail="boom")]

    monkeypatch.setitem(checks.SUITES, "reduction", broken)
    code, out, _ = run(capsys, "check", "reduction")
    assert code == EXIT_CHECK_FAILED
    assert "FAIL - injected-failure" in out
    assert "FAILED: injected-failure" in out


def test_bound_condition_check_fails_when_every_state_is_flagged(monkeypatch):
    from hyiqp import checks

    real = checks.energy
    monkeypatch.setattr(checks, "energy", lambda *args: dataclasses.replace(
        real(*args), bound_condition_ok=False))
    result = {r.name: r for r in checks.check_nu()}["nu-bound-condition"]
    assert not result.ok


def test_quantization_residual_check_reports_fail(capsys, monkeypatch):
    from hyiqp import spectrum

    real = spectrum._lambda_pair

    def off_by_1e6(*args):
        lam, lam_n = real(*args)
        return lam + 1e-6, lam_n

    monkeypatch.setattr(spectrum, "_lambda_pair", off_by_1e6)
    code, out, _ = run(capsys, "check", "nu")
    assert code == EXIT_CHECK_FAILED
    assert "FAIL - nu-quantization-residual" in out


@pytest.mark.parametrize("name, change", [
    ("anchor-matrix-vs-numerov", lambda res: {"energy": res.energy * (1.0 + 1e-5)}),
    ("anchor-numerov-nodes", lambda res: {"node_count": 1}),
])
def test_numerov_checks_report_fail(capsys, monkeypatch, name, change):
    from hyiqp import checks

    real = checks.solve_numerov

    def broken(*args):
        res = real(*args)
        return dataclasses.replace(res, **change(res))

    monkeypatch.setattr(checks, "solve_numerov", broken)
    code, out, _ = run(capsys, "check", "oracle")
    assert code == EXIT_CHECK_FAILED
    failed = [ln.split(" (")[0] for ln in out.splitlines() if ln.startswith("FAIL - ")]
    assert failed == [f"FAIL - {name}"]


def test_numeric_hft_r_m2_check_reports_fail(capsys, monkeypatch):
    from hyiqp import checks

    real = checks.solve_matrix

    def broken(p, *args, **kwargs):
        # the +B levels raised by 3e-8 <r^-2> times the 2e-6 between the two
        # B values: dE/dB moves by 3e-8 of itself, which the check's 1e-8
        # catches and a tolerance of 1e-7 would not
        sol = real(p, *args, **kwargs)
        if p.b > 0.0:
            means = [checks.expectation_numeric(sol, k, "r_m2")
                     for k in range(len(sol.eigenvalues))]
            sol.eigenvalues = sol.eigenvalues + 3e-8 * 2e-6 * np.array(means)
        return sol

    monkeypatch.setattr(checks, "solve_matrix", broken)
    code, out, _ = run(capsys, "check", "oracle")
    assert code == EXIT_CHECK_FAILED
    failed = [ln for ln in out.splitlines() if ln.startswith("FAIL - ")]
    assert [ln.split(" (")[0] for ln in failed] == ["FAIL - numeric-hft-r_m2"]
    worst = float(failed[0].split("worst rel=")[1].split()[0])
    assert 1e-8 < worst <= 1e-7


def test_numeric_hft_kinetic_check_reports_fail(capsys, monkeypatch):
    from hyiqp import checks

    real = checks.solve_matrix

    def broken(p, l, mu, *args, **kwargs):
        # the +mu levels 1e-9 of themselves lower: dE/dmu moves by ~1e-4
        sol = real(p, l, mu, *args, **kwargs)
        if mu > checks.ANCHOR_MU:
            sol.eigenvalues = sol.eigenvalues * (1.0 - 1e-9)
        return sol

    monkeypatch.setattr(checks, "solve_matrix", broken)
    code, out, _ = run(capsys, "check", "oracle")
    assert code == EXIT_CHECK_FAILED
    failed = [ln.split(" (")[0] for ln in out.splitlines() if ln.startswith("FAIL - ")]
    assert failed == ["FAIL - numeric-hft-kinetic"]


def _scaled(factor):
    def change(sol):
        sol.eigenvalues = sol.eigenvalues * factor
    return change


def _emptied_diagnostics(sol):
    sol.diagnostics = []


def _reversed_node_counts(sol):
    sol.node_counts = sol.node_counts[::-1]


@pytest.mark.parametrize("name, solve, change", [
    # the +A anchor levels 1e-9 of themselves higher: dE/dA moves by ~1e-3
    pytest.param("numeric-hft-independence", lambda p, cfg: p.v0 == 2.0 and p.a > 0.0,
                 _scaled(1.0 - 1e-9), id="numeric-hft-independence"),
    # the box levels 1e-5 of themselves high; the grid puts them 4.9e-8 off
    pytest.param("box-calibration", lambda p, cfg: p.alpha == 1.0, _scaled(1.0 + 1e-5),
                 id="box-calibration"),
    # the weak-screening level 5e-3 of itself lower; screening puts it 2e-4 high
    pytest.param("hydrogenic-limit", lambda p, cfg: p.alpha == 1e-4, _scaled(1.0 + 5e-3),
                 id="hydrogenic-limit"),
    # the finest of the three grids 1e-6 of itself lower: the last of the
    # two level differences grows from 7.2e-4 to 9.2e-4, the order reads 1.65
    pytest.param("grid-convergence-order", lambda p, cfg: cfg.n_points == 10000,
                 _scaled(1.0 + 1e-6), id="grid-convergence-order"),
    # the anchor's three levels reported with their node counts reversed
    pytest.param("anchor-node-counts", lambda p, cfg: p == ANCHOR and cfg == ANCHOR_CFG,
                 _reversed_node_counts, id="anchor-node-counts"),
    # the empty H2 spectrum without the diagnostic that explains it
    pytest.param("unbound-molecule-diagnostic", lambda p, cfg: p.c == get_molecule("H2").c,
                 _emptied_diagnostics, id="unbound-molecule-diagnostic"),
])
def test_tightened_oracle_checks_report_fail(capsys, monkeypatch, name, solve, change):
    from hyiqp import checks

    real = checks.solve_matrix

    def broken(p, l, mu, cfg, *args, **kwargs):
        sol = real(p, l, mu, cfg, *args, **kwargs)
        if solve(p, cfg):
            change(sol)
        return sol

    monkeypatch.setattr(checks, "solve_matrix", broken)
    code, out, _ = run(capsys, "check", "oracle")
    assert code == EXIT_CHECK_FAILED
    failed = [ln.split(" (")[0] for ln in out.splitlines() if ln.startswith("FAIL - ")]
    assert failed == [f"FAIL - {name}"]


def test_anchor_analytic_check_reports_fail(capsys, monkeypatch):
    from hyiqp import checks

    real = checks.energy_hulthen
    # the exact anchor levels 2e-4 of themselves low, twice the tolerance;
    # the Numerov bracket, halfway to the neighbouring levels, still holds one
    monkeypatch.setattr(checks, "energy_hulthen", lambda *args: real(*args) * (1.0 + 2e-4))
    code, out, _ = run(capsys, "check", "oracle")
    assert code == EXIT_CHECK_FAILED
    failed = [ln.split(" (")[0] for ln in out.splitlines() if ln.startswith("FAIL - ")]
    assert failed == ["FAIL - anchor-analytic-vs-matrix"]


def test_anchor_kinetic_check_reports_fail(capsys, monkeypatch):
    from hyiqp import checks

    real = checks.d_energy_d_param

    def broken(*args):
        # the closed-form dE/dmu 1e-3 of itself high, ten times the tolerance
        d = real(*args)
        return dataclasses.replace(d, analytic=d.analytic * (1.0 + 1e-3))

    monkeypatch.setattr(checks, "d_energy_d_param", broken)
    code, out, _ = run(capsys, "check", "oracle")
    assert code == EXIT_CHECK_FAILED
    failed = [ln.split(" (")[0] for ln in out.splitlines() if ln.startswith("FAIL - ")]
    assert failed == ["FAIL - anchor-kinetic-vs-closed-form"]


def test_hft_derivative_agreement_check_reports_fail(capsys, monkeypatch):
    from hyiqp import hft

    real = hft._complex_step_derivative
    monkeypatch.setattr(hft, "_complex_step_derivative",
                        lambda *args: real(*args) * (1.0 + 1e-10))
    code, out, _ = run(capsys, "check", "hft")
    assert code == EXIT_CHECK_FAILED
    failed = [ln.split(" (")[0] for ln in out.splitlines() if ln.startswith("FAIL - ")]
    assert failed == ["FAIL - hft-derivative-agreement"]


def _collapsed_level_one_ulp_up(real):
    def broken(p, *args):
        res = real(p, *args)
        if p == PotentialParams(0.0, 0.0, 0.0, 0.0, 0.5):
            res = dataclasses.replace(res, energy=math.nextafter(res.energy, 0.0))
        return res
    return broken


@pytest.mark.parametrize("name, attr, wrap", [
    # each named-limit curve one ulp high; the limits are exact
    pytest.param("potential-limit-hulthen", "hulthen",
                 lambda real: lambda *args: np.nextafter(real(*args), np.inf),
                 id="potential-limit-hulthen"),
    pytest.param("potential-limit-yukawa", "yukawa",
                 lambda real: lambda *args: np.nextafter(real(*args), np.inf),
                 id="potential-limit-yukawa"),
    pytest.param("potential-limit-inverse-quadratic", "inverse_quadratic",
                 lambda real: lambda *args: np.nextafter(real(*args), np.inf),
                 id="potential-limit-inverse-quadratic"),
    # the inverse-quadratic closed form 1e-11 of itself high, ten times the tolerance
    pytest.param("energy-reduction-closure", "energy_iqp",
                 lambda real: lambda *args: real(*args) * (1.0 + 1e-11),
                 id="energy-reduction-closure"),
    # the collapsed ground state one ulp above -1/8; the check is exact
    pytest.param("collapsed-energy", "energy", _collapsed_level_one_ulp_up,
                 id="collapsed-energy"),
])
def test_reduction_checks_report_fail(capsys, monkeypatch, name, attr, wrap):
    from hyiqp import checks

    monkeypatch.setattr(checks, attr, wrap(getattr(checks, attr)))
    code, out, _ = run(capsys, "check", "reduction")
    assert code == EXIT_CHECK_FAILED
    failed = [ln.split(" (")[0] for ln in out.splitlines() if ln.startswith("FAIL - ")]
    assert failed == [f"FAIL - {name}"]


def test_orthodox_node_count_check_reports_fail(capsys, monkeypatch):
    from hyiqp import checks

    real = checks.wavefunction

    def broken(r, *args, convention, **kwargs):
        # the node check's orthodox states sampled in the literal convention,
        # whose H2 l = 0 states carry 0, 1, 0, 1, 0 sign changes; the
        # normalization re-check samples on a 2-d grid and is left alone
        if convention == "orthodox" and np.ndim(r) == 1:
            convention = "literal"
        return real(r, *args, convention=convention, **kwargs)

    monkeypatch.setattr(checks, "wavefunction", broken)
    code, out, _ = run(capsys, "check", "nu")
    assert code == EXIT_CHECK_FAILED
    failed = [ln.split(" (")[0] for ln in out.splitlines() if ln.startswith("FAIL - ")]
    assert failed == ["FAIL - orthodox-node-counts"]


def test_normalization_check_reports_fail(capsys, monkeypatch):
    from hyiqp import checks

    real = checks.normalization_constant
    monkeypatch.setattr(checks, "normalization_constant",
                        lambda *args: real(*args) * (1.0 + 1e-5))
    code, out, _ = run(capsys, "check", "nu")
    assert code == EXIT_CHECK_FAILED
    failed = [ln.split(" (")[0] for ln in out.splitlines() if ln.startswith("FAIL - ")]
    assert failed == ["FAIL - wavefunction-normalization"]


def test_molecules_listing_and_env_registry(tmp_path, capsys, monkeypatch):
    extra = tmp_path / "reg.csv"
    extra.write_text("name,A,B,C,alpha,mu\nXY,1.0,2.0,3.0,0.5,1.25\n")
    monkeypatch.setenv("HYIQP_REGISTRY", str(extra))
    code, out, _ = run(capsys, "molecules")
    assert code == EXIT_OK
    names = [ln.split(",")[0] for ln in out.splitlines() if not ln.startswith("#")][1:]
    assert names == ["CO", "H2", "HCl", "LiH", "XY"]
    code, out, _ = run(capsys, "energy", "--molecule", "xy", "--n", "0", "--l", "0",
                       "--mode", "paper")
    assert code == EXIT_OK


@pytest.mark.parametrize("argv, message", [
    pytest.param(("energy", "--params", "1,1,1,1,nan", "--mu", "1", "--n", "0", "--l", "0"),
                 "finite", id="params-nan"),
    pytest.param(("energy", "--params", "1,1,1,1,inf", "--mu", "1", "--n", "0", "--l", "0"),
                 "finite", id="params-inf"),
    pytest.param(("energy", "--params", "1,1,1,1,1", "--mu", "nan", "--n", "0", "--l", "0"),
                 "finite", id="mu-nan"),
    pytest.param(("expect", "--molecule", "H2", "--observable", "r-1", "--v0", "nan"),
                 "finite", id="expect-v0-nan"),
    # exp(alpha r*) overflows; alpha^2 underflows to 0 under a division
    pytest.param(("expect", "--molecule", "H2", "--observable", "r-1",
                  "--exp-factor-r", "1e5"), "double range", id="exp-factor-r-overflow"),
    pytest.param(("energy", "--params", "1,1,1,1,1e-300", "--mu", "1", "--n", "0", "--l", "0"),
                 "double range", id="alpha-underflow"),
    pytest.param(("expect", "--molecule", "H2", "--observable", "r-1", "--n-max", "-1"),
                 "n_max", id="negative-n-max"),
    # finite input whose results leave double range without raising: hbar^2/2mu
    # of a subnormal mass is inf, and a 5.89e300 well overflows <p^2>
    pytest.param(("energy", "--params", "1,1,1,1,1", "--mu", "1e-320", "--n", "0", "--l", "0"),
                 "double range", id="subnormal-mu"),
    pytest.param(("expect", "--molecule", "CO", "--observable", "p2", "--v0", "5.89e300",
                  "--n-max", "0", "--l-max", "0", "--mode", "paper"),
                 "double range", id="expect-v0-overflow"),
    # a well so deep that the Gauss-Jacobi nodes, weights and polynomial, or
    # the potential's curves, leave double range: one error line, no warnings
    pytest.param(("figure", "3", "--v0=1e30", "--points", "16", "--n", "1"),
                 "Gauss-Jacobi mean", id="figure-nodes-overflow"),
    pytest.param(("figure", "2", "--v0=1e308", "--points", "16"),
                 "double range", id="figure-potential-overflow"),
])
def test_non_finite_or_extreme_input_exits_with_a_domain_error(capsys, argv, message):
    try:
        code = main(list(argv))
    except SystemExit as exc:      # argparse rejects an option's value
        code = exc.code
    captured = capsys.readouterr()
    assert code == EXIT_DOMAIN
    assert captured.out == ""
    assert "error: " in captured.err.splitlines()[-1]
    assert message in captured.err


def test_a_potential_figure_cell_out_of_double_range_is_named_as_a_float(capsys):
    # the potential curves reach the formatter as Python floats, not numpy scalars
    code, out, err = run(capsys, "figure", "2", "--v0=1e308", "--points", "16")
    assert code == EXIT_DOMAIN
    assert err == "error: the input leaves double range (a result is -inf)\n"


def test_registry_row_with_nan_exits_with_a_domain_error(tmp_path, capsys, monkeypatch):
    extra = tmp_path / "reg.csv"
    extra.write_text("name,A,B,C,alpha,mu\nXY,1.0,2.0,3.0,nan,1.25\n")
    monkeypatch.setenv("HYIQP_REGISTRY", str(extra))
    code, out, err = run(capsys, "molecules")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error: ") and "non-finite" in err


_NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_INDEX = st.integers(-1, 13).map(str)
_MOLECULE = st.sampled_from(("H2", "LiH", "HCl", "CO"))


@st.composite
def _argvs(draw):
    """argvs of energy, expect without --oracle, table --v0 and the figures.

    Numbers span the whole finite double range and go in as --option=value,
    so that argparse reads a negative or exponent-form value as a value.
    """
    command = draw(st.sampled_from(("energy-params", "energy", "expect", "table", "figure")))
    if command == "energy-params":
        values = ",".join(draw(_NUMBER) for _ in range(5))
        argv = ["energy", f"--params={values}", f"--mu={draw(_NUMBER)}",
                "--n", draw(_INDEX), "--l", draw(_INDEX)]
    elif command == "energy":
        argv = ["energy", "--molecule", draw(_MOLECULE), f"--v0={draw(_NUMBER)}",
                "--n", draw(_INDEX), "--l", draw(_INDEX)]
    elif command == "expect":
        argv = ["expect", "--molecule", draw(_MOLECULE),
                "--observable", draw(st.sampled_from(("r-2", "r-1", "T", "p2"))),
                f"--v0={draw(_NUMBER)}", "--n-max", str(draw(st.integers(0, 3))),
                "--l-max", str(draw(st.integers(0, 3)))]
        if draw(st.booleans()):
            argv.append(f"--exp-factor-r={draw(_NUMBER)}")
    elif command == "table":
        table = draw(st.sampled_from(["2", "2b"] + [str(i) for i in range(3, 18)]))
        argv = ["table", table, f"--v0={draw(_NUMBER)}"]
    else:
        figure = draw(st.integers(1, 9))
        argv = ["figure", str(figure), f"--v0={draw(_NUMBER)}", "--points", "16"]
        if figure >= 3:
            argv += ["--n", str(draw(st.integers(0, 3))), "--convention",
                     draw(st.sampled_from(("literal", "weight", "orthodox")))]
    return argv + ["--mode", draw(st.sampled_from(("paper", "physical")))]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=_argvs())
def test_every_exit_keeps_the_exit_code_contract(argv):
    # numpy's RuntimeWarnings do not raise in the installed script, they are
    # printed; here they are recorded, and there must be none, so that a
    # domain error prints only its one error line
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:      # argparse rejects an option's value
            code = exc.code
    assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_LOOKUP), err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
        [str(w.message) for w in caught]
    if code == EXIT_OK:
        for line in out.getvalue().splitlines():
            if line.startswith("#"):
                continue
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), (cell, line)
    else:
        assert out.getvalue() == ""
        assert sum("error: " in line for line in err.getvalue().splitlines()) == 1
        assert "Traceback" not in err.getvalue()


def test_fmt_12_significant_digits():
    assert fmt(2.527862152980123) == "2.52786215298"
    assert fmt(None) == ""
    assert fmt(True) == "true"
    assert fmt(-0.125) == "-0.125"


TABLE_IDS = ["2", "2b"] + [str(i) for i in range(3, 18)]


# scipy.linalg._flapack is loaded on its own, so these names match exactly
ORACLE_SKIPS = ("scipy.linalg", "scipy.special", "numpy.f2py")


@pytest.mark.parametrize("argvs, trees, names", [
    pytest.param([], ("numpy", "scipy"), (), id="import-hyiqp"),
    pytest.param([["energy", "--molecule", "CO", "--n", "3", "--l", "2"]],
                 ("numpy", "scipy"), (), id="energy"),
    pytest.param([["table", t] for t in TABLE_IDS], ("numpy", "scipy"), (), id="table"),
    pytest.param([["expect", "--molecule", "HCl", "--observable", "T"]],
                 ("numpy", "scipy"), (), id="expect"),
    pytest.param([["molecules"]], ("numpy", "scipy"), (), id="molecules"),
    pytest.param([["figure", "9"]], ("scipy",), (), id="figure-9"),
    pytest.param([["check", "all"]], ("scipy.integrate",), (), id="check-all"),
    pytest.param([["expect", "--molecule", "HCl", "--observable", "T", "--mode", "paper",
                   "--v0", "4.0", "--oracle"]], ("scipy.integrate",), ORACLE_SKIPS,
                 id="expect-oracle"),
    pytest.param([["check", "oracle"]], ("scipy.integrate",), ORACLE_SKIPS,
                 id="check-oracle"),
])
def test_cold_commands_import_only_the_numpy_and_scipy_they_use(argvs, trees, names):
    # an import costs a cold CLI call more than the physics it serves: the
    # closed form is scalar math and needs neither numpy nor scipy, the
    # figures' ground states are normalized without Gauss-Jacobi nodes, the
    # normalization re-check integrates with numpy's Gauss-Legendre rule, and
    # the grid oracle loads scipy's LAPACK extension without scipy.linalg;
    # trees forbid a package and its submodules, names only those modules
    src = Path(__file__).resolve().parents[1] / "src"
    prefixes = tuple(name + "." for name in trees)
    script = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import hyiqp\n"
        "import hyiqp.cli\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert hyiqp.cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules\n"
        f"             if m in {names!r} or (m + '.').startswith({prefixes!r})))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    # the grid-oracle names are resolved lazily, on first access
    import hyiqp
    from hyiqp import oracle

    namespace = {}
    exec("from hyiqp import *", namespace)
    for name in hyiqp.__all__:
        assert namespace[name] is getattr(hyiqp, name)
    for name in hyiqp._ORACLE_NAMES:
        assert name in hyiqp.__all__
        assert namespace[name] is getattr(oracle, name)
    with pytest.raises(AttributeError, match="no attribute 'solve_schroedinger'"):
        hyiqp.solve_schroedinger


# SHA-256 of stdout (numpy 2.4.6, scipy 1.17.1).  The two bound expect
# --oracle pins and check all were re-recorded when the oracle's means became
# discrete Hellmann-Feynman means: every oracle cell that moved now equals the
# derivative of its own grid level to the central difference's 7e-10, and
# moved by less than its grid-step error; check all traded numeric-positivity
# for anchor-kinetic-vs-closed-form and tightened three tolerances.  The HCl T
# pin was re-recorded again when the oracle's <T> took in the centrifugal mean
# at l >= 1, and check all when numeric-hft-r_m2 went to a 1e-6 step and 1e-8.
# The figure, molecules, table, energy and default expect pins hold the bytes
# of the commands whose defaults live in the library (window, grid, points,
# constants, well depth, report grid, wave-function state).  figure 2 at the
# default V0 prints its zero Hulthen curve as 0, not -0.
PINNED_STDOUT = [
    pytest.param(("expect", "--molecule", "H2", "--observable", "r-2", "--mode", "paper",
                  "--v0", "4.0", "--oracle"),
                 "32af1a727fd7427ad364bbd5a4e56d8f74b7dbeac50d083883efc1ff8caa2fdc",
                 id="expect-H2-paper-v0-4"),
    pytest.param(("expect", "--molecule", "H2", "--observable", "T", "--oracle"),
                 "2e30cb091980f71c1ec6b0c8b7fba5c16bc9276a9b690648873b78eacd04f857",
                 id="expect-H2-physical-unbound"),
    pytest.param(("expect", "--molecule", "HCl", "--observable", "T", "--mode", "paper",
                  "--v0", "4.0", "--oracle"),
                 "62502a21b3575eb780685f1acee6faf9f29a9826020659d9c24ab7777a0864c5",
                 id="expect-HCl-paper-v0-4"),
    pytest.param(("check", "all"),
                 "31a4227a35c409e9c05e1e678456b00aa443baeabe9ee153ccf265c98b77d0a7",
                 id="check-all"),
    pytest.param(("figure", "1"),
                 "d11e16c645004f818a8152040688181ac37d56786e8f20f2e815bc0fc99685f1",
                 id="figure-1"),
    pytest.param(("figure", "2", "--v0", "5"),
                 "25a6c102df4a70df382e4cb692ac91c548ff547b0df0a76684ee8f128ac76659",
                 id="figure-2-v0-5"),
    pytest.param(("figure", "9", "--convention", "weight"),
                 "c2b0e5e828b52221fcae830e3e5fe2a3f1193fd1041b535feeeb2d4bc6fbc57c",
                 id="figure-9-weight"),
    pytest.param(("molecules",),
                 "f78d95c135a51fa754f63e59bb90fca0e221a8fb849a14f6abf53eb49eae21a9",
                 id="molecules"),
    pytest.param(("table", "10", "--mode", "physical", "--v0", "4"),
                 "dde431c99552e7085617cecb34c96ac206ad1f8d75f98bec384687a16152723d",
                 id="table-10-physical-v0-4"),
    pytest.param(("energy", "--molecule", "CO", "--n", "3", "--l", "2"),
                 "fe3b66c29088209ffaccb598ca65cb1dfbb1089583d05f9b2afbc170580987d3",
                 id="energy-CO-n3-l2"),
    pytest.param(("figure", "2"),
                 "fcbd89cf49083c8b039e01f722f045d9ebf237eb7e27761fb3fe3f545b87aacf",
                 id="figure-2"),
    pytest.param(("figure", "6"),
                 "292466757fcff44d4e0e8fb9860f46c797c024327d7ac4b2058d169ef1dc9973",
                 id="figure-6"),
    pytest.param(("expect", "--molecule", "HCl", "--observable", "T"),
                 "95a3cdec951db04bf85e4c707232299a88b198e52fa55cd630ff15f015711839",
                 id="expect-HCl-T-defaults"),
    pytest.param(("table", "10"),
                 "63996b3354f32bfe14401ef68b4e6e07bec7f3b6c69ed9b15430b708fc42f649",
                 id="table-10"),
]


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT)
def test_oracle_stdout_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest
