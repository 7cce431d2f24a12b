import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

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

    def broken(constants=None):
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
        # the +B levels 1e-9 of themselves higher: dE/dB moves by ~1e-5
        sol = real(p, *args, **kwargs)
        if p.b > 0.0:
            sol.eigenvalues = sol.eigenvalues * (1.0 - 1e-9)
        return sol

    monkeypatch.setattr(checks, "solve_matrix", broken)
    code, out, _ = run(capsys, "check", "oracle")
    assert code == EXIT_CHECK_FAILED
    failed = [ln.split(" (")[0] for ln in out.splitlines() if ln.startswith("FAIL - ")]
    assert failed == ["FAIL - numeric-hft-r_m2"]


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


def test_hft_derivative_agreement_check_reports_fail(capsys, monkeypatch):
    from hyiqp import hft

    real = hft._complex_step_derivative
    monkeypatch.setattr(hft, "_complex_step_derivative",
                        lambda *args: real(*args) * (1.0 + 1e-10))
    code, out, _ = run(capsys, "check", "hft")
    assert code == EXIT_CHECK_FAILED
    failed = [ln.split(" (")[0] for ln in out.splitlines() if ln.startswith("FAIL - ")]
    assert failed == ["FAIL - hft-derivative-agreement"]


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


def test_fmt_12_significant_digits():
    assert fmt(2.527862152980123) == "2.52786215298"
    assert fmt(None) == ""
    assert fmt(True) == "true"
    assert fmt(-0.125) == "-0.125"


@pytest.mark.parametrize("argv, forbidden", [
    pytest.param(["energy", "--molecule", "CO", "--n", "3", "--l", "2"],
                 ("scipy.integrate", "scipy.special", "scipy.linalg"), id="energy"),
    pytest.param(["figure", "9"], ("scipy",), id="figure-9"),
    pytest.param(["check", "all"], ("scipy.integrate",), id="check-all"),
])
def test_cold_commands_import_only_the_scipy_they_use(argv, forbidden):
    # a scipy subpackage costs a cold CLI call more than the physics it
    # serves: the closed form needs none, the figures' ground states are
    # normalized without Gauss-Jacobi nodes, and the normalization re-check
    # integrates with numpy's Gauss-Legendre rule
    src = Path(__file__).resolve().parents[1] / "src"
    prefixes = tuple(name + "." for name in forbidden)
    script = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import hyiqp.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = hyiqp.cli.main({argv!r})\n"
        "assert code == 0\n"
        f"print(sorted(m for m in sys.modules if (m + '.').startswith({prefixes!r})))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# SHA-256 of stdout (numpy 2.4.6, scipy 1.17.1).  All four were re-recorded
# when the machine derivative became a complex step: every machine_derivative
# cell that moved went closer to a 40-digit mpmath derivative, and check all
# traded three definitional HFT checks for numeric-hft-kinetic
PINNED_STDOUT = [
    pytest.param(("expect", "--molecule", "H2", "--observable", "r-2", "--mode", "paper",
                  "--v0", "4.0", "--oracle"),
                 "69410b96edbd315f3ec6abe9e3bdd82de517097b220a6ff0f21e77c508cea1da",
                 id="expect-H2-paper-v0-4"),
    pytest.param(("expect", "--molecule", "H2", "--observable", "T", "--oracle"),
                 "2e30cb091980f71c1ec6b0c8b7fba5c16bc9276a9b690648873b78eacd04f857",
                 id="expect-H2-physical-unbound"),
    pytest.param(("expect", "--molecule", "HCl", "--observable", "T", "--mode", "paper",
                  "--v0", "4.0", "--oracle"),
                 "afaf700f550afe3205cfa129a3d81bf5a0b6d053c467942d8fb39d1b8d338319",
                 id="expect-HCl-paper-v0-4"),
    pytest.param(("check", "all"),
                 "1490006c7d56babb680fb1ccec52d26fe7200416ac1c09f238971d2f054c606c",
                 id="check-all"),
]


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT)
def test_oracle_stdout_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest
