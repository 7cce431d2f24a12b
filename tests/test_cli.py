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


def test_energy_imports_no_scipy_submodules():
    # scipy.integrate alone costs most of a cold CLI call; the closed-form
    # commands must not import it, nor scipy.special or scipy.linalg
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import hyiqp.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = hyiqp.cli.main(['energy', '--molecule', 'CO', '--n', '3', '--l', '2'])\n"
        "assert code == 0\n"
        "print(sorted(m for m in ('scipy.integrate', 'scipy.special', 'scipy.linalg')"
        " if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# SHA-256 of stdout recorded before solve_matrix screened out unbound
# spectra (numpy 2.4.6, scipy 1.17.1); the screen must not move a byte
PINNED_STDOUT = [
    pytest.param(("expect", "--molecule", "H2", "--observable", "r-2", "--mode", "paper",
                  "--v0", "4.0", "--oracle"),
                 "3c277e170712ed6f995abfd6ae5a0cd88d948581d2f2d42f1c07610bbcb08284",
                 id="expect-H2-paper-v0-4"),
    pytest.param(("expect", "--molecule", "H2", "--observable", "T", "--oracle"),
                 "2f50fdc8302aedfc3b03c82a85e7e1a2e2b32162beccc02c864c9ad08de32c30",
                 id="expect-H2-physical-unbound"),
    pytest.param(("expect", "--molecule", "HCl", "--observable", "T", "--mode", "paper",
                  "--v0", "4.0", "--oracle"),
                 "a1c94eb1dd4080e605969749ec439e083808e18d16830d6c2e377d32a6958642",
                 id="expect-HCl-paper-v0-4"),
    pytest.param(("check", "all"),
                 "676a59bdb5cefaa87f5bbdfe95b9fbf8a6176cbc5ab56bc6b446abc890e81b6b",
                 id="check-all"),
]


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT)
def test_oracle_stdout_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest
