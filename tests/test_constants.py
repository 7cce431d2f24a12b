import math
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyiqp.constants import (PAPER, PHYSICAL, BUILTIN_MOLECULES, Molecule,
                             PhysicalConstants, for_mode, get_molecule,
                             hbar2_over_2mu, parse_registry, registry)
from hyiqp.errors import DomainError, UnknownMoleculeError

# canonical tabulated constants (name, A, B, C, alpha, mu)
TABLE_ROWS = {
    "H2": (0.7416, 1.9426, 1.440558, 0.20990, 0.5039100),
    "LiH": (1.5956, 1.1280, 1.7998368, 1.55000, 0.8801221),
    "HCl": (1.2746, 1.8677, 2.38057, 0.20039, 0.9801045),
    "CO": (1.1283, 2.2994, 2.59441, 0.39000, 6.8606719),
}


def test_builtin_molecules_match_reference_rows():
    assert set(BUILTIN_MOLECULES) == {"h2", "lih", "hcl", "co"}
    for name, (a, b, c, alpha, mu) in TABLE_ROWS.items():
        mol = get_molecule(name)
        assert (mol.a, mol.b, mol.c, mol.alpha, mol.mu) == (a, b, c, alpha, mu)
        assert mol.name == name


@pytest.mark.parametrize("alias", ["h2", "H2", "hCl", "co", "LIH"])
def test_case_insensitive_lookup(alias):
    assert get_molecule(alias).name in TABLE_ROWS


def test_unknown_molecule_lists_registry():
    with pytest.raises(UnknownMoleculeError) as err:
        get_molecule("Xe2")
    msg = str(err.value)
    for name in TABLE_ROWS:
        assert name in msg


def test_hbar2_over_2mu_paper_mode():
    # hbar = 1 and the bare mass: 1/(2 * 0.5) = 1
    assert hbar2_over_2mu(0.5, PAPER) == 1.0


@pytest.mark.parametrize("mu,expected", [
    # independent scalar arithmetic from the CODATA numbers
    (0.5039100, 1973.269804**2 / (2 * 0.5039100 * 931.49410242e6)),
    (6.8606719, 1973.269804**2 / (2 * 6.8606719 * 931.49410242e6)),
])
def test_hbar2_over_2mu_physical_mode(mu, expected):
    assert hbar2_over_2mu(mu, PHYSICAL) == pytest.approx(expected, rel=1e-15)


def test_hbar2_over_2mu_magnitudes():
    assert hbar2_over_2mu(0.5039100, PHYSICAL) == pytest.approx(4.148e-3, rel=1e-3)
    assert hbar2_over_2mu(6.8606719, PHYSICAL) == pytest.approx(3.047e-4, rel=1e-3)


@pytest.mark.parametrize("constants", [PAPER, PHYSICAL])
def test_hbar2_over_2mu_strictly_decreasing_in_mu(constants):
    mus = [0.1 * (1.3**k) for k in range(20)]
    vals = [hbar2_over_2mu(m, constants) for m in mus]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_hbar2_over_2mu_rejects_nonpositive_mass():
    with pytest.raises(DomainError):
        hbar2_over_2mu(0.0, PAPER)
    with pytest.raises(DomainError):
        hbar2_over_2mu(-1.0, PHYSICAL)


def test_mode_validation_and_for_mode():
    assert for_mode("paper") is PAPER
    assert for_mode("physical") is PHYSICAL
    with pytest.raises(DomainError):
        for_mode("natural")
    with pytest.raises(DomainError):
        PhysicalConstants(mode="natural")


_NAME = st.text(string.ascii_letters + string.digits + "_+-()", min_size=1, max_size=12)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(_NAME.filter(lambda name: name.lower() not in BUILTIN_MOLECULES),
                               _FINITE, _FINITE, _FINITE, _POSITIVE, _POSITIVE),
                     max_size=6, unique_by=lambda row: row[0].lower()))
def test_registry_rows_at_repr_precision_parse_back(rows):
    text = "\n".join(["name,A,B,C,alpha,mu"]
                     + [",".join([name] + [repr(v) for v in values]) for name, *values in rows])
    molecules = {name.lower(): Molecule(name, *values) for name, *values in rows}
    assert parse_registry(text) == molecules


@pytest.mark.parametrize("rows, name", [
    *[(f"{alias},1.0,2.0,3.0,0.5,1.25", alias) for alias in ("H2", "h2", "LIH", "hCl", "cO")],
    ("XY,1.0,2.0,3.0,0.5,1.25\nxy,1.0,2.0,3.0,0.5,1.25", "xy"),
])
def test_registry_refuses_a_second_definition_of_a_name(rows, name):
    # a name means one molecule: the tables, figures and checks key the
    # paper's output to the built-in names
    with pytest.raises(DomainError) as err:
        parse_registry("name,A,B,C,alpha,mu\n" + rows, source="extra.csv")
    assert str(err.value) == f"extra.csv: molecule {name!r} is already defined"


def test_registry_skips_an_indented_comment():
    text = "  # a note\nname,A,B,C,alpha,mu\n\t# another\nXY,1.0,2.0,3.0,0.5,1.25\n   #\n"
    assert parse_registry(text) == {"xy": Molecule("XY", 1.0, 2.0, 3.0, 0.5, 1.25)}


def test_registry_refuses_an_empty_name():
    with pytest.raises(DomainError) as err:
        parse_registry("name,A,B,C,alpha,mu\n ,1.0,2.0,3.0,0.5,1.25", source="extra.csv")
    assert str(err.value) == "extra.csv: empty molecule name in ',1.0,2.0,3.0,0.5,1.25'"


@pytest.mark.parametrize("row, field", [
    ("XY,1.0,2.0,3.0,-0.5,1.25", "alpha"),
    ("XY,1.0,2.0,3.0,0.0,1.25", "alpha"),
    ("XY,1.0,2.0,3.0,0.5,-1.25", "mu"),
    ("XY,1.0,2.0,3.0,0.5,0", "mu"),
])
def test_registry_refuses_a_nonpositive_row_with_the_file_name(row, field):
    with pytest.raises(DomainError) as err:
        parse_registry("name,A,B,C,alpha,mu\n" + row, source="extra.csv")
    assert str(err.value) == f"extra.csv: {field} must be positive for 'XY'"


def test_registry_file_may_start_with_a_byte_order_mark(tmp_path, monkeypatch):
    # Excel and PowerShell write UTF-8 with a BOM
    extra = tmp_path / "extra.csv"
    extra.write_bytes(b"\xef\xbb\xbfname,A,B,C,alpha,mu\r\nXY,1.0,2.0,3.0,0.5,1.25\r\n")
    monkeypatch.setenv("HYIQP_REGISTRY", str(extra))
    assert registry()["xy"] == Molecule("XY", 1.0, 2.0, 3.0, 0.5, 1.25)


def test_registry_file_that_is_not_utf8_is_refused_with_its_name(tmp_path, monkeypatch):
    # a Latin-1 e-acute in a molecule name
    extra = tmp_path / "latin1.csv"
    extra.write_bytes(b"name,A,B,C,alpha,mu\nX\xe9,1.0,2.0,3.0,0.5,1.25\n")
    monkeypatch.setenv("HYIQP_REGISTRY", str(extra))
    with pytest.raises(DomainError) as err:
        registry()
    assert str(err.value) == f"{extra}: not UTF-8 text (byte 0xe9: invalid continuation byte)"


def test_mode_switch_leaves_registry_untouched():
    before = dict(BUILTIN_MOLECULES)
    hbar2_over_2mu(1.0, PAPER)
    hbar2_over_2mu(1.0, PHYSICAL)
    assert BUILTIN_MOLECULES == before


def test_env_registry_extends_builtins(tmp_path, monkeypatch):
    extra = tmp_path / "extra.csv"
    extra.write_text("name,A,B,C,alpha,mu\nXY,1.0,2.0,3.0,0.5,1.25\n")
    monkeypatch.setenv("HYIQP_REGISTRY", str(extra))
    reg = registry()
    assert reg["xy"] == Molecule("XY", 1.0, 2.0, 3.0, 0.5, 1.25)
    assert get_molecule("xy").name == "XY"
    # built-ins survive
    assert get_molecule("H2").mu == TABLE_ROWS["H2"][4]


def test_registry_rejects_bad_header(tmp_path, monkeypatch):
    bad = tmp_path / "bad.csv"
    bad.write_text("molecule,A,B\nXY,1,2\n")
    monkeypatch.setenv("HYIQP_REGISTRY", str(bad))
    with pytest.raises(DomainError):
        registry()


def test_molecule_validation():
    with pytest.raises(DomainError):
        Molecule("bad", 1.0, 1.0, 1.0, -0.1, 1.0)
    with pytest.raises(DomainError):
        Molecule("bad", 1.0, 1.0, 1.0, 0.1, 0.0)
