import numpy as np
import pytest

from hyiqp.constants import PAPER, get_molecule
from hyiqp.errors import DomainError
from hyiqp.potential import PotentialParams
from hyiqp.tables import (MISSING_TABLE_IDS, TABLE_SPECS,
                          figure_potential_data, figure_wavefunction_data,
                          fixture_tokens, load_fixture, regenerate_table,
                          table_spec, verify_fixture_checksums)

REGENERABLE = ("2", "5", "6", "7", "8", "9", "10", "11", "12", "13",
               "14", "15", "16", "17")


def test_fixture_checksums_clean():
    assert verify_fixture_checksums() == []


def test_spot_fixture_tokens_are_verbatim():
    assert fixture_tokens("2")[(0, 0)] == "-2.03579269252"
    assert fixture_tokens("10")[(0, 0)] == "-5.77750109574"
    assert fixture_tokens("14")[(0, 0)] == "-5.8226811543"
    # anomalies preserved exactly as printed
    assert fixture_tokens("10")[(2, 3)] == "-.640317976640"
    assert fixture_tokens("14")[(0, 3)] == ".426507121319"
    assert fixture_tokens("5")[(8, 3)] == "0.0040288991466"   # positive outlier


def test_fixture_values_parse():
    assert load_fixture("10")[(2, 3)] == pytest.approx(-0.640317976640, rel=1e-14)
    assert load_fixture("2")[(0, 0)] == -2.03579269252


def test_fixture_spot_values_per_observable():
    assert load_fixture("5")[(0, 0)] == -5.41245277040    # <r^-2>, CO
    assert load_fixture("6")[(0, 0)] == 1.26036805460     # <r^-1>, H2
    assert load_fixture("7")[(0, 0)] == -1.60040032851    # <r^-1>, LiH
    assert load_fixture("17")[(0, 0)] == -1782.80203024   # <p^2>, CO


def test_table_2_fixture_is_single_attributed_row():
    fix = load_fixture("2")
    assert sorted(fix) == [(0, 0), (0, 1), (0, 2), (0, 3)]
    # the unattributed nine-row block lives under 2b
    fix2b = load_fixture("2b")
    assert len(fix2b) == 36
    assert fix2b[(0, 0)] == -3.36841307312


def test_tables_15_and_16_are_near_duplicates():
    t15 = load_fixture("15")
    t16 = load_fixture("16")
    assert set(t15) == set(t16)
    differing = [k for k in t15 if t15[k] != t16[k]]
    assert differing == [(0, 1)]
    assert t15[(0, 1)] == -t16[(0, 1)]
    for tid in ("15", "16"):
        assert any("copy error" in f for f in TABLE_SPECS[tid].flags)


@pytest.mark.parametrize("tid", REGENERABLE)
def test_regenerate_emits_full_grid_with_fixture_column(tid):
    result = regenerate_table(tid, PAPER)
    assert not result.missing
    assert [(r.n, r.l) for r in result.rows] == [(n, l) for n in range(9)
                                                 for l in range(4)]
    fixtures = load_fixture(tid)
    for row in result.rows:
        assert row.machine_derivative is not None
        expected_fixture = fixtures.get((row.n, row.l))
        assert row.paper_table == expected_fixture
        if expected_fixture is not None:
            assert row.dev_vs_table is not None


def test_regenerate_table_2_sparse_fixture_column():
    result = regenerate_table("2", PAPER)
    populated = [(r.n, r.l) for r in result.rows if r.paper_table is not None]
    assert populated == [(0, 0), (0, 1), (0, 2), (0, 3)]


@pytest.mark.parametrize("tid", MISSING_TABLE_IDS)
def test_missing_tables_return_notice(tid):
    result = regenerate_table(tid, PAPER)
    assert result.missing
    assert result.rows == []
    assert any("2b" in note for note in result.notes)


def test_table_2b_is_fixture_only():
    result = regenerate_table("2b", PAPER)
    assert len(result.rows) == 36
    for row in result.rows:
        assert row.machine_derivative is None
        assert row.paper_table is not None
        assert row.note == "fixture only"
    assert any("excluded" in n for n in result.notes)


def test_regeneration_is_deterministic():
    a = regenerate_table("10", PAPER)
    b = regenerate_table("10", PAPER)
    assert a == b


def test_unknown_table_id():
    with pytest.raises(DomainError):
        table_spec("18")
    with pytest.raises(DomainError):
        load_fixture("3")


def test_figure1_sweeps_screening_values():
    p = PotentialParams.from_molecule(get_molecule("H2"), v0=5.0)
    columns, cols, meta = figure_potential_data(1, p, alphas=(0.1, 0.2, 0.3, 0.4))
    assert columns == ("r", "F", "F1", "F2", "F3")
    assert all(len(col) == 512 and type(col[0]) is float for col in cols)
    assert "alpha=0.1" in meta["curves"]
    # stronger screening pulls the well in faster at moderate r
    assert not np.array_equal(cols[1], cols[2])
    with pytest.raises(DomainError):
        figure_potential_data(1, p, alphas=(0.1, 0.2))


def test_figure2_overlays_limits():
    p = PotentialParams.from_molecule(get_molecule("H2"), v0=5.0)
    columns, cols, meta = figure_potential_data(2, p)
    assert columns == ("r", "F", "F1", "F2", "F3")
    r, f, f1, f2, f3 = map(np.array, cols)
    assert np.allclose(f, f1 + f2 + f3 + p.c, rtol=1e-14, atol=1e-14)


# figures 3-8 hold l = 0..5 fixed; figure 9 sweeps l (next test)
@pytest.mark.parametrize("figure_id", range(3, 9))
def test_figure_wavefunction_fixed_l(figure_id):
    columns, rows, meta = figure_wavefunction_data(figure_id, PAPER, n_points=64)
    assert columns == ("molecule", "l", "n", "r", "psi", "density")
    mols = [row[0] for row in rows[:: 64]]
    assert mols == ["H2", "LiH", "HCl", "CO"]
    assert all(row[1] == figure_id - 3 for row in rows)
    assert all(row[5] >= 0.0 for row in rows)


def test_figure9_sweeps_l_zero_to_five():
    columns, rows, meta = figure_wavefunction_data(9, PAPER, n_points=16)
    ls = sorted({row[1] for row in rows})
    assert ls == [0, 1, 2, 3, 4, 5]
    assert len(rows) == 4 * 6 * 16


def test_figure_id_validation():
    p = PotentialParams.from_molecule(get_molecule("H2"))
    with pytest.raises(DomainError):
        figure_potential_data(3, p)
    with pytest.raises(DomainError):
        figure_wavefunction_data(2, PAPER)
