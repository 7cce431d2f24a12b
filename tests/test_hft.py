import math

import pytest

from hyiqp.constants import PAPER, PHYSICAL, BUILTIN_MOLECULES, Molecule, get_molecule, hbar2_over_2mu
from hyiqp.errors import DomainError
from hyiqp.hft import (d_energy_d_param, expect_kinetic, expect_p2,
                       expect_r_m1, expect_r_m2, expectation_report,
                       expectation_set, kinetic_for_params, p2_for_params,
                       r_m1_for_params, r_m2_for_params, rel_dev)
from hyiqp.oracle import OracleConfig, expectation_numeric, solve_matrix
from hyiqp.potential import PotentialParams
from hyiqp.tables import load_fixture

H2 = get_molecule("H2")
CO = get_molecule("CO")
ANCHOR = PotentialParams(v0=2.0, a=0.0, b=0.0, c=0.0, alpha=0.05)
ANCHOR_MOL = Molecule("anchor", a=0.0, b=0.0, c=0.0, alpha=0.05, mu=1.0)


def test_dEdA_collapsed_hand_value():
    # all parameters zero: M = 1, D = 2, so dE/dA = 4 alpha / 4 = alpha
    p = PotentialParams(v0=0.0, a=0.0, b=0.0, c=0.0, alpha=0.5)
    d = d_energy_d_param(p, 1.0, 0, 0, "A", PAPER)
    assert d.analytic == pytest.approx(0.5, rel=1e-12)
    assert d.finite_difference == pytest.approx(0.5, rel=1e-9)


@pytest.mark.parametrize("constants", [PAPER, PHYSICAL])
@pytest.mark.parametrize("which", ["l", "A", "mu"])
def test_h2_ground_state_derivative_agreement(which, constants):
    p = PotentialParams.from_molecule(H2, v0=0.0)
    d = d_energy_d_param(p, H2.mu, 0, 0, which, constants)
    assert d.rel_gap <= 1e-8


def test_co_mu_derivative_agreement():
    p = PotentialParams.from_molecule(CO, v0=0.0)
    d = d_energy_d_param(p, CO.mu, 1, 1, "mu", PAPER)
    assert d.rel_gap <= 1e-8


def test_unknown_parameter_rejected():
    p = PotentialParams.from_molecule(H2, v0=0.0)
    with pytest.raises(DomainError):
        d_energy_d_param(p, H2.mu, 0, 0, "B", PAPER)


def test_p2_is_exactly_2mu_kinetic_both_modes():
    p = PotentialParams.from_molecule(H2, v0=0.0)
    for constants, mu_scale in ((PAPER, H2.mu), (PHYSICAL, H2.mu * 931.49410242e6)):
        kin = kinetic_for_params(p, H2.mu, 1, 2, constants)
        p2 = p2_for_params(p, H2.mu, 1, 2, constants)
        assert p2.machine_derivative == 2.0 * mu_scale * kin.machine_derivative
        assert p2.paper_formula == 2.0 * mu_scale * kin.paper_formula


def test_r_m1_equals_minus_dEdA_with_unit_prefactor():
    p = PotentialParams.from_molecule(H2, v0=0.0)
    d = d_energy_d_param(p, H2.mu, 0, 0, "A", PAPER)
    val = r_m1_for_params(p, H2.mu, 0, 0, PAPER)
    assert abs(val.paper_formula + d.analytic) <= 1e-12 * max(1.0, abs(d.analytic))


def test_r_m1_exp_factor_scales_by_exp_alpha_r():
    p = PotentialParams.from_molecule(H2, v0=0.0)
    base = r_m1_for_params(p, H2.mu, 0, 0, PAPER)
    scaled = r_m1_for_params(p, H2.mu, 0, 0, PAPER, exp_factor_r=2.0)
    factor = math.exp(H2.alpha * 2.0)
    assert scaled.paper_formula == pytest.approx(factor * base.paper_formula, rel=1e-14)


def test_r_m2_association_invariance():
    p = PotentialParams.from_molecule(H2, v0=0.0)
    for l in range(4):
        d = d_energy_d_param(p, H2.mu, 1, l, "l", PAPER)
        h2m = hbar2_over_2mu(H2.mu, PAPER)
        left = (d.analytic / (h2m * (2 * l + 1))) * (2 * l + 1)
        right = d.analytic / h2m
        assert math.isclose(left, right, rel_tol=1e-12)


def test_anchor_r_m2_hand_value():
    # pure screened well, n = l = 0: M = -399, D = 2, gamma = 1, so
    # dE/dl = -8 h2 a^2 X (dM D - M dD)/D^2 with dM = 2, dD = 2
    val = r_m2_for_params(ANCHOR, 1.0, 0, 0, PAPER)
    h2m = 0.5
    x = -399.0 / 2.0
    de_dl = -8 * h2m * 0.05**2 * x * (2 * 2 - (-399.0) * 2) / 4.0
    expected = de_dl / (h2m * 1.0)
    assert val.paper_formula == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(799.995, rel=1e-9)


def test_anchor_observables_match_grid_quadrature_within_1pc():
    cfg = OracleConfig(r_min=1e-7, r_max=1.1, n_points=20000)
    sol = solve_matrix(ANCHOR, 0, 1.0, cfg, 1, PAPER)
    analytic_r2 = r_m2_for_params(ANCHOR, 1.0, 0, 0, PAPER).paper_formula
    numeric_r2 = expectation_numeric(sol, 0, "r_m2")
    assert abs(analytic_r2 - numeric_r2) / abs(numeric_r2) <= 0.01
    analytic_t = kinetic_for_params(ANCHOR, 1.0, 0, 0, PAPER).paper_formula
    numeric_t = expectation_numeric(sol, 0, "kinetic")
    assert abs(analytic_t - numeric_t) / abs(numeric_t) <= 0.01


def test_reference_table_values_are_recorded_not_reproduced():
    # the bundled reference values disagree with the Hellmann-Feynman
    # evaluation of the stated level energies; deviations are measured and
    # reported, never asserted away.  Spot-check the flagship cells.
    r2 = expect_r_m2(H2, 0, 0, PAPER)
    fix_r2 = load_fixture("2")[(0, 0)]
    assert fix_r2 == -2.03579269252
    assert rel_dev(r2.machine_derivative, fix_r2) != 0.0

    t = expect_kinetic(H2, 0, 0, PAPER)
    fix_t = load_fixture("10")[(0, 0)]
    assert fix_t == -5.77750109574
    assert abs(rel_dev(t.machine_derivative, fix_t)) > 0.5

    p2 = expect_p2(H2, 0, 0, PAPER)
    fix_p2 = load_fixture("14")[(0, 0)]
    assert fix_p2 == -5.8226811543
    # the reference p2 table is exactly 2 mu times the reference T table,
    # confirming the bare-mass hbar = 1 convention of paper mode
    assert fix_p2 == pytest.approx(2 * H2.mu * fix_t, rel=1e-10)
    assert p2.machine_derivative == pytest.approx(2 * H2.mu * t.machine_derivative, rel=1e-15)


def test_expectation_set_paths():
    s_md = expectation_set(H2, 0, 0, PAPER, derivation="machine_derivative")
    s_pf = expectation_set(H2, 0, 0, PAPER, derivation="paper_formula")
    assert s_md.derivation == "machine_derivative"
    assert s_pf.derivation == "paper_formula"
    assert s_md.p2 == 2 * H2.mu * s_md.kinetic
    assert s_md.kinetic == pytest.approx(s_pf.kinetic, rel=1e-8)
    with pytest.raises(DomainError):
        expectation_set(H2, 0, 0, PAPER, derivation="exact")


def test_expect_wrappers_accept_v0():
    with_v0 = expect_r_m1(H2, 0, 0, PAPER, v0=5.0)
    without = expect_r_m1(H2, 0, 0, PAPER)
    assert with_v0.machine_derivative != without.machine_derivative


@pytest.mark.parametrize("func,for_params", [
    (expect_r_m2, "r_m2_for_params"),
    (expect_r_m1, "r_m1_for_params"),
    (expect_kinetic, "kinetic_for_params"),
    (expect_p2, "p2_for_params"),
    (expectation_set, "observable_for_params"),
])
def test_molecule_wrappers_reject_bare_params(func, for_params):
    # bare parameters carry no reduced mass; the error names the function
    # that takes one
    p = PotentialParams.from_molecule(H2)
    with pytest.raises(DomainError, match=for_params):
        func(p, 0, 0, PAPER)


def test_report_layout_and_determinism():
    fixtures = load_fixture("10")
    rows1 = expectation_report(H2, "T", n_max=2, l_max=1, constants=PAPER,
                               fixtures=fixtures)
    rows2 = expectation_report(H2, "T", n_max=2, l_max=1, constants=PAPER,
                               fixtures=fixtures)
    assert rows1 == rows2
    assert [(r.n, r.l) for r in rows1] == [(n, l) for n in range(3) for l in range(2)]
    for r in rows1:
        assert r.paper_table == fixtures[(r.n, r.l)]
        assert r.oracle is None and r.dev_md_oracle is None
        assert abs(r.dev_pf_md) < 1e-9


def test_report_oracle_column_on_anchor():
    cfg = OracleConfig(r_min=1e-7, r_max=1.1, n_points=20000)
    sol = solve_matrix(ANCHOR, 0, 1.0, cfg, 2, PAPER)
    rows = expectation_report(ANCHOR_MOL, "r-2", n_max=2, l_max=0,
                              constants=PAPER, v0=2.0,
                              oracle_solutions={0: sol})
    by_state = {(r.n, r.l): r for r in rows}
    assert abs(by_state[(0, 0)].dev_md_oracle) <= 0.01
    # only two grid states were solved; the n = 2 cell must say so
    assert by_state[(2, 0)].oracle is None
    assert "not bound" in by_state[(2, 0)].note


def test_report_validation():
    with pytest.raises(DomainError):
        expectation_report(H2, "T", n_max=13, l_max=0, constants=PAPER)
    with pytest.raises(DomainError):
        expectation_report(H2, "momentum", n_max=1, l_max=0, constants=PAPER)
    with pytest.raises(DomainError):
        expectation_report(H2, "T", n_max=1, l_max=0, constants=None)
