import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyiqp.constants import (AMU_EV_PER_C2, HBAR_C_EV_ANGSTROM, PAPER, PHYSICAL,
                             BUILTIN_MOLECULES, Molecule, get_molecule)
from hyiqp.errors import DomainError
from hyiqp.hft import d_energy_d_param, observable_for_params
from hyiqp.oracle import OracleConfig, expectation_numeric, solve_matrix
from hyiqp.potential import PotentialParams
from hyiqp.spectrum import energy, energy_value
from hyiqp.tables import expectation_report, load_fixture, rel_dev

H2 = get_molecule("H2")
CO = get_molecule("CO")
ANCHOR = PotentialParams(v0=2.0, a=0.0, b=0.0, c=0.0, alpha=0.05)
ANCHOR_MOL = Molecule("anchor", a=0.0, b=0.0, c=0.0, alpha=0.05, mu=1.0)


def _mp_level(v0, a, b, c, alpha, mu, n, l, constants):
    """The closed-form level E = -4 (hbar^2/2mu) alpha^2 (M/D)^2 + C in mpmath."""
    if constants.mode == "paper":
        h2 = 1 / (2 * mu)
    else:
        h2 = mpmath.mpf(HBAR_C_EV_ANGSTROM) ** 2 / (2 * mu * mpmath.mpf(AMU_EV_PER_C2))
    ll1 = l * (l + 1)
    sigma2 = b / h2
    gamma = mpmath.sqrt(4 * sigma2 + 4 * ll1 + 1)
    half = mpmath.mpf(0.5)
    m_num = (sigma2 - a / (2 * h2 * alpha) - v0 / (4 * h2 * alpha**2) + ll1
             + n * n + n + half + (n + half) * gamma)
    return -4 * h2 * alpha**2 * (m_num / (1 + 2 * n + gamma)) ** 2 + c


# |E - E_mp| / max(|E|, |C|, 1) of the closed-form level: 9.3e-16 at worst over
# the 1296 molecule states below (CO paper V0 = 20, n = 8, l = 1) and 1.6e-15
# over 20000 random draws from the property's ranges.  Relative to |E| alone
# it reaches 3.4e-13 (HCl paper V0 = 20, n = 5, l = 5), where E = -9.8e-4 is
# C minus a term of ~2.4, so C enters the scale.
ENERGY_TOL = 4e-15


def _assert_energy_matches_mpmath(p, mu, n, l, constants):
    with mpmath.workdps(50):
        ref = _mp_level(*map(mpmath.mpf, (p.v0, p.a, p.b, p.c, p.alpha, mu)), n, l,
                        constants)
        scale = max(abs(ref), abs(p.c), 1)
        # the level energy prints and the one the derivatives step in q
        for got in (energy(p, mu, n, l, constants).energy,
                    energy_value(p, mu, n, l, constants)):
            err = abs(mpmath.mpf(got) - ref) / scale
            assert err <= ENERGY_TOL, (got, float(ref), float(err))


@pytest.mark.parametrize("constants", [PAPER, PHYSICAL], ids=["paper", "physical"])
@pytest.mark.parametrize("name", sorted(BUILTIN_MOLECULES))
def test_energy_matches_mpmath_on_the_molecules(name, constants):
    mol = BUILTIN_MOLECULES[name]
    for v0 in (0.0, 4.0, 20.0):
        p = PotentialParams.from_molecule(mol, v0=v0)
        for n in range(9):
            for l in range(6):
                _assert_energy_matches_mpmath(p, mol.mu, n, l, constants)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(v0=st.floats(0.0, 20.0), a=st.floats(0.0, 5.0), b=st.floats(0.0, 5.0),
       c=st.floats(-5.0, 5.0), alpha=st.floats(0.05, 1.0), mu=st.floats(0.5, 10.0),
       n=st.integers(0, 8), l=st.integers(0, 5), physical=st.booleans())
def test_energy_matches_mpmath_everywhere(v0, a, b, c, alpha, mu, n, l, physical):
    p = PotentialParams(v0=v0, a=a, b=b, c=c, alpha=alpha)
    _assert_energy_matches_mpmath(p, mu, n, l, PHYSICAL if physical else PAPER)


def _mp_derivative(p, mu, n, l, which, constants):
    """dE/dq of the closed-form level by mpmath.diff at 40 digits."""
    key = {"l": "l", "A": "a", "mu": "mu"}[which]
    with mpmath.workdps(40):
        args = {k: mpmath.mpf(v) for k, v in
                dict(v0=p.v0, a=p.a, b=p.b, c=p.c, alpha=p.alpha, mu=mu, l=l).items()}
        return float(mpmath.diff(
            lambda q: _mp_level(n=n, constants=constants, **{**args, key: q}), args[key]))


def _assert_both_paths_match_mpmath(p, mu, n, l, constants):
    for which in ("l", "A", "mu"):
        ref = _mp_derivative(p, mu, n, l, which, constants)
        d = d_energy_d_param(p, mu, n, l, which, constants)
        tol = 1e-13 * max(1.0, abs(ref))
        assert abs(d.analytic - ref) <= tol, (which, d.analytic, ref)
        assert abs(d.machine_derivative - ref) <= tol, (which, d.machine_derivative, ref)


def test_dEdA_collapsed_hand_value():
    # all parameters zero: M = 1, D = 2, so dE/dA = 4 alpha / 4 = alpha
    p = PotentialParams(v0=0.0, a=0.0, b=0.0, c=0.0, alpha=0.5)
    d = d_energy_d_param(p, 1.0, 0, 0, "A", PAPER)
    assert d.analytic == pytest.approx(0.5, rel=1e-12)
    assert d.machine_derivative == pytest.approx(0.5, rel=1e-15)


@pytest.mark.parametrize("constants", [PAPER, PHYSICAL], ids=["paper", "physical"])
@pytest.mark.parametrize("name", sorted(BUILTIN_MOLECULES))
def test_derivatives_match_mpmath_on_the_molecules(name, constants):
    mol = BUILTIN_MOLECULES[name]
    p = PotentialParams.from_molecule(mol)
    for n in range(9):
        for l in range(6):
            _assert_both_paths_match_mpmath(p, mol.mu, n, l, constants)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(v0=st.floats(0.0, 10.0), a=st.floats(0.0, 5.0), b=st.floats(0.0, 5.0),
       alpha=st.floats(0.05, 1.0), mu=st.floats(0.5, 10.0),
       n=st.integers(0, 8), l=st.integers(0, 5), physical=st.booleans())
def test_derivatives_match_mpmath_everywhere(v0, a, b, alpha, mu, n, l, physical):
    p = PotentialParams(v0=v0, a=a, b=b, c=0.0, alpha=alpha)
    _assert_both_paths_match_mpmath(p, mu, n, l, PHYSICAL if physical else PAPER)


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
        kin = observable_for_params("T", p, H2.mu, 1, 2, constants)
        p2 = observable_for_params("p2", p, H2.mu, 1, 2, constants)
        assert p2.machine_derivative == 2.0 * mu_scale * kin.machine_derivative
        assert p2.paper_formula == 2.0 * mu_scale * kin.paper_formula


def test_r_m1_equals_minus_dEdA_with_unit_prefactor():
    p = PotentialParams.from_molecule(H2, v0=0.0)
    d = d_energy_d_param(p, H2.mu, 0, 0, "A", PAPER)
    val = observable_for_params("r-1", p, H2.mu, 0, 0, PAPER)
    assert abs(val.paper_formula + d.analytic) <= 1e-12 * max(1.0, abs(d.analytic))


def test_r_m1_exp_factor_scales_by_exp_alpha_r():
    p = PotentialParams.from_molecule(H2, v0=0.0)
    base = observable_for_params("r-1", p, H2.mu, 0, 0, PAPER)
    scaled = observable_for_params("r-1", p, H2.mu, 0, 0, PAPER, exp_factor_r=2.0)
    factor = math.exp(H2.alpha * 2.0)
    assert scaled.paper_formula == pytest.approx(factor * base.paper_formula, rel=1e-14)


def test_anchor_r_m2_hand_value():
    # pure screened well, n = l = 0: M = -399, D = 2, gamma = 1, so
    # dE/dl = -8 h2 a^2 X (dM D - M dD)/D^2 with dM = 2, dD = 2
    val = observable_for_params("r-2", ANCHOR, 1.0, 0, 0, PAPER)
    h2m = 0.5
    x = -399.0 / 2.0
    de_dl = -8 * h2m * 0.05**2 * x * (2 * 2 - (-399.0) * 2) / 4.0
    expected = de_dl / (h2m * 1.0)
    assert val.paper_formula == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(799.995, rel=1e-9)


def test_anchor_observables_match_grid_quadrature_within_1pc():
    cfg = OracleConfig(r_min=1e-7, r_max=1.1, n_points=20000)
    sol = solve_matrix(ANCHOR, 0, 1.0, cfg, 1, PAPER)
    analytic_r2 = observable_for_params("r-2", ANCHOR, 1.0, 0, 0, PAPER).paper_formula
    numeric_r2 = expectation_numeric(sol, 0, "r_m2")
    assert abs(analytic_r2 - numeric_r2) / abs(numeric_r2) <= 0.01
    analytic_t = observable_for_params("T", ANCHOR, 1.0, 0, 0, PAPER).paper_formula
    numeric_t = expectation_numeric(sol, 0, "kinetic")
    assert abs(analytic_t - numeric_t) / abs(numeric_t) <= 0.01


def test_reference_table_values_are_recorded_not_reproduced():
    # the bundled reference values disagree with the Hellmann-Feynman
    # evaluation of the stated level energies; deviations are measured and
    # reported, never asserted away.  Spot-check the flagship cells.
    p = PotentialParams.from_molecule(H2)
    r2 = observable_for_params("r-2", p, H2.mu, 0, 0, PAPER)
    fix_r2 = load_fixture("2")[(0, 0)]
    assert fix_r2 == -2.03579269252
    assert rel_dev(r2.machine_derivative, fix_r2) != 0.0

    t = observable_for_params("T", p, H2.mu, 0, 0, PAPER)
    fix_t = load_fixture("10")[(0, 0)]
    assert fix_t == -5.77750109574
    assert abs(rel_dev(t.machine_derivative, fix_t)) > 0.5

    p2 = observable_for_params("p2", p, H2.mu, 0, 0, PAPER)
    fix_p2 = load_fixture("14")[(0, 0)]
    assert fix_p2 == -5.8226811543
    # the reference p2 table is exactly 2 mu times the reference T table,
    # confirming the bare-mass hbar = 1 convention of paper mode
    assert fix_p2 == pytest.approx(2 * H2.mu * fix_t, rel=1e-10)
    assert p2.machine_derivative == pytest.approx(2 * H2.mu * t.machine_derivative, rel=1e-15)


def test_observables_depend_on_v0():
    with_v0 = observable_for_params("r-1", PotentialParams.from_molecule(H2, v0=5.0),
                                    H2.mu, 0, 0, PAPER)
    without = observable_for_params("r-1", PotentialParams.from_molecule(H2), H2.mu, 0, 0, PAPER)
    assert with_v0.machine_derivative != without.machine_derivative


def test_report_layout_and_determinism():
    fixtures = load_fixture("10")
    rows1 = expectation_report(H2, "T", n_max=2, l_max=1, constants=PAPER)
    rows2 = expectation_report(H2, "T", n_max=2, l_max=1, constants=PAPER)
    assert rows1 == rows2
    assert [(r.n, r.l) for r in rows1] == [(n, l) for n in range(3) for l in range(2)]
    for r in rows1:
        assert r.paper_table == fixtures[(r.n, r.l)]
        assert r.oracle is None and r.dev_md_oracle is None
        assert abs(r.dev_pf_md) < 1e-9


def test_report_oracle_column_on_anchor():
    cfg = OracleConfig(r_min=1e-7, r_max=1.1, n_points=20000)
    rows = expectation_report(ANCHOR_MOL, "r-2", n_max=3, l_max=0,
                              constants=PAPER, v0=2.0, oracle=cfg)
    by_state = {(r.n, r.l): r for r in rows}
    assert abs(by_state[(0, 0)].dev_md_oracle) <= 0.01
    # the r_max = 1.1 box holds three levels below C; the n = 3 cell must say so
    assert by_state[(2, 0)].oracle is not None
    assert by_state[(3, 0)].oracle is None
    assert "not bound" in by_state[(3, 0)].note


def test_report_validation():
    with pytest.raises(DomainError):
        expectation_report(H2, "T", n_max=13, l_max=0, constants=PAPER)
    with pytest.raises(DomainError):
        expectation_report(H2, "momentum", n_max=1, l_max=0, constants=PAPER)
