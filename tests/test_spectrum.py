import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from hyiqp.constants import PAPER, PHYSICAL, BUILTIN_MOLECULES, get_molecule, hbar2_over_2mu
from hyiqp.errors import DomainError, UnsupportedRegimeError
from hyiqp.potential import PotentialParams
from hyiqp.spectrum import (energy, energy_hulthen, energy_iqp, energy_value,
                            energy_yukawa, nu_consistency)

H2 = get_molecule("H2")
MOLECULES = [BUILTIN_MOLECULES[k] for k in ("h2", "lih", "hcl", "co")]

# random states: V0, A and C of either sign, B >= 0 (a real gamma), and
# alpha and mu drawn in log10 over [-2, 1] and [-1, 1.5]
V0, A, B, C = (st.floats(-50.0, 50.0), st.floats(-20.0, 20.0), st.floats(0.0, 20.0),
               st.floats(-10.0, 10.0))
LOG_ALPHA, LOG_MU = st.floats(-2.0, 1.0), st.floats(-1.0, 1.5)
N, L = st.integers(0, 12), st.integers(0, 12)


def test_hulthen_matches_textbook_screened_well():
    # independent closed form: E_m = -(hbar^2/2mu) (mu V0/(hbar^2 delta m) - delta m / 2)^2
    # with delta = 2 alpha and m = n + 1
    for v0, alpha, mu in ((2.0, 0.05, 1.0), (3.5, 0.2, 0.8), (1.0, 0.1, 2.0)):
        delta = 2 * alpha
        for n in range(4):
            m = n + 1
            expected = -(1.0 / (2 * mu)) * (mu * v0 / (delta * m) - delta * m / 2) ** 2
            got = energy_hulthen(v0, alpha, mu, n, 0, PAPER)
            assert got == pytest.approx(expected, rel=1e-12)


def test_reduction_closure_all_molecules():
    # the independently coded limit arrangements agree with the zeroed
    # generic form to 1e-12 relative for n, l <= 5
    for mol in MOLECULES:
        for n in range(6):
            for l in range(6):
                full = energy(PotentialParams(2.0, 0.0, 0.0, 0.0, mol.alpha),
                              mol.mu, n, l, PAPER).energy
                lim = energy_hulthen(2.0, mol.alpha, mol.mu, n, l, PAPER)
                assert lim == pytest.approx(full, rel=1e-12, abs=1e-12)

                full = energy(PotentialParams(0.0, mol.a, 0.0, 0.0, mol.alpha),
                              mol.mu, n, l, PAPER).energy
                lim = energy_yukawa(mol.a, mol.alpha, mol.mu, n, l, PAPER)
                assert lim == pytest.approx(full, rel=1e-12, abs=1e-12)

                full = energy(PotentialParams(0.0, 0.0, mol.b, 0.0, mol.alpha),
                              mol.mu, n, l, PAPER).energy
                lim = energy_iqp(mol.b, mol.alpha, mol.mu, n, l, PAPER)
                assert lim == pytest.approx(full, rel=1e-12, abs=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(v0=V0, a=A, b=B, log_alpha=LOG_ALPHA, log_mu=LOG_MU, n=N, l=L, physical=st.booleans())
def test_reduction_closure_everywhere(v0, a, b, log_alpha, log_mu, n, l, physical):
    # energy-reduction-closure's tolerance over the whole space (measured
    # worst 7.6e-16 over 30000 draws; the Yukawa and IQP limits bit-equal)
    alpha, mu = 10.0**log_alpha, 10.0**log_mu
    constants = PHYSICAL if physical else PAPER
    for limit, p in ((energy_hulthen(v0, alpha, mu, n, l, constants),
                      PotentialParams(v0, 0.0, 0.0, 0.0, alpha)),
                     (energy_yukawa(a, alpha, mu, n, l, constants),
                      PotentialParams(0.0, a, 0.0, 0.0, alpha)),
                     (energy_iqp(b, alpha, mu, n, l, constants),
                      PotentialParams(0.0, 0.0, b, 0.0, alpha))):
        full = energy(p, mu, n, l, constants).energy
        assert abs(limit - full) <= 1e-12 * max(1.0, abs(full)), (limit, full)


def test_energy_iqp_golden_hand_value():
    # independent scalar arithmetic for B = 1.9426 with the H2 alpha, mu at n = l = 1
    mu, alpha, b = 0.5039100, 0.20990, 1.9426
    sigma2 = 2 * mu * b
    root = math.sqrt(4 * sigma2 + 8 + 1)
    quotient = ((sigma2 + 2) + 1 + 1 + 0.5 + 1.5 * root) / (3 + root)
    expected = -(2 * alpha**2 / mu) * quotient**2
    got = energy_iqp(b, alpha, mu, 1, 1, PAPER)
    assert got == pytest.approx(expected, rel=1e-13)


def test_quantization_root_solve_oracle():
    # independent root solve of lambda(root) = lambda_n(root): reimplement
    # both eigenvalue-parameter expressions and bisect in the root, then
    # compare the implied energy with the closed form
    for mol in MOLECULES:
        p = PotentialParams.from_molecule(mol, v0=0.0)
        h2 = hbar2_over_2mu(mol.mu, PAPER)
        s1 = p.a / (2 * h2 * p.alpha)
        s2 = p.b / h2
        for n, l in ((0, 0), (1, 2), (3, 1)):
            gam = math.sqrt(4 * s2 + 4 * l * (l + 1) + 1)

            def gap(root):
                lam = (-0.5 - (0.5 * gam - root) + root * gam
                       + s1 - (s2 + l * (l + 1)))
                lam_n = n * n + n + n * gam - 2 * n * root
                return lam - lam_n

            root = brentq(gap, -1e4, 1e4, xtol=1e-14, rtol=1e-15)
            e_from_root = -4 * h2 * p.alpha**2 * root**2 + p.c
            res = energy(p, mol.mu, n, l, PAPER)
            assert abs(e_from_root - res.energy) <= 1e-10 * max(1.0, abs(res.energy))


def test_nu_residual_sweep():
    for mol in MOLECULES:
        p = PotentialParams.from_molecule(mol, v0=0.0)
        for n in range(5):
            for l in range(5):
                nu = nu_consistency(p, mol.mu, n, l, PAPER)
                assert nu.residual <= 1e-10
                assert nu.lam == pytest.approx(nu.lam_n, abs=1e-10)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(v0=V0, a=A, b=B, c=C, log_alpha=LOG_ALPHA, log_mu=LOG_MU, n=N, l=L,
       physical=st.booleans())
def test_nu_consistency_holds_everywhere(v0, a, b, c, log_alpha, log_mu, n, l, physical):
    # lambda and lambda_n cancel, so their residual is rounding of their
    # largest term, and the audit's bound scales with that term
    p = PotentialParams(v0, a, b, c, 10.0**log_alpha)
    mu, constants = 10.0**log_mu, PHYSICAL if physical else PAPER
    nu = nu_consistency(p, mu, n, l, constants)
    assert nu.residual == energy(p, mu, n, l, constants).nu_residual


def test_nu_all_zero_collapses_to_exact_equality():
    # every strength zero: gamma = 1, root = 1/2, and both eigenvalue
    # parameters vanish identically
    p = PotentialParams(v0=0.0, a=0.0, b=0.0, c=0.0, alpha=0.5)
    nu = nu_consistency(p, 1.0, 0, 0, PAPER)
    assert nu.lam == 0.0
    assert nu.lam_n == 0.0
    assert nu.residual == 0.0


def test_gamma_is_exactly_2l_plus_1_when_b_vanishes():
    p = PotentialParams(v0=1.0, a=0.7, b=0.0, c=0.3, alpha=0.4)
    for l in range(8):
        assert energy(p, 1.3, 1, l, PAPER).gamma == 2 * l + 1


def test_nu_intermediates_structure():
    p = PotentialParams.from_molecule(H2, v0=0.0)
    nu = nu_consistency(p, H2.mu, 2, 1, PAPER)
    # k1 and k2 bracket the shared base value symmetrically
    assert nu.k1 >= nu.k2
    assert nu.pi_intercept == pytest.approx(nu.root, rel=1e-15)
    assert nu.tau_slope == pytest.approx(-2 - 2 * (0.5 * energy(p, H2.mu, 2, 1, PAPER).gamma - nu.root), rel=1e-12)
    assert nu.bound_condition_ok


def test_bound_condition_flags_model_cutoff_states():
    # tau' >= 0 at exactly these sweep states: the construction's own
    # finite-bound-spectrum cutoff, surfaced as a diagnostic (not an error)
    flagged = []
    for mol in MOLECULES:
        p = PotentialParams.from_molecule(mol, v0=0.0)
        for n in range(5):
            for l in range(5):
                res = energy(p, mol.mu, n, l, PAPER)
                if not res.bound_condition_ok:
                    flagged.append((mol.name, n, l))
    assert flagged == [("H2", 4, 0), ("H2", 4, 1), ("LiH", 4, 0), ("LiH", 4, 1)]


def test_negative_branch_is_diagnosed_not_hidden():
    # HCl ground state solves the quantization on the negative branch
    hcl = get_molecule("HCl")
    res = energy(PotentialParams.from_molecule(hcl), hcl.mu, 0, 0, PAPER)
    assert res.root < 0.0
    assert res.nu_residual <= 1e-10
    assert res.below_asymptote


def test_hulthen_absolute_energies_decrease_with_n():
    # anchor configuration: |E_n| strictly decreasing up to the last bound level
    vals = [abs(energy_hulthen(2.0, 0.05, 1.0, n, 0, PAPER)) for n in range(19)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_unsupported_regime_raises():
    # b below -(hbar^2/8 mu)(4 l(l+1) + 1) makes the radicand negative
    p = PotentialParams(v0=0.0, a=0.0, b=-1.0, c=0.0, alpha=0.5)
    with pytest.raises(UnsupportedRegimeError):
        energy(p, 1.0, 0, 0, PAPER)


def test_quantum_number_validation():
    p = PotentialParams(v0=0.0, a=0.0, b=0.0, c=0.0, alpha=0.5)
    with pytest.raises(DomainError):
        energy(p, 1.0, -1, 0, PAPER)
    with pytest.raises(DomainError):
        energy(p, 1.0, 0, -2, PAPER)
    with pytest.raises(DomainError):
        energy(p, 1.0, 0.5, 0, PAPER)
    # the continuous-l evaluator accepts real l beyond -1/2
    assert math.isfinite(energy_value(p, 1.0, 0, 0.25, PAPER))
    with pytest.raises(DomainError):
        energy_value(p, 1.0, 0, -0.6, PAPER)


def test_mode_changes_prefactors_not_structure():
    p = PotentialParams.from_molecule(H2, v0=0.0)
    r_paper = energy(p, H2.mu, 1, 1, PAPER)
    r_phys = energy(p, H2.mu, 1, 1, PHYSICAL)
    assert (r_paper.n, r_paper.l) == (r_phys.n, r_phys.l)
    assert r_paper.energy != r_phys.energy
    assert r_paper.nu_residual <= 1e-10 and r_phys.nu_residual <= 1e-10


def test_energy_matches_grid_oracle_on_anchor():
    # the one configuration where the closed form is exact at l = 0
    from hyiqp.oracle import OracleConfig, solve_matrix

    p = PotentialParams(v0=2.0, a=0.0, b=0.0, c=0.0, alpha=0.05)
    cfg = OracleConfig(r_min=1e-7, r_max=1.1, n_points=20000)
    sol = solve_matrix(p, 0, 1.0, cfg, 1, PAPER)
    analytic = energy(p, 1.0, 0, 0, PAPER).energy
    assert sol.eigenvalues[0] == pytest.approx(analytic, rel=1e-4)
