import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyiqp.constants import PAPER, PHYSICAL, for_mode, get_molecule
from hyiqp.errors import ConvergenceError, DomainError, HyiqpError
from hyiqp.oracle import OracleConfig, count_sign_changes, solve_matrix
from hyiqp.potential import PotentialParams
from hyiqp.spectrum import (energy, normalization_constant,
                            wavefunction)

H2 = get_molecule("H2")
H2_P = PotentialParams.from_molecule(H2, v0=0.0)
ANCHOR = PotentialParams(v0=2.0, a=0.0, b=0.0, c=0.0, alpha=0.05)
ANCHOR_CFG = OracleConfig(r_min=1e-7, r_max=1.1, n_points=20000)
CONVENTIONS = ("literal", "weight", "orthodox")

# Jacobi exponents (a, b) of each convention in terms of sqrtP and gamma,
# restated from the spectrum module's documentation
REF_EXPONENTS = {
    "literal": lambda sp, g: (2 * sp - 4 * g, -2 * sp - 4 * g),
    "weight": lambda sp, g: (2 * sp - g, -2 * sp - g),
    "orthodox": lambda sp, g: (2 * sp, g),
}
# sqrtP ~ 1016: the weight's mass 2^(2 sqrtP + gamma + 1) B(...) overflows
LARGE_ROOT_P = PotentialParams(v0=8.0, a=1.0, b=2.0, c=2.0, alpha=0.2)
LARGE_ROOT_MU = 6.86
# sqrtP ~ 1192: N itself exceeds double range
HUGE_ROOT_P = PotentialParams(v0=0.0, a=1.0, b=200.0, c=2.0, alpha=0.5)
HUGE_ROOT_MU = 60.0


def trapezoid_norm(p, mu, n, l, convention, r_max, points=400001):
    """Independent re-integration of the normalized density (trapezoid, not quad)."""
    r = np.linspace(1e-6, r_max, points)
    psi = wavefunction(r, p, mu, n, l, PAPER, normalized=True, convention=convention)
    return np.trapezoid(psi * psi, r)


def exact_norm_error(p, mu, n, l, constants, convention):
    """|N^2 int psi^2 dr - 1| with the integral summed exactly at 50 digits.

    With s = exp(-2 alpha r) and P_n(1 - 2s) = sum_k c_k s^k (1-s)^(n-k),
    int psi^2 dr = sum_m B(2 sqrtP + m, 2 + gamma + 2n - m)
    sum_{j+k=m} c_j c_k / (2 alpha): no quadrature node and no
    double-precision polynomial value enters.
    """
    res = energy(p, mu, n, l, constants)
    norm = normalization_constant(p, mu, n, l, constants, convention)
    with mpmath.workdps(50):
        sp, g = mpmath.mpf(abs(res.root)), mpmath.mpf(res.gamma)
        a, b = REF_EXPONENTS[convention](sp, g)
        c = [(-1) ** k * mpmath.binomial(n + a, n - k) * mpmath.binomial(n + b, k)
             for k in range(n + 1)]
        total = mpmath.fsum(
            mpmath.beta(2 * sp + m, 2 + g + 2 * n - m)
            * mpmath.fsum(c[j] * c[m - j] for j in range(max(0, m - n), min(m, n) + 1))
            for m in range(2 * n + 1))
        return abs(float(total / (2 * mpmath.mpf(p.alpha)) * mpmath.mpf(norm) ** 2) - 1.0)


@pytest.mark.parametrize("name", ["H2", "LiH", "HCl", "CO"])
@pytest.mark.parametrize("conv", CONVENTIONS)
def test_normalization_is_exact_against_mpmath(name, conv):
    mol = get_molecule(name)
    p = PotentialParams.from_molecule(mol)
    for constants in (PAPER, PHYSICAL):
        for n in range(9):
            for l in range(6):
                err = exact_norm_error(p, mol.mu, n, l, constants, conv)
                assert err <= 1e-9, (constants.mode, n, l, err)


def test_lih_weight_n8_normalizes():
    # adaptive quadrature used to fail on this state with a QUADPACK warning
    lih = get_molecule("LiH")
    p = PotentialParams.from_molecule(lih)
    assert exact_norm_error(p, lih.mu, 8, 0, PAPER, "weight") <= 1e-9


@pytest.mark.parametrize("conv", CONVENTIONS)
def test_anchor_normalization_against_mpmath(conv):
    # B = 0, l = 0: 2k + a + b reaches 0 or 2 in the weight and literal
    # exponents, where scipy's eval_jacobi returns NaN or inf
    for n in range(9):
        assert exact_norm_error(ANCHOR, 1.0, n, 0, PAPER, conv) <= 1e-9


@pytest.mark.parametrize("conv", CONVENTIONS)
def test_large_root_states_normalize_or_fail_loudly(conv):
    for n in (0, 4):
        assert exact_norm_error(LARGE_ROOT_P, LARGE_ROOT_MU, n, 0, PHYSICAL, conv) <= 1e-9
        psi = wavefunction(np.linspace(0.01, 5.0, 50), LARGE_ROOT_P, LARGE_ROOT_MU, n, 0,
                           PHYSICAL, convention=conv)
        assert np.all(np.isfinite(psi))
        with pytest.raises(ConvergenceError):
            normalization_constant(HUGE_ROOT_P, HUGE_ROOT_MU, n, 0, PHYSICAL, conv)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(v0=st.one_of(st.just(0.0), st.floats(3.0, 8.0)), a=st.floats(0.7, 1.6),
       b=st.floats(1.1, 2.3), c=st.floats(1.4, 2.6), alpha=st.floats(0.2, 1.55),
       mu=st.floats(0.5, 6.9), mode=st.sampled_from(("paper", "physical")),
       conv=st.sampled_from(CONVENTIONS), n=st.integers(0, 8), l=st.integers(0, 5))
def test_normalization_property_in_bound_region(v0, a, b, c, alpha, mu, mode, conv, n, l):
    p = PotentialParams(v0=v0, a=a, b=b, c=c, alpha=alpha)
    constants = for_mode(mode)
    assume(energy(p, mu, n, l, constants).root >= 0.25)
    try:
        err = exact_norm_error(p, mu, n, l, constants, conv)
    except HyiqpError as exc:
        pytest.fail(f"bound state did not normalize: {exc}")
    assert err <= 1e-9


def test_ground_state_is_nodeless_and_positive():
    r = np.geomspace(0.01, 60.0, 500)
    for conv in ("literal", "weight", "orthodox"):
        psi = wavefunction(r, H2_P, H2.mu, 0, 0, PAPER, normalized=False,
                           convention=conv)
        assert np.all(psi > 0.0)


def test_wavefunction_vanishes_at_both_ends():
    psi_peak = np.max(np.abs(wavefunction(np.linspace(0.5, 20, 200), H2_P, H2.mu,
                                          0, 0, PAPER, normalized=False,
                                          convention="literal")))
    tail = abs(wavefunction(400.0, H2_P, H2.mu, 0, 0, PAPER, normalized=False,
                            convention="literal"))
    origin = abs(wavefunction(1e-7, H2_P, H2.mu, 0, 0, PAPER, normalized=False,
                              convention="literal"))
    assert tail < 1e-12 * psi_peak
    assert origin < 1e-12 * psi_peak


@pytest.mark.parametrize("conv", ["literal", "weight", "orthodox"])
@pytest.mark.parametrize("n,l", [(0, 0), (1, 1), (2, 0)])
def test_normalization_integrates_to_one(conv, n, l):
    total = trapezoid_norm(H2_P, H2.mu, n, l, conv, r_max=250.0)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_normalization_other_molecules():
    for name in ("LiH", "CO"):
        mol = get_molecule(name)
        p = PotentialParams.from_molecule(mol, v0=0.0)
        total = trapezoid_norm(p, mol.mu, 1, 0, "literal", r_max=80.0)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_slow_tail_state_still_normalizes():
    # the HCl ground state solves the quantization on the negative branch;
    # the principal-branch exponent decays over ~100 Angstrom scales but the
    # state must still normalize
    hcl = get_molecule("HCl")
    p = PotentialParams.from_molecule(hcl, v0=0.0)
    norm = normalization_constant(p, hcl.mu, 0, 0, PAPER, "literal")
    assert math.isfinite(norm) and norm > 0.0
    val = wavefunction(2.0, p, hcl.mu, 0, 0, PAPER, normalized=True, convention="literal")
    assert math.isfinite(val)


def test_orthodox_nodes_match_quantum_number_h2():
    r = np.linspace(1e-3, 40.0, 40001)
    for n in range(5):
        psi = wavefunction(r, H2_P, H2.mu, n, 0, PAPER, normalized=False,
                           convention="orthodox")
        assert count_sign_changes(psi) == n


def test_orthodox_nodes_match_quantum_number_anchor():
    r = np.linspace(1e-4, 3.0, 120001)
    for n in range(5):
        psi = wavefunction(r, ANCHOR, 1.0, n, 0, PAPER, normalized=False,
                           convention="orthodox")
        assert count_sign_changes(psi) == n


def test_stated_exponent_conventions_lack_nodal_structure():
    # the literal and weight-consistent exponent pairs give a degree-2
    # factor with no real zero on (0, 1) for the H2 n=2 state; only the
    # orthodox Rodrigues construction restores the oscillation theorem.
    # Recorded as observed behavior, with the grid eigenvector as referee.
    r = np.linspace(1e-3, 40.0, 40001)
    psi_lit = wavefunction(r, H2_P, H2.mu, 2, 0, PAPER, normalized=False,
                           convention="literal")
    psi_wgt = wavefunction(r, H2_P, H2.mu, 2, 0, PAPER, normalized=False,
                           convention="weight")
    assert count_sign_changes(psi_lit) == 0
    assert count_sign_changes(psi_wgt) == 0
    # grid referee: the k = 2 grid state (box spectrum; the exact H2
    # potential holds no true bound states at v0 = 0) has exactly 2 nodes
    sol = solve_matrix(H2_P, 0, H2.mu, OracleConfig(), 3, PAPER,
                       below_asymptote_only=False)
    assert sol.node_counts == [0, 1, 2]


def test_density_is_normalized_square():
    r = np.linspace(0.05, 120.0, 200001)
    dens = wavefunction(r, H2_P, H2.mu, 0, 0, PAPER, normalized=True, convention="literal") ** 2
    assert np.trapezoid(dens, r) == pytest.approx(1.0, abs=1e-6)


def test_h2_density_peak_matches_closed_form_location():
    # maximizing s^(2 sqrtP) (1-s)^(1+gamma) gives s* = q/(1+q) with
    # q = 2 sqrtP / (1 + gamma); the n = 0 polynomial factor is constant,
    # so this is convention-independent
    res = energy(H2_P, H2.mu, 0, 0, PAPER)
    q = 2.0 * abs(res.root) / (1.0 + res.gamma)
    s_star = q / (1.0 + q)
    r_star = -math.log(s_star) / (2.0 * H2.alpha)
    r = np.linspace(0.5, 12.0, 23001)
    dens = wavefunction(r, H2_P, H2.mu, 0, 0, PAPER, convention="literal") ** 2
    assert r[int(np.argmax(dens))] == pytest.approx(r_star, abs=2 * (r[1] - r[0]))


def test_anchor_density_peak_matches_grid_oracle_peak():
    # on the exactly solvable configuration the analytic density peak must
    # sit within one grid spacing of the grid eigenvector's peak
    sol = solve_matrix(ANCHOR, 0, 1.0, ANCHOR_CFG, 1, PAPER)
    r = sol.grid
    u = sol.eigenvectors[0]
    r_oracle = r[int(np.argmax(u * u))]
    dens = wavefunction(r, ANCHOR, 1.0, 0, 0, PAPER, convention="orthodox") ** 2
    r_analytic = r[int(np.argmax(dens))]
    spacing = r[1] - r[0]
    assert abs(r_analytic - r_oracle) <= spacing


def test_h2_exact_potential_has_no_bound_ground_state():
    # the exact (surrogate-free) H2 potential never dips below its
    # asymptote at v0 = 0, so the bound subset is empty: the closed form
    # binds only through the small-screening surrogate
    sol = solve_matrix(H2_P, 0, H2.mu, OracleConfig(), 2, PAPER)
    assert len(sol.eigenvalues) == 0
    assert sol.diagnostics


def test_r_must_be_positive():
    with pytest.raises(DomainError):
        wavefunction(0.0, H2_P, H2.mu, 0, 0, PAPER, convention="literal")
    with pytest.raises(DomainError):
        wavefunction(-1.0, H2_P, H2.mu, 0, 0, PAPER, convention="literal")


def test_unknown_convention_rejected():
    with pytest.raises(DomainError):
        wavefunction(1.0, H2_P, H2.mu, 0, 0, PAPER, convention="standard")
