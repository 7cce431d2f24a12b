import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hyiqp import oracle
from hyiqp.constants import PAPER, PHYSICAL, get_molecule, hbar2_over_2mu
from hyiqp.errors import ConvergenceError, DomainError
from hyiqp.oracle import (EIG_TOL, ISOLATION_TOL, NumerovResult, OracleConfig, _lapack, _level_counter,
                          _nonpositive_pivots, _rayleigh_quotient, default_config,
                          exact_problem, expectation_numeric, solve_matrix, solve_numerov)
from hyiqp.potential import PotentialParams, effective_potential

ANCHOR = PotentialParams(v0=2.0, a=0.0, b=0.0, c=0.0, alpha=0.05)
ANCHOR_CFG = OracleConfig(r_min=1e-7, r_max=1.1, n_points=20000)
BOX = PotentialParams(v0=0.0, a=0.0, b=0.0, c=0.0, alpha=1.0)
BOX_CFG = OracleConfig(r_min=1e-9, r_max=1.0, n_points=20000)


def hulthen_exact(n, v0=2.0, alpha=0.05, mu=1.0):
    """Independent screened-well spectrum: delta = 2 alpha, m = n + 1."""
    delta = 2 * alpha
    m = n + 1
    return -(1.0 / (2 * mu)) * (mu * v0 / (delta * m) - delta * m / 2) ** 2


def test_config_validation():
    with pytest.raises(DomainError):
        OracleConfig(r_min=0.0, r_max=1.0)
    with pytest.raises(DomainError):
        OracleConfig(r_min=2.0, r_max=1.0)
    with pytest.raises(DomainError):
        OracleConfig(n_points=500)


def test_default_config_scales_with_screening():
    cfg = default_config(0.20990)
    assert cfg.r_max == pytest.approx(40.0, rel=1e-12)
    assert default_config(0.05).r_max == pytest.approx(40.0 * 0.20990 / 0.05, rel=1e-12)
    assert cfg.n_points == 20000


def test_box_levels_match_closed_form():
    # V = 0 on (0, 1): E_k = (hbar^2/2mu) (k pi / L)^2
    sol = solve_matrix(BOX, 0, 1.0, BOX_CFG, 5, PAPER, below_asymptote_only=False)
    for k in range(5):
        exact = hbar2_over_2mu(1.0, PAPER) * ((k + 1) * math.pi) ** 2
        assert sol.eigenvalues[k] == pytest.approx(exact, rel=1e-3)
    assert sol.node_counts == [0, 1, 2, 3, 4]


def test_box_kinetic_equals_energy_exactly():
    sol = solve_matrix(BOX, 0, 1.0, BOX_CFG, 2, PAPER, below_asymptote_only=False)
    for k in range(2):
        assert expectation_numeric(sol, k, "kinetic") == sol.eigenvalues[k]


def test_anchor_matrix_matches_exact_spectrum():
    sol = solve_matrix(ANCHOR, 0, 1.0, ANCHOR_CFG, 3, PAPER)
    assert sol.eigenvalues[0] == pytest.approx(hulthen_exact(0), rel=1e-4)
    assert sol.eigenvalues[1] == pytest.approx(hulthen_exact(1), rel=1e-4)
    assert sol.node_counts == [0, 1, 2]
    assert np.all(np.diff(sol.eigenvalues) > 0)


def test_anchor_eigenvectors_are_normalized():
    # the full-grid trapezoid with u = 0 at both walls
    sol = solve_matrix(ANCHOR, 0, 1.0, ANCHOR_CFG, 3, PAPER)
    h = sol.grid[1] - sol.grid[0]
    for u in sol.eigenvectors:
        assert h * np.sum(u * u) == pytest.approx(1.0, rel=1e-14)


def _operator(p, l, mu, cfg, constants):
    """V_eff and c of solve_matrix's Hamiltonian tridiag(-c, 2c + V_eff, -c)."""
    full = np.linspace(cfg.r_min, cfg.r_max, cfg.n_points)
    r, h = full[1:-1], full[1] - full[0]
    return effective_potential(r, p, l, mu, constants), hbar2_over_2mu(mu, constants) / h**2


def test_matrix_levels_are_the_exact_grid_eigenvalues():
    # Sturm-count bisection at 30 digits of the grid operator, its diagonal
    # 2c + V_eff summed exactly as the Rayleigh quotient takes it (rounding
    # that sum to double moves a molecule level by up to 2e-12 at 20000
    # points); a bisection to EIG_TOL was 2e-12 and 2e-11 off here
    cfg = OracleConfig(r_min=1e-7, r_max=1.1, n_points=5000)
    sol = solve_matrix(ANCHOR, 0, 1.0, cfg, 2, PAPER)
    v_eff, c = _operator(ANCHOR, 0, 1.0, cfg, PAPER)
    with mpmath.workdps(30):
        d = [2 * mpmath.mpf(c) + mpmath.mpf(float(v)) for v in v_eff]
        c2 = mpmath.mpf(c) ** 2

        def count(x):
            below, q = 0, None
            for di in d:
                q = di - x if q is None else di - x - c2 / q
                below += q < 0
            return below

        for k, level in enumerate(sol.eigenvalues):
            lo, hi = mpmath.mpf(level) - 1e-7, mpmath.mpf(level) + 1e-7
            assert (count(lo), count(hi)) == (k, k + 1)
            while hi - lo > 1e-14 * abs(level):
                mid = (lo + hi) / 2
                lo, hi = (lo, mid) if count(mid) > k else (mid, hi)
            assert abs(level - (lo + hi) / 2) <= 1e-13 * abs(level)


def test_numerov_agrees_with_matrix_on_anchor():
    sol = solve_matrix(ANCHOR, 0, 1.0, ANCHOR_CFG, 1, PAPER)
    e0 = sol.eigenvalues[0]
    res = solve_numerov(ANCHOR, 0, 1.0, ANCHOR_CFG, (e0 - 0.02, e0 + 0.02), PAPER)
    assert isinstance(res, NumerovResult)
    assert abs(e0 - res.energy) / abs(res.energy) <= 1e-6
    assert res.node_count == 0


def test_numerov_excited_state_node_count():
    sol = solve_matrix(ANCHOR, 0, 1.0, ANCHOR_CFG, 2, PAPER)
    e1 = sol.eigenvalues[1]
    res = solve_numerov(ANCHOR, 0, 1.0, ANCHOR_CFG, (e1 - 0.02, e1 + 0.02), PAPER)
    assert res.node_count == 1
    assert abs(e1 - res.energy) / abs(res.energy) <= 1e-6


def test_dual_method_gap_shrinks_at_second_order():
    # the matrix error dominates the gap, so halving h cuts it ~4x
    gaps = []
    for n_points in (5000, 10000):
        cfg = OracleConfig(r_min=1e-7, r_max=1.1, n_points=n_points)
        sol = solve_matrix(ANCHOR, 0, 1.0, cfg, 1, PAPER)
        res = solve_numerov(ANCHOR, 0, 1.0, cfg,
                            (sol.eigenvalues[0] - 0.1, sol.eigenvalues[0] + 0.1), PAPER)
        gaps.append(abs(sol.eigenvalues[0] - res.energy))
    ratio = gaps[0] / gaps[1]
    assert 3.0 <= ratio <= 5.0


def test_numerov_requires_sign_change():
    with pytest.raises(ConvergenceError, match="holds 0 Numerov levels"):
        solve_numerov(ANCHOR, 0, 1.0, ANCHOR_CFG, (-5.0, -4.0), PAPER)


def test_numerov_converges_in_the_default_window():
    # the solution grows by ~e^2500 across the 40 A forbidden tail; the count
    # takes LDL^T pivots, ratios of consecutive terms, which stay of order 1
    h2 = get_molecule("H2")
    p = PotentialParams.from_molecule(h2, v0=5.0)
    cfg = default_config(h2.alpha)
    e0 = solve_matrix(p, 1, h2.mu, cfg, 1, PHYSICAL).eigenvalues[0]
    res = solve_numerov(p, 1, h2.mu, cfg, (e0 - 0.02, e0 + 0.02), PHYSICAL)
    assert res.node_count == 0
    assert abs(e0 - res.energy) / abs(res.energy) <= 1e-5


def _outward_recurrence(d):
    """Reference: the recurrence y[k+2] = d[k] y[k+1] - y[k] in plain Python."""
    y = np.zeros(d.size + 2)
    y[1] = 1.0
    for k in range(d.size):
        y[k + 2] = d[k] * y[k + 1] - y[k]
    return y


_H2 = get_molecule("H2")
SWEEP_CASES = [
    pytest.param(ANCHOR, 0, 1.0, ANCHOR_CFG, PAPER, k, id=f"anchor-k{k}") for k in range(3)
] + [
    # a 4 A window: from the default 40 A the unscaled reference overflows double range
    pytest.param(PotentialParams.from_molecule(_H2, v0=5.0), 1, _H2.mu,
                 OracleConfig(r_min=1e-4, r_max=4.0, n_points=20000), PHYSICAL, 0,
                 id="H2-physical-l1-v0-5"),
]


def _sign_changes(y):
    return int(np.count_nonzero(np.diff(np.signbit(y))))


@pytest.mark.parametrize("p, l, mu, cfg, constants, k", SWEEP_CASES)
def test_level_count_matches_the_recurrence(p, l, mu, cfg, constants, k):
    # in the +-0.02 bracket around level k: its ends, the level, and the upper
    # ends the bisection visits; at anchor-k2's e_k + 0.02/32 the last failed
    # pivot falls on the one-row tail
    e_k = solve_matrix(p, l, mu, cfg, k + 1, constants).eigenvalues[k]
    full = np.linspace(cfg.r_min, cfg.r_max, cfg.n_points)
    v_eff = effective_potential(full, p, l, mu, constants)
    step = (full[1] - full[0]) ** 2 / (12.0 * hbar2_over_2mu(mu, constants))
    count = _level_counter(exact_problem(p, l, mu, constants), cfg, e_k - 0.02)
    # the last unresolved point at the lower end
    wall = np.flatnonzero(1.0 + step * (e_k - 0.02 - v_eff) <= 0.0).max(initial=0)
    for e in (e_k - 0.02, e_k, *(e_k + 0.02 / 2**j for j in range(6))):
        w = 1.0 + step * (e - v_eff[wall + 1:-1])
        assert count(e) == _sign_changes(_outward_recurrence(12.0 / w - 10.0))
    assert count(e_k + 0.02) == k + 1


@pytest.mark.parametrize("d, levels", [
    pytest.param([1.0, 1.0, 2.0, 2.0, 2.0, 2.0], 1, id="zero-pivot"),
    pytest.param([1.0, 1.0, -3.0, 2.0, 0.5, 2.0], 2, id="two-zero-pivots"),
    pytest.param([2.0, 2.0, -1.0, -5.0], 2, id="one-row-tail"),
    pytest.param([-1.0], 1, id="one-row"),
    pytest.param([2.0, 2.0, 2.0, 2.0], 0, id="positive-definite"),
])
def test_pivot_count_is_the_inertia(d, levels):
    d = np.array(d)
    matrix = np.diag(d) - np.eye(d.size, k=1) - np.eye(d.size, k=-1)
    assert np.count_nonzero(np.linalg.eigvalsh(matrix) < 0.0) == levels
    assert _sign_changes(_outward_recurrence(d)) == levels
    assert _nonpositive_pivots(d.copy()) == levels


def test_level_count_of_a_box_with_a_thousand_levels():
    # one dpttrf restart per level below e, halfway between continuum levels
    # 1000 and 1001, where the grid's relative error is ~1e-6 of the spacing
    c = hbar2_over_2mu(1.0, PAPER)
    width = BOX_CFG.r_max - BOX_CFG.r_min
    e = c * (1000.5 * np.pi / width) ** 2
    count = _level_counter(exact_problem(BOX, 0, 1.0, PAPER), BOX_CFG, e)
    assert count(e) == 1000
    h = np.linspace(BOX_CFG.r_min, BOX_CFG.r_max, BOX_CFG.n_points)[1] - BOX_CFG.r_min
    w = 1.0 + h * h / (12.0 * c) * e
    d = np.full(BOX_CFG.n_points - 2, 12.0 / w - 10.0)
    assert _sign_changes(_outward_recurrence(d)) == 1000


def test_numerov_starts_past_the_unresolved_inner_wall():
    # h^2 |g| / 12 >= 1 at the grid points next to r_min: w <= 0 there, and
    # their spurious sign changes would shift the count inside the spectrum
    h2 = get_molecule("H2")
    p = PotentialParams.from_molecule(h2, v0=5.719)
    cfg = default_config(h2.alpha)
    levels = solve_matrix(p, 3, h2.mu, cfg, 9, PHYSICAL).eigenvalues
    for k in range(levels.size - 1):
        lo = levels[k] - 0.5 * (levels[k + 1] - levels[k])
        hi = levels[k] + 0.5 * (levels[k + 1] - levels[k])
        res = solve_numerov(p, 3, h2.mu, cfg, (lo, hi), PHYSICAL)
        assert res.node_count == k
        assert abs(levels[k] - res.energy) <= 1e-3 * max(1.0, abs(levels[k]))


@pytest.fixture(scope="module")
def anchor_levels():
    return solve_matrix(ANCHOR, 0, 1.0, ANCHOR_CFG, 3, PAPER).eigenvalues


@pytest.mark.parametrize("lower, upper, pad", [(0, 1, 0.05), (0, 1, 1.0), (1, 2, 0.05)])
def test_numerov_rejects_a_bracket_around_a_mismatch_pole(anchor_levels, lower, upper, pad):
    # a log-derivative mismatch has a pole between neighbouring levels; the
    # node count sees no level there
    bracket = (anchor_levels[lower] + pad, anchor_levels[upper] - pad)
    with pytest.raises(ConvergenceError, match="holds 0 Numerov levels"):
        solve_numerov(ANCHOR, 0, 1.0, ANCHOR_CFG, bracket, PAPER)


def test_numerov_converges_on_a_bracket_reaching_towards_the_next_level(anchor_levels):
    # one level, in a bracket that ends just below the next
    e0, e1 = anchor_levels[0], anchor_levels[1]
    res = solve_numerov(ANCHOR, 0, 1.0, ANCHOR_CFG, (e0 - 0.5, e1 - 0.05), PAPER)
    assert res.node_count == 0
    assert abs(e0 - res.energy) / abs(res.energy) <= 1e-6


def test_numerov_rejects_a_bracket_holding_two_levels(anchor_levels):
    bracket = (anchor_levels[0] - 0.5, anchor_levels[1] + 0.5)
    with pytest.raises(ConvergenceError, match="holds 2 Numerov levels"):
        solve_numerov(ANCHOR, 0, 1.0, ANCHOR_CFG, bracket, PAPER)


@pytest.mark.parametrize("lower", [-3e9, -1e9])
def test_numerov_converges_on_a_bracket_reaching_far_below_the_potential(anchor_levels,
                                                                         lower):
    # the wall and block ends come from min V_eff (about -3.6e5 here), not from
    # the lower end, and the stopping tolerance shrinks with the bracket
    e0 = anchor_levels[0]
    res = solve_numerov(ANCHOR, 0, 1.0, ANCHOR_CFG, (lower, e0 + 0.1), PAPER)
    assert res.node_count == 0
    assert abs(e0 - res.energy) / abs(res.energy) <= 1e-6


# k = 0 and 1 at +-0.02 are covered by the two anchor tests above
@pytest.mark.parametrize("k, pad", [(2, 0.02), (0, 0.1), (0, 5.0)])
def test_numerov_converges_on_a_bracket_around_a_level(anchor_levels, k, pad):
    e = anchor_levels[k]
    res = solve_numerov(ANCHOR, 0, 1.0, ANCHOR_CFG, (e - pad, e + pad), PAPER)
    assert res.node_count == k
    assert abs(e - res.energy) / abs(res.energy) <= 1e-6


def test_numeric_hft_independence():
    # the discrete mean of the screened moment vs a finite difference of the
    # matrix eigenvalue under an A-perturbation; no closed form anywhere
    sol = solve_matrix(ANCHOR, 0, 1.0, ANCHOR_CFG, 1, PAPER)
    h_a = 1e-4
    plus = solve_matrix(PotentialParams(2.0, +h_a, 0.0, 0.0, 0.05), 0, 1.0,
                        ANCHOR_CFG, 1, PAPER)
    minus = solve_matrix(PotentialParams(2.0, -h_a, 0.0, 0.0, 0.05), 0, 1.0,
                         ANCHOR_CFG, 1, PAPER)
    de_da = (plus.eigenvalues[0] - minus.eigenvalues[0]) / (2 * h_a)
    screened = expectation_numeric(sol, 0, "r_m1_screened")
    assert abs(screened + de_da) / abs(screened) <= 1e-8


def test_numeric_observables_positive_and_consistent():
    sol = solve_matrix(ANCHOR, 0, 1.0, ANCHOR_CFG, 3, PAPER)
    for k in range(3):
        r2 = expectation_numeric(sol, k, "r_m2")
        p2 = expectation_numeric(sol, k, "p2")
        t = expectation_numeric(sol, k, "kinetic")
        assert r2 > 0.0
        assert p2 > 0.0
        assert p2 == pytest.approx(2.0 * 1.0 * t, rel=1e-14)


def test_unbound_states_dropped_with_diagnostic():
    h2 = get_molecule("H2")
    p = PotentialParams.from_molecule(h2, v0=0.0)
    sol = solve_matrix(p, 0, h2.mu, OracleConfig(), 2, PAPER)
    assert len(sol.eigenvalues) == 0
    assert len(sol.eigenvectors) == 0
    assert any("asymptote" in d for d in sol.diagnostics)
    # keeping box states restores the Sturm ladder
    sol_all = solve_matrix(p, 0, h2.mu, OracleConfig(), 3, PAPER,
                           below_asymptote_only=False)
    assert sol_all.node_counts == [0, 1, 2]


def test_expectation_numeric_validation():
    sol = solve_matrix(ANCHOR, 0, 1.0, ANCHOR_CFG, 1, PAPER)
    with pytest.raises(DomainError):
        expectation_numeric(sol, 5, "r_m2")
    with pytest.raises(DomainError):
        expectation_numeric(sol, 0, "r_m3")


def test_solve_matrix_validation():
    with pytest.raises(DomainError):
        solve_matrix(ANCHOR, 0, 1.0, ANCHOR_CFG, 0, PAPER)
    # alpha r rounds 1 - exp(-2 alpha r) to 0: the Hulthen term is -inf
    with np.errstate(divide="ignore"), pytest.raises(DomainError, match="not finite"):
        solve_matrix(PotentialParams(1.0, 0.0, 0.0, 0.0, 1e-300), 0, 1.0, ANCHOR_CFG, 1, PAPER)


def _unscreened(p, l, mu, cfg, k_states, constants):
    """Reference: eigh_tridiagonal over all k_states levels, then the < C filter."""
    sol = solve_matrix(p, l, mu, cfg, k_states, constants, below_asymptote_only=False)
    keep = np.nonzero(sol.eigenvalues < p.c)[0]
    sol.eigenvalues = sol.eigenvalues[keep]
    sol.eigenvectors = sol.eigenvectors[keep]
    sol.node_counts = [sol.node_counts[k] for k in keep]
    if keep.size < k_states:
        sol.diagnostics = [
            f"only {keep.size} of {k_states} requested states lie below the asymptote "
            f"C={p.c:.6g}; unbound box states dropped"]
    return sol


def _assert_screen_is_exact(p, l, mu, cfg, k_states, constants):
    sol = solve_matrix(p, l, mu, cfg, k_states, constants)
    ref = _unscreened(p, l, mu, cfg, k_states, constants)
    assert np.array_equal(sol.eigenvalues, ref.eigenvalues)
    assert np.array_equal(sol.eigenvectors, ref.eigenvectors)
    assert sol.node_counts == ref.node_counts
    assert sol.diagnostics == ref.diagnostics
    assert np.array_equal(sol.v_eff, ref.v_eff)


MOLECULES = ("H2", "LiH", "HCl", "CO")


# expect --oracle's spectra: k = 9, l <= 3, the default window and grid
@pytest.mark.parametrize("constants", [PAPER, PHYSICAL], ids=["paper", "physical"])
@pytest.mark.parametrize("name", MOLECULES)
def test_screen_matches_the_unscreened_solve_on_the_molecules(name, constants):
    mol = get_molecule(name)
    cfg = default_config(mol.alpha)
    for v0 in (0.0, 3.0, 5.719, 7.368, 8.0):
        p = PotentialParams.from_molecule(mol, v0=v0)
        for l in range(4):
            _assert_screen_is_exact(p, l, mol.mu, cfg, 9, constants)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(v0=st.floats(0.0, 10.0), l=st.integers(0, 5), physical=st.booleans(),
       name=st.sampled_from(MOLECULES))
def test_screen_matches_the_unscreened_solve_everywhere(v0, l, physical, name):
    mol = get_molecule(name)
    p = PotentialParams.from_molecule(mol, v0=v0)
    _assert_screen_is_exact(p, l, mol.mu, default_config(mol.alpha), 9,
                            PHYSICAL if physical else PAPER)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(v0=st.floats(0.0, 10.0), l=st.integers(0, 3), physical=st.booleans(),
       name=st.sampled_from(MOLECULES))
def test_numerov_count_is_monotone_and_matches_the_matrix(v0, l, physical, name):
    mol = get_molecule(name)
    constants = PHYSICAL if physical else PAPER
    p = PotentialParams.from_molecule(mol, v0=v0)
    cfg = default_config(mol.alpha)
    levels = solve_matrix(p, l, mol.mu, cfg, 9, constants,
                          below_asymptote_only=False).eigenvalues
    # halfway between neighbouring matrix levels, and as far below the lowest
    between = np.append(1.5 * levels[0] - 0.5 * levels[1], 0.5 * (levels[:-1] + levels[1:]))
    count = _level_counter(exact_problem(p, l, mol.mu, constants), cfg, between[0])
    assert [count(e) for e in between] == list(range(between.size))
    counts = [count(e) for e in np.linspace(between[0], between[-1], 41)]
    assert np.all(np.diff(counts) >= 0)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(v0=st.floats(0.0, 10.0), l=st.integers(0, 3), physical=st.booleans(),
       name=st.sampled_from(MOLECULES))
def test_levels_match_a_full_bisection(v0, l, physical, name):
    # bisecting only far enough to isolate each level changes neither which
    # levels lie below C nor where they are, beyond a full bisection's error
    mol = get_molecule(name)
    constants = PHYSICAL if physical else PAPER
    p = PotentialParams.from_molecule(mol, v0=v0)
    cfg = default_config(mol.alpha)
    levels = solve_matrix(p, l, mol.mu, cfg, 9, constants).eigenvalues
    v_eff, c = _operator(p, l, mol.mu, cfg, constants)
    ref = scipy.linalg.eigh_tridiagonal(2.0 * c + v_eff, np.full(v_eff.size - 1, -c),
                                        eigvals_only=True, select="i",
                                        select_range=(0, 8), tol=EIG_TOL)
    ref = ref[ref < p.c]
    assert np.all(np.diff(levels) > 0.0)
    assert levels.size == ref.size
    assert np.all(np.abs(levels - ref) <= 1e-8 * np.maximum(1.0, np.abs(ref)))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(v0=st.floats(0.0, 10.0), l=st.integers(0, 3), physical=st.booleans(),
       name=st.sampled_from(MOLECULES))
def test_r_m2_is_the_derivative_of_the_grid_level_in_b(v0, l, physical, name):
    # Hellmann-Feynman for the matrix: the discrete mean of 1/r^2 is dE/dB of
    # the grid level itself, up to the central difference's error (~1e-10 here)
    mol = get_molecule(name)
    constants = PHYSICAL if physical else PAPER
    p = PotentialParams.from_molecule(mol, v0=v0)
    cfg = default_config(mol.alpha)
    sol = solve_matrix(p, l, mol.mu, cfg, 3, constants)
    step = 1e-5
    up, down = (solve_matrix(dataclasses.replace(p, b=p.b + s), l, mol.mu, cfg, 3, constants,
                             below_asymptote_only=False).eigenvalues for s in (step, -step))
    for k in range(len(sol.eigenvalues)):
        mean = expectation_numeric(sol, k, "r_m2")
        assert abs((up[k] - down[k]) / (2.0 * step) - mean) <= 1e-8 * mean


@settings(max_examples=12, deadline=None, derandomize=True)
@given(v0=st.floats(0.0, 10.0), l=st.integers(0, 3), physical=st.booleans(),
       name=st.sampled_from(MOLECULES))
def test_kinetic_is_the_derivative_of_the_grid_level_in_mu(v0, l, physical, name):
    # <T> = -mu dE/dmu of the grid level, centrifugal mean included at l >= 1
    mol = get_molecule(name)
    constants = PHYSICAL if physical else PAPER
    p = PotentialParams.from_molecule(mol, v0=v0)
    cfg = default_config(mol.alpha)
    sol = solve_matrix(p, l, mol.mu, cfg, 3, constants)
    step = 1e-5 * mol.mu
    up, down = (solve_matrix(p, l, mol.mu + s, cfg, 3, constants,
                             below_asymptote_only=False).eigenvalues for s in (step, -step))
    for k in range(len(sol.eigenvalues)):
        mean = expectation_numeric(sol, k, "kinetic")
        slope = -mol.mu * (up[k] - down[k]) / (2.0 * step)
        # the difference rounds at an ulp or two of E: 1.2e-8 of <T> where <T>
        # is 1.6e-3 of E (HCl physical, V0 = 0), so a few ulps are allowed
        rounding = 4.0 * np.spacing(abs(up[k])) * mol.mu / step
        assert abs(slope - mean) <= 1e-8 * mean + rounding


def _binding_threshold(make, l, mu, cfg, constants, lo, hi):
    """V0 just either side of where the unscreened lowest level crosses C."""
    def level_above_c(v0):
        p = make(v0)
        sol = solve_matrix(p, l, mu, cfg, 1, constants, below_asymptote_only=False)
        return sol.eigenvalues[0] - p.c

    assert level_above_c(lo) > 0.0 > level_above_c(hi)
    while 0.5 * (lo + hi) not in (lo, hi):
        mid = 0.5 * (lo + hi)
        if level_above_c(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    assert abs(level_above_c(lo)) <= 1e-9 and abs(level_above_c(hi)) <= 1e-9
    return lo, hi


_LIH = get_molecule("LiH")
THRESHOLD_CASES = [
    # anchor-like well on a coarse grid, ||H|| ~ 7e6
    pytest.param(lambda v0: PotentialParams(v0, 0.0, 0.0, 0.0, 0.05), 0, 1.0,
                 OracleConfig(r_min=1e-7, r_max=1.1, n_points=2000), PAPER, 0.01, 2.0,
                 id="anchor-like-2000"),
    # LiH in paper mode has the largest ||H|| of the molecule grids, ~ 3e7
    pytest.param(lambda v0: PotentialParams.from_molecule(_LIH, v0=v0), 0, _LIH.mu,
                 default_config(_LIH.alpha), PAPER, 20.0, 40.0, id="LiH-paper-l0"),
]


@pytest.mark.parametrize("make, l, mu, cfg, constants, lo, hi", THRESHOLD_CASES)
def test_screen_is_exact_at_the_binding_threshold(make, l, mu, cfg, constants, lo, hi):
    # the unscreened level sits within 1e-9 of C on both sides; a screen
    # shifted by EIG_TOL alone dropped the bound side's level here
    for v0 in _binding_threshold(make, l, mu, cfg, constants, lo, hi):
        _assert_screen_is_exact(make(v0), l, mu, cfg, 3, constants)


def test_screen_skips_the_eigensolve_when_nothing_is_bound(monkeypatch):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("dstebz called")

    monkeypatch.setattr(_lapack(), "dstebz", no_eigensolve)
    h2 = get_molecule("H2")
    p = PotentialParams.from_molecule(h2, v0=0.0)
    sol = solve_matrix(p, 0, h2.mu, OracleConfig(), 2, PAPER)
    assert sol.eigenvalues.shape == (0,)
    assert sol.eigenvectors.shape == (0, sol.grid.size)
    assert sol.node_counts == []
    assert sol.diagnostics == [
        f"only 0 of 2 requested states lie below the asymptote C={p.c:.6g}; "
        "unbound box states dropped"]
    # a bound spectrum still needs the eigensolve
    with pytest.raises(AssertionError, match="dstebz called"):
        solve_matrix(ANCHOR, 0, 1.0, ANCHOR_CFG, 1, PAPER)


@pytest.mark.parametrize("l, bound", [(0, 5), (1, 5), (2, 4), (3, 3)])
def test_kept_vectors_are_the_leading_vectors_of_a_full_stein_call(l, bound):
    # stein runs only on the shifts that can lie below C; its start vectors
    # and reorthogonalization go in order, so the kept vectors are the
    # leading columns of a call on all nine shifts, bit for bit
    hcl = get_molecule("HCl")
    p = PotentialParams.from_molecule(hcl, v0=4.0)
    cfg = default_config(hcl.alpha)
    sol = solve_matrix(p, l, hcl.mu, cfg, 9, PAPER)
    v_eff, c = _operator(p, l, hcl.mu, cfg, PAPER)
    diag, off = 2.0 * c + v_eff, np.full(v_eff.size - 1, -c)
    m, shifts, iblock, isplit, info = scipy.linalg.lapack.dstebz(
        diag, off, 2, 0.0, 1.0, 1, 9, ISOLATION_TOL * max(1.0, abs(p.c)), "B")
    assert (m, info) == (9, 0)
    vectors, info = scipy.linalg.lapack.dstein(diag, off, shifts[:m], iblock, isplit)
    assert info == 0
    assert len(sol.eigenvalues) == bound
    h = np.linspace(cfg.r_min, cfg.r_max, cfg.n_points)[1] - cfg.r_min
    for k in range(bound):
        u = vectors[:, k]
        assert sol.eigenvalues[k] == _rayleigh_quotient(u, v_eff, c)
        u = u / np.sqrt(h * np.sum(u * u))
        if u[int(np.argmax(np.abs(u)))] < 0.0:
            u = -u
        assert np.array_equal(sol.eigenvectors[k], u)


LAPACK_ROUTINES = ("dpttrf", "dstebz", "dstein")


@pytest.mark.parametrize("scipy_linalg_first", [False, True],
                         ids=["loader-first", "scipy-linalg-first"])
def test_loaded_lapack_routines_are_scipys(scipy_linalg_first):
    # in a fresh process either import order leaves one extension module:
    # the loader registers it under the name scipy.linalg imports it by
    src = Path(__file__).resolve().parents[1] / "src"
    steps = ["import scipy.linalg.lapack\n",
             "from hyiqp.oracle import _lapack\nmodule = _lapack()\n"]
    if not scipy_linalg_first:
        steps.reverse()
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        + "".join(steps) +
        "assert module is sys.modules['scipy.linalg._flapack']\n"
        f"for name in {LAPACK_ROUTINES!r}:\n"
        "    assert getattr(module, name) is getattr(scipy.linalg.lapack, name), name\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_a_missing_lapack_extension_names_the_paths_it_looked_for(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(oracle.importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
    with pytest.raises(ImportError, match=r"linalg[/\\]_flapack\.missing\.so"):
        _lapack()


_HCL = get_molecule("HCl")


@pytest.mark.parametrize("p, l, mu, cfg, k_states", [
    pytest.param(ANCHOR, 0, 1.0, ANCHOR_CFG, 3, id="anchor"),
    *(pytest.param(PotentialParams.from_molecule(_HCL, v0=4.0), l, _HCL.mu,
                   default_config(_HCL.alpha), 9, id=f"HCl-paper-v0-4-l{l}")
      for l in range(4)),
])
def test_solves_equal_those_through_scipy_linalg_lapack(monkeypatch, p, l, mu, cfg, k_states):
    sol = solve_matrix(p, l, mu, cfg, k_states, PAPER)
    monkeypatch.setattr(oracle, "_lapack", lambda: scipy.linalg.lapack)
    ref = solve_matrix(p, l, mu, cfg, k_states, PAPER)
    assert np.array_equal(sol.eigenvalues, ref.eigenvalues)
    assert np.array_equal(sol.eigenvectors, ref.eigenvectors)
    assert sol.node_counts == ref.node_counts


@pytest.mark.parametrize("p, l, mu, cfg, k_states", [
    pytest.param(ANCHOR, 0, 1.0, ANCHOR_CFG, 3, id="anchor"),
    *(pytest.param(PotentialParams.from_molecule(_HCL, v0=4.0), l, _HCL.mu,
                   default_config(_HCL.alpha), 9, id=f"HCl-paper-v0-4-l{l}")
      for l in range(3)),
])
def test_means_are_the_grid_rule_bit_for_bit(p, l, mu, cfg, k_states):
    # each mean recomputed from (p, l, mu, constants) as the module's rule
    # states it, compared with ==: one ulp of drift in any of them fails
    sol = solve_matrix(p, l, mu, cfg, k_states, PAPER)
    r = np.linspace(cfg.r_min, cfg.r_max, cfg.n_points)[1:-1]
    assert np.array_equal(sol.grid, r)
    v_eff = effective_potential(r, p, l, mu, PAPER)
    assert len(sol.eigenvalues) >= 3
    for k, (e, u) in enumerate(zip(sol.eigenvalues, sol.eigenvectors)):
        u2 = u**2
        norm = np.sum(u2)
        r_m2 = float(np.sum(u2 / r**2) / norm)
        kinetic = float(e - np.sum(u2 * v_eff) / norm)
        if l:
            kinetic += hbar2_over_2mu(mu, PAPER) * l * (l + 1) * r_m2
        expected = {"r_m2": r_m2,
                    "r_m1_screened": float(np.sum(u2 * np.exp(-p.alpha * r) / r) / norm),
                    "kinetic": kinetic,
                    "p2": 2.0 * mu * kinetic}     # paper mode: mu is the bare number
        got = {o: expectation_numeric(sol, k, o) for o in expected}
        assert got == expected
        assert all(type(v) is float for v in got.values())
