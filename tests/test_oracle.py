import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hyiqp.constants import PAPER, PHYSICAL, get_molecule, hbar2_over_2mu
from hyiqp.errors import ConvergenceError, DomainError
from hyiqp.oracle import (NumerovResult, OracleConfig, _level_counter,
                          _numerov_sweep, default_config, expectation_numeric,
                          solve_matrix, solve_numerov)
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
    with pytest.raises(DomainError):
        OracleConfig(eig_tol=1e-6)


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
    sol = solve_matrix(ANCHOR, 0, 1.0, ANCHOR_CFG, 3, PAPER)
    for u in sol.eigenvectors:
        assert np.trapezoid(u * u, sol.grid) == pytest.approx(1.0, abs=1e-8)


def _operator(p, l, mu, cfg, constants):
    """V_eff and c of solve_matrix's Hamiltonian tridiag(-c, 2c + V_eff, -c)."""
    full = np.linspace(cfg.r_min, cfg.r_max, cfg.n_points)
    r, h = full[1:-1], full[1] - full[0]
    return effective_potential(r, p, l, mu, constants), hbar2_over_2mu(mu, constants) / h**2


def test_matrix_levels_are_the_exact_grid_eigenvalues():
    # Sturm-count bisection at 30 digits of the grid operator, its diagonal
    # 2c + V_eff summed exactly as the Rayleigh quotient takes it (rounding
    # that sum to double moves a molecule level by up to 2e-12 at 20000
    # points); a bisection to eig_tol was 2e-12 and 2e-11 off here
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
    # the solution grows by ~e^2500 across the 40 A forbidden tail; the
    # blockwise sweep keeps it inside double range
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


@pytest.mark.parametrize("p, l, mu, cfg, constants, k", SWEEP_CASES)
def test_banded_sweeps_match_the_recurrence(p, l, mu, cfg, constants, k):
    e = solve_matrix(p, l, mu, cfg, k + 1, constants).eigenvalues[k]
    full = np.linspace(cfg.r_min, cfg.r_max, cfg.n_points)
    h = full[1] - full[0]
    g = (e - effective_potential(full, p, l, mu, constants)) / hbar2_over_2mu(mu, constants)
    w = 1.0 + (h * h / 12.0) * g
    wall = np.flatnonzero(w <= 0.0).max(initial=0)      # the last unresolved point
    d = 12.0 / w[wall + 1:-1] - 10.0
    ref = _outward_recurrence(d)
    # each block starts from the last pair of the one before, rescaled: undo
    # that positive factor on the stretch up to the next start
    ends = np.append(np.arange(250, d.size + 2, 250), d.size + 2)
    y = _numerov_sweep(d, ends)
    starts = np.append(0, ends[:-1] - 2)
    for start, end in zip(starts, np.append(starts[1:], y.size)):
        i = start + int(np.argmax(np.abs(ref[start:end])))
        assert y[i] / ref[i] > 0.0
        y[start:end] *= ref[i] / y[i]
    # past the outermost turning point rounding grows with the forbidden
    # tail, differently in the two orders of operations
    turn = int(np.nonzero(np.diff(np.sign(g)) != 0)[0][-1]) + 2 - wall
    assert np.max(np.abs(y - ref)[:turn]) <= 1e-10 * np.max(np.abs(ref[:turn]))


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
    # quadrature of the screened moment vs a finite difference of the
    # matrix eigenvalue under an A-perturbation; no closed form anywhere
    sol = solve_matrix(ANCHOR, 0, 1.0, ANCHOR_CFG, 1, PAPER)
    h_a = 1e-4
    plus = solve_matrix(PotentialParams(2.0, +h_a, 0.0, 0.0, 0.05), 0, 1.0,
                        ANCHOR_CFG, 1, PAPER)
    minus = solve_matrix(PotentialParams(2.0, -h_a, 0.0, 0.0, 0.05), 0, 1.0,
                         ANCHOR_CFG, 1, PAPER)
    de_da = (plus.eigenvalues[0] - minus.eigenvalues[0]) / (2 * h_a)
    screened = expectation_numeric(sol, 0, "r_m1_screened")
    assert abs(screened + de_da) / abs(screened) <= 1e-3


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
    count = _level_counter(p, l, mol.mu, cfg, between[0], between[-1], constants)
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
                                        select_range=(0, 8), tol=cfg.eig_tol)
    ref = ref[ref < p.c]
    assert np.all(np.diff(levels) > 0.0)
    assert levels.size == ref.size
    assert np.all(np.abs(levels - ref) <= 1e-8 * np.maximum(1.0, np.abs(ref)))


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
    # shifted by eig_tol alone dropped the bound side's level here
    for v0 in _binding_threshold(make, l, mu, cfg, constants, lo, hi):
        _assert_screen_is_exact(make(v0), l, mu, cfg, 3, constants)


def test_screen_skips_the_eigensolve_when_nothing_is_bound(monkeypatch):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigh_tridiagonal called")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", no_eigensolve)
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
    with pytest.raises(AssertionError, match="eigh_tridiagonal called"):
        solve_matrix(ANCHOR, 0, 1.0, ANCHOR_CFG, 1, PAPER)
