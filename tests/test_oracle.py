import math

import numpy as np
import pytest

from hyiqp.constants import PAPER, PHYSICAL, get_molecule, hbar2_over_2mu
from hyiqp.errors import ConvergenceError, DomainError
from hyiqp.oracle import (NumerovResult, OracleConfig, _numerov_mismatch,
                          _numerov_sweep, default_config, expectation_numeric,
                          solution_to_csv, solve_matrix, solve_numerov)
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
    with pytest.raises(DomainError):
        OracleConfig(method="shooting")


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


def test_hydrogenic_limit_of_weak_screening():
    # Yukawa with alpha = 1e-4 approaches the Coulomb ground state -mu A^2/2
    p = PotentialParams(v0=0.0, a=1.0, b=0.0, c=0.0, alpha=1e-4)
    cfg = OracleConfig(r_min=1e-6, r_max=40.0, n_points=20000)
    sol = solve_matrix(p, 0, 1.0, cfg, 1, PAPER, below_asymptote_only=False)
    assert sol.eigenvalues[0] == pytest.approx(-0.5, rel=0.01)


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
    with pytest.raises(ConvergenceError):
        solve_numerov(ANCHOR, 0, 1.0, ANCHOR_CFG, (-5.0, -4.0), PAPER)


def _recurrence_branches(g, h, match):
    """Reference: the plain-Python Numerov recurrences the banded solves replaced."""
    w = 1.0 + (h * h / 12.0) * g
    n = g.size
    uo = np.zeros(match + 2)
    uo[1] = 1e-12
    for i in range(1, match + 1):
        uo[i + 1] = ((12.0 - 10.0 * w[i]) * uo[i] - w[i - 1] * uo[i - 1]) / w[i + 1]
    ui = np.zeros(n)
    ui[-2] = 1e-12
    for i in range(n - 2, match - 1, -1):
        ui[i - 1] = ((12.0 - 10.0 * w[i]) * ui[i] - w[i + 1] * ui[i + 1]) / w[i - 1]
    return uo, ui


_H2 = get_molecule("H2")
SWEEP_CASES = [
    pytest.param(ANCHOR, 0, 1.0, ANCHOR_CFG, PAPER, k, id=f"anchor-k{k}") for k in range(3)
] + [
    # a 4 A window: from the default 40 A the inward sweep overflows double range
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
    match = int(np.nonzero(np.diff(np.sign(g)) != 0)[0][-1]) + 1
    _val, uo, ui = _numerov_mismatch(g, h, match)
    ref_o, ref_i = _recurrence_branches(g, h, match)
    assert np.max(np.abs(uo - ref_o)) <= 1e-10 * np.max(np.abs(ref_o))
    assert np.max(np.abs(ui - ref_i)) <= 1e-10 * np.max(np.abs(ref_i))


def test_numerov_sweep_raises_on_a_zero_pivot():
    w = np.ones(10)
    w[5] = 0.0
    with pytest.raises(ConvergenceError, match="zero pivot"):
        _numerov_sweep(w)


@pytest.fixture(scope="module")
def anchor_levels():
    return solve_matrix(ANCHOR, 0, 1.0, ANCHOR_CFG, 3, PAPER).eigenvalues


@pytest.mark.parametrize("lower, upper, pad", [(0, 1, 0.05), (0, 1, 1.0), (1, 2, 0.05)])
def test_numerov_rejects_a_bracket_around_a_mismatch_pole(anchor_levels, lower, upper, pad):
    # the mismatch changes sign between neighbouring levels without a root there
    bracket = (anchor_levels[lower] + pad, anchor_levels[upper] - pad)
    with pytest.raises(ConvergenceError, match="pole"):
        solve_numerov(ANCHOR, 0, 1.0, ANCHOR_CFG, bracket, PAPER)


# k = 0 and 1 at +-0.02 are covered by the two anchor tests above
@pytest.mark.parametrize("k, pad", [(2, 0.02), (0, 0.1), (0, 5.0)])
def test_numerov_converges_on_a_bracket_around_a_level(anchor_levels, k, pad):
    e = anchor_levels[k]
    res = solve_numerov(ANCHOR, 0, 1.0, ANCHOR_CFG, (e - pad, e + pad), PAPER)
    assert res.node_count == k
    assert abs(e - res.energy) / abs(res.energy) <= 1e-6


def test_grid_convergence_order_is_two():
    es = []
    for n_points in (2500, 5000, 10000):
        cfg = OracleConfig(r_min=1e-7, r_max=1.1, n_points=n_points)
        es.append(solve_matrix(ANCHOR, 0, 1.0, cfg, 1, PAPER).eigenvalues[0])
    order = math.log2(abs((es[0] - es[1]) / (es[1] - es[2])))
    assert 1.8 <= order <= 2.2


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


def test_solution_csv_dump():
    cfg = OracleConfig(r_min=1e-7, r_max=1.1, n_points=1000)
    sol = solve_matrix(ANCHOR, 0, 1.0, cfg, 2, PAPER)
    text = solution_to_csv(sol)
    lines = text.strip().splitlines()
    assert lines[0] == "r,u0,u1"
    assert len(lines) == 1 + sol.grid.size
    assert float(lines[1].split(",")[0]) == pytest.approx(sol.grid[0], rel=1e-12)
    # dump is deterministic
    assert text == solution_to_csv(sol)
