"""Verification suites behind ``hyiqp check``.

Each suite returns a list of named pass/fail results so the CLI can print
one line per assertion and exit nonzero on the first failure.  The suites
are the library's hard guarantees, computed here and nowhere else (the
acceptance tests assert on ``run_suite``):

* reduction: zeroed parameter subsets reproduce the named limits exactly;
* hft: closed-form derivatives agree with complex-step derivatives of the
  energy code to rounding level;
* nu: the quantization residual vanishes and the bound-state condition
  fails at exactly the documented cutoff states; wave functions normalize
  and the orthodox convention carries n nodes;
* oracle: grid calibration against closed-form boxes and the hydrogenic
  limit, dual-method agreement on the screened-well anchor, and
  Hellmann-Feynman checks in A, B and mu done entirely numerically.

The screened-well anchor (V0=2, alpha=0.05, mu=1, l=0, hbar=1) is the one
configuration where the closed form is exact, so it pins the oracle's
accuracy: the inner wall must sit at r_min = 1e-7 (eigenvalue shift
~|u'(0)|^2 r_min / 2mu) and r_max = 1.1 keeps the central-difference error
below the dual-method tolerance at 20000 points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import PAPER, BUILTIN_MOLECULES, hbar2_over_2mu
from .hft import d_energy_d_param
from .oracle import (OracleConfig, expectation_numeric, solve_matrix,
                     solve_numerov)
from .potential import (PotentialParams, greene_aldrich_inv_r, hulthen,
                        inverse_quadratic, potential, yukawa)
from .spectrum import (count_sign_changes, energy, energy_hulthen, energy_iqp,
                       energy_yukawa, normalization_constant, wavefunction)

SWEEP_N = range(5)
SWEEP_L = range(5)

# the construction's own bound-state condition tau' < 0 fails at exactly
# these sweep states (its finite-bound-spectrum cutoff), in sweep order
KNOWN_BOUND_CUTOFF = [("H2", 4, 0), ("H2", 4, 1), ("LiH", 4, 0), ("LiH", 4, 1)]

ANCHOR = PotentialParams(v0=2.0, a=0.0, b=0.0, c=0.0, alpha=0.05)
ANCHOR_MU = 1.0
ANCHOR_CFG = OracleConfig(r_min=1e-7, r_max=1.1, n_points=20000)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _result(name, ok, detail=""):
    return CheckResult(name=name, ok=bool(ok), detail=detail)


def check_reduction(constants=PAPER) -> list[CheckResult]:
    results = []
    r = np.geomspace(0.05, 30.0, 64)

    p_h = PotentialParams(v0=3.0, a=0.0, b=0.0, c=0.0, alpha=0.4)
    dev_h = np.max(np.abs(potential(r, p_h) - hulthen(r, 3.0, 0.4)))
    results.append(_result("potential-limit-hulthen", dev_h == 0.0, f"max|dev|={dev_h:g}"))

    p_y = PotentialParams(v0=0.0, a=1.2, b=0.0, c=0.0, alpha=0.4)
    dev_y = np.max(np.abs(potential(r, p_y) - yukawa(r, 1.2, 0.4)))
    results.append(_result("potential-limit-yukawa", dev_y == 0.0, f"max|dev|={dev_y:g}"))

    p_q = PotentialParams(v0=0.0, a=0.0, b=1.9426, c=0.0, alpha=0.4)
    dev_q = np.max(np.abs(potential(r, p_q) - inverse_quadratic(r, 1.9426)))
    results.append(_result("potential-limit-inverse-quadratic", dev_q == 0.0,
                           f"max|dev|={dev_q:g}"))

    worst = 0.0
    for mol in BUILTIN_MOLECULES.values():
        for n in range(6):
            for l in range(6):
                e_h = energy_hulthen(2.0, mol.alpha, mol.mu, n, l, constants)
                full = energy(PotentialParams(2.0, 0.0, 0.0, 0.0, mol.alpha),
                              mol.mu, n, l, constants).energy
                worst = max(worst, abs(e_h - full) / max(1.0, abs(full)))
                e_y = energy_yukawa(mol.a, mol.alpha, mol.mu, n, l, constants)
                full = energy(PotentialParams(0.0, mol.a, 0.0, 0.0, mol.alpha),
                              mol.mu, n, l, constants).energy
                worst = max(worst, abs(e_y - full) / max(1.0, abs(full)))
                e_q = energy_iqp(mol.b, mol.alpha, mol.mu, n, l, constants)
                full = energy(PotentialParams(0.0, 0.0, mol.b, 0.0, mol.alpha),
                              mol.mu, n, l, constants).energy
                worst = max(worst, abs(e_q - full) / max(1.0, abs(full)))
    results.append(_result("energy-reduction-closure", worst <= 1e-12,
                           f"worst rel dev={worst:.2e} (tol 1e-12)"))

    square_ok = all(math.sqrt(4.0 * l * (l + 1) + 1.0) == 2.0 * l + 1.0
                    for l in range(21))
    results.append(_result("perfect-square-identity", square_ok, "l <= 20, exact"))

    e0 = energy(PotentialParams(0.0, 0.0, 0.0, 0.0, 0.5), 1.0, 0, 0, PAPER).energy
    results.append(_result("collapsed-energy", e0 == -0.125, f"E={e0!r} (expect -0.125)"))

    # the 1/r surrogate is implemented with its stated mixed exponents
    # (exp(-a r) over 1 - exp(-2 a r)); quantify both that form and the
    # e^(-2 a r)-numerator companion against the exact 1/r, deciding nothing
    alpha = 0.5
    rq = np.linspace(0.1, 1.0, 400) / alpha
    stated = np.max(np.abs(rq * greene_aldrich_inv_r(rq, alpha) - 1.0))
    companion = np.max(np.abs(
        rq * 2.0 * alpha * np.exp(-2 * alpha * rq) / (1 - np.exp(-2 * alpha * rq)) - 1.0))
    results.append(_result(
        "inv-r-surrogate-quantified",
        np.isfinite(stated) and np.isfinite(companion) and stated != companion,
        f"sup|r*f - 1| on alpha*r in [0.1, 1]: stated form {stated:.4f}, "
        f"e^-2ar companion {companion:.4f} (measured, not adjudicated)"))
    return results


def check_hft(constants=PAPER) -> list[CheckResult]:
    worst_gap = 0.0
    worst_state = ""
    for mol in BUILTIN_MOLECULES.values():
        p = PotentialParams.from_molecule(mol)
        for n in SWEEP_N:
            for l in SWEEP_L:
                for which in ("l", "A", "mu"):
                    d = d_energy_d_param(p, mol.mu, n, l, which, constants)
                    if d.rel_gap > worst_gap:
                        worst_gap = d.rel_gap
                        worst_state = f"{mol.name} n={n} l={l} q={which}"
    return [_result("hft-derivative-agreement", worst_gap <= 1e-12,
                    f"worst rel gap={worst_gap:.2e} at {worst_state} (tol 1e-12)")]


def check_nu(constants=PAPER) -> list[CheckResult]:
    results = []
    worst_res = 0.0
    flagged = []
    for mol in BUILTIN_MOLECULES.values():
        p = PotentialParams.from_molecule(mol)
        for n in SWEEP_N:
            for l in SWEEP_L:
                res = energy(p, mol.mu, n, l, constants)
                worst_res = max(worst_res, res.nu_residual)
                if not res.bound_condition_ok:
                    flagged.append((mol.name, n, l))
    results.append(_result("nu-quantization-residual", worst_res <= 1e-10,
                           f"worst |lambda - lambda_n|={worst_res:.2e} (tol 1e-10)"))
    states = ", ".join(f"{name}(n={n},l={l})" for name, n, l in flagged)
    results.append(_result(
        "nu-bound-condition",
        flagged == KNOWN_BOUND_CUTOFF,
        ("tau' < 0 everywhere" if not flagged else
         f"tau' >= 0 flagged (model's own bound cutoff) at: {states}"),
    ))

    norm_ok = True
    detail = ""
    for name in ("H2", "CO"):
        mol = BUILTIN_MOLECULES[name.lower()]
        p = PotentialParams.from_molecule(mol)
        for conv in ("literal", "orthodox"):
            for n, l in ((0, 0), (2, 1)):
                total = _norm_recheck(p, mol.mu, n, l, constants, conv)
                if abs(total - 1.0) > 1e-6:
                    norm_ok = False
                    detail = f"{name} n={n} l={l} {conv}: integral={total!r}"
    results.append(_result("wavefunction-normalization", norm_ok,
                           detail or "re-integrated to 1 within 1e-6"))

    nodes_ok = True
    detail = ""
    mol = BUILTIN_MOLECULES["h2"]
    p = PotentialParams.from_molecule(mol)
    r = np.linspace(1e-3, 40.0, 40001)
    for n in range(5):
        psi = wavefunction(r, p, mol.mu, n, 0, constants, normalized=False,
                           convention="orthodox")
        got = count_sign_changes(psi)
        if got != n:
            nodes_ok = False
            detail = f"H2 n={n} l=0 orthodox: {got} sign changes"
    results.append(_result("orthodox-node-counts", nodes_ok,
                           detail or "n sign changes for H2 l=0, n <= 4"))
    return results


def _norm_recheck(p, mu, n, l, constants, convention):
    """N^2 times the integral of psi^2 over (0, r_max), re-done on the r axis.

    Composite 20-point Gauss-Legendre on 200 equal panels: numpy only, and
    independent of the Gauss-Jacobi nodes in x = 1 - 2 exp(-2 alpha r) that
    normalization_constant sums over.  At r_max, s^(2 sqrtP) is below 1e-18
    and ten screening lengths have been added.
    """
    res_norm = normalization_constant(p, mu, n, l, constants, convention)
    sqrt_p = abs(energy(p, mu, n, l, constants).root)
    r_max = 1.5 * 12.0 * math.log(10.0) / (4.0 * p.alpha * sqrt_p) + 10.0 / p.alpha
    nodes, weights = np.polynomial.legendre.leggauss(20)
    half = 0.5 * r_max / 200
    r = np.linspace(0.0, r_max, 201)[:-1, None] + half * (1.0 + nodes)
    psi = wavefunction(r, p, mu, n, l, constants, normalized=False,
                       convention=convention)
    return float(np.sum(psi**2 @ weights) * half) * res_norm**2


def _anchor_slope(name, step, k_states, constants):
    """Central difference of the anchor's lowest levels in mu or one potential strength."""
    base = ANCHOR_MU if name == "mu" else getattr(ANCHOR, name)
    values = (base + step, base - step)
    levels = []
    for value in values:
        p, mu = (ANCHOR, value) if name == "mu" else (replace(ANCHOR, **{name: value}), ANCHOR_MU)
        levels.append(solve_matrix(p, 0, mu, ANCHOR_CFG, k_states, constants).eigenvalues)
    return (levels[0] - levels[1]) / (values[0] - values[1])


def check_oracle(constants=PAPER) -> list[CheckResult]:
    results = []

    # particle in a box: V = 0 on (0, L), closed-form levels
    box_p = PotentialParams(v0=0.0, a=0.0, b=0.0, c=0.0, alpha=1.0)
    cfg = OracleConfig(r_min=1e-9, r_max=1.0, n_points=20000)
    sol = solve_matrix(box_p, 0, 1.0, cfg, 5, constants, below_asymptote_only=False)
    worst = 0.0
    for k in range(5):
        exact = hbar2_over_2mu(1.0, constants) * ((k + 1) * math.pi / 1.0) ** 2
        worst = max(worst, abs(sol.eigenvalues[k] - exact) / exact)
    results.append(_result("box-calibration", worst <= 1e-3,
                           f"worst rel err={worst:.2e} (tol 1e-3, k <= 5)"))

    # grid convergence order on the anchor ground state
    es = []
    for n_points in (2500, 5000, 10000):
        c = OracleConfig(r_min=ANCHOR_CFG.r_min, r_max=ANCHOR_CFG.r_max,
                         n_points=n_points)
        es.append(solve_matrix(ANCHOR, 0, ANCHOR_MU, c, 1, constants).eigenvalues[0])
    order = math.log2(abs((es[0] - es[1]) / (es[1] - es[2])))
    results.append(_result("grid-convergence-order", 1.8 <= order <= 2.2,
                           f"observed order={order:.3f} (expect [1.8, 2.2])"))

    # hydrogenic limit: weak-screening Yukawa approaches -mu A^2 / 2 hbar^2
    hyd = PotentialParams(v0=0.0, a=1.0, b=0.0, c=0.0, alpha=1e-4)
    sol_h = solve_matrix(hyd, 0, 1.0, OracleConfig(r_min=1e-6, r_max=40.0,
                                                   n_points=20000),
                         1, constants, below_asymptote_only=False)
    e_h = sol_h.eigenvalues[0]
    rel_h = abs(e_h + 0.5) / 0.5
    results.append(_result("hydrogenic-limit", rel_h <= 0.01,
                           f"E0={e_h:.6f} vs -1/2, rel={rel_h:.2e} (tol 1%)"))

    # screened-well anchor: closed form is exact at l = 0
    e_exact = energy_hulthen(2.0, 0.05, 1.0, 0, 0, PAPER)
    sol_a = solve_matrix(ANCHOR, 0, ANCHOR_MU, ANCHOR_CFG, 3, constants)
    rel_matrix = abs(sol_a.eigenvalues[0] - e_exact) / abs(e_exact)
    results.append(_result("anchor-analytic-vs-matrix", rel_matrix <= 1e-4,
                           f"rel={rel_matrix:.2e} (tol 1e-4)"))

    # bracketed halfway to the exact neighbouring levels, not by the matrix
    e_next = energy_hulthen(2.0, 0.05, 1.0, 1, 0, PAPER)
    bracket = ((3.0 * e_exact - e_next) / 2.0, (e_exact + e_next) / 2.0)
    num = solve_numerov(ANCHOR, 0, ANCHOR_MU, ANCHOR_CFG, bracket, constants)
    rel_dual = abs(sol_a.eigenvalues[0] - num.energy) / abs(num.energy)
    results.append(_result("anchor-matrix-vs-numerov", rel_dual <= 1e-6,
                           f"rel={rel_dual:.2e} (tol 1e-6)"))
    results.append(_result("anchor-numerov-nodes", num.node_count == 0,
                           f"ground state, {num.node_count} nodes"))
    results.append(_result("anchor-node-counts",
                           sol_a.node_counts == [0, 1, 2],
                           f"node_counts={sol_a.node_counts}"))

    # Hellmann-Feynman done entirely on the grid: quadrature of the screened
    # moment against a finite difference of the matrix eigenvalue under an
    # A-perturbation; no closed-form energy enters anywhere.
    de_da = _anchor_slope("a", 1e-4, 1, constants)[0]
    screened = expectation_numeric(sol_a, 0, "r_m1_screened")
    rel_ind = abs(screened + de_da) / abs(screened)
    results.append(_result("numeric-hft-independence", rel_ind <= 1e-3,
                           f"<e^-ar/r>={screened:.6f} vs -dE/dA={-de_da:.6f}, "
                           f"rel={rel_ind:.2e} (tol 1e-3)"))

    # the same for B, where dE/dB = <r^-2>: the grid eigenvalue's derivative is
    # the discrete mean sum u^2/r^2 / sum u^2 (the trapezoid's half weight at
    # the first grid point puts its mean 1e-3 low)
    de_db = _anchor_slope("b", 1e-5, 2, constants)
    u2 = sol_a.eigenvectors[:2] ** 2
    mean_r_m2 = np.sum(u2 / sol_a.grid**2, axis=1) / np.sum(u2, axis=1)
    rel_b = np.abs(de_db - mean_r_m2) / mean_r_m2
    results.append(_result("numeric-hft-r_m2", np.all(rel_b <= 1e-7),
                           f"<r^-2>={mean_r_m2[0]:.6f} vs dE/dB={de_db[0]:.6f}, "
                           f"worst rel={rel_b.max():.2e} over k <= 1 (tol 1e-7)"))

    # and for mu, where -mu dE/dmu = <T>: the discrete kinetic mean is the
    # level minus sum u^2 V_eff / sum u^2 (the trapezoid's is 5e-6 off)
    de_dmu = _anchor_slope("mu", 1e-5 * ANCHOR_MU, 2, constants)
    kinetic = sol_a.eigenvalues[:2] - np.sum(u2 * sol_a.v_eff, axis=1) / np.sum(u2, axis=1)
    rel_t = np.abs(-ANCHOR_MU * de_dmu - kinetic) / np.abs(kinetic)
    results.append(_result("numeric-hft-kinetic", np.all(rel_t <= 1e-8),
                           f"<T>={kinetic[0]:.6f} vs -mu dE/dmu={-ANCHOR_MU * de_dmu[0]:.6f}, "
                           f"worst rel={rel_t.max():.2e} over k <= 1 (tol 1e-8)"))

    pos_ok = all(expectation_numeric(sol_a, k, "r_m2") > 0.0
                 and expectation_numeric(sol_a, k, "p2") > 0.0
                 for k in range(len(sol_a.eigenvalues)))
    results.append(_result("numeric-positivity", pos_ok,
                           "<r^-2> and <p^2> positive for every bound state"))

    # the H2 parameters have no true bound state below C at v0 = 0: the
    # exact well never dips under the asymptote, so the bound subset is
    # empty and the solver must say so
    h2 = BUILTIN_MOLECULES["h2"]
    sol_h2 = solve_matrix(PotentialParams.from_molecule(h2), 0, h2.mu,
                          OracleConfig(), 1, constants)
    results.append(_result("unbound-molecule-diagnostic",
                           len(sol_h2.eigenvalues) == 0 and bool(sol_h2.diagnostics),
                           "; ".join(sol_h2.diagnostics) or "missing diagnostic"))
    return results


SUITES = {
    "reduction": check_reduction,
    "hft": check_hft,
    "nu": check_nu,
    "oracle": check_oracle,
}


def run_suite(name: str, constants=PAPER) -> list[CheckResult]:
    """Run one suite (or ``all``) and return every assertion result."""
    if name == "all":
        out = []
        for key in ("reduction", "hft", "nu", "oracle"):
            out.extend(SUITES[key](constants))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{tuple(SUITES)} or 'all'")
    return SUITES[name](constants)
