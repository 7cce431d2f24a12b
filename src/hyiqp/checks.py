"""Verification suites behind ``hyiqp check``.

Each suite returns a list of named pass/fail results so the CLI can print
one line per assertion and exit nonzero on the first failure.  The suites
are the library's hard guarantees, computed here and nowhere else (the
acceptance tests assert on ``run_suite``).  Every suite runs in paper mode
(hbar = 1, bare constants), the unit mode of the reference tables; the
anchor and the cutoff states below are paper-mode facts:

* reduction: zeroed parameter subsets reproduce the named limits exactly,
  and the screened-well limit is the textbook Hulthen spectrum;
* hft: closed-form derivatives agree with complex-step derivatives of the
  energy code to rounding level;
* nu: the quantization residual vanishes and the bound-state condition
  fails at exactly the documented cutoff states; wave functions normalize
  and the orthodox convention carries n nodes;
* oracle: grid calibration against closed-form boxes and the hydrogenic
  limit, dual-method agreement on the screened-well anchor, its grid kinetic
  mean against the closed form, and Hellmann-Feynman checks in A, B and mu
  done entirely numerically.

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
from .oracle import (OracleConfig, count_sign_changes, expectation_numeric,
                     solve_matrix, solve_numerov)
from .potential import (PotentialParams, greene_aldrich_inv_r, hulthen,
                        inverse_quadratic, potential, yukawa)
from .spectrum import (energy, energy_hulthen, energy_iqp, energy_yukawa,
                       normalization_constant, wavefunction)

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


def check_reduction() -> list[CheckResult]:
    results = []
    r = np.geomspace(0.05, 30.0, 64)

    # each named limit is its own formula, so a fault in either side shows
    for name, p_limit, limit in (
            ("hulthen", PotentialParams(3.0, 0.0, 0.0, 0.0, 0.4), hulthen(r, 3.0, 0.4)),
            ("yukawa", PotentialParams(0.0, 1.2, 0.0, 0.0, 0.4), yukawa(r, 1.2, 0.4)),
            ("inverse-quadratic", PotentialParams(0.0, 0.0, 1.9426, 0.0, 0.4),
             inverse_quadratic(r, 1.9426))):
        dev = np.max(np.abs(potential(r, p_limit) - limit))
        results.append(_result(f"potential-limit-{name}", dev == 0.0, f"max|dev|={dev:g}"))

    worst = worst_textbook = 0.0
    for mol in BUILTIN_MOLECULES.values():
        for n in range(6):
            for l in range(6):
                e_hulthen = energy_hulthen(2.0, mol.alpha, mol.mu, n, l, PAPER)
                # the textbook screened-well level at V0 = 2: delta = 2 alpha, m = n + l + 1
                dm = 2.0 * mol.alpha * (n + l + 1)
                textbook = -(mol.mu * 2.0 / dm - dm / 2.0) ** 2 / (2.0 * mol.mu)
                worst_textbook = max(worst_textbook,
                                     abs(e_hulthen - textbook) / max(1.0, abs(textbook)))
                for e_limit, p_limit in (
                        (e_hulthen, PotentialParams(2.0, 0.0, 0.0, 0.0, mol.alpha)),
                        (energy_yukawa(mol.a, mol.alpha, mol.mu, n, l, PAPER),
                         PotentialParams(0.0, mol.a, 0.0, 0.0, mol.alpha)),
                        (energy_iqp(mol.b, mol.alpha, mol.mu, n, l, PAPER),
                         PotentialParams(0.0, 0.0, mol.b, 0.0, mol.alpha))):
                    full = energy(p_limit, mol.mu, n, l, PAPER).energy
                    worst = max(worst, abs(e_limit - full) / max(1.0, abs(full)))
    results.append(_result("energy-reduction-closure", worst <= 1e-12,
                           f"worst rel dev={worst:.2e} (tol 1e-12)"))

    results.append(_result(
        "hulthen-textbook-spectrum", worst_textbook <= 1e-12,
        f"worst rel dev={worst_textbook:.2e} from -(1/2mu)(mu V0/(delta m) - delta m/2)^2 "
        "(tol 1e-12)"))

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


def check_hft() -> list[CheckResult]:
    worst_gap = 0.0
    worst_state = ""
    for mol in BUILTIN_MOLECULES.values():
        p = PotentialParams.from_molecule(mol)
        for n in SWEEP_N:
            for l in SWEEP_L:
                for which in ("l", "A", "mu"):
                    d = d_energy_d_param(p, mol.mu, n, l, which, PAPER)
                    if d.rel_gap > worst_gap:
                        worst_gap = d.rel_gap
                        worst_state = f"{mol.name} n={n} l={l} q={which}"
    return [_result("hft-derivative-agreement", worst_gap <= 1e-12,
                    f"worst rel gap={worst_gap:.2e} at {worst_state} (tol 1e-12)")]


def check_nu() -> list[CheckResult]:
    results = []
    worst_res = 0.0
    flagged = []
    for mol in BUILTIN_MOLECULES.values():
        p = PotentialParams.from_molecule(mol)
        for n in SWEEP_N:
            for l in SWEEP_L:
                res = energy(p, mol.mu, n, l, PAPER)
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
                total = _norm_recheck(p, mol.mu, n, l, conv)
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
        psi = wavefunction(r, p, mol.mu, n, 0, PAPER, normalized=False,
                           convention="orthodox")
        got = count_sign_changes(psi)
        if got != n:
            nodes_ok = False
            detail = f"H2 n={n} l=0 orthodox: {got} sign changes"
    results.append(_result("orthodox-node-counts", nodes_ok,
                           detail or "n sign changes for H2 l=0, n <= 4"))
    return results


def _norm_recheck(p, mu, n, l, convention):
    """N^2 times the integral of psi^2 over (0, r_max), re-done on the r axis.

    Composite 20-point Gauss-Legendre on 200 equal panels: numpy only, and
    independent of the Gauss-Jacobi nodes in x = 1 - 2 exp(-2 alpha r) that
    normalization_constant sums over.  At r_max, s^(2 sqrtP) is below 1e-18
    and ten screening lengths have been added.
    """
    res_norm = normalization_constant(p, mu, n, l, PAPER, convention)
    sqrt_p = abs(energy(p, mu, n, l, PAPER).root)
    r_max = 1.5 * 12.0 * math.log(10.0) / (4.0 * p.alpha * sqrt_p) + 10.0 / p.alpha
    nodes, weights = np.polynomial.legendre.leggauss(20)
    half = 0.5 * r_max / 200
    r = np.linspace(0.0, r_max, 201)[:-1, None] + half * (1.0 + nodes)
    psi = wavefunction(r, p, mu, n, l, PAPER, normalized=False,
                       convention=convention)
    return float(np.sum(psi**2 @ weights) * half) * res_norm**2


def _anchor_slope(name, step, k_states):
    """Central difference of the anchor's lowest levels in mu or one potential strength."""
    base = ANCHOR_MU if name == "mu" else getattr(ANCHOR, name)
    values = (base + step, base - step)
    levels = []
    for value in values:
        p, mu = (ANCHOR, value) if name == "mu" else (replace(ANCHOR, **{name: value}), ANCHOR_MU)
        levels.append(solve_matrix(p, 0, mu, ANCHOR_CFG, k_states, PAPER).eigenvalues)
    return (levels[0] - levels[1]) / (values[0] - values[1])


def check_oracle() -> list[CheckResult]:
    results = []

    # particle in a box: V = 0 on (0, L), closed-form levels
    box_p = PotentialParams(v0=0.0, a=0.0, b=0.0, c=0.0, alpha=1.0)
    cfg = OracleConfig(r_min=1e-9, r_max=1.0, n_points=20000)
    sol = solve_matrix(box_p, 0, 1.0, cfg, 5, PAPER, below_asymptote_only=False)
    worst = 0.0
    for k in range(5):
        exact = hbar2_over_2mu(1.0, PAPER) * ((k + 1) * math.pi / 1.0) ** 2
        worst = max(worst, abs(sol.eigenvalues[k] - exact) / exact)
    results.append(_result("box-calibration", worst <= 1e-6,
                           f"worst rel err={worst:.2e} (tol 1e-6, k <= 5)"))

    # grid convergence order on the anchor ground state
    es = []
    for n_points in (2500, 5000, 10000):
        c = replace(ANCHOR_CFG, n_points=n_points)
        es.append(solve_matrix(ANCHOR, 0, ANCHOR_MU, c, 1, PAPER).eigenvalues[0])
    order = math.log2(abs((es[0] - es[1]) / (es[1] - es[2])))
    results.append(_result("grid-convergence-order", 1.8 <= order <= 2.2,
                           f"observed order={order:.3f} (expect [1.8, 2.2])"))

    # hydrogenic limit: weak-screening Yukawa approaches -mu A^2 / 2 hbar^2
    hyd = PotentialParams(v0=0.0, a=1.0, b=0.0, c=0.0, alpha=1e-4)
    sol_h = solve_matrix(hyd, 0, 1.0, OracleConfig(r_min=1e-6, r_max=40.0,
                                                   n_points=20000), 1, PAPER)
    e_h = sol_h.eigenvalues[0]
    rel_h = abs(e_h + 0.5) / 0.5
    results.append(_result("hydrogenic-limit", rel_h <= 1e-3,
                           f"E0={e_h:.6f} vs -1/2, rel={rel_h:.2e} (tol 1e-3)"))

    # screened-well anchor: closed form is exact at l = 0
    e_exact, e_next = (energy_hulthen(ANCHOR.v0, ANCHOR.alpha, ANCHOR_MU, k, 0, PAPER)
                       for k in (0, 1))
    sol_a = solve_matrix(ANCHOR, 0, ANCHOR_MU, ANCHOR_CFG, 3, PAPER)
    rel_matrix = abs(sol_a.eigenvalues[0] - e_exact) / abs(e_exact)
    results.append(_result("anchor-analytic-vs-matrix", rel_matrix <= 1e-4,
                           f"rel={rel_matrix:.2e} (tol 1e-4)"))

    # bracketed halfway to the exact neighbouring levels, not by the matrix
    bracket = ((3.0 * e_exact - e_next) / 2.0, (e_exact + e_next) / 2.0)
    num = solve_numerov(ANCHOR, 0, ANCHOR_MU, ANCHOR_CFG, bracket, PAPER)
    rel_dual = abs(sol_a.eigenvalues[0] - num.energy) / abs(num.energy)
    results.append(_result("anchor-matrix-vs-numerov", rel_dual <= 1e-6,
                           f"rel={rel_dual:.2e} (tol 1e-6)"))
    results.append(_result("anchor-numerov-nodes", num.node_count == 0,
                           f"ground state, {num.node_count} nodes"))
    results.append(_result("anchor-node-counts",
                           sol_a.node_counts == [0, 1, 2],
                           f"node_counts={sol_a.node_counts}"))

    # Hellmann-Feynman done entirely on the grid: each discrete mean against
    # a central difference of the matrix levels in the strength that
    # multiplies it in H; no closed-form energy enters anywhere
    for name, q, step, observable, factor, mean_label, slope_label, tol in (
            ("numeric-hft-independence", "a", 1e-4, "r_m1_screened", -1.0,
             "<e^-ar/r>", "-dE/dA", "1e-8"),
            ("numeric-hft-r_m2", "b", 1e-6, "r_m2", 1.0, "<r^-2>", "dE/dB", "1e-8"),
            ("numeric-hft-kinetic", "mu", 1e-5 * ANCHOR_MU, "kinetic", -ANCHOR_MU,
             "<T>", "-mu dE/dmu", "1e-8")):
        slope = factor * _anchor_slope(q, step, 2)
        mean = np.array([expectation_numeric(sol_a, k, observable) for k in range(2)])
        rel = np.abs(slope - mean) / np.abs(mean)
        results.append(_result(name, np.all(rel <= float(tol)),
                               f"{mean_label}={mean[0]:.6f} vs {slope_label}={slope[0]:.6f}, "
                               f"worst rel={rel.max():.2e} over k <= 1 (tol {tol})"))

    # <T> on the grid against the closed form, exact on the anchor; the
    # r_max = 1.1 window puts k = 1 3.5e-4 off, so only k = 0
    kinetic = expectation_numeric(sol_a, 0, "kinetic")
    exact_t = -ANCHOR_MU * d_energy_d_param(ANCHOR, ANCHOR_MU, 0, 0, "mu", PAPER).analytic
    rel_t = abs(kinetic - exact_t) / abs(exact_t)
    results.append(_result("anchor-kinetic-vs-closed-form", rel_t <= 1e-4,
                           f"<T>={kinetic:.6f} vs -mu dE/dmu={exact_t:.6f}, "
                           f"rel={rel_t:.2e} (tol 1e-4)"))

    # the H2 parameters have no true bound state below C at v0 = 0: the
    # exact well never dips under the asymptote, so the bound subset is
    # empty and the solver must say so
    h2 = BUILTIN_MOLECULES["h2"]
    sol_h2 = solve_matrix(PotentialParams.from_molecule(h2), 0, h2.mu,
                          OracleConfig(), 1, PAPER)
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


def run_suite(name: str) -> list[CheckResult]:
    """Run one suite (or ``all``) and return every assertion result."""
    if name == "all":
        out = []
        for suite in SUITES.values():
            out.extend(suite())
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{tuple(SUITES)} or 'all'")
    return SUITES[name]()
