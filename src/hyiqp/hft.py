"""Expectation values via the Hellmann-Feynman route.

For an eigenstate of a parameter-dependent Hamiltonian, dE/dq equals the
expectation of dH/dq.  Promoting q = l, A, mu to continuous variables gives

    <r^-2>           = (2 mu / hbar^2) / (2l+1) * dE/dl
    <exp(-a r)/r>    = -dE/dA
    <T>              = -mu dE/dmu,      <p^2> = 2 mu <T>

``observable_for_params`` is the one entry point; it evaluates each
observable along two independent paths that the report machinery keeps
side by side:

* ``paper_formula``: the closed-form derivative of the level energy,
  written out by chain rule in the same factored arrangement as the stated
  reference expressions (audited term by term against them);
* ``machine_derivative``: the complex-step derivative Im E(q + ih)/h of the
  energy code itself (Squire & Trapp, SIAM Rev. 40, 110 (1998)), sharing no
  algebra with the closed form.  It subtracts nothing, so h = 1e-200 leaves
  it at rounding level: within 1e-13 of a 40-digit mpmath derivative.

The stated <r^-1> expression carries an unresolved exp(a r) prefactor whose
r is never pinned down; the well-defined Hellmann-Feynman quantity is the
screened moment <exp(-a r)/r>, so the prefactor defaults to one and can be
set through ``exp_factor_r``.  Sign anomalies in the bundled reference
tables (negative <r^-2> and <p^2>) are reproduced-or-deviated and flagged,
never corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .constants import Molecule, PhysicalConstants, hbar2_over_2mu, mu_energy_units
from .errors import DomainError
from .oracle import expectation_numeric
from .potential import PotentialParams
from .spectrum import _energy_pieces, energy_value

COMPLEX_STEP = 1e-200
DERIVATIVE_PARAMS = ("l", "A", "mu")
OBSERVABLES = ("r-2", "r-1", "T", "p2")


@dataclass(frozen=True)
class DerivativeResult:
    """Closed-form and complex-step values of dE/dq with their gap."""

    analytic: float
    machine_derivative: float
    rel_gap: float


@dataclass(frozen=True)
class ObservableValue:
    """One expectation value along both derivation paths."""

    paper_formula: float
    machine_derivative: float


def _analytic_derivative(p: PotentialParams, mu: float, n: int, l: float,
                         which: str, constants: PhysicalConstants) -> float:
    h2, gamma, sigma1, sigma2, delta2, m_num, d_den = _energy_pieces(
        p, mu, n, l, constants)
    x = m_num / d_den
    a2 = p.alpha**2
    if which == "A":
        # only sigma1 = A/(2 h2 alpha) carries A
        return 4.0 * p.alpha * m_num / d_den**2
    if which == "l":
        dgamma = 2.0 * (2.0 * l + 1.0) / gamma
        dm = (2.0 * l + 1.0) + (n + 0.5) * dgamma
        dd = dgamma
        return -8.0 * h2 * a2 * x * (dm * d_den - m_num * dd) / d_den**2
    if which == "mu":
        # every sigma group is proportional to mu; h2 carries 1/mu
        dgamma = 2.0 * sigma2 / (mu * gamma)
        dm = (sigma2 - sigma1 - delta2) / mu + (n + 0.5) * dgamma
        dd = dgamma
        dx = (dm * d_den - m_num * dd) / d_den**2
        return (4.0 * h2 * a2 * x / mu) * (x - 2.0 * mu * dx)
    raise DomainError(f"unknown derivative parameter {which!r}; choose from {DERIVATIVE_PARAMS}")


def _complex_step_derivative(p: PotentialParams, mu: float, n: int, l: float,
                             which: str, constants: PhysicalConstants) -> float:
    step = COMPLEX_STEP * 1j
    if which == "l":
        e = energy_value(p, mu, n, l + step, constants)
    elif which == "A":
        e = energy_value(replace(p, a=p.a + step), mu, n, l, constants)
    elif which == "mu":
        e = energy_value(p, mu + step, n, l, constants)
    else:
        raise DomainError(f"unknown derivative parameter {which!r}")
    return e.imag / COMPLEX_STEP


def d_energy_d_param(p: PotentialParams, mu: float, n: int, l: float, which: str,
                     constants: PhysicalConstants) -> DerivativeResult:
    """dE/dq for q in {l, A, mu}, by chain rule and by complex step."""
    analytic = _analytic_derivative(p, mu, n, l, which, constants)
    machine = _complex_step_derivative(p, mu, n, l, which, constants)
    gap = abs(analytic - machine) / max(1.0, abs(machine))
    return DerivativeResult(analytic=analytic, machine_derivative=machine, rel_gap=gap)


# observable -> (q, value from dE/dq); each value keeps the factored
# multiplication order of the stated expressions, so <p^2> is exactly 2 mu <T>
_HELLMANN_FEYNMAN = {
    "r-2": ("l", lambda d, p, mu, l, constants, exp_factor_r:
            d * (1.0 / (hbar2_over_2mu(mu, constants) * (2.0 * l + 1.0)))),
    "r-1": ("A", lambda d, p, mu, l, constants, exp_factor_r:
            -(1.0 if exp_factor_r is None else math.exp(p.alpha * exp_factor_r)) * d),
    "T": ("mu", lambda d, p, mu, l, constants, exp_factor_r: -mu * d),
    "p2": ("mu", lambda d, p, mu, l, constants, exp_factor_r:
           2.0 * mu_energy_units(mu, constants) * (-mu * d)),
}


def observable_for_params(observable: str, p: PotentialParams, mu: float, n: int,
                          l: int, constants: PhysicalConstants,
                          exp_factor_r: float | None = None) -> ObservableValue:
    """One of r-2, r-1, T, p2 along both derivation paths.

    ``exp_factor_r`` is r* in the exp(alpha r*) prefactor of r-1 (default:
    unit prefactor); the other observables ignore it.
    """
    try:
        which, value = _HELLMANN_FEYNMAN[observable]
    except KeyError:
        raise DomainError(
            f"unknown observable {observable!r}; choose from {OBSERVABLES}") from None
    d = d_energy_d_param(p, mu, n, l, which, constants)
    return ObservableValue(
        paper_formula=value(d.analytic, p, mu, l, constants, exp_factor_r),
        machine_derivative=value(d.machine_derivative, p, mu, l, constants, exp_factor_r))


@dataclass(frozen=True)
class ReportRow:
    """One (n, l) cell of the discrepancy report.

    Missing cells (no oracle state, no fixture, fixture-only tables) are
    None and render as empty fields.
    """

    n: int
    l: int
    paper_formula: float | None
    machine_derivative: float | None
    oracle: float | None
    paper_table: float | None
    dev_pf_md: float | None
    dev_md_oracle: float | None
    dev_vs_table: float | None
    note: str = ""


def rel_dev(a: float | None, b: float | None) -> float | None:
    """Signed relative deviation (a - b) / max(|a|, |b|); None if either side is."""
    if a is None or b is None:
        return None
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return (a - b) / scale


def expectation_report(molecule: Molecule, observable: str, n_max: int = 8,
                       l_max: int = 3, constants: PhysicalConstants = None, *,
                       v0: float = 0.0, exp_factor_r: float | None = None,
                       fixtures: dict | None = None,
                       oracle_solutions: dict | None = None) -> list[ReportRow]:
    """Per-(n, l) dual-path values with optional oracle and fixture columns.

    ``fixtures`` maps (n, l) to reference table values; ``oracle_solutions``
    maps l to a RadialGridSolution from the grid module (the caller decides
    whether to spend the solve time).  Cells the oracle cannot fill (state
    not bound in the exact potential) carry a note instead of a number.
    Rows are emitted in (n, l) order, so repeated runs are byte-identical
    once formatted.
    """
    if constants is None:
        raise DomainError("constants mode must be given explicitly")
    if n_max > 12 or l_max > 12:
        raise DomainError("report grids are limited to n_max, l_max <= 12")
    oracle_obs = {"r-2": "r_m2", "r-1": "r_m1_screened", "T": "kinetic", "p2": "p2"}
    p = PotentialParams.from_molecule(molecule, v0=v0)
    rows = []
    for n in range(n_max + 1):
        for l in range(l_max + 1):
            val = observable_for_params(observable, p, molecule.mu, n, l,
                                        constants, exp_factor_r)
            oracle_val = None
            note = ""
            if oracle_solutions is not None:
                sol = oracle_solutions.get(l)
                if sol is not None and n < len(sol.eigenvalues):
                    oracle_val = expectation_numeric(sol, n, oracle_obs[observable])
                else:
                    note = "oracle: state not bound below the asymptote"
            fixture_val = None if fixtures is None else fixtures.get((n, l))
            rows.append(ReportRow(
                n=n, l=l,
                paper_formula=val.paper_formula,
                machine_derivative=val.machine_derivative,
                oracle=oracle_val,
                paper_table=fixture_val,
                dev_pf_md=rel_dev(val.paper_formula, val.machine_derivative),
                dev_md_oracle=rel_dev(val.machine_derivative, oracle_val),
                dev_vs_table=rel_dev(val.machine_derivative, fixture_val),
                note=note,
            ))
    return rows
