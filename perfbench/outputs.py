"""Output checks and accuracy references.

A check returns a list of problems; an empty list means the output passed.
CLI outputs are compared with values computed in process by direct library
calls, and with the first output of the same argv, byte for byte.
References used for accuracy metrics are computed outside the timed
region.
"""

from __future__ import annotations

import csv
import io
import math
import re

import hyiqp
from hyiqp.hft import observable_for_params
from hyiqp.tables import figure_wavefunction_data

REL_TOL = 1e-10
EXACT_ENERGY_ARGV = ["energy", "--params", "0,0,0,0,0.5", "--mu", "1", "--n", "0",
                     "--l", "0", "--mode", "paper"]
EXACT_ENERGY_TEXT = "-0.125"
ORACLE_OBSERVABLE = {"r-2": "r_m2", "r-1": "r_m1_screened", "T": "kinetic", "p2": "p2"}
POSITIVE_OBSERVABLES = ("r-2", "p2")
_PASSED = re.compile(r"^passed (\d+) assertions$")
_ANCHOR_REL = re.compile(r"anchor-analytic-vs-matrix \(rel=([-+0-9.eE]+)")


def rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def parse_envelope(text: str):
    """Header and rows of CLI CSV output, below its ``# key: value`` block."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("# ")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    return rows[0], rows[1:]


def _cell_problem(text: str, expected, where: str) -> str | None:
    if expected is None:
        return None if text == "" else f"{where}: {text!r}, expected empty"
    if isinstance(expected, bool):
        want = "true" if expected else "false"
        return None if text == want else f"{where}: {text!r}, expected {want}"
    if isinstance(expected, int):
        return None if text == str(expected) else f"{where}: {text!r}, expected {expected}"
    if isinstance(expected, str):
        return None if text == expected else f"{where}: {text!r}, expected {expected!r}"
    try:
        got = float(text)
    except ValueError:
        return f"{where}: {text!r} is not a number"
    if not (math.isfinite(got) and rel_diff(got, expected) <= REL_TOL):
        return f"{where}: {text} vs library {expected!r}"
    return None


def _compare_rows(rows, expected_rows, columns) -> list[str]:
    if len(rows) != len(expected_rows):
        return [f"{len(rows)} rows, library has {len(expected_rows)}"]
    problems = []
    for i, (row, want) in enumerate(zip(rows, expected_rows)):
        if len(row) != len(columns):
            problems.append(f"row {i}: {len(row)} cells")
            continue
        for col, text, value in zip(columns, row, want):
            problem = _cell_problem(text, value, f"row {i} {col}")
            if problem:
                problems.append(problem)
    return problems


def _options(argv):
    return {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}


def cli_reference(kind: str, argv: list[str]):
    """Library values for one argv, computed in process with the CLI's defaults."""
    opts = _options(argv)
    if kind == "energy":
        mode = hyiqp.for_mode(opts["--mode"])
        if "--params" in opts:
            v0, a, b, c, alpha = (float(x) for x in opts["--params"].split(","))
            p, mu = hyiqp.PotentialParams(v0, a, b, c, alpha), float(opts["--mu"])
        else:
            mol = hyiqp.get_molecule(opts["--molecule"])
            p, mu = hyiqp.PotentialParams.from_molecule(mol), mol.mu
        r = hyiqp.energy(p, mu, int(opts["--n"]), int(opts["--l"]), mode)
        return [(r.n, r.l, r.energy, r.gamma, r.nu_residual, r.eps2, r.tau_slope,
                 r.bound_condition_ok, r.below_asymptote)]
    if kind == "table":
        result = hyiqp.regenerate_table(argv[1], hyiqp.PAPER, v0=0.0)
        return [(r.n, r.l, r.paper_formula, r.machine_derivative, r.oracle, r.paper_table,
                 r.dev_pf_md, r.dev_md_oracle, r.dev_vs_table, r.note) for r in result.rows]
    if kind == "figure9":
        _cols, rows, _meta = figure_wavefunction_data(
            9, hyiqp.PAPER, convention=opts["--convention"])
        return [(name, l, n, float(r), float(psi), float(dens))
                for name, l, n, r, psi, dens in rows]
    if kind == "expect_oracle":
        mol = hyiqp.get_molecule(opts["--molecule"])
        obs, v0 = opts["--observable"], float(opts["--v0"])
        p = hyiqp.PotentialParams.from_molecule(mol, v0=v0)
        cfg = hyiqp.default_config(mol.alpha)
        expected = {}
        for l in range(4):
            sol = hyiqp.solve_matrix(p, l, mol.mu, cfg, 9, hyiqp.PHYSICAL)
            for n in range(9):
                val = observable_for_params(obs, p, mol.mu, n, l, hyiqp.PHYSICAL)
                oracle = (hyiqp.expectation_numeric(sol, n, ORACLE_OBSERVABLE[obs])
                          if n < len(sol.eigenvalues) else None)
                expected[(n, l)] = (val.paper_formula, val.machine_derivative, oracle)
        return {"observable": obs, "cells": expected}
    return None


def _check_energy(argv, text, reference):
    columns, rows = parse_envelope(text)
    problems = _compare_rows(rows, reference, columns)
    if argv == EXACT_ENERGY_ARGV and rows and rows[0][2] != EXACT_ENERGY_TEXT:
        problems.append(f"exact level printed as {rows[0][2]!r}, expected {EXACT_ENERGY_TEXT}")
    return problems


def _check_rows(argv, text, reference):
    columns, rows = parse_envelope(text)
    return _compare_rows(rows, reference, columns)


def _check_expect(argv, text, reference):
    columns, rows = parse_envelope(text)
    cells = reference["cells"]
    if len(rows) != len(cells):
        return [f"{len(rows)} rows, library has {len(cells)}"]
    problems = []
    for row in rows:
        key = (int(row[0]), int(row[1]))
        for col, text_cell, value in zip(columns[2:5], row[2:5], cells[key]):
            problem = _cell_problem(text_cell, value, f"n={key[0]} l={key[1]} {col}")
            if problem:
                problems.append(problem)
        if (reference["observable"] in POSITIVE_OBSERVABLES and row[4] != ""
                and not float(row[4]) > 0.0):
            problems.append(f"n={key[0]} l={key[1]}: oracle value {row[4]} is not positive")
    return problems


def _check_all(argv, text, reference):
    lines = text.splitlines()
    if not lines or not _PASSED.match(lines[-1]):
        return [f"does not end in 'passed N assertions': {lines[-1:]!r}"]
    bad = [ln for ln in lines[:-1] if not ln.startswith("ok ")]
    problems = [f"failed assertion: {ln}" for ln in bad]
    if int(_PASSED.match(lines[-1]).group(1)) != len(lines) - 1:
        problems.append("assertion count disagrees with the lines printed")
    if anchor_error_from_check(text) is None:
        problems.append("no anchor-analytic-vs-matrix error printed")
    return problems


CHECKERS = {
    "energy": _check_energy,
    "table": _check_rows,
    "figure9": _check_rows,
    "expect_oracle": _check_expect,
    "check_all": _check_all,
}


def check_cli_run(kind: str, argv: list[str], returncode: int, stdout: str,
                  reference, first_stdout: str | None = None) -> list[str]:
    """Every problem with one CLI invocation's exit code and output."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if first_stdout is not None and stdout != first_stdout:
        problems.append("stdout differs from the first run of the same argv")
    try:
        problems += CHECKERS[kind](argv, stdout, reference)
    except (ValueError, IndexError, KeyError) as exc:
        problems.append(f"unparseable output: {exc!r}")
    return problems


def anchor_error_from_check(text: str) -> float | None:
    """The anchor's closed-form-vs-matrix error as ``check all`` prints it."""
    match = _ANCHOR_REL.search(text)
    return float(match.group(1)) if match else None


# Jacobi exponents (a, b) of the three wave-function conventions, in terms of
# sqrtP = sqrt(eps2 + sigma3) and gamma, as the spectrum module states them.
CONVENTION_EXPONENTS = {
    "literal": lambda sp, g: (2 * sp - 4 * g, -2 * sp - 4 * g),
    "weight": lambda sp, g: (2 * sp - g, -2 * sp - g),
    "orthodox": lambda sp, g: (2 * sp, g),
}


def norm_error(p, mu: float, n: int, l: int, constants, convention: str) -> float:
    """|N^2 integral(psi^2 dr) - 1| with the integral done exactly in mpmath.

    With s = exp(-2 alpha r) the unnormalized density integrates to
    sum_jk c_j c_k B(2 sqrtP + j + k, 2 + gamma + 2n - j - k) / (2 alpha),
    where P_n(1 - 2s) = sum_k c_k s^k (1 - s)^(n - k).  The sum is exact, so
    the reference shares nothing with the program's quadrature or its
    Jacobi recurrence.  Adaptive mpmath quadrature was not used: it does
    not converge reliably on the sharply peaked physical-mode states.
    """
    import mpmath

    res = hyiqp.energy(p, mu, n, l, constants)
    norm = hyiqp.normalization_constant(p, mu, n, l, constants, convention)
    with mpmath.workdps(50):
        sp, g = mpmath.mpf(abs(res.root)), mpmath.mpf(res.gamma)
        a, b = CONVENTION_EXPONENTS[convention](sp, g)
        coef = [(-1) ** k * mpmath.binomial(n + a, n - k) * mpmath.binomial(n + b, k)
                for k in range(n + 1)]
        total = mpmath.fsum(coef[j] * coef[k] * mpmath.beta(2 * sp + j + k,
                                                             2 + g + 2 * n - j - k)
                            for j in range(n + 1) for k in range(n + 1))
        integral = total / (2 * mpmath.mpf(p.alpha))
        return abs(float(integral * mpmath.mpf(norm) ** 2) - 1.0)
