"""Acceptance suite: every hard guarantee at its stated tolerance.

The guarantees are the ``hyiqp check`` suites in ``hyiqp.checks``; this
module only drives them.  Each suite runs once per module, must report
exactly its named checks in order, and must finish inside its wall-clock
budget; each named check is one test that prints a PASS line with its
measured detail (visible under ``pytest -v -s``).  The numbered criteria
below name the checks that carry them; table regeneration has no check
suite and stays a criterion of its own.
"""

import time

import pytest

from hyiqp import checks
from hyiqp.constants import PAPER
from hyiqp.tables import load_fixture, regenerate_table

# suite -> (wall-clock budget in seconds or None, check names in run order)
SUITES = {
    "reduction": (1.0, [
        "potential-limit-hulthen", "potential-limit-yukawa",
        "potential-limit-inverse-quadratic", "energy-reduction-closure",
        "hulthen-textbook-spectrum", "collapsed-energy", "inv-r-surrogate-quantified",
    ]),
    "hft": (5.0, ["hft-derivative-agreement"]),
    "nu": (None, [
        "nu-quantization-residual", "nu-bound-condition",
        "wavefunction-normalization", "orthodox-node-counts",
    ]),
    "oracle": (30.0, [
        "box-calibration", "grid-convergence-order", "hydrogenic-limit",
        "anchor-analytic-vs-matrix", "anchor-matrix-vs-numerov", "anchor-numerov-nodes",
        "anchor-node-counts", "numeric-hft-independence", "numeric-hft-r_m2",
        "numeric-hft-kinetic", "anchor-kinetic-vs-closed-form",
        "unbound-molecule-diagnostic",
    ]),
}


@pytest.fixture(scope="module")
def suite_run():
    """Run each suite at most once: suite name -> (results, elapsed seconds)."""
    runs = {}

    def run(suite):
        if suite not in runs:
            t0 = time.perf_counter()
            results = checks.run_suite(suite)
            runs[suite] = (results, time.perf_counter() - t0)
        return runs[suite]

    return run


@pytest.mark.parametrize("suite", SUITES)
def test_suite_reports_its_checks_within_budget(suite_run, suite):
    budget, names = SUITES[suite]
    results, elapsed = suite_run(suite)
    assert [r.name for r in results] == names
    if budget is not None:
        assert elapsed < budget, f"{suite} suite took {elapsed:.2f}s (budget {budget:g}s)"


@pytest.mark.parametrize("suite, name",
                         [(suite, name) for suite, (_, names) in SUITES.items()
                          for name in names])
def test_check(suite_run, suite, name):
    result = {r.name: r for r in suite_run(suite)[0]}[name]
    assert result.ok, result.detail
    print(f"PASS {suite}/{name}: {result.detail}")


def assert_checks_pass(suite_run, suite, names):
    results = {r.name: r for r in suite_run(suite)[0]}
    for name in names:
        assert results[name].ok, (name, results[name].detail)


def test_criterion_2_reduction_suite(suite_run):
    assert_checks_pass(suite_run, "reduction",
                       ["energy-reduction-closure", "hulthen-textbook-spectrum"])


def test_criterion_3_nu_consistency(suite_run):
    assert_checks_pass(suite_run, "nu",
                       ["nu-quantization-residual", "nu-bound-condition"])


def test_criterion_4_oracle_exactness_anchor(suite_run):
    assert_checks_pass(suite_run, "oracle",
                       ["anchor-analytic-vs-matrix", "anchor-matrix-vs-numerov",
                        "anchor-numerov-nodes", "anchor-node-counts"])


def test_criterion_6_numeric_hft_independence(suite_run):
    assert_checks_pass(suite_run, "oracle", ["numeric-hft-independence"])


def test_criterion_8_table_regeneration():
    t0 = time.perf_counter()
    spot = {"2": -2.03579269252, "10": -5.77750109574, "14": -5.8226811543}
    first = {}
    for tid in ("2", "5", "6", "7", "8", "9", "10", "11", "12", "13",
                "14", "15", "16", "17"):
        result = regenerate_table(tid, PAPER)
        assert [(r.n, r.l) for r in result.rows] == [(n, l) for n in range(9)
                                                     for l in range(4)]
        fixtures = load_fixture(tid)
        for row in result.rows:
            assert row.paper_table == fixtures.get((row.n, row.l))
        first[tid] = result
    for tid, expected in spot.items():
        assert first[tid].rows[0].paper_table == expected
        # agreement with the fixture is documented (deviation column), not asserted
        assert first[tid].rows[0].dev_vs_table is not None
    # determinism: a second full regeneration is identical
    for tid in ("2", "10", "14"):
        assert regenerate_table(tid, PAPER) == first[tid]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"table regeneration took {elapsed:.2f}s (budget 10s)"
    print(f"PASS criterion 8 (table regeneration): 14 tables, fixture spot values "
          f"verified, deterministic, {elapsed:.2f}s < 10s")
