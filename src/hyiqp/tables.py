"""The discrepancy report, regeneration of the bundled reference tables, figure data.

Here the two halves meet: the closed form (``hft``, ``spectrum``) fills the
report's two derivation columns, and the grid oracle, imported only when a
report asks for its column, fills the third.

The fixture CSVs under ``data/fixtures`` are verbatim transcriptions of the
reference expectation tables, anomalies included (sign errors, missing
leading zeros, a duplicated table).  A SHA-256 manifest guards them against
silent edits.  The report looks up the published table of its molecule and
observable in the table map below and sets every cell against it;
agreement is documented, never asserted, because several reference entries
are physically impossible (negative <r^-2> and <p^2>).

Table map: 2 and 5 hold <r^-2> (the block printed between them carries no
molecule attribution and is stored as ``2b``, excluded from hard
comparisons; tables 3 and 4 were never published), 6-9 hold <r^-1>, 10-13
hold <T>, 14-17 hold <p^2>, each in molecule order H2, LiH, HCl, CO.
Tables 15 and 16 are numerically identical up to one sign, an apparent copy
error; both are kept as printed and flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

from .constants import Molecule, PhysicalConstants, get_molecule
from .errors import DomainError
from .hft import observable_for_params
from .potential import DEFAULT_V0, PotentialParams, potential, potential_curves
from .spectrum import wavefunction

if TYPE_CHECKING:       # the oracle imports numpy; import hyiqp loads none
    from .oracle import OracleConfig

FIGURE_MOLECULES = ("H2", "LiH", "HCl", "CO")
FIGURE_ALPHAS = (0.1, 0.2, 0.3, 0.4)


@dataclass(frozen=True)
class TableSpec:
    table_id: str
    observable: str | None
    molecule: str | None
    fixture_file: str | None
    label: str
    flags: tuple[str, ...] = ()


TABLE_SPECS = {
    "2": TableSpec("2", "r-2", "H2", "table_02.csv", "<r^-2> for H2",
                   ("only the first printed row is attributed; see table 2b",)),
    "2b": TableSpec("2b", "r-2", None, "table_02b.csv",
                    "<r^-2>, unattributed block printed under table 2",
                    ("no molecule attribution; excluded from hard comparisons",)),
    "3": TableSpec("3", "r-2", None, None, "<r^-2> for LiH (never published)"),
    "4": TableSpec("4", "r-2", None, None, "<r^-2> for HCl (never published)"),
    "5": TableSpec("5", "r-2", "CO", "table_05.csv", "<r^-2> for CO"),
    "6": TableSpec("6", "r-1", "H2", "table_06.csv", "<r^-1> for H2"),
    "7": TableSpec("7", "r-1", "LiH", "table_07.csv", "<r^-1> for LiH"),
    "8": TableSpec("8", "r-1", "HCl", "table_08.csv", "<r^-1> for HCl"),
    "9": TableSpec("9", "r-1", "CO", "table_09.csv", "<r^-1> for CO"),
    "10": TableSpec("10", "T", "H2", "table_10.csv", "<T> for H2"),
    "11": TableSpec("11", "T", "LiH", "table_11.csv", "<T> for LiH"),
    "12": TableSpec("12", "T", "HCl", "table_12.csv", "<T> for HCl"),
    "13": TableSpec("13", "T", "CO", "table_13.csv", "<T> for CO"),
    "14": TableSpec("14", "p2", "H2", "table_14.csv", "<p^2> for H2"),
    "15": TableSpec("15", "p2", "LiH", "table_15.csv", "<p^2> for LiH",
                    ("numerically identical to table 16 up to one sign; "
                     "apparent copy error, kept as printed",)),
    "16": TableSpec("16", "p2", "HCl", "table_16.csv", "<p^2> for HCl",
                    ("numerically identical to table 15 up to one sign; "
                     "apparent copy error, kept as printed",)),
    "17": TableSpec("17", "p2", "CO", "table_17.csv", "<p^2> for CO"),
}

MISSING_TABLE_IDS = tuple(tid for tid, spec in TABLE_SPECS.items() if spec.fixture_file is None)


def _fixture_bytes(filename: str) -> bytes:
    return (Path(__file__).with_name("data") / "fixtures" / filename).read_bytes()


def load_fixture(table_id: str) -> dict[tuple[int, int], float]:
    """Fixture values keyed by (n, l)."""
    return {key: float(token) for key, token in fixture_tokens(table_id).items()}


def fixture_tokens(table_id: str) -> dict[tuple[int, int], str]:
    """Verbatim fixture tokens keyed by (n, l), for transcription tests."""
    spec = table_spec(table_id)
    if spec.fixture_file is None:
        raise DomainError(f"table {table_id} has no fixture data (never published)")
    # the header, then one plain n,l,value line per cell; SHA256SUMS keeps them so
    lines = _fixture_bytes(spec.fixture_file).decode("utf-8").splitlines()[1:]
    return {(int(n), int(l)): value for n, l, value in (line.split(",") for line in lines)}


def verify_fixture_checksums() -> list[str]:
    """Recompute fixture digests against the manifest; returns failures."""
    import hashlib

    manifest = _fixture_bytes("SHA256SUMS").decode("utf-8")
    failures = []
    for line in manifest.strip().splitlines():
        digest, name = line.split()
        actual = hashlib.sha256(_fixture_bytes(name)).hexdigest()
        if actual != digest:
            failures.append(f"{name}: manifest {digest[:12]}.. != actual {actual[:12]}..")
    return failures


def table_spec(table_id: str) -> TableSpec:
    spec = TABLE_SPECS.get(str(table_id))
    if spec is None:
        raise DomainError(
            f"unknown table id {table_id!r}; valid ids are 2, 2b, 3..17")
    return spec


@dataclass(frozen=True)
class ReportRow:
    """One (n, l) cell of the discrepancy report.

    Missing cells (no oracle state, no published table, fixture-only tables)
    are None, the default, and render as empty fields.
    """

    n: int
    l: int
    paper_formula: float | None = None
    machine_derivative: float | None = None
    oracle: float | None = None
    paper_table: float | None = None
    dev_pf_md: float | None = None
    dev_md_oracle: float | None = None
    dev_vs_table: float | None = None
    note: str = ""


REPORT_COLUMNS = tuple(field.name for field in fields(ReportRow))


def report_cells(rows: list[ReportRow]) -> list[list]:
    """The report's rows as cells in REPORT_COLUMNS order."""
    return [[getattr(row, column) for column in REPORT_COLUMNS] for row in rows]


def rel_dev(a: float | None, b: float | None) -> float | None:
    """Signed relative deviation (a - b) / max(|a|, |b|); None if either side is."""
    if a is None or b is None:
        return None
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return (a - b) / scale


def expectation_report(molecule: Molecule, observable: str, n_max: int = 8,
                       l_max: int = 3, *, constants: PhysicalConstants,
                       v0: float = DEFAULT_V0, exp_factor_r: float | None = None,
                       oracle: OracleConfig | None = None) -> list[ReportRow]:
    """Per-(n, l) dual-path values with the published-table and optional oracle columns.

    The paper_table column holds the published table of (molecule.name,
    observable) in TABLE_SPECS, and stays empty for a molecule or observable
    without one.  With an ``oracle`` grid the report solves the exact
    potential's n_max + 1 lowest levels for each l <= l_max on it (the
    caller decides whether to spend the solve time); cells the oracle cannot
    fill (state not bound in the exact potential) carry a note instead of a
    number.  Rows are emitted in (n, l) order, so repeated runs are
    byte-identical once formatted.
    """
    if not (0 <= n_max <= 12 and 0 <= l_max <= 12):
        raise DomainError("report grids need 0 <= n_max, l_max <= 12")
    oracle_obs = {"r-2": "r_m2", "r-1": "r_m1_screened", "T": "kinetic", "p2": "p2"}
    p = PotentialParams.from_molecule(molecule, v0=v0)
    if oracle is not None:
        from .oracle import expectation_numeric, solve_matrix

        solutions = [solve_matrix(p, l, molecule.mu, oracle, n_max + 1, constants)
                     for l in range(l_max + 1)]
    published = {}
    for spec in TABLE_SPECS.values():
        if (spec.molecule, spec.observable) == (molecule.name, observable):
            published = load_fixture(spec.table_id)
    rows = []
    for n in range(n_max + 1):
        for l in range(l_max + 1):
            val = observable_for_params(observable, p, molecule.mu, n, l,
                                        constants, exp_factor_r)
            oracle_val = None
            note = ""
            if oracle is not None:
                if n < len(solutions[l].eigenvalues):
                    oracle_val = expectation_numeric(solutions[l], n, oracle_obs[observable])
                else:
                    note = "oracle: state not bound below the asymptote"
            fixture_val = published.get((n, l))
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


@dataclass(frozen=True)
class TableResult:
    """Regenerated grid plus provenance notes for one table id."""

    table_id: str
    label: str
    rows: list[ReportRow]
    notes: tuple[str, ...]
    missing: bool = False


def regenerate_table(table_id: str, constants: PhysicalConstants, *,
                     v0: float = DEFAULT_V0) -> TableResult:
    """Recompute one reference table with fixture and deviation columns.

    The grid is expectation_report's default n <= 8, l <= 3, the reference
    tables' own.

    Missing ids (3, 4) return an explanatory notice with no rows.  The
    unattributed block ``2b`` returns fixture values only, since there is no
    molecule to recompute it for.
    """
    spec = table_spec(table_id)
    if spec.table_id in MISSING_TABLE_IDS:
        notes = (f"table {spec.table_id} is absent from the reference set; "
                 "an unattributed candidate block is available as table 2b",)
        return TableResult(spec.table_id, spec.label, [], notes, missing=True)
    if spec.molecule is None:
        rows = [ReportRow(n=n, l=l, paper_table=value, note="fixture only")
                for (n, l), value in sorted(load_fixture(spec.table_id).items())]
        return TableResult(table_id=spec.table_id, label=spec.label, rows=rows,
                           notes=spec.flags)
    rows = expectation_report(get_molecule(spec.molecule), spec.observable,
                              constants=constants, v0=v0)
    notes = spec.flags + (f"v0={v0!r}", f"mode={constants.mode}")
    return TableResult(table_id=spec.table_id, label=spec.label, rows=rows,
                       notes=notes)


def figure_potential_data(figure_id: int, p: PotentialParams, *,
                          alphas=FIGURE_ALPHAS, r_min: float = 0.05,
                          r_max: float = 10.0, n_points: int = 512):
    """Rows (r, F, F1, F2, F3) of Python floats for the potential figures.

    Figure 1 sweeps the screening parameter: F..F3 are the combined
    potential at the four alphas.  Figure 2 overlays the combined potential
    with its three named limits at the given parameters.  Floating-point
    warnings are silenced: cli.fmt rejects a cell that leaves double range.
    """
    import numpy as np

    with np.errstate(all="ignore"):
        if figure_id == 1:
            if len(alphas) != 4:
                raise DomainError("figure 1 needs exactly four alpha values")
            r = np.linspace(r_min, r_max, n_points)
            cols = (r, *(potential(r, PotentialParams(p.v0, p.a, p.b, p.c, alpha=a))
                         for a in alphas))
            meta = {"curves": ",".join(f"alpha={a:g}" for a in alphas)}
        elif figure_id == 2:
            cols = potential_curves(p, r_min, r_max, n_points)
            meta = {"curves": "F=combined,F1=hulthen,F2=yukawa,F3=inverse-quadratic"}
        else:
            raise DomainError("potential figures are 1 and 2")
    return ("r", "F", "F1", "F2", "F3"), list(zip(*(c.tolist() for c in cols))), meta


def figure_wavefunction_data(figure_id: int, constants: PhysicalConstants, *,
                             n: int = 0, v0: float = DEFAULT_V0,
                             convention: str = "literal",
                             r_min: float = 0.05, r_max: float = 20.0,
                             n_points: int = 512):
    """Long-format samples (molecule, l, n, r, psi, density) for figures 3..9.

    Figures 3-8 fix l = figure_id - 3; figure 9 sweeps l = 0..5 and carries
    the probability densities.  All four molecules are emitted in fixed
    order for deterministic output.  Floating-point warnings are silenced: a
    state out of double range fails to normalize, or cli.fmt rejects a cell.
    """
    if not 3 <= figure_id <= 9:
        raise DomainError("wave-function figures are 3..9")
    import numpy as np

    l_values = range(6) if figure_id == 9 else (figure_id - 3,)
    r = np.linspace(r_min, r_max, n_points)
    r_cells = r.tolist()
    rows = []
    for name in FIGURE_MOLECULES:
        mol = get_molecule(name)
        p = PotentialParams.from_molecule(mol, v0=v0)
        for l in l_values:
            with np.errstate(all="ignore"):
                psi = wavefunction(r, p, mol.mu, n, l, constants,
                                   normalized=True, convention=convention)
                # Python floats format faster than numpy scalars, to the same digits
                for r_i, psi_i, dens_i in zip(r_cells, psi.tolist(), (psi**2).tolist()):
                    rows.append((name, l, n, r_i, psi_i, dens_i))
    meta = {"convention": convention, "n": str(n), "v0": f"{v0:.12g}"}
    return ("molecule", "l", "n", "r", "psi", "density"), rows, meta
