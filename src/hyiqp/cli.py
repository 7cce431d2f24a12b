"""Command-line surface.

Subcommands: ``energy`` (one closed-form level), ``expect`` (the
discrepancy report for one observable), ``table`` (regenerate a bundled
reference table), ``figure`` (plot-ready CSV for the potential and
wave-function figures), ``check`` (verification suites), ``molecules``
(registry listing).

Output is deterministic: fixed row ordering, floats at 12 significant
digits, no timestamps.  Exit codes: 0 success, 1 check failure, 2 domain
error (NaN or infinite input, any result that leaves double range, a
registry file that redefines a molecule or is not UTF-8, a registry or
``--output`` path that cannot be opened, a ``figure`` option that its id
would ignore), 3 unknown molecule.

Every default of a library parameter belongs to the library function the
command calls; an option the user leaves out is not passed on.

A command imports the layer it runs.  This module imports what ``energy``
and ``molecules`` run; ``table``, ``expect`` and ``figure`` import
``tables`` in their own bodies, ``expect --oracle`` ``oracle``, ``check``
``checks``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .constants import CONSTANTS_VERSION, for_mode, get_molecule, registry
from .errors import DomainError, HyiqpError, UnknownMoleculeError
from .hft import OBSERVABLES
from .potential import DEFAULT_V0, PotentialParams
from .spectrum import WAVEFUNCTION_CONVENTIONS, energy

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DOMAIN = 2
EXIT_LOOKUP = 3


def fmt(value) -> str:
    """Fixed 12-significant-digit formatting; empty string for missing cells.

    A non-finite float, from finite input whose arithmetic left double range
    without raising, is a DomainError.  Floats, most cells, are tested first.
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(f"the input leaves double range (a result is {value!r})")
        return f"{value:.12g}"
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


class Envelope:
    """Deterministic CSV/JSON writer; every cell is formatted (fmt) before any is written."""

    def __init__(self, meta: dict, columns, rows):
        self.meta = meta
        self.columns = list(columns)
        self.rows = [[fmt(v) for v in row] for row in rows]

    def render(self, out_format: str) -> str:
        if out_format == "json":
            doc = {"meta": self.meta, "columns": self.columns, "rows": self.rows}
            return json.dumps(doc, indent=2) + "\n"
        lines = [f"# {k}: {v}" for k, v in self.meta.items()]
        lines.append(",".join(self.columns))
        lines.extend(",".join(row) for row in self.rows)
        return "\n".join(lines) + "\n"


def _emit(env: Envelope, args) -> None:
    text = env.render(args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _meta(args, mode: str, **extra) -> dict:
    return {"mode": mode, "constants": CONSTANTS_VERSION,
            "command": "hyiqp " + " ".join(args.raw_argv), **extra}


def _finite_float(text: str) -> float:
    """argparse type of the number options: NaN and infinity are rejected."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _finite_list(text: str, option: str, count: int | None = None) -> list[float]:
    """The comma-separated numbers of an option; NaN and infinity are domain errors."""
    parts = [p.strip() for p in text.split(",")]
    if count is not None and len(parts) != count:
        raise DomainError(f"{option} expects {count} comma-separated values")
    values = [float(p) for p in parts]
    if not all(map(math.isfinite, values)):
        raise DomainError(f"{option} takes finite numbers, got {text!r}")
    return values


def _given(**options) -> dict:
    """The options the user set; the rest keep the library's defaults."""
    return {key: value for key, value in options.items() if value is not None}


def cmd_energy(args) -> int:
    if args.params is not None:
        if args.mu is None:
            raise DomainError("--params requires --mu")
        if args.v0 is not None:
            raise DomainError("--v0 applies to --molecule; with --params set V0 "
                              "as the first of the five values")
        p = PotentialParams(*_finite_list(args.params, "--params V0,A,B,C,alpha", 5))
        mu = args.mu
        label = "params"
    else:
        if args.mu is not None:
            raise DomainError("--mu applies to --params; molecules carry their "
                              "own reduced mass")
        mol = get_molecule(args.molecule)
        p = PotentialParams.from_molecule(mol, **_given(v0=args.v0))
        mu = mol.mu
        label = mol.name
    res = energy(p, mu, args.n, args.l, for_mode(args.mode))
    env = Envelope(
        _meta(args, args.mode, system=label, v0=fmt(p.v0)),
        ("n", "l", "energy", "gamma", "nu_residual", "eps2", "tau_slope",
         "bound_condition_ok", "below_asymptote"),
        [(res.n, res.l, res.energy, res.gamma, res.nu_residual, res.eps2,
          res.tau_slope, res.bound_condition_ok, res.below_asymptote)],
    )
    _emit(env, args)
    return EXIT_OK


def cmd_expect(args) -> int:
    from .tables import REPORT_COLUMNS, expectation_report, report_cells

    mol = get_molecule(args.molecule)
    p = PotentialParams.from_molecule(mol, **_given(v0=args.v0))
    oracle = None
    if args.oracle:
        from .oracle import default_config

        oracle = default_config(mol.alpha)
    rows = expectation_report(
        mol, args.observable, constants=for_mode(args.mode), v0=p.v0, oracle=oracle,
        **_given(n_max=args.n_max, l_max=args.l_max, exp_factor_r=args.exp_factor_r))
    env = Envelope(
        _meta(args, args.mode, molecule=mol.name, observable=args.observable,
              v0=fmt(p.v0)),
        REPORT_COLUMNS, report_cells(rows))
    _emit(env, args)
    return EXIT_OK


def cmd_table(args) -> int:
    from .tables import REPORT_COLUMNS, regenerate_table, report_cells

    result = regenerate_table(args.id, for_mode(args.mode), **_given(v0=args.v0))
    extra = {"table": result.table_id, "label": result.label,
             **{f"note{i}": note for i, note in enumerate(result.notes, 1)}}
    env = Envelope(_meta(args, args.mode, **extra), REPORT_COLUMNS,
                   report_cells(result.rows))
    _emit(env, args)
    if result.missing:
        sys.stderr.write(
            f"table {result.table_id}: missing from the reference set "
            "(see table 2b for the unattributed candidate block)\n")
    return EXIT_OK


# the figure options that apply to some figures only
_FIGURE_OPTIONS = (("molecule", (1, 2), "figures 1-2"), ("alphas", (1,), "figure 1"),
                   ("n", range(3, 10), "figures 3-9"), ("convention", range(3, 10), "figures 3-9"))


def cmd_figure(args) -> int:
    from .tables import figure_potential_data, figure_wavefunction_data

    for option, figures, label in _FIGURE_OPTIONS:
        if getattr(args, option) is not None and args.id not in figures:
            raise DomainError(f"--{option} applies to {label}, not to figure {args.id}")
    window = _given(r_min=args.r_min, r_max=args.r_max, n_points=args.points)
    if args.id in (1, 2):
        mol = get_molecule("H2" if args.molecule is None else args.molecule)
        p = PotentialParams.from_molecule(mol, **_given(v0=args.v0))
        if args.alphas is not None:
            window["alphas"] = tuple(_finite_list(args.alphas, "--alphas"))
        columns, rows, extra = figure_potential_data(args.id, p, **window)
        extra.update({"figure": str(args.id), "molecule": mol.name, "v0": fmt(p.v0)})
    else:
        columns, rows, extra = figure_wavefunction_data(
            args.id, for_mode(args.mode), **window,
            **_given(n=args.n, v0=args.v0, convention=args.convention))
        extra["figure"] = str(args.id)
    env = Envelope(_meta(args, args.mode, **extra), columns, rows)
    _emit(env, args)
    return EXIT_OK


def cmd_check(args) -> int:
    from . import checks

    results = checks.run_suite(args.suite)
    failed = [r for r in results if not r.ok]
    for r in results:
        status = "ok  " if r.ok else "FAIL"
        line = f"{status} - {r.name}"
        if r.detail:
            line += f" ({r.detail})"
        print(line)
    if failed:
        print(f"FAILED: {failed[0].name}")
        return EXIT_CHECK_FAILED
    print(f"passed {len(results)} assertions")
    return EXIT_OK


def cmd_molecules(args) -> int:
    rows = [(m.name, m.a, m.b, m.c, m.alpha, m.mu)
            for m in sorted(registry().values(), key=lambda m: m.name.lower())]
    env = Envelope(_meta(args, "paper"), ("name", "A", "B", "C", "alpha", "mu"), rows)
    _emit(env, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyiqp",
        description="Bound states of the combined screened potential: closed forms, "
                    "expectation values, reference-table regeneration, and numerical "
                    "cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(sp):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--output", default=None, help="write to a file instead of stdout")

    sp = sub.add_parser("energy", help="one closed-form level")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--molecule")
    group.add_argument("--params", help="V0,A,B,C,alpha")
    sp.add_argument("--mu", type=_finite_float, default=None, help="reduced mass for --params")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--mode", choices=("paper", "physical"), default="physical")
    sp.add_argument("--v0", type=_finite_float, default=None,
                    help=f"well depth for --molecule runs (default {DEFAULT_V0:g}; "
                         "absent from the tabulated constants)")
    add_io(sp)
    sp.set_defaults(func=cmd_energy)

    sp = sub.add_parser("expect", help="expectation-value discrepancy report")
    sp.add_argument("--molecule", required=True)
    sp.add_argument("--observable", choices=OBSERVABLES, required=True)
    # the defaults of these four options are expectation_report's
    sp.add_argument("--n-max", type=int, default=None)
    sp.add_argument("--l-max", type=int, default=None)
    sp.add_argument("--mode", choices=("paper", "physical"), default="physical")
    sp.add_argument("--v0", type=_finite_float, default=None)
    sp.add_argument("--exp-factor-r", type=_finite_float, default=None,
                    help="r* in the exp(alpha r*) prefactor of <r^-1> (default: unit prefactor)")
    sp.add_argument("--oracle", action="store_true",
                    help="add the grid-oracle column (slow)")
    add_io(sp)
    sp.set_defaults(func=cmd_expect)

    sp = sub.add_parser("table", help="regenerate a bundled reference table")
    sp.add_argument("id", help="2, 2b, or 3..17")
    sp.add_argument("--mode", choices=("paper", "physical"), default="paper")
    sp.add_argument("--v0", type=_finite_float, default=None)
    add_io(sp)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("figure", help="plot-ready data for figures 1..9")
    sp.add_argument("id", type=int, choices=range(1, 10))
    sp.add_argument("--molecule", default=None, help="molecule for figures 1-2 (default H2)")
    # the defaults of the options below are figure_potential_data's and
    # figure_wavefunction_data's
    sp.add_argument("--mode", choices=("paper", "physical"), default="paper")
    sp.add_argument("--v0", type=_finite_float, default=None)
    sp.add_argument("--alphas", default=None,
                    help="four comma-separated screening values for figure 1")
    sp.add_argument("--n", type=int, default=None, help="radial quantum number, figures 3-9")
    sp.add_argument("--convention", choices=WAVEFUNCTION_CONVENTIONS, default=None)
    sp.add_argument("--r-min", type=_finite_float, default=None)
    sp.add_argument("--r-max", type=_finite_float, default=None,
                    help="default: the figure's own window")
    sp.add_argument("--points", type=int, default=None)
    add_io(sp)
    sp.set_defaults(func=cmd_figure)

    sp = sub.add_parser("check", help="run a verification suite", description=(
        "Run a verification suite.  Every suite runs in paper mode (hbar = 1, bare "
        "constants); there is no --mode option."))
    sp.add_argument("suite", choices=("hft", "reduction", "nu", "oracle", "all"))
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("molecules", help="list the molecule registry")
    add_io(sp)
    sp.set_defaults(func=cmd_molecules)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.raw_argv = argv
    try:
        return args.func(args)
    except UnknownMoleculeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_LOOKUP
    except (HyiqpError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN
    except ArithmeticError as exc:
        # finite input extreme enough that the arithmetic leaves double range
        sys.stderr.write(f"error: the input leaves double range ({exc})\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
