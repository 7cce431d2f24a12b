"""Physical constants, unit modes, and the molecule registry.

Two unit conventions coexist and every formula downstream takes one of them
explicitly:

* ``paper`` mode sets hbar = 1 and uses the tabulated spectroscopic
  constants as bare numbers (reduced mass = the raw amu value).  This is
  the only convention under which the bundled reference expectation tables
  are internally consistent (<p^2> equals 2*mu*<T> with mu the bare amu
  number), so it is the default for table regeneration.
* ``physical`` mode uses CODATA 2018 values, hbar*c = 1973.269804 eV*A and
  1 amu = 931.49410242e6 eV/c^2, giving energies in eV for lengths in
  Angstrom.

The unit headers attached to the tabulated B and C constants are mutually
inconsistent with their role in the potential (B multiplies 1/r^2, C is an
energy offset); the registry therefore stores all five numbers verbatim and
treats them as inputs of whichever mode is active.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import DomainError, UnknownMoleculeError

HBAR_C_EV_ANGSTROM = 1973.269804      # eV * Angstrom (CODATA 2018)
AMU_EV_PER_C2 = 931.49410242e6        # eV / c^2 per amu (CODATA 2018)
CONSTANTS_VERSION = "codata2018"

REGISTRY_ENV_VAR = "HYIQP_REGISTRY"
REGISTRY_HEADER = "name,A,B,C,alpha,mu"


@dataclass(frozen=True)
class PhysicalConstants:
    """Unit convention record handed to every energy-carrying formula."""

    mode: str
    hbar_c: float = HBAR_C_EV_ANGSTROM
    amu_to_energy: float = AMU_EV_PER_C2
    version: str = CONSTANTS_VERSION

    def __post_init__(self):
        if self.mode not in ("paper", "physical"):
            raise DomainError(f"unknown constants mode {self.mode!r}")
        if self.hbar_c <= 0.0 or self.amu_to_energy <= 0.0:
            raise DomainError("hbar_c and amu_to_energy must be positive")


PAPER = PhysicalConstants(mode="paper")
PHYSICAL = PhysicalConstants(mode="physical")


def for_mode(mode: str) -> PhysicalConstants:
    """Return the constants record for a mode name."""
    if mode == "paper":
        return PAPER
    if mode == "physical":
        return PHYSICAL
    raise DomainError(f"unknown constants mode {mode!r}")


def hbar2_over_2mu(mu: float, constants: PhysicalConstants) -> float:
    """hbar^2 / (2 mu) in the active convention.

    In paper mode this is 1/(2 mu) with mu the bare number; in physical
    mode it is (hbar c)^2 / (2 mu c^2) in eV * Angstrom^2 for mu in amu.
    A complex mu (the complex-step derivative) is guarded on its real part.
    """
    if mu.real <= 0.0:
        raise DomainError(f"reduced mass must be positive, got {mu}")
    if constants.mode == "paper":
        return 1.0 / (2.0 * mu)
    return constants.hbar_c**2 / (2.0 * mu * constants.amu_to_energy)


def mu_energy_units(mu: float, constants: PhysicalConstants) -> float:
    """Reduced mass in the units <p^2> = 2 mu <T> is formed with."""
    if constants.mode == "paper":
        return mu
    return mu * constants.amu_to_energy


@dataclass(frozen=True)
class Molecule:
    """Spectroscopic constants of one diatomic species.

    a is the Yukawa strength, b the inverse-quadratic strength, c the
    constant offset, alpha the screening parameter (1/Angstrom), mu the
    reduced mass (amu).  Values are stored exactly as tabulated.
    """

    name: str
    a: float
    b: float
    c: float
    alpha: float
    mu: float

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise DomainError(f"alpha must be positive for {self.name!r}")
        if self.mu <= 0.0:
            raise DomainError(f"mu must be positive for {self.name!r}")


# Canonical registry rows at their published precision.  The strings are
# what serialization emits, so a round trip reproduces them byte for byte.
_BUILTIN_ROWS = (
    ("H2", "0.7416", "1.9426", "1.440558", "0.20990", "0.5039100"),
    ("LiH", "1.5956", "1.1280", "1.7998368", "1.55000", "0.8801221"),
    ("HCl", "1.2746", "1.8677", "2.38057", "0.20039", "0.9801045"),
    ("CO", "1.1283", "2.2994", "2.59441", "0.39000", "6.8606719"),
)

BUILTIN_MOLECULES = {
    row[0].lower(): Molecule(row[0], *(float(x) for x in row[1:]))
    for row in _BUILTIN_ROWS
}


def parse_registry(text: str, source: str = "<registry>") -> dict[str, Molecule]:
    """Parse registry text (header ``name,A,B,C,alpha,mu``) into molecules."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        return {}
    if lines[0].replace(" ", "") != REGISTRY_HEADER:
        raise DomainError(
            f"{source}: first line must be the header {REGISTRY_HEADER!r}, got {lines[0]!r}"
        )
    out: dict[str, Molecule] = {}
    for ln in lines[1:]:
        fields = [f.strip() for f in ln.split(",")]
        if len(fields) != 6:
            raise DomainError(f"{source}: expected 6 comma-separated fields, got {ln!r}")
        name = fields[0]
        try:
            numbers = [float(x) for x in fields[1:]]
        except ValueError as exc:
            raise DomainError(f"{source}: bad number in {ln!r}") from exc
        out[name.lower()] = Molecule(name, *numbers)
    return out


def load_registry(path: str) -> dict[str, Molecule]:
    """Load a registry file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_registry(fh.read(), source=path)


def dump_registry(molecules: dict[str, Molecule] | None = None) -> str:
    """Serialize a registry back to its file format.

    Built-in molecules are emitted with their canonical strings; any others
    use repr precision.
    """
    if molecules is None:
        molecules = BUILTIN_MOLECULES
    canonical = {row[0].lower(): row for row in _BUILTIN_ROWS}
    lines = [REGISTRY_HEADER]
    for key, mol in molecules.items():
        row = canonical.get(key)
        if row is not None and Molecule(row[0], *(float(x) for x in row[1:])) == mol:
            lines.append(",".join(row))
        else:
            lines.append(
                ",".join([mol.name] + [repr(v) for v in (mol.a, mol.b, mol.c, mol.alpha, mol.mu)])
            )
    return "\n".join(lines) + "\n"


def registry(extra_path: str | None = None) -> dict[str, Molecule]:
    """Full registry: built-ins plus the HYIQP_REGISTRY file, if any.

    An explicit ``extra_path`` wins over the environment variable.  User
    entries may shadow built-ins.
    """
    out = dict(BUILTIN_MOLECULES)
    path = extra_path if extra_path is not None else os.environ.get(REGISTRY_ENV_VAR)
    if path:
        out.update(load_registry(path))
    return out


def get_molecule(name: str, extra_path: str | None = None) -> Molecule:
    """Look up a molecule by case-insensitive name."""
    reg = registry(extra_path)
    mol = reg.get(name.lower())
    if mol is None:
        raise UnknownMoleculeError(name, sorted(m.name for m in reg.values()))
    return mol
