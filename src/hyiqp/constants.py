"""Physical constants, unit modes, and the molecule registry.

Two unit conventions coexist and every formula downstream takes one of them
explicitly:

* ``paper`` mode sets hbar = 1 and uses the tabulated spectroscopic
  constants as bare numbers (reduced mass = the raw amu value).  This is
  the only convention under which the bundled reference expectation tables
  are internally consistent (<p^2> equals 2*mu*<T> with mu the bare amu
  number), so it is the default mode of the ``table`` command.
* ``physical`` mode uses CODATA 2018 values, hbar*c = 1973.269804 eV*A and
  1 amu = 931.49410242e6 eV/c^2, giving energies in eV for lengths in
  Angstrom.

The unit headers attached to the tabulated B and C constants are mutually
inconsistent with their role in the potential (B multiplies 1/r^2, C is an
energy offset); the registry therefore stores all five numbers verbatim and
treats them as inputs of whichever mode is active.
"""

from __future__ import annotations

import math
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
    """Unit convention record handed to every energy-carrying formula.

    Physical mode reads the module's CODATA 2018 values.
    """

    mode: str

    def __post_init__(self):
        if self.mode not in ("paper", "physical"):
            raise DomainError(f"unknown constants mode {self.mode!r}")


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
    return HBAR_C_EV_ANGSTROM**2 / (2.0 * mu * AMU_EV_PER_C2)


def mu_energy_units(mu: float, constants: PhysicalConstants) -> float:
    """Reduced mass in the units <p^2> = 2 mu <T> is formed with."""
    if constants.mode == "paper":
        return mu
    return mu * AMU_EV_PER_C2


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


BUILTIN_MOLECULES = {
    mol.name.lower(): mol for mol in (
        Molecule("H2", 0.7416, 1.9426, 1.440558, 0.20990, 0.5039100),
        Molecule("LiH", 1.5956, 1.1280, 1.7998368, 1.55000, 0.8801221),
        Molecule("HCl", 1.2746, 1.8677, 2.38057, 0.20039, 0.9801045),
        Molecule("CO", 1.1283, 2.2994, 2.59441, 0.39000, 6.8606719),
    )
}


def parse_registry(text: str, source: str = "<registry>") -> dict[str, Molecule]:
    """Parse registry text (header ``name,A,B,C,alpha,mu``) into molecules.

    A file adds molecules and cannot redefine one: a name equal, in any case,
    to a built-in's or to an earlier row's is a DomainError.
    """
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
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
        if not name:
            raise DomainError(f"{source}: empty molecule name in {ln!r}")
        try:
            numbers = [float(x) for x in fields[1:]]
        except ValueError as exc:
            raise DomainError(f"{source}: bad number in {ln!r}") from exc
        if not all(map(math.isfinite, numbers)):
            raise DomainError(f"{source}: non-finite number in {ln!r}")
        key = name.lower()
        if key in BUILTIN_MOLECULES or key in out:
            raise DomainError(f"{source}: molecule {name!r} is already defined")
        try:
            out[key] = Molecule(name, *numbers)
        except DomainError as exc:
            raise DomainError(f"{source}: {exc}") from None
    return out


def registry() -> dict[str, Molecule]:
    """Full registry: built-ins plus the file HYIQP_REGISTRY names, if any.

    The environment variable is the one route to extra molecules, so every
    lookup sees the same registry, and a name always means one molecule.
    """
    path = os.environ.get(REGISTRY_ENV_VAR)
    if not path:
        return dict(BUILTIN_MOLECULES)
    # utf-8-sig drops the byte-order mark that Excel and PowerShell write
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x}: "
                          f"{exc.reason})") from None
    return {**BUILTIN_MOLECULES, **parse_registry(text, source=path)}


def get_molecule(name: str) -> Molecule:
    """Look up a molecule by case-insensitive name."""
    reg = registry()
    mol = reg.get(name.lower())
    if mol is None:
        raise UnknownMoleculeError(name, sorted(m.name for m in reg.values()))
    return mol
