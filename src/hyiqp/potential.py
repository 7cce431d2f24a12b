"""The combined screened potential, its named limits, and the 1/r surrogates.

The interaction is

    V(r) = -V0 exp(-2 a r)/(1 - exp(-2 a r)) - A exp(-a r)/r + B/r^2 + C

with screening parameter a = alpha.  Zeroing (A, B, C) leaves the Hulthen
well, zeroing (V0, B, C) the Yukawa well, and zeroing (V0, A, C) the
inverse-quadratic barrier.  All evaluation is pointwise and pure; r must be
strictly positive because both the Hulthen denominator and 1/r^2 are
singular at the origin.  numpy is imported by the functions that use it,
so the closed form, which needs only PotentialParams, loads none.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constants import PhysicalConstants, Molecule, hbar2_over_2mu
from .errors import DomainError

# the well depth of a molecule run: the tabulated constants carry none
DEFAULT_V0 = 0.0


@dataclass(frozen=True)
class PotentialParams:
    """Strengths (v0, a, b, c) and screening alpha of the combined potential."""

    v0: float
    a: float
    b: float
    c: float
    alpha: float

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")

    @classmethod
    def from_molecule(cls, mol: Molecule, v0: float = DEFAULT_V0) -> "PotentialParams":
        """Molecule constants with an explicit well depth (tabulated data carry none)."""
        return cls(v0=v0, a=mol.a, b=mol.b, c=mol.c, alpha=mol.alpha)


def _check_alpha(alpha: float) -> None:
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")


def _check_r(r):
    import numpy as np

    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("r must be strictly positive")
    return r


def potential(r, p: PotentialParams):
    """Full combined potential at r (scalar or array)."""
    import numpy as np

    r = _check_r(r)
    e2 = np.exp(-2.0 * p.alpha * r)
    v = -p.v0 * e2 / (1.0 - e2) - p.a * np.exp(-p.alpha * r) / r + p.b / r**2 + p.c
    return v if v.ndim else float(v)


def hulthen(r, v0: float, alpha: float):
    """Screened short-range well: the A = B = C = 0 limit, written out on its own.

    + 0.0 turns a zero strength's -0.0 into the 0.0 that potential() gives.
    """
    import numpy as np

    _check_alpha(alpha)
    r = _check_r(r)
    e2 = np.exp(-2.0 * alpha * r)
    v = -v0 * e2 / (1.0 - e2) + 0.0
    return v if v.ndim else float(v)


def yukawa(r, a: float, alpha: float):
    """Screened Coulomb well: the V0 = B = C = 0 limit, written out as hulthen is."""
    import numpy as np

    _check_alpha(alpha)
    r = _check_r(r)
    v = -a * np.exp(-alpha * r) / r + 0.0
    return v if v.ndim else float(v)


def inverse_quadratic(r, b: float):
    """Pure 1/r^2 term: the V0 = A = C = 0 limit (alpha drops out)."""
    r = _check_r(r)
    v = b / r**2
    return v if v.ndim else float(v)


def greene_aldrich_inv_r2(r, alpha: float):
    """Exponential-ratio surrogate for 1/r^2, valid for small alpha*r."""
    _check_alpha(alpha)
    import numpy as np

    r = _check_r(r)
    e2 = np.exp(-2.0 * alpha * r)
    v = 4.0 * alpha**2 * e2 / (1.0 - e2) ** 2
    return v if v.ndim else float(v)


def greene_aldrich_inv_r(r, alpha: float):
    """Companion surrogate for 1/r, kept exactly in its stated mixed-exponent
    form 2a exp(-a r)/(1 - exp(-2 a r)).

    The exp(-a r) numerator over a 1 - exp(-2 a r) denominator is not the
    algebraic square root of the 1/r^2 surrogate; the difference between the
    two candidate forms is quantified by the check suites rather than
    resolved here.
    """
    _check_alpha(alpha)
    import numpy as np

    r = _check_r(r)
    v = 2.0 * alpha * np.exp(-alpha * r) / (1.0 - np.exp(-2.0 * alpha * r))
    return v if v.ndim else float(v)


def effective_potential(r, p: PotentialParams, l: int, mu: float,
                        constants: PhysicalConstants):
    """Combined potential plus the exact centrifugal term l(l+1) hbar^2/(2 mu r^2)."""
    if l < 0:
        raise DomainError("l must be non-negative")
    import numpy as np

    r = _check_r(r)
    v = potential(r, p) + hbar2_over_2mu(mu, constants) * l * (l + 1) / r**2
    return v if np.ndim(v) else float(v)


def potential_curves(p: PotentialParams, r_min: float, r_max: float, n_points: int):
    """Plot-ready samples (r, combined, hulthen, yukawa, inverse-quadratic).

    Used for figure emission; the three partial curves use the same
    parameter values as the combined one.
    """
    import numpy as np

    r = np.linspace(r_min, r_max, n_points)
    return (
        r,
        potential(r, p),
        hulthen(r, p.v0, p.alpha),
        yukawa(r, p.a, p.alpha),
        inverse_quadratic(r, p.b),
    )
