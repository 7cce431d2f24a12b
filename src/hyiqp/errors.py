"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: lookup failures exit 3,
domain errors exit 2, check-suite failures exit 1.
"""


class HyiqpError(Exception):
    """Base class for all package errors."""


class DomainError(HyiqpError, ValueError):
    """Input outside the mathematical domain of an operation (r <= 0, mu <= 0, ...)."""


class UnsupportedRegimeError(DomainError):
    """Parameter regime where the closed-form spectrum is undefined.

    Raised when the square-root argument 8*mu*B/hbar^2 + 4l(l+1) + 1 is
    negative, i.e. a strongly attractive inverse-square term.
    """


class UnknownMoleculeError(HyiqpError, KeyError):
    """Molecule name not present in the registry."""

    def __init__(self, name, available):
        self.name = name
        self.available = tuple(available)
        super().__init__(
            f"unknown molecule {name!r}; registry contains: {', '.join(self.available)}"
        )

    def __str__(self):
        return self.args[0]


class ConvergenceError(HyiqpError, RuntimeError):
    """A numerical result could not be formed: a Numerov bracket does not hold
    exactly one level, a quantization audit failed, or a state's
    normalization constant leaves double range."""
