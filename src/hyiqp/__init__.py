"""Bound states of the combined Hulthen + Yukawa + inverse-quadratic potential.

The package pairs a closed-form model (hypergeometric-type reduction under
exponential-ratio surrogates for 1/r and 1/r^2, Hellmann-Feynman
expectation values) with an independent radial-grid solver that uses the
exact potential, so every analytic number can be cross-checked and the
bundled reference tables regenerated with deviation columns.

``_EXPORTS`` names each public name once, under its defining module, and
the module ``__getattr__`` below loads that module on first access, so
``import hyiqp`` loads no numpy, csv or hashlib; the array-valued
functions import numpy when called.  Nothing is cached on the package: a
name always reads its module's current attribute.
"""

from importlib import import_module

# importing a submodule binds it on the package under its own name, so these
# two functions are bound after their modules load, not resolved lazily
from .jacobi import jacobi
from .potential import potential

__version__ = "1.0.0"

_EXPORTS = {
    "constants": ("PAPER", "PHYSICAL", "BUILTIN_MOLECULES", "Molecule",
                  "PhysicalConstants", "for_mode", "get_molecule", "hbar2_over_2mu",
                  "registry"),
    "errors": ("ConvergenceError", "DomainError", "HyiqpError", "UnknownMoleculeError",
               "UnsupportedRegimeError"),
    "hft": ("DerivativeResult", "ObservableValue", "d_energy_d_param",
            "observable_for_params"),
    "jacobi": ("jacobi",),
    "oracle": ("NumerovResult", "OracleConfig", "RadialGridSolution", "default_config",
               "expectation_numeric", "solve_matrix", "solve_numerov"),
    "potential": ("PotentialParams", "effective_potential", "greene_aldrich_inv_r",
                  "greene_aldrich_inv_r2", "hulthen", "inverse_quadratic", "potential",
                  "potential_curves", "yukawa"),
    "spectrum": ("NUIntermediates", "SpectrumResult", "energy", "energy_hulthen",
                 "energy_iqp", "energy_value", "energy_yukawa",
                 "normalization_constant", "nu_consistency", "wavefunction"),
    "tables": ("TableResult", "expectation_report", "load_fixture", "regenerate_table",
               "verify_fixture_checksums"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
