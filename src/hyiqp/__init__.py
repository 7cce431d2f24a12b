"""Bound states of the combined Hulthen + Yukawa + inverse-quadratic potential.

The package pairs a closed-form model (hypergeometric-type reduction under
exponential-ratio surrogates for 1/r and 1/r^2, Hellmann-Feynman
expectation values) with an independent radial-grid solver that uses the
exact potential, so every analytic number can be cross-checked and the
bundled reference tables regenerated with deviation columns.
"""

from .constants import (PAPER, PHYSICAL, BUILTIN_MOLECULES, Molecule,
                        PhysicalConstants, for_mode, get_molecule,
                        hbar2_over_2mu, registry)
from .errors import (ConvergenceError, DomainError, HyiqpError,
                     UnknownMoleculeError, UnsupportedRegimeError)
from .hft import (DerivativeResult, ObservableValue, d_energy_d_param,
                  expectation_report, observable_for_params)
from .jacobi import jacobi
from .oracle import (NumerovResult, OracleConfig, RadialGridSolution,
                     default_config, expectation_numeric, solve_matrix,
                     solve_numerov)
from .potential import (PotentialParams, effective_potential,
                        greene_aldrich_inv_r, greene_aldrich_inv_r2, hulthen,
                        inverse_quadratic, potential, potential_curves, yukawa)
from .spectrum import (DimensionlessParams, NUIntermediates, SpectrumResult,
                       dimensionless_params, energy, energy_hulthen,
                       energy_iqp, energy_value, energy_yukawa,
                       normalization_constant, nu_consistency,
                       probability_density, wavefunction)
from .tables import (TableResult, load_fixture, regenerate_table,
                     verify_fixture_checksums)

__version__ = "1.0.0"

__all__ = [
    "PAPER", "PHYSICAL", "BUILTIN_MOLECULES", "Molecule", "PhysicalConstants",
    "for_mode", "get_molecule", "hbar2_over_2mu", "registry",
    "ConvergenceError", "DomainError", "HyiqpError", "UnknownMoleculeError",
    "UnsupportedRegimeError",
    "DerivativeResult", "ObservableValue", "d_energy_d_param",
    "expectation_report", "observable_for_params",
    "jacobi",
    "NumerovResult", "OracleConfig", "RadialGridSolution", "default_config",
    "expectation_numeric", "solve_matrix", "solve_numerov",
    "PotentialParams", "effective_potential", "greene_aldrich_inv_r",
    "greene_aldrich_inv_r2", "hulthen", "inverse_quadratic", "potential",
    "potential_curves", "yukawa",
    "DimensionlessParams", "NUIntermediates", "SpectrumResult",
    "dimensionless_params", "energy", "energy_hulthen", "energy_iqp",
    "energy_value", "energy_yukawa", "normalization_constant",
    "nu_consistency", "probability_density", "wavefunction",
    "TableResult", "load_fixture", "regenerate_table",
    "verify_fixture_checksums",
    "__version__",
]
