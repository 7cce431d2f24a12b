"""Independent radial-grid solver used to cross-check every closed form.

The radial equation is discretized with the exact potential (no
exponential-ratio surrogate anywhere) on a uniform grid with Dirichlet ends:

    -(hbar^2/2mu) u'' + [V(r) + (hbar^2/2mu) l(l+1)/r^2] u = E u

Two methods are provided.  ``solve_matrix`` builds the symmetric
tridiagonal second-order central-difference Hamiltonian and extracts the
lowest eigenpairs by bisection plus inverse iteration (LAPACK, via
scipy.linalg.eigh_tridiagonal).  When only bound states are wanted, an
inertia screen runs first: if the LDL^T factorization (LAPACK dpttrf) of
H - (C + delta) I succeeds, that matrix is positive definite, no level lies
below the asymptote C, and the eigensolve, which would have dropped every
level it found, is skipped.  ``solve_numerov`` integrates outward and
inward with the Numerov scheme, each sweep solved as the lower-banded
triangular system it is (LAPACK dtbtrs), and matches logarithmic
derivatives at the outermost classical turning point, bisecting the
mismatch to locate one eigenvalue inside a bracket.  The two methods'
disagreement measures pure discretization error; their agreement with the
closed forms measures the surrogate approximation embedded there.

The mismatch also changes sign across its poles, where a branch vanishes
at the matching point.  A bisection that closes on a pole raises
ConvergenceError instead of returning it as a level.

Deep Coulomb-like states are sensitive to the inner Dirichlet wall: the
eigenvalue shift scales as (hbar^2/2mu) |u'(r_min)|^2 r_min, about 1.6e-3
energy units per 1e-7 of r_min for the screened-well sanity configuration.
Tight cross-checks must therefore lower r_min below the default 1e-4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import PAPER, PhysicalConstants, hbar2_over_2mu, mu_energy_units
from .errors import ConvergenceError, DomainError
from .potential import PotentialParams, effective_potential
from .spectrum import count_sign_changes

# r_max default is the H2-scale window, rescaled with the screening length.
DEFAULT_R_MAX_TIMES_ALPHA = 40.0 * 0.20990
NODE_THRESHOLD = 1e-9


@dataclass(frozen=True)
class OracleConfig:
    """Grid and tolerance settings for one solve."""

    r_min: float = 1e-4
    r_max: float = 40.0
    n_points: int = 20000
    eig_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.r_min < self.r_max:
            raise DomainError("need 0 < r_min < r_max")
        if self.n_points < 1000:
            raise DomainError("n_points must be at least 1000")
        if self.eig_tol > 1e-8:
            raise DomainError("eig_tol must be at most 1e-8")


def default_config(alpha: float, n_points: int = 20000) -> OracleConfig:
    """Default window scaled with the screening length 1/alpha."""
    return OracleConfig(r_min=1e-4, r_max=DEFAULT_R_MAX_TIMES_ALPHA / alpha,
                        n_points=n_points)


@dataclass
class RadialGridSolution:
    """Bound eigenpairs of one (potential, l) problem on the grid.

    grid holds the interior points; each eigenvector is trapezoid-normalized
    on it and sign-fixed (positive at its largest lobe) for determinism.
    """

    grid: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray          # shape (n_states, n_interior)
    node_counts: list[int]
    v_eff: np.ndarray
    params: PotentialParams
    l: int
    mu: float
    constants: PhysicalConstants
    asymptote: float
    diagnostics: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class NumerovResult:
    """Matched eigenvalue from the two-sided Numerov integration."""

    energy: float
    node_count: int
    iterations: int
    mismatch: float


def _interior_grid(cfg: OracleConfig):
    full = np.linspace(cfg.r_min, cfg.r_max, cfg.n_points)
    return full, full[1:-1], full[1] - full[0]


def solve_matrix(p: PotentialParams, l: int, mu: float, cfg: OracleConfig,
                 k_states: int, constants: PhysicalConstants = PAPER,
                 below_asymptote_only: bool = True) -> RadialGridSolution:
    """Lowest k_states eigenpairs of the central-difference Hamiltonian.

    States at or above the potential's asymptote C are box artifacts, not
    bound states; by default they are dropped with a diagnostic, and the
    bound subset (possibly empty) is returned.

    When dropping them, one LDL^T factorization (LAPACK dpttrf) of
    H - (C + delta) I comes first, delta = eig_tol max(1, |C|) + 8 eps ||H||.
    It succeeds only if that matrix is positive definite, which by
    Sylvester's law of inertia means no level lies below C + delta; the
    eigensolve, which would drop every level it found, is then skipped and
    the same empty solution returned.  The first term of delta covers the
    bisection's tolerance, the second the rounding in which dpttrf's pivots
    and the bisection's Sturm counts differ (measured up to 0.3 eps ||H||;
    with eig_tol alone the screen dropped a level the eigensolve put 1e-10
    below C).  A failed factorization stops at its first non-positive pivot,
    and the eigensolve runs as before.
    """
    from scipy.linalg import eigh_tridiagonal
    from scipy.linalg.lapack import dpttrf
    if k_states < 1:
        raise DomainError("k_states must be at least 1")
    _full, r, h = _interior_grid(cfg)
    if k_states > r.size:
        raise DomainError("k_states exceeds the number of interior grid points")
    h2m = hbar2_over_2mu(mu, constants)
    v_eff = effective_potential(r, p, l, mu, constants)
    diag = 2.0 * h2m / h**2 + v_eff
    off = np.full(r.size - 1, -h2m / h**2)
    norm = np.max(np.abs(diag)) + 2.0 * h2m / h**2
    shift = p.c + cfg.eig_tol * max(1.0, abs(p.c)) + 8.0 * np.finfo(float).eps * norm
    if below_asymptote_only and dpttrf(diag - shift, off)[2] == 0:
        eigenvalues, vectors = np.empty(0), None
    else:
        eigenvalues, vectors = eigh_tridiagonal(
            diag, off, select="i", select_range=(0, k_states - 1), tol=cfg.eig_tol)

    diagnostics = []
    keep = np.arange(k_states)
    if below_asymptote_only:
        keep = np.nonzero(eigenvalues < p.c)[0]
        if keep.size < k_states:
            diagnostics.append(
                f"only {keep.size} of {k_states} requested states lie below "
                f"the asymptote C={p.c:.6g}; unbound box states dropped"
            )

    vecs = []
    nodes = []
    for k in keep:
        u = vectors[:, k].astype(float)
        u /= np.sqrt(np.trapezoid(u * u, r))
        if u[int(np.argmax(np.abs(u)))] < 0.0:
            u = -u
        vecs.append(u)
        nodes.append(count_sign_changes(u, threshold_ratio=NODE_THRESHOLD))
    return RadialGridSolution(
        grid=r,
        eigenvalues=eigenvalues[keep],
        eigenvectors=np.array(vecs) if vecs else np.empty((0, r.size)),
        node_counts=nodes,
        v_eff=v_eff,
        params=p,
        l=l,
        mu=mu,
        constants=constants,
        asymptote=p.c,
        diagnostics=diagnostics,
    )


def _numerov_sweep(w: np.ndarray) -> np.ndarray:
    """Numerov solution on w's grid started from u[0] = 0, u[1] = 1e-12.

    The recurrence w[i+1] u[i+1] - (12 - 10 w[i]) u[i] + w[i-1] u[i-1] = 0
    is a lower-triangular system of bandwidth two; LAPACK dtbtrs solves it
    by forward substitution without pivoting.  A zero pivot (some w[i] = 0)
    raises instead of spreading inf/NaN.
    """
    from scipy.linalg.lapack import dtbtrs
    m = w.size
    ab = np.zeros((3, m))
    ab[0, :2] = 1.0
    ab[0, 2:] = w[2:]
    ab[1, 1:-1] = 10.0 * w[1:-1] - 12.0
    ab[2, :-2] = w[:-2]
    b = np.zeros((m, 1))
    b[1, 0] = 1e-12
    u, info = dtbtrs(ab, b, uplo="L")
    if info != 0:
        raise ConvergenceError(
            "Numerov sweep hit a zero pivot: w = 1 + h^2 g / 12 vanishes on the grid")
    return u[:, 0]


def _numerov_mismatch(g: np.ndarray, h: float, match: int):
    """Log-derivative mismatch at the match index for u'' + g u = 0.

    Sweeps outward to match+1 and inward to match-1 with the Numerov
    three-point scheme and returns the difference of the centered
    logarithmic derivatives, plus both branches for state assembly.
    """
    w = 1.0 + (h * h / 12.0) * g
    n = g.size
    uo = _numerov_sweep(w[: match + 2])
    ui = np.zeros(n)
    ui[match - 1:] = _numerov_sweep(w[::-1][: n - match + 1])[::-1]
    if uo[match] == 0.0 or ui[match] == 0.0:
        raise ConvergenceError("Numerov solution vanished at the matching point")
    dlog_out = (uo[match + 1] - uo[match - 1]) / (2.0 * h * uo[match])
    dlog_in = (ui[match + 1] - ui[match - 1]) / (2.0 * h * ui[match])
    return dlog_out - dlog_in, uo, ui


def _assemble(uo: np.ndarray, ui: np.ndarray, match: int, n: int) -> np.ndarray:
    u = np.zeros(n)
    u[: match + 1] = uo[: match + 1]
    scale = uo[match] / ui[match]
    u[match + 1:] = scale * ui[match + 1:]
    return u


def solve_numerov(p: PotentialParams, l: int, mu: float, cfg: OracleConfig,
                  e_bracket: tuple[float, float],
                  constants: PhysicalConstants = PAPER,
                  max_iterations: int = 200) -> NumerovResult:
    """One eigenvalue inside e_bracket by two-sided Numerov matching.

    The bracket must straddle a sign change of the log-derivative mismatch;
    bisection narrows it to eig_tol (relative to the energy scale) with a
    final secant polish.  Each Numerov sweep is one LAPACK banded
    triangular solve.  A sign change that is a pole of the mismatch, not a
    root, raises ConvergenceError: the polished |mismatch| must not exceed
    the smaller of its two starting values.
    """
    full, _interior, h = _interior_grid(cfg)
    h2m = hbar2_over_2mu(mu, constants)
    v_eff = effective_potential(full, p, l, mu, constants)

    def mismatch(e):
        g = (e - v_eff) / h2m
        sign_flips = np.nonzero(np.diff(np.sign(g)) != 0)[0]
        match = int(sign_flips[-1]) + 1 if sign_flips.size else full.size // 2
        match = min(max(match, 2), full.size - 3)
        val, uo, ui = _numerov_mismatch(g, h, match)
        return val, uo, ui, match

    lo, hi = float(min(e_bracket)), float(max(e_bracket))
    f_lo, *_ = mismatch(lo)
    f_hi, *_ = mismatch(hi)
    if not (np.isfinite(f_lo) and np.isfinite(f_hi)):
        raise ConvergenceError(
            f"Numerov sweep overflowed in bracket ({lo:.9g}, {hi:.9g}): the solution "
            f"grows past double range across the forbidden tail; use a smaller r_max "
            f"than {cfg.r_max:.6g}")
    if f_lo * f_hi > 0.0:
        raise ConvergenceError(
            f"no sign change of the matching mismatch in bracket ({lo:.9g}, {hi:.9g})"
        )
    start_mismatch = min(abs(f_lo), abs(f_hi))
    tol = cfg.eig_tol * max(1.0, abs(lo), abs(hi))
    iterations = 0
    while hi - lo > tol:
        iterations += 1
        if iterations > max_iterations:
            raise ConvergenceError(
                f"Numerov matching did not converge in {max_iterations} iterations")
        mid = 0.5 * (lo + hi)
        f_mid, *_ = mismatch(mid)
        if f_lo * f_mid <= 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    # one secant polish inside the final bracket
    e_star = lo - f_lo * (hi - lo) / (f_hi - f_lo) if f_hi != f_lo else 0.5 * (lo + hi)
    if not lo <= e_star <= hi:
        e_star = 0.5 * (lo + hi)
    f_star, uo, ui, match = mismatch(e_star)
    if not abs(f_star) <= start_mismatch:
        raise ConvergenceError(
            f"bracket holds a pole of the matching function, not a level: "
            f"|mismatch| grew from {start_mismatch:.3g} to {abs(f_star):.3g} "
            f"near E={e_star:.9g}")
    u = _assemble(uo, ui, match, full.size)
    nodes = count_sign_changes(u[1:-1], threshold_ratio=NODE_THRESHOLD)
    return NumerovResult(energy=e_star, node_count=nodes,
                         iterations=iterations, mismatch=f_star)


def solution_to_csv(sol: RadialGridSolution) -> str:
    """Plot-ready CSV dump of the grid and every solved eigenvector."""
    header = "r," + ",".join(f"u{k}" for k in range(len(sol.eigenvalues)))
    lines = [header]
    for i in range(sol.grid.size):
        cells = [f"{sol.grid[i]:.12g}"]
        cells += [f"{sol.eigenvectors[k][i]:.12g}" for k in range(len(sol.eigenvalues))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def expectation_numeric(sol: RadialGridSolution, state: int, observable: str) -> float:
    """Trapezoid expectation of one observable on a solved state.

    kinetic is taken as E - <V_eff> (no differentiation of the eigenvector);
    p2 is 2 mu <T> with mu in the unit mode's energy convention.
    """
    if not 0 <= state < len(sol.eigenvalues):
        raise DomainError(
            f"state {state} out of range; solution holds {len(sol.eigenvalues)} states")
    r = sol.grid
    u = sol.eigenvectors[state]
    norm = np.trapezoid(u * u, r)
    if observable == "r_m2":
        return float(np.trapezoid(u * u / r**2, r) / norm)
    if observable == "r_m1_screened":
        return float(np.trapezoid(u * u * np.exp(-sol.params.alpha * r) / r, r) / norm)
    if observable in ("kinetic", "p2"):
        mean_v = np.trapezoid(u * u * sol.v_eff, r) / norm
        kinetic = float(sol.eigenvalues[state] - mean_v)
        if observable == "kinetic":
            return kinetic
        return 2.0 * mu_energy_units(sol.mu, sol.constants) * kinetic
    raise DomainError(
        f"unknown numeric observable {observable!r}; "
        "choose r_m2, r_m1_screened, kinetic or p2")
