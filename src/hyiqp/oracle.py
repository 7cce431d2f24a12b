"""Independent radial-grid solver used to cross-check every closed form.

The radial equation is discretized with the exact potential (no
exponential-ratio surrogate anywhere) on a uniform grid with Dirichlet ends:

    -(hbar^2/2mu) u'' + [V(r) + (hbar^2/2mu) l(l+1)/r^2] u = E u

Two methods are provided.  ``solve_matrix`` builds the symmetric
tridiagonal second-order central-difference Hamiltonian and extracts the
lowest eigenpairs (LAPACK, via scipy.linalg.eigh_tridiagonal): bisection
only far enough to isolate each level, inverse iteration for its vector,
and the vector's Rayleigh quotient as the eigenvalue, accurate to second
order in the vector's error (Parlett, The Symmetric Eigenvalue Problem,
ch. 4).  When only bound states are wanted, an inertia screen runs first:
if the LDL^T factorization (LAPACK dpttrf) of H - (C + delta) I succeeds,
that matrix is positive definite, no level lies below the asymptote C, and
the eigensolve, which would have dropped every level it found, is skipped.
``solve_numerov`` bisects the node count of one outward Numerov sweep,
which counts the levels below an energy and has no poles (the shooting form
of Sturm oscillation; Johnson, J. Chem. Phys. 67, 4086 (1977)).  The
sweep is a chain of LAPACK banded triangular solves (dtbtrs), rescaled
between blocks, from the last grid point next to r_min that does not
resolve the barrier.  The two methods' disagreement measures pure
discretization error; their agreement with the closed forms measures the
surrogate approximation embedded there.

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
# absolute bisection tolerance (times max(1, |C|)) that isolates each level
# for inverse iteration; the eigenvalue itself is the vector's Rayleigh quotient
ISOLATION_TOL = 1e-6


@dataclass(frozen=True)
class OracleConfig:
    """Grid and tolerance settings for one solve.

    eig_tol sets the inertia screen's margin in solve_matrix and the
    stopping tolerance of solve_numerov; solve_matrix's eigenvalues are
    Rayleigh quotients and do not depend on it.
    """

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

    grid holds the interior points; each eigenvalue is the Rayleigh quotient
    of its eigenvector, which is trapezoid-normalized on the grid and
    sign-fixed (positive at its largest lobe) for determinism.
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
    """One Numerov eigenvalue and the number of levels below it."""

    energy: float
    node_count: int
    iterations: int


def _interior_grid(cfg: OracleConfig):
    full = np.linspace(cfg.r_min, cfg.r_max, cfg.n_points)
    return full, full[1:-1], full[1] - full[0]


def _rayleigh_quotient(u: np.ndarray, v_eff: np.ndarray, c: float) -> float:
    """u^T H u / u^T u for H = tridiag(-c, 2c + v_eff, -c).

    The kinetic part is c times the squared neighbour differences plus the
    two end values squared: 2 u_i^2 - 2 u_i u_(i+1) would cancel at ||H||.
    The sums are numpy's pairwise ones, not BLAS dot products, which
    OpenBLAS threads: with two threads on two cores, 27 of them per 9-level
    solve doubled its time.
    """
    d = np.diff(u)
    u2 = u * u
    return (c * (np.sum(d * d) + u2[0] + u2[-1]) + np.sum(v_eff * u2)) / np.sum(u2)


def solve_matrix(p: PotentialParams, l: int, mu: float, cfg: OracleConfig,
                 k_states: int, constants: PhysicalConstants = PAPER,
                 below_asymptote_only: bool = True) -> RadialGridSolution:
    """Lowest k_states eigenpairs of the central-difference Hamiltonian.

    LAPACK stebz bisects only to ISOLATION_TOL max(1, |C|), enough to
    separate the levels, and stein computes each vector u by inverse
    iteration from those shifts.  The eigenvalue is u's Rayleigh quotient
    (_rayleigh_quotient).  Against an mpmath Sturm bisection of the same
    operator, diagonal 2c + V_eff summed exactly, it is within 5e-16 on the
    anchor (5000 and 20000 points) and 1.3e-15 on the 25 bound levels of H2
    and HCl (paper mode, V0 = 4).  A bisection to eig_tol, whose Sturm counts
    round at eps ||H||, was up to 2e-10 off there.

    States at or above the potential's asymptote C are box artifacts, not
    bound states; by default they are dropped with a diagnostic, and the
    bound subset (possibly empty) is returned.

    When dropping them, one LDL^T factorization (LAPACK dpttrf) of
    H - (C + delta) I comes first, delta = eig_tol max(1, |C|) + 8 eps ||H||.
    It succeeds only if that matrix is positive definite, which by
    Sylvester's law of inertia means no level lies below C + delta; the
    eigensolve, which would drop every level it found, is then skipped and
    the same empty solution returned.  A Rayleigh quotient is not below the
    lowest level (up to rounding), so delta can only make the screen fire
    less; its first term once covered a bisection to eig_tol, its second the
    rounding in which dpttrf's pivots and Sturm counts differ (measured up to
    0.3 eps ||H||; with eig_tol alone the screen dropped a level the
    eigensolve put 1e-10 below C).  A failed factorization stops at its
    first non-positive pivot, and the eigensolve runs as before.
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
        _shifts, vectors = eigh_tridiagonal(
            diag, off, select="i", select_range=(0, k_states - 1),
            tol=ISOLATION_TOL * max(1.0, abs(p.c)))
        eigenvalues = np.array([_rayleigh_quotient(u, v_eff, h2m / h**2)
                                for u in vectors.T])

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


def _numerov_sweep(d: np.ndarray, ends) -> np.ndarray:
    """Outward solution of y[k+2] = d[k] y[k+1] - y[k] from y[0] = 0, y[1] = 1.

    Block i, ending before ends[i], is one LAPACK dtbtrs solve of this unit
    lower-triangular recurrence, started from the last pair of block i-1
    divided by its larger magnitude: y keeps its signs but not its scale.
    """
    from scipy.linalg.lapack import dtbtrs
    y = np.zeros(d.size + 2)
    y[1] = 1.0
    start = 0
    for end in ends:
        ab = np.ones((3, end - start))
        ab[1, 0] = 0.0
        ab[1, 1:-1] = -d[start:end - 2]
        b = np.zeros((end - start, 1))
        pair = y[start:start + 2]
        b[:2, 0] = pair / np.max(np.abs(pair))
        y[start:end] = dtbtrs(ab, b, uplo="L", diag="U")[0][:, 0]
        start = end - 2
    return y


def _level_counter(p: PotentialParams, l: int, mu: float, cfg: OracleConfig,
                   lo: float, hi: float, constants: PhysicalConstants):
    """count(E), the number of Numerov levels below E, for lo <= E <= hi.

    At or below the interior minimum of V_eff, g <= 0 everywhere, so the
    diagonal 12/w - 10 is at least 2 wherever w > 0, and the count is 0
    without a sweep.  Above it, the wall and block ends are set once, from
    e_floor = max(lo, min V_eff), so a lower end far below the potential
    cannot move the wall into the well.  Block ends keep the summed local
    growth rate arccosh(max(|12/w - 10| / 2, 1)) below ln 1e250 per block,
    so no sweep leaves double range; |12/w - 10| is monotone in E, so its
    larger value at e_floor and hi bounds it on the whole bracket.
    """
    full, _interior, h = _interior_grid(cfg)
    v_eff = effective_potential(full, p, l, mu, constants)
    step = h * h / (12.0 * hbar2_over_2mu(mu, constants))
    v_floor = float(v_eff[1:-1].min())
    e_floor = max(lo, v_floor)
    wall = np.flatnonzero(1.0 + step * (e_floor - v_eff) <= 0.0).max(initial=0)
    v_eff = v_eff[wall + 1:-1]

    def coefficients(e):
        return 12.0 / (1.0 + step * (e - v_eff)) - 10.0

    steepest = np.maximum(np.abs(coefficients(e_floor)),
                          np.abs(coefficients(max(hi, e_floor))))
    block = np.cumsum(np.arccosh(np.maximum(steepest / 2.0, 1.0))) // np.log(1e250)
    ends = np.append(np.flatnonzero(np.diff(block)) + 3, v_eff.size + 2)

    def count(e):
        if e <= v_floor:
            return 0
        y = _numerov_sweep(coefficients(e), ends)
        return int(np.count_nonzero(np.diff(np.signbit(y))))

    return count


def solve_numerov(p: PotentialParams, l: int, mu: float, cfg: OracleConfig,
                  e_bracket: tuple[float, float],
                  constants: PhysicalConstants = PAPER) -> NumerovResult:
    """The one Numerov eigenvalue inside e_bracket, by bisecting a node count.

    With g = (E - V_eff) / (hbar^2/2mu) and w = 1 + h^2 g / 12, y = w u of the
    outward solution (u = 0 at the wall) obeys y[i+1] = (12/w[i] - 10) y[i]
    - y[i-1]: it is the Sturm sequence of tridiag(-1, 12/w - 10, -1), whose
    diagonal falls as E rises wherever w > 0.  So its sign changes count the
    levels below E; the count grows with E and has no poles.  The wall is
    the last grid point where w <= 0 at the larger of the bracket's lower
    end and the interior minimum of V_eff, else r_min: where h^2 |g| / 12
    >= 1 the grid does not resolve the barrier, and sign changes there
    would shift the count.

    The bracket must hold exactly one level, else ConvergenceError says how
    many it holds.  Bisection on the count narrows it to eig_tol (relative
    to the energy scale of the current bracket), or until its midpoint is
    no longer representable, and returns the midpoint; node_count is the
    number of levels below it.
    """
    lo, hi = float(min(e_bracket)), float(max(e_bracket))
    count = _level_counter(p, l, mu, cfg, lo, hi, constants)
    below = count(lo)
    levels = count(hi) - below
    if levels != 1:
        raise ConvergenceError(
            f"bracket ({lo:.9g}, {hi:.9g}) holds {levels} Numerov levels, not one")
    iterations = 0
    while hi - lo > cfg.eig_tol * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        iterations += 1
        if count(mid) > below:
            hi = mid
        else:
            lo = mid
    return NumerovResult(energy=0.5 * (lo + hi), node_count=below, iterations=iterations)


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
