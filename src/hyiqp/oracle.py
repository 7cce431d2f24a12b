"""Independent radial-grid solver used to cross-check every closed form.

The radial equation is discretized with the exact potential (no
exponential-ratio surrogate anywhere) on a uniform grid with Dirichlet ends:

    -(hbar^2/2mu) u'' + [V(r) + (hbar^2/2mu) l(l+1)/r^2] u = E u

Two methods are provided.  ``solve_matrix`` builds the symmetric
tridiagonal second-order central-difference Hamiltonian and extracts the
lowest eigenpairs (LAPACK dstebz and dstein): bisection only far enough
to isolate each level, inverse iteration for its vector, and the vector's
Rayleigh quotient as the eigenvalue, accurate to second order in the
vector's error (Parlett, The Symmetric Eigenvalue Problem, ch. 4).  When only bound states are wanted, an inertia screen runs first:
if the LDL^T factorization (LAPACK dpttrf) of H - (C + delta) I succeeds,
that matrix is positive definite, no level lies below the asymptote C, and
the eigensolve, which would have dropped every level it found, is skipped.
``solve_numerov`` bisects the node count of the outward Numerov solution,
which counts the levels below an energy and has no poles (the shooting form
of Sturm oscillation; Johnson, J. Chem. Phys. 67, 4086 (1977)).  That count
is the number of negative LDL^T pivots of a tridiagonal matrix, taken with
the same dpttrf as the screen, restarted past each failed pivot, from the
last grid point next to r_min that does not resolve the barrier.  A pivot
is a ratio of consecutive terms of the solution, so the count stays inside
double range where the solution leaves it.  The two methods' disagreement
measures pure discretization error; their agreement with the closed forms
measures the surrogate approximation embedded there.

The three LAPACK routines come from scipy's f2py extension
scipy.linalg._flapack, loaded by file path (_lapack): the compiled objects
scipy.linalg.lapack exports, so every level and vector is the same, without
importing scipy.linalg, whose __init__, array-API layer and numpy.f2py cost
a cold oracle command ~0.3 s of its ~0.9 s and ~20 MB of its ~67 MB peak RSS.

One quadrature rule serves every grid integral: h sum u^2 f over the
interior points, the full-grid trapezoid with u = 0 at both walls.  Its mean
sum u^2 f / sum u^2 is u^T (dH/dq) u / u^T u for the strength q of f in H, so
by Hellmann-Feynman for the matrix it is the exact dE/dq of the grid level.

Deep Coulomb-like states are sensitive to the inner Dirichlet wall: the
eigenvalue shift scales as (hbar^2/2mu) |u'(r_min)|^2 r_min, about 1.6e-3
energy units per 1e-7 of r_min for the screened-well sanity configuration.
Tight cross-checks must therefore lower r_min below the default 1e-4.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constants import PhysicalConstants, hbar2_over_2mu, mu_energy_units
from .errors import ConvergenceError, DomainError
from .potential import PotentialParams, effective_potential
from .spectrum import count_sign_changes

# r_max default is the H2-scale window, rescaled with the screening length.
DEFAULT_R_MAX_TIMES_ALPHA = 40.0 * 0.20990
NODE_THRESHOLD = 1e-9
# absolute bisection tolerance (times max(1, |C|)) that isolates each level
# for inverse iteration; the eigenvalue itself is the vector's Rayleigh quotient
ISOLATION_TOL = 1e-6
# relative tolerance (times max(1, |C|)) of the inertia screen's margin in
# solve_matrix, and relative stopping tolerance of solve_numerov's bisection
EIG_TOL = 1e-10


@dataclass(frozen=True)
class OracleConfig:
    """Grid window and size for one solve.

    The solvers' tolerances are module constants (ISOLATION_TOL, EIG_TOL).
    """

    r_min: float = 1e-4
    r_max: float = 40.0
    n_points: int = 20000

    def __post_init__(self):
        if not 0.0 < self.r_min < self.r_max:
            raise DomainError("need 0 < r_min < r_max")
        if self.n_points < 1000:
            raise DomainError("n_points must be at least 1000")


def default_config(alpha: float) -> OracleConfig:
    """Default window scaled with the screening length 1/alpha, on OracleConfig's grid."""
    return OracleConfig(r_max=DEFAULT_R_MAX_TIMES_ALPHA / alpha)


@dataclass
class RadialGridSolution:
    """Bound eigenpairs of one (potential, l) problem on the grid.

    grid holds the interior points; each eigenvalue is the Rayleigh quotient
    of its eigenvector, which is normalized to h sum u^2 = 1 (the module's
    rule) and sign-fixed (positive at its largest lobe) for determinism.
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
    diagnostics: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class NumerovResult:
    """One Numerov eigenvalue and the number of levels below it."""

    energy: float
    node_count: int
    iterations: int


def _lapack():
    """scipy's f2py LAPACK extension, scipy.linalg._flapack, loaded by file path.

    It holds the compiled dpttrf, dstebz and dstein that
    scipy.linalg.lapack re-exports; importing it through scipy.linalg would
    also run scipy.linalg's __init__, scipy._lib's array-API layer and
    numpy.f2py.  Only the scipy package itself is imported, for its location
    and its platform set-up of the bundled libraries.  The module is
    registered under its own name, so a later import of scipy.linalg reuses
    this object, and if scipy.linalg (or this function) loaded it first, that
    object is returned.  A missing file raises ImportError with the paths
    looked for; there is no other route to LAPACK.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    directory = Path(scipy.__file__).parent / "linalg"
    paths = [directory / ("_flapack" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError("scipy's LAPACK extension not found; looked for "
                          + ", ".join(map(str, paths)), name=name)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


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
                 k_states: int, constants: PhysicalConstants,
                 below_asymptote_only: bool = True) -> RadialGridSolution:
    """Lowest k_states eigenpairs of the central-difference Hamiltonian.

    LAPACK stebz bisects only to ISOLATION_TOL max(1, |C|), enough to
    separate the levels, and stein computes each vector u by inverse
    iteration from those shifts.  The eigenvalue is u's Rayleigh quotient
    (_rayleigh_quotient).  Against an mpmath Sturm bisection of the same
    operator, diagonal 2c + V_eff summed exactly, it is within 5e-16 on the
    anchor (5000 and 20000 points) and 1.3e-15 on the 25 bound levels of H2
    and HCl (paper mode, V0 = 4).  A bisection to EIG_TOL, whose Sturm counts
    round at eps ||H||, was up to 2e-10 off there.

    States at or above the potential's asymptote C are box artifacts, not
    bound states; by default they are dropped with a diagnostic, and the
    bound subset (possibly empty) is returned.  stein then runs only on the
    shifts at or below C + ISOLATION_TOL max(1, |C|), which hold every level
    below C: it draws its start vectors in order and orthogonalizes each only
    against the ones before it, so the vectors it returns are bit for bit the
    leading ones of a call on all k_states shifts.

    When dropping them, one LDL^T factorization (LAPACK dpttrf) of
    H - (C + delta) I comes first, delta = EIG_TOL max(1, |C|) + 8 eps ||H||.
    It succeeds only if that matrix is positive definite, which by
    Sylvester's law of inertia means no level lies below C + delta; the
    eigensolve, which would drop every level it found, is then skipped and
    the same empty solution returned.  A Rayleigh quotient is not below the
    lowest level (up to rounding), so delta can only make the screen fire
    less; its first term once covered a bisection to EIG_TOL, its second the
    rounding in which dpttrf's pivots and Sturm counts differ (measured up to
    0.3 eps ||H||; with EIG_TOL alone the screen dropped a level the
    eigensolve put 1e-10 below C).  A failed factorization stops at its
    first non-positive pivot, and the eigensolve runs as before.
    """
    lapack = _lapack()
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
    shift = p.c + EIG_TOL * max(1.0, abs(p.c)) + 8.0 * np.finfo(float).eps * norm
    if below_asymptote_only and lapack.dpttrf(diag - shift, off)[2] == 0:
        eigenvalues, vectors = np.empty(0), None
    else:
        if not np.isfinite(norm):
            raise DomainError("the effective potential is not finite on the grid")
        tol = ISOLATION_TOL * max(1.0, abs(p.c))
        # range 2 = levels il..iu (1-based); order "B" is ascending for the
        # one block a nonzero off-diagonal leaves
        m, shifts, iblock, isplit, info = lapack.dstebz(diag, off, 2, 0.0, 1.0, 1,
                                                        k_states, tol, "B")
        if info != 0:
            raise ConvergenceError(f"LAPACK dstebz failed (info={info})")
        shifts = shifts[:m]
        if below_asymptote_only:
            shifts = shifts[shifts <= p.c + tol]
        vectors, info = lapack.dstein(diag, off, shifts, iblock, isplit)
        if info != 0:
            raise ConvergenceError(f"inverse iteration (LAPACK dstein) did not converge "
                                   f"for {info} of {shifts.size} eigenvectors")
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
        u /= np.sqrt(h * np.sum(u * u))
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
        diagnostics=diagnostics,
    )


def _nonpositive_pivots(d: np.ndarray) -> int:
    """Number of non-positive LDL^T pivots of tridiag(-1, d, -1); d is overwritten.

    By Sylvester's law of inertia it is the number of negative eigenvalues, a
    zero pivot counting as -tiny, as LAPACK's dlaebz counts it as -pivmin.
    LAPACK dpttrf factors in place and stops at its first non-positive pivot
    q; the factorization restarts on the next row, from d[i+1] - 1/q.  dpttrf
    forms each pivot by the same d - 1/q, so the pivots are those of one
    factorization run through.  Each pivot is a ratio of consecutive terms of
    the outward recurrence y[k+2] = d[k] y[k+1] - y[k], so it stays of the
    order of d where y itself leaves double range.  A one-row tail is
    compared directly: f2py rejects an empty off-diagonal.
    """
    dpttrf = _lapack().dpttrf
    off = np.full(max(d.size - 1, 0), -1.0)
    count = 0
    start = 0
    while start < d.size - 1:
        info = dpttrf(d[start:], off[start:], overwrite_d=1, overwrite_e=1)[2]
        if info == 0:
            return count
        count += 1
        start += info
        if start < d.size:
            d[start] -= 1.0 / (d[start - 1] or -np.finfo(float).tiny)
    return count + int(start == d.size - 1 and d[start] <= 0.0)


def _level_counter(p: PotentialParams, l: int, mu: float, cfg: OracleConfig,
                   lo: float, constants: PhysicalConstants):
    """count(E), the number of Numerov levels below E, for E >= lo.

    At or below the interior minimum of V_eff, g <= 0 everywhere, so the
    diagonal 12/w - 10 is at least 2 wherever w > 0, and the count is 0
    without a factorization.  Above it, the wall is set once, from
    e_floor = max(lo, min V_eff), so a lower end far below the potential
    cannot move it into the well.
    """
    full, _interior, h = _interior_grid(cfg)
    v_eff = effective_potential(full, p, l, mu, constants)
    step = h * h / (12.0 * hbar2_over_2mu(mu, constants))
    v_floor = float(v_eff[1:-1].min())
    wall = np.flatnonzero(1.0 + step * (max(lo, v_floor) - v_eff) <= 0.0).max(initial=0)
    v_eff = v_eff[wall + 1:-1]

    def count(e):
        if e <= v_floor:
            return 0
        return _nonpositive_pivots(12.0 / (1.0 + step * (e - v_eff)) - 10.0)

    return count


def solve_numerov(p: PotentialParams, l: int, mu: float, cfg: OracleConfig,
                  e_bracket: tuple[float, float],
                  constants: PhysicalConstants) -> NumerovResult:
    """The one Numerov eigenvalue inside e_bracket, by bisecting a node count.

    With g = (E - V_eff) / (hbar^2/2mu) and w = 1 + h^2 g / 12, y = w u of the
    outward solution (u = 0 at the wall) obeys y[i+1] = (12/w[i] - 10) y[i]
    - y[i-1]: it is the Sturm sequence of tridiag(-1, 12/w - 10, -1), whose
    diagonal falls as E rises wherever w > 0.  So its sign changes, which are
    that matrix's negative LDL^T pivots (_nonpositive_pivots), count the
    levels below E; the count grows with E and has no poles.  The wall is
    the last grid point where w <= 0 at the larger of the bracket's lower
    end and the interior minimum of V_eff, else r_min: where h^2 |g| / 12
    >= 1 the grid does not resolve the barrier, and sign changes there
    would shift the count.

    The bracket must hold exactly one level, else ConvergenceError says how
    many it holds.  Bisection on the count narrows it to EIG_TOL (relative
    to the energy scale of the current bracket), or until its midpoint is
    no longer representable, and returns the midpoint; node_count is the
    number of levels below it.
    """
    lo, hi = float(min(e_bracket)), float(max(e_bracket))
    count = _level_counter(p, l, mu, cfg, lo, constants)
    below = count(lo)
    levels = count(hi) - below
    if levels != 1:
        raise ConvergenceError(
            f"bracket ({lo:.9g}, {hi:.9g}) holds {levels} Numerov levels, not one")
    iterations = 0
    while hi - lo > EIG_TOL * max(1.0, abs(lo), abs(hi)):
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
    """Discrete Hellmann-Feynman mean of one observable on a solved state.

    Each mean is sum u^2 f / sum u^2, the module's rule, and so the derivative
    of the grid level itself: r_m2 is dE/dB and r_m1_screened -dE/dA (an
    interior-point trapezoid missed those by ~1e-6 on the anchor).  kinetic is
    -mu dE/dmu, every term of H that carries hbar^2/2mu: E - <V_eff>, the
    radial part of the Rayleigh quotient, plus the centrifugal mean
    (hbar^2 l(l+1)/2mu) <r^-2> that V_eff holds; p2 is 2 mu <T> with mu in
    the unit mode's energy convention.
    """
    if not 0 <= state < len(sol.eigenvalues):
        raise DomainError(
            f"state {state} out of range; solution holds {len(sol.eigenvalues)} states")
    r, u2 = sol.grid, sol.eigenvectors[state] ** 2
    norm = np.sum(u2)
    if observable == "r_m2":
        return float(np.sum(u2 / r**2) / norm)
    if observable == "r_m1_screened":
        return float(np.sum(u2 * np.exp(-sol.params.alpha * r) / r) / norm)
    if observable in ("kinetic", "p2"):
        kinetic = float(sol.eigenvalues[state] - np.sum(u2 * sol.v_eff) / norm)
        if sol.l:
            kinetic += (hbar2_over_2mu(sol.mu, sol.constants) * sol.l * (sol.l + 1)
                        * float(np.sum(u2 / r**2) / norm))
        if observable == "kinetic":
            return kinetic
        return 2.0 * mu_energy_units(sol.mu, sol.constants) * kinetic
    raise DomainError(
        f"unknown numeric observable {observable!r}; "
        "choose r_m2, r_m1_screened, kinetic or p2")
