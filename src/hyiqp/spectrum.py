"""Closed-form spectrum and wave functions of the combined potential.

Under the exponential-ratio surrogates for 1/r and 1/r^2, the substitution
s = exp(-2 alpha r) turns the radial equation into a hypergeometric-type
equation.  With the dimensionless groups

    eps2   = -mu E  / (2 hbar^2 alpha^2)      sigma1 = mu A / (hbar^2 alpha)
    delta2 =  mu V0 / (2 hbar^2 alpha^2)      sigma2 = 2 mu B / hbar^2
    sigma3 =  mu C  / (2 hbar^2 alpha^2)

the quantization condition (equality of the two expressions for the
eigenvalue parameter lambda) fixes

    sqrt(eps2 + sigma3) = M / D

    gamma = sqrt(4 sigma2 + 4 l(l+1) + 1)
    M     = sigma2 - sigma1 - delta2 + l(l+1) + n^2 + n + 1/2 + (n + 1/2) gamma
    D     = 1 + 2n + gamma

so the level energy is E = -4 (hbar^2/2mu) alpha^2 (M/D)^2 + C.  Note that
M/D may come out negative: the quantization is then satisfied on the
negative branch of the square root, which is surfaced as a diagnostic (the
corresponding state decays only with the principal branch, which is what
the wave function uses).

The degree-n factor of the wave function is a Jacobi polynomial in 1 - 2s.
Three exponent conventions are provided because the closed-form solution
states one pair of superscripts, its own weight function implies another,
and only the standard Rodrigues construction yields the n interior nodes a
bound eigenfunction must have:

    literal   (a, b) = (2 sqrtP - 4 gamma, -2 sqrtP - 4 gamma)
    weight    (a, b) = (2 sqrtP - gamma,   -2 sqrtP - gamma)
    orthodox  (a, b) = (2 sqrtP,            gamma)

with sqrtP = sqrt(eps2 + sigma3) taken on the principal branch.  ``literal``
is the default for table and figure regeneration; the alternatives sit
behind the ``convention`` flag and are never silently substituted.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants, hbar2_over_2mu
from .errors import ConvergenceError, DomainError, UnsupportedRegimeError
from .jacobi import jacobi
from .potential import PotentialParams

NU_RESIDUAL_TOL = 1e-10

WAVEFUNCTION_CONVENTIONS = ("literal", "weight", "orthodox")


@dataclass(frozen=True)
class DimensionlessParams:
    """The five dimensionless groups of the transformed radial equation."""

    eps2: float
    delta2: float
    sigma1: float
    sigma2: float
    sigma3: float


@dataclass(frozen=True)
class SpectrumResult:
    """One closed-form level with its quantization audit.

    nu_residual is |lambda - lambda_n| evaluated on the solved branch of
    sqrt(eps2 + sigma3) and must vanish to rounding for every returned
    result.  tau_slope is the bound-branch tau'(s); tau_slope >= 0 means the
    construction's own bound-state condition fails for this (n, l), which is
    reported here rather than raised.  below_asymptote flags E < C.
    """

    energy: float
    gamma: float
    n: int
    l: int
    nu_residual: float
    eps2: float
    root: float            # signed sqrt(eps2 + sigma3) = M/D on the solved branch
    tau_slope: float
    bound_condition_ok: bool
    principal_branch: bool
    below_asymptote: bool


@dataclass(frozen=True)
class NUIntermediates:
    """Internals of the hypergeometric reduction at one solved level."""

    k1: float
    k2: float
    pi_slope: float        # linear coefficient of the bound-branch pi(s)
    pi_intercept: float
    tau_slope: float
    lam: float
    lam_n: float
    residual: float
    root: float
    bound_condition_ok: bool


def dimensionless_params(p: PotentialParams, mu: float, energy: float,
                         constants: PhysicalConstants) -> DimensionlessParams:
    """Dimensionless groups at a given energy in the active unit mode."""
    h2 = hbar2_over_2mu(mu, constants)
    a2 = p.alpha**2
    return DimensionlessParams(
        eps2=-energy / (4.0 * h2 * a2),
        delta2=p.v0 / (4.0 * h2 * a2),
        sigma1=p.a / (2.0 * h2 * p.alpha),
        sigma2=p.b / h2,
        sigma3=p.c / (4.0 * h2 * a2),
    )


def _check_nl(n, l, allow_real_l=False):
    if n < 0 or n != int(n):
        raise DomainError(f"n must be a non-negative integer, got {n}")
    if allow_real_l:
        # continuous-l evaluations are used for the l-derivative; they only
        # need l(l+1) > -1/4 to keep the square root real for B >= 0.  The
        # complex-step derivative passes a complex l, guarded on its real part
        if l.real <= -0.5:
            raise DomainError(f"real l must exceed -1/2, got {l}")
    elif l < 0 or l != int(l):
        raise DomainError(f"l must be a non-negative integer, got {l}")


def _energy_pieces(p: PotentialParams, mu: float, n: int, l: float,
                   constants: PhysicalConstants):
    """gamma, M, D, h2 and the sigma groups shared by energy and derivatives.

    l, A or mu may be complex (the complex-step derivative); the real path
    never touches cmath.
    """
    h2 = hbar2_over_2mu(mu, constants)
    ll1 = l * (l + 1.0)
    sigma2 = p.b / h2
    radicand = 4.0 * sigma2 + 4.0 * ll1 + 1.0
    if radicand.real < 0.0:
        raise UnsupportedRegimeError(
            "square-root argument 4*sigma2 + 4l(l+1) + 1 is negative "
            f"({radicand:.6g}); the inverse-square attraction is too strong"
        )
    gamma = cmath.sqrt(radicand) if isinstance(radicand, complex) else math.sqrt(radicand)
    sigma1 = p.a / (2.0 * h2 * p.alpha)
    delta2 = p.v0 / (4.0 * h2 * p.alpha**2)
    m_num = (sigma2 - sigma1 - delta2 + ll1) + n * n + n + 0.5 + (n + 0.5) * gamma
    d_den = 1.0 + 2.0 * n + gamma
    return h2, gamma, sigma1, sigma2, delta2, m_num, d_den


def energy_value(p: PotentialParams, mu: float, n: int, l: float,
                 constants: PhysicalConstants) -> float:
    """Closed-form level energy; accepts real l for parameter derivatives."""
    _check_nl(n, l, allow_real_l=True)
    h2, gamma, _s1, _s2, _d2, m_num, d_den = _energy_pieces(p, mu, n, l, constants)
    return -4.0 * h2 * p.alpha**2 * (m_num / d_den) ** 2 + p.c


def energy(p: PotentialParams, mu: float, n: int, l: int,
           constants: PhysicalConstants) -> SpectrumResult:
    """Level energy plus the quantization audit for integer quantum numbers."""
    _check_nl(n, l)
    n = int(n)
    l = int(l)
    h2, gamma, sigma1, sigma2, delta2, m_num, d_den = _energy_pieces(
        p, mu, n, l, constants)
    root = m_num / d_den
    e_val = -4.0 * h2 * p.alpha**2 * root**2 + p.c
    sigma3 = p.c / (4.0 * h2 * p.alpha**2)
    lam, lam_n = _lambda_pair(root, gamma, sigma1, sigma2, delta2, n, l)
    tau_slope = -2.0 - 2.0 * (0.5 * gamma - root)
    return SpectrumResult(
        energy=e_val,
        gamma=gamma,
        n=n,
        l=l,
        nu_residual=abs(lam - lam_n),
        eps2=root**2 - sigma3,
        root=root,
        tau_slope=tau_slope,
        bound_condition_ok=tau_slope < 0.0,
        principal_branch=root >= 0.0,
        below_asymptote=e_val < p.c,
    )


def _lambda_pair(root, gamma, sigma1, sigma2, delta2, n, l):
    """Both expressions for the eigenvalue parameter at a given root value.

    lambda comes from k + pi'(s) on the bound branch; lambda_n is the
    degree-n polynomial-termination value.  Their equality is the
    quantization condition, solved identically by root = M/D.
    """
    lam = (-0.5 - (0.5 * gamma - root) + root * gamma
           + (delta2 + sigma1) - (sigma2 + l * (l + 1.0)))
    lam_n = n * n + n + n * gamma - 2.0 * n * root
    return lam, lam_n


def nu_consistency(p: PotentialParams, mu: float, n: int, l: int,
                   constants: PhysicalConstants) -> NUIntermediates:
    """Rebuild the hypergeometric internals at the solved level and audit them.

    The returned residual |lambda - lambda_n| is evaluated on the branch the
    quantization was solved on (root = M/D, sign included) and must not
    exceed NU_RESIDUAL_TOL.  A violated bound-state condition (tau' >= 0) is
    reported through bound_condition_ok, never silently.
    """
    res = energy(p, mu, n, l, constants)
    h2 = hbar2_over_2mu(mu, constants)
    sigma1 = p.a / (2.0 * h2 * p.alpha)
    sigma2 = p.b / h2
    delta2 = p.v0 / (4.0 * h2 * p.alpha**2)
    gamma = res.gamma
    root = res.root
    ll1 = l * (l + 1.0)
    # k roots of the discriminant condition; the principal square root of
    # (eps2 + sigma3) * gamma^2 evaluated at the solved level
    k_sqrt = abs(root) * gamma
    k_base = -(sigma2 - sigma1 - delta2 + ll1)
    k1 = k_base + k_sqrt
    k2 = k_base - k_sqrt
    lam, lam_n = _lambda_pair(root, gamma, sigma1, sigma2, delta2, n, l)
    residual = abs(lam - lam_n)
    if residual > NU_RESIDUAL_TOL:
        raise ConvergenceError(
            f"quantization residual {residual:.3e} exceeds {NU_RESIDUAL_TOL:.1e} "
            f"at n={n}, l={l}"
        )
    return NUIntermediates(
        k1=k1,
        k2=k2,
        pi_slope=-0.5 - (0.5 * gamma - root),
        pi_intercept=root,
        tau_slope=res.tau_slope,
        lam=lam,
        lam_n=lam_n,
        residual=residual,
        root=root,
        bound_condition_ok=res.bound_condition_ok,
    )


def energy_hulthen(v0: float, alpha: float, mu: float, n: int, l: int,
                   constants: PhysicalConstants) -> float:
    """Screened-well (Hulthen) limit, in its collapsed algebraic form.

    Because sqrt(4 l(l+1) + 1) = 2l + 1 exactly (verified here; IEEE square
    roots of exact perfect squares are exact), the generic quotient
    collapses to ((n+l)(n+l+2) + 1 - delta2) / (2(n+l+1)).  Implementing
    that collapsed arrangement keeps the reduction check against the full
    closed form a genuine cross-identity rather than a tautology.  With
    m = n + l + 1 this is the textbook screened-well spectrum, so n counts
    radial nodes and corresponds to principal quantum number n + 1.
    """
    _check_nl(n, l)
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    root = math.sqrt(4.0 * l * (l + 1.0) + 1.0)
    if root != 2.0 * l + 1.0:
        raise ConvergenceError(
            f"perfect-square identity failed at l={l}: {root!r} != {2 * l + 1}"
        )
    h2 = hbar2_over_2mu(mu, constants)
    delta2 = v0 / (4.0 * h2 * alpha**2)
    quotient = (-delta2 + (n + l) * (n + l + 2.0) + 1.0) / (2.0 * (n + l + 1.0))
    return -4.0 * h2 * alpha**2 * quotient**2


def energy_yukawa(a: float, alpha: float, mu: float, n: int, l: int,
                  constants: PhysicalConstants) -> float:
    """Screened-Coulomb (Yukawa) limit, with the l-only square root kept explicit."""
    _check_nl(n, l)
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    h2 = hbar2_over_2mu(mu, constants)
    sigma1 = a / (2.0 * h2 * alpha)
    root = math.sqrt(4.0 * l * (l + 1.0) + 1.0)
    quotient = ((-sigma1 + l * (l + 1.0)) + n * n + n + 0.5
                + (n + 0.5) * root) / (1.0 + 2.0 * n + root)
    return -4.0 * h2 * alpha**2 * quotient**2


def energy_iqp(b: float, alpha: float, mu: float, n: int, l: int,
               constants: PhysicalConstants) -> float:
    """Inverse-quadratic limit, written out in its published arrangement."""
    _check_nl(n, l)
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    h2 = hbar2_over_2mu(mu, constants)
    sigma2 = b / h2
    radicand = 4.0 * sigma2 + 4.0 * l * (l + 1.0) + 1.0
    if radicand.real < 0.0:
        raise UnsupportedRegimeError(
            f"square-root argument is negative ({radicand:.6g})")
    root = math.sqrt(radicand)
    quotient = ((sigma2 + l * (l + 1.0)) + n * n + n + 0.5
                + (n + 0.5) * root) / (1.0 + 2.0 * n + root)
    return -4.0 * h2 * alpha**2 * quotient**2


def _jacobi_exponents(sqrt_p: float, gamma: float, convention: str):
    if convention == "literal":
        return 2.0 * sqrt_p - 4.0 * gamma, -2.0 * sqrt_p - 4.0 * gamma
    if convention == "weight":
        return 2.0 * sqrt_p - gamma, -2.0 * sqrt_p - gamma
    if convention == "orthodox":
        return 2.0 * sqrt_p, gamma
    raise DomainError(
        f"unknown wave-function convention {convention!r}; "
        f"choose one of {WAVEFUNCTION_CONVENTIONS}"
    )


def _psi_factors(p: PotentialParams, mu: float, n: int, l: int,
                 constants: PhysicalConstants, convention: str):
    res = energy(p, mu, n, l, constants)
    sqrt_p = abs(res.root)
    if sqrt_p == 0.0:
        raise ConvergenceError(
            f"s-exponent sqrt(eps2 + sigma3) vanishes at n={n}, l={l}; "
            "the closed-form state has no decaying tail and cannot be normalized"
        )
    a_exp, b_exp = _jacobi_exponents(sqrt_p, res.gamma, convention)
    return res, sqrt_p, a_exp, b_exp


def normalization_constant(p: PotentialParams, mu: float, n: int, l: int,
                           constants: PhysicalConstants,
                           convention: str = "literal") -> float:
    """N such that the squared wave function integrates to one on (0, inf).

    With x = 1 - 2 exp(-2 alpha r), for every convention,

        int psi^2 dr = (1/2alpha) 2^-(2sqrtP+gamma+1)
                       int (1-x)^(2sqrtP-1) (1+x)^(1+gamma) P_n(x)^2 dx
                     = (1/2alpha) B(2sqrtP, 2+gamma) mean(P_n^2),

    the mean taken with the normalized Gauss-Jacobi weights of n+1 nodes,
    exact for the degree-2n P_n^2.  P_0 = 1, so at n = 0 the mean is 1
    without nodes and scipy.special is not imported.  B is formed in
    logarithms, so large sqrtP takes the same path; ConvergenceError if N
    leaves double range.
    """
    res, sqrt_p, a_exp, b_exp = _psi_factors(p, mu, n, l, constants, convention)
    mean = 1.0
    if n > 0:
        from scipy.special import roots_jacobi

        # only the nodes are used: the weights overflow with 2^(2sqrtP) for sqrtP > ~500
        with np.errstate(over="ignore"):
            x = roots_jacobi(n + 1, 2.0 * sqrt_p - 1.0, 1.0 + res.gamma)[0]
        # Christoffel weights 1 / ((1 - x_i^2) P'_{n+1}(x_i)^2) up to a common
        # factor, with P'_{n+1}(x_i) ~ prod_{j != i} (x_i - x_j): no polynomial
        # is evaluated, so they carry no cancellation error
        weights = 1.0 / ((1.0 - x * x) * np.prod(x[:, None] - x + np.eye(n + 1), axis=1) ** 2)
        mean = float(np.sum(weights * jacobi(n, a_exp, b_exp, x) ** 2) / np.sum(weights))
        if not 0.0 < mean < math.inf:
            raise ConvergenceError(f"Gauss-Jacobi mean of P_n^2 is {mean!r} at n={n}, l={l}")
    log_beta = (math.lgamma(2.0 * sqrt_p) + math.lgamma(2.0 + res.gamma)
                - math.lgamma(2.0 * sqrt_p + 2.0 + res.gamma))
    log_norm = 0.5 * (math.log(2.0 * p.alpha) - log_beta - math.log(mean))
    try:
        return math.exp(log_norm)
    except OverflowError:
        raise ConvergenceError(f"normalization constant exp({log_norm:.6g}) exceeds "
                               f"double range at n={n}, l={l}") from None


def wavefunction(r, p: PotentialParams, mu: float, n: int, l: int,
                 constants: PhysicalConstants, normalized: bool = True,
                 convention: str = "literal"):
    """Radial wave function s^sqrtP (1-s)^((1+gamma)/2) P_n^(a,b)(1-2s).

    The s-exponent is the principal square root, so the state decays at
    large r regardless of which branch solved the quantization.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("r must be strictly positive")
    res, sqrt_p, a_exp, b_exp = _psi_factors(p, mu, n, l, constants, convention)
    s = np.exp(-2.0 * p.alpha * r)
    psi = (s**sqrt_p * (1.0 - s) ** (0.5 + 0.5 * res.gamma)
           * jacobi(n, a_exp, b_exp, 1.0 - 2.0 * s))
    if normalized:
        psi = psi * normalization_constant(p, mu, n, l, constants, convention)
    return psi if psi.ndim else float(psi)


def probability_density(r, p: PotentialParams, mu: float, n: int, l: int,
                        constants: PhysicalConstants,
                        convention: str = "literal"):
    """Squared normalized wave function."""
    psi = wavefunction(r, p, mu, n, l, constants, normalized=True,
                       convention=convention)
    return psi**2


def count_sign_changes(values, threshold_ratio: float = 1e-12) -> int:
    """Count strict sign changes, ignoring magnitudes below a relative floor."""
    v = np.asarray(values, dtype=float)
    keep = np.abs(v) > threshold_ratio * np.max(np.abs(v))
    signs = np.sign(v[keep])
    return int(np.sum(signs[1:] * signs[:-1] < 0))
