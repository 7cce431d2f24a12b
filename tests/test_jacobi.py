import mpmath
import numpy as np
import pytest

from hyiqp.errors import DomainError
from hyiqp.jacobi import jacobi


def test_degree_zero_and_one():
    x = np.linspace(-1, 1, 7)
    assert np.all(jacobi(0, 2.3, -4.1, x) == 1.0)
    a, b = 1.7, -0.4
    expected = (a + 1) + (a + b + 2) * (x - 1) / 2
    assert np.allclose(jacobi(1, a, b, x), expected, rtol=1e-15)


def test_degree_two_against_explicit_binomials():
    a, b = -8.3, -15.4
    s = np.linspace(0.01, 0.99, 23)
    x = 1 - 2 * s
    c0 = (2 + a) * (1 + a) / 2
    c1 = (2 + a) * (2 + b)
    c2 = (2 + b) * (1 + b) / 2
    expected = c0 * (1 - s) ** 2 + c1 * (-s) * (1 - s) + c2 * s**2
    assert np.allclose(jacobi(2, a, b, x), expected, rtol=1e-12)


def _mp_jacobi(n, a, b, x):
    """P_n^(a,b)(x) from mpmath's hypergeometric form at 40 digits."""
    with mpmath.workdps(40):
        return np.array([float(mpmath.jacobi(n, a, b, xi)) for xi in np.atleast_1d(x)])


def test_matches_mpmath_for_random_real_parameters():
    # every draw is checked, including the combinations where
    # scipy.special.eval_jacobi returns NaN or inf
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(0, 11))
        a = float(rng.uniform(-25, 25))
        b = float(rng.uniform(-25, 25))
        x = rng.uniform(-1, 1, size=4)
        ref = _mp_jacobi(n, a, b, x)
        mine = jacobi(n, a, b, x)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.allclose(mine, ref, rtol=1e-8, atol=1e-8 * scale)


def test_degenerate_parameters_match_mpmath():
    # 2k + alpha + beta hits 0 or 2 for some k <= n: a three-term-recurrence
    # denominator vanishes and scipy returns NaN or inf; mpmath is the referee
    x = np.linspace(-0.9, 0.9, 11)
    for n, a, b in ((2, 1.0, -3.0), (3, 0.5, -4.5), (5, -2.5, -5.5)):
        assert np.allclose(jacobi(n, a, b, x), _mp_jacobi(n, a, b, x),
                           rtol=1e-12, atol=1e-12)


def test_scalar_input_stays_scalar_shaped():
    val = jacobi(3, 0.5, 0.5, 0.2)
    assert np.ndim(val) == 0


def test_degree_validation():
    with pytest.raises(DomainError):
        jacobi(-1, 0.0, 0.0, 0.5)
    with pytest.raises(DomainError):
        jacobi(1.5, 0.0, 0.0, 0.5)
