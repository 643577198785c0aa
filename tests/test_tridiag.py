import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vegpatch.errors import SingularSystem
from vegpatch.tridiag import thomas_solve


def _dense(lower, diag, upper):
    n = diag.size
    mat = np.diag(diag)
    mat += np.diag(upper[:-1], 1)
    mat += np.diag(lower[1:], -1)
    return mat


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 60), st.integers(0, 2**32 - 1))
def test_matches_dense_solve_on_dominant_systems(n, seed):
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-1.0, 1.0, n)
    upper = rng.uniform(-1.0, 1.0, n)
    lower[0] = upper[-1] = 0.0
    diag = np.abs(lower) + np.abs(upper) + rng.uniform(1.0, 3.0, n)
    rhs = rng.uniform(-5.0, 5.0, n)
    x = thomas_solve(lower, diag, upper, rhs)
    oracle = np.linalg.solve(_dense(lower, diag, upper), rhs)
    assert np.allclose(x, oracle, rtol=1e-12, atol=1e-12)


def _thomas_reference(lower, diag, upper, rhs):
    """Elimination on numpy scalars, in the solver's order of operations."""
    n = diag.size
    cp = np.empty(n)
    dp = np.empty(n)
    cp[0] = upper[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for k in range(1, n):
        piv = diag[k] - lower[k] * cp[k - 1]
        cp[k] = upper[k] / piv
        dp[k] = (rhs[k] - lower[k] * dp[k - 1]) / piv
    x = np.empty(n)
    x[-1] = dp[-1]
    for k in range(n - 2, -1, -1):
        x[k] = dp[k] - cp[k] * x[k + 1]
    return x


@pytest.mark.parametrize("n", [1, 2, 126, 1279])
def test_bitwise_equal_to_numpy_scalar_elimination(n):
    rng = np.random.default_rng(n)
    lower = rng.normal(size=n)
    upper = rng.normal(size=n)
    diag = 4.0 + np.abs(rng.normal(size=n))
    rhs = rng.normal(size=n)
    x = thomas_solve(lower, diag, upper, rhs)
    assert x.dtype == np.float64 and x.shape == (n,)
    assert np.array_equal(x, _thomas_reference(lower, diag, upper, rhs))


def test_zero_pivot_raises():
    n = 4
    with pytest.raises(SingularSystem, match="row 0"):
        thomas_solve(np.zeros(n), np.zeros(n), np.zeros(n), np.ones(n))


def test_zero_pivot_reports_its_row():
    # row 2 eliminates to 1 - 1 * 1 = 0
    lower = np.array([0.0, 0.0, 1.0, 0.0])
    diag = np.array([1.0, 1.0, 1.0, 1.0])
    upper = np.array([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(SingularSystem, match="row 2"):
        thomas_solve(lower, diag, upper, np.ones(4))


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        thomas_solve(np.zeros(3), np.ones(4), np.zeros(4), np.ones(4))
