import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vegpatch.errors import SingularSystem
from vegpatch.tridiag import thomas_solve


def _dense(off, diag):
    n = diag.size
    return np.diag(diag) + off * (np.eye(n, k=1) + np.eye(n, k=-1))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 60), st.integers(0, 2**32 - 1))
def test_matches_dense_solve_on_dominant_systems(n, seed):
    rng = np.random.default_rng(seed)
    off = rng.uniform(-1.0, 1.0)
    diag = 2.0 * abs(off) + rng.uniform(1.0, 3.0, n)
    rhs = rng.uniform(-5.0, 5.0, n)
    x = thomas_solve(off, diag, rhs)
    oracle = np.linalg.solve(_dense(off, diag), rhs)
    assert np.allclose(x, oracle, rtol=1e-12, atol=1e-12)


def _thomas_reference(lower, diag, upper, rhs):
    """Elimination on numpy scalars with general bands, in the solver's
    order of operations."""
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
    # the constant off-diagonal is the general elimination with both bands
    # set to it (lower[0] and upper[-1] zero), bit for bit
    rng = np.random.default_rng(n)
    off = float(rng.normal())
    diag = 4.0 + np.abs(rng.normal(size=n))
    rhs = rng.normal(size=n)
    lower, upper = np.full(n, off), np.full(n, off)
    lower[0] = upper[-1] = 0.0
    x = thomas_solve(off, diag, rhs)
    assert x.dtype == np.float64 and x.shape == (n,)
    assert np.array_equal(x, _thomas_reference(lower, diag, upper, rhs))


def test_zero_pivot_raises():
    with pytest.raises(SingularSystem, match="row 0"):
        thomas_solve(0.0, np.zeros(4), np.ones(4))


def test_zero_pivot_reports_its_row():
    # with off = 1: row 1 eliminates to 2 - 1 = 1, row 2 to 1 - 1 = 0
    with pytest.raises(SingularSystem, match="row 2"):
        thomas_solve(1.0, np.array([1.0, 2.0, 1.0, 1.0]), np.ones(4))


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        thomas_solve(0.0, np.ones(4), np.ones(3))
