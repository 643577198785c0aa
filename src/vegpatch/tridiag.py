"""Thomas-style elimination for tridiagonal systems.

The water equation, stationary or one implicit step, only ever produces
strictly diagonally dominant systems, so no pivoting is performed; a zero
pivot is reported as SingularSystem instead of being repaired.

``thomas_solve`` solves one system with the row recurrence on Python floats.
``thomas_solve_columns`` solves many systems that share their off-diagonal
bands, one per column, with the same recurrence run on numpy vectors across
the columns; each column gets the same operations in the same order as a
``thomas_solve`` of that column, so the results are bitwise equal.
"""
from __future__ import annotations

import numpy as np

from .errors import SingularSystem


def thomas_solve(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with the given bands.

    ``lower[k]`` multiplies x[k-1] in row k (lower[0] ignored), ``upper[k]``
    multiplies x[k+1] in row k (upper[-1] ignored).  The recurrences run on
    Python floats, which is several times faster than indexing numpy scalars
    and performs the same operations in the same order.
    """
    n = diag.shape[0]
    if not (lower.shape[0] == upper.shape[0] == rhs.shape[0] == n):
        raise ValueError("band and rhs lengths must match")
    a, b, c, d = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    cp = [0.0] * n
    dp = [0.0] * n
    piv = b[0]
    if piv == 0.0:
        raise SingularSystem("zero pivot in row 0")
    cp[0] = c[0] / piv
    dp[0] = d[0] / piv
    for k in range(1, n):
        piv = b[k] - a[k] * cp[k - 1]
        if piv == 0.0:
            raise SingularSystem(f"zero pivot in row {k}")
        cp[k] = c[k] / piv
        dp[k] = (d[k] - a[k] * dp[k - 1]) / piv
    x = dp
    for k in range(n - 2, -1, -1):
        x[k] = dp[k] - cp[k] * x[k + 1]
    return np.array(x)


def thomas_solve_columns(lower: np.ndarray, diag: np.ndarray,
                         upper: np.ndarray, rhs) -> np.ndarray:
    """Solve one tridiagonal system per column of ``diag``.

    ``lower`` and ``upper`` have shape (n,) and are shared by every system
    (same conventions as thomas_solve); ``diag`` has shape (n, k) and ``rhs``
    broadcasts to it.  Returns the (n, k) solutions.
    """
    n = diag.shape[0]
    if not (lower.shape == upper.shape == (n,)):
        raise ValueError("band lengths must match the number of rows")
    d = np.broadcast_to(rhs, diag.shape)
    a, c = lower.tolist(), upper.tolist()
    cp = np.empty(diag.shape)
    x = np.empty(diag.shape)
    piv = diag[0]
    if not piv.all():
        raise SingularSystem("zero pivot in row 0")
    cp[0] = c[0] / piv
    x[0] = d[0] / piv
    for k in range(1, n):
        piv = diag[k] - a[k] * cp[k - 1]
        if not piv.all():
            raise SingularSystem(f"zero pivot in row {k}")
        cp[k] = c[k] / piv
        x[k] = (d[k] - a[k] * x[k - 1]) / piv
    for k in range(n - 2, -1, -1):
        x[k] -= cp[k] * x[k + 1]
    return x
