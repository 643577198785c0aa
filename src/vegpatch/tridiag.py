"""Thomas-style elimination for tridiagonal systems.

The water equation, stationary or one implicit step, only ever produces
strictly diagonally dominant systems, so no pivoting is performed; a zero
pivot is reported as SingularSystem instead of being repaired.
``thomas_solve`` is the one solver: it solves one system with the row
recurrence on Python floats.
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
