"""Thomas-style elimination for tridiagonal systems.

The water equation, stationary or one implicit step, only ever produces
strictly diagonally dominant systems, so no pivoting is performed; a zero
pivot is reported as SingularSystem instead of being repaired.
``thomas_solve`` is the one solver: it solves one system with the row
recurrence on Python floats.  Every water system has the constant
off-diagonal d_w / h^2, so the solver takes that one value.
"""
from __future__ import annotations

import numpy as np

from .errors import SingularSystem


def thomas_solve(off: float, diag: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with diagonal ``diag`` and the constant
    ``off`` on both off-diagonals.

    Row k is off * x[k-1] + diag[k] * x[k] + off * x[k+1] = rhs[k], without
    x[-1] and x[n].  The recurrences run on Python floats, which is several
    times faster than indexing numpy scalars and performs the same
    operations in the same order.
    """
    n = diag.shape[0]
    if rhs.shape[0] != n:
        raise ValueError("diagonal and rhs lengths must match")
    off = float(off)
    b, x = diag.tolist(), rhs.tolist()
    cp = [0.0] * n
    piv = b[0]
    if piv == 0.0:
        raise SingularSystem("zero pivot in row 0")
    c = cp[0] = off / piv
    x[0] = xk = x[0] / piv
    for k in range(1, n):
        piv = b[k] - off * c
        if piv == 0.0:
            raise SingularSystem(f"zero pivot in row {k}")
        c = cp[k] = off / piv
        x[k] = xk = (x[k] - off * xk) / piv
    for k in range(n - 2, -1, -1):
        x[k] = xk = x[k] - cp[k] * xk
    return np.array(x)
