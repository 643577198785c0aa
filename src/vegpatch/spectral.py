"""Principal eigenvalues of the transport operators and the extinction test.

beta1 is the principal eigenvalue of the negated dispersal operator; it lies
in (0, 1] because the dispersal matrix K is non-negative with row sums below
one, so its spectral radius mu_max is below one and beta1 = 1 - mu_max.
Extinction of vegetation is guaranteed whenever d_v * beta1 exceeds the
Lipschitz constant of the reduced nonlinearity, and beta1 shrinks as the
habitat grows, which is what produces a critical patch size.

beta1 comes from Arnoldi iteration on the weighted symmetrization of K,
applied through the dispersal operator's action only, an FFT convolution
with K's band, so no N x N matrix is formed.  The relative gap
between the top two eigenvalues closes like 1/L^2; a Krylov method needs
about the square root of the iterations power iteration would.  The same
Arnoldi, with another start vector and Ritz selector, gives continuation's
stability flag.  lambda1, the Dirichlet Laplacian's principal eigenvalue,
is known in closed form on this grid, 4 / h^2 sin^2(pi / (2 (N - 1))).

The Lipschitz estimate scans constant biomass levels.  Their water
profiles are known in closed form, and it evaluates them only on the
boundary layer, where they differ from the plateau: about 60 ln 2 / theta
rows, theta = arccosh(1 + h^2 / (2 d_w)), whatever the width.  It works in
place in that (rows, levels) array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import DispersalOperator, LaplacianOperator
from .kinetics import (ModelParams, check_maximum_principle,
                       uniform_water_layer)


@dataclass(frozen=True)
class EigResult:
    value: float
    residual: float
    iterations: int
    converged: bool


RITZ_EVERY = 5     # Arnoldi steps between Ritz-pair convergence checks
BETA1_TOL = 1e-10  # beta1's eigenpair residual, relative to its scale
LIPSCHITZ_SAMPLES = 400   # biomass intervals of the Lipschitz scan


def _symmetrized_action(op: DispersalOperator):
    """x -> D^(1/2) K D^(-1/2) x with D the quadrature weights.

    Uses only the operator action apply(v) = K v - v, so no scaled copy
    of the N x N matrix is formed.
    """
    d = np.sqrt(op.grid.quad_weights)

    def action(x: np.ndarray) -> np.ndarray:
        u = x / d
        return d * (op.apply(u) + u)
    return action


def _largest_real(values, estimates):
    return int(np.argmax(values.real))


def arnoldi_rightmost(action, n: int, res_tol: float,
                      start: np.ndarray | None = None,
                      select=_largest_real, min_dim: int = 1):
    """Selected eigenpair by Arnoldi with full reorthogonalization.

    The Krylov basis starts from ``start`` (the constant vector by default)
    and is orthogonalized by classical Gram-Schmidt applied twice.  Every
    RITZ_EVERY steps from ``min_dim`` on (and when the basis stops growing)
    the Ritz pairs are formed and ``select(values, estimates)`` picks one by
    index, or returns None to keep growing; ``estimates`` are the Arnoldi
    residual norms |h_(k+1,k) s_k| of the unit Ritz vectors.  The default
    picks the largest real part.  The iteration stops when the picked
    pair's residual, from a true operator action, meets res_tol relative to
    the largest Ritz value magnitude (at least 1), the scale of the
    operator's rounding.  Returns (rho, residual, Krylov dimension, converged); rho is complex
    only for a complex pair.  The dimension is capped only by n, where
    Arnoldi is exact; the basis and the Hessenberg matrix grow by doubling,
    so memory follows the dimension reached rather than the cap.
    """
    basis = np.empty((min(n, 32) + 1, n))
    hess = np.zeros((len(basis), len(basis)))
    if start is None:
        basis[0] = 1.0 / np.sqrt(n)
    else:
        basis[0] = start / np.linalg.norm(start)
    rho, resid = 0.0, np.inf
    h_max = 0.0       # running max |h_ij| of hess[:k, :k]
    for j in range(n):
        if j + 1 == len(basis):
            grow = min(len(basis), n + 1 - len(basis))
            basis = np.concatenate([basis, np.empty((grow, n))])
            hess = np.pad(hess, (0, grow))
        w = action(basis[j])
        for _ in range(2):
            coef = basis[:j + 1] @ w
            w -= coef @ basis[:j + 1]
            hess[:j + 1, j] += coef
        hess[j + 1, j] = h_next = math.sqrt(float(w.dot(w)))
        h_max = max(h_max, float(np.abs(hess[:j + 1, j]).max()))
        k = j + 1
        exhausted = k == n or h_next <= 1e-14 * h_max
        if (k >= min_dim and k % RITZ_EVERY == 0) or exhausted:
            values, vectors = np.linalg.eig(hess[:k, :k])
            top = select(values, h_next * np.abs(vectors[-1]))
            if top is not None:
                s = vectors[:, top]
                if values[top].imag == 0.0:
                    rho, s = float(values[top].real), s.real
                else:
                    rho = complex(values[top])
                y = s @ basis[:k]
                y /= np.linalg.norm(y)
                resid = float(np.linalg.norm(action(y) - rho * y))
                if resid <= res_tol * max(float(np.abs(values).max()), 1.0):
                    return rho, resid, k, True
            if exhausted:
                return rho, resid, k, False
        basis[k] = w / h_next
        h_max = max(h_max, h_next)
    return rho, resid, n, False


def principal_eigenvalue_nonlocal(op: DispersalOperator) -> EigResult:
    """beta1 = 1 - mu_max(K) by Arnoldi on the weighted symmetrization.

    The similarity transform D^(1/2) K D^(-1/2) (D the quadrature weights)
    is applied through the operator action only.  Stops when the eigenpair
    residual drops below BETA1_TOL (relative to the eigenvalue scale); the
    Krylov dimension is capped only by N, where Arnoldi is exact.  An
    unmet tolerance returns the best estimate with converged=False rather
    than raising; the residual tells how far it got.  iterations is the
    Krylov dimension reached.  Every call runs its own iteration; nothing
    is stored on the operator.
    """
    mu, resid, iters, ok = arnoldi_rightmost(_symmetrized_action(op),
                                             op.n_nodes, BETA1_TOL)
    return EigResult(value=1.0 - mu, residual=resid, iterations=iters,
                     converged=ok)


def principal_eigenvalue_nonlocal_dense(op: DispersalOperator) -> float:
    """Dense-eigensolve oracle for beta1 (test cross-check path)."""
    s = np.sqrt(op.grid.quad_weights)
    mat = (s[:, None] * op.matrix) / s[None, :]
    if np.allclose(mat, mat.T, atol=1e-12):
        mu = float(np.linalg.eigvalsh(mat)[-1])
    else:
        mu = float(np.linalg.eigvals(mat).real.max())
    return 1.0 - mu


def principal_eigenvalue_laplacian(op: LaplacianOperator) -> EigResult:
    """Smallest eigenvalue of the Dirichlet -Laplacian, in closed form.

    The stencil (1, -2, 1) / h^2 on the N - 2 interior nodes has the
    eigenvectors sin(pi j k / (N - 1)), so lambda1 = 4 / h^2
    sin^2(pi / (2 (N - 1))).  No iteration runs: the residual is 0 and
    iterations 0.
    """
    grid = op.grid
    lam = (4.0 / grid.spacing ** 2
           * math.sin(math.pi / (2 * (grid.n_nodes - 1))) ** 2)
    return EigResult(lam, 0.0, 0, True)


def extinction_criterion(beta1: float, d_v: float, m_lipschitz: float):
    """Sufficient test d_v * beta1 > M; returns (guaranteed, margin)."""
    if beta1 <= 0:
        raise ValueError("beta1 must be positive")
    if m_lipschitz < 0:
        raise ValueError("Lipschitz constant must be non-negative")
    margin = d_v * beta1 - m_lipschitz
    return margin > 0.0, margin


def estimate_lipschitz_M(params: ModelParams, grid, v_range: float) -> float:
    """Max finite-difference slope of f over uniform biomass levels.

    Scans LIPSCHITZ_SAMPLES + 1 constant profiles v in [0, v_range] and
    returns the largest sup-norm quotient |f(v_k+1) - f(v_k)| / (v_k+1 -
    v_k).  That bound is certified from below only: the true Lipschitz
    constant can only be larger.  The water of
    each level is the exact solution of the discrete stationary system,
    W[i] = (A / c) expm1(-theta i) expm1(-theta (n - i)) / (1 + e^(-theta n))
    with c = 1 + v^2, cosh(theta) = 1 + c h^2 / (2 d_w) and n = N - 1
    (kinetics.uniform_water_layer).  The expm1 factors keep full relative
    accuracy at large d_w, where 1 - (r^i + r^(n-i)) / (1 + r^n) cancels.
    The profile is symmetric, and from depth ceil(60 ln 2 / theta) on every
    level rounds to its plateau A / c, so only the rows up to the centre or
    that depth are evaluated; they hold every distinct node value.  Each
    level is checked against the maximum principle 0 <= W <= A.
    """
    if v_range <= 0:
        raise ValueError("v_range must be positive")
    levels = np.linspace(0.0, v_range, LIPSCHITZ_SAMPLES + 1)
    f = uniform_water_layer(levels, params, grid)    # f = v^2 W - B v
    check_maximum_principle(f.T, params.A)
    f *= levels * levels
    f -= params.B * levels
    flat = f.reshape(-1)    # in place; row-major, so column k gets f_k+1 - f_k
    np.subtract(flat[1:], flat[:-1], out=flat[:-1])
    np.abs(f, out=f)
    edge = np.abs(np.diff(params.B * levels))    # boundary nodes: W = 0
    jumps = np.maximum(f[:, :-1].max(axis=0), edge)
    return float((jumps / np.diff(levels)).max(initial=0.0))
