"""Principal eigenvalues of the transport operators and the extinction test.

beta1 is the principal eigenvalue of the negated dispersal operator; it lies
in (0, 1] because the dispersal matrix K is non-negative with row sums below
one, so its spectral radius mu_max is below one and beta1 = 1 - mu_max.
Extinction of vegetation is guaranteed whenever d_v * beta1 exceeds the
Lipschitz constant of the reduced nonlinearity, and beta1 shrinks as the
habitat grows, which is what produces a critical patch size.

beta1 comes from Arnoldi iteration on the weighted symmetrization of K,
applied through the dispersal operator's action only.  The relative gap
between the top two eigenvalues closes like 1/L^2; a Krylov method needs
about the square root of the iterations power iteration would.  lambda1,
the Dirichlet Laplacian's principal eigenvalue, comes from inverse
iteration with tridiagonal solves.  The Lipschitz estimate scans constant
biomass levels with one batched water solve.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import DispersalOperator, LaplacianOperator
from .kinetics import ModelParams, solve_water_uniform
from .tridiag import thomas_solve


@dataclass(frozen=True)
class EigResult:
    value: float
    residual: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class LipschitzEstimate:
    """Sampled slope bound for the reduced nonlinearity.

    The value is certified from below only: it is the largest finite
    difference quotient seen over the sampled biomass levels, so the true
    Lipschitz constant can only be larger.
    """

    value: float
    n_samples: int
    v_range: float
    certified_from_below: bool = True


RITZ_EVERY = 5     # Arnoldi steps between Ritz-pair convergence checks


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


def _arnoldi_rightmost(action, n: int, res_tol: float, max_dim: int):
    """Rightmost eigenpair by Arnoldi with full reorthogonalization.

    The Krylov basis starts from the constant vector and is orthogonalized
    by classical Gram-Schmidt applied twice.  Every RITZ_EVERY steps (and
    when the basis stops growing) the Ritz pair with the largest real part
    is formed, and the iteration stops when its residual, from a true
    operator action, meets res_tol relative to the eigenvalue scale.
    Returns (rho, residual, Krylov dimension, converged).  The basis and
    the Hessenberg matrix grow by doubling, so memory follows the dimension
    reached rather than the cap.
    """
    m = min(max_dim, n)
    basis = np.empty((min(m, 32) + 1, n))
    hess = np.zeros((len(basis), len(basis)))
    basis[0] = 1.0 / np.sqrt(n)
    rho, resid = 0.0, np.inf
    for j in range(m):
        if j + 1 == len(basis):
            grow = min(len(basis), m + 1 - len(basis))
            basis = np.concatenate([basis, np.empty((grow, n))])
            hess = np.pad(hess, (0, grow))
        w = action(basis[j])
        for _ in range(2):
            coef = basis[:j + 1] @ w
            w -= coef @ basis[:j + 1]
            hess[:j + 1, j] += coef
        hess[j + 1, j] = h_next = float(np.linalg.norm(w))
        k = j + 1
        exhausted = k == m or h_next <= 1e-14 * np.abs(hess[:k, :k]).max()
        if k % RITZ_EVERY == 0 or exhausted:
            values, vectors = np.linalg.eig(hess[:k, :k])
            top = int(np.argmax(values.real))
            rho = float(values[top].real)
            y = vectors[:, top].real @ basis[:k]
            y /= np.linalg.norm(y)
            resid = float(np.linalg.norm(action(y) - rho * y))
            if resid <= res_tol * max(abs(rho), 1.0):
                return rho, resid, k, True
            if exhausted:
                return rho, resid, k, False
        basis[k] = w / h_next
    return rho, resid, m, False


def principal_eigenvalue_nonlocal(op: DispersalOperator, tol: float = 1e-10,
                                  max_iter: int = 50_000,
                                  use_cache: bool = True) -> EigResult:
    """beta1 = 1 - mu_max(K) by Arnoldi on the weighted symmetrization.

    The similarity transform D^(1/2) K D^(-1/2) (D the quadrature weights)
    is applied through the operator action only.  Stops when the eigenpair
    residual drops below tol (relative to the eigenvalue scale); max_iter
    caps the Krylov dimension.  On hitting the cap the best estimate is
    returned with converged=False rather than raising; the residual tells
    how far it got.  iterations is the Krylov dimension reached.  Results
    are memoized on the operator; a memo is reused only when it converged
    to within tol, and is otherwise recomputed and replaced.
    """
    memo = op.spectral_cache if use_cache else None
    if (memo is not None and memo.converged
            and memo.residual <= tol * max(abs(1.0 - memo.value), 1.0)):
        return memo
    mu, resid, iters, ok = _arnoldi_rightmost(_symmetrized_action(op),
                                              op.n_nodes, tol, max_iter)
    result = EigResult(value=1.0 - mu, residual=resid, iterations=iters,
                       converged=ok)
    if use_cache:
        op.spectral_cache = result
    return result


def principal_eigenvalue_nonlocal_dense(op: DispersalOperator) -> float:
    """Dense-eigensolve oracle for beta1 (test cross-check path)."""
    s = np.sqrt(op.grid.quad_weights)
    mat = (s[:, None] * op.matrix) / s[None, :]
    if np.allclose(mat, mat.T, atol=1e-12):
        mu = float(np.linalg.eigvalsh(mat)[-1])
    else:
        mu = float(np.linalg.eigvals(mat).real.max())
    return 1.0 - mu


def principal_eigenvalue_laplacian(op: LaplacianOperator, tol: float = 1e-12,
                                   max_iter: int = 10_000) -> EigResult:
    """Smallest eigenvalue of the Dirichlet -Laplacian by inverse iteration."""
    m = op.n_nodes - 2
    lower, diag, upper = op.interior_bands()
    lower, diag, upper = -lower, -diag, -upper   # bands of -Laplacian
    x = np.sin(np.pi * np.arange(1, m + 1) / (m + 1))
    x /= np.linalg.norm(x)
    lam = 0.0
    resid = np.inf
    for it in range(1, max_iter + 1):
        ax = _tridiag_apply(lower, diag, upper, x)
        lam = float(x @ ax)
        resid = float(np.linalg.norm(ax - lam * x))
        if resid <= tol * max(abs(lam), 1.0):
            return EigResult(lam, resid, it, True)
        y = thomas_solve(lower, diag, upper, x)
        x = y / np.linalg.norm(y)
    return EigResult(lam, resid, it, False)


def _tridiag_apply(lower, diag, upper, x):
    out = diag * x
    out[1:] += lower[1:] * x[:-1]
    out[:-1] += upper[:-1] * x[1:]
    return out


def extinction_criterion(beta1: float, d_v: float, m_lipschitz: float):
    """Sufficient test d_v * beta1 > M; returns (guaranteed, margin)."""
    if beta1 <= 0:
        raise ValueError("beta1 must be positive")
    if m_lipschitz < 0:
        raise ValueError("Lipschitz constant must be non-negative")
    margin = d_v * beta1 - m_lipschitz
    return margin > 0.0, margin


def estimate_lipschitz_M(params: ModelParams, grid, v_range: float,
                         n_samples: int = 400) -> LipschitzEstimate:
    """Max finite-difference slope of f over uniform biomass levels.

    Scans constant profiles v in [0, v_range] and returns the largest
    sup-norm quotient |f(v_k+1) - f(v_k)| / (v_k+1 - v_k).  The water
    profiles of all levels come from one batched solve
    (solve_water_uniform), bitwise equal to solving level by level.
    """
    if v_range <= 0:
        raise ValueError("v_range must be positive")
    levels = np.linspace(0.0, v_range, n_samples + 1)
    f = solve_water_uniform(levels, params, grid)    # f = v^2 W - B v
    f *= (levels * levels)[:, None]
    f -= (params.B * levels)[:, None]
    jumps = f[1:] - f[:-1]
    jumps = np.abs(jumps, out=jumps).max(axis=1)
    best = float((jumps / np.diff(levels)).max(initial=0.0))
    return LipschitzEstimate(value=best, n_samples=n_samples + 1,
                             v_range=v_range)
