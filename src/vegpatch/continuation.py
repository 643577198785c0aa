"""Newton corrector and pseudo-arclength continuation in the rainfall rate.

The stationary coupled system is continued in the rainfall parameter with a
tangent predictor and a bordered Newton corrector, so branches are traced
through folds.  Arclength mixes the state and the parameter with the state
scaled by 1/sqrt(2N), making both contribute comparably to step lengths.
Folds are detected from sign changes of dA/ds between accepted points and
refined by Illinois regula falsi on dA/ds, each corrector warm-started from
the last converged evaluation (``_locate_fold``).

Every Newton and continuation solve, those of ``solve_stationary``
included, goes through ``StationaryResidual.bordered_solve``.  It eliminates
the free water unknowns: their block T is symmetric tridiagonal and the
couplings between v and w are diagonal, so only the (N+1)-order Schur
complement in v and the border is factorized densely.  T's inverse comes
from a closed form (see ``water_block_inverse``).

The stability flag uses the same Schur complement (``_schur``): inverted
once on the free vegetation nodes, it applies the free Jacobian's inverse,
and shift-invert Arnoldi at sigma = 0 (``spectral.arnoldi_rightmost``) finds
the rightmost eigenvalue.  The full Jacobian is built only for the dense
eigensolve that serves as the test oracle.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .discretization import Operators
from .errors import NewtonDiverged, SingularJacobian
from .kinetics import ModelParams
from .spectral import arnoldi_rightmost

NEWTON_BLOWUP = 1e8
STABLE_BELOW = -1e-8   # rightmost eigenvalue below this flags a stable state
CORRECTOR_CAP = 8      # corrector iterations per continuation step
STEP_GROWTH = 1.3      # arclength step growth after an easy step
GROW_BELOW = 4         # an easy step took at most this many iterations
FLAG_RES_TOL = 1e-8    # Ritz residual, relative to the largest |mu|
FLAG_MIN_DIM = 30      # Arnoldi basis size before the first Ritz check


def newton(fun, solve, x0: np.ndarray, tol: float = 1e-10,
           max_iter: int = 50):
    """Plain Newton iteration on a callable residual; returns (x, iterations).

    ``solve(x, r)`` returns J(x)^-1 r, the Jacobian at x applied inversely
    to the residual r.  Raises NewtonDiverged on the iteration cap or on a
    runaway iterate and SingularJacobian when the linear solve fails.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    for it in range(max_iter + 1):
        r = np.atleast_1d(fun(x))
        nr = float(np.linalg.norm(r))
        if not math.isfinite(nr) or float(np.abs(x).max()) > NEWTON_BLOWUP:
            raise NewtonDiverged(f"iterate blew up at iteration {it}")
        if nr <= tol:
            return x, it
        if it == max_iter:
            break
        try:
            x -= solve(x, r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
    raise NewtonDiverged(
        f"no convergence in {max_iter} iterations (residual {nr:.3e})")


@functools.lru_cache(maxsize=8)
def _max_index(k: int) -> np.ndarray:
    """max(i, j) for i, j < k; the block size is fixed for one grid."""
    idx = np.arange(k)
    return np.maximum.outer(idx, idx)


def water_block_inverse(off: float, diag: np.ndarray) -> np.ndarray:
    """Inverse of the symmetric tridiagonal matrix with diagonal ``diag``
    and constant off-diagonal ``off`` > 0, for diag[k] < -2 * off.

    With the pivots d_0 = diag[0], d_k = diag[k] - off^2 / d_(k-1) (all
    below -off), the ratios m_k = off / |d_(k-1)| in (0, 1), their log sums
    C_k = log m_1 + ... + log m_k (C_0 = 0) and the diagonal of the inverse
    rho_(K-1) = 1 / d_(K-1), rho_k = 1 / d_k + m_(k+1)^2 rho_(k+1), the
    inverse is

        (T^-1)_ij = exp(-|C_i - C_j|) * rho_max(i, j)

    (Meurant, SIAM J. Matrix Anal. Appl. 13, 1992).  The exponent is never
    positive, so no entry overflows.  The recurrences run on Python floats.
    """
    delta = diag.tolist()
    k = len(delta)
    off2 = off * off
    pivots = [0.0] * k
    piv = delta[0]
    pivots[0] = piv
    for i in range(1, k):
        piv = delta[i] - off2 / piv
        pivots[i] = piv
    rho = [0.0] * k
    r = 1.0 / piv
    rho[-1] = r
    for i in range(k - 2, -1, -1):
        piv = pivots[i]
        r = 1.0 / piv + (off2 / (piv * piv)) * r
        rho[i] = r
    c = np.zeros(k)
    np.cumsum(math.log(off) - np.log(np.negative(pivots[:-1])), out=c[1:])
    e = np.subtract.outer(c, c)     # in place from here on
    np.exp(np.negative(np.abs(e, out=e), out=e), out=e)
    e *= np.array(rho)[_max_index(k)]
    return e


class StationaryResidual:
    """Residual and analytic Jacobian of the stationary coupled system.

    Unknowns are the concatenated node vectors u = (v, w).  The biomass
    outside ``ops.free_v`` and the water at both ends are pinned to zero by
    explicit constraint rows; the rainfall rate enters only the interior
    water rows.

    ``bordered_solve`` solves the Jacobian bordered by one column and one
    row without forming it.  In J the couplings J_vw = diag(v^2) and
    J_wv = diag(-2 v w) are diagonal, and the free water block T, on the
    interior nodes, is symmetric tridiagonal with off-diagonal a = d_w/h^2
    and diagonal -(2a + 1 + v^2).  The pinned water values follow from the
    right-hand side, and the free ones are eliminated through T^-1, so the
    one dense factorization is of the Schur complement
    S = J_vv - diag(v^2) T^-1 diag(-2 v w), bordered: order N + 1 instead
    of 2N + 1.
    """

    def __init__(self, ops: Operators, params: ModelParams):
        self.ops = ops
        self.params = params
        n = ops.grid.n_nodes
        self.n_nodes = n
        self.n_unknowns = 2 * n
        self._fv = fv = ops.free_v     # free biomass; water is free on 1..n-2
        self._mv = ops.vegetation_transport(params.d_v)
        self._mw = params.d_w * ops.laplacian.dense()
        # Jacobian template: transport blocks on the free rows, identity on
        # the pinned ones; jacobian() adds the reaction diagonals.
        t = np.zeros((2 * n, 2 * n))
        t[fv, :n] = self._mv[fv]
        t[n + 1:2 * n - 1, n:] = self._mw[1:-1]
        pinned = np.flatnonzero(~self.free_mask())
        t[pinned, pinned] = 1.0
        self._jac_template = t
        self._schur_template = np.zeros((n + 1, n + 1))   # _schur's start
        self._schur_template[:n, :n] = t[:n, :n]
        # Free water block T on the interior nodes: constant off-diagonal,
        # and the transport part of its diagonal.
        self._t_off = float(self._mw[1, 0])
        self._t_diag = self._mw.diagonal()[1:-1].copy()
        self._d_dA = np.zeros(2 * n)
        self._d_dA[n + 1:-1] = 1.0     # the interior water rows
        self._d_dA.setflags(write=False)

    def split(self, u: np.ndarray):
        n = self.n_nodes
        return u[:n], u[n:]

    def join(self, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.concatenate([v, w])

    def residual(self, u: np.ndarray, A: float) -> np.ndarray:
        v, w = self.split(u)
        growth = v * v * w
        rv = self._mv @ v + growth - self.params.B * v
        rw = self._mw @ w - growth - w + A
        fv = self._fv
        rv[:fv.start], rv[fv.stop:] = v[:fv.start], v[fv.stop:]
        rw[0], rw[-1] = w[0], w[-1]
        return np.concatenate([rv, rw])

    def jacobian(self, u: np.ndarray, A: float) -> np.ndarray:
        n = self.n_nodes
        v, w = self.split(u)
        fv, fw = np.arange(n)[self._fv], np.arange(1, n - 1)
        j = self._jac_template.copy()
        j[fv, fv] += 2.0 * v[fv] * w[fv] - self.params.B
        j[fv, n + fv] = v[fv] * v[fv]
        j[n + fw, fw] = -2.0 * v[fw] * w[fw]
        j[n + fw, n + fw] -= v[fw] * v[fw] + 1.0
        return j

    def _schur(self, v: np.ndarray, w: np.ndarray):
        """A new (n + 1) x (n + 1) matrix holding the Schur complement
        S = J_vv - diag(v^2) T^-1 diag(-2 v w) in its leading n x n block
        (identity rows at pinned vegetation nodes), T^-1, the diagonal s of
        J_vw (zero on pinned vegetation rows) and the diagonal g of J_wv on
        the free water rows."""
        n = self.n_nodes
        f = slice(1, n - 1)
        fv = self._fv
        vf = v[f]
        tinv = water_block_inverse(self._t_off,
                                   self._t_diag - (vf * vf + 1.0))
        s = v * v
        s[:fv.start] = s[fv.stop:] = 0.0
        g = -2.0 * vf * w[f]
        m = self._schur_template.copy()
        m.reshape(-1)[::n + 2][fv] += 2.0 * v[fv] * w[fv] - self.params.B
        sts = np.multiply(tinv, s[f, None])
        sts *= g
        m[f, f] -= sts
        return m, tinv, s, g

    def free_inverse(self, u: np.ndarray, A: float):
        """The action x -> J_free^-1 x, with J_free the Jacobian on the free
        unknowns (free vegetation nodes, then interior water nodes), as in
        ``rightmost_eigenvalue_dense``.

        The Schur complement is restricted to the free vegetation nodes and
        inverted once, so each action costs three matrix-vector products:
        y_v = S^-1 (x_v - D_s T^-1 x_w) and y_w = T^-1 (x_w - D_g y_v).
        Returns (action, order).  Raises SingularJacobian when S is
        singular.
        """
        n = self.n_nodes
        v, w = self.split(u)
        schur, tinv, s, g = self._schur(v, w)
        fv = self._fv
        try:
            sinv = np.linalg.inv(schur[fv, fv])
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"Schur complement singular: {exc}") \
                from exc
        nv = fv.stop - fv.start
        lo = 1 - fv.start
        inner = slice(lo, lo + n - 2)   # interior nodes among the free v
        s_inner = s[1:n - 1]            # J_vw on the interior nodes

        def action(x: np.ndarray) -> np.ndarray:
            x_v = x[:nv].copy()
            x_v[inner] -= s_inner * (tinv @ x[nv:])
            y_v = sinv @ x_v
            y_w = tinv @ (x[nv:] - g * y_v[inner])
            return np.concatenate([y_v, y_w])
        return action, nv + n - 2

    def bordered_solve(self, u: np.ndarray, A: float, col: np.ndarray,
                       row: np.ndarray, corner: float,
                       rhs: np.ndarray) -> np.ndarray:
        """Solve [[J(u), col], [row, corner]] x = rhs by the Schur complement.

        A zero border with corner 1 gives the plain Newton solve.  Raises
        SingularJacobian when the bordered Schur complement is singular.
        """
        n = self.n_nodes
        e = n - 1                    # pinned water nodes are 0 and e
        f = slice(1, e)              # free water nodes
        v, w = self.split(u)
        m, tinv, s, g = self._schur(v, w)
        col_w, row_w, rhs_w = col[n:], row[n:], rhs[n:2 * n]
        # The water parts of rhs, col and row.  A pinned water row reads
        # w_p + col_p x_A = rhs_p: its value enters the neighbouring free
        # row through the off-diagonal a, and T^-1 acts on the free rows.
        z = np.empty((n, 3))
        z[:, 0] = rhs_w
        z[:, 1] = col_w
        z[:, 2] = row_w
        z[1, :2] -= self._t_off * z[0, :2]
        z[e - 1, :2] -= self._t_off * z[e, :2]
        z[f] = tinv @ z[f]
        m[:n, n] = col[:n] - s * z[:, 1]
        m[n, :n] = row[:n]
        m[n, f] -= g * z[f, 2]
        # [::e] views the pinned ends 0 and e without an index array
        m[n, n] = corner - row_w[f] @ z[f, 1] - row_w[::e] @ col_w[::e]
        b = np.empty(n + 1)
        b[:n] = rhs[:n] - s * z[:, 0]
        b[n] = rhs[2 * n] - row_w[f] @ z[f, 0] - row_w[::e] @ rhs_w[::e]
        try:
            y = np.linalg.solve(m, b)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"bordered system singular: {exc}") \
                from exc
        x = np.concatenate((y[:n], z[:, 0] - z[:, 1] * y[n], y[n:]))
        x[n + 1:n + e] -= tinv @ (g * y[f])
        return x

    def d_dA(self, u: np.ndarray, A: float) -> np.ndarray:
        """dF/dA: one on the interior water rows; constant, so read-only."""
        return self._d_dA

    def free_mask(self) -> np.ndarray:
        """The unknowns of u that are not pinned, as a boolean mask."""
        n = self.n_nodes
        mask = np.zeros(2 * n, dtype=bool)
        mask[self._fv] = True
        mask[n + 1:2 * n - 1] = True
        return mask

    def summarize(self, u: np.ndarray):
        """(max, integral mean, node mean) of the biomass component."""
        v = u[:self.n_nodes]
        weights = self.ops.grid.quad_weights
        return (float(v.max()),
                float(weights @ v) / (2.0 * self.ops.grid.half_width),
                float(v.mean()))


def solve_stationary(sr: StationaryResidual, A: float, guess: np.ndarray,
                     tol: float = 1e-10, max_iter: int = 50):
    """Newton-solve the stationary system at fixed rainfall."""
    zero = np.zeros(sr.n_unknowns)

    def solve(u, r):
        return sr.bordered_solve(u, A, zero, zero, 1.0,
                                 np.append(r, 0.0))[:-1]

    return newton(lambda u: sr.residual(u, A), solve, guess, tol, max_iter)


@dataclass(frozen=True)
class PalcControls:
    ds0: float = 0.01
    ds_min: float = 1e-6
    ds_max: float = 0.1
    point_cap: int = 20_000
    newton_tol: float = 1e-10
    direction: float = -1.0    # initial sign of dA/ds
    fold_cap: int | None = None


@dataclass(frozen=True)
class Stability:
    stable: bool
    rightmost: float      # real part of the rightmost eigenvalue
    krylov_dim: int       # Arnoldi basis size that certified it


@dataclass
class BranchPoint:
    index: int
    A: float
    s: float
    max_v: float
    avg_v: float          # integral (trapezoid) mean over the habitat
    avg_v_nodes: float    # arithmetic node mean, emitted alongside
    tangent_A: float
    snapshot: np.ndarray
    snapshot_id: str
    stability: Stability | None = None


@dataclass(frozen=True)
class Fold:
    s: float
    A: float
    after_index: int      # fold lies between this accepted point and the next


@dataclass
class Branch:
    points: list[BranchPoint] = field(default_factory=list)
    folds: list[Fold] = field(default_factory=list)
    termination: str = ""
    label: str = ""
    bordered_solves: int = 0        # tangents, corrector and fold steps
    corrector_iterations: int = 0   # summed over the accepted steps
    halvings: int = 0               # steps retried with half the ds
    eigen_solves: int = 0           # stability flags computed
    krylov_dim: int = 0             # summed over the eigen-solves
    wall_s: float = 0.0


def _scaled_dot(du1, da1, du2, da2, scale):
    return float(du1 @ du2) * scale + da1 * da2


def _tangent(solve, u, A, prev_u, prev_a, scale):
    """Unit tangent of the branch through (u, A), oriented like the previous.

    ``solve(u, A, tu, ta, rhs)`` solves the Jacobian at (u, A) bordered by
    dF/dA and the weighted row (scale * tu, ta).
    """
    n = prev_u.size
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    t = solve(u, A, prev_u, prev_a, rhs)
    norm = math.sqrt(_scaled_dot(t[:n], t[n], t[:n], t[n], scale))
    return t[:n] / norm, t[n] / norm


def _corrector(sr, solve, u0, a0, tu, ta, ds, scale, tol, cap, u, a):
    """Newton on the bordered system from the guess (u, a); returns
    (u, A, iterations) or None."""
    n = sr.n_unknowns
    rhs = np.empty(n + 1)
    for it in range(cap + 1):
        r = sr.residual(u, a)
        g = _scaled_dot(u - u0, a - a0, tu, ta, scale) - ds
        nr = float(np.linalg.norm(r))
        if not math.isfinite(nr) or float(np.abs(u).max()) > NEWTON_BLOWUP:
            return None
        if nr <= tol and abs(g) <= tol * max(1.0, abs(ds)):
            return u, a, it
        if it == cap:
            return None
        np.negative(r, out=rhs[:n])
        rhs[n] = -g
        try:
            step = solve(u, a, tu, ta, rhs)
        except SingularJacobian:
            return None
        u = u + step[:n]
        a = a + step[n]
    return None


def _accepted_step(sr, solve, u, a, tu, ta, ds, scale, tol):
    """One continuation step: corrector, then the tangent at its solution.

    Returns (u, A, corrector iterations, tu, tA), or None when the step
    must be retried with a smaller ds.
    """
    result = _corrector(sr, solve, u, a, tu, ta, ds, scale, tol,
                        CORRECTOR_CAP, u + ds * tu, a + ds * ta)
    if result is None:
        return None
    u_new, a_new, iters = result
    try:
        tu_new, ta_new = _tangent(solve, u_new, a_new, tu, ta, scale)
    except SingularJacobian:
        return None
    return u_new, a_new, iters, tu_new, ta_new


def _locate_fold(sr, solve, u0, a0, tu, ta, ds_full, ta_end, scale, tol):
    """Refine a fold bracketed between arclength offsets 0 and ds_full.

    Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) on dA/ds as a
    function of the arclength offset from the last pre-fold point (u0, a0),
    each evaluation being an actual corrector step plus a tangent solve.
    The false-position point replaces the bracket end of its sign; an end
    kept twice in a row has its dA/ds halved, so both ends close in.  Each
    corrector is warm-started by the tangent predictor from the last
    converged evaluation, (u0, a0) with its tangent for the first one.
    If no corrector converges inside the bracket, returns the vertex of
    the quadratic A(s) whose slope runs linearly from ta to ta_end.
    """
    d_lo, f_lo = 0.0, ta
    d_hi, f_hi = ds_full, ta_end
    last = (u0, a0, tu, ta, 0.0)   # converged point, its tangent, offset
    kept = 0              # +1 (-1) when the last step kept the high (low) end
    best = None
    for _ in range(16):
        d_mid = d_hi - f_hi * (d_hi - d_lo) / (f_hi - f_lo)
        if not d_lo < d_mid < d_hi:
            d_mid = 0.5 * (d_lo + d_hi)
        u_l, a_l, tu_l, ta_l, d_l = last
        step = d_mid - d_l
        res = _corrector(sr, solve, u0, a0, tu, ta, d_mid, scale, tol, 12,
                         u_l + step * tu_l, a_l + step * ta_l)
        if res is None:
            break
        u_m, a_m, _ = res
        try:
            tu_m, ta_m = _tangent(solve, u_m, a_m, tu, ta, scale)
        except SingularJacobian:
            return float(a_m)
        best = float(a_m)
        if abs(ta_m) < 1e-10 or (d_hi - d_lo) < 1e-14:
            return best
        last = (u_m, a_m, tu_m, ta_m, d_mid)
        if (ta_m > 0) == (f_lo > 0):
            d_lo, f_lo = d_mid, ta_m
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            d_hi, f_hi = d_mid, ta_m
            if kept == -1:
                f_lo *= 0.5
            kept = -1
    if best is not None:
        return best
    return a0 + 0.5 * ta * ds_full * ta / (ta - ta_end)


def palc_continue(sr: StationaryResidual, A_start: float,
                  A_range: tuple[float, float], initial: np.ndarray,
                  controls: PalcControls = PalcControls(),
                  label: str = "branch") -> Branch:
    """Trace one solution branch by pseudo-arclength continuation.

    The initial vector must already solve the stationary system at A_start
    to the Newton tolerance.  The trace stops when the rainfall leaves
    A_range, the point cap or fold cap is reached, or the step size
    underflows after repeated corrector failures.  Every linear solve is
    one ``sr.bordered_solve``; the branch counts them, with its corrector
    iterations, step halvings and wall time.
    """
    t0 = time.perf_counter()
    scale = 1.0 / sr.n_unknowns   # state inner-product weight 1/(2N)
    a_lo, a_hi = min(A_range), max(A_range)
    u = np.asarray(initial, dtype=float).copy()
    r0 = float(np.linalg.norm(sr.residual(u, A_start)))
    if r0 > controls.newton_tol:
        raise NewtonDiverged(
            f"initial point residual {r0:.3e} exceeds tolerance "
            f"{controls.newton_tol:.1e}; solve it first")

    branch = Branch(label=label)
    d_da = sr.d_dA(u, A_start)

    def solve(u, a, tu, ta, rhs):
        branch.bordered_solves += 1
        return sr.bordered_solve(u, a, d_da, tu * scale, ta, rhs)

    def record(u, a, s, ta) -> BranchPoint:
        mx, avg, avg_nodes = sr.summarize(u)
        point = BranchPoint(
            index=len(branch.points), A=float(a), s=float(s),
            max_v=mx, avg_v=avg, avg_v_nodes=avg_nodes,
            tangent_A=float(ta), snapshot=u.copy(),
            snapshot_id=f"{label}-p{len(branch.points):05d}")
        branch.points.append(point)
        return point

    tu, ta = _tangent(solve, u, A_start, np.zeros(sr.n_unknowns),
                      controls.direction, scale)
    a = A_start
    s = 0.0
    record(u, a, s, ta)
    ds = controls.ds0

    while True:
        if len(branch.points) >= controls.point_cap:
            branch.termination = "point_cap"
            break
        step = _accepted_step(sr, solve, u, a, tu, ta, ds, scale,
                              controls.newton_tol)
        if step is None:
            branch.halvings += 1
            ds *= 0.5
            if not ds >= controls.ds_min:   # also ends a NaN step size
                branch.termination = "step_failure"
                break
            continue
        u_new, a_new, iters, tu_new, ta_new = step
        branch.corrector_iterations += iters
        s_new = s + ds
        if ta * ta_new < 0.0:
            fold_a = _locate_fold(sr, solve, u, a, tu, ta, ds, ta_new,
                                  scale, controls.newton_tol)
            branch.folds.append(Fold(s=s + 0.5 * ds, A=float(fold_a),
                                     after_index=len(branch.points) - 1))
        u, a, s, tu, ta = u_new, a_new, s_new, tu_new, ta_new
        record(u, a, s, ta)
        if (controls.fold_cap is not None
                and len(branch.folds) >= controls.fold_cap):
            branch.termination = "fold_count_cap"
            break
        if not (a_lo <= a <= a_hi):
            branch.termination = "parameter_exit"
            break
        if iters <= GROW_BELOW:
            ds = min(ds * STEP_GROWTH, controls.ds_max)
    branch.wall_s = time.perf_counter() - t0
    return branch


def rightmost_eigenvalue_dense(sr: StationaryResidual, A: float,
                               u: np.ndarray) -> float:
    """Real part of the rightmost eigenvalue of the free-unknown Jacobian.

    The pinned boundary rows are constraints, not dynamics, so they are
    dropped before the dense eigensolve.
    """
    free = sr.free_mask()
    j = sr.jacobian(u, A)[np.ix_(free, free)]
    return float(np.linalg.eigvals(j).real.max())


def _rightmost_inverse(order: int):
    """Ritz selector for the eigenvalues mu of J^-1: the rightmost
    lambda = 1 / mu among the pairs whose Arnoldi residual estimate passes
    FLAG_RES_TOL relative to the largest |mu|.  At the full order the
    Krylov space is the whole space and every pair counts."""
    def select(values, estimates):
        ok = values != 0.0
        if len(values) < order:
            scale = max(float(np.abs(values).max()), 1.0)
            ok &= estimates <= FLAG_RES_TOL * scale
        if not ok.any():
            return None
        idx = np.flatnonzero(ok)
        return int(idx[np.argmax((1.0 / values[idx]).real)])
    return select


def stability_flag(sr: StationaryResidual, A: float,
                   u: np.ndarray) -> Stability:
    """Linear stability of the stationary state (u, A).

    Stable when the rightmost eigenvalue of the free-unknown Jacobian lies
    below STABLE_BELOW.  The eigenvalue comes from shift-invert Arnoldi at
    sigma = 0: x -> J_free^-1 x through ``sr.free_inverse`` (one inverse of
    the order-N Schur complement), eigenvalues lambda = 1 / mu.  The rightmost
    lambda among the Ritz pairs whose residual passes is taken once its true
    residual does too.  Checks start at FLAG_MIN_DIM basis vectors: fewer
    certify the eigenvalue nearest zero before a rightmost one further out
    has converged.  The dimension grows up to the free order, where Arnoldi
    is exact, so every call decides.  The start vector sin(k) has even and
    odd parts under reflection; a constant start cannot see the odd modes of
    the reflection-symmetric branch states.  ``rightmost_eigenvalue_dense``
    is the dense oracle for this route.  A singular Jacobian has the
    eigenvalue 0, so it is flagged unstable with the rightmost left as nan.
    Returns the flag with the rightmost real part and the Krylov dimension.
    """
    try:
        action, order = sr.free_inverse(u, A)
    except SingularJacobian:
        return Stability(False, math.nan, 0)
    start = np.sin(np.arange(1.0, order + 1.0))
    mu, _, dim, _ = arnoldi_rightmost(action, order, FLAG_RES_TOL, order,
                                      start=start,
                                      select=_rightmost_inverse(order),
                                      min_dim=FLAG_MIN_DIM)
    lam = float((1.0 / mu).real)
    return Stability(lam < STABLE_BELOW, lam, dim)
