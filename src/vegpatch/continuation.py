"""Newton corrector and pseudo-arclength continuation in the rainfall rate.

The stationary coupled system is continued in the rainfall parameter with a
tangent predictor and a bordered Newton corrector, so branches are traced
through folds.  Arclength mixes the state and the parameter with the state
scaled by 1/sqrt(2N), making both contribute comparably to step lengths.
Folds are detected from sign changes of dA/ds between accepted points and
refined by Illinois regula falsi on dA/ds, each corrector warm-started from
the last converged evaluation (``_locate_fold``).

Every Newton and continuation solve, those of ``solve_stationary``
included, goes through ``StationaryResidual.bordered_solve``: one dense LU
of the bordered Jacobian.  The suite's branches are even under x -> -x,
so they are traced on the half grid x >= 0 (``Operators.reflection``),
where the bordered order is 2m + 1 with m = ceil(N / 2), and rounding
cannot push a trace off the symmetric branch.

The stability flag inverts the free Jacobian of each parity block, the
even one and the odd one at the same state, and shift-invert Arnoldi at
sigma = 0 (``spectral.arnoldi_rightmost``) finds each block's rightmost
eigenvalue.  The dense eigensolve of the full grid's free Jacobian serves
as the test oracle.
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
NEWTON_CAP = 50        # iterations of a plain Newton solve
STABLE_BELOW = -1e-8   # rightmost eigenvalue below this flags a stable state
CORRECTOR_CAP = 8      # corrector iterations per continuation step
STEP_GROWTH = 1.3      # arclength step growth after an easy step
GROW_BELOW = 4         # an easy step took at most this many iterations
FLAG_RES_TOL = 1e-8    # Ritz residual, relative to the largest |mu|
FLAG_MIN_DIM = 30      # Arnoldi basis size before the first Ritz check
FOLD_ROUNDING = 4 * 2.0 ** -52   # relative change of A below rounding


def newton(fun, solve, x0: np.ndarray, tol: float):
    """Plain Newton iteration on a callable residual; returns (x, iterations).

    ``solve(x, r)`` returns J(x)^-1 r, the Jacobian at x applied inversely
    to the residual r.  Raises NewtonDiverged after NEWTON_CAP iterations
    or on a runaway iterate and SingularJacobian when the linear solve
    fails.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    for it in range(NEWTON_CAP + 1):
        r = np.atleast_1d(fun(x))
        nr = float(np.linalg.norm(r))
        if not math.isfinite(nr) or float(np.abs(x).max()) > NEWTON_BLOWUP:
            raise NewtonDiverged(f"iterate blew up at iteration {it}")
        if nr <= tol:
            return x, it
        if it == NEWTON_CAP:
            break
        try:
            x -= solve(x, r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
    raise NewtonDiverged(
        f"no convergence in {NEWTON_CAP} iterations (residual {nr:.3e})")


class StationaryResidual:
    """Residual and analytic Jacobian of the stationary coupled system on
    the node vectors of one parity: 0 keeps the full grid, 1 the even
    states on the half grid x >= 0 (``Operators.reflection``).

    The unknowns u = (v, w) are the kept nodes' values scaled by the square
    roots of their multiplicities, so every Euclidean norm and dot product
    equals the full grid's; ``n_unknowns`` is the full grid's 2N.  The
    biomass outside ``ops.free_v`` and the water at the habitat ends are
    pinned to zero by constraint rows; the rainfall rate enters only the
    interior water rows.  ``bordered_solve`` fills a template of the
    bordered Jacobian, order 2m + 1 on m kept nodes, and makes one LU.
    """

    def __init__(self, ops: Operators, params: ModelParams, parity: int = 0):
        self.ops = ops
        self.params = params
        red, mv, mw = ops.reflection(parity, params.d_v, params.d_w)
        self.reduction = red
        self.n_nodes = m = red.size
        self.n_unknowns = 2 * ops.grid.n_nodes
        self._fv = fv = red.kept(ops.free_v)
        self._fw = fw = red.kept(slice(1, ops.grid.n_nodes - 1))
        self._mv, self._mw = mv, mw
        root = np.sqrt(red.weights)
        self._root = np.concatenate([root, root])
        # Bordered Jacobian template: the transport blocks, scaled like the
        # unknowns, on the free rows and identity on the pinned ones; the
        # reaction diagonals and the border are added per solve.
        k = 2 * m + 1
        t = np.zeros((k, k))
        ratio = root[:, None] / root
        t[fv, :m] = (mv * ratio)[fv]
        t[m + fw.start:m + fw.stop, m:2 * m] = (mw * ratio)[fw]
        pinned = np.flatnonzero(~self.free_mask())
        t[pinned, pinned] = 1.0
        self._template = t
        # flat positions of the diagonals (r, r + shift) of the four blocks
        self._diagonals = [slice(r.start * (k + 1) + shift,
                                 r.stop * (k + 1) + shift, k + 1)
                           for r, shift in ((fv, 0), (fv, m), (fw, m * k),
                                            (fw, m * (k + 1)))]
        self._d_dA = np.zeros(2 * m)
        self._d_dA[m + fw.start:m + fw.stop] = root[fw]
        self._d_dA.setflags(write=False)

    def split(self, u: np.ndarray):
        m = self.n_nodes
        return u[:m], u[m:]

    def restrict(self, u: np.ndarray) -> np.ndarray:
        """The unknowns of the full-grid state u = (v, w)."""
        halves = self.reduction.restrict(np.reshape(u, (2, -1)))
        return halves.reshape(-1) * self._root

    def expand(self, u: np.ndarray) -> np.ndarray:
        """A new full-grid state (v, w) from the unknowns u."""
        values = (u / self._root).reshape(2, -1)
        return self.reduction.expand(values).reshape(-1)

    def residual(self, u: np.ndarray, A: float) -> np.ndarray:
        v, w = self.split(u / self._root)
        growth = v * v * w
        rv = self._mv @ v + growth - self.params.B * v
        rw = self._mw @ w - growth - w + A
        fv, fw = self._fv, self._fw
        rv[:fv.start], rv[fv.stop:] = v[:fv.start], v[fv.stop:]
        rw[:fw.start], rw[fw.stop:] = w[:fw.start], w[fw.stop:]
        r = np.concatenate([rv, rw])
        r *= self._root
        return r

    def _bordered_jacobian(self, u: np.ndarray) -> np.ndarray:
        """A new order-(2m + 1) matrix: the Jacobian at u bordered by a
        zero column and row."""
        v, w = self.split(u / self._root)
        fv, fw = self._fv, self._fw
        j = self._template.copy()
        flat = j.reshape(-1)
        vv, vw, wv, ww = self._diagonals
        flat[vv] += 2.0 * v[fv] * w[fv] - self.params.B
        flat[vw] = v[fv] * v[fv]
        flat[wv] = -2.0 * v[fw] * w[fw]
        flat[ww] -= v[fw] * v[fw] + 1.0
        return j

    def jacobian(self, u: np.ndarray, A: float) -> np.ndarray:
        k = u.size
        return self._bordered_jacobian(u)[:k, :k].copy()

    def free_inverse(self, u: np.ndarray, A: float):
        """The action x -> J_free^-1 x, with J_free the Jacobian on the free
        unknowns (free vegetation nodes, then interior water nodes), as in
        ``rightmost_eigenvalue_dense``.  Returns (action, order).  Raises
        SingularJacobian when J_free is singular.
        """
        free = self.free_mask()
        try:
            inv = np.linalg.inv(self.jacobian(u, A)[np.ix_(free, free)])
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"free Jacobian singular: {exc}") from exc
        return inv.dot, len(inv)

    @functools.cached_property
    def _odd(self) -> StationaryResidual:
        return StationaryResidual(self.ops, self.params, -1)

    def parity_blocks(self, u: np.ndarray):
        """(residual, unknowns) pairs whose free Jacobians together hold
        the spectrum of the full grid's free Jacobian at the state u: this
        residual alone, and on the even half grid also the odd reduction
        linearized at the same state, when it has free unknowns."""
        blocks = [(self, u)]
        if self.reduction.parity == 1 and self._odd.free_mask().any():
            blocks.append((self._odd, self._odd.restrict(self.expand(u))))
        return blocks

    def bordered_solve(self, u: np.ndarray, A: float, col: np.ndarray,
                       row: np.ndarray, corner: float,
                       rhs: np.ndarray) -> np.ndarray:
        """Solve [[J(u), col], [row, corner]] x = rhs by one dense LU.

        A zero border with corner 1 gives the plain Newton solve.  Raises
        SingularJacobian when the bordered Jacobian is singular.
        """
        k = u.size
        j = self._bordered_jacobian(u)
        j[:k, k] = col
        j[k, :k] = row
        j[k, k] = corner
        try:
            return np.linalg.solve(j, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"bordered system singular: {exc}") \
                from exc

    def d_dA(self, u: np.ndarray, A: float) -> np.ndarray:
        """dF/dA: the interior water rows' scales; constant, so read-only."""
        return self._d_dA

    def free_mask(self) -> np.ndarray:
        """The unknowns of u that are not pinned, as a boolean mask."""
        m = self.n_nodes
        mask = np.zeros(2 * m, dtype=bool)
        mask[self._fv] = True
        mask[m:][self._fw] = True
        return mask

    def summarize(self, u: np.ndarray):
        """(max, integral mean, node mean) of the full-grid biomass."""
        v = self.expand(u)[:self.ops.grid.n_nodes]
        weights = self.ops.grid.quad_weights
        return (float(v.max()),
                float(weights @ v) / (2.0 * self.ops.grid.half_width),
                float(v.mean()))


def solve_stationary(sr: StationaryResidual, A: float, guess: np.ndarray,
                     tol: float):
    """Newton-solve the stationary system at fixed rainfall."""
    zero = np.zeros(np.size(guess))

    def solve(u, r):
        return sr.bordered_solve(u, A, zero, zero, 1.0,
                                 np.append(r, 0.0))[:-1]

    return newton(lambda u: sr.residual(u, A), solve, guess, tol)


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
    krylov_dim: int       # Arnoldi basis sizes that certified it, summed
    parts: tuple[float, ...] = ()   # rightmost per parity block, even first


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
    closed_form: bool = False       # rows written, not continued

    def record(self, sr: StationaryResidual, u: np.ndarray, a: float,
               s: float, ta: float) -> None:
        """Append the point (u, A = a) at arclength s, summarized by sr."""
        mx, avg, avg_nodes = sr.summarize(u)
        index = len(self.points)
        self.points.append(BranchPoint(
            index=index, A=float(a), s=float(s),
            max_v=mx, avg_v=avg, avg_v_nodes=avg_nodes,
            tangent_A=float(ta), snapshot=u.copy(),
            snapshot_id=f"{self.label}-p{index:05d}"))


def grown_step(ds: float, iterations: int, controls: PalcControls) -> float:
    """The arclength step after an accepted step whose corrector took
    ``iterations``: STEP_GROWTH times longer, up to ds_max, after an easy
    one (at most GROW_BELOW iterations), otherwise unchanged."""
    if iterations <= GROW_BELOW:
        return min(ds * STEP_GROWTH, controls.ds_max)
    return ds


def require_solution(sr: StationaryResidual, u: np.ndarray, A: float,
                     tol: float) -> None:
    """Raise NewtonDiverged unless ||F(u, A)||_2 <= tol: a branch starts
    only on a solution."""
    r0 = float(np.linalg.norm(sr.residual(u, A)))
    if r0 > tol:
        raise NewtonDiverged(
            f"initial point residual {r0:.3e} exceeds tolerance "
            f"{tol:.1e}; solve it first")


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
    n = u0.size
    rhs = np.empty(n + 1)
    for it in range(cap + 1):
        r = sr.residual(u, a)
        g = _scaled_dot(u - u0, a - a0, tu, ta, scale) - ds
        nr = math.sqrt(float(r.dot(r)))
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
    Refinement stops, returning the last converged A, once that predictor
    would change A by less than rounding.
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
        if abs(step * ta_l) <= FOLD_ROUNDING * abs(a_l):
            return float(a_l)    # the predictor would not move A
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
    require_solution(sr, u, A_start, controls.newton_tol)

    branch = Branch(label=label)
    d_da = sr.d_dA(u, A_start)

    def solve(u, a, tu, ta, rhs):
        branch.bordered_solves += 1
        return sr.bordered_solve(u, a, d_da, tu * scale, ta, rhs)

    tu, ta = _tangent(solve, u, A_start, np.zeros(u.size),
                      controls.direction, scale)
    a = A_start
    s = 0.0
    branch.record(sr, u, a, s, ta)
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
        branch.record(sr, u, a, s, ta)
        if (controls.fold_cap is not None
                and len(branch.folds) >= controls.fold_cap):
            branch.termination = "fold_count_cap"
            break
        if not (a_lo <= a <= a_hi):
            branch.termination = "parameter_exit"
            break
        ds = grown_step(ds, iters, controls)
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
    below STABLE_BELOW; on the even half grid it is the larger of the even
    and odd blocks' (``sr.parity_blocks``).  Each block's comes from
    shift-invert Arnoldi at sigma = 0, x -> J_free^-1 x by one dense
    inverse (``free_inverse``), eigenvalues lambda = 1 / mu.  The rightmost
    lambda among the Ritz pairs whose residual passes is taken once its
    true residual does too.  Checks start at FLAG_MIN_DIM basis vectors:
    fewer certify the eigenvalue nearest zero before a rightmost one
    further out has converged.  The dimension grows up to the block's
    order, where Arnoldi is exact, so every call decides.  The start vector
    sin(k) has even and odd parts, which on the full grid a constant start
    lacks.  ``rightmost_eigenvalue_dense`` is the dense oracle.  A singular
    Jacobian has the eigenvalue 0: flagged unstable, rightmost nan.
    Returns the flag, the rightmost real part, the Krylov dimensions summed
    over the blocks and each block's rightmost real part.
    """
    parts, dim = [], 0
    for block, state in sr.parity_blocks(u):
        try:
            action, order = block.free_inverse(state, A)
        except SingularJacobian:
            return Stability(False, math.nan, 0)
        start = np.sin(np.arange(1.0, order + 1.0))
        mu, _, used, _ = arnoldi_rightmost(action, order, FLAG_RES_TOL,
                                           start=start,
                                           select=_rightmost_inverse(order),
                                           min_dim=FLAG_MIN_DIM)
        parts.append(float((1.0 / mu).real))
        dim += used
    lam = max(parts)
    return Stability(lam < STABLE_BELOW, lam, dim, tuple(parts))
