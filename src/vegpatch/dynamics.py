"""Time integration: fixed horizons and steady states.

Every integrator drives one time loop, _march: each step it rejects a
non-finite or huge biomass, evaluates the right-hand side, hands it to the
caller and then applies one of two in-place updates.  The variant's
boundary closure comes from the operators alone: the biomass evolves on
``ops.free_v`` under ``ops.vegetation_transport`` and stays 0 elsewhere.
The linear terms of the right-hand side are folded once per run into one
action per field: a dense matrix for vegetation transport with mortality,
and a three-point stencil applied by np.correlate for water.
Fixed-step RK4, under explicit stability guards, serves the time-accurate
transients of simulate_horizon.  Steady states, from run_to_steady and
run_to_steady_batch alike, come from one driver taking linearly implicit
(IMEX) Euler steps: vegetation transport and mortality implicit through
one inverse formed per run, growth explicit, then water implicit with the
new biomass frozen (Ascher, Ruuth & Wetton, SIAM J. Numer. Anal. 32,
1995).  Its fixed points are exactly the discrete
stationary states.  The driver stops when the l2 norm of the right-hand
side (vegetation and water concatenated) drops below the tolerance,
STEADY_TOL for every sweep cell, or after STEADY_STEP_CAP steps.  A state
that is already stationary converges after zero steps.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .discretization import Operators
from .errors import Blowup, UnstableTimestep
from .kinetics import ModelParams, water_bands
from .tridiag import thomas_solve

BLOWUP_LIMIT = 1e6
_GUARD_SQUARE = (BLOWUP_LIMIT / 2) ** 2   # prefilter on ||v||_2^2
IMEX_STEP = 0.5
RK4_STEP = 1e-2           # default step of the time-accurate runs
STEADY_TOL = 0.01         # steady states stop at ||F(v, w)||_2 < STEADY_TOL
STEADY_STEP_CAP = 5_000   # IMEX steps; the slowest sweep cell needs 275
                          # to reach ||F||_2 < 1e-8


@dataclass
class State:
    v: np.ndarray
    w: np.ndarray
    t: float = 0.0
    step_count: int = 0


@dataclass
class SteadyResult:
    state: State
    converged: bool
    steps: int
    residual: float                         # ||F(v, w)||_2 at the end
    region_bound: float | None = None
    region_violations: int = 0
    blowup: Blowup | None = None           # the error that ended the run
    trajectory: np.ndarray | None = None   # rows (t, min v, max v, avg v, max w)


def _step_factors(ops: Operators, params: ModelParams):
    """(name, f) per explicit bound: a step h_t passes when f * h_t <= 0.5
    for all, so h_t |lambda| stays near 2 or below, in RK4's [-2.785, 0]."""
    h2 = ops.grid.spacing ** 2
    if ops.variant == "local":
        vegetation = ("vegetation diffusion number", 0.5 * params.d_v / h2)
    else:
        norm_k = float(ops.dispersal.row_sums().max())
        vegetation = ("dispersal step factor", params.d_v * (1.0 + norm_k))
    return [("water diffusion number", params.d_w / h2), vegetation]


def check_timestep(ops: Operators, params: ModelParams, h_t: float) -> None:
    """Reject explicit steps that violate the diffusion stability bounds."""
    if h_t <= 0:
        raise UnstableTimestep("time step must be positive")
    for name, factor in _step_factors(ops, params):
        if factor * h_t > 0.5:
            raise UnstableTimestep(f"{name} {factor * h_t:.3g} exceeds 0.5")


def stable_step(ops: Operators, params: ModelParams) -> float:
    """The largest step check_timestep accepts."""
    return min(0.5 / factor for _, factor in _step_factors(ops, params))


def _make_rhs(ops: Operators, params: ModelParams):
    """F(v, w) with its linear part folded once: returns rhs(v, w).

    Each field takes one linear action: vegetation the dense M v with
    M = T - B I on the free rows (T = ops.vegetation_transport(d_v)) and
    zero rows at the pinned nodes; water the stencil (a, -2a - 1, a) with
    a = d_w / h^2, through np.correlate with zero ghost values.  Then
    g = v^2 w is added to the vegetation part, subtracted from the water
    part and the rainfall A added, and the pinned water rows are zeroed.
    A pinned biomass node holds v = 0, so its row of F stays 0 as well.
    """
    h2 = ops.grid.spacing ** 2
    a = params.d_w / h2
    water = np.array([a, -2.0 * a - 1.0, a])
    free = ops.free_v
    mat = ops.vegetation_transport(params.d_v)
    mat.flat[::mat.shape[0] + 1] -= params.B
    mat[:free.start] = mat[free.stop:] = 0.0

    def rhs(v: np.ndarray, w: np.ndarray):
        growth = v * v
        growth *= w
        rhs_v = mat.dot(v)
        rhs_v += growth
        rhs_w = np.correlate(w, water, "same")
        rhs_w -= growth
        rhs_w += params.A
        rhs_w[0] = rhs_w[-1] = 0.0
        return rhs_v, rhs_w
    return rhs


def _march(state: State, rhs, n_steps: int, advance):
    """The time loop: yields (n, rhs_v, rhs_w) for the state after n steps.

    state.v and state.w are the live fields; after each yield but the last,
    advance(v, w, rhs_v, rhs_w) updates them in place.  A non-finite biomass
    or one above BLOWUP_LIMIT raises Blowup at step n.
    """
    v, w = state.v, state.w
    for n in range(n_steps + 1):
        # ||v||_2 <= LIMIT / 2 bounds every |v_i| with room for rounding;
        # only a state failing that (or a non-finite one) is scanned.
        if (not v.dot(v) <= _GUARD_SQUARE
                and not np.abs(v).max() <= BLOWUP_LIMIT):
            bad = ~np.isfinite(v) | (np.abs(v) > BLOWUP_LIMIT)
            node = int(np.argmax(bad))
            raise Blowup(n, node, float(v[node]))
        rhs_v, rhs_w = rhs(v, w)
        yield n, rhs_v, rhs_w
        if n < n_steps:
            advance(v, w, rhs_v, rhs_w)


def _rk4(rhs, h_t: float, n: int):
    """One classical fourth-order Runge-Kutta step: the in-place update.

    k1 is the right-hand side _march hands over; the stages y + c h_t k run
    through the same folded rhs from preallocated buffers, and the slopes
    sum as k1 + 2 k2 + 2 k3 + k4.  Pinned rows stay put: F is zero there.
    """
    buffers = np.empty((4, n))

    def advance(v, w, k_v, k_w):
        stage_v, stage_w, sum_v, sum_w = buffers
        sum_v[:], sum_w[:] = k_v, k_w
        for c, weight in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
            np.add(v, c * h_t * k_v, out=stage_v)
            np.add(w, c * h_t * k_w, out=stage_w)
            k_v, k_w = rhs(stage_v, stage_w)
            sum_v += weight * k_v
            sum_w += weight * k_w
        v += h_t / 6.0 * sum_v
        w += h_t / 6.0 * sum_w
    return advance


def _rk4_march(state: State, ops: Operators, params: ModelParams,
               h_t: float, t_final: float):
    """RK4 steps of h_t to t_final under check_timestep: (n_steps, loop)."""
    check_timestep(ops, params, h_t)
    rhs = _make_rhs(ops, params)
    n_steps = int(round(t_final / h_t))
    return n_steps, _march(state, rhs, n_steps, _rk4(rhs, h_t, state.v.size))


def _imex(ops: Operators, params: ModelParams):
    """Linearly implicit Euler at IMEX_STEP: returns the in-place update.

    Vegetation transport and mortality are implicit and the growth v^2 w
    explicit: with T = ops.vegetation_transport(d_v) restricted to the free
    nodes ops.free_v, one step is v <- P^-1 (v + h v^2 w) there, with
    P = (1 + h B) I - h T, whose inverse is formed once.  Water then takes
    d_w Lap - (v^2 + 1) implicitly with the new v frozen (one Thomas solve).
    """
    h = IMEX_STEP
    free = ops.free_v
    step_v = -h * ops.vegetation_transport(params.d_v)[free, free]
    step_v.flat[::step_v.shape[0] + 1] += 1.0 + h * params.B
    step_v = np.linalg.inv(step_v)

    def advance(v, w, rhs_v, rhs_w):
        v_free = v[free]
        v[free] = step_v @ (v_free + h * v_free * v_free * w[free])
        off, diag = water_bands(v, params, ops.grid, 1.0 / h)
        w[1:-1] = thomas_solve(off, diag, -params.A - w[1:-1] / h)
    return advance


def _trajectory_row(t: float, v: np.ndarray, w: np.ndarray) -> tuple:
    return (t, float(v.min()), float(v.max()), float(v.mean()),
            float(w.max()))


@np.errstate(over="ignore", invalid="ignore")   # Blowup reports it
def _steady(state: State, ops: Operators, params: ModelParams, tol: float,
            trajectory_every: int = 0) -> SteadyResult:
    """IMEX steps until ||F(v, w)||_2 < tol or STEADY_STEP_CAP runs out.

    Excursions of the biomass above B / max(sup w0, A) are counted when the
    initial biomass starts inside that invariant interval.  A blowup ends
    the run with the Blowup in the result and the state at the failing
    step.  The trajectory, when sampled, ends with the returned state.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    v, w = state.v, state.w
    r1 = max(float(w.max()), params.A)
    bound = params.B / r1 if float(v.max()) <= params.B / r1 + 1e-12 else None
    violations, n, residual = 0, 0, math.inf
    converged, blowup = False, None
    track: list[tuple] = []
    try:
        for n, rhs_v, rhs_w in _march(state, _make_rhs(ops, params),
                                      STEADY_STEP_CAP, _imex(ops, params)):
            residual = math.sqrt(float(rhs_v.dot(rhs_v) + rhs_w.dot(rhs_w)))
            converged = residual < tol
            if bound is not None and float(v.max()) > bound + 1e-8:
                violations += 1
            if trajectory_every > 0 and (n % trajectory_every == 0
                                         or converged
                                         or n == STEADY_STEP_CAP):
                track.append(_trajectory_row(n * IMEX_STEP, v, w))
            if converged:
                break
    except Blowup as err:
        n, residual, blowup = err.step, math.inf, err
    state.t, state.step_count = n * IMEX_STEP, n
    traj = np.asarray(track) if trajectory_every > 0 else None
    return SteadyResult(state, converged, n, residual, bound, violations,
                        blowup, traj)


def steady_state_rule(tol: float) -> dict:
    """How steady states are computed, as the manifests record it."""
    return {"scheme": "linearly implicit Euler: vegetation transport "
                      "(non-local dispersal or local diffusion) and "
                      "mortality implicit, growth v^2 w explicit, then "
                      "water d_w Lap - (v^2 + 1) implicit",
            "step": IMEX_STEP,
            "stopping_rule": f"||F(v, w)||_2 < {tol!r}",
            "step_cap": STEADY_STEP_CAP}


def horizon_rule(h_t: float, capped: bool, steps: int) -> dict:
    """How a fixed horizon is integrated, as the manifests record it."""
    return {"scheme": "classical fourth-order Runge-Kutta", "order": 4,
            "h_t": h_t, "capped_by_stability": capped, "steps": steps}


def initial_state(ops: Operators, v: np.ndarray, w: np.ndarray) -> State:
    """Clamp pinned boundary entries and wrap the arrays as a state."""
    v = np.asarray(v, dtype=float).copy()
    w = np.asarray(w, dtype=float).copy()
    free = ops.free_v
    v[:free.start] = v[free.stop:] = 0.0
    w[0] = w[-1] = 0.0
    return State(v, w)


def run_to_steady(initial: State, ops: Operators, params: ModelParams,
                  tol: float, trajectory_every: int = 0) -> SteadyResult:
    """Take IMEX steps until ||F(v, w)||_2 < tol.

    Returns the last state with converged=False when STEADY_STEP_CAP steps
    run out, and with the Blowup in blowup when the biomass blows up.
    Excursions of the biomass above B / max(sup w0, A) are counted when the
    initial biomass starts inside that invariant interval.  With
    trajectory_every > 0 the result carries (t, min v, max v, avg v, max w)
    samples at that cadence and at the returned state; trajectory_every=1
    samples every step.
    """
    return _steady(initial_state(ops, initial.v, initial.w), ops, params,
                   tol, trajectory_every)


def simulate_horizon(initial: State, ops: Operators, params: ModelParams,
                     h_t: float, t_final: float,
                     trajectory_every: int = 0):
    """Integrate to a fixed horizon by RK4; returns (state, trajectory)."""
    state = initial_state(ops, initial.v, initial.w)
    n_steps, loop = _rk4_march(state, ops, params, h_t, t_final)
    track: list[tuple] = []
    with np.errstate(over="ignore", invalid="ignore"):   # Blowup reports it
        for n, _, _ in loop:
            if trajectory_every > 0 and (n % trajectory_every == 0
                                         or n == n_steps):
                track.append(_trajectory_row(n * h_t, state.v, state.w))
    state.t, state.step_count = n_steps * h_t, n_steps
    return state, np.asarray(track)


@dataclass
class BatchCell:
    """One independent steady-state run of a sweep."""

    ops: Operators
    params: ModelParams
    v0: np.ndarray
    w0: np.ndarray


def run_to_steady_batch(cells: Iterable[BatchCell]) -> list[SteadyResult]:
    """Each cell's steady state as run_to_steady finds it at STEADY_TOL.

    Cells run one at a time in iteration order, so a generator of cells
    keeps only the running cell's operators alive.  Each cell calls the
    shared driver itself rather than run_to_steady, so a run of cells counts
    as one steady-state call.
    """
    return [_steady(initial_state(c.ops, c.v0, c.w0), c.ops, c.params,
                    STEADY_TOL)
            for c in cells]

