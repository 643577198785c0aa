"""Time integration with steady-state and decay diagnostics.

Every integrator drives one time loop, _march: each step it rejects a
non-finite or huge biomass, evaluates the right-hand side, hands it to the
caller and then applies one of two in-place updates.  The linear terms of
the right-hand side are folded once per run into one action per field: a
dense matrix for non-local dispersal with mortality, and three-point
stencils applied by np.convolve for local diffusion and for water.  Explicit Euler, under
explicit stability guards, serves the transients (fixed horizons, decay
checks) and run_to_steady.  run_to_steady_batch takes linearly implicit
(IMEX) Euler steps, whose fixed points are exactly the discrete stationary
states, at a step of 0.1, 100 to 1000 times the explicit ones (Ascher,
Ruuth & Wetton, SIAM J. Numer. Anal. 32, 1995).  Both steady-state runs
stop when h_t times the l2 norm of the right-hand side (vegetation and
water concatenated) drops below the tolerance, which for explicit Euler is
the l2 size of the would-be update.  A state that is already stationary
converges after zero steps.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .discretization import Operators
from .errors import Blowup, EnvelopeViolated, UnstableTimestep
from .kinetics import ModelParams, solve_water_stationary, water_bands
from .tridiag import thomas_solve

BLOWUP_LIMIT = 1e6
_GUARD_SQUARE = (BLOWUP_LIMIT / 2) ** 2   # prefilter on ||v||_2^2
IMEX_STEP = 0.1
MONITOR_EVERY = 25   # steady runs sample their running extremes this often


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
    last_step_delta: float
    min_v: float
    max_v: float
    max_w: float
    region_bound: float | None = None
    region_violations: int = 0
    blowup: bool = False
    step_size: float | None = None         # time step taken
    trajectory: np.ndarray | None = None   # rows (t, min v, max v, avg v, max w)


@dataclass
class DecayReport:
    """Sampled extinction trajectory checked against the decay envelope."""

    times: np.ndarray
    max_v: np.ndarray
    envelope: np.ndarray
    water_gap: np.ndarray       # sup norm of w - W0 at the sample times
    threshold: float            # B / M
    envelope_slack: float
    final_max_v: float
    final_water_gap: float


def check_timestep(ops: Operators, params: ModelParams, h_t: float) -> None:
    """Reject explicit steps that violate the diffusion stability bounds."""
    if h_t <= 0:
        raise UnstableTimestep("time step must be positive")
    h2 = ops.grid.spacing ** 2
    if params.d_w * h_t / h2 > 0.5:
        raise UnstableTimestep(
            f"water diffusion number {params.d_w * h_t / h2:.3g} exceeds 0.5")
    if ops.variant == "local":
        if 0.5 * params.d_v * h_t / h2 > 0.5:
            raise UnstableTimestep(
                f"vegetation diffusion number {0.5 * params.d_v * h_t / h2:.3g} "
                "exceeds 0.5")
    else:
        norm_k = float(ops.dispersal.row_sums().max())
        if params.d_v * h_t * (1.0 + norm_k) > 0.5:
            raise UnstableTimestep(
                f"dispersal step factor {params.d_v * h_t * (1 + norm_k):.3g} "
                "exceeds 0.5")


def _make_rhs(ops: Operators, params: ModelParams):
    """F(v, w) with its linear part folded once: returns rhs(v, w).

    Each field takes one linear action: vegetation M v with
    M = d_v (K - I) - B I, dense, in the non-local variant, or the stencil
    (b, -2b - B, b) with b = d_v / 2h^2 in the local one; water the stencil
    (a, -2a - 1, a) with a = d_w / h^2.  Stencils run through np.convolve
    with zero ghost values.  Then g = v^2 w is added to the vegetation part,
    subtracted from the water part and the rainfall A added.  Pinned rows
    are zero: water always, vegetation only in the local variant (the
    non-local closure tracks v at all nodes).
    """
    h2 = ops.grid.spacing ** 2
    a = params.d_w / h2
    water = np.array([a, -2.0 * a - 1.0, a])
    local = ops.variant == "local"
    if local:
        b = 0.5 * params.d_v / h2
        stencil_v = np.array([b, -2.0 * b - params.B, b])

        def linear_v(v):
            return np.convolve(v, stencil_v, "same")
    else:
        mat = params.d_v * ops.dispersal.matrix
        mat.flat[::mat.shape[0] + 1] -= params.d_v + params.B
        linear_v = mat.dot

    def rhs(v: np.ndarray, w: np.ndarray):
        growth = v * v
        growth *= w
        rhs_v = linear_v(v)
        rhs_v += growth
        rhs_w = np.convolve(w, water, "same")
        rhs_w -= growth
        rhs_w += params.A
        rhs_w[0] = rhs_w[-1] = 0.0
        if local:
            rhs_v[0] = rhs_v[-1] = 0.0
        return rhs_v, rhs_w
    return rhs


def _march(state: State, ops: Operators, params: ModelParams, n_steps: int,
           advance):
    """The time loop: yields (n, rhs_v, rhs_w) for the state after n steps.

    state.v and state.w are the live fields; after each yield but the last,
    advance(v, w, rhs_v, rhs_w) updates them in place.  A non-finite biomass
    or one above BLOWUP_LIMIT raises Blowup at step state.step_count + n.
    The right-hand side is built once, before the first step.
    """
    v, w = state.v, state.w
    rhs = _make_rhs(ops, params)
    for n in range(n_steps + 1):
        # ||v||_2 <= LIMIT / 2 bounds every |v_i| with room for rounding;
        # only a state failing that (or a non-finite one) is scanned.
        if (not np.dot(v, v) <= _GUARD_SQUARE
                and not np.abs(v).max() <= BLOWUP_LIMIT):
            bad = ~np.isfinite(v) | (np.abs(v) > BLOWUP_LIMIT)
            node = int(np.argmax(bad))
            raise Blowup(state.step_count + n, node, float(v[node]))
        rhs_v, rhs_w = rhs(v, w)
        yield n, rhs_v, rhs_w
        if n < n_steps:
            advance(v, w, rhs_v, rhs_w)


def _euler(h_t: float):
    def advance(v, w, rhs_v, rhs_w):
        v += h_t * rhs_v
        w += h_t * rhs_w
    return advance


def _imex(ops: Operators, params: ModelParams):
    """Linearly implicit Euler: returns (step, in-place update).

    Water takes d_w Lap - (v^2 + 1) implicitly with v frozen (one Thomas
    solve); dispersal and reaction are explicit; the local variant's
    vegetation diffusion is implicit through its inverse, formed once.  The
    step is IMEX_STEP, lowered where needed to keep the explicit dispersal
    factor d_v * h * (1 + max row sum) at or below 0.4.
    """
    h = IMEX_STEP
    implicit_v = None
    if ops.variant == "local":
        lap = ops.laplacian.dense()[1:-1, 1:-1]
        implicit_v = np.linalg.inv(np.eye(lap.shape[0])
                                   - h * 0.5 * params.d_v * lap)
    else:
        norm_k = float(ops.dispersal.row_sums().max())
        h = min(h, 0.4 / (params.d_v * (1.0 + norm_k)))

    def advance(v, w, rhs_v, rhs_w):
        if implicit_v is None:
            v += h * rhs_v
        else:
            reaction = v * v * w - params.B * v
            v[1:-1] = implicit_v @ (v[1:-1] + h * reaction[1:-1])
        lower, diag, upper = water_bands(v, params, ops.grid, 1.0 / h)
        w[1:-1] = thomas_solve(lower, diag, upper, -params.A - w[1:-1] / h)
    return h, advance


def _trajectory_row(t: float, v: np.ndarray, w: np.ndarray) -> tuple:
    return (t, float(v.min()), float(v.max()), float(v.mean()),
            float(w.max()))


def _steady(state: State, ops: Operators, params: ModelParams, h_t: float,
            tol: float, max_steps: int, step: float, advance,
            trajectory_every: int = 0,
            raise_blowup: bool = True) -> SteadyResult:
    """Step until h_t * ||F(v, w)||_2 < tol or max_steps runs out.

    The running extremes of both fields are sampled every MONITOR_EVERY
    steps, and excursions of the biomass above B / max(sup w0, A) counted
    when the initial biomass starts inside that invariant interval.  With
    raise_blowup False a blowup ends the run with blowup=True and the state
    at the failing step instead of raising.
    """
    v, w = state.v, state.w
    r1 = max(float(w.max()), params.A)
    bound = params.B / r1 if float(v.max()) <= params.B / r1 + 1e-12 else None
    min_v, max_v, max_w = float(v.min()), float(v.max()), float(w.max())
    violations, n, delta = 0, 0, math.inf
    converged = blowup = False
    track: list[tuple] = []
    try:
        for n, rhs_v, rhs_w in _march(state, ops, params, max_steps, advance):
            delta = h_t * math.sqrt(float(np.dot(rhs_v, rhs_v)
                                          + np.dot(rhs_w, rhs_w)))
            # the states after steps 1, 1 + MONITOR_EVERY, ...
            if (n - 1) % MONITOR_EVERY == 0:
                cur_max = float(v.max())
                min_v = min(min_v, float(v.min()))
                max_v = max(max_v, cur_max)
                max_w = max(max_w, float(w.max()))
                if bound is not None and cur_max > bound + 1e-8:
                    violations += 1
            if trajectory_every > 0 and n % trajectory_every == 0:
                track.append(_trajectory_row(n * step, v, w))
            if delta < tol:
                converged = True
                break
    except Blowup as err:
        if raise_blowup:
            raise
        n, delta, blowup = err.step, math.inf, True
    state.t, state.step_count = n * step, n
    traj = np.asarray(track) if trajectory_every > 0 else None
    return SteadyResult(state, converged, n, delta, min_v, max_v, max_w,
                        bound, violations, blowup, step, traj)


def euler_step(state: State, ops: Operators, params: ModelParams,
               h_t: float) -> State:
    """One explicit step; raises Blowup on non-finite or huge values."""
    out = State(state.v.copy(), state.w.copy(), state.t, state.step_count)
    for _ in _march(out, ops, params, 1, _euler(h_t)):
        pass
    out.t += h_t
    out.step_count += 1
    return out


def initial_state(ops: Operators, v: np.ndarray, w: np.ndarray) -> State:
    """Clamp pinned boundary entries and wrap the arrays as a state."""
    v = np.asarray(v, dtype=float).copy()
    w = np.asarray(w, dtype=float).copy()
    w[0] = w[-1] = 0.0
    if ops.variant == "local":
        v[0] = v[-1] = 0.0
    return State(v, w)


def run_to_steady(initial: State, ops: Operators, params: ModelParams,
                  h_t: float, tol: float = 1e-5, max_steps: int = 2_000_000,
                  trajectory_every: int = 0) -> SteadyResult:
    """Iterate explicit steps until the step-difference criterion is met.

    Returns the best state with converged=False when max_steps runs out.
    The running extremes of both fields are tracked, and excursions of the
    biomass above B / max(sup w0, A) are counted when the initial biomass
    starts inside that invariant interval.  With trajectory_every > 0 the
    result carries (t, min v, max v, avg v, max w) samples at that cadence.
    """
    check_timestep(ops, params, h_t)
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _steady(initial_state(ops, initial.v, initial.w), ops, params,
                   h_t, tol, max_steps, h_t, _euler(h_t), trajectory_every)


def simulate_horizon(initial: State, ops: Operators, params: ModelParams,
                     h_t: float, t_final: float,
                     trajectory_every: int = 0):
    """Integrate to a fixed horizon; returns (state, trajectory array)."""
    check_timestep(ops, params, h_t)
    state = initial_state(ops, initial.v, initial.w)
    n_steps = int(round(t_final / h_t))
    track: list[tuple] = []
    for n, _, _ in _march(state, ops, params, n_steps, _euler(h_t)):
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


def run_to_steady_batch(cells: Iterable[BatchCell], h_t: float,
                        tol: float = 1e-5,
                        max_steps: int = 2_000_000) -> list[SteadyResult]:
    """Steady states of independent cells by linearly implicit Euler.

    A fixed point of the step is exactly a discrete stationary state.  The
    stopping rule is run_to_steady's, h_t * ||F(v, w)||_2 < tol with F the
    right-hand side, so h_t only scales the criterion; max_steps caps the
    implicit steps of each cell.  Cells that blow up come back unconverged
    with blowup=True.  Cells run one at a time in iteration order, so a
    generator of cells keeps only the running cell's operators alive.
    """
    if h_t <= 0:
        raise UnstableTimestep("time step must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    return [_steady(initial_state(c.ops, c.v0, c.w0), c.ops, c.params, h_t,
                    tol, max_steps, *_imex(c.ops, c.params),
                    raise_blowup=False)
            for c in cells]


def decay_envelope(t, b: float, m: float, nu0: float):
    """Closed-form bound on the biomass maximum when nu0 <= B/M."""
    return b * nu0 / (m * nu0 + (b - m * nu0) * np.exp(b * np.asarray(t)))


def extinction_decay_check(params: ModelParams, ops: Operators,
                           v0_level: float, h_t: float = 1e-3,
                           t_final: float = 60.0,
                           sample_every: int = 200) -> DecayReport:
    """Simulate a sub-threshold uniform biomass and verify its collapse.

    Checks that the biomass maximum stays under the closed-form envelope at
    every sample (raising EnvelopeViolated at the first excursion) and tracks
    the sup-norm distance of water from the desert profile W0.  The envelope
    is allowed a slack of 1e-9 + 0.05 * h_t to absorb the explicit-Euler
    discretization gap between trajectory and envelope.
    """
    grid = ops.grid
    w0 = solve_water_stationary(np.zeros(grid.n_nodes), params, grid)
    m = max(float(w0.max()), params.A)
    if v0_level < 0 or v0_level > params.B / m + 1e-12:
        raise ValueError(
            f"initial level {v0_level} outside the decay interval "
            f"[0, {params.B / m:.6g}]")
    check_timestep(ops, params, h_t)

    state = initial_state(ops, np.full(grid.n_nodes, float(v0_level)), w0)
    slack = 1e-9 + 0.05 * h_t
    n_steps = int(round(t_final / h_t))
    times, maxima, envs, gaps = [], [], [], []
    for n, _, _ in _march(state, ops, params, n_steps, _euler(h_t)):
        if n % sample_every and n != n_steps:
            continue
        t = n * h_t
        mx = float(state.v.max())
        env = float(decay_envelope(t, params.B, m, v0_level))
        gap = float(np.max(np.abs(state.w - w0)))
        times.append(t)
        maxima.append(mx)
        envs.append(env)
        gaps.append(gap)
        if mx > env + slack:
            raise EnvelopeViolated(t, mx - env)

    return DecayReport(
        times=np.asarray(times), max_v=np.asarray(maxima),
        envelope=np.asarray(envs), water_gap=np.asarray(gaps),
        threshold=params.B / m, envelope_slack=slack,
        final_max_v=maxima[-1], final_water_gap=gaps[-1])


def perturbation_decay(ops: Operators, params: ModelParams,
                       v_ref: np.ndarray, w_ref: np.ndarray,
                       amplitude: float = 0.01, h_t: float = 1e-3,
                       t_final: float = 30.0, sample_every: int = 100,
                       norm_floor: float = 1e-9):
    """Perturb a stationary state and fit the l2 decay rate of the gap.

    The vegetation is scaled by (1 + amplitude * cos(pi x / 2L)), the water
    left untouched, and the run sampled until t_final.  Returns (times,
    l2 gaps, slope) where slope is the least-squares slope of log gap over
    the samples above norm_floor; negative slope means exponential return.
    """
    grid = ops.grid
    profile = np.cos(np.pi * grid.nodes / (2.0 * grid.half_width))
    state = initial_state(ops, v_ref * (1.0 + amplitude * profile), w_ref)
    check_timestep(ops, params, h_t)
    n_steps = int(round(t_final / h_t))
    times, gaps = [], []
    for n, _, _ in _march(state, ops, params, n_steps, _euler(h_t)):
        if n % sample_every == 0:
            times.append(n * h_t)
            gaps.append(float(np.linalg.norm(state.v - v_ref)))
    times = np.asarray(times)
    gaps = np.asarray(gaps)
    usable = gaps > norm_floor
    if usable.sum() >= 2:
        slope = float(np.polyfit(times[usable], np.log(gaps[usable]), 1)[0])
    else:
        slope = -math.inf
    return times, gaps, slope
