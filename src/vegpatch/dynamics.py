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
The driver steps the node vectors of one parity under x -> -x
(``discretization.Reduction``).  run_to_steady keeps the full grid, as
its starts are arbitrary.  The sweep's habitat, kernels and cosine start
are even, so run_to_steady_batch steps the even half grid x >= 0: the
folded transport on ceil(N / 2) nodes, and the water rows with the centre
row's mirror folded in.  Norms and outputs stay the full grid's.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .discretization import Operators, Reduction
from .errors import AsymmetricStart, Blowup, UnstableTimestep
from .kinetics import ModelParams, water_bands
from .tridiag import thomas_solve

BLOWUP_LIMIT = 1e6
_GUARD_SQUARE = (BLOWUP_LIMIT / 2) ** 2   # prefilter on ||v||_2^2
IMEX_STEP = 0.5
RK4_STEP = 1e-2           # default step of the time-accurate runs
STEADY_TOL = 0.01         # steady states stop at ||F(v, w)||_2 < STEADY_TOL
STEADY_STEP_CAP = 5_000   # IMEX steps; the slowest sweep cell needs 275
                          # to reach ||F||_2 < 1e-8
SWEEP_PARITY = 1          # run_to_steady_batch's cells: the even half grid
EVEN_TOL = 1e-12          # a half-grid start's mirror gap, relative


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


def _make_rhs(ops: Operators, params: ModelParams, red: Reduction,
              transport: np.ndarray):
    """F(v, w) on the node vectors of red's parity, with its linear part
    folded once: returns rhs(v, w).

    transport is T = ops.vegetation_transport(d_v) folded by red; the
    returned function takes it over as M = T - B I, with zero rows at the
    pinned biomass nodes.  Each field takes one linear action: vegetation
    the dense M v, water the stencil (a, -2a - 1, a) with a = d_w / h^2,
    through np.correlate with zero ghost values.  Then g = v^2 w is added
    to the vegetation part, subtracted from the water part and the rainfall
    A added, and the pinned water rows are zeroed.  A pinned biomass node
    holds v = 0, so its row of F stays 0 as well.  On the even half grid
    the centre row is not pinned, and its left ghost is its mirror node: the
    right neighbour for an odd N, the centre node itself for an even N.
    """
    h2 = ops.grid.spacing ** 2
    a = params.d_w / h2
    water = np.array([a, -2.0 * a - 1.0, a])
    free = red.kept(ops.free_v)
    mat = transport
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

    if not red.parity:
        return rhs
    mirror = red.n_full % 2

    def rhs_even(v: np.ndarray, w: np.ndarray):
        growth = v * v
        growth *= w
        rhs_v = mat.dot(v)
        rhs_v += growth
        # "full" less its ends: "same" pads a 2-node half grid to 3
        rhs_w = np.correlate(w, water, "full")[1:-1]
        rhs_w[0] += a * w[mirror]
        rhs_w -= growth
        rhs_w += params.A
        rhs_w[-1] = 0.0
        return rhs_v, rhs_w
    return rhs_even


def _first_bad(v: np.ndarray) -> int:
    """The first node whose biomass is non-finite or above BLOWUP_LIMIT."""
    return int(np.argmax(~np.isfinite(v) | (np.abs(v) > BLOWUP_LIMIT)))


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
            node = _first_bad(v)
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
    rhs = _make_rhs(ops, params, Reduction(ops.grid.n_nodes),
                    ops.vegetation_transport(params.d_v))
    n_steps = int(round(t_final / h_t))
    return n_steps, _march(state, rhs, n_steps, _rk4(rhs, h_t, state.v.size))


def _imex(ops: Operators, params: ModelParams, red: Reduction,
          transport: np.ndarray):
    """Linearly implicit Euler at IMEX_STEP on the node vectors of red's
    parity: returns the in-place update.

    Vegetation transport and mortality are implicit and the growth v^2 w
    explicit: with T = transport, ops.vegetation_transport(d_v) folded by
    red, restricted to the free nodes, one step is v <- P^-1 (v + h v^2 w)
    there, with P = (1 + h B) I - h T, whose inverse is formed once.  Water
    then takes d_w Lap - (v^2 + 1) implicitly with the new v frozen: one
    Thomas solve on the interior rows, off-diagonal a = d_w / h^2.  On the
    even half grid the centre row folds in its mirror: an odd N's centre
    node couples 2a to its neighbour, so its row is halved; an even N's
    node 0 is its own left neighbour, which adds a to its diagonal.
    """
    h = IMEX_STEP
    free = red.kept(ops.free_v)
    rows = red.kept(slice(1, ops.grid.n_nodes - 1))
    step_v = -h * transport[free, free]
    step_v.flat[::step_v.shape[0] + 1] += 1.0 + h * params.B
    step_v = np.linalg.inv(step_v)
    odd = red.n_full % 2 == 1
    halve, self_mirrored = red.parity and odd, red.parity and not odd

    def advance(v, w, rhs_v, rhs_w):
        v_free = v[free]
        v[free] = step_v @ (v_free + h * v_free * v_free * w[free])
        off, diag = water_bands(v[rows], params, ops.grid, 1.0 / h)
        rhs = -params.A - w[rows] / h
        if halve:
            diag[0] *= 0.5
            rhs[0] *= 0.5
        elif self_mirrored:
            diag[0] += off
        w[rows] = thomas_solve(off, diag, rhs)
    return advance


def _trajectory_row(t: float, v: np.ndarray, w: np.ndarray) -> tuple:
    return (t, float(v.min()), float(v.max()), float(v.mean()),
            float(w.max()))


def _require_even(state: State) -> None:
    """Raise AsymmetricStart unless v and w are even under x -> -x to
    EVEN_TOL relative to their largest magnitudes."""
    for name, u in (("v", state.v), ("w", state.w)):
        gap = float(np.abs(u - u[::-1]).max())
        if not gap <= EVEN_TOL * float(np.abs(u).max()):
            raise AsymmetricStart(
                f"the start's {name} is not even under x -> -x: "
                f"max |{name}(x) - {name}(-x)| = {gap!r}")


@np.errstate(over="ignore", invalid="ignore")   # Blowup reports it
def _steady(state: State, ops: Operators, params: ModelParams, tol: float,
            trajectory_every: int = 0, parity: int = 0) -> SteadyResult:
    """IMEX steps until ||F(v, w)||_2 < tol or STEADY_STEP_CAP runs out.

    The steps run on the node vectors of the given parity (``Reduction``):
    0 keeps the full grid, 1 the even half grid x >= 0, which needs a start
    that _require_even passes; the start is never folded otherwise.
    ||F||_2 is the full grid's, through the multiplicities, and the
    returned state, the trajectory and a Blowup's node are too.
    Excursions of the biomass above B / max(sup w0, A) are counted when the
    initial biomass starts inside that invariant interval.  A blowup ends
    the run with the Blowup in the result and the state at the failing
    step.  The trajectory, when sampled, ends with the returned state.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    red = Reduction(ops.grid.n_nodes, parity)
    transport = ops.vegetation_transport(params.d_v)
    if parity:
        _require_even(state)
        transport = red.fold(transport)
    advance = _imex(ops, params, red, transport)
    rhs = _make_rhs(ops, params, red, transport)   # takes transport over
    v, w = red.restrict(state.v), red.restrict(state.w)
    weights = red.weights
    r1 = max(float(w.max()), params.A)
    bound = params.B / r1 if float(v.max()) <= params.B / r1 + 1e-12 else None
    violations, n, residual = 0, 0, math.inf
    converged, failure = False, None
    track: list[tuple] = []
    try:
        for n, rhs_v, rhs_w in _march(State(v, w), rhs, STEADY_STEP_CAP,
                                      advance):
            residual = math.sqrt(float(rhs_v.dot(weights * rhs_v)
                                       + rhs_w.dot(weights * rhs_w)))
            converged = residual < tol
            if bound is not None and float(v.max()) > bound + 1e-8:
                violations += 1
            if trajectory_every > 0 and (n % trajectory_every == 0
                                         or converged
                                         or n == STEADY_STEP_CAP):
                track.append(_trajectory_row(n * IMEX_STEP, red.expand(v),
                                             red.expand(w)))
            if converged:
                break
    except Blowup as err:
        n, residual, failure = err.step, math.inf, err
    final = State(red.expand(v), red.expand(w), n * IMEX_STEP, n)
    blowup = None
    if failure is not None:
        node = _first_bad(final.v)
        blowup = Blowup(failure.step, node, float(final.v[node]))
    traj = np.asarray(track) if trajectory_every > 0 else None
    return SteadyResult(final, converged, n, residual, bound, violations,
                        blowup, traj)


def steady_state_rule(tol: float, parity: int) -> dict:
    """How steady states are computed, as the manifests record it; parity
    is _steady's (SWEEP_PARITY for the sweep's cells)."""
    return {"scheme": "linearly implicit Euler: vegetation transport "
                      "(non-local dispersal or local diffusion) and "
                      "mortality implicit, growth v^2 w explicit, then "
                      "water d_w Lap - (v^2 + 1) implicit",
            "grid": ("the even half grid x >= 0 (starts and states even "
                     "under x -> -x)" if parity else "the full grid"),
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
    """One independent steady-state run of a sweep, from a start (v0, w0)
    that is even under x -> -x, as the habitat, the built-in kernels and
    the cosine start are."""

    ops: Operators
    params: ModelParams
    v0: np.ndarray
    w0: np.ndarray


def run_to_steady_batch(cells: Iterable[BatchCell]) -> list[SteadyResult]:
    """Each cell's steady state at STEADY_TOL, stepped on the even half
    grid x >= 0 (parity SWEEP_PARITY) and returned on the full grid.

    The half grid holds ceil(N / 2) nodes: half the water rows, a quarter
    of the transport matvec and about an eighth of the inverse's cost.  It
    agrees with run_to_steady on the full grid to rounding.  A cell whose
    start is not even to EVEN_TOL raises AsymmetricStart.  Cells run one
    at a time in iteration order, so a generator of cells keeps only the
    running cell's operators alive.  Each cell calls the shared driver
    itself rather than run_to_steady, so a run of cells counts as one
    steady-state call.
    """
    return [_steady(initial_state(c.ops, c.v0, c.w0), c.ops, c.params,
                    STEADY_TOL, parity=SWEEP_PARITY)
            for c in cells]
