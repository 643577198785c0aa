"""Diagnostics that only the tests compute: the Taylor gap between dispersal
and diffusion, boundary sharpness, and the decay checks of the extinction
and stability criteria.  No command writes these numbers, so they live
beside the tests that assert on them.
"""
import math
from dataclasses import dataclass

import numpy as np

from vegpatch.discretization import (DispersalOperator, Grid1D,
                                     LaplacianOperator, Operators)
from vegpatch.dynamics import RK4_STEP, _rk4_march, initial_state
from vegpatch.errors import VegpatchError
from vegpatch.kinetics import ModelParams, solve_water_stationary


class DomainTooSmall(VegpatchError):
    """No grid node is far enough from the boundary for the diagnostic."""


class EnvelopeViolated(VegpatchError):
    """Simulated biomass exceeded the closed-form decay envelope."""

    def __init__(self, t: float, margin: float):
        self.t = t
        self.margin = margin
        super().__init__(f"decay envelope violated at t={t:.6g} by {margin:.3e}")


def taylor_consistency(op: DispersalOperator, profile: np.ndarray) -> float:
    """Sup-norm gap between dispersal and half-Laplacian on deep-interior nodes.

    For unit-variance kernels the dispersal of a smooth profile equals half
    its Laplacian up to a fourth-moment correction; this diagnostic measures
    that gap on nodes at least a cutoff-distance from the boundary, where no
    kernel mass is lost.
    """
    grid = op.grid
    interior = np.abs(grid.nodes) <= grid.half_width - op.kernel.support_cutoff
    if not interior.any():
        raise DomainTooSmall(
            f"no node is {op.kernel.support_cutoff:g} away from the boundary "
            f"of (-{grid.half_width:g}, {grid.half_width:g})")
    lap = LaplacianOperator(grid)
    gap = op.apply(profile) - 0.5 * lap.apply(profile)
    return float(np.max(np.abs(gap[interior])))


def boundary_sharpness(profile: np.ndarray, grid: Grid1D,
                       desert_floor: float = 1e-2) -> float:
    """Outermost vegetated node value over the profile maximum.

    Non-local stationary states keep a strictly positive value at the last
    habitat node (a discontinuity proxy), while local profiles slide to zero
    there and the ratio shrinks with the grid spacing.  Desert profiles
    return exactly zero.
    """
    vmax = float(profile.max())
    if vmax <= desert_floor:
        return 0.0
    vegetated = np.flatnonzero(profile > 1e-8 * vmax)
    outer = vegetated[np.argmax(np.abs(grid.nodes[vegetated]))]
    return float(profile[outer]) / vmax


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


def decay_envelope(t, b: float, m: float, nu0: float):
    """Closed-form bound on the biomass maximum when nu0 <= B/M."""
    return b * nu0 / (m * nu0 + (b - m * nu0) * np.exp(b * np.asarray(t)))


def extinction_decay_check(params: ModelParams, ops: Operators,
                           v0_level: float, h_t: float = RK4_STEP,
                           t_final: float = 60.0,
                           sample_every: int = 20) -> DecayReport:
    """Simulate a sub-threshold uniform biomass and verify its collapse.

    Checks that the biomass maximum stays under the closed-form envelope at
    every sample (raising EnvelopeViolated at the first excursion) and tracks
    the sup-norm distance of water from the desert profile W0.  The envelope
    is allowed a slack of 1e-9 + 0.05 * h_t^4 to absorb the fourth-order
    discretization gap between trajectory and envelope.
    """
    grid = ops.grid
    w0 = solve_water_stationary(np.zeros(grid.n_nodes), params, grid)
    m = max(float(w0.max()), params.A)
    if v0_level < 0 or v0_level > params.B / m + 1e-12:
        raise ValueError(
            f"initial level {v0_level} outside the decay interval "
            f"[0, {params.B / m:.6g}]")
    state = initial_state(ops, np.full(grid.n_nodes, float(v0_level)), w0)
    slack = 1e-9 + 0.05 * h_t ** 4
    n_steps, loop = _rk4_march(state, ops, params, h_t, t_final)
    times, maxima, envs, gaps = [], [], [], []
    for n, _, _ in loop:
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
                       amplitude: float = 0.01, h_t: float = RK4_STEP,
                       t_final: float = 30.0, sample_every: int = 10,
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
    _, loop = _rk4_march(state, ops, params, h_t, t_final)
    times, gaps = [], []
    for n, _, _ in loop:
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
