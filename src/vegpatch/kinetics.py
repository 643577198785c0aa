"""Reaction terms, spatially uniform equilibria, and the stationary water solve.

The kinetic (space-free) system has a desert equilibrium (0, A) for all
parameters, two vegetated equilibria when rainfall exceeds twice the
mortality, and a single merged state (1, B) exactly at that threshold.  The
stationary water profile W(v) solves a linear elliptic problem and obeys the
maximum principle 0 <= W <= A, which is checked on every solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import Grid1D
from .errors import ConfigError, WaterBoundViolated
from .tridiag import thomas_solve, thomas_solve_columns

EQ_DESERT = 1
EQ_LOWER = 2
EQ_UPPER = 3
EQ_MERGED = 4


@dataclass(frozen=True)
class ModelParams:
    """Kinetic and transport constants; the defaults are the standard ones."""

    A: float = 1.8      # rainfall rate
    B: float = 0.45     # mortality rate
    d_v: float = 2.0    # plant dispersal rate
    d_w: float = 0.1    # water diffusion rate

    def __post_init__(self):
        for name in ("A", "B", "d_v", "d_w"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and strictly "
                                  f"positive, got {value!r}")


@dataclass(frozen=True)
class KineticEquilibrium:
    v_star: float
    w_star: float
    index: int   # EQ_DESERT, EQ_LOWER, EQ_UPPER, or EQ_MERGED


def constant_steady_states(A: float, B: float) -> list[KineticEquilibrium]:
    """All real uniform equilibria of the kinetic system, sorted by biomass.

    Always contains the desert state (0, A).  For A > 2B the vegetated pair
    (A -+ sqrt(A^2 - 4B^2)) / (2B) appears; at A == 2B the pair merges into
    (1, B).  Water values use w = A / (v^2 + 1), which is algebraically equal
    to the quotient form 2B^2 / (A -+ sqrt(...)) but avoids cancellation.
    """
    if A <= 0 or B <= 0:
        raise ValueError("A and B must be strictly positive")
    states = [KineticEquilibrium(0.0, A, EQ_DESERT)]
    if A == 2.0 * B:
        states.append(KineticEquilibrium(1.0, B, EQ_MERGED))
    elif A > 2.0 * B:
        root = math.sqrt(A * A - 4.0 * B * B)
        for v, idx in (((A - root) / (2.0 * B), EQ_LOWER),
                       ((A + root) / (2.0 * B), EQ_UPPER)):
            states.append(KineticEquilibrium(v, A / (v * v + 1.0), idx))
    return sorted(states, key=lambda s: s.v_star)


def vegetated_equilibrium(A: float, B: float) -> KineticEquilibrium:
    """The upper (largest-biomass) equilibrium; requires A >= 2B."""
    states = constant_steady_states(A, B)
    if len(states) == 1:
        raise ValueError(f"no vegetated equilibrium for A={A} <= 2B={2 * B}")
    return states[-1]


def water_bands(v: np.ndarray, params: ModelParams, grid: Grid1D,
                shift: float = 0.0):
    """Interior bands of d_w W'' - (v^2 + 1 + shift) W with W(+-L) = 0.

    shift = 0 gives the stationary water operator; shift = 1/h gives the
    matrix of one implicit Euler step of length h with v frozen.
    """
    h2 = grid.spacing ** 2
    m = grid.n_nodes - 2
    lower = np.full(m, params.d_w / h2)
    upper = np.full(m, params.d_w / h2)
    lower[0] = 0.0
    upper[-1] = 0.0
    diag = -2.0 * params.d_w / h2 - (v[1:-1] ** 2 + 1.0 + shift)
    return lower, diag, upper


def solve_water_stationary(v: np.ndarray, params: ModelParams,
                           grid: Grid1D) -> np.ndarray:
    """Water profile solving d_w W'' - (v^2 + 1) W + A = 0, W(+-L) = 0.

    The tridiagonal system is strictly diagonally dominant, so plain Thomas
    elimination is exact for this structure.  The output is clipped against
    nothing: a profile outside the discrete maximum principle 0 <= W <= A
    raises WaterBoundViolated.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (grid.n_nodes,):
        raise ValueError("v must be a node vector")
    if v.min() < 0:
        raise ValueError("v must be non-negative")
    lower, diag, upper = water_bands(v, params, grid)
    w = np.zeros(grid.n_nodes)
    w[1:-1] = thomas_solve(lower, diag, upper,
                           np.full(grid.n_nodes - 2, -params.A))
    _check_maximum_principle(w[None, :], params.A)
    return w


def solve_water_uniform(levels: np.ndarray, params: ModelParams,
                        grid: Grid1D) -> np.ndarray:
    """Stationary water at the interior nodes, one column per constant level.

    Returns (N - 2, levels) profiles; the boundary nodes hold W = 0.  All
    levels are solved in one batched Thomas sweep (thomas_solve_columns),
    which performs the same operations as solve_water_stationary on each
    level, so every column is bitwise equal to that level's
    solve_water_stationary(level * ones)[1:-1].  Each column is checked
    against the maximum principle 0 <= W <= A.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.min() < 0:
        raise ValueError("levels must be non-negative")
    v = np.broadcast_to(levels, (3, levels.size))    # one interior row
    lower, diag, upper = water_bands(v, params, grid)
    diag = np.broadcast_to(diag, (lower.size, levels.size))   # all rows alike
    w = thomas_solve_columns(lower, diag, upper, -params.A)
    _check_maximum_principle(w.T, params.A)
    return w


def _check_maximum_principle(w: np.ndarray, A: float) -> None:
    """Raise WaterBoundViolated for the first row of w outside [0, A]."""
    lo, hi = w.min(axis=1), w.max(axis=1)
    bad = np.flatnonzero(~((lo >= -1e-10) & (hi <= A + 1e-10)))
    if bad.size:
        raise WaterBoundViolated(float(lo[bad[0]]), float(hi[bad[0]]), A)


def reaction_rhs(v: np.ndarray, w: np.ndarray, params: ModelParams):
    """Pointwise reaction terms (v^2 w - B v, -v^2 w - w + A)."""
    growth = v * v * w
    return growth - params.B * v, -growth - w + params.A


def scalar_f(v: np.ndarray, params: ModelParams, grid: Grid1D) -> np.ndarray:
    """Reduced vegetation nonlinearity f(v) = v^2 W(v) - B v."""
    w = solve_water_stationary(v, params, grid)
    return v * v * w - params.B * v
