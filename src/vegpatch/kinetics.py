"""Model constants, uniform equilibria, and the stationary water solve.

The kinetic (space-free) system has a desert equilibrium (0, A) for all
parameters, two vegetated equilibria when rainfall exceeds twice the
mortality, and a single merged state (1, B) exactly at that threshold.  The
stationary water profile W(v) solves a linear elliptic problem and obeys the
maximum principle 0 <= W <= A, which is checked on every solve.  For a
constant biomass level the discrete profile is known in closed form
(uniform_water_layer), and only its boundary layer differs from the plateau
A / (1 + v^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import Grid1D
from .errors import ConfigError, WaterBoundViolated
from .tridiag import thomas_solve


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


def constant_steady_states(A: float, B: float) -> list[KineticEquilibrium]:
    """All real uniform equilibria of the kinetic system, sorted by biomass.

    Always contains the desert state (0, A).  For A > 2B the vegetated pair
    (A -+ sqrt(A^2 - 4B^2)) / (2B) appears; at A == 2B the pair merges into
    (1, B).  Water values use w = A / (v^2 + 1), which is algebraically equal
    to the quotient form 2B^2 / (A -+ sqrt(...)) but avoids cancellation.
    """
    if A <= 0 or B <= 0:
        raise ValueError("A and B must be strictly positive")
    states = [KineticEquilibrium(0.0, A)]
    if A == 2.0 * B:
        states.append(KineticEquilibrium(1.0, B))
    elif A > 2.0 * B:
        root = math.sqrt(A * A - 4.0 * B * B)
        for v in ((A - root) / (2.0 * B), (A + root) / (2.0 * B)):
            states.append(KineticEquilibrium(v, A / (v * v + 1.0)))
    return sorted(states, key=lambda s: s.v_star)


def vegetated_equilibrium(A: float, B: float) -> KineticEquilibrium:
    """The upper (largest-biomass) equilibrium; requires A >= 2B."""
    states = constant_steady_states(A, B)
    if len(states) == 1:
        raise ValueError(f"no vegetated equilibrium for A={A} <= 2B={2 * B}")
    return states[-1]


def water_bands(v_rows: np.ndarray, params: ModelParams, grid: Grid1D,
                shift: float = 0.0):
    """Bands of d_w W'' - (v^2 + 1 + shift) W on the rows whose biomass is
    v_rows, the interior nodes for W(+-L) = 0: (off, diag), the constant
    off-diagonal d_w / h^2 and the diagonal.

    shift = 0 gives the stationary water operator; shift = 1/h gives the
    matrix of one implicit Euler step of length h with v frozen.
    """
    h2 = grid.spacing ** 2
    diag = -2.0 * params.d_w / h2 - (v_rows ** 2 + 1.0 + shift)
    return params.d_w / h2, diag


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
    off, diag = water_bands(v[1:-1], params, grid)
    w = np.zeros(grid.n_nodes)
    w[1:-1] = thomas_solve(off, diag, np.full(grid.n_nodes - 2, -params.A))
    check_maximum_principle(w[None, :], params.A)
    return w


def uniform_water_layer(levels: np.ndarray, params: ModelParams,
                        grid: Grid1D) -> np.ndarray:
    """Stationary water of constant biomass levels, on the rows that differ.

    For a level v, solve_water_stationary's rows are d_w / h^2 (W[i-1] -
    2 W[i] + W[i+1]) - c W[i] = -A, c = 1 + v^2, W[0] = W[n] = 0, n = N - 1,
    solved exactly by W[i] = (A / c) expm1(-theta i) expm1(-theta (n - i))
    / (1 + e^(-theta n)) with cosh(theta) = 1 + q / 2, q = c h^2 / d_w.
    The expm1 factors keep full relative accuracy as theta -> 0 (large d_w),
    where 1 - (r^i + r^(n-i)) / (1 + r^n), r = e^(-theta), cancels.  Rows
    i = 1 .. min(n // 2, k), k = ceil(60 ln 2 / theta_min), are returned,
    one column per level: row j stands for nodes j and n - j, and from depth
    k on every exponential is below 2^-60, so the last row is then the
    plateau A / c of every deeper node.  Agrees with solve_water_stationary
    to rounding, not bitwise.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.min() < 0:
        raise ValueError("levels must be non-negative")
    n = grid.n_nodes - 1
    c = levels * levels + 1.0
    q = c * (grid.spacing ** 2 / params.d_w)
    theta = np.log1p(q / 2.0 + np.sqrt(q + q * q / 4.0))
    depth = math.ceil(60.0 * math.log(2.0) / float(theta.min()))
    rows = np.arange(1, min(n // 2, depth) + 1)
    w = np.multiply.outer(rows, -theta)
    np.expm1(w, out=w)
    far = np.multiply.outer(n - rows, -theta)
    w *= np.expm1(far, out=far)
    w *= params.A / c / (1.0 + np.exp(-n * theta))
    return w


def check_maximum_principle(w: np.ndarray, A: float) -> None:
    """Raise WaterBoundViolated for the first row of w outside [0, A]."""
    lo, hi = w.min(axis=1), w.max(axis=1)
    bad = np.flatnonzero(~((lo >= -1e-10) & (hi <= A + 1e-10)))
    if bad.size:
        raise WaterBoundViolated(float(lo[bad[0]]), float(hi[bad[0]]), A)
