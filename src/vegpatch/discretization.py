"""Uniform grids and the discrete transport operators on (-L, L).

The non-local dispersal operator acts as (Kv)_i - v_i where K integrates the
kernel against the biomass field over the habitat only; mass dispersing past
the boundary is lost.  K is held by its band (see below), and its entry
K_ij integrates the kernel against the piecewise linear hat of node j with
per-panel Gauss quadrature.  Row sums then equal the habitat-truncated
kernel mass at the node to near machine precision, so they never exceed one
and the operator's principal eigenvalue stays positive.  The fat-tailed
exponential kernel has a kink at zero offset, which plain trapezoid
sampling J(x_i - x_j) overshoots by O(h^2) with a large constant (about 7%
of the mass at h = 0.68); hat integration is immune because all kinks land
on panel boundaries.  Translation invariance leaves one band of offsets
plus the two boundary columns to integrate, in three vectorized kernel
evaluations; K is applied by FFT and made dense only for dense solvers.
"""
from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BadGrid, ResolutionWarning
from .kernels import Kernel, kernel_eval

DENSE_LIMIT = 4096
_GAUSS_ORDER = 24
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(_GAUSS_ORDER)


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform nodes on [-L, L] with composite-trapezoid quadrature weights."""

    half_width: float
    n_nodes: int
    spacing: float
    nodes: np.ndarray
    quad_weights: np.ndarray


def make_grid(half_width: float, n_nodes: int) -> Grid1D:
    if not (math.isfinite(half_width) and half_width > 0):
        raise BadGrid(
            f"half-width must be finite and positive, got {half_width}")
    if n_nodes < 3:
        raise BadGrid(f"need at least 3 nodes, got {n_nodes}")
    h = 2.0 * half_width / (n_nodes - 1)
    if h * h < sys.float_info.min:
        # the operators divide by h^2, which would underflow
        raise BadGrid(f"grid spacing {h!r} is too fine: its square "
                      "underflows; widen the habitat or use fewer nodes")
    nodes = np.linspace(-half_width, half_width, n_nodes)
    weights = np.full(n_nodes, h)
    weights[0] = weights[-1] = h / 2.0
    return Grid1D(half_width=float(half_width), n_nodes=int(n_nodes),
                  spacing=h, nodes=nodes, quad_weights=weights)


def _panel_nodes(a: float, b: float):
    """Gauss-Legendre nodes on [a, b] and the panel half-length."""
    mid, rad = 0.5 * (b + a), 0.5 * (b - a)
    return mid + rad * _GAUSS_X, rad


def _panel_sums(values: np.ndarray, rad: float) -> np.ndarray:
    """Gauss sums rad * (W . row), one per row, each by its own np.dot.

    One dot per row gives every panel the summation order of a lone panel;
    a single values @ W product sums differently and moves the last bits.
    """
    dots = np.fromiter(map(_GAUSS_W.dot, values), float, len(values))
    return rad * dots


class DispersalOperator:
    """Discrete non-local dispersal on a grid: apply(v) = K v - v.

    K is held as the (band, left, right) of _hat_moments_exact: Toeplitz on
    the interior columns, K_ij = band[hb + i - j].  apply() is one
    zero-padded real FFT convolution with the band, whose transform is taken
    on the first apply; ``matrix``, the dense K, is formed on first access
    and kept.  Every command rejects a grid of more than DENSE_LIMIT nodes
    before assembling one.  Instances are immutable after assembly.
    """

    def __init__(self, grid: Grid1D, kernel: Kernel, band: np.ndarray,
                 left: np.ndarray, right: np.ndarray):
        self.grid = grid
        self.kernel = kernel
        self.band, self.left, self.right = band, left, right

    @property
    def n_nodes(self) -> int:
        return self.grid.n_nodes

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return _densify(self.n_nodes, self.band, self.left, self.right)

    @functools.cached_property
    def _band_spectrum(self):
        # longer than the full convolution (n - 3 + len(band)): no wrap-around
        size = 1 << (self.n_nodes - 3 + len(self.band)).bit_length()
        return size, np.fft.rfft(self.band, size)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Operator action Kv - v on one node vector v of shape (N,)."""
        size, spectrum = self._band_spectrum
        start = len(self.band) // 2 - 1      # (Kv)_i is conv[hb - 1 + i]
        conv = np.fft.irfft(np.fft.rfft(v[1:-1], size) * spectrum, size)
        return (conv[start:start + self.n_nodes] + v[0] * self.left
                + v[-1] * self.right - v)

    def row_sums(self) -> np.ndarray:
        """Row sums of the dense K, as (K 1 - 1) + 1 by a dense product."""
        return (np.ones(self.n_nodes) @ self.matrix.T - 1.0) + 1.0


def _densify(n, band, left_col, right_col) -> np.ndarray:
    """Dense K: mat[i, j] = band[hb + i - j] on interior columns, which is
    row i's contiguous slice of the reversed band."""
    hb = (band.shape[0] - 1) // 2
    rev = band[::-1]
    mat = np.zeros((n, n))
    for i in range(n):
        lo = max(1, i - hb)
        hi = min(n - 1, i + hb + 1)
        mat[i, lo:hi] = rev[hb - i + lo:hb - i + hi]
    mat[:, 0] = left_col
    mat[:, -1] = right_col
    return mat


def _hat_moments_exact(grid: Grid1D, kernel: Kernel):
    """Integrals of J against the hat basis, exploiting translation invariance.

    Returns (band, left_col, right_col) with band[hb + k] = integral of the
    full hat at node j against J centered k = i - j nodes away.  Kernel kinks
    at zero offset always sit on panel boundaries, so per-panel Gauss
    quadrature is accurate to near machine precision.

    The kernel is evaluated three times, once per panel family: the up and
    down half-panels of every band offset within reach of the cutoff share
    one (offsets x 2*24) array, and the left and the right boundary
    half-hats take one (nodes x 24) array each.  Entries beyond the cutoff
    stay exactly zero and are never evaluated.
    """
    h = grid.spacing
    n = grid.n_nodes
    cutoff = kernel.support_cutoff
    hb = min(n - 1, int(np.ceil(cutoff / h)) + 1)
    u_up, rad_up = _panel_nodes(0.0, h)
    u_dn, rad_dn = _panel_nodes(-h, 0.0)
    hat_up = 1.0 - u_up / h
    hat_dn = 1.0 + u_dn / h

    ks = np.arange(-hb, hb + 1)
    live = (np.abs(ks) - 1) * h <= cutoff
    shift = (ks[live] * h)[:, None]
    values = kernel_eval(kernel, shift - np.concatenate([u_up, u_dn]))
    band = np.zeros(ks.shape[0])
    band[live] = (_panel_sums(hat_up * values[:, :_GAUSS_ORDER], rad_up)
                  + _panel_sums(hat_dn * values[:, _GAUSS_ORDER:], rad_dn))

    # Boundary half-hats: node 0 spans [x_0, x_0 + h], node N-1 mirrors it.
    dist = np.arange(n)
    near = (dist - 1) * h <= cutoff
    left = np.zeros(n)
    right = np.zeros(n)
    shift = (dist[near] * h)[:, None]
    left[near] = _panel_sums(hat_up * kernel_eval(kernel, shift - u_up),
                             rad_up)
    # right[i] sits d = n - 1 - i nodes from the right end: reverse both
    right[near[::-1]] = _panel_sums(
        hat_up * kernel_eval(kernel, u_up - shift[::-1]), rad_up)
    return band, left, right


def assemble_nonlocal(grid: Grid1D, kernel: Kernel) -> DispersalOperator:
    """Assemble the dispersal operator for one kernel on one grid."""
    if grid.spacing > 0.5:
        warnings.warn(
            f"grid spacing {grid.spacing:.3f} exceeds 0.5; unit-width kernels "
            "are under-resolved", ResolutionWarning, stacklevel=2)
    return DispersalOperator(grid, kernel, *_hat_moments_exact(grid, kernel))


class LaplacianOperator:
    """Second-order centered Laplacian with homogeneous Dirichlet closure."""

    def __init__(self, grid: Grid1D):
        self.grid = grid

    @property
    def n_nodes(self) -> int:
        return self.grid.n_nodes

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Stencil (1, -2, 1)/h^2 with zero ghost values outside the nodes."""
        h2 = self.grid.spacing ** 2
        out = -2.0 * u
        out[..., :-1] += u[..., 1:]
        out[..., 1:] += u[..., :-1]
        return out / h2

    def dense(self) -> np.ndarray:
        n = self.n_nodes
        h2 = self.grid.spacing ** 2
        mat = (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1)
               + np.diag(np.ones(n - 1), -1)) / h2
        return mat


class Reduction:
    """Node vectors of one parity under the reflection x -> -x.

    Node j mirrors node N - 1 - j.  A vector of parity +1 (even) or -1
    (odd) is held by its values on the half grid x >= 0, less the centre
    node for parity -1, where it vanishes.  An operator that commutes with
    the reflection acts on such vectors as ``fold(M)``: its kept rows, with
    the mirrored nodes' columns added with the parity's sign.  The
    multiplicities ``weights`` are 1 for a centre node and 2 otherwise, so
    sum(weights * a * b) is the full grid's dot product.  Parity 0 is the
    identity: every node kept, with weight 1.
    """

    def __init__(self, n_full: int, parity: int = 0):
        self.n_full, self.parity = n_full, parity
        self.start = (n_full + (parity < 0)) // 2 if parity else 0
        self.size = n_full - self.start
        self.paired = n_full // 2 if parity else 0   # the last kept nodes
        self.weights = np.ones(self.size)
        self.weights[self.size - self.paired:] = 2.0

    def kept(self, full: slice) -> slice:
        """The positions of the kept nodes inside the full-grid range."""
        return slice(max(full.start - self.start, 0), full.stop - self.start)

    def restrict(self, u: np.ndarray) -> np.ndarray:
        """The kept nodes' values, along the last axis."""
        return u[..., self.start:]

    def expand(self, r: np.ndarray) -> np.ndarray:
        """A new full-grid vector of the parity, along the last axis."""
        u = np.zeros(r.shape[:-1] + (self.n_full,))
        u[..., self.start:] = r
        u[..., :self.paired] = self.parity * r[..., ::-1][..., :self.paired]
        return u

    def fold(self, mat: np.ndarray) -> np.ndarray:
        """A new dense matrix: mat acting on the vectors of the parity."""
        out = mat[self.start:, self.start:].copy()
        out[:, self.size - self.paired:] += (
            self.parity * mat[self.start:, :self.paired][:, ::-1])
        return out


@dataclass(frozen=True, eq=False)
class Operators:
    """Transport operators and boundary closure for one model variant.

    The variants differ only in how biomass moves and how the habitat edge
    closes.  Non-local dispersal d_v (K - I) acts on every node, and seeds
    landing outside the habitat are lost; local diffusion (d_v / 2) Lap
    acts on the interior nodes, and v is pinned to 0 at +-L.  ``free_v``
    and ``vegetation_transport`` decide this for every solver.
    """

    grid: Grid1D
    variant: str                      # "nonlocal" | "local"
    dispersal: DispersalOperator | None
    laplacian: LaplacianOperator

    @property
    def free_v(self) -> slice:
        """The biomass nodes that evolve; the others hold v = 0."""
        n = self.grid.n_nodes
        return slice(1, n - 1) if self.variant == "local" else slice(0, n)

    def vegetation_transport(self, d_v: float) -> np.ndarray:
        """A new dense matrix: d_v (K - I), or (d_v / 2) Lap."""
        if self.variant == "local":
            return 0.5 * d_v * self.laplacian.dense()
        return d_v * (self.dispersal.matrix - np.eye(self.grid.n_nodes))

    def reflection(self, parity: int, d_v: float, d_w: float):
        """(reduction, vegetation transport, water operator d_w Lap) on the
        node vectors of the given parity (0: the full grid); the habitat,
        kernels and closures are all symmetric under x -> -x."""
        red = Reduction(self.grid.n_nodes, parity)
        return (red, red.fold(self.vegetation_transport(d_v)),
                red.fold(d_w * self.laplacian.dense()))


def build_operators(grid: Grid1D, variant: str,
                    kernel: Kernel | None = None) -> Operators:
    lap = LaplacianOperator(grid)
    if variant == "local":
        return Operators(grid, "local", None, lap)
    if variant != "nonlocal":
        raise ValueError(f"unknown variant {variant!r}")
    if kernel is None:
        raise ValueError("nonlocal variant needs a kernel")
    disp = assemble_nonlocal(grid, kernel)
    return Operators(grid, "nonlocal", disp, lap)
