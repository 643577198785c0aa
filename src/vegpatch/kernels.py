"""Dispersal kernels: built-in families, moment quadrature, assumption checks.

Two built-in unit-variance densities are provided: an exponential (Laplace)
kernel with fat tails and a quartic-exponential kernel with thin tails.  Both
are normalized to unit mass and unit second moment so that they share the same
leading-order diffusion limit; they differ in their fourth moment (kurtosis),
which is what the patch-size experiments probe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NonIntegrable

SQRT2 = math.sqrt(2.0)

# Quartic-exponential constants from Gamma-function identities (computed, not
# hard-coded, so tests can cross-check them against independent oracles).
_G14 = math.gamma(0.25)
_G34 = math.gamma(0.75)
_SG_AMPLITUDE = 2.0 * _G34**0.5 / _G14**1.5
_SG_SHAPE = (_G34 / _G14) ** 2

# Tail mass beyond these cutoffs is below 1e-18 (laplace) resp. 1e-12
# (quartic), so truncating there costs nothing measurable.
LAPLACE_CUTOFF = 30.0
SUPER_GAUSSIAN_CUTOFF = 4.0
QUAD_DOUBLINGS = 18      # panel doublings before moment quadrature gives up
SCREEN_SAMPLES = 4001    # offsets on [-cutoff, cutoff] the checks sample


@dataclass(frozen=True, eq=False)
class Kernel:
    """Immutable dispersal density J with a finite support cutoff.

    ``density`` maps an array of signed offsets to density values; it must be
    cheap, vectorized, and total.  Values beyond ``support_cutoff`` are
    treated as exactly zero by all quadrature and assembly routines.
    """

    family: str
    density: Callable[[np.ndarray], np.ndarray]
    support_cutoff: float
    tail_label: str = ""

    def __call__(self, z):
        return kernel_eval(self, z)


@dataclass(frozen=True)
class KernelMoments:
    mass: float
    second_moment: float
    fourth_moment: float


def laplace_kernel() -> Kernel:
    """Fat-tailed exponential density with unit mass and unit variance."""

    def density(z):
        return (1.0 / SQRT2) * np.exp(-SQRT2 * np.abs(z))

    return Kernel("laplace", density, LAPLACE_CUTOFF, tail_label="fat")


def super_gaussian_kernel() -> Kernel:
    """Thin-tailed quartic-exponential density with unit mass and variance."""

    def density(z):
        return _SG_AMPLITUDE * np.exp(-_SG_SHAPE * np.abs(z) ** 4)

    return Kernel("super_gaussian", density, SUPER_GAUSSIAN_CUTOFF, tail_label="thin")


def kernel_from_table(path) -> Kernel:
    """Load a custom kernel from a two-column text table (z, J(z)).

    Rows may be whitespace- or comma-separated; values are linearly
    interpolated between tabulated offsets and zero outside their range.
    A missing or unreadable file, a non-numeric or non-finite entry, a
    column count other than two, a single row or a repeated offset raises
    ConfigError.
    """
    try:
        raw = np.loadtxt(path, delimiter=None if _is_whitespace_table(path)
                         else ",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"kernel table {str(path)!r}: {exc}") from exc
    if raw.shape[0] < 2 or raw.shape[1] != 2:
        raise ConfigError(
            f"kernel table {str(path)!r} must have two columns and at least "
            f"two rows, got shape {raw.shape}")
    if not np.isfinite(raw).all():
        raise ConfigError(f"kernel table {str(path)!r} has non-finite values")
    order = np.argsort(raw[:, 0])
    z_tab, j_tab = raw[order, 0], raw[order, 1]
    repeated = np.flatnonzero(np.diff(z_tab) == 0.0)
    if repeated.size:
        raise ConfigError(
            f"kernel table {str(path)!r} repeats offset z = "
            f"{float(z_tab[repeated[0]])!r}; offsets must be distinct")

    def density(z):
        return np.interp(z, z_tab, j_tab, left=0.0, right=0.0)

    cutoff = float(max(abs(z_tab[0]), abs(z_tab[-1])))
    return Kernel("custom", density, cutoff)


def _is_whitespace_table(path) -> bool:
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                return "," not in line
    return True


def kernel_eval(kernel: Kernel, z) -> np.ndarray:
    """Evaluate J(z); exactly zero beyond the support cutoff."""
    z = np.asarray(z, dtype=float)
    out = np.where(np.abs(z) > kernel.support_cutoff, 0.0,
                   kernel.density(z))
    return out if out.ndim else float(out)


def _graded_edges(cutoff: float) -> np.ndarray:
    """Dyadic segment edges of [0, cutoff]: fine near 0, coarse in the tail."""
    edges = [0.0]
    step = min(1.0, cutoff)
    while edges[-1] + step < cutoff:
        edges.append(edges[-1] + step)
        step *= 2.0
    edges.append(cutoff)
    return np.asarray(edges)


def _simpson_segment(f: Callable[[np.ndarray], np.ndarray],
                     a: float, b: float, n: int) -> np.ndarray:
    """Composite Simpson with n panels (n even) of a vector-valued integrand."""
    x = np.linspace(a, b, n + 1)
    y = f(x)
    h = (b - a) / n
    return (h / 3.0) * (y[..., 0] + y[..., -1]
                        + 4.0 * y[..., 1:-1:2].sum(axis=-1)
                        + 2.0 * y[..., 2:-1:2].sum(axis=-1))


def kernel_moments(kernel: Kernel, quad_tol: float) -> KernelMoments:
    """Zeroth, second, and fourth moments of J over its truncated support.

    Integrates (1, z^2, z^4) * J(z) by composite Simpson on a graded segment
    decomposition of each half-axis, doubling the panel count until the
    Richardson error estimate |S_2n - S_n|/15 falls below quad_tol.

    Raises NonIntegrable if the estimate does not converge within
    QUAD_DOUBLINGS doublings.
    """
    if quad_tol <= 0:
        raise ValueError("quad_tol must be positive")

    def integrand(z):
        j = kernel_eval(kernel, z)
        return np.stack([j, z**2 * j, z**4 * j], axis=0)

    c = kernel.support_cutoff
    half_edges = _graded_edges(c)
    segments = [(-b, -a) for a, b in zip(half_edges[:-1], half_edges[1:])]
    segments += list(zip(half_edges[:-1], half_edges[1:]))

    n = 16
    prev = sum(_simpson_segment(integrand, a, b, n) for a, b in segments)
    for _ in range(QUAD_DOUBLINGS):
        n *= 2
        cur = sum(_simpson_segment(integrand, a, b, n) for a, b in segments)
        err = np.max(np.abs(cur - prev)) / 15.0
        if err < quad_tol:
            return KernelMoments(mass=float(cur[0]),
                                 second_moment=float(cur[1]),
                                 fourth_moment=float(cur[2]))
        prev = cur
    raise NonIntegrable(
        f"moment quadrature stalled at estimated error {err:.3e} "
        f"(tol {quad_tol:.1e})")


@dataclass(frozen=True)
class AssumptionReport:
    """Per-assumption pass flags with the measured discrepancies."""

    positivity: bool           # J >= 0 everywhere and J(0) > 0
    symmetry: bool             # J(z) == J(-z) to 1e-12 on sampled offsets
    decay: bool                # |J| at both cutoffs is below 1e-8
    finite_second_moment: bool
    normalization: bool        # integrated mass within [1 - 1e-6, 1 + 1e-9]
    min_value: float
    value_at_zero: float
    max_asymmetry: float
    value_at_cutoff: float     # max(|J(-cutoff)|, |J(cutoff)|)
    mass: float
    second_moment: float
    fourth_moment: float

    def all_pass(self) -> bool:
        return (self.positivity and self.symmetry and self.decay
                and self.finite_second_moment and self.normalization)


def check_assumptions(kernel: Kernel) -> AssumptionReport:
    """Numerically screen a kernel against the admissibility assumptions,
    sampling SCREEN_SAMPLES offsets across its support."""
    c = kernel.support_cutoff
    z = np.linspace(-c, c, SCREEN_SAMPLES)
    j = kernel_eval(kernel, z)
    j0 = float(kernel_eval(kernel, 0.0))
    min_value = float(j.min())
    asym = float(np.max(np.abs(j - kernel_eval(kernel, -z))))
    edge = float(np.abs(kernel_eval(kernel, np.array([-c, c]))).max())

    try:
        moments = kernel_moments(kernel, quad_tol=1e-9)
    except NonIntegrable:
        moments = KernelMoments(math.nan, math.nan, math.nan)
    mass = moments.mass

    return AssumptionReport(
        positivity=(min_value >= 0.0 and j0 > 0.0),
        symmetry=(asym <= 1e-12),
        decay=(edge < 1e-8),
        finite_second_moment=math.isfinite(moments.second_moment),
        normalization=(math.isfinite(mass) and 1.0 - 1e-6 <= mass <= 1.0 + 1e-9),
        min_value=min_value,
        value_at_zero=j0,
        max_asymmetry=asym,
        value_at_cutoff=edge,
        mass=mass,
        second_moment=moments.second_moment,
        fourth_moment=moments.fourth_moment,
    )
