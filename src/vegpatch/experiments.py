"""The two headline experiments: patch-size sweep and bifurcation diagrams.

The sweep integrates all three model variants (non-local with fat and thin
tails, local diffusion) to steady state over a logarithmic ladder of habitat
half-widths and extracts the critical patch size per variant as the largest
half-width whose average stationary biomass stays below a collapse threshold.
The bifurcation suite continues the vegetated stationary branches in the
rainfall rate for slow and fast water diffusion and collects fold locations
plus a gallery of upper-branch profiles.  The desert branches, straight
lines in (state, rainfall) with one Jacobian, are written in closed form
on the continuation's step schedule, with one water solve and one
stability flag each.

Average biomass is reported both as the trapezoid (integral) mean over the
habitat and as the arithmetic node mean; detection and acceptance checks use
the integral mean.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .continuation import (Branch, PalcControls, StationaryResidual,
                           grown_step, palc_continue, require_solution,
                           solve_stationary, stability_flag)
from .discretization import Grid1D, build_operators, make_grid
from .dynamics import BatchCell, initial_state, run_to_steady_batch
from .errors import NewtonDiverged, SingularJacobian
from .kernels import Kernel, laplace_kernel, super_gaussian_kernel
from .kinetics import (ModelParams, solve_water_stationary,
                       vegetated_equilibrium)

VARIANTS = (("nonlocal", "laplace"),
            ("nonlocal", "super_gaussian"),
            ("local", ""))


def builtin_kernel(family: str) -> Kernel:
    if family == "laplace":
        return laplace_kernel()
    if family == "super_gaussian":
        return super_gaussian_kernel()
    raise ValueError(f"unknown kernel family {family!r}")


def cosine_perturbed_start(grid: Grid1D, A: float, B: float,
                           amplitude: float = 0.01):
    """Uniform vegetated state with a small cosine bump vanishing at +-L."""
    eq = vegetated_equilibrium(A, B)
    profile = np.cos(np.pi * grid.nodes / (2.0 * grid.half_width))
    v0 = eq.v_star * (1.0 + amplitude * profile)
    w0 = np.full(grid.n_nodes, eq.w_star)
    return v0, w0


@dataclass(frozen=True)
class SweepConfig:
    L_values: tuple[float, ...]
    A: float = ModelParams.A
    B: float = ModelParams.B
    d_v: float = ModelParams.d_v
    d_w: float = ModelParams.d_w
    n_min: int = 128
    nodes_per_L: float = 8.0
    perturbation: float = 0.01
    threshold: float = 0.1
    variants: tuple = VARIANTS


def log_spaced_L(n_points: int, lo: float = 1.0, hi: float = 100.0):
    return tuple(float(x) for x in np.logspace(math.log10(lo), math.log10(hi),
                                               n_points))


def full_sweep_config() -> SweepConfig:
    """Full 50-point sweep over L in [1, 100]."""
    return SweepConfig(L_values=log_spaced_L(50))


def fast_sweep_config() -> SweepConfig:
    """Reduced 20-point sweep over L in [1, 10], for the quick
    ordering-and-bracketing check."""
    return SweepConfig(L_values=log_spaced_L(20, 1.0, 10.0))


def sweep_resolution(cfg: SweepConfig, L: float) -> int | float:
    """Node count for one sweep cell, the same for every variant.

    At least n_min nodes and nodes_per_L per unit half-width, inf on
    overflow; the implicit stepper puts no stability bound on the spacing.
    """
    span = cfg.nodes_per_L * L
    return max(cfg.n_min, math.ceil(span)) if math.isfinite(span) else math.inf


@dataclass(frozen=True)
class SweepRow:
    variant: str
    kernel: str
    L: float
    N: int
    avg_biomass: float
    avg_biomass_nodes: float
    max_biomass: float
    steps: int
    converged: bool


@dataclass(frozen=True)
class CriticalPatchResult:
    variant: str
    kernel: str
    L_crit: float           # nan when no swept width collapsed
    below_range: bool
    threshold: float
    rule: str


def run_patch_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """Steady-state rows for every (half-width, variant) cell of the sweep.

    All cells go through one run_to_steady_batch call, which receives them
    from a generator: each cell's operators are built only when the cell
    runs, so memory is bounded by the largest cell.  Rows come back sorted
    by (variant, kernel, L) so repeated runs produce identical files.
    """
    keys = [(variant, kernel_family, L,
             make_grid(L, sweep_resolution(cfg, L)))
            for L in cfg.L_values for variant, kernel_family in cfg.variants]

    def cells():
        for variant, kernel_family, L, grid in keys:
            kernel = builtin_kernel(kernel_family) if kernel_family else None
            ops = build_operators(grid, variant, kernel)
            params = ModelParams(cfg.A, cfg.B, cfg.d_v, cfg.d_w)
            v0, w0 = cosine_perturbed_start(grid, cfg.A, cfg.B,
                                            cfg.perturbation)
            yield BatchCell(ops, params, v0, w0)

    results = run_to_steady_batch(cells())
    rows = []
    for (variant, kernel_family, L, grid), res in zip(keys, results):
        v = res.state.v
        rows.append(SweepRow(
            variant=variant, kernel=kernel_family, L=L, N=grid.n_nodes,
            avg_biomass=float(grid.quad_weights @ v) / (2.0 * grid.half_width),
            avg_biomass_nodes=float(v.mean()),
            max_biomass=float(v.max()),
            steps=res.steps, converged=res.converged))
    rows.sort(key=lambda r: (r.variant, r.kernel, r.L))
    return rows


def detect_critical_L(rows: list[SweepRow],
                      threshold: float = 0.1) -> list[CriticalPatchResult]:
    """Largest swept half-width whose converged biomass average collapsed."""
    out = []
    keys = sorted({(r.variant, r.kernel) for r in rows})
    rule = f"largest swept L with integral-mean biomass < {threshold:g}"
    for variant, kernel in keys:
        collapsed = [r.L for r in rows
                     if r.variant == variant and r.kernel == kernel
                     and r.converged and r.avg_biomass < threshold]
        if collapsed:
            out.append(CriticalPatchResult(variant, kernel, max(collapsed),
                                           False, threshold, rule))
        else:
            out.append(CriticalPatchResult(variant, kernel, math.nan,
                                           True, threshold, rule))
    return out


@dataclass(frozen=True)
class BifurcationConfig:
    A_start: float = 3.0
    A_range: tuple[float, float] = (0.1, 3.0)
    B: float = ModelParams.B
    d_v: float = ModelParams.d_v
    d_w_values: tuple[float, ...] = (0.1, 80.0)
    L: float = 25.0
    nodes_per_L: float = 3.0
    perturbation: float = 0.01
    variants: tuple = VARIANTS
    controls: PalcControls = PalcControls()
    stability_stride: int = 25
    gallery_A: tuple[float, ...] = (1.2, 1.5, 2.0)
    gallery_d_w: float = 80.0

    @property
    def n_nodes(self):
        """max(3, floor(nodes_per_L * L)) nodes, the grid of every branch;
        inf on overflow, and 3 for a non-finite L, which make_grid rejects."""
        span = self.nodes_per_L * self.L
        if not math.isfinite(span):
            return math.inf if math.isfinite(self.L) else 3
        return max(3, math.floor(span))


@dataclass
class BranchRun:
    variant: str
    kernel: str
    d_w: float
    seed: str                # "vegetated" | "desert"
    branch: Branch


@dataclass
class GalleryProfile:
    variant: str
    kernel: str
    d_w: float
    A: float
    v: np.ndarray
    w: np.ndarray
    source_id: str


@dataclass
class BifurcationSuite:
    grid: Grid1D | None = None   # shared by every branch of the suite
    runs: list[BranchRun] = field(default_factory=list)
    galleries: list[GalleryProfile] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def _flagged_indices(n_points: int, stride: int) -> list[int]:
    """The points a branch flags: every stride-th and the last one, none
    when stride <= 0."""
    if stride <= 0:
        return []
    return sorted({*range(0, n_points, stride), n_points - 1})


def _flag_selected(sr: StationaryResidual, branch: Branch, stride: int):
    for i in _flagged_indices(len(branch.points), stride):
        pt = branch.points[i]
        pt.stability = stability_flag(sr, pt.A, pt.snapshot)
        branch.eigen_solves += 1
        branch.krylov_dim += pt.stability.krylov_dim


def _desert_branch(cfg: BifurcationConfig, sr: StationaryResidual,
                   label: str) -> Branch:
    """The desert branch v = 0, written in closed form.

    At v = 0 the water solves d_w W'' - W + A = 0, so W(A) = (A / A_start)
    W(A_start): the branch is a straight line through u0 = (0, W(A_start))
    and the origin, with one unit tangent, and the Jacobian, which involves
    neither A nor W there, is the same at every point.  palc_continue from
    u0 would accept each tangent predictor without a corrector iteration;
    the rows follow the steps it takes then (ds0, grown by ``grown_step``
    up to ds_max) and end where it would, on the point cap or on leaving
    A_range, so they match its trace to rounding without a bordered solve.
    One stability flag serves every point ``_flag_selected`` would pick.
    Raises NewtonDiverged, as palc_continue does, when u0 does not meet
    newton_tol.
    """
    t0 = time.perf_counter()
    controls, a_start = cfg.controls, cfg.A_start
    grid = sr.ops.grid
    zero = np.zeros(grid.n_nodes)
    u0 = sr.restrict(np.r_[zero, solve_water_stationary(zero, sr.params,
                                                        grid)])
    require_solution(sr, u0, a_start, controls.newton_tol)
    slope = u0 / a_start
    ta = math.copysign(
        1.0 / math.sqrt(float(slope @ slope) / sr.n_unknowns + 1.0),
        controls.direction)
    a_lo, a_hi = min(cfg.A_range), max(cfg.A_range)
    branch = Branch(label=label, closed_form=True)
    a, s, ds = a_start, 0.0, controls.ds0
    branch.record(sr, u0, a, s, ta)
    while True:
        if len(branch.points) >= controls.point_cap:
            branch.termination = "point_cap"
            break
        a, s = a + ds * ta, s + ds
        branch.record(sr, (a / a_start) * u0, a, s, ta)
        if not a_lo <= a <= a_hi:
            branch.termination = "parameter_exit"
            break
        ds = grown_step(ds, 0, controls)
    branch.wall_s = time.perf_counter() - t0
    chosen = _flagged_indices(len(branch.points), cfg.stability_stride)
    if chosen:
        flag = stability_flag(sr, a_start, u0)
        branch.eigen_solves, branch.krylov_dim = 1, flag.krylov_dim
        for i in chosen:
            branch.points[i].stability = flag
    return branch


def _trace_cell(cfg: BifurcationConfig, variant: str, kernel_family: str,
                d_w: float, suite: BifurcationSuite, progress) -> None:
    """Vegetated branch from the cosine-perturbed uniform state, continued
    by palc_continue and flagged at every stability_stride-th point, then
    the desert branch in closed form (``_desert_branch``).  Both are even
    under x -> -x, so everything runs on the even half grid; the snapshots
    are then expanded to the full grid for output."""
    grid = suite.grid
    kernel = builtin_kernel(kernel_family) if kernel_family else None
    ops = build_operators(grid, variant, kernel)
    params = ModelParams(cfg.A_start, cfg.B, cfg.d_v, d_w)
    sr = StationaryResidual(ops, params, parity=1)
    tag = f"{variant}-{kernel_family or 'none'}-dw{d_w:g}"
    for seed, suffix in (("vegetated", "veg"), ("desert", "desert")):
        label = f"{tag}-{suffix}"
        try:
            if seed == "desert":
                branch = _desert_branch(cfg, sr, label)
            else:
                v0, w0 = cosine_perturbed_start(grid, cfg.A_start, cfg.B,
                                                cfg.perturbation)
                start = initial_state(ops, v0, w0)
                u0, _ = solve_stationary(sr, cfg.A_start,
                                         sr.restrict(np.r_[start.v, start.w]),
                                         tol=cfg.controls.newton_tol)
                branch = palc_continue(sr, cfg.A_start, cfg.A_range, u0,
                                       cfg.controls, label=label)
                _flag_selected(sr, branch, cfg.stability_stride)
                if d_w == cfg.gallery_d_w:
                    _collect_gallery(cfg, sr, branch, variant, kernel_family,
                                     d_w, suite)
            for pt in branch.points:
                pt.snapshot = sr.expand(pt.snapshot)
            suite.runs.append(BranchRun(variant, kernel_family, d_w, seed,
                                        branch))
            progress(branch)
        except (NewtonDiverged, SingularJacobian) as exc:
            suite.errors.append(f"{tag} {seed}: {exc}")


def _collect_gallery(cfg, sr, branch, variant, kernel_family, d_w, suite):
    """Polished upper-branch profiles at the requested rainfall values.

    Each crossing of A = a_req between consecutive branch points offers its
    nearer point as a Newton seed, one continuation step from the solution;
    the seed with the most biomass is polished.
    """
    tag = f"{variant}-{kernel_family or 'none'}-dw{d_w:g}"
    points = branch.points
    for a_req in cfg.gallery_A:
        crossings = [min(p, q, key=lambda pt: abs(pt.A - a_req))
                     for p, q in zip(points, points[1:])
                     if (p.A - a_req) * (q.A - a_req) <= 0.0]
        candidates = [pt for pt in crossings if pt.max_v > 0.1]
        if not candidates:
            suite.errors.append(
                f"{tag}: no branch point near A={a_req:g} for the gallery")
            continue
        seed = max(candidates, key=lambda pt: pt.max_v)
        try:
            u, _ = solve_stationary(sr, a_req, seed.snapshot,
                                    tol=cfg.controls.newton_tol)
        except (NewtonDiverged, SingularJacobian) as exc:
            suite.errors.append(
                f"{tag}: gallery profile at A={a_req:g} from "
                f"{seed.snapshot_id} did not converge: {exc}")
            continue
        v, w = np.split(sr.expand(u), 2)
        suite.galleries.append(GalleryProfile(
            variant, kernel_family, d_w, a_req, v, w,
            source_id=seed.snapshot_id))


def run_bifurcation_suite(cfg: BifurcationConfig,
                          progress=None) -> BifurcationSuite:
    """Trace all branches for every (variant, kernel, d_w) cell.

    Every branch lives on one grid of cfg.n_nodes nodes, which the suite
    carries.  ``progress(branch)``, when given, is called as each branch is
    finished.
    """
    suite = BifurcationSuite(make_grid(cfg.L, cfg.n_nodes))
    for d_w in cfg.d_w_values:
        for variant, kernel_family in cfg.variants:
            _trace_cell(cfg, variant, kernel_family, d_w, suite,
                        progress or (lambda branch: None))
    return suite
