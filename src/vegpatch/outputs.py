"""CSV artifacts, manifests, and gnuplot scripts for experiment runs.

Floats are written with repr (shortest round-trip, up to 17 significant
digits) so regression diffs are exact; all rows are emitted in sorted order
so reruns with the same configuration produce bitwise-identical files.
"""
from __future__ import annotations

import json
import math
import platform
import time
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import (BifurcationSuite, CriticalPatchResult, SweepRow)


def _fmt(x) -> str:
    if type(x) is float:          # most cells: one test, then repr
        return repr(x)
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if x is None:
        return ""
    return str(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    _write_csv(Path(path),
               ["variant", "kernel", "L", "N", "avg_biomass",
                "avg_biomass_nodes", "max_biomass", "steps", "converged"],
               [(r.variant, r.kernel, r.L, r.N, r.avg_biomass,
                 r.avg_biomass_nodes, r.max_biomass, r.steps, r.converged)
                for r in rows])


def write_lcrit_csv(path, results: list[CriticalPatchResult]) -> None:
    _write_csv(Path(path),
               ["variant", "kernel", "L_crit", "below_range", "threshold",
                "rule"],
               [(c.variant, c.kernel, c.L_crit, c.below_range, c.threshold,
                 c.rule) for c in results])


def write_branch_csv(path, suite: BifurcationSuite) -> None:
    rows = []
    for run in suite.runs:
        branch_id = f"dw{run.d_w:g}-{run.seed}"
        for pt in run.branch.points:
            rows.append((run.variant, run.kernel, branch_id, pt.index,
                         pt.s, pt.A, pt.max_v, pt.avg_v, pt.avg_v_nodes,
                         pt.stability.stable if pt.stability else None))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    _write_csv(Path(path),
               ["model", "kernel", "branch_id", "point_index", "arclength",
                "A", "max_v", "avg_v", "avg_v_nodes", "stable"], rows)


def write_branch_diagnostics_csv(path, suite: BifurcationSuite) -> None:
    """One row per flagged branch point: the real part of the rightmost
    eigenvalue, the Krylov dimension that certified it, and the rightmost
    real parts of the even and the odd block (empty where a block was
    not solved)."""
    rows = [(run.branch.label, pt.index, pt.A, pt.stability.rightmost,
             pt.stability.krylov_dim, *(pt.stability.parts + (None,) * 2)[:2])
            for run in suite.runs for pt in run.branch.points
            if pt.stability is not None]
    rows.sort(key=lambda r: (r[0], r[1]))
    _write_csv(Path(path),
               ["branch", "point_index", "A", "rightmost_real", "krylov_dim",
                "rightmost_even", "rightmost_odd"], rows)


def write_folds_csv(path, suite: BifurcationSuite) -> None:
    rows = []
    for run in suite.runs:
        branch_id = f"dw{run.d_w:g}-{run.seed}"
        for fold in run.branch.folds:
            rows.append((run.variant, run.kernel, branch_id, fold.s, fold.A))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    _write_csv(Path(path),
               ["model", "kernel", "branch_id", "arclength", "A"], rows)


def write_profile_csv(path, x: np.ndarray, v: np.ndarray,
                      w: np.ndarray) -> None:
    _write_csv(Path(path), ["x", "v", "w"],
               zip(x.tolist(), v.tolist(), w.tolist()))


def write_gallery_profiles(directory,
                           suite: BifurcationSuite) -> dict[str, str]:
    """One profile CSV per gallery entry; returns each written name with
    the snapshot id of the branch point it was polished from."""
    directory = Path(directory)
    written = {}
    for g in sorted(suite.galleries,
                    key=lambda g: (g.variant, g.kernel, g.d_w, g.A)):
        name = (f"gallery-{g.variant}-{g.kernel or 'none'}-dw{g.d_w:g}"
                f"-A{g.A:g}.csv")
        write_profile_csv(directory / name, suite.grid.nodes, g.v, g.w)
        written[name] = g.source_id
    return written


def write_branch_snapshots(directory, suite: BifurcationSuite,
                           stride: int = 0) -> list[str]:
    """Profile CSVs for selected branch points (folds and every stride-th)."""
    directory = Path(directory)
    grid = suite.grid
    n = grid.n_nodes
    written = []
    for run in suite.runs:
        chosen = {0, len(run.branch.points) - 1}
        if stride > 0:
            chosen.update(range(0, len(run.branch.points), stride))
        for fold in run.branch.folds:
            chosen.add(fold.after_index)
        for i in sorted(chosen):
            pt = run.branch.points[i]
            name = f"{pt.snapshot_id}.csv"
            write_profile_csv(directory / name, grid.nodes,
                              pt.snapshot[:n], pt.snapshot[n:])
            written.append(name)
    return written


def write_manifest(path, payload: dict) -> None:
    """The payload as strict JSON, non-finite numbers written as null."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    base = {
        "package": "vegpatch",
        "version": __version__,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    base.update(payload)
    with open(path, "w") as fh:
        json.dump(_finite_or_null(base), fh, indent=2, sort_keys=True,
                  default=_json_default, allow_nan=False)
        fh.write("\n")


def _finite_or_null(obj):
    """obj with every non-finite float, numpy's included, replaced by None."""
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return _finite_or_null(obj.tolist())
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    return obj


def _json_default(obj):
    """numpy integers as ints, anything else json cannot write as its str;
    _finite_or_null has already turned floats and arrays into lists."""
    return obj.item() if isinstance(obj, np.integer) else str(obj)


FIG1_SCRIPT = """\
# Regenerates the patch-sweep figure from sweep.csv / lcrit.csv.
set datafile separator ','
set logscale x
set xlabel 'habitat half-width L'
set ylabel 'average stationary biomass'
set key left top
plot \\
  'sweep_nonlocal_laplace.dat' using 1:2 with linespoints title 'non-local, fat tails', \\
  'sweep_nonlocal_super_gaussian.dat' using 1:2 with linespoints title 'non-local, thin tails', \\
  'sweep_local.dat' using 1:2 with linespoints title 'local'
"""

BRANCH_SCRIPT = """\
# Regenerates a bifurcation diagram from branch.csv exports (d_w = {dw}).
set datafile separator ','
set xlabel 'rainfall A'
set ylabel 'biomass'
set key left top
set arrow from {two_b}, graph 0 to {two_b}, graph 1 nohead dashtype 3 lc rgb 'purple'
plot \\
  'branch_nonlocal_laplace_dw{dw}.dat' using 1:2 with lines title 'max, fat tails', \\
  'branch_nonlocal_laplace_dw{dw}.dat' using 1:3 with lines title 'avg, fat tails', \\
  'branch_nonlocal_super_gaussian_dw{dw}.dat' using 1:2 with lines title 'max, thin tails', \\
  'branch_nonlocal_super_gaussian_dw{dw}.dat' using 1:3 with lines title 'avg, thin tails', \\
  'branch_local__dw{dw}.dat' using 1:2 with lines dashtype 2 title 'max, local', \\
  'branch_local__dw{dw}.dat' using 1:3 with lines dashtype 2 title 'avg, local', \\
  {b}/x with lines lc rgb 'red' title 'B/A'
"""


def write_plot_scripts(directory, rows: list[SweepRow] | None = None,
                       suite: BifurcationSuite | None = None,
                       B: float | None = None) -> None:
    """Gnuplot scripts plus the per-curve data files they reference.

    Branch diagrams need the run's mortality B for their B/A floor curve
    and the 2B kinetic rainfall threshold.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if rows is not None:
        for variant, kernel in sorted({(r.variant, r.kernel) for r in rows}):
            sel = [r for r in rows if (r.variant, r.kernel) == (variant, kernel)]
            name = f"sweep_{variant}_{kernel}.dat" if kernel else \
                f"sweep_{variant}.dat"
            _write_csv(directory / name, ["L", "avg_biomass", "max_biomass"],
                       [(r.L, r.avg_biomass, r.max_biomass) for r in sel])
        (directory / "fig_patch_sweep.gp").write_text(FIG1_SCRIPT)
    if suite is not None:
        if B is None:
            raise ValueError("branch plot scripts need the mortality B")
        b = float(B)
        d_ws = sorted({run.d_w for run in suite.runs})
        for d_w in d_ws:
            for run in suite.runs:
                if run.d_w != d_w or run.seed != "vegetated":
                    continue
                name = f"branch_{run.variant}_{run.kernel}_dw{d_w:g}.dat"
                _write_csv(directory / name, ["A", "max_v", "avg_v"],
                           [(pt.A, pt.max_v, pt.avg_v)
                            for pt in run.branch.points])
            script = BRANCH_SCRIPT.format(dw=f"{d_w:g}", b=repr(b),
                                          two_b=repr(2.0 * b))
            (directory / f"fig_branches_dw{d_w:g}.gp").write_text(script)
