"""Command-line front end: experiments, diagnostics, and output management.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 regression-check failure (only with --check).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from .config import Resolver, make_resolver, resolve_output_dir
from .discretization import DENSE_LIMIT, build_operators, make_grid
from .dynamics import (BLOWUP_LIMIT, RK4_STEP, STEADY_TOL, State,
                       horizon_rule, initial_state, run_to_steady,
                       simulate_horizon, stable_step, steady_state_rule)
from .errors import ConfigError, EigenNotConverged, VegpatchError
from .experiments import (BifurcationConfig, SweepConfig, builtin_kernel,
                          cosine_perturbed_start, detect_critical_L,
                          fast_sweep_config, full_sweep_config, log_spaced_L,
                          run_bifurcation_suite, run_patch_sweep,
                          sweep_resolution)
from .kernels import check_assumptions, kernel_from_table
from .kinetics import (ModelParams, constant_steady_states,
                       solve_water_stationary)
from .outputs import (write_branch_csv, write_branch_diagnostics_csv,
                      write_branch_snapshots, write_folds_csv,
                      write_gallery_profiles,
                      write_lcrit_csv, write_manifest, write_plot_scripts,
                      write_profile_csv, write_sweep_csv)
from .spectral import (estimate_lipschitz_M, extinction_criterion,
                       principal_eigenvalue_laplacian,
                       principal_eigenvalue_nonlocal)

# Regression targets for --check: critical patch sizes of the standard sweep
# configuration, with a +-20% band covering the log-grid spacing and the
# resolution policy.
LCRIT_REFERENCE = {("nonlocal", "laplace"): 1.46,
                   ("nonlocal", "super_gaussian"): 1.76,
                   ("local", ""): 2.33}
LCRIT_BAND = 0.20
FOLD_BAND = (0.85, 1.00)
CHECK_D_W = BifurcationConfig.d_w_values  # fold band, sub-threshold patterns
BIOMASS_FLOOR_CUT = 0.01
KERNEL_FAMILIES = ("laplace", "super_gaussian")
MODEL_VARIANTS = ("nonlocal", "local")
SWEEP_PRESETS = ("full", "fast")
SIMULATE_STEP_CAP = 10_000_000   # t_final / h_t; 6 min of RK4 at 75 nodes


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except ConfigError as exc:
        _error_summary("config", exc)
        return 2
    except VegpatchError as exc:
        _error_summary("numerical", exc)
        return 3


def _error_summary(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "type": type(exc).__name__,
                      "message": str(exc)}), file=sys.stderr)


def _positive(name: str, value: float) -> float:
    """value itself if it is finite and positive; otherwise a ConfigError."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be finite and positive, got {value!r}")
    return value


def _non_negative(name: str, value):
    """value itself if it is finite and not negative; otherwise a ConfigError."""
    if not (math.isfinite(value) and value >= 0):
        raise ConfigError(
            f"{name} must be finite and non-negative, got {value!r}")
    return value


def _require_vegetated(what: str, A: float, B: float) -> None:
    """ConfigError unless the vegetated equilibrium exists (A >= 2B)."""
    if not A >= 2.0 * B:
        raise ConfigError(
            f"{what} perturbs the vegetated equilibrium, which needs "
            f"A >= 2B; got A = {A!r}, B = {B!r}")


def _choice(name: str, value: str, choices) -> str:
    """value itself if it is one of choices; otherwise a ConfigError."""
    if value not in choices:
        raise ConfigError(
            f"{name} must be one of {', '.join(choices)}, got {value!r}")
    return value


def _within_dense_limit(n, setting: str, remedy: str):
    """n itself if it is at most DENSE_LIMIT nodes; otherwise a ConfigError."""
    if n > DENSE_LIMIT:
        raise ConfigError(
            f"{setting} needs {n} nodes; the dense operators allow at most "
            f"{DENSE_LIMIT}, so {remedy}")
    return n


def _model(args, res: Resolver, **fixed) -> ModelParams:
    """ModelParams from the [model] keys and the flags that override them;
    a parameter given in fixed takes that value, and its key is not read."""
    return ModelParams(**{name: fixed[name] if name in fixed else res.get(
        "model", name, float, getattr(ModelParams, name),
        getattr(args, name.replace("_", ""), None))    # --dv sets d_v
        for name in ("A", "B", "d_v", "d_w")})


def _checked_grid(L, n, params: ModelParams, setting: str, remedy: str):
    """make_grid(L, n) once n is within DENSE_LIMIT and the larger of
    d_v / h^2 and d_w / h^2 cannot overflow ||F||_2; else a ConfigError."""
    grid = make_grid(L, _within_dense_limit(n, setting, remedy))
    d, name = max((params.d_v, "d_v"), (params.d_w, "d_w"))
    # the transport terms of a state inside the blowup guard, in l2
    coeff = 4.0 * BLOWUP_LIMIT * d / grid.spacing ** 2
    if not math.isfinite(n * coeff * coeff):
        raise ConfigError(f"{name} / h^2 would overflow ||F||_2 at {name} = "
                          f"{d!r} and grid spacing h = {grid.spacing!r}")
    return grid


def _run_config_payload(res: Resolver, experiment: str, outdir) -> dict:
    return {"experiment": experiment, "output_dir": str(outdir),
            "resolved": res.resolved}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vegpatch",
        description="Non-local vegetation-water dynamics on finite habitats")
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="INI config file; flags override it")
        p.add_argument("--out", help="output directory (under $VEGPATCH_OUT)")

    pk = sub.add_parser("kernels", help="kernel admissibility checks")
    pk.add_argument("action", choices=["check"])
    pk.add_argument("--family", choices=KERNEL_FAMILIES,
                    help="built-in kernel family")
    pk.add_argument("--table", help="two-column text table (z, J(z)) for a "
                    "custom kernel, linearly interpolated")
    pk.set_defaults(handler=cmd_kernels)

    ps = sub.add_parser("spectral", help="principal eigenvalues vs habitat size")
    common(ps)
    ps.add_argument("--L", type=float, action="append", required=True,
                    help="habitat half-width (repeatable)")
    ps.add_argument("--kernel", default="laplace",
                    choices=KERNEL_FAMILIES)
    ps.add_argument("--spacing", type=float, default=0.05,
                    help="grid spacing used for every width")
    ps.add_argument("--dv", type=float, default=None)
    ps.add_argument("--M", type=float, default=None,
                    help="Lipschitz constant; sampled estimate when omitted")
    ps.set_defaults(handler=cmd_spectral)

    for name, help_text in (("simulate", "integrate to a fixed horizon"),
                            ("steady", "integrate to the steady-state criterion")):
        p = sub.add_parser(name, help=help_text)
        common(p)
        _add_model_flags(p)
        p.add_argument("--init", default="cosine",
                       help="initial data: cosine | desert | uniform:LEVEL")
        p.add_argument("--dump-every", type=int, default=None,
                       help="trajectory sample cadence in steps")
        if name == "simulate":
            p.add_argument("--ht", type=float, default=None,
                           help="RK4 time step; default 0.01, or the "
                           "largest stable step if that is smaller")
            p.add_argument("--t-final", type=float, default=None)
        else:
            p.add_argument("--tol", type=float, default=None,
                           help="stop when ||F(v, w)||_2 < tol")
        p.set_defaults(handler=cmd_simulate if name == "simulate" else cmd_steady)

    pw = sub.add_parser("sweep", help="critical patch size sweep")
    common(pw)
    pw.add_argument("--workers", type=int, default=None,
                    help="accepted for compatibility; runs are "
                    "single-process")
    pw.add_argument("--preset", choices=SWEEP_PRESETS, default=None,
                    help="full: 50 points on [1,100]; fast: 20 on [1,10]")
    pw.add_argument("--points", type=int, default=None)
    pw.add_argument("--L-min", type=float, default=None)
    pw.add_argument("--L-max", type=float, default=None)
    pw.add_argument("--threshold", type=float, default=None)
    pw.add_argument("--no-plots", action="store_true")
    pw.add_argument("--check", action="store_true",
                    help="verify ordering and brackets; exit 4 on failure")
    pw.set_defaults(handler=cmd_sweep)

    pb = sub.add_parser("bifurcate", help="rainfall bifurcation diagrams")
    common(pb)
    pb.add_argument("--dw", type=float, action="append", default=None,
                    help="water diffusion rate (repeatable; default 0.1 and 80)")
    pb.add_argument("--L", type=float, default=None)
    pb.add_argument("--snapshot-stride", type=int, default=None,
                    help="also dump every k-th branch point profile")
    pb.add_argument("--no-plots", action="store_true")
    pb.add_argument("--check", action="store_true",
                    help="verify floor, folds, and sub-threshold patterns")
    pb.set_defaults(handler=cmd_bifurcate)
    return parser


def _add_model_flags(p) -> None:
    p.add_argument("--A", type=float, default=None)
    p.add_argument("--B", type=float, default=None)
    p.add_argument("--dv", type=float, default=None)
    p.add_argument("--dw", type=float, default=None)
    p.add_argument("--variant", choices=MODEL_VARIANTS, default=None)
    p.add_argument("--kernel", choices=KERNEL_FAMILIES,
                   default=None)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--nodes", type=int, default=None)


def cmd_kernels(args) -> int:
    if args.table:
        kernel = kernel_from_table(args.table)
        label = f"custom table {args.table}"
    elif args.family:
        kernel = builtin_kernel(args.family)
        label = args.family
    else:
        raise ConfigError("kernels check needs --family or --table")
    report = check_assumptions(kernel)
    rows = [
        ("positivity", report.positivity,
         f"min J = {report.min_value:.3e}, J(0) = {report.value_at_zero:.6g}"),
        ("symmetry", report.symmetry,
         f"max |J(z)-J(-z)| = {report.max_asymmetry:.3e}"),
        ("decay", report.decay,
         f"J(cutoff) = {report.value_at_cutoff:.3e}"),
        ("finite second moment", report.finite_second_moment,
         f"m2 = {report.second_moment:.9g}"),
        ("normalization", report.normalization,
         f"mass = {report.mass:.9g}"),
    ]
    print(f"kernel: {label} (cutoff {kernel.support_cutoff:g}, "
          f"tail: {kernel.tail_label or 'n/a'})")
    for name, ok, measure in rows:
        print(f"  {name:22s} {'pass' if ok else 'FAIL':4s}  {measure}")
    return 0 if report.all_pass() else 3


def cmd_spectral(args) -> int:
    res = make_resolver(args.config)
    params = _model(args, res)
    A, B, d_v = params.A, params.B, params.d_v
    res.reject_unread("spectral")
    if args.M is not None:
        _non_negative("--M", args.M)
    kernel = builtin_kernel(args.kernel)
    spacing = _positive("--spacing", args.spacing)
    nodes = []
    for L in args.L:
        intervals = 2.0 * _positive("--L", L) / spacing
        n = max(3, int(round(intervals)) + 1) if math.isfinite(intervals) \
            else math.inf
        nodes.append(_within_dense_limit(
            n, f"--L {L!r} at --spacing {spacing!r}",
            "raise --spacing or lower --L"))
    lines = ["L,beta1,lambda1,extinction_guaranteed"]
    widths = []
    for L, n in zip(args.L, nodes):
        t0 = time.perf_counter()
        grid = make_grid(L, n)
        ops = build_operators(grid, "nonlocal", kernel)
        t1 = time.perf_counter()
        beta = principal_eigenvalue_nonlocal(ops.dispersal)
        t2 = time.perf_counter()
        lam = principal_eigenvalue_laplacian(ops.laplacian)
        for name, eig in (("beta1", beta), ("lambda1", lam)):
            if not eig.converged:
                raise EigenNotConverged(
                    f"{name} at --L {L!r} ({n} nodes) did not converge: "
                    f"residual {eig.residual:.3e} after {eig.iterations} "
                    "iterations")
        t3 = time.perf_counter()
        if args.M is not None:
            m_const = args.M
        else:
            v3 = max(s.v_star for s in constant_steady_states(A, B))
            m_const = estimate_lipschitz_M(params, grid,
                                           v_range=max(1.0, v3)).value
        t4 = time.perf_counter()
        guaranteed, _margin = extinction_criterion(beta.value, d_v, m_const)
        lines.append(f"{L!r},{beta.value!r},{lam.value!r},"
                     f"{'true' if guaranteed else 'false'}")
        widths.append({"L": L, "nodes": n, "M": m_const,
                       "krylov_dim": beta.iterations,
                       "beta1_residual": beta.residual,
                       "lambda1_residual": lam.residual,
                       "assemble_s": t1 - t0, "beta1_s": t2 - t1,
                       "lipschitz_s": t4 - t3})
    print(f"# d_v = {d_v!r}; M from sampled lower-bound estimator unless "
          "--M given")
    print("\n".join(lines))
    if args.out is not None:
        outdir = resolve_output_dir(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "spectral.csv").write_text("\n".join(lines) + "\n")
        write_manifest(outdir / "manifest.json", {
            **_run_config_payload(res, "spectral", outdir),
            "L": args.L, "kernel": args.kernel, "spacing": args.spacing,
            "widths": widths})
    return 0


def _resolve_model(args, res: Resolver):
    params = _model(args, res)
    variant = _choice("variant", res.get("model", "variant", str,
                                         MODEL_VARIANTS[0], args.variant),
                      MODEL_VARIANTS)
    kernel_family = _choice("kernel", res.get("model", "kernel", str,
                                              KERNEL_FAMILIES[0], args.kernel),
                            KERNEL_FAMILIES)
    L = res.get("grid", "L", float, BifurcationConfig.L, args.L)
    n = res.get("grid", "N", int, BifurcationConfig(L=L).n_nodes, args.nodes)
    grid = _checked_grid(L, n, params, f"the grid L = {L!r}", "lower L or N")
    kernel = builtin_kernel(kernel_family) if variant == "nonlocal" else None
    ops = build_operators(grid, variant, kernel)
    return params, grid, ops


def _initial_from_flag(spec: str, params, grid, ops) -> State:
    if spec == "cosine":
        _require_vegetated("--init cosine", params.A, params.B)
        v0, w0 = cosine_perturbed_start(grid, params.A, params.B)
        return initial_state(ops, v0, w0)
    w_desert = solve_water_stationary(np.zeros(grid.n_nodes), params, grid)
    if spec == "desert":
        return initial_state(ops, np.zeros(grid.n_nodes), w_desert)
    if spec.startswith("uniform:"):
        try:
            level = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(
                f"--init {spec!r}: LEVEL must be a number") from exc
        _non_negative(f"--init {spec!r}: LEVEL", level)
        return initial_state(ops, np.full(grid.n_nodes, level), w_desert)
    raise ConfigError(f"unknown --init {spec!r}")


def cmd_simulate(args) -> int:
    res = make_resolver(args.config)
    params, grid, ops = _resolve_model(args, res)
    stable = stable_step(ops, params)
    h_t = _positive("h_t", res.get("integration", "h_t", float,
                                   min(RK4_STEP, stable), args.ht))
    t_final = _positive("t_final", res.get("integration", "t_final", float,
                                           10.0, args.t_final))
    every = _non_negative("trajectory_every", res.get(
        "integration", "trajectory_every", int, 1, args.dump_every))
    res.reject_unread("simulate")
    if not t_final / h_t <= SIMULATE_STEP_CAP:
        raise ConfigError(
            f"t_final / h_t = {t_final / h_t:.3g} steps exceeds the cap of "
            f"{SIMULATE_STEP_CAP:,}; raise h_t or lower t_final")
    state0 = _initial_from_flag(args.init, params, grid, ops)
    t0 = time.time()
    state, track = simulate_horizon(state0, ops, params, h_t, t_final,
                                    trajectory_every=every)
    outdir = resolve_output_dir(args.out, "simulate-out")
    outdir.mkdir(parents=True, exist_ok=True)
    write_profile_csv(outdir / "final_profile.csv", grid.nodes, state.v,
                      state.w)
    if track.size:
        _write_trajectory(outdir / "trajectory.csv", track)
    write_manifest(outdir / "manifest.json", {
        **_run_config_payload(res, "simulate", outdir), "init": args.init,
        "wall_time_s": time.time() - t0, "steps": state.step_count,
        "integrator": horizon_rule(h_t, h_t == stable < RK4_STEP,
                                   state.step_count)})
    print(f"simulated to t={state.t:g} ({state.step_count} steps); "
          f"outputs in {outdir}")
    return 0


def _write_trajectory(path, track) -> None:
    with open(path, "w") as fh:
        fh.write("t,min_v,max_v,avg_v,max_w\n")
        for row in track:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def cmd_steady(args) -> int:
    res = make_resolver(args.config)
    params, grid, ops = _resolve_model(args, res)
    tol = _positive("tol", res.get("integration", "tol", float, STEADY_TOL,
                                   args.tol))
    every = _non_negative("trajectory_every", res.get(
        "integration", "trajectory_every", int, 0, args.dump_every))
    res.reject_unread("steady")
    state0 = _initial_from_flag(args.init, params, grid, ops)
    t0 = time.time()
    result = run_to_steady(state0, ops, params, tol, trajectory_every=every)
    if result.blowup is not None:
        raise result.blowup
    outdir = resolve_output_dir(args.out, "steady-out")
    outdir.mkdir(parents=True, exist_ok=True)
    write_profile_csv(outdir / "final_profile.csv", grid.nodes,
                      result.state.v, result.state.w)
    if result.trajectory is not None and result.trajectory.size:
        _write_trajectory(outdir / "trajectory.csv", result.trajectory)
    write_manifest(outdir / "manifest.json", {
        **_run_config_payload(res, "steady", outdir), "init": args.init,
        "wall_time_s": time.time() - t0,
        "steady_state": steady_state_rule(tol),
        "converged": result.converged, "steps": result.steps,
        "residual": result.residual,
        "region_violations": result.region_violations})
    print(f"steady: converged={result.converged} steps={result.steps} "
          f"residual={result.residual:.3e}; outputs in {outdir}")
    if not result.converged:
        _error_summary("numerical", VegpatchError(
            f"steady state not reached: ||F(v, w)||_2 = "
            f"{result.residual:.3e} after {result.steps} steps, tol {tol!r}"))
        return 3
    return 0


def _sweep_config_from(args, res: Resolver) -> SweepConfig:
    preset = _choice("preset", res.get("sweep", "preset", str,
                                       SWEEP_PRESETS[0], args.preset),
                     SWEEP_PRESETS)
    cfg = fast_sweep_config() if preset == "fast" else full_sweep_config()
    points = res.get("sweep", "points", int, len(cfg.L_values), args.points)
    if points < 1:
        raise ConfigError(f"sweep points must be at least 1, got {points}")
    lo = _positive("L_min", res.get("sweep", "L_min", float,
                                    cfg.L_values[0], args.L_min))
    hi = _positive("L_max", res.get("sweep", "L_max", float,
                                    cfg.L_values[-1], args.L_max))
    threshold = _positive("threshold", res.get(
        "sweep", "threshold", float, cfg.threshold, args.threshold))
    params = _model(args, res)
    _require_vegetated("the sweep's start", params.A, params.B)
    cfg = replace(cfg, L_values=log_spaced_L(points, lo, hi),
                  threshold=threshold, **asdict(params))
    for L in cfg.L_values:
        _checked_grid(L, sweep_resolution(cfg, L), params,
                      f"the sweep cell L = {L!r}", "lower L_max")
    return cfg


def cmd_sweep(args) -> int:
    res = make_resolver(args.config)
    cfg = _sweep_config_from(args, res)
    res.reject_unread("sweep")
    t0 = time.time()
    rows = run_patch_sweep(cfg)
    crit = detect_critical_L(rows, cfg.threshold)
    outdir = resolve_output_dir(args.out, "sweep-out")
    outdir.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(outdir / "sweep.csv", rows)
    write_lcrit_csv(outdir / "lcrit.csv", crit)
    if not args.no_plots:
        write_plot_scripts(outdir / "plots", rows=rows)
    write_manifest(outdir / "manifest.json", {
        **_run_config_payload(res, "sweep", outdir),
        "config": {f: getattr(cfg, f) for f in cfg.__dataclass_fields__},
        "steady_state": {
            **steady_state_rule(STEADY_TOL),
            "total_steps": sum(r.steps for r in rows),
            "unconverged": sum(not r.converged for r in rows)},
        "grid_policy": {
            "rule": "N = max(n_min, ceil(nodes_per_L * L))",
            "per_cell": {f"{v}-{k}-L{L:g}": sweep_resolution(cfg, L)
                         for L in cfg.L_values for v, k in cfg.variants}},
        "biomass_mean": "integral (trapezoid) mean used for detection",
        "rng": "deterministic (no random seeds used)",
        "wall_time_s": time.time() - t0,
        "L_crit": {f"{c.variant}-{c.kernel}": c.L_crit for c in crit}})
    for c in crit:
        print(f"L_crit[{c.variant}{'-' + c.kernel if c.kernel else ''}] = "
              f"{c.L_crit:.4f}" + ("  (below swept range)" if c.below_range
                                   else ""))
    print(f"sweep outputs in {outdir} ({time.time() - t0:.1f} s)")
    if args.check:
        failures = _check_sweep(crit)
        for f in failures:
            print("CHECK FAIL:", f)
        if failures:
            return 4
        print("CHECK PASS: ordering and brackets")
    return 0


def _check_sweep(crit) -> list[str]:
    failures = []
    by_key = {(c.variant, c.kernel): c.L_crit for c in crit}
    try:
        values = [by_key[key] for key in LCRIT_REFERENCE]
    except KeyError as exc:
        return [f"missing variant in sweep: {exc}"]
    if any(math.isnan(x) for x in values):
        failures.append("a variant never collapsed inside the swept range")
        return failures
    lap, sup, loc = values
    if not lap < sup < loc:
        failures.append(
            f"ordering violated: laplace {lap:.3f}, super_gaussian "
            f"{sup:.3f}, local {loc:.3f}")
    for ((variant, kernel), ref), value in zip(LCRIT_REFERENCE.items(),
                                               values):
        key = f"{variant}-{kernel}" if kernel else variant
        lo, hi = ref * (1 - LCRIT_BAND), ref * (1 + LCRIT_BAND)
        if not lo <= value <= hi:
            failures.append(
                f"L_crit[{key}] = {value:.3f} outside [{lo:.3f}, {hi:.3f}]")
    return failures


def cmd_bifurcate(args) -> int:
    res = make_resolver(args.config)
    base = BifurcationConfig()
    d_w_values = res.get("bifurcation", "d_w_values", "floats",
                         base.d_w_values, tuple(args.dw) if args.dw else None)
    if args.check and not set(CHECK_D_W) <= set(d_w_values):
        raise ConfigError(
            f"--check tests the fold band at d_w = {CHECK_D_W[0]:g} and the "
            f"sub-threshold patterns at d_w = {CHECK_D_W[1]:g}, so d_w_values "
            f"must hold both, got {', '.join(map(repr, d_w_values)) or 'none'}")
    if not d_w_values:
        raise ConfigError("[bifurcation] d_w_values is empty: bifurcate "
                          "traces its branches at each d_w it holds")
    L = _positive("L", res.get("bifurcation", "L", float, base.L, args.L))
    for d_w in d_w_values:
        params = _model(args, res, A=base.A_start, d_w=d_w)
        _checked_grid(L, replace(base, L=L).n_nodes, params,
                      f"the grid L = {L!r}", "lower L")
    _require_vegetated("the bifurcation's start", base.A_start, params.B)
    gallery_A = res.get("bifurcation", "gallery_A", "floats", base.gallery_A)
    stride = _non_negative("stability_stride", res.get(
        "bifurcation", "stability_stride", int, base.stability_stride))
    snapshot_stride = _non_negative("--snapshot-stride",
                                    args.snapshot_stride or 0)
    controls = replace(base.controls, **{
        name: _positive(name, res.get("continuation", name, type(v), v))
        for name, v in asdict(base.controls).items()
        if name in ("ds0", "ds_min", "ds_max", "point_cap", "newton_tol")})
    cfg = replace(base, B=params.B, d_v=params.d_v, d_w_values=d_w_values,
                  L=L, controls=controls, stability_stride=stride,
                  gallery_A=gallery_A)
    res.reject_unread("bifurcate")
    t0 = time.time()
    suite = run_bifurcation_suite(cfg, progress=_report_branch)
    outdir = resolve_output_dir(args.out, "bifurcate-out")
    outdir.mkdir(parents=True, exist_ok=True)
    write_branch_csv(outdir / "branch.csv", suite)
    write_branch_diagnostics_csv(outdir / "branch_diagnostics.csv", suite)
    write_folds_csv(outdir / "folds.csv", suite)
    profiles_dir = outdir / "profiles"
    written = write_gallery_profiles(profiles_dir, suite)
    written += write_branch_snapshots(profiles_dir, suite,
                                      stride=snapshot_stride)
    if not args.no_plots:
        write_plot_scripts(outdir / "plots", suite=suite, B=cfg.B)
    write_manifest(outdir / "manifest.json", {
        **_run_config_payload(res, "bifurcate", outdir),
        "config": asdict(cfg),
        "grid": {"L": suite.grid.half_width, "N": suite.grid.n_nodes},
        "rng": "deterministic (no random seeds used)",
        "profiles": written, "suite_errors": suite.errors,
        "folds": {f"{r.variant}-{r.kernel}-dw{r.d_w:g}-{r.seed}":
                  [f.A for f in r.branch.folds] for r in suite.runs},
        "branches": {r.branch.label: {
            "points": len(r.branch.points),
            "termination": r.branch.termination,
            "bordered_solves": r.branch.bordered_solves,
            "corrector_iterations": r.branch.corrector_iterations,
            "halvings": r.branch.halvings,
            "eigen_solves": r.branch.eigen_solves,
            "krylov_dim_total": r.branch.krylov_dim,
            "wall_s": r.branch.wall_s} for r in suite.runs},
        "wall_time_s": time.time() - t0})
    for run in suite.runs:
        folds = ", ".join(f"{f.A:.4f}" for f in run.branch.folds) or "none"
        print(f"{run.variant}{'-' + run.kernel if run.kernel else ''} "
              f"d_w={run.d_w:g} {run.seed}: {len(run.branch.points)} points, "
              f"folds at [{folds}], {run.branch.termination}")
    print(f"bifurcation outputs in {outdir} ({time.time() - t0:.1f} s)")
    if args.check:
        failures = _check_bifurcation(suite, cfg)
        for f in failures:
            print("CHECK FAIL:", f)
        if failures:
            return 4
        print("CHECK PASS: biomass floor, fold band, sub-threshold patterns")
    return 0


def _report_branch(branch) -> None:
    print(f"branch {branch.label}: {len(branch.points)} points, "
          f"{branch.halvings} halvings, {branch.wall_s:.2f} s",
          file=sys.stderr, flush=True)


def _check_bifurcation(suite, cfg) -> list[str]:
    failures = [f"suite error: {error}" for error in suite.errors]
    failures += [f"{run.branch.label} ended in {run.branch.termination}, "
                 "not parameter_exit" for run in suite.runs
                 if run.branch.termination != "parameter_exit"]
    for run in suite.runs:
        for pt in run.branch.points:
            if pt.max_v > BIOMASS_FLOOR_CUT and pt.max_v < cfg.B / pt.A:
                failures.append(
                    f"biomass floor violated on {run.variant}-{run.kernel} "
                    f"d_w={run.d_w:g} at A={pt.A:.4f}: max_v={pt.max_v:.4f} "
                    f"< B/A={cfg.B / pt.A:.4f}")
                break
    slow = [r for r in suite.runs
            if r.d_w == CHECK_D_W[0] and r.seed == "vegetated"]
    for run in slow:
        if not run.branch.folds:
            failures.append(f"no fold on {run.variant}-{run.kernel} d_w=0.1")
            continue
        a_fold = run.branch.folds[0].A
        if not FOLD_BAND[0] <= a_fold <= FOLD_BAND[1]:
            failures.append(
                f"fold of {run.variant}-{run.kernel} d_w=0.1 at "
                f"{a_fold:.4f} outside {FOLD_BAND}")
    # A stability change between two flagged points with no fold between
    # them would be a bifurcation the continuation does not detect.  Only
    # the presence of a fold is checked: two folds can take a stable state
    # to one with two unstable eigenvalues.
    for run in suite.runs:
        flagged = [pt for pt in run.branch.points if pt.stability is not None]
        for p, q in zip(flagged, flagged[1:]):
            if (p.stability.stable != q.stability.stable
                    and not any(p.index <= f.after_index < q.index
                                for f in run.branch.folds)):
                failures.append(
                    f"stability flips without a fold on {run.branch.label} "
                    f"between points {p.index} (A={p.A:.4f}) and "
                    f"{q.index} (A={q.A:.4f})")
    fast = [r for r in suite.runs
            if r.d_w == CHECK_D_W[1] and r.variant == "nonlocal"]
    if fast and not any(pt.A < 2 * cfg.B and pt.max_v > 0.1
                        for r in fast for pt in r.branch.points):
        failures.append("no non-local point with A < 2B and max_v > 0.1 "
                        "at d_w=80")
    return failures


if __name__ == "__main__":
    sys.exit(main())
