import math
from dataclasses import replace

import numpy as np
import pytest

from diagnostics import boundary_sharpness
from vegpatch.continuation import (PalcControls, StationaryResidual,
                                   palc_continue, solve_stationary)
from vegpatch.discretization import build_operators, make_grid
from vegpatch.dynamics import initial_state, run_to_steady
from vegpatch.errors import NewtonDiverged
from vegpatch.experiments import (VARIANTS, BifurcationConfig, SweepConfig,
                                  SweepRow, _desert_branch, _flag_selected,
                                  builtin_kernel,
                                  cosine_perturbed_start, detect_critical_L,
                                  fast_sweep_config, log_spaced_L,
                                  run_bifurcation_suite, run_patch_sweep,
                                  sweep_resolution)
from vegpatch.kinetics import (ModelParams, solve_water_stationary,
                               vegetated_equilibrium)


def test_log_ladder_endpoints():
    values = log_spaced_L(50)
    assert len(values) == 50
    assert values[0] == pytest.approx(1.0)
    assert values[-1] == pytest.approx(100.0)


def test_cosine_start_vanishing_perturbation_at_edges():
    grid = make_grid(25.0, 75)
    v0, w0 = cosine_perturbed_start(grid, 1.8, 0.45)
    eq = vegetated_equilibrium(1.8, 0.45)
    assert v0[0] == pytest.approx(eq.v_star, abs=1e-12)
    assert v0[grid.n_nodes // 2] == pytest.approx(1.01 * eq.v_star, abs=1e-12)
    assert np.all(w0 == eq.w_star)


def test_sweep_resolution_policy(fast_sweep_rows):
    cfg = fast_sweep_config()
    assert sweep_resolution(cfg, 100.0) == 800
    # no variant's grid is capped: the L = 1 cells all take n_min nodes
    assert {(r.variant, r.N) for r in fast_sweep_rows if r.L == 1.0} == {
        ("local", 128), ("nonlocal", 128)}


def _row(variant, kernel, L, avg, converged=True):
    return SweepRow(variant, kernel, L, 128, avg, avg, avg * 2.0, 100,
                    converged)


class TestDetectCriticalL:
    def test_largest_collapsed_width_wins(self):
        rows = [_row("local", "", L, avg) for L, avg in
                [(1.0, 0.01), (2.0, 0.05), (4.0, 1.5), (8.0, 2.5)]]
        out = detect_critical_L(rows)
        assert len(out) == 1
        assert out[0].L_crit == 2.0
        assert not out[0].below_range

    def test_nonconverged_rows_are_ignored(self):
        rows = [_row("local", "", 1.0, 0.01),
                _row("local", "", 4.0, 0.05, converged=False),
                _row("local", "", 8.0, 2.5)]
        assert detect_critical_L(rows)[0].L_crit == 1.0

    def test_all_vegetated_reports_below_range(self):
        rows = [_row("local", "", L, 2.0) for L in (1.0, 2.0)]
        out = detect_critical_L(rows)
        assert out[0].below_range
        assert math.isnan(out[0].L_crit)


def test_sweep_cells_straddling_the_laplace_fold():
    # rungs 5 and 6 of the full ladder lie on either side of the laplace
    # fold in L at 1.6079: the narrower cell must collapse to the desert
    low, high = run_patch_sweep(SweepConfig(
        L_values=log_spaced_L(50)[5:7], variants=(("nonlocal", "laplace"),)))
    assert (low.L, high.L) == pytest.approx((1.5999, 1.7575), abs=1e-4)
    assert low.converged and high.converged
    assert low.avg_biomass < 0.1 < high.avg_biomass


@pytest.fixture(scope="module")
def tiny_rows():
    cfg = SweepConfig(L_values=(1.2, 3.0))
    return cfg, run_patch_sweep(cfg)


@pytest.mark.slow
class TestSmallSweep:
    def test_rows_sorted_and_complete(self, tiny_rows):
        cfg, rows = tiny_rows
        assert len(rows) == 6
        keys = [(r.variant, r.kernel, r.L) for r in rows]
        assert keys == sorted(keys)

    def test_collapse_and_survival_pattern(self, tiny_rows):
        _, rows = tiny_rows
        by = {(r.variant, r.kernel, r.L): r for r in rows}
        assert by[("nonlocal", "laplace", 1.2)].avg_biomass < 0.1
        assert by[("nonlocal", "laplace", 3.0)].avg_biomass > 1.0
        assert by[("local", "", 3.0)].avg_biomass > 1.0

    def test_determinism_bitwise(self, tiny_rows):
        cfg, rows = tiny_rows
        again = run_patch_sweep(cfg)
        assert rows == again   # dataclass equality covers every float


def test_bifurcation_suite_small_range(laplace):
    cfg = BifurcationConfig(A_range=(2.0, 3.0), d_w_values=(0.1,),
                            variants=(("nonlocal", "laplace"),),
                            stability_stride=0, gallery_A=())
    suite = run_bifurcation_suite(cfg)
    assert not suite.errors
    seeds = {run.seed for run in suite.runs}
    assert seeds == {"vegetated", "desert"}
    veg = next(r for r in suite.runs if r.seed == "vegetated")
    assert veg.branch.termination == "parameter_exit"
    assert min(pt.A for pt in veg.branch.points) < 2.0


def test_gallery_has_every_requested_profile(bif_suite):
    # each profile is polished from the branch point next to a crossing of
    # the requested rainfall, one continuation step away, so none is lost
    # to a Newton run that wanders from a distant seed
    cfg = BifurcationConfig()
    assert not bif_suite.errors
    got = {(g.variant, g.kernel, g.A) for g in bif_suite.galleries}
    assert got == {(v, k, a) for v, k in cfg.variants for a in cfg.gallery_A}


def test_default_suite_bordered_solve_budget(bif_suite):
    # the per-branch counter the bifurcate manifest records, summed; fold
    # refinement by Illinois regula falsi with warm-started correctors and
    # desert branches written in closed form hold the default suite near
    # 2,247
    total = sum(run.branch.bordered_solves for run in bif_suite.runs)
    assert total <= 2300
    desert = [run.branch for run in bif_suite.runs if run.seed == "desert"]
    assert len(desert) == 6
    assert all(b.closed_form and b.bordered_solves == 0 for b in desert)


def _desert_pair(variant, kernel_family, d_w, n_nodes, cfg):
    """The closed-form desert branch and palc_continue's trace from the
    desert seed (the water solve, Newton-polished), each with its flags."""
    grid = make_grid(n_nodes / 3.0, n_nodes)
    kernel = builtin_kernel(kernel_family) if kernel_family else None
    ops = build_operators(grid, variant, kernel)
    sr = StationaryResidual(ops, ModelParams(cfg.A_start, cfg.B, cfg.d_v,
                                             d_w), parity=1)
    got = _desert_branch(cfg, sr, "desert")
    zero = np.zeros(grid.n_nodes)
    w0 = solve_water_stationary(zero, sr.params, grid)
    u0, _ = solve_stationary(sr, cfg.A_start, sr.restrict(np.r_[zero, w0]),
                             tol=cfg.controls.newton_tol)
    ref = palc_continue(sr, cfg.A_start, cfg.A_range, u0, cfg.controls,
                        label="desert")
    _flag_selected(sr, ref, cfg.stability_stride)
    return sr, got, ref


@pytest.mark.parametrize("n_nodes", [12, 15, 75])
@pytest.mark.parametrize("d_w", [0.1, 80.0])
@pytest.mark.parametrize("variant, kernel_family", VARIANTS)
def test_desert_branch_matches_its_continuation(variant, kernel_family, d_w,
                                                n_nodes):
    # the continuation's own trace is the oracle: same rows, arclength and
    # termination, A to rounding, and the same flags at the same points
    for controls in (PalcControls(), PalcControls(point_cap=5),
                     PalcControls(ds0=0.05, ds_max=0.3)):
        cfg = BifurcationConfig(controls=controls, stability_stride=10)
        sr, got, ref = _desert_pair(variant, kernel_family, d_w, n_nodes,
                                    cfg)
        assert got.termination == ref.termination
        assert len(got.points) == len(ref.points)
        assert got.folds == ref.folds == []
        assert ref.halvings == 0 and ref.corrector_iterations == 0
        for p, q in zip(got.points, ref.points):
            assert (p.index, p.s, p.snapshot_id) == (q.index, q.s,
                                                     q.snapshot_id)
            assert abs(p.A - q.A) <= 4e-15
            assert (p.max_v, p.avg_v, p.avg_v_nodes) == (0.0, 0.0, 0.0)
            assert (q.max_v, q.avg_v, q.avg_v_nodes) == (0.0, 0.0, 0.0)
            assert p.stability == q.stability
            assert np.allclose(p.snapshot, q.snapshot, rtol=0.0,
                               atol=1e-12 * cfg.A_start)
            assert np.linalg.norm(sr.residual(p.snapshot, p.A)) <= 1e-10
        flagged = [p.index for p in got.points if p.stability is not None]
        assert flagged == [p.index for p in ref.points
                           if p.stability is not None]
        assert (got.closed_form, ref.closed_form) == (True, False)
        assert got.bordered_solves == 0 < ref.bordered_solves
        assert got.eigen_solves == 1 < ref.eigen_solves == len(flagged)
        assert got.krylov_dim == got.points[0].stability.krylov_dim


def test_desert_branch_without_flags_and_off_tolerance():
    cfg = BifurcationConfig(stability_stride=0)
    sr, got, ref = _desert_pair("local", "", 80.0, 12, cfg)
    assert got.eigen_solves == 0
    assert all(p.stability is None for p in got.points)
    # a seed that misses newton_tol is refused, as palc_continue refuses it
    strict = replace(cfg, controls=PalcControls(newton_tol=1e-30))
    with pytest.raises(NewtonDiverged, match="exceeds tolerance"):
        _desert_branch(strict, sr, "desert")


@pytest.mark.slow
class TestSweepShapeProperties:
    def test_threshold_robustness(self, fast_sweep_rows):
        # collapse detection is not knife-edge: thresholds 0.05 and 0.2
        # move the detected width by at most two rungs of the log ladder
        ladder = sorted({r.L for r in fast_sweep_rows})
        step = ladder[1] / ladder[0]
        base = {(c.variant, c.kernel): c.L_crit
                for c in detect_critical_L(fast_sweep_rows, 0.1)}
        for threshold in (0.05, 0.2):
            moved = {(c.variant, c.kernel): c.L_crit
                     for c in detect_critical_L(fast_sweep_rows, threshold)}
            for key, L0 in base.items():
                ratio = moved[key] / L0
                assert step**-2.01 <= ratio <= step**2.01, (key, threshold)

    def test_monotone_tail_approaches_uniform_state(self, fast_sweep_rows):
        eq = vegetated_equilibrium(1.8, 0.45)
        ladder = sorted({r.L for r in fast_sweep_rows})
        step = ladder[1] / ladder[0]
        crit = {(c.variant, c.kernel): c.L_crit
                for c in detect_critical_L(fast_sweep_rows, 0.1)}
        for key, L_crit in crit.items():
            tail = sorted((r.L, r.avg_biomass) for r in fast_sweep_rows
                          if (r.variant, r.kernel) == key and r.converged
                          and r.L > L_crit * step**2)
            avgs = [a for _, a in tail]
            assert len(avgs) >= 3
            assert all(a1 <= a2 + 1e-6 for a1, a2 in zip(avgs, avgs[1:]))
            assert avgs[-1] <= eq.v_star
            assert avgs[-1] >= 0.5 * eq.v_star


class TestBoundarySharpness:
    def test_desert_profile_is_zero(self):
        grid = make_grid(10.0, 101)
        assert boundary_sharpness(np.full(101, 1e-3), grid) == 0.0

    def test_pinned_edge_uses_first_interior_node(self):
        grid = make_grid(10.0, 101)
        profile = np.ones(101)
        profile[0] = profile[-1] = 0.0
        profile[1] = profile[-2] = 0.25
        assert boundary_sharpness(profile, grid) == pytest.approx(0.25)

    def test_free_edge_uses_edge_node(self):
        grid = make_grid(10.0, 101)
        profile = np.ones(101)
        profile[0] = profile[-1] = 0.6
        assert boundary_sharpness(profile, grid) == pytest.approx(0.6)


@pytest.mark.slow
def test_dynamics_and_continuation_agree_at_same_rainfall(laplace):
    # steady state from time integration vs stationary solve, both at the
    # bifurcation grid; Newton-polish the time-integrated state first
    grid = make_grid(25.0, 75)
    ops = build_operators(grid, "nonlocal", laplace)
    params = ModelParams(1.8, 0.45, 2.0, 0.1)
    v0, w0 = cosine_perturbed_start(grid, 1.8, 0.45)
    steady = run_to_steady(initial_state(ops, v0, w0), ops, params,
                           tol=1e-3)
    assert steady.converged
    sr = StationaryResidual(ops, params)
    u_dyn, _ = solve_stationary(
        sr, 1.8, sr.restrict(np.r_[steady.state.v, steady.state.w]),
        tol=1e-10)
    u_cont, _ = solve_stationary(
        sr, 1.8, sr.restrict(np.r_[v0, w0]), tol=1e-10)
    gap = np.max(np.abs(u_dyn[:grid.n_nodes] - u_cont[:grid.n_nodes]))
    assert gap <= 1e-3
