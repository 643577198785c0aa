import math

import numpy as np
import pytest

from vegpatch.continuation import StationaryResidual, solve_stationary
from vegpatch.discretization import build_operators, make_grid
from vegpatch.dynamics import initial_state, run_to_steady
from vegpatch.experiments import (BifurcationConfig, SweepConfig, SweepRow,
                                  boundary_sharpness, builtin_kernel,
                                  cosine_perturbed_start, detect_critical_L,
                                  fast_sweep_config, log_spaced_L,
                                  run_bifurcation_suite, run_patch_sweep,
                                  sweep_resolution)
from vegpatch.kinetics import ModelParams, vegetated_equilibrium


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
    # refinement by Illinois regula falsi with warm-started correctors
    # holds the default suite near 2,584
    total = sum(run.branch.bordered_solves for run in bif_suite.runs)
    assert total <= 2650


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
        sr, 1.8, sr.join(steady.state.v, steady.state.w))
    u_cont, _ = solve_stationary(
        sr, 1.8, sr.join(*cosine_perturbed_start(grid, 1.8, 0.45)))
    gap = np.max(np.abs(u_dyn[:grid.n_nodes] - u_cont[:grid.n_nodes]))
    assert gap <= 1e-3
