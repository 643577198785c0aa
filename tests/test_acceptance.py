"""Acceptance suite: one test per criterion, each at its pinned tolerance.

Every test prints a single PASS/FAIL line (visible with pytest -s); the
expensive experiment artifacts (reduced patch sweep, bifurcation suite) are
session fixtures shared with the module test files.
"""
import math
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import water_profile_oracle
from diagnostics import (boundary_sharpness, extinction_decay_check,
                         perturbation_decay)
from vegpatch.continuation import (PalcControls, StationaryResidual,
                                   solve_stationary)
from vegpatch.discretization import (LaplacianOperator, assemble_nonlocal,
                                     build_operators, make_grid)
from vegpatch.dynamics import initial_state, run_to_steady
from vegpatch.experiments import cosine_perturbed_start, detect_critical_L
from vegpatch.kernels import kernel_moments
from vegpatch.kinetics import (ModelParams, constant_steady_states,
                               solve_water_stationary)
from vegpatch.spectral import (principal_eigenvalue_laplacian,
                               principal_eigenvalue_nonlocal)

A_STD, B_STD = 1.8, 0.45
G14 = math.gamma(0.25)
G34 = math.gamma(0.75)
G54 = math.gamma(1.25)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} FAIL - {title}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS - {title}")


def test_criterion_01_kinetic_equilibria():
    with criterion(1, "kinetic equilibria solve the cubic to 1e-12"):
        states = constant_steady_states(A_STD, B_STD)
        assert len(states) == 3
        for s in states:
            residual = -B_STD * s.v_star**3 + A_STD * s.v_star**2 \
                - B_STD * s.v_star
            assert abs(residual) <= 1e-12
        closed_form = (A_STD + math.sqrt(A_STD**2 - 4 * B_STD**2)) \
            / (2 * B_STD)
        assert abs(states[-1].v_star - closed_form) <= 1e-12


def test_criterion_02_kernel_calibration(laplace, super_gaussian):
    with criterion(2, "kernel mass, variance, and fourth moments"):
        for kernel in (laplace, super_gaussian):
            m = kernel_moments(kernel, quad_tol=1e-10)
            assert abs(m.mass - 1.0) <= 1e-6
            assert abs(m.second_moment - 1.0) <= 1e-4
        fat = kernel_moments(laplace, quad_tol=1e-10).fourth_moment
        thin = kernel_moments(super_gaussian, quad_tol=1e-10).fourth_moment
        assert abs(fat - 6.0) <= 1e-3
        assert abs(thin - G54 * G14 / G34**2) <= 1e-3


def test_criterion_03_water_solver_order(default_params):
    with criterion(3, "water solve is second-order against the analytic "
                      "profile"):
        errs, spacings = [], []
        for n in (201, 401, 801):
            grid = make_grid(25.0, n)
            w = solve_water_stationary(np.zeros(n), default_params, grid)
            oracle = water_profile_oracle(grid.nodes, 25.0, A_STD, 0.1)
            errs.append(float(np.max(np.abs(w - oracle))))
            spacings.append(grid.spacing)
        orders = [math.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
        assert min(orders) >= 1.9
        c = errs[0] / spacings[0] ** 2
        for e, h in zip(errs, spacings):
            assert e <= 1.2 * c * h * h


def test_criterion_04_spectral(laplace, super_gaussian):
    with criterion(4, "Dirichlet eigenvalue and monotone dispersal "
                      "eigenvalues"):
        lap = LaplacianOperator(make_grid(25.0, 501))
        lam = principal_eigenvalue_laplacian(lap).value
        assert abs(lam - (math.pi / 50.0) ** 2) <= 0.01 * (math.pi / 50.0) ** 2
        for kernel in (laplace, super_gaussian):
            betas = []
            for L in (1.0, 2.0, 4.0, 8.0, 16.0):
                grid = make_grid(L, int(round(2 * L / 0.05)) + 1)
                op = assemble_nonlocal(grid, kernel)
                betas.append(principal_eigenvalue_nonlocal(op).value)
            assert all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))
            assert all(0.0 < b <= 1.0 for b in betas)


def test_criterion_05_invariant_region_and_extinction(default_params,
                                                      laplace):
    with criterion(5, "sub-threshold biomass stays in the interval and "
                      "collapses"):
        ops = build_operators(make_grid(25.0, 129), "nonlocal", laplace)
        report = extinction_decay_check(default_params, ops, 0.2,
                                        h_t=1e-2, t_final=40.0)
        assert report.threshold == pytest.approx(B_STD / A_STD)
        assert float(report.max_v.max()) <= 0.25
        assert report.final_max_v < 1e-3
        assert report.final_water_gap < 1e-3


def test_criterion_06_critical_patch_sizes(fast_sweep_rows):
    with criterion(6, "critical patch ordering and brackets"):
        crit = {(c.variant, c.kernel): c.L_crit
                for c in detect_critical_L(fast_sweep_rows, 0.1)}
        lap = crit[("nonlocal", "laplace")]
        sup = crit[("nonlocal", "super_gaussian")]
        loc = crit[("local", "")]
        assert lap < sup < loc
        for value, ref in ((lap, 1.46), (sup, 1.76), (loc, 2.33)):
            assert 0.8 * ref <= value <= 1.2 * ref, (value, ref)


def test_criterion_07_biomass_floor(bif_suite):
    with criterion(7, "every branch point respects the B/A biomass floor"):
        checked = 0
        for run in bif_suite.runs:
            for pt in run.branch.points:
                if pt.max_v > 0.01:
                    assert pt.max_v >= B_STD / pt.A, (run.variant, pt.A)
                    checked += 1
        assert checked > 100


def test_criterion_08_fold_location_slow_diffusion(bif_suite):
    with criterion(8, "slow-diffusion vegetated branches fold in "
                      "[0.85, 1.00]"):
        runs = [r for r in bif_suite.runs
                if r.d_w == 0.1 and r.seed == "vegetated"]
        assert len(runs) == 3
        for run in runs:
            assert run.branch.folds, run.variant
            a_fold = run.branch.folds[0].A
            assert 0.85 <= a_fold <= 1.00, (run.variant, run.kernel, a_fold)


def test_criterion_09_subthreshold_patterns_fast_diffusion(bif_suite):
    with criterion(9, "fast diffusion sustains patterns below the kinetic "
                      "threshold"):
        found = [pt for run in bif_suite.runs
                 if run.d_w == 80.0 and run.variant == "nonlocal"
                 for pt in run.branch.points
                 if pt.A < 0.9 and pt.max_v > 0.1]
        assert found


def _sharpness_ratio(variant, kernel, n, tol):
    grid = make_grid(10.0, n)
    ops = build_operators(grid, variant, kernel)
    params = ModelParams(A_STD, B_STD, 2.0, 0.1)
    v0, w0 = cosine_perturbed_start(grid, A_STD, B_STD)
    result = run_to_steady(initial_state(ops, v0, w0), ops, params, tol)
    assert result.converged
    return boundary_sharpness(result.state.v, grid)


def test_criterion_10_boundary_sharpness(laplace):
    with criterion(10, "non-local profiles drop sharply at the boundary"):
        nl_coarse = _sharpness_ratio("nonlocal", laplace, 256, 0.02)
        nl_fine = _sharpness_ratio("nonlocal", laplace, 512, 0.02)
        loc_coarse = _sharpness_ratio("local", None, 384, 0.05)
        loc_fine = _sharpness_ratio("local", None, 768, 0.05)
        assert nl_fine > 5.0 * loc_fine, (nl_fine, loc_fine)
        assert loc_fine < 0.75 * loc_coarse, (loc_fine, loc_coarse)
        assert nl_fine > 0.85 * nl_coarse, (nl_fine, nl_coarse)


def test_criterion_11_jacobian_consistency(laplace):
    with criterion(11, "analytic Jacobian matches central differences to "
                      "1e-6"):
        grid = make_grid(25.0, 75)
        ops = build_operators(grid, "nonlocal", laplace)
        sr = StationaryResidual(ops, ModelParams(A_STD, B_STD, 2.0, 0.1))
        rng = np.random.default_rng(2024)
        for _ in range(20):
            u = np.concatenate([rng.uniform(0, 4, grid.n_nodes),
                                rng.uniform(0, A_STD, grid.n_nodes)])
            direction = rng.normal(size=sr.n_unknowns)
            direction /= np.linalg.norm(direction)
            eps = 1e-6 * max(1.0, float(np.abs(u).max()))
            jv = sr.jacobian(u, A_STD) @ direction
            fd = (sr.residual(u + eps * direction, A_STD)
                  - sr.residual(u - eps * direction, A_STD)) / (2 * eps)
            rel = np.linalg.norm(jv - fd) / max(np.linalg.norm(jv), 1e-12)
            assert rel <= 1e-6


def test_criterion_12_stability_crosscheck(bif_suite, laplace):
    with criterion(12, "perturbed branch point relaxes back with log-linear "
                       "decay"):
        run = next(r for r in bif_suite.runs
                   if r.d_w == 0.1 and r.variant == "nonlocal"
                   and r.kernel == "laplace" and r.seed == "vegetated")
        upper = [pt for pt in run.branch.points if pt.max_v > 2.0]
        seed = min(upper, key=lambda pt: abs(pt.A - 1.8))
        grid = make_grid(25.0, 75)
        ops = build_operators(grid, "nonlocal", laplace)
        params = ModelParams(A_STD, B_STD, 2.0, 0.1)
        sr = StationaryResidual(ops, params)
        u, _ = solve_stationary(sr, 1.8, seed.snapshot, tol=1e-10)
        v_ref, w_ref = sr.split(u)
        times, gaps, slope = perturbation_decay(
            ops, params, v_ref, w_ref, amplitude=0.01, h_t=1e-2,
            t_final=25.0)
        assert slope < -0.05, slope
        assert gaps[-1] < 0.05 * gaps[0]
