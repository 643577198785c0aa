import math

import numpy as np
import pytest

from vegpatch import kinetics
from vegpatch.discretization import (assemble_laplacian, assemble_nonlocal,
                                     make_grid)
from vegpatch.errors import WaterBoundViolated
from vegpatch.kinetics import ModelParams, scalar_f
from vegpatch.spectral import (estimate_lipschitz_M, extinction_criterion,
                               principal_eigenvalue_laplacian,
                               principal_eigenvalue_nonlocal,
                               principal_eigenvalue_nonlocal_dense)


def grid_with_spacing(L, h):
    return make_grid(L, max(3, int(round(2 * L / h)) + 1))


class TestLaplacianEigenvalue:
    @pytest.mark.parametrize("L", [25.0, 1.0])
    def test_matches_analytic_dirichlet_value(self, L):
        lap = assemble_laplacian(grid_with_spacing(L, min(0.05, L / 40)))
        result = principal_eigenvalue_laplacian(lap)
        analytic = (math.pi / (2 * L)) ** 2
        assert result.converged
        assert result.value == pytest.approx(analytic, rel=1e-3)

    def test_second_order_in_spacing(self):
        L = 2.0
        analytic = (math.pi / (2 * L)) ** 2
        errs = []
        for n in (101, 201):
            lap = assemble_laplacian(make_grid(L, n))
            errs.append(abs(principal_eigenvalue_laplacian(lap).value
                            - analytic))
        assert errs[0] / errs[1] > 3.0


class TestNonlocalEigenvalue:
    def test_large_domain_drives_beta1_to_zero(self, laplace):
        op = assemble_nonlocal(grid_with_spacing(100.0, 0.25), laplace)
        result = principal_eigenvalue_nonlocal(op, max_iter=200_000)
        assert 0.0 < result.value < 0.01

    def test_tiny_domain_keeps_beta1_near_one(self, laplace):
        op = assemble_nonlocal(grid_with_spacing(0.2, 0.02), laplace)
        result = principal_eigenvalue_nonlocal(op)
        assert result.converged
        assert result.value > 0.5

    def test_nested_domains_shrink_beta1(self, laplace):
        betas = [principal_eigenvalue_nonlocal(
            assemble_nonlocal(grid_with_spacing(L, 0.05), laplace)).value
            for L in (2.0, 4.0)]
        assert betas[1] < betas[0]

    @pytest.mark.parametrize("family", ["laplace", "super_gaussian"])
    def test_monotone_over_five_nested_domains(self, family, laplace,
                                               super_gaussian):
        kernel = laplace if family == "laplace" else super_gaussian
        betas = []
        for L in (1.0, 2.0, 4.0, 8.0, 16.0):
            op = assemble_nonlocal(grid_with_spacing(L, 0.05), kernel)
            res = principal_eigenvalue_nonlocal(op)
            assert res.converged and res.residual <= 1e-10
            assert 0.0 < res.value <= 1.0
            betas.append(res.value)
        assert all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))

    def test_power_iteration_agrees_with_dense_oracle(self, laplace,
                                                      super_gaussian):
        for kernel in (laplace, super_gaussian):
            for scheme in ("exact", "trapezoid"):
                if kernel.family == "laplace" and scheme == "trapezoid":
                    continue   # kinked kernel: trapezoid inflates row sums
                op = assemble_nonlocal(grid_with_spacing(4.0, 0.05), kernel,
                                       scheme=scheme)
                power = principal_eigenvalue_nonlocal(op).value
                dense = principal_eigenvalue_nonlocal_dense(op)
                assert abs(power - dense) <= 1e-8

    @pytest.mark.parametrize("family", ["laplace", "super_gaussian"])
    @pytest.mark.parametrize("L", [1.0, 2.0, 8.0, 16.0])
    def test_arnoldi_matches_dense_oracle_to_1e12(self, family, L, laplace,
                                                  super_gaussian):
        kernel = laplace if family == "laplace" else super_gaussian
        op = assemble_nonlocal(grid_with_spacing(L, 0.05), kernel)
        res = principal_eigenvalue_nonlocal(op)
        assert res.converged
        assert abs(res.value - principal_eigenvalue_nonlocal_dense(op)) \
            <= 1e-12

    def test_cache_is_memoized(self, laplace):
        op = assemble_nonlocal(grid_with_spacing(2.0, 0.1), laplace)
        first = principal_eigenvalue_nonlocal(op)
        assert principal_eigenvalue_nonlocal(op) is first

    def test_cache_honours_the_requested_tolerance(self, laplace):
        op = assemble_nonlocal(make_grid(4.0, 161), laplace)
        loose = principal_eigenvalue_nonlocal(op, tol=1e-2)
        assert loose.residual > 1e-10
        fresh = principal_eigenvalue_nonlocal(op, use_cache=False)
        tight = principal_eigenvalue_nonlocal(op)
        assert tight is not loose and op.spectral_cache is tight
        assert tight == fresh and tight.residual <= 1e-10
        # a tighter memo serves a looser request
        assert principal_eigenvalue_nonlocal(op, tol=1e-2) is tight

    def test_cache_skips_an_unconverged_memo(self, laplace):
        op = assemble_nonlocal(make_grid(4.0, 161), laplace)
        capped = principal_eigenvalue_nonlocal(op, tol=1e-2, max_iter=2)
        assert not capped.converged
        assert principal_eigenvalue_nonlocal(op, tol=1e-2).converged


class TestExtinctionCriterion:
    def test_guaranteed_case(self):
        guaranteed, margin = extinction_criterion(0.9, 2.0, 1.0)
        assert guaranteed and margin == pytest.approx(0.8)

    def test_not_guaranteed_case(self):
        guaranteed, margin = extinction_criterion(0.01, 2.0, 1.0)
        assert not guaranteed and margin == pytest.approx(-0.98)

    def test_rejects_nonpositive_beta1(self):
        with pytest.raises(ValueError):
            extinction_criterion(0.0, 2.0, 1.0)

    def test_sufficiency_against_measured_collapse(self, laplace):
        # The spectral test is sufficient only: the width where it stops
        # firing must not exceed the dynamics-measured critical width
        # (about 1.44 for this kernel under the standard parameters).
        params = ModelParams(1.8, 0.45, 2.0, 0.1)
        grid = grid_with_spacing(4.0, 0.05)
        m = estimate_lipschitz_M(params, grid, v_range=4.0).value
        last_guaranteed = None
        for L in np.linspace(0.2, 2.0, 10):
            op = assemble_nonlocal(grid_with_spacing(L, 0.05), laplace)
            beta1 = principal_eigenvalue_nonlocal(op).value
            if extinction_criterion(beta1, params.d_v, m)[0]:
                last_guaranteed = L
        assert last_guaranteed is not None
        assert last_guaranteed <= 1.44


class TestLipschitzEstimate:
    def test_matches_zero_diffusion_limit(self):
        # dense sampling of |d/dv (A v^2 / (v^2+1) - B v)| as the oracle
        A, B = 1.8, 0.45
        v = np.linspace(0.0, 4.0, 200_001)
        fprime = A * 2 * v / (v**2 + 1.0) ** 2 - B
        oracle = np.max(np.abs(fprime))
        params = ModelParams(A, B, 2.0, 1e-4)
        grid = make_grid(10.0, 401)
        est = estimate_lipschitz_M(params, grid, v_range=4.0)
        assert est.certified_from_below
        assert est.value == pytest.approx(oracle, rel=0.05)

    def test_near_zero_slope_is_mortality(self, default_params):
        grid = make_grid(10.0, 201)
        est = estimate_lipschitz_M(default_params, grid, v_range=1e-3)
        assert est.value == pytest.approx(default_params.B, rel=1e-3)

    def test_sampling_density_stable(self, default_params):
        grid = make_grid(10.0, 201)
        coarse = estimate_lipschitz_M(default_params, grid, 3.0,
                                      n_samples=400).value
        fine = estimate_lipschitz_M(default_params, grid, 3.0,
                                    n_samples=800).value
        assert abs(fine - coarse) / coarse < 0.01

    @pytest.mark.parametrize("L, n", [(1.0, 41), (4.0, 161), (10.0, 201)])
    def test_batched_scan_bitwise_equals_level_by_level(self, L, n,
                                                        default_params):
        grid = make_grid(L, n)
        levels = np.linspace(0.0, 3.4, 401)
        ones = np.ones(grid.n_nodes)
        prev = scalar_f(levels[0] * ones, default_params, grid)
        best = 0.0
        for lo, hi in zip(levels[:-1], levels[1:]):
            cur = scalar_f(hi * ones, default_params, grid)
            best = max(best, float(np.max(np.abs(cur - prev))) / (hi - lo))
            prev = cur
        est = estimate_lipschitz_M(default_params, grid, v_range=3.4)
        assert est.value == best

    @pytest.mark.parametrize("level", [-0.01, 2.5, math.nan])
    def test_batched_water_outside_bounds_is_a_typed_error(
            self, level, monkeypatch, default_params):
        monkeypatch.setattr(kinetics, "thomas_solve_columns",
                            lambda lower, diag, upper, rhs:
                            np.full(diag.shape, level))
        with pytest.raises(WaterBoundViolated):
            estimate_lipschitz_M(default_params, make_grid(5.0, 51), 3.0)
