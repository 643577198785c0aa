import math

import numpy as np
import pytest

from vegpatch import continuation
from vegpatch.continuation import (FLAG_RES_TOL, STABLE_BELOW, PalcControls,
                                   StationaryResidual, _rightmost_inverse,
                                   newton, palc_continue,
                                   rightmost_eigenvalue_dense,
                                   solve_stationary, stability_flag)
from vegpatch.discretization import build_operators, make_grid
from vegpatch.dynamics import initial_state, simulate_horizon
from vegpatch.errors import NewtonDiverged, SingularJacobian
from vegpatch.experiments import builtin_kernel, cosine_perturbed_start
from vegpatch.kinetics import (ModelParams, constant_steady_states,
                               solve_water_stationary, vegetated_equilibrium)
from vegpatch.spectral import arnoldi_rightmost


class ToyFold:
    """Scalar branch x^2 = 1 - A with a fold at A = 1."""

    n_unknowns = 1

    def residual(self, u, A):
        return np.array([u[0] ** 2 - (1.0 - A)])

    def jacobian(self, u, A):
        return np.array([[2.0 * u[0]]])

    def d_dA(self, u, A):
        return np.array([1.0])

    def bordered_solve(self, u, A, col, row, corner, rhs):
        m = np.block([[self.jacobian(u, A), col[:, None]],
                      [row[None, :], np.array([[corner]])]])
        return np.linalg.solve(m, rhs)

    def summarize(self, u):
        return float(u.max()), float(u.mean()), float(u.mean())


class TestNewton:
    def test_scalar_quadratic(self):
        x, iters = newton(lambda x: x**2 - 4.0,
                          lambda x, r: r / (2.0 * x),
                          np.array([3.0]), tol=1e-10)
        assert abs(x[0] - 2.0) < 1e-10
        assert iters <= 7

    def test_divergence_detected(self, monkeypatch):
        monkeypatch.setattr(continuation, "NEWTON_CAP", 40)
        with pytest.raises(NewtonDiverged):
            newton(lambda x: x**2 + 1.0,
                   lambda x, r: r / (2.0 * x),
                   np.array([0.5]), tol=1e-10)

    def test_singular_jacobian_detected(self):
        with pytest.raises(SingularJacobian):
            newton(lambda x: np.array([1.0 + 0 * x[0]]),
                   lambda x, r: np.linalg.solve(np.array([[0.0]]), r),
                   np.array([1.0]), tol=1e-10)


class TestToyContinuation:
    def test_traces_through_fold(self):
        branch = palc_continue(ToyFold(), 0.0, (-0.5, 1.5), np.array([1.0]),
                               PalcControls(ds0=0.01, direction=1.0))
        assert branch.termination == "parameter_exit"
        xs = [pt.snapshot[0] for pt in branch.points]
        assert min(xs) < -0.5    # returned along the lower half-branch
        assert len(branch.folds) == 1
        assert abs(branch.folds[0].A - 1.0) <= 1e-6

    @pytest.mark.parametrize("ds0", [0.003, 0.01, 0.05])
    def test_fold_refined_to_rounding_in_few_solves(self, ds0):
        branch = palc_continue(ToyFold(), 0.0, (-0.5, 1.5), np.array([1.0]),
                               PalcControls(ds0=ds0, direction=1.0))
        assert len(branch.folds) == 1 and branch.halvings == 0
        assert abs(branch.folds[0].A - 1.0) <= 1e-12
        # each accepted point costs one tangent plus its corrector
        # iterations; the rest of the solves refined the fold
        refine = (branch.bordered_solves - len(branch.points)
                  - branch.corrector_iterations)
        assert 0 < refine <= 10

    def test_tangent_sign_changes_only_at_folds(self):
        branch = palc_continue(ToyFold(), 0.0, (-0.5, 1.5), np.array([1.0]),
                               PalcControls(ds0=0.01, direction=1.0))
        tangents = [pt.tangent_A for pt in branch.points]
        flips = sum(1 for a, b in zip(tangents, tangents[1:]) if a * b < 0)
        assert flips == len(branch.folds)

    def test_initial_point_must_be_solved(self):
        with pytest.raises(NewtonDiverged):
            palc_continue(ToyFold(), 0.0, (-0.5, 1.5), np.array([2.0]),
                          PalcControls())

    def test_fold_cap_termination(self):
        branch = palc_continue(ToyFold(), 0.0, (-0.5, 1.5), np.array([1.0]),
                               PalcControls(ds0=0.01, direction=1.0,
                                            fold_cap=1))
        assert branch.termination == "fold_count_cap"
        assert len(branch.folds) == 1

    def test_step_failure_when_no_step_can_be_corrected(self):
        # residual is exact at the seed but non-finite everywhere else, so
        # every corrector attempt fails and the step size underflows
        class Wall(ToyFold):

            def residual(self, u, A):
                if A == 0.0 and u[0] == 1.0:
                    return np.array([0.0])
                return np.array([np.nan])

            def jacobian(self, u, A):
                return np.array([[1.0]])

            def d_dA(self, u, A):
                return np.array([0.5])

        branch = palc_continue(Wall(), 0.0, (-1.0, 1.0), np.array([1.0]),
                               PalcControls(ds0=0.01, direction=1.0,
                                            ds_min=1e-5))
        assert branch.termination == "step_failure"
        assert len(branch.points) == 1   # only the seed point

    def test_nan_step_size_ends_in_step_failure(self):
        # halving NaN stays NaN, which a plain ds < ds_min never catches
        branch = palc_continue(ToyFold(), 0.0, (-0.5, 1.5), np.array([1.0]),
                               PalcControls(ds0=math.nan, direction=1.0))
        assert branch.termination == "step_failure"
        assert len(branch.points) == 1


@pytest.fixture(scope="module")
def habitat_sr(bif_ops_laplace):
    params = ModelParams(3.0, 0.45, 2.0, 0.1)
    return StationaryResidual(bif_ops_laplace, params)


class TestStationarySolve:
    def test_vegetated_solution_near_uniform_state(self, habitat_sr):
        sr = habitat_sr
        grid = sr.ops.grid
        eq = vegetated_equilibrium(3.0, 0.45)
        profile = np.cos(np.pi * grid.nodes / (2 * grid.half_width))
        guess = sr.restrict(np.r_[eq.v_star * (1 + 0.01 * profile),
                                  np.full(grid.n_nodes, eq.w_star)])
        u, iters = solve_stationary(sr, 3.0, guess, tol=1e-10)
        v3 = (3.0 + math.sqrt(3.0**2 - 4 * 0.45**2)) / (2 * 0.45)
        assert iters <= 20
        assert float(u[:grid.n_nodes].max()) == pytest.approx(v3, rel=0.10)
        assert np.linalg.norm(sr.residual(u, 3.0)) <= 1e-10

    def test_zero_guess_lands_on_desert_branch(self, habitat_sr):
        sr = habitat_sr
        grid = sr.ops.grid
        u, _ = solve_stationary(sr, 3.0, np.zeros(2 * grid.n_nodes),
                                tol=1e-10)
        v, w = sr.split(u)
        w_oracle = solve_water_stationary(np.zeros(grid.n_nodes), sr.params,
                                          grid)
        assert np.max(np.abs(v)) <= 1e-10
        assert np.max(np.abs(w - w_oracle)) <= 1e-8


class TestJacobian:
    @pytest.mark.parametrize("variant", ["nonlocal", "local"])
    def test_matches_central_differences(self, variant, laplace):
        grid = make_grid(25.0, 75)
        kernel = laplace if variant == "nonlocal" else None
        ops = build_operators(grid, variant, kernel)
        sr = StationaryResidual(ops, ModelParams(1.8, 0.45, 2.0, 0.1))
        rng = np.random.default_rng(42)
        n = sr.n_unknowns
        for _ in range(20):
            u = np.concatenate([rng.uniform(0.0, 4.0, grid.n_nodes),
                                rng.uniform(0.0, 1.8, grid.n_nodes)])
            direction = rng.normal(size=n)
            direction /= np.linalg.norm(direction)
            scale = max(1.0, float(np.abs(u).max()))
            eps = 1e-6 * scale
            jv = sr.jacobian(u, 1.8) @ direction
            fd = (sr.residual(u + eps * direction, 1.8)
                  - sr.residual(u - eps * direction, 1.8)) / (2 * eps)
            denom = max(np.linalg.norm(jv), 1e-12)
            assert np.linalg.norm(jv - fd) / denom <= 1e-6


    @pytest.mark.parametrize("variant", ["nonlocal", "local"])
    def test_bitwise_equal_to_block_assembly(self, variant, laplace):
        # reference: the full blocks with reaction diagonals, then the
        # pinned rows overwritten by unit rows
        grid = make_grid(25.0, 75)
        kernel = laplace if variant == "nonlocal" else None
        ops = build_operators(grid, variant, kernel)
        params = ModelParams(1.8, 0.45, 2.0, 0.1)
        sr = StationaryResidual(ops, params)
        n = grid.n_nodes
        lap = ops.laplacian.dense()
        if variant == "local":
            mv = 0.5 * params.d_v * lap
            pinned = [0, n - 1, n, 2 * n - 1]
        else:
            mv = params.d_v * (ops.dispersal.matrix - np.eye(n))
            pinned = [n, 2 * n - 1]
        mw = params.d_w * lap
        rng = np.random.default_rng(7)
        for k in range(4):
            v = rng.uniform(0.0, 4.0, n) if k != 1 else np.zeros(n)
            w = rng.uniform(0.0, 1.8, n) if k != 2 else np.zeros(n)
            ref = np.block([
                [mv + np.diag(2.0 * v * w - params.B), np.diag(v * v)],
                [np.diag(-2.0 * v * w), mw - np.diag(v * v + 1.0)]])
            for i in pinned:
                ref[i, :] = 0.0
                ref[i, i] = 1.0
            got = sr.jacobian(sr.restrict(np.r_[v, w]), 1.8)
            # int64 views compare bit patterns, so signed zeros count too
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def _random_sr(variant, d_w, n, laplace):
    grid = make_grid(25.0, n)
    kernel = laplace if variant == "nonlocal" else None
    ops = build_operators(grid, variant, kernel)
    return StationaryResidual(ops, ModelParams(1.8, 0.45, 2.0, d_w))


@pytest.mark.parametrize("variant", ["nonlocal", "local"])
def test_free_biomass_unknowns_are_the_operators_free_nodes(variant,
                                                            laplace):
    sr = _random_sr(variant, 0.1, 9, laplace)
    free = np.zeros(9, dtype=bool)
    free[sr.ops.free_v] = True
    assert np.array_equal(sr.free_mask()[:9], free)


class TestReflection:
    """The even half grid against the full grid at symmetric states."""

    @pytest.fixture(params=[("nonlocal", "laplace"),
                            ("nonlocal", "super_gaussian"), ("local", "")])
    def variant_family(self, request):
        return request.param

    @pytest.fixture(params=[12, 15, 75])
    def pair(self, request, variant_family):
        n = request.param
        variant, family = variant_family
        kernel = builtin_kernel(family) if family else None
        ops = build_operators(make_grid(n / 3.0, n), variant, kernel)
        params = ModelParams(1.8, 0.45, 2.0, 0.1)
        even = StationaryResidual(ops, params, parity=1)
        rng = np.random.default_rng(n)
        u = even.reduction.expand(np.vstack([
            rng.uniform(0.0, 4.0, even.n_nodes),
            rng.uniform(0.0, 1.8, even.n_nodes)])).reshape(-1)
        return StationaryResidual(ops, params), even, u

    def test_expand_restrict_is_the_identity(self, pair):
        full, even, u = pair
        assert even.n_unknowns == full.n_unknowns == u.size
        np.testing.assert_allclose(even.expand(even.restrict(u)), u,
                                   rtol=1e-15, atol=0.0)

    def test_residual_norm_is_the_full_grids(self, pair):
        full, even, u = pair
        want = full.residual(u, 1.8)
        got = even.residual(even.restrict(u), 1.8)
        norm = np.linalg.norm(want)
        assert abs(np.linalg.norm(got) - norm) <= 1e-13 * norm
        assert np.abs(even.expand(got) - want).max() <= 1e-13 * norm
        assert np.array_equal(even.expand(even.d_dA(u, 1.8)),
                              full.d_dA(u, 1.8))

    def test_parity_blocks_hold_the_full_free_spectrum(self, pair):
        full, even, u = pair
        free = full.free_mask()
        want = np.linalg.eigvals(full.jacobian(u, 1.8)[np.ix_(free, free)])
        got = []
        for block, x in even.parity_blocks(even.restrict(u)):
            mask = block.free_mask()
            got.extend(np.linalg.eigvals(
                block.jacobian(x, 1.8)[np.ix_(mask, mask)]))
        assert len(got) == want.size
        scale = np.abs(want).max()
        for lam in got:               # match each to its nearest, once
            k = np.argmin(np.abs(want - lam))
            assert abs(want[k] - lam) <= 1e-12 * scale
            want = np.delete(want, k)

    def test_bordered_solve_is_the_full_grids(self, pair):
        full, even, u = pair
        rng = np.random.default_rng(1)
        tangent = even.reduction.expand(
            rng.normal(size=(2, even.n_nodes))).reshape(-1)
        rhs = np.r_[full.residual(u, 1.8), 0.7]
        want = full.bordered_solve(u, 1.8, full.d_dA(u, 1.8), tangent, 0.3,
                                   rhs)
        r = even.restrict(tangent)
        got = even.bordered_solve(even.restrict(u), 1.8, even.d_dA(u, 1.8),
                                  r, 0.3, np.r_[even.restrict(rhs[:-1]),
                                                0.7])
        assert got[-1] == pytest.approx(want[-1], rel=1e-10)
        np.testing.assert_allclose(even.expand(got[:-1]), want[:-1],
                                   rtol=0.0,
                                   atol=1e-10 * np.abs(want).max())


def _one_ulp_traces(variant, family):
    """Vegetated d_w = 0.1 traces on the even half grid from the cosine
    seed and from the seed moved up by one ulp."""
    grid = make_grid(25.0, 75)
    ops = build_operators(grid, variant,
                          builtin_kernel(family) if family else None)
    sr = StationaryResidual(ops, ModelParams(3.0, 0.45, 2.0, 0.1), parity=1)
    v0, w0 = cosine_perturbed_start(grid, 3.0, 0.45)
    branches = []
    for v in (v0, np.nextafter(v0, np.inf)):
        start = initial_state(ops, v, w0)
        u0, _ = solve_stationary(sr, 3.0, sr.restrict(np.r_[start.v,
                                                            start.w]),
                                 tol=1e-10)
        branches.append(palc_continue(sr, 3.0, (0.1, 3.0), u0,
                                      PalcControls()))
    return branches


@pytest.mark.parametrize("variant, family", [("nonlocal", "laplace"),
                                             ("nonlocal", "super_gaussian"),
                                             ("local", "")])
def test_trace_past_the_fold_does_not_depend_on_rounding(variant, family):
    # On the full grid rounding excites the odd slide mode past the first
    # fold, and a one-ulp change of the seed changed the point count.
    first, second = _one_ulp_traces(variant, family)
    assert first.folds and first.termination == "parameter_exit"
    assert len(first.points) == len(second.points)
    gap = max(abs(p.A - q.A) for p, q in zip(first.points, second.points))
    assert gap <= 1e-8


class TestBorderedSolve:
    """The bordered solve against a dense solve of the bordered Jacobian
    assembled from ``jacobian``."""

    @pytest.mark.parametrize("n", [3, 4, 9, 75, 150])
    @pytest.mark.parametrize("d_w", [0.1, 80.0])
    @pytest.mark.parametrize("variant", ["nonlocal", "local"])
    def test_matches_dense_bordered_solve(self, variant, d_w, n, laplace):
        sr = _random_sr(variant, d_w, n, laplace)
        rng = np.random.default_rng(n)
        size = sr.n_unknowns
        u = np.concatenate([rng.uniform(0.0, 4.0, n),
                            rng.uniform(0.0, 1.8, n)])
        # dF/dA, then a column with vegetation entries as dF/dL has; every
        # column, row and right-hand side has nonzero pinned-row entries
        # except dF/dA, which is zero there
        cols = [sr.d_dA(u, 1.8), rng.normal(size=size)]
        for col in cols:
            row = rng.normal(size=size)
            corner = float(rng.normal())
            rhs = rng.normal(size=size + 1)
            dense = np.block([[sr.jacobian(u, 1.8), col[:, None]],
                              [row[None, :], np.array([[corner]])]])
            ref = np.linalg.solve(dense, rhs)
            got = sr.bordered_solve(u, 1.8, col, row, corner, rhs)
            assert got.shape == ref.shape
            assert (np.linalg.norm(got - ref)
                    <= 1e-10 * np.linalg.norm(ref))

    @pytest.mark.parametrize("variant", ["nonlocal", "local"])
    def test_inputs_untouched_and_result_fresh(self, variant, laplace):
        sr = _random_sr(variant, 80.0, 9, laplace)
        rng = np.random.default_rng(5)
        u = np.concatenate([rng.uniform(0.0, 4.0, 9),
                            rng.uniform(0.0, 1.8, 9)])
        col, row = rng.normal(size=18), rng.normal(size=18)
        rhs = rng.normal(size=19)
        inputs = [x.copy() for x in (u, col, row, rhs)]
        first = sr.bordered_solve(u, 1.8, col, row, 0.5, rhs)
        second = sr.bordered_solve(u, 1.8, col, row, 0.5, rhs)
        for before, after in zip(inputs, (u, col, row, rhs)):
            assert np.array_equal(before, after)
        assert np.array_equal(first, second)
        assert first is not second and not np.shares_memory(first, second)

    def test_d_dA_is_constant_and_read_only(self, laplace):
        sr = _random_sr("nonlocal", 0.1, 9, laplace)
        d = sr.d_dA(np.zeros(18), 1.8)
        assert d is sr.d_dA(np.ones(18), 0.5)
        assert np.array_equal(d, np.r_[np.zeros(10), np.ones(7), 0.0])
        with pytest.raises(ValueError):
            d[0] = 1.0

    def test_zero_border_is_the_newton_step(self, laplace):
        sr = _random_sr("nonlocal", 0.1, 75, laplace)
        rng = np.random.default_rng(3)
        u = np.concatenate([rng.uniform(0.0, 4.0, 75),
                            rng.uniform(0.0, 1.8, 75)])
        r = rng.normal(size=sr.n_unknowns)
        zero = np.zeros(sr.n_unknowns)
        got = sr.bordered_solve(u, 1.8, zero, zero, 1.0, np.append(r, 0.0))
        ref = np.linalg.solve(sr.jacobian(u, 1.8), r)
        assert got[-1] == 0.0
        assert np.linalg.norm(got[:-1] - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [3, 4, 9, 75])
    @pytest.mark.parametrize("d_w", [0.1, 80.0])
    @pytest.mark.parametrize("variant", ["nonlocal", "local"])
    def test_free_inverse_matches_dense_solve(self, variant, d_w, n,
                                              laplace):
        sr = _random_sr(variant, d_w, n, laplace)
        rng = np.random.default_rng(n)
        u = np.concatenate([rng.uniform(0.0, 4.0, n),
                            rng.uniform(0.0, 1.8, n)])
        free = sr.free_mask()
        j_free = sr.jacobian(u, 1.8)[np.ix_(free, free)]
        action, order = sr.free_inverse(u, 1.8)
        assert order == len(j_free)
        x = rng.normal(size=order)
        ref = np.linalg.solve(j_free, x)
        assert np.linalg.norm(action(x) - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.fixture(scope="module")
def vegetated_branch(habitat_sr):
    sr = habitat_sr
    grid = sr.ops.grid
    eq = vegetated_equilibrium(3.0, 0.45)
    profile = np.cos(np.pi * grid.nodes / (2 * grid.half_width))
    guess = sr.restrict(np.r_[eq.v_star * (1 + 0.01 * profile),
                              np.full(grid.n_nodes, eq.w_star)])
    u, _ = solve_stationary(sr, 3.0, guess, tol=1e-10)
    return palc_continue(sr, 3.0, (0.1, 3.0), u, PalcControls(), label="veg")


class TestHabitatContinuation:

    def test_fold_near_kinetic_threshold(self, vegetated_branch):
        assert vegetated_branch.folds
        assert 0.85 <= vegetated_branch.folds[0].A <= 1.00

    def test_all_points_reverify_residual(self, habitat_sr,
                                          vegetated_branch):
        for pt in vegetated_branch.points:
            res = np.linalg.norm(habitat_sr.residual(pt.snapshot, pt.A))
            assert res <= 1e-10

    def test_biomass_floor_along_branch(self, vegetated_branch):
        for pt in vegetated_branch.points:
            if pt.max_v > 0.01:
                assert pt.max_v >= 0.45 / pt.A

    def test_tangent_flips_match_folds(self, vegetated_branch):
        tangents = [pt.tangent_A for pt in vegetated_branch.points]
        flips = sum(1 for a, b in zip(tangents, tangents[1:]) if a * b < 0)
        assert flips == len(vegetated_branch.folds)

    def test_desert_branch_spans_range_with_zero_biomass(self, habitat_sr):
        sr = habitat_sr
        grid = sr.ops.grid
        w0 = solve_water_stationary(np.zeros(grid.n_nodes), sr.params, grid)
        u0, _ = solve_stationary(
            sr, 3.0, sr.restrict(np.r_[np.zeros(grid.n_nodes), w0]),
            tol=1e-10)
        branch = palc_continue(sr, 3.0, (0.1, 3.0), u0, PalcControls(),
                               label="desert")
        As = [pt.A for pt in branch.points]
        assert branch.termination == "parameter_exit"
        assert min(As) < 0.1
        assert max(pt.max_v for pt in branch.points) <= 1e-8

    def test_point_cap_termination(self, habitat_sr):
        sr = habitat_sr
        grid = sr.ops.grid
        w0 = solve_water_stationary(np.zeros(grid.n_nodes), sr.params, grid)
        u0, _ = solve_stationary(
            sr, 3.0, sr.restrict(np.r_[np.zeros(grid.n_nodes), w0]),
            tol=1e-10)
        branch = palc_continue(sr, 3.0, (0.1, 3.0), u0,
                               PalcControls(point_cap=5))
        assert branch.termination == "point_cap"
        assert len(branch.points) == 5


class TestStabilityFlag:
    def test_desert_stable_below_threshold(self, bif_ops_laplace):
        params = ModelParams(0.5, 0.45, 2.0, 0.1)
        sr = StationaryResidual(bif_ops_laplace, params)
        grid = sr.ops.grid
        w0 = solve_water_stationary(np.zeros(grid.n_nodes), params, grid)
        u, _ = solve_stationary(
            sr, 0.5, sr.restrict(np.r_[np.zeros(grid.n_nodes), w0]),
            tol=1e-10)
        assert stability_flag(sr, 0.5, u).stable is True

    @pytest.fixture()
    def branch_points_at_1_8(self, habitat_sr, vegetated_branch):
        # harvest one point per side of the fold and polish both at the
        # same rainfall; the post-fold side is the middle branch
        sr = habitat_sr
        fold_idx = vegetated_branch.folds[0].after_index
        before = [pt for pt in vegetated_branch.points[:fold_idx + 1]]
        after = [pt for pt in vegetated_branch.points[fold_idx + 1:]]
        out = {}
        for name, pts in (("upper", before), ("middle", after)):
            seed = min(pts, key=lambda pt: abs(pt.A - 1.8))
            u, _ = solve_stationary(sr, 1.8, seed.snapshot, tol=1e-10)
            out[name] = u
        upper_v = out["upper"][:sr.n_nodes]
        middle_v = out["middle"][:sr.n_nodes]
        assert upper_v.max() > 2.0
        assert middle_v.max() < 1.0
        return sr, out

    def test_upper_branch_stable(self, branch_points_at_1_8):
        sr, pts = branch_points_at_1_8
        assert stability_flag(sr, 1.8, pts["upper"]).stable is True
        assert rightmost_eigenvalue_dense(sr, 1.8, pts["upper"]) < 0

    def test_middle_branch_unstable(self, branch_points_at_1_8):
        sr, pts = branch_points_at_1_8
        assert stability_flag(sr, 1.8, pts["middle"]).stable is False
        assert rightmost_eigenvalue_dense(sr, 1.8, pts["middle"]) > 0

    def test_middle_branch_instability_confirmed_by_dynamics(
            self, branch_points_at_1_8, bif_ops_laplace):
        # perturb-and-simulate oracle: the trajectory leaves the snapshot
        sr, pts = branch_points_at_1_8
        grid = sr.ops.grid
        v, w = sr.split(pts["middle"])
        params = ModelParams(1.8, 0.45, 2.0, 0.1)
        state = initial_state(bif_ops_laplace, v * 1.01, w.copy())
        out, _ = simulate_horizon(state, bif_ops_laplace, params,
                                  h_t=1e-2, t_final=20.0)
        gap0 = 0.01 * float(np.abs(v).max())
        assert np.max(np.abs(out.v - v)) > 10.0 * gap0


class TestArnoldiFlag:
    """The shift-invert Arnoldi flag against the dense eigensolve."""

    @staticmethod
    def _check_stride_25(variant, d_w, parity, tol, bif_suite, bif_grid,
                         laplace):
        kernel = laplace if variant == "nonlocal" else None
        ops = build_operators(bif_grid, variant, kernel)
        params = ModelParams(3.0, 0.45, 2.0, d_w)
        full = StationaryResidual(ops, params)
        sr = StationaryResidual(ops, params, parity)
        runs = [r for r in bif_suite.runs if r.variant == variant
                and r.kernel in ("laplace", "") and r.d_w == d_w]
        assert len(runs) == 2                  # vegetated and desert
        unstable = 0
        for run in runs:
            points = run.branch.points
            for pt in points[::25] + points[-1:]:
                got = stability_flag(sr, pt.A, sr.restrict(pt.snapshot))
                ref = rightmost_eigenvalue_dense(full, pt.A, pt.snapshot)
                assert got.stable == (ref < STABLE_BELOW), (run.branch.label,
                                                              pt.index)
                assert abs(got.rightmost - ref) <= tol, (run.branch.label,
                                                         pt.index)
                assert got.rightmost == max(got.parts)
                assert len(got.parts) == 1 + parity
                unstable += not got.stable
        assert unstable > 0

    @pytest.mark.slow
    @pytest.mark.parametrize("d_w", [0.1, 80.0])
    @pytest.mark.parametrize("variant", ["nonlocal", "local"])
    def test_matches_dense_oracle_at_stride_25(self, variant, d_w,
                                               bif_suite, bif_grid, laplace):
        # past the fold the full free Jacobian is near singular (the odd
        # slide mode), and its Arnoldi eigenvalue is good to about 5e-8
        self._check_stride_25(variant, d_w, 0, 1e-6, bif_suite, bif_grid,
                              laplace)

    @pytest.mark.slow
    @pytest.mark.parametrize("d_w", [0.1, 80.0])
    @pytest.mark.parametrize("variant", ["nonlocal", "local"])
    def test_parity_blocks_match_dense_oracle_at_stride_25(
            self, variant, d_w, bif_suite, bif_grid, laplace):
        # the suite's flags: the even and odd blocks on the half grid
        self._check_stride_25(variant, d_w, 1, 1e-8, bif_suite, bif_grid,
                              laplace)

    def test_finds_odd_rightmost_mode_of_symmetric_matrix(self):
        # Reflection-symmetric J built on the cosine modes
        # cos(pi k (i + 1/2) / n), even in i for even k and odd for odd k.
        # The constant mode k = 0 holds the eigenvalue nearest zero and the
        # odd mode k = 1 the rightmost one.
        n = 40
        k = np.arange(n)
        modes = np.cos(np.pi * np.outer(k + 0.5, k) / n)
        modes /= np.linalg.norm(modes, axis=0)
        lam = -0.5 - 0.1 * k
        lam[0] = -0.01
        lam[1] = 0.3
        j = modes @ np.diag(lam) @ modes.T
        assert np.allclose(j[::-1, ::-1], j, atol=1e-14)
        assert np.allclose(modes[::-1, 1], -modes[:, 1])
        inv = np.linalg.inv(j)

        class Symmetric:
            def parity_blocks(self, u):
                return [(self, u)]

            def free_inverse(self, u, A):
                return (lambda x: inv @ x), n

        got = stability_flag(Symmetric(), 0.0, None)
        assert got.stable is False
        assert abs(got.rightmost - 0.3) <= 1e-10
        # a constant start is an eigenvector here: the basis stops at one
        # vector and the flag would read stable
        mu, _, dim, _ = arnoldi_rightmost(lambda x: inv @ x, n, FLAG_RES_TOL,
                                          select=_rightmost_inverse(n))
        assert dim == 1
        assert abs(1.0 / mu - (-0.01)) <= 1e-10

    def test_singular_jacobian_is_flagged_unstable(self):
        class Singular:
            def parity_blocks(self, u):
                return [(self, u)]

            def free_inverse(self, u, A):
                raise SingularJacobian("free Jacobian singular")

        got = stability_flag(Singular(), 0.0, None)
        assert got.stable is False
        assert math.isnan(got.rightmost) and got.krylov_dim == 0
