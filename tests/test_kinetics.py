import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import water_profile_oracle
from vegpatch import kinetics
from vegpatch.cli import main
from vegpatch.discretization import make_grid
from vegpatch.errors import WaterBoundViolated
from vegpatch.kinetics import (ModelParams, constant_steady_states,
                               solve_water_stationary, uniform_water_layer,
                               vegetated_equilibrium)


def cubic_residual(v, A, B):
    return -B * v**3 + A * v**2 - B * v


class TestConstantSteadyStates:
    def test_three_states_above_threshold(self):
        states = constant_steady_states(1.8, 0.45)
        # desert, lower and upper: v = 0 and the roots 2 -+ sqrt(3) of
        # v^2 - (A / B) v + 1
        assert [s.v_star for s in states] == pytest.approx(
            [0.0, 2.0 - math.sqrt(3.0), 2.0 + math.sqrt(3.0)], abs=1e-12)
        v3 = states[-1]
        assert v3.v_star == pytest.approx(2.0 + math.sqrt(3.0), abs=1e-12)
        assert v3.w_star == pytest.approx(0.120577, abs=1e-6)
        for s in states:
            assert abs(cubic_residual(s.v_star, 1.8, 0.45)) <= 1e-12

    def test_merged_state_at_threshold(self):
        states = constant_steady_states(0.9, 0.45)
        assert [s.v_star for s in states] == [0.0, 1.0]
        assert states[-1].v_star == 1.0
        assert states[-1].w_star == 0.45

    def test_desert_only_below_threshold(self):
        states = constant_steady_states(0.8, 0.45)
        assert len(states) == 1
        assert states[0].v_star == 0.0 and states[0].w_star == 0.8

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.01, 50.0), st.floats(0.01, 20.0))
    def test_states_satisfy_kinetic_equations(self, A, B):
        states = constant_steady_states(A, B)
        expected = 1 if A < 2 * B else (2 if A == 2 * B else 3)
        assert len(states) == expected
        for s in states:
            scale = max(1.0, s.v_star, s.w_star) ** 3
            assert abs(s.v_star**2 * s.w_star - B * s.v_star) <= 1e-10 * scale
            assert abs(-s.v_star**2 * s.w_star - s.w_star + A) <= 1e-10 * scale

    def test_vegetated_equilibrium_requires_threshold(self):
        with pytest.raises(ValueError):
            vegetated_equilibrium(0.8, 0.45)


class TestWaterSolve:
    def test_desert_profile_matches_analytic_solution(self, default_params):
        grid = make_grid(25.0, 401)
        w = solve_water_stationary(np.zeros(grid.n_nodes), default_params, grid)
        oracle = water_profile_oracle(grid.nodes, 25.0, 1.8, 0.1)
        assert np.max(np.abs(w - oracle)) < 0.3 * grid.spacing**2
        assert w[grid.n_nodes // 2] == pytest.approx(1.8, abs=1e-6)

    def test_second_order_convergence(self, default_params):
        # levels must resolve the sqrt(d_w) boundary layer for the
        # asymptotic rate to show
        errs = []
        for n in (201, 401, 801):
            grid = make_grid(25.0, n)
            w = solve_water_stationary(np.zeros(grid.n_nodes),
                                       default_params, grid)
            oracle = water_profile_oracle(grid.nodes, 25.0, 1.8, 0.1)
            errs.append(np.max(np.abs(w - oracle)))
        assert math.log2(errs[0] / errs[1]) >= 1.9
        assert math.log2(errs[1] / errs[2]) >= 1.9

    def test_uniform_biomass_tracks_kinetic_water_for_small_diffusion(self):
        # Sup over the open habitat: the two edge nodes carry the pinned
        # zero value for every d_w, so they are excluded from the gap.
        grid = make_grid(25.0, 401)
        eq = vegetated_equilibrium(1.8, 0.45)
        v = np.full(grid.n_nodes, eq.v_star)
        gaps = []
        for d_w in (1e-1, 1e-2, 1e-3, 1e-4):
            params = ModelParams(1.8, 0.45, 2.0, d_w)
            w = solve_water_stationary(v, params, grid)
            gaps.append(np.max(np.abs(w[1:-1] - eq.w_star)))
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-4

    def test_linear_in_rainfall(self):
        # Proportionality in A; zero rainfall would give the zero profile.
        grid = make_grid(10.0, 201)
        rng = np.random.default_rng(11)
        v = rng.uniform(0.0, 3.0, grid.n_nodes)
        w1 = solve_water_stationary(v, ModelParams(0.7, 0.45, 2.0, 0.1), grid)
        w2 = solve_water_stationary(v, ModelParams(1.4, 0.45, 2.0, 0.1), grid)
        assert np.allclose(w2, 2.0 * w1, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.2, 5.0))
    def test_maximum_principle(self, seed, A):
        grid = make_grid(8.0, 101)
        rng = np.random.default_rng(seed)
        v = rng.uniform(0.0, 4.0, grid.n_nodes)
        params = ModelParams(A, 0.45, 2.0, 0.1)
        w = solve_water_stationary(v, params, grid)
        assert w.min() >= -1e-10
        assert w.max() <= A + 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_lipschitz_bound_in_biomass(self, seed):
        # ||W(v1) - W(v2)||_inf <= 2 A R ||v1 - v2||_inf on the radius-R ball.
        grid = make_grid(8.0, 101)
        rng = np.random.default_rng(seed)
        radius = 3.0
        params = ModelParams(1.8, 0.45, 2.0, 0.1)
        v1 = rng.uniform(0.0, radius, grid.n_nodes)
        v2 = rng.uniform(0.0, radius, grid.n_nodes)
        w1 = solve_water_stationary(v1, params, grid)
        w2 = solve_water_stationary(v2, params, grid)
        gap = np.max(np.abs(w1 - w2))
        assert gap <= 2.0 * params.A * radius * np.max(np.abs(v1 - v2)) + 1e-12

    def test_rejects_negative_biomass(self, default_params):
        grid = make_grid(5.0, 51)
        with pytest.raises(ValueError):
            solve_water_stationary(np.full(grid.n_nodes, -0.1),
                                   default_params, grid)

    @pytest.mark.parametrize("level", [-0.01, 2.5, math.nan])
    def test_out_of_range_profile_is_a_typed_error(self, level, monkeypatch,
                                                   tmp_path, default_params):
        # the bound check must survive python -O, and the CLI maps it to 3
        monkeypatch.setattr(kinetics, "thomas_solve",
                            lambda off, diag, rhs:
                            np.full(diag.shape[0], level))
        grid = make_grid(5.0, 51)
        with pytest.raises(WaterBoundViolated):
            solve_water_stationary(np.zeros(grid.n_nodes), default_params,
                                   grid)
        monkeypatch.setenv("VEGPATCH_OUT", str(tmp_path))
        assert main(["steady", "--init", "desert", "--L", "5"]) == 3


def node_profiles(layer, n_nodes):
    """(N, levels) profiles from uniform_water_layer's rows.

    Row j stands for nodes j and n - j; nodes deeper than the last row take
    the last row, the plateau; the boundary nodes hold 0.
    """
    n = n_nodes - 1
    depth = np.minimum(np.arange(n + 1), n - np.arange(n + 1))
    w = layer[np.minimum(depth, len(layer)) - 1]
    w[0] = w[-1] = 0.0
    return w


LAYER_LEVELS = np.linspace(0.0, 3.4, 9)


@pytest.mark.parametrize("d_w", [1e-4, 0.1, 80.0, 1e6])
@pytest.mark.parametrize("n_nodes", [3, 4, 41, 1281])   # n even and odd
class TestUniformWaterLayer:
    def test_matches_thomas_level_by_level(self, n_nodes, d_w):
        params = ModelParams(1.8, 0.45, 2.0, d_w)
        grid = make_grid(10.0, n_nodes)
        w = node_profiles(uniform_water_layer(LAYER_LEVELS, params, grid),
                          n_nodes)
        # Thomas elimination's own rounding grows with the condition number
        # 1 + 4 d_w / h^2; at d_w = 80 on 1,281 nodes it reaches 5e-12 * A
        kappa = 1.0 + 4.0 * d_w / grid.spacing ** 2
        tol = max(1e-13, np.finfo(float).eps * kappa) * params.A
        for k, level in enumerate(LAYER_LEVELS):
            ref = solve_water_stationary(np.full(n_nodes, level), params, grid)
            assert np.abs(w[:, k] - ref).max() <= tol

    def test_discrete_residual_is_a_few_ulp(self, n_nodes, d_w):
        params = ModelParams(1.8, 0.45, 2.0, d_w)
        grid = make_grid(10.0, n_nodes)
        w = node_profiles(uniform_water_layer(LAYER_LEVELS, params, grid),
                          n_nodes)
        c = LAYER_LEVELS ** 2 + 1.0
        a = d_w / grid.spacing ** 2
        resid = a * (w[:-2] - 2.0 * w[1:-1] + w[2:]) - c * w[1:-1] + params.A
        scale = (4.0 * a + c) * params.A / c
        assert np.all(np.abs(resid) <= 4.0 * np.finfo(float).eps * scale)


def test_uniform_water_layer_plateau_is_bitwise_the_full_closed_form(
        default_params):
    grid = make_grid(32.0, 1281)    # the widest spectral_simulate grid
    levels = np.linspace(0.0, 3.4, 401)
    layer = uniform_water_layer(levels, default_params, grid)
    n = grid.n_nodes - 1
    assert len(layer) < n // 2    # the layer is truncated at this width
    c = levels * levels + 1.0
    q = c * (grid.spacing ** 2 / default_params.d_w)
    theta = np.log1p(q / 2.0 + np.sqrt(q + q * q / 4.0))
    rows = np.arange(n + 1)
    full = (np.expm1(np.multiply.outer(rows, -theta))
            * np.expm1(np.multiply.outer(n - rows, -theta))
            * (default_params.A / c / (1.0 + np.exp(-n * theta))))
    assert np.array_equal(node_profiles(layer, grid.n_nodes), full)


def test_uniform_water_layer_rejects_negative_levels(default_params):
    with pytest.raises(ValueError):
        uniform_water_layer(np.array([0.0, -0.1]), default_params,
                            make_grid(5.0, 51))


class TestReactionAndScalarF:
    def test_equilibrium_annihilates_reactions(self, default_params):
        eq = vegetated_equilibrium(1.8, 0.45)
        v, w = eq.v_star, eq.w_star
        assert abs(v * v * w - default_params.B * v) <= 1e-12
        assert abs(default_params.A - w - v * v * w) <= 1e-12

    def test_merged_state_is_equilibrium(self):
        A, B = 0.9, 0.45
        desert, merged = constant_steady_states(A, B)
        assert desert.v_star == 0.0 and merged.v_star == 1.0
        v, w = merged.v_star, merged.w_star
        assert abs(v * v * w - B * v) <= 1e-15
        assert abs(A - w - v * v * w) <= 1e-15

    def test_scalar_f_vanishes_on_bare_soil(self, default_params):
        grid = make_grid(10.0, 101)
        v = np.zeros(grid.n_nodes)
        f = (v * v * solve_water_stationary(v, default_params, grid)
             - default_params.B * v)
        assert np.array_equal(f, np.zeros(grid.n_nodes))

    def test_scalar_f_small_at_equilibrium_for_small_diffusion(self):
        # interior sup (open habitat), as for the water gap above
        grid = make_grid(25.0, 401)
        eq = vegetated_equilibrium(1.8, 0.45)
        v = np.full(grid.n_nodes, eq.v_star)
        norms = []
        for d_w in (1e-2, 1e-4):
            params = ModelParams(1.8, 0.45, 2.0, d_w)
            f = v * v * solve_water_stationary(v, params, grid) - params.B * v
            norms.append(np.max(np.abs(f[1:-1])))
        assert norms[1] < norms[0]
        assert norms[1] < 1e-2

    def test_scalar_f_negative_below_lower_branch(self, default_params):
        # Dense sampling of the zero-diffusion limit A v^2/(v^2+1) - B v
        # shows it is negative for v between 0 and the lower equilibrium;
        # the finite-diffusion field is bounded above by that limit.
        A, B = default_params.A, default_params.B
        level = B / A
        v_dense = np.linspace(1e-9, level, 20_001)
        limit = A * v_dense**2 / (v_dense**2 + 1.0) - B * v_dense
        assert limit.max() < 0.0
        grid = make_grid(10.0, 201)
        v = np.full(grid.n_nodes, level)
        f = v * v * solve_water_stationary(v, default_params, grid) - B * v
        assert f.max() < 0.0
