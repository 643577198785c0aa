import numpy as np
import pytest

import diagnostics
from diagnostics import (EnvelopeViolated, extinction_decay_check,
                         perturbation_decay)
from vegpatch.continuation import StationaryResidual, solve_stationary
from vegpatch.discretization import Reduction, build_operators, make_grid
from vegpatch.dynamics import (BLOWUP_LIMIT, IMEX_STEP, RK4_STEP, STEADY_TOL,
                               BatchCell, State, _imex, _make_rhs,
                               initial_state, run_to_steady,
                               run_to_steady_batch, simulate_horizon,
                               stable_step)
from vegpatch.errors import AsymmetricStart, Blowup, UnstableTimestep
from vegpatch.experiments import (VARIANTS, builtin_kernel,
                                  cosine_perturbed_start, fast_sweep_config,
                                  sweep_resolution)
from vegpatch.kinetics import (ModelParams, solve_water_stationary,
                               vegetated_equilibrium, water_bands)
from vegpatch.tridiag import thomas_solve


def _stepper(ops, params, parity=0):
    """(reduction, rhs, IMEX update) of the steady-state driver on the node
    vectors of the parity, each with its own folded transport."""
    red = Reduction(ops.grid.n_nodes, parity)

    def transport():
        return red.fold(ops.vegetation_transport(params.d_v))
    return (red, _make_rhs(ops, params, red, transport()),
            _imex(ops, params, red, transport()))


def _full_rhs(ops, params):
    return _stepper(ops, params)[1]


@pytest.fixture(scope="module")
def small_ops(laplace):
    return build_operators(make_grid(10.0, 129), "nonlocal", laplace)


@pytest.mark.parametrize("variant", ["nonlocal", "local"])
def test_initial_state_zeroes_biomass_outside_free_nodes(variant, laplace):
    ops = build_operators(make_grid(10.0, 41), variant,
                          laplace if variant == "nonlocal" else None)
    state = initial_state(ops, np.full(41, 2.0), np.full(41, 1.0))
    free = np.zeros(41, dtype=bool)
    free[ops.free_v] = True
    assert np.array_equal(state.v != 0.0, free)
    assert np.array_equal(state.w[[0, -1]], [0.0, 0.0])


def test_bare_soil_single_step(small_ops, default_params):
    # v = 0 stays put and water solves w' = W w + A on the free nodes, with
    # W = d_w Lap - I and pinned rows zero; one RK4 step from w = 0 is the
    # Taylor polynomial (h + h^2 W / 2 + h^3 W^2 / 6 + h^4 W^3 / 24) A
    n = small_ops.grid.n_nodes
    state = initial_state(small_ops, np.zeros(n), np.zeros(n))
    h_t, p = 1e-3, default_params
    out, _ = simulate_horizon(state, small_ops, p, h_t, h_t)
    water = p.d_w * small_ops.laplacian.dense() - np.eye(n)
    water[[0, -1]] = 0.0
    term = np.full(n, h_t * p.A)
    term[[0, -1]] = 0.0
    want = np.zeros(n)
    for k in range(1, 5):
        want += term
        term = h_t / (k + 1) * (water @ term)
    assert np.array_equal(out.v, np.zeros(n))
    assert np.allclose(out.w, want, rtol=1e-14, atol=0.0)
    assert out.w[0] == 0.0 and out.w[-1] == 0.0
    assert out.step_count == 1 and out.t == pytest.approx(h_t)


def test_uniform_equilibrium_barely_moves_in_deep_interior(default_params,
                                                           laplace):
    ops = build_operators(make_grid(60.0, 401), "nonlocal", laplace)
    eq = vegetated_equilibrium(1.8, 0.45)
    n = ops.grid.n_nodes
    state = initial_state(ops, np.full(n, eq.v_star), np.full(n, eq.w_star))
    h_t = 1e-4
    out, _ = simulate_horizon(state, ops, default_params, h_t, h_t)
    center = n // 2
    # interior change is h_t * d_v * (boundary leakage) which is far below
    # the kernel tail mass at 30 length units
    assert abs(out.v[center] - eq.v_star) < 1e-12


def test_timestep_guard_rejects_unstable_config(default_params):
    ops = build_operators(make_grid(1.0, 201), "local")
    with pytest.raises(UnstableTimestep):
        simulate_horizon(initial_state(ops, np.zeros(201), np.zeros(201)),
                         ops, default_params, h_t=1e-3, t_final=1e-3)


def test_blowup_reports_step_and_node(small_ops, default_params):
    n = small_ops.grid.n_nodes
    state = initial_state(small_ops, np.full(n, 9e5), np.full(n, 1.8))
    with pytest.raises(Blowup) as err:
        simulate_horizon(state, small_ops, default_params, 1e-2, 1e-2)
    assert err.value.step == 1
    assert 0 <= err.value.node < n


def test_steady_blowup_returns_step_and_node(small_ops, default_params):
    n = small_ops.grid.n_nodes
    state = initial_state(small_ops, np.full(n, 9e5), np.full(n, 1.8))
    result = run_to_steady(state, small_ops, default_params, tol=1e-3)
    err = result.blowup
    assert isinstance(err, Blowup) and not result.converged
    assert err.step == result.steps == result.state.step_count == 1
    # the first node past the limit in the state at the failing step
    v = result.state.v
    assert err.value == v[err.node] > BLOWUP_LIMIT
    assert np.all(np.abs(v[:err.node]) <= BLOWUP_LIMIT)


def test_batch_blowup_returns_failing_state(small_ops, default_params):
    n = small_ops.grid.n_nodes
    v0, w0 = np.full(n, 9e5), np.full(n, 1.8)
    (got,) = run_to_steady_batch(
        [BatchCell(small_ops, default_params, v0, w0)])
    assert got.blowup and not got.converged
    assert got.steps == got.state.step_count == 1
    # one implicit step from the start: P v1 = v0 + h v0^2 w0 with
    # P = (1 + h B) I - h d_v (K - I)
    start = initial_state(small_ops, v0, w0)
    h, p = IMEX_STEP, default_params
    mat = (1.0 + h * (p.B + p.d_v)) * np.eye(n) \
        - h * p.d_v * small_ops.dispersal.matrix
    want = np.linalg.solve(mat, start.v + h * start.v ** 2 * start.w)
    assert np.allclose(got.state.v, want, rtol=1e-10, atol=0.0)


def test_steady_convergence_to_uniform_state(default_params, laplace):
    ops = build_operators(make_grid(50.0, 401), "nonlocal", laplace)
    v0, w0 = cosine_perturbed_start(ops.grid, 1.8, 0.45)
    result = run_to_steady(initial_state(ops, v0, w0), ops, default_params,
                           tol=0.01)
    eq = vegetated_equilibrium(1.8, 0.45)
    avg = float(ops.grid.quad_weights @ result.state.v) / 100.0
    assert result.converged
    assert avg == pytest.approx(eq.v_star, rel=0.05)


def test_collapse_below_critical_width(default_params, laplace):
    ops = build_operators(make_grid(1.0, 127), "nonlocal", laplace)
    v0, w0 = cosine_perturbed_start(ops.grid, 1.8, 0.45)
    result = run_to_steady(initial_state(ops, v0, w0), ops, default_params,
                           tol=0.01)
    avg = float(ops.grid.quad_weights @ result.state.v) / 2.0
    assert result.converged
    assert avg < 0.1


def test_desert_initial_state_converges_immediately(small_ops,
                                                    default_params):
    grid = small_ops.grid
    w0 = solve_water_stationary(np.zeros(grid.n_nodes), default_params, grid)
    result = run_to_steady(initial_state(small_ops, np.zeros(grid.n_nodes), w0),
                           small_ops, default_params, tol=0.01)
    assert result.converged
    assert result.steps == 0


def test_invariant_region_and_water_bound(small_ops, default_params):
    grid = small_ops.grid
    w0 = solve_water_stationary(np.zeros(grid.n_nodes), default_params, grid)
    state = initial_state(small_ops, np.full(grid.n_nodes, 0.2), w0)
    result = run_to_steady(state, small_ops, default_params, tol=0.01,
                           trajectory_every=5)
    assert result.region_bound == pytest.approx(0.45 / 1.8)
    assert result.region_violations == 0
    # every step: columns (t, min v, max v, avg v, max w)
    steps = run_to_steady(state, small_ops, default_params, tol=0.01,
                          trajectory_every=1).trajectory
    assert len(steps) == result.steps + 1
    assert steps.max(axis=0)[2] <= result.region_bound + 1e-8
    assert steps.min(axis=0)[1] >= -1e-12
    assert steps.max(axis=0)[4] <= max(w0.max(), default_params.A) + 1e-8
    # every 5th step
    track = result.trajectory
    assert track.max(axis=0)[2] <= result.region_bound + 1e-8
    assert track.min(axis=0)[1] >= -1e-12
    assert track.max(axis=0)[4] <= max(w0.max(), default_params.A) + 1e-8


def test_trajectory_sampling(small_ops, default_params):
    grid = small_ops.grid
    w0 = solve_water_stationary(np.zeros(grid.n_nodes), default_params, grid)
    state = initial_state(small_ops, np.full(grid.n_nodes, 0.1), w0)
    result = run_to_steady(state, small_ops, default_params, tol=0.01,
                           trajectory_every=100)
    track = result.trajectory
    assert track is not None and track.shape[1] == 5
    assert track[0, 0] == 0.0
    assert np.all(np.diff(track[:, 0]) > 0)


def test_simulate_horizon_step_count(small_ops, default_params):
    grid = small_ops.grid
    state = initial_state(small_ops, np.zeros(grid.n_nodes),
                          np.zeros(grid.n_nodes))
    out, track = simulate_horizon(state, small_ops, default_params,
                                  h_t=1e-3, t_final=0.05, trajectory_every=10)
    assert out.step_count == 50
    assert track.shape[0] == 6


class TestExtinctionDecay:
    def test_subcritical_level_decays(self, default_params, laplace):
        ops = build_operators(make_grid(25.0, 129), "nonlocal", laplace)
        report = extinction_decay_check(default_params, ops, 0.2,
                                        h_t=1e-2, t_final=40.0)
        assert report.threshold == pytest.approx(0.25)
        assert np.all(report.max_v <= report.envelope + report.envelope_slack)
        assert report.final_max_v < 1e-3
        assert report.final_water_gap < 1e-3

    def test_zero_level_stays_zero(self, default_params, laplace):
        ops = build_operators(make_grid(25.0, 129), "nonlocal", laplace)
        report = extinction_decay_check(default_params, ops, 0.0,
                                        h_t=1e-3, t_final=2.0)
        assert np.all(report.max_v == 0.0)

    def test_interval_endpoint_never_exceeded(self, default_params, laplace):
        # at the endpoint the envelope is the constant threshold level
        ops = build_operators(make_grid(25.0, 129), "nonlocal", laplace)
        report = extinction_decay_check(default_params, ops, 0.25,
                                        h_t=1e-2, t_final=10.0)
        assert np.all(report.envelope == pytest.approx(0.25))
        assert np.all(report.max_v <= 0.25 + report.envelope_slack)

    def test_rejects_levels_above_interval(self, default_params, laplace):
        ops = build_operators(make_grid(25.0, 129), "nonlocal", laplace)
        with pytest.raises(ValueError):
            extinction_decay_check(default_params, ops, 0.3)

    def test_envelope_violation_raises(self, default_params, laplace):
        # a state starting at the interval endpoint but with extra water
        # above the bound used by the envelope must trip the check
        ops = build_operators(make_grid(25.0, 129), "nonlocal", laplace)
        grid = ops.grid

        template = diagnostics.decay_envelope

        def doctored(t, b, m, nu0):
            return template(t, b, m, nu0) - 0.01
        diagnostics.decay_envelope = doctored
        try:
            with pytest.raises(EnvelopeViolated):
                extinction_decay_check(default_params, ops, 0.24,
                                       h_t=1e-3, t_final=1.0)
        finally:
            diagnostics.decay_envelope = template


@pytest.mark.parametrize("variant", ["nonlocal", "local"])
def test_implicit_batch_reaches_stationary_state(variant, laplace):
    # a vegetated cell of the fast sweep, at its grid
    grid = make_grid(3.0, sweep_resolution(fast_sweep_config(), 3.0))
    params = ModelParams(1.8, 0.45, 2.0, 0.1)
    ops = build_operators(grid, variant,
                          laplace if variant == "nonlocal" else None)
    v0, w0 = cosine_perturbed_start(grid, 1.8, 0.45)
    (got,) = run_to_steady_batch([BatchCell(ops, params, v0, w0)])
    assert got.converged and not got.blowup
    assert got.state.t == got.steps * IMEX_STEP

    def mean(v):
        return float(grid.quad_weights @ v) / (2.0 * grid.half_width)

    # the stopping rule holds on the returned state
    rhs_v, rhs_w = _full_rhs(ops, params)(got.state.v, got.state.w)
    assert np.sqrt(rhs_v @ rhs_v + rhs_w @ rhs_w) < STEADY_TOL
    # Newton polishing barely moves it
    sr = StationaryResidual(ops, params)
    u, _ = solve_stationary(sr, 1.8,
                            sr.restrict(np.r_[got.state.v, got.state.w]),
                            tol=1e-10)
    assert abs(mean(sr.split(u)[0]) - mean(got.state.v)) < 2e-3


def test_implicit_step_stable_for_fast_dispersal(laplace):
    # d_v = 4 puts an explicit dispersal factor d_v h (1 + max row sum) far
    # above any explicit limit at h = IMEX_STEP; the implicit step needs
    # no cap
    grid = make_grid(3.0, 65)
    ops = build_operators(grid, "nonlocal", laplace)
    params = ModelParams(1.8, 0.45, 4.0, 0.1)
    v0, w0 = cosine_perturbed_start(grid, 1.8, 0.45)
    (got,) = run_to_steady_batch([BatchCell(ops, params, v0, w0)])
    assert got.converged and not got.blowup
    rhs_v, rhs_w = _full_rhs(ops, params)(got.state.v, got.state.w)
    assert np.sqrt(rhs_v @ rhs_v + rhs_w @ rhs_w) < STEADY_TOL


@pytest.mark.parametrize("variant", ["nonlocal", "local"])
def test_implicit_step_fixes_stationary_state(variant, laplace):
    # a Newton-polished stationary state is a fixed point of the step, on
    # the full grid and on the even half grid
    grid = make_grid(3.0, sweep_resolution(fast_sweep_config(), 3.0))
    params = ModelParams(1.8, 0.45, 2.0, 0.1)
    ops = build_operators(grid, variant,
                          laplace if variant == "nonlocal" else None)
    v0, w0 = cosine_perturbed_start(grid, 1.8, 0.45)
    (got,) = run_to_steady_batch([BatchCell(ops, params, v0, w0)])
    sr = StationaryResidual(ops, params)
    u, _ = solve_stationary(sr, 1.8,
                            sr.restrict(np.r_[got.state.v, got.state.w]),
                            tol=1e-10)
    v_star, w_star = sr.split(u)
    assert float(grid.quad_weights @ v_star) > 1.0   # vegetated
    for parity in (0, 1):
        red, rhs, advance = _stepper(ops, params, parity)
        v, w = red.restrict(v_star).copy(), red.restrict(w_star).copy()
        advance(v, w, *rhs(v, w))
        assert np.max(np.abs(red.expand(v) - v_star)) <= 1e-10
        assert np.max(np.abs(red.expand(w) - w_star)) <= 1e-10


def _even(u):
    """The mirror-even part of u: exactly even under x -> -x."""
    return 0.5 * (u + u[::-1])


def _ops(grid, variant, kernel_family):
    kernel = builtin_kernel(kernel_family) if kernel_family else None
    return build_operators(grid, variant, kernel)


# fast-preset widths: collapsed for every variant at 1.27, vegetated at 3.36
_FAST_L = fast_sweep_config().L_values


@pytest.mark.parametrize("variant,kernel_family", VARIANTS)
@pytest.mark.parametrize("L", [_FAST_L[2], _FAST_L[10]])
@pytest.mark.parametrize("n_nodes", [127, 128, 3, 4])
def test_half_grid_batch_matches_full_grid_run(variant, kernel_family, L,
                                               n_nodes):
    # the sweep's cell on the even half grid against run_to_steady on the
    # full grid: the same steps, and the same state to rounding
    cfg = fast_sweep_config()
    ops = _ops(make_grid(L, n_nodes), variant, kernel_family)
    params = ModelParams(cfg.A, cfg.B, cfg.d_v, cfg.d_w)
    v0, w0 = cosine_perturbed_start(ops.grid, cfg.A, cfg.B, cfg.perturbation)
    (half,) = run_to_steady_batch([BatchCell(ops, params, v0, w0)])
    full = run_to_steady(initial_state(ops, v0, w0), ops, params, STEADY_TOL)
    assert half.converged and full.converged
    assert half.steps == full.steps and half.state.step_count == full.steps
    assert half.state.t == full.state.t
    for got, want in ((half.state.v, full.state.v),
                      (half.state.w, full.state.w)):
        assert got.shape == (n_nodes,)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert half.residual == pytest.approx(full.residual, rel=1e-8)
    assert (half.region_bound, half.region_violations) == \
        (full.region_bound, full.region_violations)


@pytest.mark.parametrize("variant", ["nonlocal", "local"])
@pytest.mark.parametrize("n_nodes", [3, 4, 41, 42])
def test_half_grid_step_matches_full_grid_step(variant, n_nodes):
    # one IMEX step and the right-hand side from an even state: the half
    # grid's Thomas solve, with its centre row folded, and its stencil with
    # the mirror ghost give the full grid's values on the kept nodes
    ops = _ops(make_grid(3.0, n_nodes), variant,
               "laplace" if variant == "nonlocal" else "")
    params = ModelParams()
    rng = np.random.default_rng(n_nodes)
    start = initial_state(ops, _even(rng.uniform(0.0, 3.0, n_nodes)),
                          _even(rng.uniform(0.0, 2.0, n_nodes)))
    _, rhs, advance = _stepper(ops, params)
    red, rhs_half, advance_half = _stepper(ops, params, parity=1)
    v, w = start.v.copy(), start.w.copy()
    hv, hw = red.restrict(v).copy(), red.restrict(w).copy()
    full_f = np.concatenate(rhs(v, w))
    half_f = rhs_half(hv, hw)
    scale = np.abs(full_f).max()
    for got, want in zip(half_f, np.split(full_f, 2)):
        assert np.abs(got - red.restrict(want)).max() <= 1e-12 * scale
    # the multiplicities give the full grid's ||F||_2
    norm2 = sum(f.dot(red.weights * f) for f in half_f)
    assert norm2 == pytest.approx(full_f.dot(full_f), rel=1e-12)
    advance(v, w, *rhs(v, w))
    advance_half(hv, hw, *half_f)
    assert np.abs(red.expand(hv) - v).max() <= 1e-12 * np.abs(v).max()
    assert np.abs(red.expand(hw) - w).max() <= 1e-12 * np.abs(w).max()
    assert hw[-1] == 0.0


@pytest.mark.parametrize("n_nodes", [127, 128])
def test_half_grid_water_step_matches_full_thomas(n_nodes):
    # the water half of the step alone, with the biomass at v = 0: a single
    # Thomas solve of the full interior rows
    ops = build_operators(make_grid(3.0, n_nodes), "local")
    params = ModelParams()
    h = IMEX_STEP
    w0 = initial_state(ops, np.zeros(n_nodes),
                       _even(np.random.default_rng(3).uniform(0.0, 2.0,
                                                              n_nodes))).w
    off, diag = water_bands(np.zeros(n_nodes - 2), params, ops.grid, 1.0 / h)
    want = np.zeros(n_nodes)
    want[1:-1] = thomas_solve(off, diag, -params.A - w0[1:-1] / h)
    red, rhs, advance = _stepper(ops, params, parity=1)
    v, w = np.zeros(red.size), red.restrict(w0).copy()
    advance(v, w, *rhs(v, w))
    assert np.array_equal(v, np.zeros(red.size))
    assert np.abs(red.expand(w) - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("field", ["v", "w"])
def test_half_grid_rejects_a_start_that_is_not_even(small_ops, default_params,
                                                    field):
    n = small_ops.grid.n_nodes
    v0, w0 = cosine_perturbed_start(small_ops.grid, 1.8, 0.45)
    start = {"v": v0, "w": w0}

    def cell(node, factor):
        u = start[field].copy()
        u[node] *= factor
        return BatchCell(small_ops, default_params,
                         **{"v0": v0, "w0": w0, field + "0": u})

    # a mirror gap of 1e-13 relative passes, 1e-10 does not, nor a NaN
    (ok,) = run_to_steady_batch([cell(3, 1.0 + 1e-13)])
    assert ok.converged
    for node, factor in ((3, 1.0 + 1e-10), (n - 4, 1.0 - 1e-10),
                         (5, np.nan)):
        with pytest.raises(AsymmetricStart):
            run_to_steady_batch([cell(node, factor)])


@pytest.mark.parametrize("n_nodes", [128, 129])
def test_batch_blowup_node_is_a_full_grid_index(default_params, laplace,
                                                n_nodes):
    ops = build_operators(make_grid(10.0, n_nodes), "nonlocal", laplace)
    v0 = 9e5 * (1.0 + 0.1 * np.cos(np.pi * ops.grid.nodes / 20.0))
    (got,) = run_to_steady_batch(
        [BatchCell(ops, default_params, v0, np.full(n_nodes, 1.8))])
    err = got.blowup
    assert isinstance(err, Blowup) and err.step == got.steps == 1
    # the first node past the limit in the full-grid state: left of the
    # centre, where no half-grid index points
    v = got.state.v
    assert v.shape == (n_nodes,)
    assert err.value == v[err.node] > BLOWUP_LIMIT
    assert np.all(np.abs(v[:err.node]) <= BLOWUP_LIMIT)
    assert err.node < n_nodes // 2


def test_perturbation_decay_negative_slope(default_params, laplace):
    # converge first, then kick by 1% and watch the gap shrink log-linearly
    ops = build_operators(make_grid(10.0, 129), "nonlocal", laplace)
    v0, w0 = cosine_perturbed_start(ops.grid, 1.8, 0.45)
    settled = run_to_steady(initial_state(ops, v0, w0), ops, default_params,
                            tol=1e-3)
    assert settled.converged
    times, gaps, slope = perturbation_decay(
        ops, default_params, settled.state.v, settled.state.w,
        amplitude=0.01, h_t=1e-2, t_final=12.0)
    assert slope < -0.01
    assert gaps[-1] < gaps[0]


def _reference_rhs(v, w, ops, params):
    """F(v, w) term by term through the operators' own actions."""
    growth = v * v * w
    if ops.variant == "local":
        transport_v = 0.5 * params.d_v * ops.laplacian.apply(v)
    else:
        transport_v = params.d_v * ops.dispersal.apply(v)
    rhs_v = transport_v + growth - params.B * v
    rhs_w = params.d_w * ops.laplacian.apply(w) - growth - w + params.A
    rhs_w[0] = rhs_w[-1] = 0.0
    if ops.variant == "local":
        rhs_v[0] = rhs_v[-1] = 0.0
    return rhs_v, rhs_w


@pytest.fixture(scope="module", params=["nonlocal", "local"])
def bif_model(request, laplace):
    variant = request.param
    ops = build_operators(make_grid(25.0, 75), variant,
                          laplace if variant == "nonlocal" else None)
    return ops, ModelParams(1.8, 0.45, 2.0, 0.1)


def test_folded_rhs_matches_reference_and_residual(bif_model):
    ops, params = bif_model
    n = ops.grid.n_nodes
    rhs = _full_rhs(ops, params)
    sr = StationaryResidual(ops, params)
    free = sr.free_mask()
    rng = np.random.default_rng(7)
    for _ in range(20):
        state = initial_state(ops, rng.uniform(0.0, 3.0, n),
                              rng.uniform(0.0, 2.0, n))
        got = np.concatenate(rhs(state.v, state.w))
        ref = np.concatenate(_reference_rhs(state.v, state.w, ops, params))
        scale = np.abs(ref).max()
        assert np.abs(got - ref).max() <= 1e-12 * scale
        assert np.all(got[~free] == 0.0)
        res = sr.residual(sr.restrict(np.r_[state.v, state.w]), params.A)
        assert np.abs(got[free] - res[free]).max() <= 1e-12 * scale


def _reference_rk4(v, w, ops, params, h_t, n_steps):
    """Classical RK4 written out stage by stage on _reference_rhs."""
    for _ in range(n_steps):
        k1 = _reference_rhs(v, w, ops, params)
        k2 = _reference_rhs(v + 0.5 * h_t * k1[0], w + 0.5 * h_t * k1[1],
                            ops, params)
        k3 = _reference_rhs(v + 0.5 * h_t * k2[0], w + 0.5 * h_t * k2[1],
                            ops, params)
        k4 = _reference_rhs(v + h_t * k3[0], w + h_t * k3[1], ops, params)
        v = v + h_t / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        w = w + h_t / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return State(v, w)


def test_simulate_horizon_matches_reference_loop(bif_model):
    ops, params = bif_model
    v0, w0 = cosine_perturbed_start(ops.grid, params.A, params.B)
    h_t, n_steps = 1e-2, 2000
    out, _ = simulate_horizon(initial_state(ops, v0, w0), ops, params, h_t,
                              n_steps * h_t)
    start = initial_state(ops, v0, w0)
    ref = _reference_rk4(start.v, start.w, ops, params, h_t, n_steps)
    assert out.step_count == n_steps
    assert np.abs(out.v - ref.v).max() <= 1e-12 * np.abs(ref.v).max()
    assert np.abs(out.w - ref.w).max() <= 1e-12 * np.abs(ref.w).max()


def test_blowup_guard_passes_large_norm_within_limit(small_ops,
                                                     default_params):
    # ||v||_2 is far above the limit while no entry is: the prefilter
    # hands the state to the exact test, which lets it through
    n = small_ops.grid.n_nodes
    v = np.full(n, BLOWUP_LIMIT)
    v[::2] = -BLOWUP_LIMIT
    assert np.linalg.norm(v) > BLOWUP_LIMIT
    out, _ = simulate_horizon(State(v, np.zeros(n)), small_ops,
                              default_params, h_t=1e-3, t_final=0.0)
    assert out.step_count == 0 and np.array_equal(out.v, v)


# a finite entry whose square overflows ||v||_2^2 to inf on the way
_OVERFLOWING = pytest.param(
    1e200, marks=pytest.mark.filterwarnings("ignore:overflow"))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                 np.nextafter(BLOWUP_LIMIT, np.inf),
                                 -np.nextafter(BLOWUP_LIMIT, np.inf),
                                 _OVERFLOWING])
def test_blowup_guard_reports_first_bad_node(small_ops, default_params, bad):
    # step and node as the exact scan gives them: the initial state, step
    # 0, and the first non-finite or too-large entry
    n = small_ops.grid.n_nodes
    v = np.full(n, 0.3)
    v[[17, 40]] = bad
    state = State(v, np.full(n, 1.8))
    with pytest.raises(Blowup) as err:
        simulate_horizon(state, small_ops, default_params, 1e-3, 1e-3)
    assert err.value.step == 0 and err.value.node == 17
    assert np.array_equal(err.value.value, bad, equal_nan=True)


def test_default_horizon_converged_in_the_step(laplace):
    # simulate's default run (L = 25, N = 75, non-local, t = 10) at its
    # default step agrees with the same run at a step 20 times smaller
    ops = build_operators(make_grid(25.0, 75), "nonlocal", laplace)
    params = ModelParams()
    assert stable_step(ops, params) > RK4_STEP
    v0, w0 = cosine_perturbed_start(ops.grid, params.A, params.B)
    out, _ = simulate_horizon(initial_state(ops, v0, w0), ops, params,
                              RK4_STEP, 10.0)
    ref, _ = simulate_horizon(initial_state(ops, v0, w0), ops, params,
                              RK4_STEP / 20, 10.0)
    assert out.step_count == 1000 and ref.step_count == 20000
    assert np.abs(out.v - ref.v).max() <= 1e-10
    assert np.abs(out.w - ref.w).max() <= 1e-10


@pytest.mark.parametrize("variant", ["nonlocal", "local"])
def test_horizon_error_is_fourth_order(variant, laplace):
    # halving the step shrinks the error against a fine reference by about
    # 2^4 = 16; a first-order scheme gives 2
    ops = build_operators(make_grid(5.0, 21), variant,
                          laplace if variant == "nonlocal" else None)
    params = ModelParams()
    v0, w0 = cosine_perturbed_start(ops.grid, params.A, params.B)

    def final_v(h_t):
        out, _ = simulate_horizon(initial_state(ops, v0, w0), ops, params,
                                  h_t, 2.0)
        return out.v

    ref = final_v(0.1 / 32)
    coarse = np.abs(final_v(0.1) - ref).max()
    fine = np.abs(final_v(0.05) - ref).max()
    assert fine > 0.0 and coarse >= 12.0 * fine, (coarse, fine)
