import numpy as np
import pytest

from vegpatch.continuation import StationaryResidual, solve_stationary
from vegpatch.discretization import build_operators, make_grid
from vegpatch.dynamics import (BLOWUP_LIMIT, BatchCell, State, _make_rhs,
                               euler_step, extinction_decay_check,
                               initial_state, perturbation_decay,
                               run_to_steady, run_to_steady_batch,
                               simulate_horizon)
from vegpatch.errors import Blowup, EnvelopeViolated, UnstableTimestep
from vegpatch.experiments import (cosine_perturbed_start, fast_sweep_config,
                                  sweep_resolution)
from vegpatch.kinetics import (ModelParams, solve_water_stationary,
                               vegetated_equilibrium)


@pytest.fixture(scope="module")
def small_ops(laplace):
    return build_operators(make_grid(10.0, 129), "nonlocal", laplace)


def test_bare_soil_single_step(small_ops, default_params):
    n = small_ops.grid.n_nodes
    state = initial_state(small_ops, np.zeros(n), np.zeros(n))
    h_t = 1e-3
    out = euler_step(state, small_ops, default_params, h_t)
    assert np.array_equal(out.v, np.zeros(n))
    assert np.allclose(out.w[1:-1], h_t * default_params.A, atol=1e-16)
    assert out.w[0] == 0.0 and out.w[-1] == 0.0
    assert out.step_count == 1 and out.t == pytest.approx(h_t)


def test_uniform_equilibrium_barely_moves_in_deep_interior(default_params,
                                                           laplace):
    ops = build_operators(make_grid(60.0, 401), "nonlocal", laplace)
    eq = vegetated_equilibrium(1.8, 0.45)
    n = ops.grid.n_nodes
    state = initial_state(ops, np.full(n, eq.v_star), np.full(n, eq.w_star))
    h_t = 1e-4
    out = euler_step(state, ops, default_params, h_t)
    center = n // 2
    # interior change is h_t * d_v * (boundary leakage) which is far below
    # the kernel tail mass at 30 length units
    assert abs(out.v[center] - eq.v_star) < 1e-12


def test_timestep_guard_rejects_unstable_config(default_params):
    ops = build_operators(make_grid(1.0, 201), "local")
    with pytest.raises(UnstableTimestep):
        run_to_steady(initial_state(ops, np.zeros(201), np.zeros(201)),
                      ops, default_params, h_t=1e-3)


def test_blowup_reports_step_and_node(small_ops, default_params):
    n = small_ops.grid.n_nodes
    state = initial_state(small_ops, np.full(n, 9e5), np.full(n, 1.8))
    with pytest.raises(Blowup) as err:
        state = euler_step(state, small_ops, default_params, h_t=1e-2)
    assert err.value.step == 1
    assert 0 <= err.value.node < n


def test_steady_blowup_raises_with_step_and_node(small_ops, default_params):
    n = small_ops.grid.n_nodes
    state = initial_state(small_ops, np.full(n, 9e5), np.full(n, 1.8))
    with pytest.raises(Blowup) as err:
        run_to_steady(state, small_ops, default_params, h_t=1e-2)
    # node 0 sees no water (pinned at zero) and so does not grow
    assert err.value.step == 1 and err.value.node == 1
    assert err.value.value > BLOWUP_LIMIT


def test_batch_blowup_returns_failing_state(small_ops, default_params):
    n = small_ops.grid.n_nodes
    v0, w0 = np.full(n, 9e5), np.full(n, 1.8)
    (got,) = run_to_steady_batch(
        [BatchCell(small_ops, default_params, v0, w0)], 1e-2)
    assert got.blowup and not got.converged
    assert got.steps == got.state.step_count == 1
    # the non-local variant moves v explicitly: one step from the start
    start = initial_state(small_ops, v0, w0)
    rhs_v, _ = _make_rhs(small_ops, default_params)(start.v, start.w)
    assert np.array_equal(got.state.v, start.v + got.step_size * rhs_v)


def test_steady_convergence_to_uniform_state(default_params, laplace):
    ops = build_operators(make_grid(50.0, 401), "nonlocal", laplace)
    v0, w0 = cosine_perturbed_start(ops.grid, 1.8, 0.45)
    result = run_to_steady(initial_state(ops, v0, w0), ops, default_params,
                           h_t=1e-3, tol=1e-5, max_steps=200_000)
    eq = vegetated_equilibrium(1.8, 0.45)
    avg = float(ops.grid.quad_weights @ result.state.v) / 100.0
    assert result.converged
    assert avg == pytest.approx(eq.v_star, rel=0.05)


def test_collapse_below_critical_width(default_params, laplace):
    ops = build_operators(make_grid(1.0, 127), "nonlocal", laplace)
    v0, w0 = cosine_perturbed_start(ops.grid, 1.8, 0.45)
    result = run_to_steady(initial_state(ops, v0, w0), ops, default_params,
                           h_t=1e-3, tol=1e-5, max_steps=300_000)
    avg = float(ops.grid.quad_weights @ result.state.v) / 2.0
    assert result.converged
    assert avg < 0.1


def test_desert_initial_state_converges_immediately(small_ops,
                                                    default_params):
    grid = small_ops.grid
    w0 = solve_water_stationary(np.zeros(grid.n_nodes), default_params, grid)
    result = run_to_steady(initial_state(small_ops, np.zeros(grid.n_nodes), w0),
                           small_ops, default_params, h_t=1e-3, tol=1e-5)
    assert result.converged
    assert result.steps == 0


def test_invariant_region_and_water_bound(small_ops, default_params):
    grid = small_ops.grid
    w0 = solve_water_stationary(np.zeros(grid.n_nodes), default_params, grid)
    state = initial_state(small_ops, np.full(grid.n_nodes, 0.2), w0)
    result = run_to_steady(state, small_ops, default_params, h_t=1e-3,
                           tol=1e-5, max_steps=60_000, trajectory_every=5)
    assert result.region_bound == pytest.approx(0.45 / 1.8)
    assert result.region_violations == 0
    assert result.max_v <= result.region_bound + 1e-8
    assert result.min_v >= -1e-12
    assert result.max_w <= max(w0.max(), default_params.A) + 1e-8
    # every 5th step: columns (t, min v, max v, avg v, max w)
    track = result.trajectory
    assert track.max(axis=0)[2] <= result.region_bound + 1e-8
    assert track.min(axis=0)[1] >= -1e-12
    assert track.max(axis=0)[4] <= max(w0.max(), default_params.A) + 1e-8


def test_trajectory_sampling(small_ops, default_params):
    grid = small_ops.grid
    w0 = solve_water_stationary(np.zeros(grid.n_nodes), default_params, grid)
    state = initial_state(small_ops, np.full(grid.n_nodes, 0.1), w0)
    result = run_to_steady(state, small_ops, default_params, h_t=1e-3,
                           tol=1e-5, max_steps=5_000, trajectory_every=100)
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
                                        h_t=1e-3, t_final=40.0)
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
                                        h_t=1e-3, t_final=10.0)
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

        import vegpatch.dynamics as dyn
        template = dyn.decay_envelope

        def doctored(t, b, m, nu0):
            return template(t, b, m, nu0) - 0.01
        dyn.decay_envelope = doctored
        try:
            with pytest.raises(EnvelopeViolated):
                extinction_decay_check(default_params, ops, 0.24,
                                       h_t=1e-3, t_final=1.0)
        finally:
            dyn.decay_envelope = template


@pytest.mark.parametrize("variant", ["nonlocal", "local"])
def test_implicit_batch_reaches_stationary_state(variant, laplace):
    # a vegetated cell of the fast sweep, at its grid and stopping rule
    grid = make_grid(3.0, sweep_resolution(fast_sweep_config(), 3.0, variant))
    params = ModelParams(1.8, 0.45, 2.0, 0.1, variant)
    ops = build_operators(grid, variant,
                          laplace if variant == "nonlocal" else None)
    v0, w0 = cosine_perturbed_start(grid, 1.8, 0.45)
    h_t, tol = 1e-3, 1e-5
    (got,) = run_to_steady_batch([BatchCell(ops, params, v0, w0)], h_t, tol,
                                 max_steps=10_000)
    assert got.converged and not got.blowup
    assert got.step_size == pytest.approx(0.1)

    def mean(v):
        return float(grid.quad_weights @ v) / (2.0 * grid.half_width)

    # the stopping rule holds on the returned state
    rhs_v, rhs_w = _make_rhs(ops, params)(got.state.v, got.state.w)
    assert h_t * np.sqrt(rhs_v @ rhs_v + rhs_w @ rhs_w) < tol
    # Newton polishing barely moves it
    sr = StationaryResidual(ops, params)
    u, _ = solve_stationary(sr, 1.8, sr.join(got.state.v, got.state.w))
    assert abs(mean(sr.split(u)[0]) - mean(got.state.v)) < 2e-3
    # explicit Euler with the same rule lands on the same state
    explicit = run_to_steady(initial_state(ops, v0, w0), ops, params, h_t,
                             tol, max_steps=200_000)
    assert explicit.converged
    assert got.steps < explicit.steps / 20
    assert abs(mean(explicit.state.v) - mean(got.state.v)) < 2e-3


def test_implicit_step_lowered_for_fast_dispersal(laplace):
    # d_v = 4 would put the explicit dispersal factor at 0.8 for h = 0.1
    grid = make_grid(3.0, 65)
    ops = build_operators(grid, "nonlocal", laplace)
    params = ModelParams(1.8, 0.45, 4.0, 0.1)
    v0, w0 = cosine_perturbed_start(grid, 1.8, 0.45)
    (got,) = run_to_steady_batch([BatchCell(ops, params, v0, w0)], 1e-3,
                                 1e-5, max_steps=0)
    norm_k = float(ops.dispersal.row_sums().max())
    assert got.step_size < 0.1
    assert params.d_v * got.step_size * (1.0 + norm_k) == pytest.approx(0.4)


def test_perturbation_decay_negative_slope(default_params, laplace):
    # converge first, then kick by 1% and watch the gap shrink log-linearly
    ops = build_operators(make_grid(10.0, 129), "nonlocal", laplace)
    v0, w0 = cosine_perturbed_start(ops.grid, 1.8, 0.45)
    settled = run_to_steady(initial_state(ops, v0, w0), ops, default_params,
                            h_t=1e-3, tol=1e-6, max_steps=200_000)
    assert settled.converged
    times, gaps, slope = perturbation_decay(
        ops, default_params, settled.state.v, settled.state.w,
        amplitude=0.01, h_t=1e-3, t_final=12.0)
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
    return ops, ModelParams(1.8, 0.45, 2.0, 0.1, variant)


def test_folded_rhs_matches_reference_and_residual(bif_model):
    ops, params = bif_model
    n = ops.grid.n_nodes
    rhs = _make_rhs(ops, params)
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
        res = sr.residual(sr.join(state.v, state.w), params.A)
        assert np.abs(got[free] - res[free]).max() <= 1e-12 * scale


def test_simulate_horizon_matches_reference_loop(bif_model):
    ops, params = bif_model
    v0, w0 = cosine_perturbed_start(ops.grid, params.A, params.B)
    h_t, n_steps = 1e-2, 2000
    out, _ = simulate_horizon(initial_state(ops, v0, w0), ops, params, h_t,
                              n_steps * h_t)
    ref = initial_state(ops, v0, w0)
    for _ in range(n_steps):
        rhs_v, rhs_w = _reference_rhs(ref.v, ref.w, ops, params)
        ref.v += h_t * rhs_v
        ref.w += h_t * rhs_w
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
    # step and node as the exact scan gives them: the state's own step
    # count and the first non-finite or too-large entry
    n = small_ops.grid.n_nodes
    v = np.full(n, 0.3)
    v[[17, 40]] = bad
    state = State(v, np.full(n, 1.8), step_count=5)
    with pytest.raises(Blowup) as err:
        euler_step(state, small_ops, default_params, h_t=1e-3)
    assert err.value.step == 5 and err.value.node == 17
    assert np.array_equal(err.value.value, bad, equal_nan=True)
