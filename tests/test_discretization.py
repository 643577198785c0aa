import math

import numpy as np
import pytest

from diagnostics import DomainTooSmall, taylor_consistency
from vegpatch.discretization import (LaplacianOperator, Reduction, _densify,
                                     _hat_moments_exact, assemble_nonlocal,
                                     build_operators, make_grid)
from vegpatch.errors import BadGrid, ResolutionWarning
from vegpatch.kernels import Kernel, kernel_eval


def test_make_grid_bifurcation_spacing():
    grid = make_grid(25.0, 75)
    assert grid.spacing == pytest.approx(50.0 / 74.0, rel=1e-15)
    assert grid.nodes[0] == -25.0 and grid.nodes[-1] == 25.0


def test_make_grid_smallest():
    grid = make_grid(1.0, 3)
    assert np.array_equal(grid.nodes, [-1.0, 0.0, 1.0])
    assert np.allclose(grid.quad_weights, [0.5, 1.0, 0.5])


def test_weights_sum_to_domain_length():
    grid = make_grid(10.0, 301)
    assert grid.quad_weights.sum() == pytest.approx(20.0, rel=1e-14)


# spacings whose square underflows to zero or to a subnormal
@pytest.mark.parametrize("L,n", [(0.0, 5), (-1.0, 5), (2.0, 2),
                                 (1e-300, 3), (1e-160, 3)])
def test_make_grid_rejects_bad_input(L, n):
    with pytest.raises(BadGrid):
        make_grid(L, n)


def test_resolution_warning_on_coarse_grid(laplace):
    with pytest.warns(ResolutionWarning):
        assemble_nonlocal(make_grid(25.0, 75), laplace)


@pytest.fixture(scope="module")
def ops_pair(laplace, super_gaussian):
    grid = make_grid(50.0, 501)
    return grid, {k.family: assemble_nonlocal(grid, k)
                  for k in (laplace, super_gaussian)}


def test_constant_field_center_loss_negligible(ops_pair):
    grid, ops = ops_pair
    for op in ops.values():
        out = op.apply(np.ones(grid.n_nodes))
        assert abs(out[grid.n_nodes // 2]) < 1e-6


def test_constant_field_boundary_loses_half(ops_pair):
    grid, ops = ops_pair
    for op in ops.values():
        out = op.apply(np.ones(grid.n_nodes))
        assert out[0] == pytest.approx(-0.5, abs=grid.spacing)
        assert out[-1] == pytest.approx(-0.5, abs=grid.spacing)


def test_zero_maps_to_zero(ops_pair):
    grid, ops = ops_pair
    for op in ops.values():
        assert np.array_equal(op.apply(np.zeros(grid.n_nodes)), 0.0 * grid.nodes)


def test_row_sums_and_positivity(ops_pair):
    _, ops = ops_pair
    for op in ops.values():
        rs = op.row_sums()
        assert rs.max() <= 1.0 + 1e-8
        assert op.matrix.min() >= 0.0


def test_boundary_loss_monotone(ops_pair):
    grid, ops = ops_pair
    half = grid.n_nodes // 2 + 1
    for op in ops.values():
        loss = op.apply(np.ones(grid.n_nodes))[:half]
        # distance to the nearest boundary increases along this slice
        assert np.all(np.diff(loss) >= -1e-12)


def test_linearity_on_random_vectors(ops_pair):
    grid, ops = ops_pair
    rng = np.random.default_rng(7)
    for op in ops.values():
        u = rng.normal(size=grid.n_nodes)
        v = rng.normal(size=grid.n_nodes)
        a, b = 1.7, -0.3
        lhs = op.apply(a * u + b * v)
        rhs = a * op.apply(u) + b * op.apply(v)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_exact_scheme_interior_weighted_symmetry(laplace):
    grid = make_grid(8.0, 161)
    op = assemble_nonlocal(grid, laplace)
    dk = grid.quad_weights[:, None] * op.matrix
    inner = dk[1:-1, 1:-1]
    assert np.max(np.abs(inner - inner.T)) <= 1e-12


def test_schemes_agree_for_smooth_kernel(super_gaussian):
    # For a smooth kernel plain trapezoid sampling is already accurate, so
    # hat integration should produce nearly the same operator action.
    grid = make_grid(12.0, 481)
    exact = assemble_nonlocal(grid, super_gaussian)
    offsets = grid.nodes[:, None] - grid.nodes[None, :]
    trap = grid.quad_weights[None, :] * kernel_eval(super_gaussian, offsets)
    v = np.exp(-grid.nodes**2 / 10.0)
    assert np.max(np.abs(exact.apply(v) - (trap @ v - v))) < 5e-4


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(24)


def _reference_panel(f, a, b):
    mid, rad = 0.5 * (b + a), 0.5 * (b - a)
    return rad * float(np.dot(_GAUSS_W, f(mid + rad * _GAUSS_X)))


def _reference_hat_moments(grid, kernel):
    """Per-offset, per-node Gauss loop that the vectorized assembly replaced."""
    h = grid.spacing
    n = grid.n_nodes
    hb = min(n - 1, int(np.ceil(kernel.support_cutoff / h)) + 1)
    ks = np.arange(-hb, hb + 1)
    band = np.zeros(ks.shape[0])
    for idx, k in enumerate(ks):
        if (abs(k) - 1) * h > kernel.support_cutoff:
            continue
        up = _reference_panel(
            lambda u: (1.0 - u / h) * kernel_eval(kernel, k * h - u), 0.0, h)
        dn = _reference_panel(
            lambda u: (1.0 + u / h) * kernel_eval(kernel, k * h - u), -h, 0.0)
        band[idx] = up + dn
    left = np.zeros(n)
    right = np.zeros(n)
    for i in range(n):
        if (i - 1) * h <= kernel.support_cutoff:
            left[i] = _reference_panel(
                lambda u: (1.0 - u / h) * kernel_eval(kernel, i * h - u),
                0.0, h)
        d = n - 1 - i
        if (d - 1) * h <= kernel.support_cutoff:
            right[i] = _reference_panel(
                lambda u: (1.0 - u / h) * kernel_eval(kernel, u - d * h),
                0.0, h)
    return band, left, right


def _reference_densify(n, band, left_col, right_col):
    """Row-by-row fancy-indexed fill that the slice copy replaced."""
    hb = (band.shape[0] - 1) // 2
    mat = np.zeros((n, n))
    for i in range(n):
        lo = max(1, i - hb)
        hi = min(n - 1, i + hb + 1)
        mat[i, lo:hi] = band[hb + i - np.arange(lo, hi)]
    mat[:, 0] = left_col
    mat[:, -1] = right_col
    return mat


def _skewed_density(z):
    return np.where(z > 0, np.exp(-z), 0.5 * np.exp(2.0 * z))


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("family", ["laplace", "super_gaussian", "skewed"])
@pytest.mark.parametrize("L,n", [
    (1.0, 3),      # n = 3: the band spans every offset
    (2.0, 41),     # laplace cutoff 30 > 2L: hb = n - 1
    (25.0, 75),    # bifurcation grid: hb < n - 1 for every kernel
    (10.0, 301),   # hb = n - 1 for laplace only
    (40.0, 9),     # spacing 10 exceeds the super_gaussian cutoff 4
])
def test_exact_assembly_bitwise_matches_reference_loop(family, L, n, laplace,
                                                       super_gaussian):
    kernel = {"laplace": laplace, "super_gaussian": super_gaussian,
              "skewed": Kernel("custom", _skewed_density, 6.0)}[family]
    grid = make_grid(L, n)
    expected = _reference_hat_moments(grid, kernel)
    got = _hat_moments_exact(grid, kernel)
    for want, have in zip(expected, got):
        assert want.shape == have.shape
        assert np.array_equal(_bits(want), _bits(have))
    op = assemble_nonlocal(grid, kernel)
    assert np.array_equal(_bits(op.matrix),
                          _bits(_reference_densify(n, *expected)))


@pytest.mark.parametrize("family", ["laplace", "super_gaussian"])
@pytest.mark.parametrize("L,n", [(25.0, 75), (3.0, 128), (20.0, 801),
                                 (32.0, 1281)])
def test_densify_bitwise_matches_reference_loop(family, L, n, laplace,
                                                super_gaussian):
    kernel = {"laplace": laplace, "super_gaussian": super_gaussian}[family]
    moments = _hat_moments_exact(make_grid(L, n), kernel)
    assert np.array_equal(_bits(_densify(n, *moments)),
                          _bits(_reference_densify(n, *moments)))


@pytest.mark.parametrize("family", ["laplace", "super_gaussian", "skewed"])
@pytest.mark.parametrize("L,n", [
    (1.0, 3),      # every offset in the band
    (1.0, 4),      # band clipped at n - 1 for every kernel
    (40.0, 9),     # spacing 10 wider than the super_gaussian cutoff 4
    (25.0, 75),    # bifurcation grid
    (32.0, 1281),  # widest spectral_simulate grid
])
def test_fft_apply_matches_dense_product(family, L, n, laplace,
                                         super_gaussian):
    kernel = {"laplace": laplace, "super_gaussian": super_gaussian,
              "skewed": Kernel("custom", _skewed_density, 6.0)}[family]
    op = assemble_nonlocal(make_grid(L, n), kernel)
    v = np.random.default_rng(n).uniform(0.0, 2.0, n)
    kv = v @ op.matrix.T
    gap = np.abs(op.apply(v) - (kv - v)).max()
    assert gap <= 1e-14 * np.abs(kv).max()


def test_nonlocal_transport_at_default_rate_is_bitwise_2K_minus_2I(laplace):
    # 2 (K - I) == 2K - 2I to the bit, since scaling by 2 is exact: the
    # default rate's steady states do not depend on which form is used
    ops = build_operators(make_grid(25.0, 75), "nonlocal", laplace)
    k = ops.dispersal.matrix.copy()
    want = 2 * k - 2 * np.eye(75)
    got = ops.vegetation_transport(2.0)
    assert np.array_equal(_bits(got), _bits(want))
    assert ops.free_v == slice(0, 75)
    got[:] = 0.0                        # a new matrix each call
    assert np.array_equal(_bits(ops.dispersal.matrix), _bits(k))


@pytest.mark.parametrize("d_v", [2.0, 1.5])
def test_local_transport_is_half_rate_laplacian(d_v):
    ops = build_operators(make_grid(5.0, 41), "local")
    want = (d_v / 2) * ops.laplacian.dense()
    assert np.array_equal(_bits(ops.vegetation_transport(d_v)), _bits(want))
    assert ops.free_v == slice(1, 40)


@pytest.mark.parametrize("parity", [1, -1])
@pytest.mark.parametrize("n", [3, 4, 12, 15, 75])
def test_reflection_restricts_and_expands_vectors_of_its_parity(n, parity):
    red = Reduction(n, parity)
    assert red.size == ((n + 1) // 2 if parity > 0 else n // 2)
    kept = np.arange(n)[red.start:]
    assert np.array_equal(red.weights,
                          np.where(kept == n - 1 - kept, 1.0, 2.0))
    rng = np.random.default_rng(n)
    x = rng.normal(size=(2, n))
    u = x + parity * x[:, ::-1]         # both rows of the parity
    assert np.array_equal(red.expand(red.restrict(u)), u)
    a, b = red.restrict(u)
    assert math.isclose(red.weights @ (a * b), u[0] @ u[1], rel_tol=1e-13)
    assert np.array_equal(Reduction(n).expand(x), x)


@pytest.mark.parametrize("parity", [1, -1, 0])
@pytest.mark.parametrize("n", [12, 15, 75])
@pytest.mark.parametrize("variant, family", [("nonlocal", "laplace"),
                                             ("nonlocal", "super_gaussian"),
                                             ("local", None)])
def test_reflection_folds_the_operators(variant, family, n, parity, laplace,
                                        super_gaussian):
    kernel = {"laplace": laplace, "super_gaussian": super_gaussian}.get(family)
    ops = build_operators(make_grid(n / 3.0, n), variant, kernel)
    red, mv, mw = ops.reflection(parity, 2.0, 0.1)
    rng = np.random.default_rng(n)
    half = rng.normal(size=red.size)
    u = red.expand(half)
    for full, folded in ((ops.vegetation_transport(2.0), mv),
                         (0.1 * ops.laplacian.dense(), mw)):
        want = red.restrict(full @ u)
        assert np.abs(folded @ half - want).max() <= (
            1e-13 * np.abs(full).max() * np.abs(u).max())


def test_laplacian_exact_on_quadratics():
    grid = make_grid(10.0, 301)
    lap = LaplacianOperator(grid)
    out = lap.apply(grid.nodes**2)
    scale = np.max(np.abs(grid.nodes**2))
    assert np.max(np.abs(out[1:-1] - 2.0)) <= 1e-8 * scale


def test_laplacian_kills_linears():
    grid = make_grid(10.0, 301)
    lap = LaplacianOperator(grid)
    out = lap.apply(grid.nodes)
    assert np.max(np.abs(out[1:-1])) <= 1e-10 * 10.0


def test_laplacian_dirichlet_eigenpair():
    # sin(pi (x + L) / 2L) is the principal Dirichlet eigenfunction with
    # eigenvalue -(pi/2L)^2; second-order accuracy in the spacing.
    L, n = 5.0, 201
    grid = make_grid(L, n)
    lap = LaplacianOperator(grid)
    mode = np.sin(np.pi * (grid.nodes + L) / (2 * L))
    lam = (np.pi / (2 * L)) ** 2
    err = np.max(np.abs(lap.apply(mode)[1:-1] + lam * mode[1:-1]))
    assert err <= 0.5 * lam * (grid.spacing * np.pi / (2 * L)) ** 2 + 1e-12


def _dispersal_oracle(kernel, L, x, profile_fn, n_quad=200_001):
    """Brute-force fine-quadrature evaluation of the dispersal action."""
    lo = max(-L, x - kernel.support_cutoff)
    hi = min(L, x + kernel.support_cutoff)
    y = np.linspace(lo, hi, n_quad)
    integrand = kernel_eval(kernel, x - y) * profile_fn(y)
    return np.trapezoid(integrand, y) - profile_fn(x)


def test_operator_matches_fine_quadrature_oracle(laplace, super_gaussian):
    L, n = 40.0, 801
    grid = make_grid(L, n)
    profile_fn = lambda x: np.exp(-x**2 / 8.0)
    v = profile_fn(grid.nodes)
    for kernel in (laplace, super_gaussian):
        op = assemble_nonlocal(grid, kernel)
        out = op.apply(v)
        for idx in (n // 2, n // 2 + 40, n // 2 - 97):
            oracle = _dispersal_oracle(kernel, L, grid.nodes[idx], profile_fn)
            # interpolation of the profile is the only O(h^2) error source
            assert out[idx] == pytest.approx(oracle, abs=2e-4)


def test_taylor_consistency_thin_tail_bound(super_gaussian):
    grid = make_grid(40.0, 801)
    op = assemble_nonlocal(grid, super_gaussian)
    gap = taylor_consistency(op, np.exp(-grid.nodes**2 / 8.0))
    assert gap < 0.02


def test_taylor_consistency_fourth_moment_bound(laplace):
    # Fourth-moment correction bound: (m4 / 24) * max |v''''| for the bump
    # exp(-x^2/8), whose fourth derivative peaks at 12 / 64 at the origin.
    grid = make_grid(40.0, 801)
    op = assemble_nonlocal(grid, laplace)
    gap = taylor_consistency(op, np.exp(-grid.nodes**2 / 8.0))
    assert gap <= (6.0 / 24.0) * (12.0 / 64.0) + 1e-3


def test_taylor_consistency_linear_profile(super_gaussian):
    grid = make_grid(40.0, 801)
    op = assemble_nonlocal(grid, super_gaussian)
    gap = taylor_consistency(op, 0.3 * grid.nodes + 2.0)
    assert gap < 1e-8   # odd moments cancel, no curvature


def test_taylor_consistency_zero_profile(super_gaussian):
    grid = make_grid(40.0, 801)
    op = assemble_nonlocal(grid, super_gaussian)
    assert taylor_consistency(op, np.zeros(grid.n_nodes)) == 0.0


def test_taylor_consistency_domain_too_small(laplace):
    grid = make_grid(2.0, 41)
    op = assemble_nonlocal(grid, laplace)   # cutoff 30 exceeds the half-width
    with pytest.raises(DomainTooSmall):
        taylor_consistency(op, np.zeros(grid.n_nodes))
