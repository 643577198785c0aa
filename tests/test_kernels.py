import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vegpatch import kernels
from vegpatch.errors import NonIntegrable
from vegpatch.kernels import (Kernel, check_assumptions, kernel_eval,
                              kernel_from_table, kernel_moments,
                              laplace_kernel, super_gaussian_kernel)

# Gamma-identity oracles for the quartic-exponential kernel.
G14 = math.gamma(0.25)
G34 = math.gamma(0.75)
G54 = math.gamma(1.25)
SG_PEAK = 2.0 * G34**0.5 / G14**1.5
SG_FOURTH = G54 * G14 / G34**2


def test_laplace_peak_value(laplace):
    assert kernel_eval(laplace, 0.0) == pytest.approx(1.0 / math.sqrt(2.0),
                                                      abs=1e-15)


def test_laplace_symmetric_pair(laplace):
    assert kernel_eval(laplace, 1.0) == kernel_eval(laplace, -1.0)


def test_super_gaussian_peak_matches_gamma_oracle(super_gaussian):
    assert kernel_eval(super_gaussian, 0.0) == pytest.approx(SG_PEAK,
                                                             abs=1e-14)
    assert SG_PEAK == pytest.approx(0.32072, abs=5e-5)


def test_eval_zero_beyond_cutoff(laplace, super_gaussian):
    for kernel in (laplace, super_gaussian):
        assert kernel_eval(kernel, kernel.support_cutoff + 1e-9) == 0.0
        assert kernel_eval(kernel, -2 * kernel.support_cutoff) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.floats(-50, 50, allow_nan=False))
def test_eval_even_and_nonnegative(z):
    for kernel in (laplace_kernel(), super_gaussian_kernel()):
        left = kernel_eval(kernel, z)
        right = kernel_eval(kernel, -z)
        assert left == right    # exact: built-ins evaluate through |z|
        assert left >= 0.0


def test_laplace_moments_match_closed_forms(laplace):
    # Exponential density with rate sqrt(2): variance 2/rate^2, fourth
    # moment 24/rate^4.
    m = kernel_moments(laplace, quad_tol=1e-10)
    rate = math.sqrt(2.0)
    assert m.mass == pytest.approx(1.0, abs=1e-9)
    assert m.second_moment == pytest.approx(2.0 / rate**2, abs=1e-9)
    assert m.fourth_moment == pytest.approx(24.0 / rate**4, abs=1e-8)


def test_super_gaussian_moments_match_gamma_oracle(super_gaussian):
    m = kernel_moments(super_gaussian, quad_tol=1e-10)
    assert m.mass == pytest.approx(1.0, abs=1e-9)
    assert m.second_moment == pytest.approx(1.0, abs=1e-9)
    assert m.fourth_moment == pytest.approx(SG_FOURTH, abs=1e-8)
    assert SG_FOURTH == pytest.approx(2.1884, abs=5e-5)


def test_uniform_custom_kernel_moments():
    half = Kernel("custom", lambda z: np.where(np.abs(z) <= 1.0, 0.5, 0.0),
                  1.0)
    m = kernel_moments(half, quad_tol=1e-9)
    assert m.mass == pytest.approx(1.0, abs=1e-8)
    assert m.second_moment == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_kurtosis_ordering(laplace, super_gaussian):
    fat = kernel_moments(laplace, quad_tol=1e-10).fourth_moment
    thin = kernel_moments(super_gaussian, quad_tol=1e-10).fourth_moment
    assert fat > thin


def test_moment_budget_exhaustion_raises(laplace, monkeypatch):
    monkeypatch.setattr(kernels, "QUAD_DOUBLINGS", 1)
    with pytest.raises(NonIntegrable):
        kernel_moments(laplace, quad_tol=1e-16)


def test_check_assumptions_builtins_pass(laplace, super_gaussian):
    for kernel in (laplace, super_gaussian):
        report = check_assumptions(kernel)
        assert report.all_pass(), report


def test_check_assumptions_signed_kernel_fails_positivity():
    signed = Kernel("custom", lambda z: np.asarray(z, dtype=float), 1.0)
    report = check_assumptions(signed)
    assert not report.positivity
    assert not report.all_pass()


def test_calibration_tolerances(laplace, super_gaussian):
    for kernel in (laplace, super_gaussian):
        m = kernel_moments(kernel, quad_tol=1e-10)
        assert abs(m.mass - 1.0) <= 1e-6
        assert abs(m.second_moment - 1.0) <= 1e-4


def test_kernel_from_table_interpolates(tmp_path):
    z = np.linspace(-1.0, 1.0, 2001)
    table = tmp_path / "uniform.txt"
    np.savetxt(table, np.column_stack([z, np.full_like(z, 0.5)]))
    kernel = kernel_from_table(table)
    assert kernel.support_cutoff == 1.0
    assert kernel_eval(kernel, 0.3) == pytest.approx(0.5)
    assert kernel_eval(kernel, 1.5) == 0.0
    m = kernel_moments(kernel, quad_tol=1e-8)
    assert m.mass == pytest.approx(1.0, abs=1e-6)
    assert m.second_moment == pytest.approx(1.0 / 3.0, abs=1e-6)
