import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import beta as beta_fn

from poolreg.errors import UnsupportedKernel
from poolreg.kernels import KernelKind, compute_moments, kernel_eval
from poolreg.theory import moment_matrices

ALL_KINDS = list(KernelKind)


class TestEvaluation:
    def test_epanechnikov_values(self):
        assert kernel_eval(KernelKind.EPANECHNIKOV, 0.0) == 0.75
        assert kernel_eval(KernelKind.EPANECHNIKOV, 0.5) == 0.5625
        assert kernel_eval(KernelKind.EPANECHNIKOV, 1.5) == 0.0
        assert kernel_eval(KernelKind.EPANECHNIKOV, -1.5) == 0.0

    def test_quartic_and_triweight_values(self):
        assert kernel_eval(KernelKind.QUARTIC, 0.0) == 15.0 / 16.0
        np.testing.assert_allclose(
            kernel_eval(KernelKind.QUARTIC, 0.5), (15.0 / 16.0) * 0.75**2, rtol=1e-15
        )
        assert kernel_eval(KernelKind.TRIWEIGHT, 0.0) == 35.0 / 32.0
        np.testing.assert_allclose(
            kernel_eval(KernelKind.TRIWEIGHT, -0.5), (35.0 / 32.0) * 0.75**3, rtol=1e-15
        )

    def test_tricube_values(self):
        assert kernel_eval(KernelKind.TRICUBE, 0.0) == 70.0 / 81.0
        expected = (70.0 / 81.0) * (1.0 - 0.5**3) ** 3
        np.testing.assert_allclose(kernel_eval(KernelKind.TRICUBE, 0.5), expected, rtol=1e-15)
        assert kernel_eval(KernelKind.TRICUBE, 1.0) == 0.0

    def test_gaussian_values(self):
        np.testing.assert_allclose(
            kernel_eval(KernelKind.GAUSSIAN, 0.0), 1.0 / math.sqrt(2 * math.pi), rtol=1e-15
        )
        np.testing.assert_allclose(
            kernel_eval(KernelKind.GAUSSIAN, 2.0),
            math.exp(-2.0) / math.sqrt(2 * math.pi),
            rtol=1e-15,
        )

    def test_array_input_preserves_shape(self):
        t = np.linspace(-2, 2, 37).reshape(37, 1)
        out = kernel_eval(KernelKind.EPANECHNIKOV, t)
        assert out.shape == (37, 1)
        assert np.all(out[np.abs(t) > 1] == 0.0)

    def test_parse(self):
        assert KernelKind.parse(" Epanechnikov ") is KernelKind.EPANECHNIKOV
        assert KernelKind.parse("gaussian") is KernelKind.GAUSSIAN
        with pytest.raises(UnsupportedKernel):
            KernelKind.parse("boxcar")


class TestMoments:
    def test_epanechnikov_key_moments(self):
        table = moment_matrices(KernelKind.EPANECHNIKOV, 1)
        assert abs(table.mu[0] - 1.0) <= 1e-12
        assert abs(table.mu[2] - 0.2) <= 1e-12
        assert abs(table.nu[0] - 0.6) <= 1e-12
        assert abs(table.nu[2] - 3.0 / 35.0) <= 1e-12
        assert abs(table.mu[4] - 3.0 / 35.0) <= 1e-12

    def test_quartic_and_triweight_key_moments(self):
        q = moment_matrices(KernelKind.QUARTIC, 0)
        assert abs(q.mu[2] - 1.0 / 7.0) <= 1e-12
        assert abs(q.nu[0] - 5.0 / 7.0) <= 1e-12
        t = moment_matrices(KernelKind.TRIWEIGHT, 0)
        assert abs(t.mu[2] - 1.0 / 9.0) <= 1e-12
        assert abs(t.nu[0] - 350.0 / 429.0) <= 1e-12

    def test_tricube_against_beta_function(self):
        # independent closed form: integral of t^ell (1-t^3)^M over [0,1]
        # equals B((ell+1)/3, M+1)/3 for even ell
        table = moment_matrices(KernelKind.TRICUBE, 0)
        mu2 = (70.0 / 81.0) * (2.0 / 3.0) * beta_fn(1.0, 4.0)
        nu0 = (70.0 / 81.0) ** 2 * (2.0 / 3.0) * beta_fn(1.0 / 3.0, 7.0)
        assert abs(table.mu[2] - mu2) <= 1e-12
        assert abs(table.nu[0] - nu0) <= 1e-12
        assert abs(table.mu[2] - 35.0 / 243.0) <= 1e-12

    def test_gaussian_key_moments(self):
        table = moment_matrices(KernelKind.GAUSSIAN, 1)
        assert abs(table.mu[0] - 1.0) <= 1e-12
        assert abs(table.mu[2] - 1.0) <= 1e-12
        assert abs(table.mu[4] - 3.0) <= 1e-11
        assert abs(table.nu[0] - 1.0 / (2.0 * math.sqrt(math.pi))) <= 1e-12
        # moments of K itself are the double factorials (ell - 1)!!, exactly,
        # including order 8, where quadrature over the real line fails
        mu = compute_moments(KernelKind.GAUSSIAN, 10)
        assert mu[8] == 105.0
        assert mu[::2] == (1.0, 1.0, 3.0, 15.0, 105.0, 945.0)
        assert mu[1::2] == (0.0,) * 5

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_unit_mass_and_odd_moments(self, kind):
        mu = compute_moments(kind, 5)
        assert abs(mu[0] - 1.0) <= 1e-12
        assert abs(mu[1]) < 1e-10
        assert abs(mu[3]) < 1e-10
        assert abs(mu[5]) < 1e-10

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("power", [1, 2, 3, 4])
    def test_closed_form_matches_quadrature(self, kind, power, quad_moment):
        for ell in range(0, 7):
            exact = compute_moments(kind, 6, power=power)[ell]
            quad = quad_moment(kind, ell, power)
            assert abs(exact - quad) <= 1e-10, (kind, ell, power)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_power_one_is_the_plain_moment(self, kind):
        table = moment_matrices(kind, 1, power=1)
        assert table.mu == compute_moments(kind, 4)
        assert table.nu == compute_moments(kind, 4, power=2)

    def test_power_two_equals_squared_kernel_moments(self):
        assert (moment_matrices(KernelKind.GAUSSIAN, 1, power=2).mu
                == moment_matrices(KernelKind.GAUSSIAN, 1).nu)

    def test_pooled_power_moments_decrease(self):
        # raising a bounded density-like kernel to a higher power shrinks mass
        m1 = compute_moments(KernelKind.EPANECHNIKOV, 0, power=2)[0]
        m2 = compute_moments(KernelKind.EPANECHNIKOV, 0, power=4)[0]
        assert m2 < m1 < 1.0

    def test_cache_returns_same_object(self):
        a = compute_moments(KernelKind.QUARTIC, 4, power=3)
        b = compute_moments(KernelKind.QUARTIC, 4, power=3)
        assert a is b

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            compute_moments(KernelKind.EPANECHNIKOV, -1)
        with pytest.raises(ValueError):
            compute_moments(KernelKind.EPANECHNIKOV, 2, power=0)


@given(
    kind=st.sampled_from(ALL_KINDS),
    t=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
def test_kernel_symmetric_nonnegative_peaked(kind, t):
    left = kernel_eval(kind, -t)
    right = kernel_eval(kind, t)
    assert left == right
    assert right >= 0.0
    assert right <= kernel_eval(kind, 0.0) + 1e-15
