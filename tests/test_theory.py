"""Checks for the asymptotic bias/variance summaries.

Hand-computed values use simple covariate laws (uniform, triangular,
standard normal) where every moment integral has a closed form.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from poolreg import theory
from poolreg.data import Design
from poolreg.errors import (
    DivergentMoment,
    SingularMomentMatrix,
    UnsupportedKernel,
    UserInputError,
)
from poolreg.estimators import Estimator
from poolreg.kernels import KernelKind
from poolreg.simulation import DGP_REGISTRY, theory_context
from poolreg.theory import (
    AsymptoticSummary,
    TheoryContext,
    _covariate_moments,
    _hankel,
    _kernel_moments,
    _pool_averages,
    _remainder_moments,
    average_random_summary,
    homogeneous_summary,
    individual_summary,
    marginal_random_summary,
    product_random_bias,
)


def uniform_ctx(mean, mean_derivative=None, sigma2=1.0):
    return TheoryContext(
        mean=mean,
        density=lambda s: 0.5,
        sigma2=sigma2,
        support=(-1.0, 1.0),
        mean_derivative=mean_derivative,
        density_derivative=lambda x, k: 0.0,
    )


def triangular_ctx(mean, mean_derivative=None):
    # f(s) = 1 - |s| on (-1, 1): nonzero slope, zero curvature away from 0
    return TheoryContext(
        mean=mean,
        density=lambda s: 1.0 - abs(s),
        sigma2=1.0,
        support=(-1.0, 1.0),
        mean_derivative=mean_derivative,
        density_derivative=lambda x, k: -float(np.sign(x)) if k == 1 else 0.0,
        breakpoints=(0.0,),
    )


def gaussian_ctx(mean, mean_derivative=None):
    norm = 1.0 / math.sqrt(2.0 * math.pi)

    def density(s):
        return norm * math.exp(-0.5 * s * s)

    def density_derivative(x, k):
        if k == 1:
            return -x * density(x)
        if k == 2:
            return (x * x - 1.0) * density(x)
        raise AssertionError(f"unexpected derivative order {k}")

    return TheoryContext(
        mean=mean,
        density=density,
        sigma2=1.0,
        support=(-np.inf, np.inf),
        mean_derivative=mean_derivative,
        density_derivative=density_derivative,
    )


def cubic_mean():
    return (lambda s: s**3,
            lambda x, k: {1: 3 * x * x, 2: 6 * x, 3: 6.0}.get(k, 0.0))


def square_mean():
    return (lambda s: s * s,
            lambda x, k: {1: 2 * x, 2: 2.0}.get(k, 0.0))


class TestContextValidation:
    def test_density_must_have_unit_mass(self):
        with pytest.raises(UserInputError, match="integrate to 1"):
            TheoryContext(mean=lambda s: s, density=lambda s: 1.0,
                          sigma2=1.0, support=(-1.0, 1.0))

    def test_support_must_be_an_interval(self):
        with pytest.raises(UserInputError, match="support"):
            TheoryContext(mean=lambda s: s, density=lambda s: 0.5,
                          sigma2=1.0, support=(1.0, -1.0))

    def test_divergent_moment_of_heavy_tailed_law_is_reported(self):
        ctx = TheoryContext(
            mean=lambda s: s,
            density=lambda s: 1.0 / (math.pi * (1.0 + s * s)),
            sigma2=1.0, support=(-np.inf, np.inf),
        )
        with pytest.raises(DivergentMoment):
            _covariate_moments(ctx, 0.5, 2)

    @pytest.mark.parametrize("x", [0.0, 0.5])
    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_every_cauchy_moment_of_order_one_to_three_diverges(self, ell, x):
        # each tail is integrated on its own, so E X under a symmetric
        # heavy-tailed law cannot come back as 0 by cancellation
        ctx = TheoryContext(
            mean=lambda s: s,
            density=lambda s: 1.0 / (math.pi * (1.0 + s * s)),
            sigma2=1.0, support=(-np.inf, np.inf),
        )
        with pytest.raises(DivergentMoment):
            ctx.expect(lambda s: (s - x) ** ell)

    def test_sigma2_accepts_constant_and_callable(self):
        m, md = square_mean()
        const = uniform_ctx(m, md, sigma2=2.0)
        assert const.sigma2_at(0.3) == 2.0
        assert const.sigma2_mean == 2.0
        varying = TheoryContext(
            mean=m, density=lambda s: 0.5, sigma2=lambda s: 1.0 + s * s,
            support=(-1.0, 1.0), mean_derivative=md,
            density_derivative=lambda x, k: 0.0,
        )
        assert varying.sigma2_at(0.5) == 1.25
        assert abs(varying.sigma2_mean - (1.0 + 1.0 / 3.0)) < 1e-9

    @pytest.mark.parametrize("summary", [
        lambda ctx, x: average_random_summary(ctx, x, 1, 0.3, [2, 2]),
        lambda ctx, x: product_random_bias(ctx, x, 1, 0.3, 2),
        lambda ctx, x: marginal_random_summary(ctx, x, 1, 0.3, 100, [2, 2]),
        lambda ctx, x: individual_summary(ctx, x, 1, 0.3, 100),
        lambda ctx, x: homogeneous_summary(ctx, Estimator.PRODUCT, x, 1, 0.3, 100, 2),
    ], ids=["average", "product", "marginal", "individual", "homogeneous"])
    def test_point_of_zero_density_is_named(self, summary):
        # the d2 covariate law has no mass outside [-2, 2]; every expansion
        # divides by f(x)
        ctx = theory_context(DGP_REGISTRY["d2"])
        with pytest.raises(UserInputError, match=r"density is 0 at x=-3\b"):
            summary(ctx, -3.0)


def exponential_ctx():
    return TheoryContext(
        mean=lambda s: s, density=lambda s: math.exp(-s), sigma2=1.0,
        support=(0.0, np.inf), mean_derivative=lambda x, k: float(k == 1),
    )


@pytest.fixture
def quad_oracle(monkeypatch):
    """Checks every integral the theory layer takes against scipy's quad.

    Each call must agree with quad to within the context's tolerance and
    report an error no larger than it; the checked calls are counted.
    """
    own = theory._integrate
    calls = []

    def checked(integrand, support, breakpoints, tol):
        value, err = own(integrand, support, breakpoints, tol)
        a, b = support
        points = [t for t in breakpoints if a < t < b] if np.isfinite([a, b]).all() else []
        want, _ = integrate.quad(integrand, a, b, epsabs=tol, epsrel=0.0, limit=400,
                                 points=points or None)
        assert err <= tol
        assert abs(value - want) <= tol, (support, value, want)
        calls.append(value)
        return value, err

    monkeypatch.setattr(theory, "_integrate", checked)
    return calls


class TestQuadratureOracle:
    @pytest.mark.parametrize("key", sorted(DGP_REGISTRY))
    def test_registry_laws_match_quad(self, quad_oracle, key):
        ctx = theory_context(DGP_REGISTRY[key])
        for x in (-1.5, -1.0, 0.0, 0.7, 1.0):
            _covariate_moments(ctx, x, 4)
            for p in (1, 2):
                _remainder_moments(ctx, x, p, 4)
        assert len(quad_oracle) == 1 + 5 * (4 + 2 * 5)

    @pytest.mark.parametrize("declared", [(0.0,), ()])
    def test_triangular_law_with_and_without_its_breakpoint(self, quad_oracle, declared):
        ctx = replace(triangular_ctx(*cubic_mean()), breakpoints=declared)
        delta = _covariate_moments(ctx, 0.3, 4)
        _remainder_moments(ctx, 0.3, 1, 3)
        # E X^2 = 1/6 under f(s) = 1 - |s|, so E (X - 0.3)^2 = 1/6 + 0.09
        assert abs(delta[2] - (1.0 / 6.0 + 0.09)) < 1e-12
        # both contexts, before and after replace, check their mass
        assert len(quad_oracle) == 2 + 4 + 4

    def test_half_infinite_exponential_law(self, quad_oracle):
        ctx = exponential_ctx()
        delta = _covariate_moments(ctx, 0.0, 4)
        assert np.allclose(delta, [1.0, 1.0, 2.0, 6.0, 24.0], rtol=0.0, atol=1e-9)
        _remainder_moments(ctx, 1.0, 1, 3)
        assert len(quad_oracle) == 1 + 4 + 4

    def test_repeated_calls_are_bit_identical(self):
        for ctx in (exponential_ctx(), theory_context(DGP_REGISTRY["d3"]),
                    theory_context(DGP_REGISTRY["d2"])):
            fun = lambda s: math.sin(s) * s * s
            assert ctx.expect(fun) == ctx.expect(fun)


class TestDerivativeFallback:
    def test_finite_differences_match_sine_derivatives(self):
        ctx = TheoryContext(mean=math.sin, density=lambda s: 0.5,
                            sigma2=1.0, support=(-1.0, 1.0))
        x = 0.4
        exact = {1: math.cos(x), 2: -math.sin(x), 3: -math.cos(x), 4: math.sin(x)}
        assert abs(ctx.m_deriv(x, 1) - exact[1]) < 1e-9
        assert abs(ctx.m_deriv(x, 2) - exact[2]) < 1e-7
        assert abs(ctx.m_deriv(x, 3) - exact[3]) < 1e-6
        assert abs(ctx.m_deriv(x, 4) - exact[4]) < 1e-4

    def test_orders_beyond_four_need_closed_forms(self):
        ctx = TheoryContext(mean=math.sin, density=lambda s: 0.5,
                            sigma2=1.0, support=(-1.0, 1.0))
        with pytest.raises(UserInputError, match="orders 1 to 4"):
            ctx.m_deriv(0.2, 5)

    def test_closed_forms_take_precedence(self):
        m, md = square_mean()
        ctx = uniform_ctx(m, md)
        assert ctx.m_deriv(0.3, 1) == 0.6
        assert ctx.beta(0.3, 2) == 1.0
        assert ctx.beta(0.3, 3) == 0.0


class TestCovariateMoments:
    def test_zeroth_moment_is_one(self):
        ctx = uniform_ctx(*square_mean())
        assert _covariate_moments(ctx, 0.7, 0)[0] == 1.0

    def test_uniform_moments_at_origin(self):
        ctx = uniform_ctx(*square_mean())
        delta = _covariate_moments(ctx, 0.0, 2)
        assert abs(delta[1]) < 1e-12
        assert abs(delta[2] - 1.0 / 3.0) < 1e-10

    def test_first_moment_is_mean_minus_x(self):
        ctx = uniform_ctx(*square_mean())
        assert abs(_covariate_moments(ctx, 0.25, 1)[1] - (-0.25)) < 1e-10
        gctx = gaussian_ctx(*cubic_mean())
        assert abs(_covariate_moments(gctx, 0.4, 1)[1] - (-0.4)) < 1e-8

    def test_standard_normal_central_moments(self):
        ctx = gaussian_ctx(*cubic_mean())
        delta = _covariate_moments(ctx, 0.0, 4)
        assert abs(delta[2] - 1.0) < 1e-8
        assert abs(delta[3]) < 1e-8
        assert abs(delta[4] - 3.0) < 1e-7


class TestRemainderMoments:
    def test_linear_mean_has_no_remainder_at_linear_order(self):
        ctx = uniform_ctx(lambda s: 2.0 * s + 1.0,
                          lambda x, k: 2.0 if k == 1 else 0.0)
        r = _remainder_moments(ctx, 0.3, 1, 1)
        assert np.all(np.abs(r) < 1e-12)

    def test_square_mean_local_constant_values(self):
        ctx = uniform_ctx(*square_mean())
        r = _remainder_moments(ctx, 0.0, 0, 1)
        assert abs(r[0] - 1.0 / 3.0) < 1e-10
        assert abs(r[1]) < 1e-12

    def test_cubic_mean_local_linear_values(self):
        # E{(X-x)^l r(X)} under U(-1,1) for m(s)=s^3 at x:
        # l=0 gives 2x^3 and l=1 gives 1/5 - x^2 - 2x^4
        x = 0.3
        ctx = uniform_ctx(*cubic_mean())
        r = _remainder_moments(ctx, x, 1, 1)
        assert abs(r[0] - 2.0 * x**3) < 1e-10
        assert abs(r[1] - (0.2 - x**2 - 2.0 * x**4)) < 1e-10


class TestPoolAverages:
    # the means over pools of c^-1, c^-2, (c - 1)/c^2 and (c - 1)(c - 2)/c^2
    def test_unit_pools_kill_every_pooled_constant(self):
        assert _pool_averages([1, 1, 1]) == (1.0, 1.0, 0.0, 0.0)

    def test_pairs(self):
        assert _pool_averages([2, 2]) == (0.5, 0.25, 0.25, 0.0)

    def test_mixed_singletons_and_pairs(self):
        assert _pool_averages([1, 2]) == (0.75, 0.625, 0.125, 0.0)

    @pytest.mark.parametrize("sizes", [[1], [2], [3, 3], [1, 2, 3, 5, 7], [4, 9]])
    def test_internal_identity_between_constants(self, sizes):
        # 2 (c - 1)/c^2 + (c - 1)(c - 2)/c^2 = (c - 1)/c, averaged over any size mix
        _, _, t21, t22 = _pool_averages(sizes)
        c = np.asarray(sizes, dtype=float)
        assert abs(2.0 * t21 + t22 - float(np.mean((c - 1) / c))) < 1e-15

    @pytest.mark.parametrize("sizes", [[], [2, 0]])
    def test_rejects_empty_and_undersized(self, sizes):
        ctx = uniform_ctx(*square_mean())
        with pytest.raises(UserInputError, match="pool sizes"):
            _pool_averages(sizes)
        with pytest.raises(UserInputError, match="pool sizes"):
            marginal_random_summary(ctx, 0.0, 1, 0.2, 100, sizes)


class TestKernelMoments:
    def test_epanechnikov_local_linear_blocks(self):
        mu, nu = _kernel_moments(KernelKind.EPANECHNIKOV, 1)
        assert np.allclose(_hankel(mu, 1), [[1.0, 0.0], [0.0, 0.2]], atol=1e-12)
        assert np.allclose(mu[2:4], [0.2, 0.0], atol=1e-12)
        assert np.allclose(_hankel(nu, 1), [[0.6, 0.0], [0.0, 3.0 / 35.0]], atol=1e-12)

    def test_quadratic_order_needs_sixth_moment(self):
        mu, _ = _kernel_moments(KernelKind.EPANECHNIKOV, 2)
        expected = np.array([
            [1.0, 0.0, 0.2],
            [0.0, 0.2, 0.0],
            [0.2, 0.0, 3.0 / 35.0],
        ])
        assert np.allclose(_hankel(mu, 2), expected, atol=1e-12)

    @pytest.mark.parametrize("kind", [k for k in KernelKind if k.compact])
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_design_moment_matrix_is_positive_definite(self, kind, p):
        mu, _ = _kernel_moments(kind, p)
        assert np.linalg.eigvalsh(_hankel(mu, p)).min() > 0.0


class TestAverageWeightedRandom:
    def test_unit_pools_recover_classical_bias(self):
        ctx = gaussian_ctx(*cubic_mean())
        for p in (0, 1):
            avg = average_random_summary(ctx, 0.5, p, 0.2, [1, 1, 1, 1])
            ind = individual_summary(ctx, 0.5, p, 0.2, 100)
            assert avg.persistent_bias == 0.0
            assert abs(avg.leading_bias - ind.leading_bias) < 1e-10

    def test_persistent_term_quadratic_mean_paired_pools(self):
        ctx = uniform_ctx(*square_mean())
        out = average_random_summary(ctx, 0.0, 0, 0.1, [2, 2, 2])
        assert abs(out.persistent_bias - 1.0 / 6.0) < 1e-9
        assert out.variance is None
        assert out.variance_order == "1/(J h)"
        assert out.estimator is Estimator.AVERAGE
        assert out.design is Design.RANDOM

    def test_closed_local_constant_value(self, average_random_bias_closed_p0):
        ctx = uniform_ctx(*square_mean())
        got = average_random_bias_closed_p0(ctx, 0.0, 0.1, [2, 2])
        assert abs(got - (1.0 / 6.0 + 0.001)) < 1e-10

    def test_general_path_matches_closed_path_uniform(self, average_random_bias_closed_p0):
        ctx = uniform_ctx(*cubic_mean())
        for sizes in ([2, 2], [1, 2], [1, 2, 3]):
            general = average_random_summary(ctx, 0.3, 0, 0.1, sizes).leading_bias
            closed = average_random_bias_closed_p0(ctx, 0.3, 0.1, sizes)
            assert abs(general - closed) < 1e-9

    def test_general_path_matches_closed_path_sloped_density(self, average_random_bias_closed_p0):
        ctx = triangular_ctx(*cubic_mean())
        general = average_random_summary(ctx, 0.3, 0, 0.1, [2, 3]).leading_bias
        closed = average_random_bias_closed_p0(ctx, 0.3, 0.1, [2, 3])
        assert abs(general - closed) < 1e-9

    def test_persistent_term_scales_with_size_mix(self):
        # for the local constant case the persistent term is the (1,1)
        # pool constant times E{m(X) - m(x)}
        x = 0.3
        ctx = uniform_ctx(*cubic_mean())
        out = average_random_summary(ctx, x, 0, 0.05, [1, 2, 2])
        expected = (1.0 / 3.0) * (0.0 - x**3)
        assert abs(out.persistent_bias - expected) < 1e-9

    def test_linear_mean_has_zero_dominating_bias_local_linear(self):
        ctx = uniform_ctx(lambda s: 2.0 * s + 1.0,
                          lambda x, k: 2.0 if k == 1 else 0.0)
        out = average_random_summary(ctx, 0.2, 1, 0.1, [2, 3])
        assert abs(out.persistent_bias) < 1e-14
        assert abs(out.leading_bias) < 1e-14

    def test_halving_quadrature_tolerance_is_stable(self):
        ctx = gaussian_ctx(*cubic_mean())
        base = average_random_summary(ctx, 0.7, 1, 0.2, [1, 2, 3])
        finer = average_random_summary(
            replace(ctx, quad_tol=ctx.quad_tol / 2.0), 0.7, 1, 0.2, [1, 2, 3])
        rel = abs(finer.leading_bias - base.leading_bias) / abs(base.leading_bias)
        assert rel < 1e-7
        rel_p = abs(finer.persistent_bias - base.persistent_bias) / abs(base.persistent_bias)
        assert rel_p < 1e-7


class TestProductWeightedRandom:
    def test_singleton_pools_reduce_to_individual_bias(self):
        ctx = gaussian_ctx(*cubic_mean())
        for p in (0, 1):
            prod = product_random_bias(ctx, 0.5, p, 0.2, 1)
            ind = individual_summary(ctx, 0.5, p, 0.2, 50)
            assert abs(prod.leading_bias - ind.leading_bias) < 1e-13
        assert prod.persistent_bias == 0.0
        assert prod.variance is None
        assert prod.variance_order == "1/(J h^c)"

    def test_local_linear_bias_is_size_free(self):
        # with a symmetric kernel the local linear dominating bias is
        # h^2 mu_2 beta_2 for every common pool size
        ctx = uniform_ctx(*square_mean())
        expected = 0.15**2 * 0.2 * 1.0
        for c in (1, 2, 3, 5):
            out = product_random_bias(ctx, 0.2, 1, 0.15, c)
            assert abs(out.leading_bias - expected) < 1e-12

    def test_local_constant_bias_matches_classical_form(self):
        m, md = square_mean()
        ctx = triangular_ctx(m, md)
        x, h = 0.3, 0.1
        nw = h * h * 0.2 * (0.6 * (-1.0) / 0.7 + 1.0)
        out = product_random_bias(ctx, x, 0, h, 2)
        assert abs(out.leading_bias - nw) < 1e-10

    def test_huge_pool_size_makes_the_system_singular(self):
        ctx = uniform_ctx(*square_mean())
        with pytest.raises(SingularMomentMatrix):
            product_random_bias(ctx, 0.2, 1, 0.1, 10**15)

    def test_rejects_fractional_or_zero_size(self):
        ctx = uniform_ctx(*square_mean())
        with pytest.raises(UserInputError):
            product_random_bias(ctx, 0.2, 1, 0.1, 0)


class TestMarginalAndIndividual:
    def test_marginal_bias_is_bitwise_individual_bias(self):
        ctx = gaussian_ctx(*cubic_mean())
        grid = np.linspace(-1.0, 1.0, 9)
        for p in (0, 1):
            for sizes in ([1] * 4, [2] * 4, [4] * 4, [1, 2, 4]):
                for x in grid:
                    marg = marginal_random_summary(ctx, x, p, 0.2, 120, sizes)
                    ind = individual_summary(ctx, x, p, 0.2, 120)
                    assert marg.leading_bias == ind.leading_bias
                    assert marg.persistent_bias == 0.0

    def test_individual_variance_worked_example(self):
        # local linear, Epanechnikov, unit noise, f = 0.5, N = 600, h = 0.2:
        # nu_0 sigma^2 / (N h f) = 0.6 / 60 = 0.01
        ctx = uniform_ctx(*square_mean())
        out = individual_summary(ctx, 0.2, 1, 0.2, 600)
        assert abs(out.variance - 0.01) < 1e-12
        assert out.variance_order == "1/(N h)"

    def test_equal_pools_inflate_variance_by_the_pool_size(self):
        ctx = uniform_ctx(*square_mean())
        ind = individual_summary(ctx, 0.2, 1, 0.2, 600)
        for c in (1, 2, 4):
            marg = marginal_random_summary(ctx, 0.2, 1, 0.2, 600, [c] * 10)
            assert abs(marg.variance / ind.variance - c) < 1e-12

    def test_unequal_pools_worked_example(self):
        # sizes (1, 3), constant noise 2, local constant, uniform density:
        # inflation = 2 * (0 + 6) / 4 = 3, sandwich = nu_0 = 0.6,
        # variance = (2 + 3) * 0.6 / (4 * 0.5 * 0.5) = 3
        ctx = uniform_ctx(*square_mean(), sigma2=2.0)
        out = marginal_random_summary(ctx, 0.0, 0, 0.5, 4, [1, 3])
        assert abs(out.variance - 3.0) < 1e-12

    def test_heteroscedastic_inflation_uses_average_noise(self):
        m, md = square_mean()
        ctx = TheoryContext(
            mean=m, density=lambda s: 0.5, sigma2=lambda s: 1.0 + s * s,
            support=(-1.0, 1.0), mean_derivative=md,
            density_derivative=lambda x, k: 0.0,
        )
        x, c, n, h = 0.5, 3, 300, 0.2
        out = marginal_random_summary(ctx, x, 0, h, n, [c] * 100)
        s2x = 1.25
        s2bar = 4.0 / 3.0
        expected = (s2x + s2bar * (c - 1.0)) * 0.6 / (n * h * 0.5)
        assert abs(out.variance - expected) < 1e-10


class TestHomogeneousDesign:
    def test_average_summary_equals_individual_summary(self):
        ctx = uniform_ctx(*cubic_mean())
        for p in (0, 1):
            hom = homogeneous_summary(ctx, Estimator.AVERAGE, 0.3, p, 0.2, 600, 3)
            ind = individual_summary(ctx, 0.3, p, 0.2, 600)
            assert hom.leading_bias == ind.leading_bias
            assert hom.variance == ind.variance
            assert hom.design is Design.HOMOGENEOUS

    def test_product_with_singleton_pools_equals_average(self):
        ctx = uniform_ctx(*cubic_mean())
        avg = homogeneous_summary(ctx, Estimator.AVERAGE, 0.3, 1, 0.2, 400, 1)
        prod = homogeneous_summary(ctx, Estimator.PRODUCT, 0.3, 1, 0.2, 400, 1)
        assert prod.leading_bias == avg.leading_bias
        assert prod.variance == avg.variance

    def test_squared_epanechnikov_behaves_like_quartic_kernel(self):
        # the square of the parabola kernel is proportional to the quartic
        # kernel, so pairs fit with product weights must match an
        # individual fit under the quartic kernel in bias and variance
        ctx = uniform_ctx(*cubic_mean())
        for p in (0, 1):
            prod = homogeneous_summary(
                ctx, Estimator.PRODUCT, 0.3, p, 0.2, 500, 2,
                kernel=KernelKind.EPANECHNIKOV)
            quartic = individual_summary(
                ctx, 0.3, p, 0.2, 500, kernel=KernelKind.QUARTIC)
            assert abs(prod.leading_bias - quartic.leading_bias) < 1e-12
            assert abs(prod.variance - quartic.variance) < 1e-12

    def test_gaussian_kernel_is_rejected(self):
        ctx = uniform_ctx(*square_mean())
        with pytest.raises(UnsupportedKernel):
            homogeneous_summary(ctx, Estimator.PRODUCT, 0.0, 1, 0.1, 100, 2,
                                kernel=KernelKind.GAUSSIAN)

    def test_only_pooled_estimators_are_covered(self):
        ctx = uniform_ctx(*square_mean())
        with pytest.raises(UserInputError):
            homogeneous_summary(ctx, Estimator.INDIVIDUAL, 0.0, 1, 0.1, 100, 2)
        with pytest.raises(UserInputError):
            homogeneous_summary(ctx, Estimator.AVERAGE, 0.0, 1, 0.1, 100, 0)
