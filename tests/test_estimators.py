import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, note, settings, strategies as st
from scipy.optimize import least_squares
from scipy.special import logsumexp

from poolreg.data import (
    Design,
    IndividualDataset,
    PooledDataset,
    pool_homogeneous,
    pool_random,
)
from poolreg.errors import (
    NonFiniteValue,
    NonPositiveBandwidth,
    SingularLocalSystem,
    UserInputError,
)
from poolreg.estimators import (
    CurveEstimate,
    Estimator,
    FitConfig,
    build_pseudo_data,
    estimate_curve,
    fit_average_weighted,
    fit_individual,
    fit_marginal_integration,
    fit_product_weighted,
)
from poolreg import estimators
from poolreg.bandwidth import select_bandwidth
from poolreg.estimators import _local_fits, _pool_design
from poolreg.kernels import KernelKind, kernel_eval
from poolreg.simulation import get_dgp, sample_dgp


def kh(cfg, t):
    return kernel_eval(cfg.kernel, np.asarray(t) / cfg.h) / cfg.h


def poly_at(beta, t):
    return sum(b * np.asarray(t) ** ell for ell, b in enumerate(beta))


# literal objectives, minimized numerically as an independent oracle; each Q
# is a weighted sum of squared residuals, so Levenberg-Marquardt on the
# residual vector minimizes it directly without touching the normal equations


def q_individual(beta, x_arr, y, cfg, x):
    t = x_arr - x
    return np.sqrt(kh(cfg, t)) * (y - poly_at(beta, t))


def pool_members(pooled):
    """Member covariates of each pool, in pool order."""
    off = pooled.offsets
    return [pooled.x_flat[a:b] for a, b in zip(off[:-1], off[1:])]


def q_pooled(beta, pooled, cfg, x, weight):
    out = []
    for members, z in zip(pool_members(pooled), pooled.z):
        t = members - x
        k = kh(cfg, t)
        w = k.mean() if weight == "average" else k.prod()
        out.append(np.sqrt(w) * (z - poly_at(beta, t).mean()))
    return np.asarray(out)


def q_marginal(beta, pooled, cfg, x):
    pseudo = build_pseudo_data(pooled)
    t = pooled.x_flat - x
    return np.sqrt(kh(cfg, t)) * (pseudo.r_flat - poly_at(beta, t))


def minimize_objective(fun, p, *args):
    res = least_squares(
        fun, np.zeros(p + 1), args=args, method="lm",
        xtol=1e-15, ftol=1e-15, gtol=1e-15,
    )
    return res.x


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(NonPositiveBandwidth):
            FitConfig(p=1, h=0.0)
        with pytest.raises(UserInputError):
            FitConfig(p=-1, h=1.0)

    def test_infinite_bandwidth_is_rejected(self):
        # h = inf passes h > 0 but fails every fit, with a warning
        with pytest.raises(NonFiniteValue):
            FitConfig(p=1, h=np.inf)


class TestIndividual:
    def test_constant_reproduction(self):
        data = IndividualDataset(x=np.linspace(-1, 1, 9), y=np.full(9, 5.0))
        for p in (0, 1, 2):
            fit = fit_individual(data, FitConfig(p=p, h=0.8), 0.1)
            assert abs(fit.m_hat - 5.0) <= 1e-10

    def test_linear_reproduction(self):
        x = np.linspace(0, 2, 15)
        data = IndividualDataset(x=x, y=2 * x + 1)
        fit = fit_individual(data, FitConfig(p=1, h=0.5), 1.0)
        assert abs(fit.m_hat - 3.0) <= 1e-8
        assert abs(fit.beta[1] - 2.0) <= 1e-8

    def test_hand_computed_weighted_mean(self):
        data = IndividualDataset(x=[-1.0, 0.0, 1.0], y=[0.0, 1.0, 0.0])
        fit = fit_individual(data, FitConfig(p=0, h=10.0), 0.0)
        w = kernel_eval(KernelKind.EPANECHNIKOV, np.array([-0.1, 0.0, 0.1]))
        expected = float(w @ data.y / w.sum())
        assert abs(fit.m_hat - expected) <= 1e-14

    def test_quadratic_derivatives(self):
        x = np.linspace(-1, 1, 21)
        data = IndividualDataset(x=x, y=x**2)
        fit = fit_individual(data, FitConfig(p=2, h=0.9), 0.5)
        assert abs(fit.m_hat - 0.25) <= 1e-8
        assert abs(fit.derivative(1) - 1.0) <= 1e-8
        assert abs(fit.derivative(2) - 2.0) <= 1e-8

    def test_empty_window_fails(self):
        data = IndividualDataset(x=[0.0, 0.1], y=[1.0, 2.0])
        with pytest.raises(SingularLocalSystem):
            fit_individual(data, FitConfig(p=0, h=0.05), 5.0)


class TestPseudoData:
    def test_two_pool_example(self):
        pooled = PooledDataset(
            z=[2.0, 4.0], sizes=[2, 2], x_flat=[0.0, 1.0, 2.0, 3.0],
            design=Design.EXTERNAL,
        )
        pseudo = build_pseudo_data(pooled)
        assert pseudo.mu_hat == 3.0
        assert pseudo.r.tolist() == [1.0, 5.0]
        assert pseudo.r_flat.tolist() == [1.0, 1.0, 5.0, 5.0]

    def test_unit_pools_keep_responses(self):
        pooled = PooledDataset(
            z=[7.0, -1.0], sizes=[1, 1], x_flat=[0.0, 1.0], design=Design.EXTERNAL
        )
        assert build_pseudo_data(pooled).r.tolist() == [7.0, -1.0]

    def test_constant_pools(self):
        pooled = PooledDataset(
            z=[4.0, 4.0, 4.0], sizes=[3, 2, 3], x_flat=np.arange(8.0),
            design=Design.EXTERNAL,
        )
        pseudo = build_pseudo_data(pooled)
        assert pseudo.mu_hat == 4.0
        assert np.all(pseudo.r == 4.0)

    def test_weighted_mean_identity_equal_sizes(self):
        rng = np.random.default_rng(3)
        data = IndividualDataset(x=rng.normal(size=12), y=rng.normal(size=12))
        pooled = pool_random(data, 3, rng)
        pseudo = build_pseudo_data(pooled)
        lhs = float(pooled.sizes @ pseudo.r) / pooled.n_units
        # with equal sizes, c_j R_j averages back to mu_hat
        assert abs(lhs - pseudo.mu_hat) <= 1e-12
        assert abs(float(np.mean(pseudo.r)) - pseudo.mu_hat) <= 1e-12


class TestPooledFits:
    def make_pooled(self, seed=0, n=24, c=3, homogeneous=False):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, size=n)
        y = 2 * x + 1
        data = IndividualDataset(x=x, y=y)
        if homogeneous:
            return pool_homogeneous(data, c)
        return pool_random(data, c, rng)

    def test_constant_pools_reproduce(self):
        pooled = PooledDataset(
            z=[5.0, 5.0, 5.0], sizes=[2, 2, 2],
            x_flat=[-1.0, -0.5, 0.0, 0.25, 0.5, 1.0], design=Design.EXTERNAL,
        )
        cfg = FitConfig(p=0, h=2.0)
        assert abs(fit_average_weighted(pooled, cfg, 0.1).m_hat - 5.0) <= 1e-10
        assert abs(fit_product_weighted(pooled, cfg, 0.1).m_hat - 5.0) <= 1e-10
        assert abs(fit_marginal_integration(pooled, cfg, 0.1).m_hat - 5.0) <= 1e-10

    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_linear_reproduction_pooled(self, homogeneous):
        pooled = self.make_pooled(seed=1, homogeneous=homogeneous)
        cfg = FitConfig(p=1, h=0.7)
        for fitter in (fit_average_weighted, fit_product_weighted):
            fit = fitter(pooled, cfg, 0.2)
            assert abs(fit.m_hat - 1.4) <= 1e-8, fitter.__name__

    def test_unit_pools_collapse_to_individual(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, size=20)
        y = np.sin(3 * x) + rng.normal(scale=0.1, size=20)
        data = IndividualDataset(x=x, y=y)
        pooled = pool_random(data, 1, rng)
        unpooled = IndividualDataset(x=pooled.x_flat, y=pooled.z)
        cfg = FitConfig(p=1, h=0.6)
        for x0 in (-0.5, 0.0, 0.4):
            m0 = fit_individual(unpooled, cfg, x0).m_hat
            assert abs(fit_average_weighted(pooled, cfg, x0).m_hat - m0) <= 1e-10
            assert abs(fit_product_weighted(pooled, cfg, x0).m_hat - m0) <= 1e-10
            assert abs(fit_marginal_integration(pooled, cfg, x0).m_hat - m0) <= 1e-10

    def test_product_weight_zero_when_member_out_of_window(self):
        pooled = PooledDataset(
            z=[1.0, 2.0], sizes=[2, 2], x_flat=[0.0, 5.0, 0.1, 0.2],
            design=Design.EXTERNAL,
        )
        cfg = FitConfig(p=0, h=1.0)
        table = pooled.member_table.T[:, None, :]  # slots x one point x pools
        members = np.where(table >= 0, pooled.x_flat[table], np.nan)
        _, w_prod = _pool_design(members, pooled.sizes, np.array([[0.0]]), cfg.h, cfg, product=True)
        assert w_prod[0, 0] == 0.0
        assert w_prod[0, 1] > 0.0

    def test_marginal_weighted_mean_large_h(self):
        pooled = PooledDataset(
            z=[2.0, 4.0], sizes=[2, 2], x_flat=[0.0, 1.0, 2.0, 3.0],
            design=Design.EXTERNAL,
        )
        cfg = FitConfig(p=0, h=50.0)
        fit = fit_marginal_integration(pooled, cfg, 1.5)
        pseudo = build_pseudo_data(pooled)
        w = kh(cfg, pooled.x_flat - 1.5)
        expected = float(w @ pseudo.r_flat / w.sum())
        assert abs(fit.m_hat - expected) <= 1e-12
        brute = minimize_objective(q_marginal, 0, pooled, cfg, 1.5)
        assert abs(fit.m_hat - brute[0]) <= 1e-6


class TestSolverAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_small_instances(self, seed):
        rng = np.random.default_rng(100 + seed)
        j = int(rng.integers(2, 7))
        p = int(rng.integers(0, 3))
        sizes = rng.integers(1, 4, size=j)
        n = int(sizes.sum())
        x = rng.uniform(-1, 1, size=n)
        y = rng.normal(size=n)
        data = IndividualDataset(x=x, y=y)
        pooled = PooledDataset(
            z=np.add.reduceat(y, np.r_[0, np.cumsum(sizes)[:-1]]) / sizes,
            sizes=sizes, x_flat=x, design=Design.EXTERNAL,
        )
        cfg = FitConfig(p=p, h=1.5)
        x0 = float(np.median(x))
        if j >= p + 1:
            fit = fit_average_weighted(pooled, cfg, x0)
            brute = minimize_objective(q_pooled, p, pooled, cfg, x0, "average")
            np.testing.assert_allclose(fit.beta, brute, atol=1e-6)
            fit = fit_product_weighted(pooled, cfg, x0)
            brute = minimize_objective(q_pooled, p, pooled, cfg, x0, "product")
            np.testing.assert_allclose(fit.beta, brute, atol=1e-6)
        fit = fit_individual(data, cfg, x0)
        brute = minimize_objective(q_individual, p, x, y, cfg, x0)
        np.testing.assert_allclose(fit.beta, brute, atol=1e-6)
        fit = fit_marginal_integration(pooled, cfg, x0)
        brute = minimize_objective(q_marginal, p, pooled, cfg, x0)
        np.testing.assert_allclose(fit.beta, brute, atol=1e-6)


EPS = np.finfo(float).eps


def random_systems(q, rng, count=300):
    """Symmetric [A | b] as (q, q + 1, count) planes, A = Q diag(lam) Q^T.

    In turn: definite, indefinite, rank deficient (one lam exactly 0),
    graded like a moment matrix (D A D, D spanning 8 decades) and scaled by
    1e-150, 1 or 1e150. rcond spans 1 down to 1e-16; then come an empty
    system, two non-finite ones and diagonal ones with rcond 1e-9 relative
    off the rcond threshold 1e-12 on either side.
    """
    out = []
    for k in range(count):
        Q = np.linalg.qr(rng.normal(size=(q, q)))[0]
        lo = rng.uniform(-16, 0)
        lam = 10.0 ** np.r_[0.0, rng.uniform(lo, 0, q - 2), lo][:q] if q > 1 else np.ones(1)
        if k % 5 == 1:
            lam *= rng.choice([-1.0, 1.0], q)
        if k % 5 == 2 and q > 1:
            lam[rng.integers(1, q)] = 0.0
        A = (Q * lam) @ Q.T
        if k % 5 == 3:
            d = 10.0 ** rng.uniform(-4, 4, q)
            A = d[:, None] * A * d
        scale = 10.0 ** rng.choice([-150, 0, 150]) if k % 5 == 4 else 1.0
        out.append(np.c_[(A + A.T) / 2, rng.normal(size=q)] * scale)
    bad = np.ones((q, q + 1))
    out += [np.zeros((q, q + 1)), bad * np.nan, bad * np.inf]
    if q > 1:
        for r in (1e-12 * (1 + 1e-9), 1e-12 * (1 - 1e-9)):
            out.append(np.c_[np.diag(np.r_[1.0, np.full(q - 1, r)]), np.ones(q)])
    return np.moveaxis(np.array(out), 0, -1)


def oracle_solve(Ab):
    """eigvalsh for rcond and lstsq for beta, one system at a time."""
    rcond, beta = [], []
    for system in np.moveaxis(Ab, -1, 0):
        A, b = system[:, :-1], system[:, -1]
        if not np.isfinite(system).all():
            rcond.append(np.nan)
            beta.append(np.full(b.size, np.nan))
            continue
        s = np.abs(np.linalg.eigvalsh(A))
        rcond.append(s.min() / s.max() if s.max() > 0 else np.nan)
        beta.append(np.linalg.lstsq(A, b, rcond=None)[0])
    return np.array(rcond), np.array(beta)


class TestPlanarSolve:
    """_solve and _jacobi on random systems of every order the engine meets."""

    @pytest.mark.parametrize("q", range(1, 7))
    def test_against_eigvalsh_and_lstsq(self, q):
        Ab = random_systems(q, np.random.default_rng(q))
        beta, failed, _ = estimators._solve(Ab, np.ones((q, 1)))
        rcond, want = oracle_solve(Ab)
        passes = rcond >= estimators._RCOND_MIN
        assert np.isnan(rcond).sum() == 3 and failed[np.isnan(rcond)].all()
        decided = np.isnan(rcond) | (np.abs(rcond / estimators._RCOND_MIN - 1) > 1e-10)
        assert decided.all()
        np.testing.assert_array_equal(failed, ~passes)
        assert passes.any() and (~passes & ~np.isnan(rcond)).any() == (q > 1)
        assert np.isnan(beta[failed]).all() and np.isfinite(beta[passes]).all()
        scale = np.abs(want[passes]).max(axis=1) * EPS / rcond[passes]
        err = np.abs(beta[passes] - want[passes]).max(axis=1)
        assert (err <= 8 * q * scale).all()

    def test_subnormal_system(self):
        # 1 / A overflows: beta is b / A, not b * inf
        A, b = 2.818906e-318, 3.3586e-319
        beta, failed, _ = estimators._solve(np.array([[[A], [b]]]), np.ones((1, 1)))
        assert beta[0, 0] == b / A and not failed[0]

    @pytest.mark.parametrize("q", range(1, 7))
    def test_decomposition_within_the_sweep_cap(self, q, monkeypatch):
        A = random_systems(q, np.random.default_rng(10 + q))[:, :-1]
        A = A[..., np.isfinite(A).all(axis=(0, 1))]
        lam, V = estimators._jacobi(A)
        A, V, lam = np.moveaxis(A, -1, 0), np.moveaxis(V, -1, 0), lam.T
        norm = np.linalg.norm(A, axis=(1, 2))
        residual = np.linalg.norm(A @ V - V * lam[:, None], axis=(1, 2))
        assert (residual <= 8 * q * EPS * norm).all()
        orthogonal = np.linalg.norm(np.swapaxes(V, 1, 2) @ V - np.eye(q), axis=(1, 2))
        assert (orthogonal <= 8 * q * EPS).all()
        # every system settles within 10 sweeps, far below the cap
        monkeypatch.setattr(estimators, "_SWEEPS", 10)
        capped = estimators._jacobi(np.moveaxis(A, 0, -1))
        np.testing.assert_array_equal(capped[0], lam.T)
        np.testing.assert_array_equal(capped[1], np.moveaxis(V, 0, -1))

    def test_fits_make_no_linalg_call(self, monkeypatch):
        # the engine solves with its own rotations: with every numpy.linalg
        # function raising, CV (running sums and flat pass) and curves still run
        assert "linalg" not in inspect.getsource(estimators)
        rng = np.random.default_rng(8)
        people = sample_dgp(get_dgp("d1"), 600, rng)
        pooled = pool_random(people, 2, rng)

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name in dir(np.linalg):
            function = getattr(np.linalg, name)
            if callable(function) and not isinstance(function, type):
                monkeypatch.setattr(np.linalg, name, refuse)
        with pytest.raises(AssertionError):
            np.linalg.solve(np.eye(2), np.ones(2))
        solve, bounded = estimators._solve, []

        def spy(Ab, scale, bounds=None):
            bounded.append(bounds is not None)
            return solve(Ab, scale, bounds)

        monkeypatch.setattr(estimators, "_solve", spy)
        for tag in Estimator:
            data = people if tag is Estimator.INDIVIDUAL else pooled
            for p in (0, 1, 2):
                cfg = FitConfig(p=p, h=0.3)
                trace = select_bandwidth(data, tag, cfg, grid=[0.05, 0.3, 1.5])
                assert np.isfinite(trace.criterion).any()
                curve = estimate_curve(tag, data, cfg, np.linspace(-2, 2, 41))
                assert np.isfinite(curve.values).any()
        assert any(bounded) and not all(bounded)  # running sums and the flat pass


# reordering or rescaling changes only the rounding of the normal sums,
# which the solve magnifies by the condition of the local system: over
# 20,000 random cases the largest change was 1.0e-7 on responses of order 1
EQUIVARIANCE_RTOL = 1e-6
GRID = np.linspace(0.0, 1.0, 5)
# covariates and grid lie in [0, 1], so h > 1 puts every member in every window
FULL_WINDOW_H = st.floats(min_value=1.1, max_value=4.0)


def random_pools(seed, n_pools, equal_sizes=False):
    """Member covariates in [0, 1], responses, pool sizes 1..4 and pool means."""
    rng = np.random.default_rng(seed)
    if equal_sizes:
        sizes = np.full(n_pools, rng.integers(1, 5))
    else:
        sizes = rng.integers(1, 5, size=n_pools)
    x = rng.uniform(0.0, 1.0, size=int(sizes.sum()))
    y = np.cos(3.0 * x) + rng.normal(scale=0.3, size=x.size)
    z = np.add.reduceat(y, np.r_[0, np.cumsum(sizes)[:-1]]) / sizes
    return rng, x, y, sizes, z


def all_curves(x, y, sizes, z, cfg, grid):
    """Every estimator's curve: individual on (x, y), the rest on the pools."""
    units = IndividualDataset(x=x, y=y)
    pooled = PooledDataset(z=z, sizes=sizes, x_flat=x, design=Design.EXTERNAL)
    return [
        estimate_curve(tag, units if tag is Estimator.INDIVIDUAL else pooled, cfg, grid)
        for tag in Estimator
    ]


def assert_same_curves(got, want):
    for g, w in zip(got, want):
        assert np.array_equal(g.failed, w.failed), g.estimator
        np.testing.assert_allclose(
            g.values, w.values, rtol=EQUIVARIANCE_RTOL, atol=EQUIVARIANCE_RTOL,
            equal_nan=True, err_msg=str(g.estimator),
        )


class TestEquivariance:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.x = rng.uniform(0, 4, size=30)
        self.y = np.cos(self.x) + rng.normal(scale=0.3, size=30)
        self.rng = rng

    def all_fits(self, x_arr, y_arr, cfg, x0):
        data = IndividualDataset(x=x_arr, y=y_arr)
        pooled = pool_homogeneous(data, 3)
        return [
            fit_individual(data, cfg, x0).m_hat,
            fit_average_weighted(pooled, cfg, x0).m_hat,
            fit_product_weighted(pooled, cfg, x0).m_hat,
            fit_marginal_integration(pooled, cfg, x0).m_hat,
        ]

    def test_response_affine_equivariance(self):
        cfg = FitConfig(p=1, h=1.2)
        base = self.all_fits(self.x, self.y, cfg, 2.0)
        mapped = self.all_fits(self.x, -2.5 * self.y + 4.0, cfg, 2.0)
        for m, b in zip(mapped, base):
            assert abs(m - (-2.5 * b + 4.0)) <= 1e-8

    def test_covariate_translation_equivariance(self):
        cfg = FitConfig(p=1, h=1.2)
        base = self.all_fits(self.x, self.y, cfg, 2.0)
        shifted = self.all_fits(self.x + 10.0, self.y, cfg, 12.0)
        for s, b in zip(shifted, base):
            assert abs(s - b) <= 1e-8

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_pools=st.integers(2, 8),
           p=st.sampled_from([0, 1, 2]), h=FULL_WINDOW_H)
    def test_pool_order(self, seed, n_pools, p, h):
        rng, x, y, sizes, z = random_pools(seed, n_pools)
        cfg = FitConfig(p=p, h=h)
        off = np.r_[0, np.cumsum(sizes)]
        perm = rng.permutation(n_pools)
        members = np.concatenate([np.arange(off[j], off[j + 1]) for j in perm])
        assert_same_curves(
            all_curves(x[members], y[members], sizes[perm], z[perm], cfg, GRID),
            all_curves(x, y, sizes, z, cfg, GRID),
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_pools=st.integers(2, 8),
           p=st.sampled_from([0, 1, 2]), h=FULL_WINDOW_H)
    def test_member_order_within_pools(self, seed, n_pools, p, h):
        rng, x, y, sizes, z = random_pools(seed, n_pools)
        cfg = FitConfig(p=p, h=h)
        off = np.r_[0, np.cumsum(sizes)]
        members = np.concatenate(
            [off[j] + rng.permutation(sizes[j]) for j in range(n_pools)]
        )
        assert_same_curves(
            all_curves(x[members], y[members], sizes, z, cfg, GRID),
            all_curves(x, y, sizes, z, cfg, GRID),
        )

    # equal pool sizes: a product weight carries h^-c_j, so with unequal
    # sizes rescaling h reweights pools against each other and the
    # product-weighted curve is not scale free
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_pools=st.integers(2, 8),
           p=st.sampled_from([0, 1, 2]), h=FULL_WINDOW_H,
           scale=st.floats(min_value=0.01, max_value=100.0))
    def test_covariate_scale(self, seed, n_pools, p, h, scale):
        _, x, y, sizes, z = random_pools(seed, n_pools, equal_sizes=True)
        assert_same_curves(
            all_curves(scale * x, y, sizes, z, FitConfig(p=p, h=scale * h), scale * GRID),
            all_curves(x, y, sizes, z, FitConfig(p=p, h=h), GRID),
        )


    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_pools=st.integers(2, 8),
           p=st.sampled_from([0, 1, 2]), h=FULL_WINDOW_H,
           a=st.floats(min_value=-5.0, max_value=5.0),
           b=st.floats(min_value=-100.0, max_value=100.0))
    def test_response_affine(self, seed, n_pools, p, h, a, b):
        _, x, y, sizes, z = random_pools(seed, n_pools)
        cfg = FitConfig(p=p, h=h)
        mapped = all_curves(x, a * y + b, sizes, a * z + b, cfg, GRID)
        for m, base in zip(mapped, all_curves(x, y, sizes, z, cfg, GRID)):
            assert np.array_equal(m.failed, base.failed), m.estimator
            np.testing.assert_allclose(
                m.values, a * base.values + b, rtol=EQUIVARIANCE_RTOL,
                atol=EQUIVARIANCE_RTOL * (1.0 + abs(b)), equal_nan=True,
                err_msg=str(m.estimator),
            )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 20),
           p=st.sampled_from([0, 1, 2]), h=FULL_WINDOW_H)
    def test_unit_pools_collapse_to_individual(self, seed, n, p, h):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, size=n)
        y = np.cos(3.0 * x) + rng.normal(scale=0.3, size=n)
        individual, *pooled = all_curves(x, y, np.ones(n, dtype=int), y, FitConfig(p=p, h=h), GRID)
        assert_same_curves(pooled, [individual] * 3)


class TestCurveAndBatch:
    def test_curve_matches_scalar_fits(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(-1, 1, size=40)
        y = x**2 + rng.normal(scale=0.2, size=40)
        data = IndividualDataset(x=x, y=y)
        pooled = pool_random(data, 2, rng)
        cfg = FitConfig(p=1, h=0.5)
        grid = np.linspace(-0.6, 0.6, 7)
        cases = [
            (Estimator.INDIVIDUAL, data, fit_individual),
            (Estimator.AVERAGE, pooled, fit_average_weighted),
            (Estimator.PRODUCT, pooled, fit_product_weighted),
            (Estimator.MARGINAL, pooled, fit_marginal_integration),
        ]
        for tag, d, fitter in cases:
            curve = estimate_curve(tag, d, cfg, grid)
            assert not curve.failed.any()
            for xi, vi in zip(grid, curve.values):
                assert abs(vi - fitter(d, cfg, float(xi)).m_hat) <= 1e-11, tag

    def test_curve_flags_failures_pointwise(self):
        data = IndividualDataset(x=[0.0, 0.1, 0.2], y=[1.0, 2.0, 3.0])
        cfg = FitConfig(p=0, h=0.15)
        curve = estimate_curve(Estimator.INDIVIDUAL, data, cfg, [0.1, 9.0])
        assert curve.failed.tolist() == [False, True]
        assert np.isnan(curve.values[1])
        assert curve.n_failed == 1

    def test_curve_is_pure(self):
        rng = np.random.default_rng(5)
        data = IndividualDataset(x=rng.normal(size=25), y=rng.normal(size=25))
        cfg = FitConfig(p=1, h=0.8)
        a = estimate_curve(Estimator.INDIVIDUAL, data, cfg, np.linspace(-1, 1, 5))
        b = estimate_curve(Estimator.INDIVIDUAL, data, cfg, np.linspace(-1, 1, 5))
        assert np.array_equal(a.values, b.values, equal_nan=True)

    def test_estimator_data_mismatch(self):
        data = IndividualDataset(x=[0.0, 1.0], y=[0.0, 1.0])
        with pytest.raises(UserInputError):
            estimate_curve(Estimator.AVERAGE, data, FitConfig(p=0, h=1.0), [0.5])

    @pytest.mark.parametrize("kernel", [KernelKind.EPANECHNIKOV, KernelKind.GAUSSIAN])
    def test_non_finite_points_fail_without_warnings(self, kernel):
        _, x, y, sizes, z = random_pools(3, 12)
        units = IndividualDataset(x=x, y=y)
        pooled = PooledDataset(z=z, sizes=sizes, x_flat=x, design=Design.EXTERNAL)
        cfg = FitConfig(p=1, h=0.6, kernel=kernel)
        grid = [np.inf, 0.5, -np.inf, np.nan]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for tag in Estimator:
                curve = estimate_curve(tag, units if tag is Estimator.INDIVIDUAL else pooled,
                                       cfg, grid)
                assert curve.failed.tolist() == [True, False, True, True], tag
                assert np.isfinite(curve.values[1]), tag

    @staticmethod
    def check_leave_one_unit_out(h, max_failed):
        rng = np.random.default_rng(31)
        x = rng.uniform(-1, 1, size=15)
        x[3] = x[8]  # duplicate covariate: only the own record leaves
        y = rng.normal(size=15)
        cfg = FitConfig(p=1, h=h)
        data = IndividualDataset(x=x, y=y)
        beta, failed = _local_fits(
            Estimator.INDIVIDUAL, data, cfg, x, drop=np.arange(15)[:, None]
        )
        values = beta[:, 0]
        assert failed.sum() <= max_failed
        for i in range(15):
            keep = np.ones(15, bool)
            keep[i] = False
            refit = IndividualDataset(x=x[keep], y=y[keep])
            if failed[i]:
                with pytest.raises(SingularLocalSystem):
                    fit_individual(refit, cfg, float(x[i]))
                continue
            assert abs(values[i] - fit_individual(refit, cfg, float(x[i])).m_hat) <= 1e-9

    def test_leave_one_unit_out_matches_refit(self):
        self.check_leave_one_unit_out(h=0.9, max_failed=0)

    def test_leave_one_unit_out_matches_refit_partial_windows(self):
        # windows of a few records on [-1, 1], one too few for the fit
        self.check_leave_one_unit_out(h=0.25, max_failed=2)

    @staticmethod
    def check_leave_pool_out(h, max_failed):
        rng = np.random.default_rng(37)
        x = rng.uniform(-1, 1, size=20)
        y = rng.normal(size=20)
        pooled = pool_random(IndividualDataset(x=x, y=y), 4, rng)
        cfg = FitConfig(p=1, h=h)
        grid = pooled.x_flat
        beta, failed = _local_fits(
            Estimator.AVERAGE, pooled, cfg, grid, drop=pooled.member_pool_index[:, None]
        )
        values = beta[:, 0]
        assert failed.sum() <= max_failed
        off = pooled.offsets
        for j in range(pooled.n_pools):
            keep = np.ones(pooled.n_pools, bool)
            keep[j] = False
            sub = PooledDataset(
                z=pooled.z[keep], sizes=pooled.sizes[keep],
                x_flat=np.concatenate(
                    [pooled.x_flat[off[i]:off[i + 1]] for i in range(5) if keep[i]]
                ),
                design=Design.EXTERNAL,
            )
            for i in range(off[j], off[j + 1]):
                if failed[i]:
                    with pytest.raises(SingularLocalSystem):
                        fit_average_weighted(sub, cfg, float(grid[i]))
                    continue
                refit = fit_average_weighted(sub, cfg, float(grid[i]))
                assert abs(values[i] - refit.m_hat) <= 1e-9

    def test_leave_pool_out_matches_refit(self):
        self.check_leave_pool_out(h=1.1, max_failed=0)

    def test_leave_pool_out_matches_refit_partial_windows(self):
        # pools whose members mostly fall outside a window of 0.7 on [-1, 1]
        self.check_leave_pool_out(h=0.35, max_failed=2)


def log_kernel(kind, t):
    """log K(t), exact in the Gaussian tail where K(t) itself underflows."""
    if kind is KernelKind.GAUSSIAN:
        return -0.5 * t * t - math.log(math.sqrt(2.0 * math.pi))
    with np.errstate(divide="ignore"):
        return np.log(kernel_eval(kind, t))


def dense_reference(tag, data, cfg, points, drop=None):
    """The dense engine, spelled out: every row at every point, all-member weights.

    Per point it builds explicit rows D and weights w over every record or
    pool, gives the dropped rows weight zero, forms A = D^T W D and
    b = D^T W y from the kept rows and solves with lstsq: a refit without
    the fold's rows. The weights are formed in log space and divided by the
    largest, which changes neither beta nor rcond, so none loses digits
    below the normal range however far the kernel's tail; a point fails,
    as in the engine, when rcond is below _RCOND_MIN or the exact weights
    sum below _NORMAL_MIN. Besides beta and the failure mask it returns,
    per point, whether both failure decisions are certain and whether the
    solution is determined to 1e-12: the normal sums carry rounding of
    about n * eps relative to the largest kept sum, and the solve magnifies
    it by the condition number 1/rcond.
    """
    if tag is Estimator.INDIVIDUAL:
        groups, resp = [np.array([v]) for v in data.x], data.y
    elif tag is Estimator.MARGINAL:
        groups, resp = [np.array([v]) for v in data.x_flat], build_pseudo_data(data).r_flat
    else:
        groups, resp = pool_members(data), data.z
    q = cfg.p + 1
    beta = np.full((points.size, q), np.nan)
    failed = np.zeros(points.size, bool)
    certain = np.ones(points.size, bool)
    determined = np.zeros(points.size, bool)
    for i, x0 in enumerate(points):
        t = [(g - x0) / cfg.h for g in groups]
        k = [log_kernel(cfg.kernel, tt) - np.log(cfg.h) for tt in t]
        w = np.array([kk.sum() if tag is Estimator.PRODUCT else logsumexp(kk) - np.log(kk.size)
                      for kk in k])
        if drop is not None:
            w[drop[i][drop[i] >= 0]] = -np.inf
        top = w.max()
        if top == -np.inf:
            failed[i] = True  # empty window
            continue
        w = np.exp(w - top)
        D = np.array([[np.mean(tt**ell) for ell in range(q)] for tt in t])
        A, b = (D * w[:, None]).T @ D, (D * w[:, None]).T @ resp
        largest = np.abs(A).max()
        s = np.linalg.svd(A, compute_uv=False)
        rcond = s[-1] / s[0]
        noise = 8 * (len(groups) + 1) * np.finfo(float).eps * largest / s[0]
        # the log of the weights' sum against the smallest normal number
        below = top + np.log(w.sum()) - np.log(estimators._NORMAL_MIN)
        certain[i] = abs(rcond - estimators._RCOND_MIN) > noise and abs(below) > 1e-6
        determined[i] = noise <= 1e-12 * rcond
        if rcond < estimators._RCOND_MIN or below < 0:
            failed[i] = True
            continue
        beta[i] = np.linalg.lstsq(A, b, rcond=None)[0] / cfg.h ** np.arange(q)
    return beta, failed, certain, determined


def assert_matches_reference(tag, data, cfg, points, drop, ymax):
    """The engine's fits against dense_reference; returns the count of points compared.

    Failures agree where the reference's rcond and underflow decisions are
    certain, NaN rows are exactly the failed ones, every other coefficient
    is finite, and beta_0 agrees to 1e-12 (|beta_0| + ymax) where the
    reference is determined.
    """
    beta, failed = _local_fits(tag, data, cfg, points, drop=drop)
    want, want_failed, certain, determined = dense_reference(tag, data, cfg, points, drop)
    assert np.array_equal(failed[certain], want_failed[certain]), tag
    assert np.array_equal(np.isnan(beta).any(axis=1), failed), tag
    assert np.isfinite(beta[~failed]).all(), tag
    ok = determined & ~want_failed
    np.testing.assert_array_less(np.abs(beta[ok, 0] - want[ok, 0]),
                                 1e-12 * (np.abs(want[ok, 0]) + ymax), err_msg=str(tag))
    return ok.sum()


def folds(tag, pooled, kind):
    """Points and dropped rows of a select_bandwidth fold at every member covariate."""
    x = pooled.x_flat
    if tag in (Estimator.AVERAGE, Estimator.PRODUCT):
        return x, pooled.member_pool_index[:, None]  # the own pool, one row
    if kind == "pool" and tag is Estimator.MARGINAL:
        return x, pooled.member_table[pooled.member_pool_index]  # the own pool's rows
    return x, np.arange(x.size)[:, None]  # the own record


class TestWindowedEngine:
    """The windowed engine against the dense one it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_pools=st.integers(2, 10),
           p=st.sampled_from([0, 1, 2]), kernel=st.sampled_from(list(KernelKind)),
           h=st.floats(min_value=0.01, max_value=1.5),
           fold=st.sampled_from([None, "row", "pool"]))
    # a fold whose dropped pool carries all but 1e-20 of the product weight
    @example(seed=0, n_pools=2, p=0, kernel=KernelKind.GAUSSIAN, h=0.125, fold="row")
    # product folds whose weights sum below the normal range: they fail
    # (1 / A overflowed to an unflagged inf or nan there)
    @example(seed=367614, n_pools=3, p=0, kernel=KernelKind.GAUSSIAN,
             h=0.016626527199009745, fold="row")
    @example(seed=2475439052, n_pools=3, p=0, kernel=KernelKind.GAUSSIAN,
             h=0.011678418730071218, fold="row")
    def test_matches_dense_reference(self, seed, n_pools, p, kernel, h, fold):
        rng, x, y, sizes, z = random_pools(seed, n_pools)
        units = IndividualDataset(x=x, y=y)
        pooled = PooledDataset(z=z, sizes=sizes, x_flat=x, design=Design.EXTERNAL)
        cfg = FitConfig(p=p, h=h, kernel=kernel)
        # unsorted, with duplicates, outside the data, members exactly at x -+ h
        # (weight zero) and just inside (weight about 1e-9 of the peak)
        edge = np.r_[h, -h, h * (1 - 1e-9), -h * (1 - 1e-9)]
        grid = np.r_[rng.uniform(-0.2, 1.2, 4), rng.choice(x, 4) + edge]
        grid = rng.permutation(np.r_[grid, grid[:3]])
        checked = 0
        for tag in Estimator:
            data = units if tag is Estimator.INDIVIDUAL else pooled
            points, drop = folds(tag, pooled, fold) if fold else (grid, None)
            checked += assert_matches_reference(tag, data, cfg, points, drop, np.abs(y).max())
        note(f"points compared: {checked}")

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_pools=st.integers(2, 10), p=st.integers(0, 2),
           h=st.floats(math.log(0.005), math.log(0.1)).map(math.exp),
           fold=st.sampled_from([None, "row", "pool"]))
    # member 27's weights sum to 1e-318; it came back finite, off by 2e-5
    @example(seed=3782496724, n_pools=9, p=1, h=0.015084620639268288, fold=None)
    def test_product_gaussian_at_small_h(self, seed, n_pools, p, h, fold):
        # products of Gaussian member weights reach the bottom of the float
        # range, where the fits whose weights sum below it fail
        _, x, y, sizes, z = random_pools(seed, n_pools)
        pooled = PooledDataset(z=z, sizes=sizes, x_flat=x, design=Design.EXTERNAL)
        cfg = FitConfig(p=p, h=h, kernel=KernelKind.GAUSSIAN)
        drop = folds(Estimator.PRODUCT, pooled, fold)[1] if fold else None
        assert_matches_reference(Estimator.PRODUCT, pooled, cfg, x, drop, np.abs(y).max())

    @pytest.mark.parametrize("kernel", [KernelKind.EPANECHNIKOV, KernelKind.TRICUBE])
    def test_points_far_apart_match_dense(self, kernel):
        # more than 64 members lie between neighbouring points, whose
        # windows share no row; p = 0, so the dense reference determines
        # every fit over these ~450 rows
        _, x, y, sizes, z = random_pools(5, 180)
        units = IndividualDataset(x=x, y=y)
        pooled = PooledDataset(z=z, sizes=sizes, x_flat=x, design=Design.EXTERNAL)
        cfg = FitConfig(p=0, h=0.06, kernel=kernel)
        grid = np.linspace(0.9, 0.1, 5)
        assert (np.diff(np.searchsorted(np.sort(x), grid[::-1])) > 64).all()
        for tag in Estimator:
            data = units if tag is Estimator.INDIVIDUAL else pooled
            beta, failed = _local_fits(tag, data, cfg, grid)
            want, want_failed, certain, determined = dense_reference(tag, data, cfg, grid)
            assert np.array_equal(failed[certain], want_failed[certain]), tag
            ok = determined & ~want_failed
            assert ok.all(), tag
            scale = np.abs(want[ok, 0]) + np.abs(y).max()
            np.testing.assert_array_less(
                np.abs(beta[ok, 0] - want[ok, 0]), 1e-12 * scale, err_msg=str(tag)
            )

    def test_empty_windows_fail_as_dense(self):
        pooled = PooledDataset(
            z=[1.0, 2.0, 3.0], sizes=[1, 2, 3], x_flat=[0.0, 0.5, 0.52, 1.0, 1.01, 1.02],
            design=Design.EXTERNAL,
        )
        cfg = FitConfig(p=0, h=0.1)
        grid = np.array([0.25, 0.0, 0.75, 1.3, 0.51, -0.1])
        for tag in (Estimator.AVERAGE, Estimator.PRODUCT, Estimator.MARGINAL):
            _, failed = _local_fits(tag, pooled, cfg, grid)
            _, want_failed, _, _ = dense_reference(tag, pooled, cfg, grid)
            assert failed.tolist() == want_failed.tolist() == [True, False, True, True, False, True]


POLYNOMIAL = [KernelKind.EPANECHNIKOV, KernelKind.QUARTIC, KernelKind.TRIWEIGHT]


class RunningSums:
    """Forces the running-sum path and counts the points it settles itself."""

    def __init__(self, monkeypatch):
        self.settled, self.last = 0, None
        solve = estimators._solve

        def spy(Ab, scale, bounds=None):
            beta, failed, left_open = solve(Ab, scale, bounds)
            if bounds is not None:
                self.settled += int((~left_open).sum())
                self.last = ~left_open
            return beta, failed, left_open

        monkeypatch.setattr(estimators, "_RUNNING_MIN", 0)
        monkeypatch.setattr(estimators, "_RUNNING_BASE", -1)
        monkeypatch.setattr(estimators, "_solve", spy)


class TestRunningSums:
    """The running-sum path, forced on small data, against the dense reference."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_pools=st.integers(2, 24),
           p=st.integers(0, 3), kernel=st.sampled_from(POLYNOMIAL),
           h=st.floats(min_value=0.01, max_value=2.0),
           fold=st.sampled_from([None, "row", "pool"]),
           offset=st.sampled_from([0.0, 1e6]), unit=st.sampled_from([1.0, 1e-6]),
           chunked=st.booleans())
    def test_matches_dense_reference(self, seed, n_pools, p, kernel, h, fold, offset, unit,
                                     chunked):
        rng, x, y, sizes, z = random_pools(seed, n_pools, equal_sizes=chunked)
        # duplicate covariates, then the covariate moved and rescaled
        x[rng.integers(0, x.size, x.size // 3)] = x[rng.integers(0, x.size, x.size // 3)]
        x, h = offset + unit * x, unit * h
        if chunked:
            # equal pools of consecutive sorted members, which product
            # weights sum on the running sums too
            order = np.argsort(x, kind="stable")
            x, y = x[order], y[order]
            z = np.add.reduceat(y, np.r_[0, np.cumsum(sizes)[:-1]]) / sizes
        units = IndividualDataset(x=x, y=y)
        pooled = PooledDataset(z=z, sizes=sizes, x_flat=x, design=Design.EXTERNAL)
        cfg = FitConfig(p=p, h=h, kernel=kernel)
        # points across the data and beyond it (h may exceed the range), and
        # points with members exactly at x -+ h and at x -+ h (1 - 1e-9)
        edge = np.r_[h, -h, h * (1 - 1e-9), -h * (1 - 1e-9)]
        grid = np.r_[offset + unit * np.linspace(-0.2, 1.2, 15), rng.choice(x, 4) + edge]
        checked = settled = 0
        for tag in Estimator:
            data = units if tag is Estimator.INDIVIDUAL else pooled
            points, drop = folds(tag, pooled, fold) if fold else (grid, None)
            with pytest.MonkeyPatch.context() as mp:
                running = RunningSums(mp)
                beta, failed = _local_fits(tag, data, cfg, points, drop=drop)
            want, want_failed, certain, determined = dense_reference(tag, data, cfg, points, drop)
            assert np.array_equal(failed[certain], want_failed[certain]), tag
            assert np.array_equal(np.isnan(beta).any(axis=1), failed), tag
            ok = determined & ~want_failed
            scale = np.abs(want[ok, 0]) + np.abs(y).max()
            np.testing.assert_array_less(
                np.abs(beta[ok, 0] - want[ok, 0]), 1e-12 * scale, err_msg=str(tag)
            )
            checked += ok.sum()
            if running.last is not None:
                settled += (ok & running.last).sum()
        note(f"points compared: {checked}, of them settled by running sums: {settled}")

    @pytest.mark.parametrize("kernel", POLYNOMIAL)
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_agrees_with_the_flat_pass(self, monkeypatch, kernel, p):
        rng = np.random.default_rng(p)
        people = sample_dgp(get_dgp("d1"), 600, rng)
        pooled = pool_random(people, 3, rng)
        chunked = pool_homogeneous(people, 2)
        cfg = FitConfig(p=p, h=0.8, kernel=kernel)
        x = pooled.x_flat
        cases = [(Estimator.INDIVIDUAL, people, np.arange(x.size)[:, None]),
                 (Estimator.AVERAGE, pooled, pooled.member_pool_index[:, None]),
                 (Estimator.MARGINAL, pooled, pooled.member_table[pooled.member_pool_index])]
        if kernel is not KernelKind.TRIWEIGHT:
            # product weights of pairs under the triweight kernel, of degree
            # 12, stay on the flat pass
            cases.append((Estimator.PRODUCT, chunked, chunked.member_pool_index[:, None]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimators, "_RUNNING_MIN", np.inf)
            want = [_local_fits(tag, data, cfg, data.x if data is people else data.x_flat,
                                drop=drop) for tag, data, drop in cases]
        running = RunningSums(monkeypatch)
        for (tag, data, drop), (beta0, failed0) in zip(cases, want):
            points = data.x if data is people else data.x_flat
            before = running.settled
            beta, failed = _local_fits(tag, data, cfg, points, drop=drop)
            assert np.array_equal(failed, failed0), tag
            scale = np.abs(beta0[:, 0]) + np.abs(people.y).max() * pooled.sizes.max()
            np.testing.assert_array_less(np.abs(beta[:, 0] - beta0[:, 0]), 1e-12 * scale)
            if p < 2:
                assert running.settled - before > 0.7 * points.size, tag

    def test_unequal_product_pools_stay_on_the_flat_pass(self, monkeypatch):
        # sorted positions {0, 2}, {1, 3} and {4, 5, 6}: every pool spans
        # three places, but two hold a padded slot that a product row of
        # the running sums would weigh as a member at the anchor
        x = np.array([0.0, 0.2, 0.1, 0.3, 0.4, 0.5, 0.6])
        pooled = PooledDataset(z=[1.0, 2.0, 1.5], sizes=[2, 2, 3], x_flat=x,
                               design=Design.EXTERNAL)
        cfg = FitConfig(p=0, h=2.0)
        grid = np.linspace(0.0, 0.6, 7)
        want = _local_fits(Estimator.PRODUCT, pooled, cfg, grid)
        running = RunningSums(monkeypatch)
        got = _local_fits(Estimator.PRODUCT, pooled, cfg, grid)
        assert running.last is None
        np.testing.assert_array_equal(got[0], want[0])

    def test_rcond_at_the_threshold_goes_back_to_the_flat_pass(self, monkeypatch):
        # rows at -+1e-6 with h = 1: rcond is (1e-6)^2, the threshold itself
        x = np.repeat([-1e-6, 1e-6], 3)
        units = IndividualDataset(x=x, y=np.cos(x))
        cfg = FitConfig(p=1, h=1.0)
        grid = np.array([0.0, 1e-7, -2e-7, 0.0])
        want = _local_fits(Estimator.INDIVIDUAL, units, cfg, grid)
        running = RunningSums(monkeypatch)
        got = _local_fits(Estimator.INDIVIDUAL, units, cfg, grid)
        assert running.last is not None and running.settled == 0
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_cancelling_folds_go_back_to_the_flat_pass(self, monkeypatch):
        # each point's own row carries all but about 1e-9 of its window's
        # weight, so the kept sums are far below the rounding of the full ones
        h = 0.1
        x = np.r_[0.0, h * (1 - 1e-9), -h * (1 - 1e-9)] + np.arange(0, 40, 1.0)[:, None]
        x = x.ravel()
        y = np.cos(x)
        units = IndividualDataset(x=x, y=y)
        cfg = FitConfig(p=1, h=h)
        centres = np.arange(0, x.size, 3)
        drop = centres[:, None]
        want, want_failed, certain, determined = dense_reference(
            Estimator.INDIVIDUAL, units, cfg, x[centres], drop)
        running = RunningSums(monkeypatch)
        beta, failed = _local_fits(Estimator.INDIVIDUAL, units, cfg, x[centres], drop=drop)
        assert running.last is not None and running.settled == 0
        assert np.array_equal(failed[certain], want_failed[certain])
        ok = determined & ~want_failed
        assert ok.any()
        np.testing.assert_allclose(beta[ok, 0], want[ok, 0], rtol=1e-9)

    @staticmethod
    def agree_with_the_flat_pass(tag, data, cfg, points, ymax):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimators, "_RUNNING_MIN", np.inf)
            want, want_failed = _local_fits(tag, data, cfg, points)
        with pytest.MonkeyPatch.context() as mp:
            running = RunningSums(mp)
            beta, failed = _local_fits(tag, data, cfg, points)
        # product rows of random pools stay on the flat pass
        assert (running.last is None) == (tag is Estimator.PRODUCT), tag
        assert np.array_equal(failed, want_failed), tag
        ok = ~want_failed
        np.testing.assert_array_less(np.abs(beta[ok, 0] - want[ok, 0]),
                                     1e-12 * (np.abs(want[ok, 0]) + ymax), err_msg=str(tag))

    @pytest.mark.parametrize("h", [0.5, 0.3])
    def test_a_far_pool_member_leaves_later_points_open(self, h):
        # one member 1e6 away from its mate: its row's terms, about 1e38 at
        # p = 3, reach every later segment through the restart, and 1311
        # (h = 0.5) or 1448 (h = 0.3) of these points were off the flat pass
        # by up to 0.78 before the restart entered the bound
        rng = np.random.default_rng(3)
        x = rng.uniform(-2.0, 2.0, 2000)
        y = np.sin(2.0 * x) + 0.1 * rng.normal(size=x.size)
        x[np.argmin(x)] = -1e6
        pooled = pool_random(IndividualDataset(x=x, y=y), 2, rng)
        self.agree_with_the_flat_pass(Estimator.AVERAGE, pooled, FitConfig(p=3, h=h),
                                      np.sort(x[x > -2.0]), np.abs(pooled.z).max())

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(0, 3), c=st.integers(2, 3),
           cauchy=st.booleans(), spread=st.floats(3.0, 6.0), far=st.integers(1, 3))
    @example(seed=0, p=3, c=2, cauchy=False, spread=6.0, far=2)
    @example(seed=5, p=3, c=2, cauchy=True, spread=3.0, far=2)
    def test_far_members_agree_with_the_flat_pass(self, seed, p, c, cauchy, spread, far):
        # pools spanning 1e3 to 1e6 bandwidths, among uniform or Cauchy
        # covariates; a member far below the rest puts its terms into every
        # later segment's restart
        rng = np.random.default_rng(seed)
        h = 0.3
        x = rng.standard_cauchy(600) if cauchy else rng.uniform(-2.0, 2.0, 600)
        y = np.sin(2.0 * x) + 0.1 * rng.normal(size=x.size)
        x[rng.choice(x.size, far, replace=False)] = -h * 10.0 ** spread * rng.uniform(1.0, 2.0, far)
        people = IndividualDataset(x=x, y=y)
        pooled = pool_random(people, c, rng)
        points = np.r_[np.linspace(-2.0, 2.0, 41), x[np.abs(x) < 50.0]]
        cfg = FitConfig(p=p, h=h)
        for tag in Estimator:
            data = people if tag is Estimator.INDIVIDUAL else pooled
            self.agree_with_the_flat_pass(tag, data, cfg, points, c * np.abs(y).max())


class TestUnitPools:
    """Pools of one are unit rows: on either path every estimator gives the individual bits."""

    @pytest.mark.parametrize("running", [True, False])
    @pytest.mark.parametrize("kernel", [KernelKind.EPANECHNIKOV, KernelKind.TRICUBE,
                                        KernelKind.GAUSSIAN])
    def test_bit_for_bit_on_both_paths(self, monkeypatch, running, kernel):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 1.0, 120)
        y = np.sin(2.0 * x) + rng.normal(scale=0.2, size=x.size)
        people = IndividualDataset(x=x, y=y)
        units = PooledDataset(z=y, sizes=np.ones(x.size, dtype=int), x_flat=x,
                              design=Design.EXTERNAL)
        grid = np.linspace(-1.2, 1.2, 25)
        loo = np.arange(x.size)[:, None]
        if running:
            spy = RunningSums(monkeypatch)
        else:
            monkeypatch.setattr(estimators, "_RUNNING_MIN", np.inf)
        for p in (0, 1, 3):
            for h in (0.06, 0.8):
                cfg = FitConfig(p=p, h=h, kernel=kernel)
                want = (_local_fits(Estimator.INDIVIDUAL, people, cfg, x, drop=loo),
                        _local_fits(Estimator.INDIVIDUAL, people, cfg, grid))
                for tag in (Estimator.AVERAGE, Estimator.PRODUCT, Estimator.MARGINAL):
                    got = (_local_fits(tag, units, cfg, x, drop=loo),
                           _local_fits(tag, units, cfg, grid))
                    for (beta, failed), (beta0, failed0) in zip(got, want):
                        assert np.array_equal(failed, failed0), (tag, p, h)
                        assert np.array_equal(beta, beta0, equal_nan=True), (tag, p, h)
        if running and kernel is KernelKind.EPANECHNIKOV:
            assert spy.settled > 0
