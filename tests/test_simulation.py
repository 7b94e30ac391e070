"""Data-generator, Monte Carlo, quartile, and bootstrap checks."""

import math

import numpy as np
import pytest

from poolreg.data import Design, PooledDataset, pool_random
from poolreg.errors import (
    IncompleteCurve,
    NonFiniteValue,
    NonPositiveBandwidth,
    TooFewRecords,
    UserInputError,
)
from poolreg.estimators import Estimator, FitConfig, estimate_curve
from poolreg.simulation import (
    DGP_REGISTRY,
    ReplicationRecord,
    SimulationSpec,
    _resample_pools,
    bootstrap_curves,
    get_dgp,
    ise,
    run_monte_carlo,
    sample_dgp,
    select_quartile_realizations,
    theory_context,
)
from poolreg.theory import _finite_difference

ALL_TAGS = (Estimator.INDIVIDUAL, Estimator.AVERAGE,
            Estimator.PRODUCT, Estimator.MARGINAL)


class TestRegistry:
    def test_lookup_is_case_insensitive(self):
        assert get_dgp("D1") is DGP_REGISTRY["d1"]
        assert get_dgp(" d3 ") is DGP_REGISTRY["d3"]

    def test_unknown_name_is_named_in_the_error(self):
        with pytest.raises(UserInputError, match="mystery"):
            get_dgp("mystery")

    def test_mean_values(self):
        assert get_dgp("d3").mean(2.0) == 8.0
        assert get_dgp("d1").mean(0.0) == 0.0
        assert get_dgp("d2").mean(0.0) == 0.0
        assert get_dgp("quadratic").mean(0.5) == 0.25

    def test_noise_levels(self):
        assert [DGP_REGISTRY[k].sigma for k in ("d1", "d2", "d3", "d4")] == \
            [0.6, 0.2, 1.2, 4.0]


class TestMeanDerivatives:
    @pytest.mark.parametrize("name", ["d1", "d2"])
    @pytest.mark.parametrize("x", [0.0, 0.7, -1.3])
    def test_taylor_derivatives_match_finite_differences(self, name, x):
        dgp = DGP_REGISTRY[name]
        tol = {1: 1e-7, 2: 1e-5, 3: 1e-4, 4: 1e-2}
        for order, t in tol.items():
            closed = dgp.mean_derivative(x, order)
            fd = _finite_difference(dgp.mean, x, order)
            assert abs(closed - fd) < t * max(1.0, abs(closed))

    def test_polynomial_derivatives_are_exact(self):
        d3 = DGP_REGISTRY["d3"]
        assert d3.mean_derivative(2.0, 1) == 12.0
        assert d3.mean_derivative(2.0, 3) == 6.0
        assert d3.mean_derivative(2.0, 4) == 0.0
        q = DGP_REGISTRY["quadratic"]
        assert q.mean_derivative(0.3, 2) == 2.0

    def test_d2_slope_at_origin(self):
        assert abs(DGP_REGISTRY["d2"].mean_derivative(0.0, 1) - 2.0) < 1e-14


class TestSampling:
    def test_standard_normal_covariate_moments(self):
        rng = np.random.default_rng(7)
        data = sample_dgp(get_dgp("d3"), 100_000, rng)
        se = 1.0 / math.sqrt(100_000)
        assert abs(data.x.mean()) < 3 * se
        assert abs(data.x.var() - 1.0) < 0.05

    def test_mixture_support_and_median(self):
        rng = np.random.default_rng(11)
        data = sample_dgp(get_dgp("d1"), 100_000, rng)
        assert data.x.min() >= -2.0 and data.x.max() <= 2.0
        # P(X <= 0) = 0.8 * 0.5 + 0.2 * 0.5 = 0.5
        frac = float((data.x <= 0.0).mean())
        assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / 100_000)

    def test_same_seed_same_sample(self):
        a = sample_dgp(get_dgp("d2"), 50, np.random.default_rng(3))
        b = sample_dgp(get_dgp("d2"), 50, np.random.default_rng(3))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_noise_enters_after_covariates(self):
        dgp = get_dgp("quadratic")
        data = sample_dgp(dgp, 40, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        x = 2.0 * rng.random(40) - 1.0
        y = dgp.mean(x) + rng.standard_normal(40) * dgp.sigma
        assert np.array_equal(data.x, x) and np.array_equal(data.y, y)

    def test_rejects_empty_request(self):
        with pytest.raises(UserInputError):
            sample_dgp(get_dgp("d3"), 0, np.random.default_rng(1))


class TestTheoryBridge:
    @pytest.mark.parametrize("name", sorted(DGP_REGISTRY))
    def test_contexts_build_with_unit_mass(self, name):
        ctx = theory_context(DGP_REGISTRY[name])
        assert ctx.sigma2_mean == DGP_REGISTRY[name].sigma ** 2

    def test_mixture_density_values(self):
        ctx = theory_context(get_dgp("d1"))
        assert abs(ctx.f(0.0) - 0.1) < 1e-15
        assert ctx.f_deriv(0.0, 1) == 0.0
        assert ctx.f_deriv(0.0, 2) == 0.3
        assert abs(ctx.f(1.5) - 0.15 * 1.5**2) < 1e-15

    def test_normal_density_derivatives(self):
        ctx = theory_context(get_dgp("d4"))
        phi0 = 1.0 / math.sqrt(2.0 * math.pi)
        assert abs(ctx.f(0.0) - phi0) < 1e-15
        assert ctx.f_deriv(0.0, 1) == 0.0
        assert abs(ctx.f_deriv(0.0, 2) + phi0) < 1e-15


class TestIse:
    def test_perfect_fit_is_zero(self):
        assert ise([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_zero_fit_example(self):
        assert ise([0.0, 0.0], [1.0, 2.0]) == 5.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        f = rng.random(100)
        y = rng.random(100)
        perm = rng.permutation(100)
        assert abs(ise(f, y) - ise(f[perm], y[perm])) < 1e-12

    def test_against_compensated_summation(self):
        rng = np.random.default_rng(9)
        f = rng.random(10_000) * 1e3
        y = f + rng.standard_normal(10_000) * 1e-6
        oracle = math.fsum((yi - fi) ** 2 for yi, fi in zip(y, f))
        assert abs(ise(f, y) - oracle) <= 1e-9 * oracle

    def test_missing_fit_is_an_error(self):
        with pytest.raises(IncompleteCurve):
            ise([1.0, np.nan], [1.0, 2.0])

    def test_shape_mismatch_is_an_error(self):
        with pytest.raises(UserInputError):
            ise([1.0], [1.0, 2.0])


def tiny_spec(**kw):
    base = dict(
        dgp=get_dgp("quadratic"),
        estimators=ALL_TAGS,
        grid=np.linspace(-0.6, 0.6, 5),
        n=40, c=2, replications=3, p=1, h=0.5, seed=42,
    )
    base.update(kw)
    return SimulationSpec(**base)


class TestSimulationSpec:
    def test_validation(self):
        with pytest.raises(UserInputError):
            tiny_spec(replications=0)
        with pytest.raises(UserInputError):
            tiny_spec(estimators=())
        with pytest.raises(UserInputError):
            tiny_spec(n=3, c=4)
        with pytest.raises(UserInputError):
            tiny_spec(design=Design.EXTERNAL)
        with pytest.raises(NonPositiveBandwidth):
            tiny_spec(h=0.0)
        with pytest.raises(NonFiniteValue):
            tiny_spec(h=math.inf)
        with pytest.raises(UserInputError):
            tiny_spec(grid=())


class TestMonteCarlo:
    def test_reruns_are_identical(self):
        a = run_monte_carlo(tiny_spec())
        b = run_monte_carlo(tiny_spec())
        for ra, rb in zip(a, b):
            assert ra.ises == rb.ises
            assert ra.bandwidths == rb.bandwidths
            for est in ALL_TAGS:
                assert np.array_equal(ra.curves[est].values, rb.curves[est].values)

    def test_parallel_equals_serial(self):
        spec = tiny_spec(replications=4)
        serial = run_monte_carlo(spec, jobs=1)
        parallel = run_monte_carlo(spec, jobs=2)
        for rs, rp in zip(serial, parallel):
            assert rs.index == rp.index
            assert rs.ises == rp.ises
            for est in ALL_TAGS:
                assert np.array_equal(rs.curves[est].values, rp.curves[est].values)

    @pytest.mark.parametrize("design", [Design.RANDOM, Design.HOMOGENEOUS])
    def test_singleton_pools_collapse_to_individual(self, design):
        spec = tiny_spec(c=1, design=design, replications=2)
        for record in run_monte_carlo(spec):
            base = record.curves[Estimator.INDIVIDUAL].values
            for est in (Estimator.AVERAGE, Estimator.PRODUCT, Estimator.MARGINAL):
                assert np.max(np.abs(record.curves[est].values - base)) < 1e-10
            assert record.failures == ()

    def test_cross_validated_bandwidths_are_recorded(self):
        spec = tiny_spec(h=None, replications=1,
                         estimators=(Estimator.INDIVIDUAL, Estimator.MARGINAL))
        (record,) = run_monte_carlo(spec)
        for est in spec.estimators:
            assert record.bandwidths[est] > 0.0
            assert record.ises[est] >= 0.0

    def test_estimator_failure_is_recorded_and_run_continues(self):
        # at this bandwidth no pool has all three members inside one window,
        # so the product estimator fails while the benchmark stays healthy
        spec = tiny_spec(c=3, h=0.15, replications=1,
                         estimators=(Estimator.INDIVIDUAL, Estimator.PRODUCT))
        (record,) = run_monte_carlo(spec)
        assert record.ises[Estimator.PRODUCT] is None
        assert any(tag == "product" for tag, _ in record.failures)
        assert record.ises[Estimator.INDIVIDUAL] is not None

    def test_true_mean_reference_changes_the_metric(self):
        observed = run_monte_carlo(tiny_spec(replications=1))[0]
        truth = run_monte_carlo(
            tiny_spec(replications=1, use_true_mean_reference=True))[0]
        assert observed.ises[Estimator.INDIVIDUAL] != truth.ises[Estimator.INDIVIDUAL]


def fake_records(ises, tag=Estimator.INDIVIDUAL):
    return [
        ReplicationRecord(index=i, master_seed=0, curves={},
                          ises={tag: v}, bandwidths={})
        for i, v in enumerate(ises)
    ]


class TestQuartileRealizations:
    def test_five_point_example(self):
        records = fake_records([1.0, 2.0, 3.0, 4.0, 5.0])
        assert select_quartile_realizations(records, Estimator.INDIVIDUAL) == (1, 2, 3)

    def test_all_equal_returns_the_first_index(self):
        records = fake_records([2.0, 2.0, 2.0, 2.0])
        assert select_quartile_realizations(records, Estimator.INDIVIDUAL) == (0, 0, 0)

    def test_three_records_come_back_in_error_order(self):
        records = fake_records([5.0, 1.0, 3.0])
        assert select_quartile_realizations(records, Estimator.INDIVIDUAL) == (1, 2, 0)

    def test_failed_replications_are_skipped(self):
        records = fake_records([1.0, 2.0, 3.0, 4.0])
        records.append(ReplicationRecord(index=4, master_seed=0, curves={},
                                         ises={Estimator.INDIVIDUAL: None},
                                         bandwidths={}))
        assert select_quartile_realizations(records, Estimator.INDIVIDUAL) == (0, 1, 2)

    def test_too_few_records(self):
        with pytest.raises(TooFewRecords):
            select_quartile_realizations(fake_records([1.0, 2.0]), Estimator.INDIVIDUAL)


def toy_pooled(z, sizes, x_flat, design=Design.RANDOM):
    return PooledDataset(z=np.asarray(z, float), sizes=np.asarray(sizes),
                         x_flat=np.asarray(x_flat, float), design=design)


class TestBootstrap:
    def test_constant_responses_give_zero_width_bands(self):
        data = toy_pooled([3.0, 3.0, 3.0], [2, 2, 2],
                          [-0.8, -0.5, -0.1, 0.2, 0.5, 0.9])
        # degree 0 keeps every resample well posed, even one that repeats
        # a single pool three times
        cfg = FitConfig(p=0, h=5.0)
        bands = bootstrap_curves(data, Estimator.AVERAGE, cfg, 16,
                                 [-0.5, 0.0, 0.5], np.random.default_rng(0))
        assert np.allclose(bands.mean, 3.0, atol=1e-9)
        assert np.allclose(bands.upper - bands.lower, 0.0, atol=1e-9)
        assert np.all(bands.coverage == 1.0)

    def test_matches_scripted_resamples(self):
        rng = np.random.default_rng(321)
        base = sample_dgp(get_dgp("quadratic"), 12, rng)
        data = pool_random(base, 4, rng)
        assert data.n_pools == 3
        cfg = FitConfig(p=0, h=1.5)
        grid = np.array([-0.3, 0.0, 0.3])
        bands = bootstrap_curves(data, Estimator.AVERAGE, cfg, 4, grid,
                                 np.random.default_rng(99))
        rows = np.random.default_rng(99).integers(0, 3, size=(4, 3))
        curves = []
        for row in rows:
            x_parts = [data.x_flat[data.offsets[j]:data.offsets[j] + data.sizes[j]]
                       for j in row]
            resample = toy_pooled(data.z[row], data.sizes[row],
                                  np.concatenate(x_parts))
            curves.append(estimate_curve(Estimator.AVERAGE, resample, cfg, grid).values)
        stack = np.stack(curves)
        assert np.allclose(bands.mean, stack.mean(axis=0), atol=1e-12)
        assert np.allclose(bands.lower, np.quantile(stack, 0.05, axis=0), atol=1e-12)
        assert np.allclose(bands.upper, np.quantile(stack, 0.95, axis=0), atol=1e-12)

    def test_seeded_rerun_and_parallel_are_identical(self):
        rng = np.random.default_rng(8)
        base = sample_dgp(get_dgp("quadratic"), 30, rng)
        data = pool_random(base, 2, rng)
        cfg = FitConfig(p=1, h=0.8)
        grid = np.linspace(-0.5, 0.5, 4)
        first = bootstrap_curves(data, Estimator.MARGINAL, cfg, 10, grid,
                                 np.random.default_rng(5))
        second = bootstrap_curves(data, Estimator.MARGINAL, cfg, 10, grid,
                                  np.random.default_rng(5))
        fanned = bootstrap_curves(data, Estimator.MARGINAL, cfg, 10, grid,
                                  np.random.default_rng(5), jobs=2)
        assert np.array_equal(first.mean, second.mean)
        assert np.array_equal(first.mean, fanned.mean)
        assert np.array_equal(first.lower, fanned.lower)

    def test_failed_grid_points_are_masked_with_coverage(self):
        # pool 2 sits alone near x=5; resamples that drop it cannot fit there
        data = toy_pooled([0.1, 0.2, 9.0], [2, 2, 2],
                          [-0.2, 0.0, 0.1, 0.3, 4.9, 5.1])
        cfg = FitConfig(p=0, h=0.6)
        bands = bootstrap_curves(data, Estimator.AVERAGE, cfg, 12, [0.0, 5.0],
                                 np.random.default_rng(0))
        assert bands.coverage[0] == 1.0
        assert bands.coverage[1] < 1.0
        assert math.isnan(bands.mean[1]) and math.isnan(bands.upper[1])
        assert not math.isnan(bands.mean[0])

    def test_bootstrap_mean_tracks_the_full_data_fit(self):
        rng = np.random.default_rng(17)
        base = sample_dgp(get_dgp("quadratic"), 60, rng)
        data = pool_random(base, 2, rng)
        cfg = FitConfig(p=1, h=0.6)
        grid = np.array([-0.4, 0.0, 0.4])
        bands = bootstrap_curves(data, Estimator.AVERAGE, cfg, 200, grid,
                                 np.random.default_rng(31))
        full = estimate_curve(Estimator.AVERAGE, data, cfg, grid).values
        # the 5-95 envelope spans about 3.3 bootstrap standard errors
        sigma = (bands.upper - bands.lower) / 3.29
        assert np.all(np.abs(bands.mean - full) < 4.0 * sigma)

    def test_homogeneous_source_resamples_lose_the_sorted_tag(self):
        data = toy_pooled([1.0, 2.0], [2, 2], [-0.9, -0.5, 0.1, 0.7],
                          design=Design.HOMOGENEOUS)
        resample = _resample_pools(data, np.array([1, 1]))
        assert resample.design is Design.EXTERNAL
        assert np.array_equal(resample.z, [2.0, 2.0])
        assert np.array_equal(resample.x_flat, [0.1, 0.7, 0.1, 0.7])

    def test_resample_gathers_members_in_pool_order(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            sizes = rng.integers(1, 6, size=int(rng.integers(1, 20)))
            data = toy_pooled(rng.normal(size=sizes.size), sizes,
                              rng.normal(size=int(sizes.sum())))
            rows = rng.integers(0, sizes.size, size=sizes.size)
            resample = _resample_pools(data, rows)
            expected = np.concatenate(
                [data.x_flat[s:s + c] for s, c in zip(data.offsets[rows], sizes[rows])])
            assert np.array_equal(resample.x_flat, expected)
            assert np.array_equal(resample.sizes, sizes[rows])

    def test_input_validation(self):
        data = toy_pooled([1.0, 2.0], [1, 1], [0.0, 0.5])
        cfg = FitConfig(p=0, h=1.0)
        rng = np.random.default_rng(0)
        with pytest.raises(UserInputError):
            bootstrap_curves(data, Estimator.AVERAGE, cfg, 1, [0.0], rng)
        with pytest.raises(UserInputError):
            bootstrap_curves(data, Estimator.INDIVIDUAL, cfg, 4, [0.0], rng)
        with pytest.raises(UserInputError):
            bootstrap_curves(sample_dgp(get_dgp("d3"), 5, rng),
                             Estimator.AVERAGE, cfg, 4, [0.0], rng)
