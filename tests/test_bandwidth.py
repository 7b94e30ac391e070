import concurrent.futures
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from poolreg.bandwidth import (
    CvTrace, _quantiles, default_h_grid, select_bandwidth, trim_bounds_for,
)
from poolreg import bandwidth, estimators
from poolreg.data import (
    Design,
    IndividualDataset,
    PooledDataset,
    pool_homogeneous,
    pool_random,
)
from poolreg.errors import (
    NonFiniteValue,
    NoValidBandwidth,
    SingularLocalSystem,
    TooFewRecords,
    UserInputError,
)
from poolreg.estimators import (
    Estimator,
    FitConfig,
    build_pseudo_data,
    fit_average_weighted,
    fit_individual,
)
from poolreg.kernels import KernelKind
from poolreg.simulation import _map, get_dgp, sample_dgp

BASE = FitConfig(p=0, h=1.0)


def drop_pool(pooled: PooledDataset, j: int) -> PooledDataset:
    off = pooled.offsets
    keep = [i for i in range(pooled.n_pools) if i != j]
    return PooledDataset(
        z=pooled.z[keep],
        sizes=pooled.sizes[keep],
        x_flat=np.concatenate([pooled.x_flat[off[i]:off[i + 1]] for i in keep]),
        design=Design.EXTERNAL,
    )


def rss_pool_oracle(pooled, tag, cfg, h, bounds=None):
    """Fold-by-fold recomputation with scalar refits."""
    from poolreg.estimators import fit_product_weighted

    fitter = fit_average_weighted if tag is Estimator.AVERAGE else fit_product_weighted
    cfg = FitConfig(p=cfg.p, h=h, kernel=cfg.kernel)
    off = pooled.offsets
    total = 0.0
    for j in range(pooled.n_pools):
        sub = drop_pool(pooled, j)
        members = pooled.x_flat[off[j]:off[j + 1]]
        if bounds is not None:
            members = members[(members >= bounds[0]) & (members <= bounds[1])]
        if members.size == 0:
            continue
        preds = [fitter(sub, cfg, float(xi)).m_hat for xi in members]
        resid = float(pooled.z[j]) - float(np.mean(preds))
        total += int(pooled.sizes[j]) * resid**2
    return total


def prss_oracle(pooled, cfg, h, bounds=None):
    pseudo = build_pseudo_data(pooled)
    r = pseudo.r_flat
    x = pooled.x_flat
    cfg = FitConfig(p=cfg.p, h=h, kernel=cfg.kernel)
    total = 0.0
    for i in range(x.size):
        if bounds is not None and not (bounds[0] <= x[i] <= bounds[1]):
            continue
        keep = np.ones(x.size, bool)
        keep[i] = False
        pred = fit_individual(IndividualDataset(x=x[keep], y=r[keep]), cfg, float(x[i])).m_hat
        total += (r[i] - pred) ** 2
    return total


def cv_value(data, tag, h, trim=False, criterion="pseudo"):
    """select_bandwidth's criterion at the single candidate h."""
    trace = select_bandwidth(data, tag, BASE, grid=[h], trim=trim, criterion=criterion)
    return trace.criterion[0]


def random_pooled(seed=0, n=18, c=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=n)
    y = np.sin(2 * x) + rng.normal(scale=0.3, size=n)
    return pool_random(IndividualDataset(x=x, y=y), c, rng)


class TestPoolCriterion:
    def test_matches_fold_oracle(self):
        pooled = random_pooled(seed=2, n=9, c=3)
        for tag in (Estimator.AVERAGE, Estimator.PRODUCT):
            got = cv_value(pooled, tag, h=2.5)
            want = rss_pool_oracle(pooled, tag, BASE, h=2.5)
            assert abs(got - want) <= 1e-10 * max(1.0, want), tag

    def test_matches_fold_oracle_with_trimming(self):
        pooled = random_pooled(seed=3, n=12, c=2)
        bounds = trim_bounds_for(pooled.x_flat)
        trace = select_bandwidth(pooled, Estimator.AVERAGE, BASE, grid=[1.0], trim=True)
        assert trace.trim_bounds == bounds
        got = trace.criterion[0]
        want = rss_pool_oracle(pooled, Estimator.AVERAGE, BASE, h=1.0, bounds=bounds)
        assert abs(got - want) <= 1e-10 * max(1.0, want)

    def test_constant_data_scores_zero(self):
        pooled = PooledDataset(
            z=[4.0, 4.0, 4.0], sizes=[2, 2, 2],
            x_flat=[0.0, 0.3, 0.5, 0.6, 0.9, 1.0], design=Design.EXTERNAL,
        )
        assert cv_value(pooled, Estimator.AVERAGE, h=2.0) <= 1e-20

    def test_unit_pools_equal_classical_loo(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 1, size=10)
        y = rng.normal(size=10)
        pooled = PooledDataset(
            z=y, sizes=np.ones(10, dtype=int), x_flat=x, design=Design.EXTERNAL
        )
        got = cv_value(pooled, Estimator.AVERAGE, h=0.8)
        classical = 0.0
        for i in range(10):
            keep = np.ones(10, bool)
            keep[i] = False
            pred = fit_individual(IndividualDataset(x=x[keep], y=y[keep]), FitConfig(p=0, h=0.8), float(x[i])).m_hat
            classical += (y[i] - pred) ** 2
        assert abs(got - classical) <= 1e-10
        pseudo_val = cv_value(pooled, Estimator.MARGINAL, h=0.8)
        assert abs(pseudo_val - got) <= 1e-10

    def test_pool_order_invariance(self):
        pooled = random_pooled(seed=4, n=12, c=2)
        perm = np.random.default_rng(1).permutation(pooled.n_pools)
        off = pooled.offsets
        shuffled = PooledDataset(
            z=pooled.z[perm], sizes=pooled.sizes[perm],
            x_flat=np.concatenate([pooled.x_flat[off[j]:off[j + 1]] for j in perm]),
            design=Design.EXTERNAL,
        )
        a = cv_value(pooled, Estimator.AVERAGE, h=1.1)
        b = cv_value(shuffled, Estimator.AVERAGE, h=1.1)
        assert abs(a - b) <= 1e-10 * max(1.0, a)

    def test_too_few_pools(self):
        pooled = PooledDataset(z=[1.0], sizes=[2], x_flat=[0.0, 1.0], design=Design.EXTERNAL)
        with pytest.raises(TooFewRecords):
            cv_value(pooled, Estimator.AVERAGE, h=1.0)


class TestPseudoCriterion:
    def test_matches_fold_oracle(self):
        pooled = random_pooled(seed=5, n=12, c=3)
        got = cv_value(pooled, Estimator.MARGINAL, h=1.3)
        want = prss_oracle(pooled, BASE, h=1.3)
        assert abs(got - want) <= 1e-9 * max(1.0, want)

    def test_two_pool_hand_computation(self):
        pooled = PooledDataset(
            z=[2.0, 4.0], sizes=[2, 2], x_flat=[0.0, 1.0, 2.0, 3.0],
            design=Design.EXTERNAL,
        )
        # pseudo responses are (1, 1, 5, 5); with h spanning everything and
        # p=0 each left-out prediction is the weighted mean of the other 3
        h = 100.0
        got = cv_value(pooled, Estimator.MARGINAL, h=h)
        want = prss_oracle(pooled, BASE, h=h)
        assert abs(got - want) <= 1e-9
        assert got > 0.0

    def test_constant_scores_zero(self):
        pooled = PooledDataset(
            z=[4.0, 4.0], sizes=[2, 2], x_flat=[0.0, 1.0, 2.0, 3.0],
            design=Design.EXTERNAL,
        )
        assert cv_value(pooled, Estimator.MARGINAL, h=10.0) <= 1e-20

    def test_sibling_pseudo_points_stay(self):
        # two pools sharing a covariate value: leaving one pseudo point out
        # must keep its sibling, so the prediction is pulled toward R_j
        pooled = PooledDataset(
            z=[0.0, 10.0], sizes=[2, 2], x_flat=[0.0, 0.0, 0.0, 5.0],
            design=Design.EXTERNAL,
        )
        got = cv_value(pooled, Estimator.MARGINAL, h=10.0)
        want = prss_oracle(pooled, BASE, h=10.0)
        assert abs(got - want) <= 1e-9


class TestSelectBandwidth:
    def test_single_solvable_h(self):
        pooled = random_pooled(seed=6)
        trace = select_bandwidth(pooled, Estimator.AVERAGE, BASE, grid=[0.9], trim=False)
        assert trace.chosen_h == 0.9
        assert trace.criterion_kind == "pool"

    def test_tie_picks_smallest(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(0, 1, size=16)
        data = IndividualDataset(x=x, y=2 * x + 1)
        pooled = pool_random(data, 2, rng)
        cfg = FitConfig(p=1, h=1.0)
        trace = select_bandwidth(
            pooled, Estimator.AVERAGE, cfg, grid=[0.5, 0.7, 0.9], trim=False
        )
        # noise-free linear data: every solvable h scores ~0, ties go small
        assert np.allclose(trace.criterion, 0.0, atol=1e-16)
        assert trace.chosen_h == 0.5

    @pytest.mark.parametrize("tag", [Estimator.AVERAGE, Estimator.MARGINAL])
    def test_near_tie_above_rounding_is_ordered(self, tag):
        rng = np.random.default_rng(21)
        x = rng.uniform(0, 1, size=40)
        data = IndividualDataset(x=x, y=2 * x + 1 + 0.1 * rng.normal(size=40))
        pooled = pool_random(data, 2, rng)
        grid = [0.8, 0.8 * (1 + 1e-6)]
        trace = select_bandwidth(pooled, tag, FitConfig(p=1, h=1.0), grid=grid, trim=False)
        # the larger h wins by a relative 1e-8 or so: far above rounding, so no tie
        small, large = trace.criterion
        assert 1e-9 < (small - large) / large < 1e-6
        assert trace.chosen_h == grid[1]

    def test_trace_invariants(self):
        pooled = random_pooled(seed=7, n=24, c=2)
        trace = select_bandwidth(pooled, Estimator.MARGINAL, BASE, trim=True)
        assert trace.chosen_h in trace.h_grid
        finite = np.isfinite(trace.criterion)
        chosen_value = trace.criterion[trace.h_grid == trace.chosen_h][0]
        assert chosen_value == trace.criterion[finite].min()
        # argmin is scale invariant
        scaled = 7.5 * trace.criterion
        assert np.nanargmin(scaled) == np.nanargmin(trace.criterion)

    def test_marginal_pool_variant_matches_oracle(self):
        pooled = random_pooled(seed=8, n=12, c=3)
        trace = select_bandwidth(
            pooled, Estimator.MARGINAL, BASE, grid=[1.4], trim=False, criterion="pool"
        )
        pseudo = build_pseudo_data(pooled)
        off = pooled.offsets
        total = 0.0
        for j in range(pooled.n_pools):
            keep = np.ones(pooled.n_units, bool)
            keep[off[j]:off[j + 1]] = False
            train_x = pooled.x_flat[keep]
            train_r = pseudo.r_flat[keep]
            preds = [
                fit_individual(IndividualDataset(x=train_x, y=train_r),
                               FitConfig(p=0, h=1.4), float(xi)).m_hat
                for xi in pooled.x_flat[off[j]:off[j + 1]]
            ]
            total += int(pooled.sizes[j]) * (float(pooled.z[j]) - float(np.mean(preds))) ** 2
        assert abs(trace.criterion[0] - total) <= 1e-9 * max(1.0, total)
        assert trace.criterion_kind == "pool"

    def test_individual_data_uses_unit_pools(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(0, 1, size=14)
        y = rng.normal(size=14)
        data = IndividualDataset(x=x, y=y)
        trace = select_bandwidth(data, Estimator.INDIVIDUAL, BASE, grid=[0.6, 0.8], trim=False)
        pooled = PooledDataset(
            z=y, sizes=np.ones(14, dtype=int), x_flat=x, design=Design.EXTERNAL
        )
        want = [cv_value(pooled, Estimator.AVERAGE, h) for h in (0.6, 0.8)]
        np.testing.assert_allclose(trace.criterion, want, rtol=1e-12)
        with pytest.raises(UserInputError):
            select_bandwidth(data, Estimator.AVERAGE, BASE)
        with pytest.raises(UserInputError):
            select_bandwidth(pooled, Estimator.INDIVIDUAL, BASE)

    def test_all_failures_raise(self):
        pooled = PooledDataset(
            z=[1.0, 2.0, 3.0], sizes=[1, 1, 1], x_flat=[0.0, 10.0, 20.0],
            design=Design.EXTERNAL,
        )
        with pytest.raises(NoValidBandwidth):
            select_bandwidth(pooled, Estimator.AVERAGE, BASE, grid=[0.01, 0.02], trim=False)

    def test_trimming_rescues_outlier_point(self):
        x = np.r_[np.linspace(0.0, 0.9, 10), 5.0]
        y = np.r_[np.linspace(0.0, 0.9, 10), 0.5]
        pooled = PooledDataset(
            z=y, sizes=np.ones(11, dtype=int), x_flat=x, design=Design.EXTERNAL
        )
        grid = [0.3]
        with pytest.raises(NoValidBandwidth):
            select_bandwidth(pooled, Estimator.AVERAGE, BASE, grid=grid, trim=False)
        trace = select_bandwidth(pooled, Estimator.AVERAGE, BASE, grid=grid, trim=True)
        assert trace.chosen_h == 0.3
        assert trace.trim_bounds is not None

    def test_failure_records_kept(self):
        pooled = PooledDataset(
            z=[1.0, 2.0, 3.0], sizes=[1, 1, 1], x_flat=[0.0, 0.5, 20.0],
            design=Design.EXTERNAL,
        )
        trace = select_bandwidth(
            pooled, Estimator.AVERAGE, BASE, grid=[0.6, 50.0], trim=False
        )
        assert trace.chosen_h == 50.0
        assert np.isnan(trace.criterion[0])
        assert any(f.h == 0.6 for f in trace.failures)

    def test_product_with_failing_narrow_candidates(self):
        pooled = random_pooled(seed=10, n=120, c=2)
        trace = select_bandwidth(pooled, Estimator.PRODUCT, FitConfig(p=1, h=1.0),
                                 grid=default_h_grid(pooled.x_flat, n=12))
        failed_h = {f.h for f in trace.failures}
        assert np.isnan(trace.criterion[0]) and trace.h_grid[0] in failed_h
        assert np.isfinite(trace.criterion).any()
        assert len(trace.failures) > len(failed_h)

    def test_bad_grid_rejected(self):
        pooled = random_pooled()
        with pytest.raises(UserInputError):
            select_bandwidth(pooled, Estimator.AVERAGE, BASE, grid=[-0.1, 0.5])
        with pytest.raises(UserInputError):
            select_bandwidth(pooled, Estimator.AVERAGE, BASE, grid=[])
        with pytest.raises(UserInputError):
            select_bandwidth(pooled, Estimator.MARGINAL, BASE, criterion="banana")

    def test_infinite_candidate_rejected(self):
        # an infinite h is no candidate: every fold of it fails
        with pytest.raises(NonFiniteValue):
            select_bandwidth(random_pooled(), Estimator.MARGINAL, BASE, grid=[0.3, np.inf])


class TestTrimBounds:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40, 41, 81, 600, 3001])
    def test_equal_to_numpy_quantile_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        samples = [rng.normal(size=n), rng.uniform(-1, 1, size=n) * 1e-300,
                   rng.integers(0, 4, size=n).astype(float),  # heavy ties
                   np.round(rng.normal(size=n), 1), np.full(n, -2.5), np.full(n, -0.0)]
        for x in samples:
            want = np.quantile(x, [0.025, 0.975])
            got = np.array(trim_bounds_for(x))
            assert got.tobytes() == want.tobytes(), (x, got, want)

    @pytest.mark.parametrize("b", [2, 3, 20, 1000])
    def test_bands_equal_numpy_quantile_bit_for_bit(self, b):
        # the bootstrap's 5 and 95 percent bands, column by column over a
        # (resamples, grid) array: spread, heavily tied, rounded and constant
        rng = np.random.default_rng(b)
        values = np.column_stack([
            rng.normal(size=b), rng.normal(size=b) * 1e-300, rng.integers(0, 3, b).astype(float),
            np.round(rng.normal(size=b), 1), np.full(b, 1.75), np.full(b, -0.0),
        ])
        want = np.quantile(values, [0.05, 0.95], axis=0)
        got = np.array(_quantiles(np.sort(values, axis=0), (0.05, 0.95)))
        assert got.tobytes() == want.tobytes()


class TestScoredInAWorker:
    """CV run in a worker process, as simulate --jobs N runs it, gives the serial trace exactly."""

    @staticmethod
    def same_trace(data, tag, cfg, **kw):
        serial = select_bandwidth(data, tag, cfg, **kw)
        # two items over two jobs: each trace comes back from its own worker
        for fanned in _map(partial(select_bandwidth, data, tag, **kw), [cfg, cfg], 2):
            assert fanned.criterion.tobytes() == serial.criterion.tobytes()
            assert fanned.chosen_h == serial.chosen_h
            assert fanned.failures == serial.failures
        return serial

    def test_individual(self):
        people = sample_dgp(get_dgp("d2"), 400, np.random.default_rng(5))
        self.same_trace(people, Estimator.INDIVIDUAL, FitConfig(p=1, h=1.0))

    def test_average_with_random_pools(self):
        pooled = random_pooled(seed=9, n=300, c=3)
        self.same_trace(pooled, Estimator.AVERAGE, FitConfig(p=1, h=1.0))

    def test_product_with_failing_narrow_candidates(self):
        pooled = random_pooled(seed=10, n=120, c=2)
        trace = self.same_trace(pooled, Estimator.PRODUCT, FitConfig(p=1, h=1.0),
                                grid=default_h_grid(pooled.x_flat, n=12))
        assert trace.failures

    @pytest.mark.parametrize("criterion", ["pseudo", "pool"])
    def test_marginal(self, criterion):
        pooled = random_pooled(seed=11, n=300, c=3)
        self.same_trace(pooled, Estimator.MARGINAL, FitConfig(p=1, h=1.0),
                        criterion=criterion)


class TestOneProcess:
    """Every CV batch scores in the calling process, however many fold fits it holds."""

    @pytest.mark.parametrize("n", [300, 3000, 12_000])
    def test_no_batch_starts_a_worker(self, monkeypatch, n):
        # 3000 members x 30 candidates is the benchmark's fit-large batch;
        # 12,000 members make 360,000 fold fits, above the old fork line
        def refuse(*args, **kwargs):
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(os, "fork", refuse)
        trace = select_bandwidth(random_pooled(seed=3, n=n, c=3), Estimator.AVERAGE, BASE)
        assert trace.h_grid.size == 30
        assert trace.chosen_h in trace.h_grid
        assert np.isfinite(trace.criterion).any()


class TestBatchedScoring:
    """A batch of candidates in one engine call scores them exactly as one at a time."""

    @staticmethod
    def one_at_a_time(tag, data, cfg, hs, *args):
        for h in hs:
            yield estimators._local_fits(tag, data, replace(cfg, h=float(h)), *args)

    @pytest.mark.parametrize("design", ["random", "homogeneous"])
    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("kernel, running", [
        (KernelKind.EPANECHNIKOV, False), (KernelKind.EPANECHNIKOV, True),
        (KernelKind.TRICUBE, False), (KernelKind.GAUSSIAN, False),
    ])
    def test_same_bits_as_one_candidate_per_call(self, monkeypatch, design, p, kernel, running):
        rng = np.random.default_rng(p)
        people = sample_dgp(get_dgp("d2"), 240, rng)
        pooled = pool_random(people, 2, rng) if design == "random" else pool_homogeneous(people, 2)
        cfg = FitConfig(p=p, h=1.0, kernel=kernel)
        grid = default_h_grid(people.x, n=12)
        # blocks of two candidates, so the narrow ones span several blocks
        monkeypatch.setattr(estimators, "_SYSTEMS", 2 * people.x.size + 1)
        if running:
            # every candidate on the running sums
            monkeypatch.setattr(estimators, "_RUNNING_MIN", 0)
            monkeypatch.setattr(estimators, "_RUNNING_BASE", -1)
        for tag, criterion in [
            (Estimator.INDIVIDUAL, "pool"), (Estimator.AVERAGE, "pool"),
            (Estimator.PRODUCT, "pool"), (Estimator.MARGINAL, "pseudo"),
            (Estimator.MARGINAL, "pool"),
        ]:
            data = people if tag is Estimator.INDIVIDUAL else pooled
            with monkeypatch.context() as patched:
                patched.setattr(bandwidth, "_batch_fits", self.one_at_a_time)
                want = select_bandwidth(data, tag, cfg, grid=grid, criterion=criterion)
            got = select_bandwidth(data, tag, cfg, grid=grid, criterion=criterion)
            assert got.criterion.tobytes() == want.criterion.tobytes(), tag
            assert got.failures == want.failures, tag
            assert got.chosen_h == want.chosen_h, tag


def test_criterion_independent_of_blas_threads():
    # OpenBLAS splits a dot product over its threads from about n = 20,000 on,
    # which moved the last bit of these criteria; numpy reductions do not split
    code = (
        "import numpy as np\n"
        "from poolreg import Estimator, FitConfig, get_dgp, pool_random, sample_dgp, select_bandwidth\n"
        "rng = np.random.default_rng(7)\n"
        "people = sample_dgp(get_dgp('d1'), 20000, rng)\n"
        "pooled = pool_random(people, 2, rng)\n"
        "for data, tag in ((people, Estimator.INDIVIDUAL), (pooled, Estimator.MARGINAL)):\n"
        "    trace = select_bandwidth(data, tag, FitConfig(p=1, h=1.0), grid=[0.05, 0.1])\n"
        "    print([float(v).hex() for v in trace.criterion])\n"
    )
    outputs = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**env, "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


class TestDefaultGrid:
    def test_shape_and_endpoints(self):
        x = np.linspace(0, 1, 51)
        grid = default_h_grid(x)
        assert grid.size == 30
        assert np.all(np.diff(grid) > 0)
        np.testing.assert_allclose(grid[0], 1.5 * 0.02, rtol=1e-12)
        np.testing.assert_allclose(grid[-1], 0.5, rtol=1e-12)

    def test_identical_covariates_rejected(self):
        with pytest.raises(UserInputError):
            default_h_grid(np.ones(5))

    def test_single_point_rejected(self):
        with pytest.raises(TooFewRecords):
            default_h_grid([1.0])


def nan_if_singular(oracle, *args):
    """The oracle's criterion, or NaN when one of its refits is singular."""
    try:
        return oracle(*args)
    except SingularLocalSystem:
        return np.nan


class TestExactFolds:
    """Gaussian folds whose left-out rows carry nearly all of a point's weight."""

    def test_leave_one_out_matches_refits(self):
        data = sample_dgp(get_dgp("d2"), 300, np.random.default_rng(3))
        cfg = FitConfig(p=1, h=1.0, kernel=KernelKind.GAUSSIAN)
        grid = default_h_grid(data.x)[:3]
        trace = select_bandwidth(data, Estimator.INDIVIDUAL, cfg, grid=grid, trim=True)
        # with unit pools the pseudo responses are the responses themselves
        units = PooledDataset(z=data.y, sizes=np.ones(data.n_units, dtype=int),
                              x_flat=data.x, design=Design.EXTERNAL)
        want = [nan_if_singular(prss_oracle, units, cfg, h, trace.trim_bounds) for h in grid]
        np.testing.assert_allclose(trace.criterion, want, rtol=1e-9)

    @pytest.mark.parametrize("tag, seed, n, c", [
        (Estimator.AVERAGE, 0, 18, 3), (Estimator.PRODUCT, 2, 12, 2),
    ])
    def test_leave_pool_out_matches_refits(self, tag, seed, n, c):
        pooled = random_pooled(seed=seed, n=n, c=c)
        cfg = FitConfig(p=1, h=1.0, kernel=KernelKind.GAUSSIAN)
        grid = default_h_grid(pooled.x_flat)[:3]
        trace = select_bandwidth(pooled, tag, cfg, grid=grid, trim=True)
        want = [nan_if_singular(rss_pool_oracle, pooled, tag, cfg, h, trace.trim_bounds)
                for h in grid]
        np.testing.assert_allclose(trace.criterion, want, rtol=1e-9)


def eigvalsh_solve(Ab, scale, bounds=None):
    """The LAPACK solve that the Jacobi rotations replaced, kept as an oracle.

    rcond from eigvalsh, beta and the first row of A^-1 from batched
    np.linalg.solve, with the open-point rule of estimators._solve and its
    contract: [A | b] and its bound as (q, q + 1, points) planes and the
    h^ell scale in, coefficients (points, q) on the original scale, failures
    and open points out.
    """
    Ab = np.moveaxis(Ab, -1, 0)
    E, ymax = (np.moveaxis(bounds[0], -1, 0), bounds[1]) if bounds else (np.zeros_like(Ab), 0.0)
    A, b, EA, Eb = Ab[..., :-1], Ab[..., -1], E[..., :-1], E[..., -1]
    finite = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
    s = np.sort(np.abs(np.linalg.eigvalsh(np.where(finite[:, None, None], A, 0.0))))
    e = np.sqrt((EA * EA).sum(axis=(1, 2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        tol = estimators._RCOND_MIN
        passes = finite & ((s[:, 0] - e) / (s[:, -1] + e) >= tol)
        fails = finite & (s[:, -1] > e) & ((s[:, 0] + e) / (s[:, -1] - e) < tol)
    left_open = ~(passes | fails)
    ok = np.flatnonzero(passes)
    beta = np.full(b.shape, np.nan)
    beta[ok] = np.linalg.solve(A[ok], b[ok, :, None])[..., 0]
    if bounds:
        row = np.abs(np.linalg.solve(A[ok], np.eye(A.shape[1])[:, :1])[..., 0])
        with np.errstate(invalid="ignore"):
            drift = (row * (Eb[ok] + (EA[ok] @ np.abs(beta[ok, :, None]))[..., 0])).sum(axis=1)
        near = e[ok] / s[ok, 0]
        tol = 1e-12 * (1.0 - near) * (np.abs(beta[ok, 0]) + ymax)
        left_open[ok] = (near > 0.5) | ~(drift <= tol)
    beta /= scale.T
    return beta, ~passes, left_open


class TestRunningSumParity:
    """CV through the running sums matches CV on the flat pass alone."""

    @pytest.fixture(scope="class", params=["d2-600", "fit-large"])
    def study(self, request):
        if request.param == "d2-600":
            rng = np.random.default_rng(11)
            people = sample_dgp(get_dgp("d2"), 600, rng)
            return people, pool_homogeneous(people, 2)
        rng = np.random.default_rng(3)
        people = sample_dgp(get_dgp("d1"), 3000, rng)
        return people, pool_random(people, 3, rng)

    # product weights take the running sums on pools that do not overlap in
    # sorted order, the homogeneous pools of d2-600
    @pytest.mark.parametrize("study, tag, criterion", [
        (study, tag, criterion) for study in ("d2-600", "fit-large")
        for tag, criterion in [(Estimator.AVERAGE, "pool"), (Estimator.MARGINAL, "pseudo"),
                               (Estimator.MARGINAL, "pool"), (Estimator.INDIVIDUAL, "pool")]
    ] + [("d2-600", Estimator.PRODUCT, "pool")], indirect=["study"])
    def test_same_choice_masks_and_failures(self, study, monkeypatch, tag, criterion):
        people, pooled = study
        data = people if tag is Estimator.INDIVIDUAL else pooled
        cfg = FitConfig(p=1, h=1.0)
        settled, solve = [], estimators._solve

        def spy(Ab, scale, bounds=None):
            out = solve(Ab, scale, bounds)
            if bounds is not None:
                settled.append((~out[2]).sum())
            return out

        monkeypatch.setattr(estimators, "_solve", spy)
        got = select_bandwidth(data, tag, cfg, criterion=criterion)
        assert sum(settled) > data.n_units
        monkeypatch.setattr(estimators, "_RUNNING_MIN", np.inf)
        want = select_bandwidth(data, tag, cfg, criterion=criterion)
        assert got.chosen_h == want.chosen_h
        assert got.failures == want.failures
        np.testing.assert_array_equal(np.isnan(got.criterion), np.isnan(want.criterion))
        np.testing.assert_allclose(got.criterion, want.criterion, rtol=1e-9)


    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_same_decisions_as_the_lapack_solve(self, study, monkeypatch, p):
        people, pooled = study
        cfg = FitConfig(p=p, h=1.0)
        for tag, criterion in [
            (Estimator.INDIVIDUAL, "pool"), (Estimator.AVERAGE, "pool"),
            (Estimator.PRODUCT, "pool"), (Estimator.MARGINAL, "pseudo"),
            (Estimator.MARGINAL, "pool"),
        ]:
            data = people if tag is Estimator.INDIVIDUAL else pooled
            got = select_bandwidth(data, tag, cfg, criterion=criterion)
            with monkeypatch.context() as patched:
                patched.setattr(estimators, "_solve", eigvalsh_solve)
                want = select_bandwidth(data, tag, cfg, criterion=criterion)
            assert got.chosen_h == want.chosen_h, (tag, criterion)
            assert got.failures == want.failures, (tag, criterion)
            np.testing.assert_array_equal(np.isnan(got.criterion), np.isnan(want.criterion))
            np.testing.assert_allclose(got.criterion, want.criterion, rtol=1e-6)


class TestMemory:
    def test_cv_batch_memory_stays_bounded(self):
        # one CV call on the benchmark's homogeneous study held at most
        # 1.2 MB with one engine call per candidate and 1.35 MB in blocks of
        # 2048 local systems; all 30 candidates in one block held 4.3-4.6 MB
        rng = np.random.default_rng(7)
        people = sample_dgp(get_dgp("d2"), 600, rng)
        pooled = pool_homogeneous(people, 2)
        cfg = FitConfig(p=1, h=1.0)
        for tag in (Estimator.INDIVIDUAL, Estimator.AVERAGE, Estimator.PRODUCT):
            data = people if tag is Estimator.INDIVIDUAL else pooled
            select_bandwidth(data, tag, cfg)
            tracemalloc.start()
            try:
                select_bandwidth(data, tag, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.6e6, f"{tag.value}: peak {peak / 1e6:.2f} MB"

    def test_cv_memory_follows_the_kernel_window(self):
        # one dense 20,000 x 20,000 points-by-members array alone is 3.2 GB
        rng = np.random.default_rng(41)
        x = rng.uniform(-1, 1, size=20_000)
        y = np.sin(2 * x) + rng.normal(scale=0.3, size=x.size)
        pooled = pool_random(IndividualDataset(x=x, y=y), 3, rng)
        cfg = FitConfig(p=1, h=1.0)
        # the Gaussian kernel's window is the whole sample: 9 million pairs
        rng = np.random.default_rng(42)
        x = rng.uniform(-1, 1, size=3000)
        smaller = pool_random(IndividualDataset(x=x, y=np.sin(2 * x)), 3, rng)
        tracemalloc.start()
        try:
            for tag in (Estimator.AVERAGE, Estimator.MARGINAL):
                trace = select_bandwidth(pooled, tag, cfg, grid=[0.003, 0.01])
                assert np.isfinite(trace.criterion).any()
            # at these h hardly any random pool of 3 has all its members in
            # one window, so every product fold fails, each after a full pass
            with pytest.raises(NoValidBandwidth):
                select_bandwidth(pooled, Estimator.PRODUCT, cfg, grid=[0.003, 0.01])
            gaussian = replace(cfg, kernel=KernelKind.GAUSSIAN)
            trace = select_bandwidth(smaller, Estimator.MARGINAL, gaussian, grid=[0.1])
            assert np.isfinite(trace.criterion).all()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256e6, f"peak {peak / 1e6:.0f} MB"
