"""Synthetic data generators, Monte Carlo harness, and pool bootstrap.

The built-in data-generating processes (d1..d4 plus a quadratic toy) pair
a mean function with a noise level and a covariate law. Each ships with
closed-form mean derivatives (through truncated Taylor arithmetic, exact
to rounding) and a density with derivatives, so the theory module can be
evaluated against Monte Carlo output without finite-difference noise.

Reproducibility contract: every replication draws from a fresh generator
seeded with SeedSequence(master, spawn_key=(replication_index,)), so
results are identical whether replications run serially or fanned out
over processes. Within a replication, draws happen in a fixed order
(covariates, then noise, then the pooling permutation if any); changing
that order would silently change every seeded study, so treat it as part
of the public contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .bandwidth import _quantiles, select_bandwidth
from .data import (
    Design,
    IndividualDataset,
    PooledDataset,
    pool_homogeneous,
    pool_random,
)
from .errors import (
    IncompleteCurve,
    NumericalFailure,
    TooFewRecords,
    UserInputError,
)
from .estimators import (
    CurveEstimate,
    Estimator,
    FitConfig,
    build_pseudo_data,  # not called here: benchmarks/tracing.py wraps this name
    estimate_curve,
)
from .kernels import KernelKind
from .theory import TheoryContext

__all__ = [
    "Dgp",
    "DGP_REGISTRY",
    "get_dgp",
    "sample_dgp",
    "theory_context",
    "ise",
    "SimulationSpec",
    "ReplicationRecord",
    "run_monte_carlo",
    "select_quartile_realizations",
    "BootstrapBands",
    "bootstrap_curves",
]


# ---------------------------------------------------------------------------
# truncated Taylor (jet) arithmetic for exact mean derivatives
#
# a jet holds the Taylor coefficients of a function at a point, up to a
# fixed order; products and elementary-function composition follow the
# standard convolution recurrences, so high-order derivatives of the
# built-in means come out exact instead of finite-differenced


def _jet_seed(x: float, order: int) -> np.ndarray:
    a = np.zeros(order + 1)
    a[0] = float(x)
    if order >= 1:
        a[1] = 1.0
    return a


def _jet_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a)
    for k in range(a.size):
        out[k] = np.dot(a[:k + 1], b[k::-1])
    return out


def _jet_exp(a: np.ndarray) -> np.ndarray:
    e = np.zeros_like(a)
    e[0] = math.exp(a[0])
    for k in range(1, a.size):
        e[k] = sum(j * a[j] * e[k - j] for j in range(1, k + 1)) / k
    return e


def _jet_cos(a: np.ndarray) -> np.ndarray:
    s = np.zeros_like(a)
    c = np.zeros_like(a)
    s[0] = math.sin(a[0])
    c[0] = math.cos(a[0])
    for k in range(1, a.size):
        s[k] = sum(j * a[j] * c[k - j] for j in range(1, k + 1)) / k
        c[k] = -sum(j * a[j] * s[k - j] for j in range(1, k + 1)) / k
    return c


# -- mean functions and their derivatives -----------------------------------


def _d1_mean(x):
    return x**3 * np.exp(x**4 / 1000.0) * np.cos(x)


def _d1_mean_derivative(x: float, order: int) -> float:
    t = _jet_seed(x, order)
    t2 = _jet_mul(t, t)
    t4 = _jet_mul(t2, t2)
    m = _jet_mul(_jet_mul(_jet_mul(t2, t), _jet_exp(t4 * 1e-3)), _jet_cos(t))
    return float(m[order]) * math.factorial(order)


def _d2_mean(x):
    return 2.0 * x * np.exp(-10.0 * x**4 / 81.0)


def _d2_mean_derivative(x: float, order: int) -> float:
    t = _jet_seed(x, order)
    t2 = _jet_mul(t, t)
    t4 = _jet_mul(t2, t2)
    m = 2.0 * _jet_mul(t, _jet_exp(t4 * (-10.0 / 81.0)))
    return float(m[order]) * math.factorial(order)


def _d3_mean(x):
    return x**3


def _d4_mean(x):
    return x**4


def _quadratic_mean(x):
    return x**2


def _power_derivative(power: int, x: float, order: int) -> float:
    if order > power:
        return 0.0
    return float(math.perm(power, order)) * float(x) ** (power - order)


_d3_mean_derivative = partial(_power_derivative, 3)
_d4_mean_derivative = partial(_power_derivative, 4)
_quadratic_mean_derivative = partial(_power_derivative, 2)


# -- covariate laws ----------------------------------------------------------


def _sample_mixture(rng: np.random.Generator, n: int) -> np.ndarray:
    # with probability 0.8 draw from the density 0.1875 s^2 on [-2, 2]
    # (inverse CDF: s = cbrt(16u - 8)), otherwise Uniform(-1, 1);
    # draw order (mask, u) is part of the seeding contract
    mask = rng.random(n) < 0.8
    u = rng.random(n)
    return np.where(mask, np.cbrt(16.0 * u - 8.0), 2.0 * u - 1.0)


def _mixture_density(s: float) -> float:
    s = float(s)
    value = 0.0
    if -2.0 <= s <= 2.0:
        value += 0.15 * s * s
    if -1.0 <= s <= 1.0:
        value += 0.1
    return value


def _mixture_density_derivative(x: float, order: int) -> float:
    if not -2.0 < x < 2.0:
        return 0.0
    if order == 1:
        return 0.3 * x
    if order == 2:
        return 0.3
    return 0.0


def _sample_standard_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n)


_NORMAL_SCALE = 1.0 / math.sqrt(2.0 * math.pi)


def _normal_density(s: float) -> float:
    s = float(s)
    return _NORMAL_SCALE * math.exp(-0.5 * s * s)


def _normal_density_derivative(x: float, order: int) -> float:
    # phi^(k)(x) = (-1)^k He_k(x) phi(x) with probabilists' Hermite He_k
    he = {1: -x, 2: x * x - 1.0, 3: -(x**3 - 3.0 * x), 4: x**4 - 6.0 * x * x + 3.0}
    if order not in he:
        raise UserInputError("normal density derivatives available up to order 4")
    return he[order] * _normal_density(x)


def _sample_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    return 2.0 * rng.random(n) - 1.0


def _uniform_density(s: float) -> float:
    return 0.5


def _zero_function(x: float, order: int) -> float:
    return 0.0


@dataclass(frozen=True)
class Dgp:
    """One synthetic data-generating process: mean, noise level, covariate law."""

    dgp_id: str
    mean: Callable
    sigma: float
    sample_x: Callable[[np.random.Generator, int], np.ndarray]
    density: Callable[[float], float]
    density_derivative: Callable[[float, int], float]
    support: tuple[float, float]
    breakpoints: tuple[float, ...]
    mean_derivative: Callable[[float, int], float]


DGP_REGISTRY = {
    "d1": Dgp("d1", _d1_mean, 0.6, _sample_mixture, _mixture_density,
              _mixture_density_derivative, (-2.0, 2.0), (-1.0, 1.0),
              _d1_mean_derivative),
    "d2": Dgp("d2", _d2_mean, 0.2, _sample_mixture, _mixture_density,
              _mixture_density_derivative, (-2.0, 2.0), (-1.0, 1.0),
              _d2_mean_derivative),
    "d3": Dgp("d3", _d3_mean, 1.2, _sample_standard_normal, _normal_density,
              _normal_density_derivative, (-np.inf, np.inf), (),
              _d3_mean_derivative),
    "d4": Dgp("d4", _d4_mean, 4.0, _sample_standard_normal, _normal_density,
              _normal_density_derivative, (-np.inf, np.inf), (),
              _d4_mean_derivative),
    "quadratic": Dgp("quadratic", _quadratic_mean, 0.1, _sample_uniform,
                     _uniform_density, _zero_function, (-1.0, 1.0), (),
                     _quadratic_mean_derivative),
}


def get_dgp(name: str) -> Dgp:
    key = str(name).strip().lower()
    if key not in DGP_REGISTRY:
        known = ", ".join(sorted(DGP_REGISTRY))
        raise UserInputError(f"unknown data-generating process {name!r}; known: {known}")
    return DGP_REGISTRY[key]


def sample_dgp(dgp: Dgp, n: int, rng: np.random.Generator) -> IndividualDataset:
    """Draw n (X, Y) pairs: covariates first, then one noise vector."""
    n = int(n)
    if n < 1:
        raise UserInputError(f"need at least one observation, got n={n}")
    x = dgp.sample_x(rng, n)
    y = dgp.mean(x) + rng.standard_normal(n) * dgp.sigma
    return IndividualDataset(x=x, y=y)


def theory_context(dgp: Dgp) -> TheoryContext:
    """Bridge a generator to the asymptotic formulas, closed forms throughout."""
    return TheoryContext(
        mean=dgp.mean,
        density=dgp.density,
        sigma2=dgp.sigma**2,
        support=dgp.support,
        mean_derivative=dgp.mean_derivative,
        density_derivative=dgp.density_derivative,
        breakpoints=dgp.breakpoints,
    )


def ise(fitted, responses) -> float:
    """Sum of squared deviations of responses from fitted values.

    Every fitted value must be finite; a failed fit anywhere makes the
    total undefined rather than silently smaller.
    """
    fitted = np.asarray(fitted, dtype=float)
    responses = np.asarray(responses, dtype=float)
    if fitted.shape != responses.shape:
        raise UserInputError("fitted values and responses must align one to one")
    if not np.all(np.isfinite(fitted)):
        raise IncompleteCurve(
            f"{int(np.sum(~np.isfinite(fitted)))} fitted value(s) missing; "
            "the error sum is undefined"
        )
    diff = responses - fitted
    return float(np.sum(diff * diff))


# ---------------------------------------------------------------------------
# Monte Carlo harness


@dataclass(frozen=True)
class SimulationSpec:
    """Everything one Monte Carlo study needs, fixed up front."""

    dgp: Dgp
    estimators: tuple
    grid: tuple
    design: Design = Design.RANDOM
    n: int = 600
    c: int = 2
    replications: int = 500
    p: int = 1
    kernel: KernelKind = KernelKind.EPANECHNIKOV
    h: float | None = None
    seed: int = 0
    trim: bool = True
    use_true_mean_reference: bool = False

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "grid", tuple(float(g) for g in self.grid))
        if not self.estimators:
            raise UserInputError("at least one estimator tag is required")
        if not all(isinstance(e, Estimator) for e in self.estimators):
            raise UserInputError("estimators must be Estimator tags")
        if not self.grid:
            raise UserInputError("the evaluation grid must not be empty")
        if self.replications < 1:
            raise UserInputError(f"replications must be >= 1, got {self.replications}")
        if self.c < 1:
            raise UserInputError(f"pool size must be >= 1, got {self.c}")
        if self.n < self.c:
            raise UserInputError(
                f"sample size n={self.n} cannot be below the pool size c={self.c}"
            )
        if self.design not in (Design.RANDOM, Design.HOMOGENEOUS):
            raise UserInputError("design must be random or homogeneous")
        # the order and a fixed bandwidth are checked as fits check them
        self.base_config(1.0 if self.h is None else self.h)

    def base_config(self, h: float) -> FitConfig:
        return FitConfig(p=self.p, h=h, kernel=self.kernel)


@dataclass(frozen=True)
class ReplicationRecord:
    """One replication's curves, error sums, bandwidths, and failures."""

    index: int
    master_seed: int
    curves: dict = field(repr=False)
    ises: dict
    bandwidths: dict
    failures: tuple = ()


def _replicate(spec: SimulationSpec, index: int) -> ReplicationRecord:
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=spec.seed, spawn_key=(index,))
    )
    individual = sample_dgp(spec.dgp, spec.n, rng)
    if spec.design is Design.RANDOM:
        pooled = pool_random(individual, spec.c, rng)
    else:
        pooled = pool_homogeneous(individual, spec.c)
    grid_arr = np.asarray(spec.grid, dtype=float)
    n_grid = grid_arr.size
    eval_points = np.concatenate([grid_arr, individual.x])
    reference = (spec.dgp.mean(individual.x)
                 if spec.use_true_mean_reference else individual.y)

    curves: dict = {}
    ises: dict = {}
    bandwidths: dict = {}
    failures: list = []
    for est in spec.estimators:
        data = individual if est is Estimator.INDIVIDUAL else pooled
        try:
            if spec.h is None:
                h = select_bandwidth(
                    data, est, spec.base_config(1.0), trim=spec.trim).chosen_h
            else:
                h = spec.h
            bandwidths[est] = h
            cfg = spec.base_config(h)
            full = estimate_curve(est, data, cfg, eval_points)
            curves[est] = CurveEstimate(
                grid=grid_arr, values=full.values[:n_grid],
                failed=full.failed[:n_grid], estimator=est, config=cfg,
            )
            ises[est] = ise(full.values[n_grid:], reference)
        except NumericalFailure as exc:
            bandwidths.setdefault(est, None)
            curves.setdefault(est, None)
            ises[est] = None
            failures.append((est.value, str(exc)))
    return ReplicationRecord(
        index=index, master_seed=spec.seed, curves=curves,
        ises=ises, bandwidths=bandwidths, failures=tuple(failures),
    )


def _map(fun: Callable, items, jobs: int) -> list:
    """fun over items in order, serially or over at most jobs worker processes.

    The two fan-outs of this package call it: the replications of
    run_monte_carlo and the resamples of bootstrap_curves.
    """
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fun(item) for item in items]
    # imported here, so serial runs load no concurrent.futures or multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(items) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fun, items, chunksize=chunk))


def run_monte_carlo(spec: SimulationSpec, jobs: int = 1) -> list[ReplicationRecord]:
    """All replications of a study, optionally fanned out over processes.

    Output is identical for any jobs value: each replication owns a seed
    stream derived from (master seed, replication index) alone.
    """
    return _map(partial(_replicate, spec), range(spec.replications), jobs)


def select_quartile_realizations(records, tag: Estimator) -> tuple[int, int, int]:
    """Replication indices whose error sums sit at the three quartiles.

    Targets are the nearest-rank 25th/50th/75th percentiles of the
    realized error sums; the record nearest each target wins, ties going
    to the lowest replication index.
    """
    pairs = [(r.index, r.ises[tag]) for r in sorted(records, key=lambda r: r.index)
             if r.ises.get(tag) is not None]
    if len(pairs) < 3:
        raise TooFewRecords(
            f"need at least 3 finished replications, have {len(pairs)}"
        )
    values = np.array([v for _, v in pairs])
    ordered = np.sort(values)
    picks = []
    for q in (0.25, 0.50, 0.75):
        target = ordered[math.ceil(q * values.size) - 1]
        best = int(np.argmin(np.abs(values - target)))
        picks.append(pairs[best][0])
    return tuple(picks)


# ---------------------------------------------------------------------------
# pool bootstrap


@dataclass(frozen=True)
class BootstrapBands:
    """Pointwise mean and 5/95 percent envelope over bootstrap refits.

    Grid points where any resample failed are masked with NaN; coverage
    reports the fraction of resamples that produced a value there.
    """

    estimator: Estimator
    grid: np.ndarray
    mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    coverage: np.ndarray
    n_resamples: int


def _resample_pools(data: PooledDataset, rows: np.ndarray) -> PooledDataset:
    members = data.member_table[rows]
    x_flat = data.x_flat[members[members >= 0]]
    design = Design.EXTERNAL if data.design is Design.HOMOGENEOUS else data.design
    return PooledDataset(z=data.z[rows], sizes=data.sizes[rows], x_flat=x_flat, design=design)


def _bootstrap_one(
    data: PooledDataset,
    tag: Estimator,
    cfg: FitConfig,
    grid: np.ndarray,
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    curve = estimate_curve(tag, _resample_pools(data, rows), cfg, grid)
    return curve.values, curve.failed


def bootstrap_curves(
    data: PooledDataset,
    tag: Estimator,
    cfg: FitConfig,
    n_resamples: int,
    grid,
    rng: np.random.Generator,
    jobs: int = 1,
) -> BootstrapBands:
    """Resample whole pools with replacement and refit the curve each time.

    Pool composition never changes; only which pools enter a resample
    does. All resample index rows are drawn up front in one call, so the
    result is deterministic for a seeded generator no matter how the
    refits are scheduled.
    """
    if not isinstance(data, PooledDataset):
        raise UserInputError("the bootstrap resamples pools; pass pooled data")
    if tag is Estimator.INDIVIDUAL:
        raise UserInputError(
            "the pool bootstrap covers the pooled-data estimators; "
            "wrap individual data as size-1 pools first"
        )
    n_resamples = int(n_resamples)
    if n_resamples < 2:
        raise UserInputError(f"need at least 2 resamples, got {n_resamples}")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise UserInputError("the evaluation grid must be a nonempty 1-d sequence")
    index_rows = rng.integers(0, data.n_pools, size=(n_resamples, data.n_pools))
    results = _map(partial(_bootstrap_one, data, tag, cfg, grid), index_rows, jobs)
    values = np.stack([v for v, _ in results])
    failed = np.stack([f for _, f in results])
    mask = failed.any(axis=0)
    mean = values.mean(axis=0)
    lower, upper = _quantiles(np.sort(values, axis=0), (0.05, 0.95))
    mean[mask] = np.nan
    lower[mask] = np.nan
    upper[mask] = np.nan
    return BootstrapBands(
        estimator=tag, grid=grid, mean=mean, lower=lower, upper=upper,
        coverage=1.0 - failed.mean(axis=0), n_resamples=n_resamples,
    )
