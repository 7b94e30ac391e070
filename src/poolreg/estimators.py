"""Local polynomial estimators for individual and pooled response data.

All four estimators minimize a kernel-weighted least squares objective in the
coefficients beta_0..beta_p of a degree-p polynomial centred at the evaluation
point x; the fitted value is beta_0 and ell! * beta_ell estimates the ell-th
derivative of the mean function.

  * individual: one row per unit, row ell-entry (X_i - x)^ell, unit weight
    K_h(X_i - x), response Y_i.
  * average: one row per pool, entry ell the pool average of (X_jk - x)^ell,
    pool weight the pool average of K_h(X_jk - x), response Z_j.
  * product: same rows as average, pool weight the product of the member
    K_h(X_jk - x) values.
  * marginal: the individual fit applied to pseudo responses
    R_j = c_j Z_j - (c_j - 1) mu_hat expanded to every member covariate,
    where mu_hat is the overall per-unit mean response of the full dataset.

One engine serves all four, at a single point and over a whole grid
alike. A row builder gives the design rows D = (1, D_1, .., D_p) and weights
w: unit rows t^ell with t = (X - x)/h and weights K_h(X - x), or pool rows
holding the member averages of t^ell with the average or the product of the
member weights. The engine forms the normal sums A = sum_r w D D^T and
b = sum_r w D y as plain row sums and solves A beta = b. A cross-validation
fold leaves rows out (one record, one pool, or a whole pool's member rows) by
giving them weight zero before the sums are formed, so a fold fit is the
same computation as a plain fit on the data without those rows.

The sums only visit rows inside the kernel window. The engine sorts the
evaluation points and the member covariates once per call and walks the
sorted points in blocks of a fixed size. A block whose points run from g to
g' reads the contiguous slice of sorted members in [g - h, g' + h], widened
by a few ulps: every member outside it has weight exactly zero under a
compact kernel. Unit rows are the records of the slice; pool rows are every
pool with a member in the slice, in ascending pool order, built from the
padded member table so that members outside the slice still enter the pool
averages. Time and memory per block are then of order block size times
window, not the number of points times the number of rows. The Gaussian
kernel has no window: its blocks read every row, which bounds the memory
but not the time.

Every solve happens in the bandwidth-scaled basis ((X - x)/h)^ell and the
coefficients are rescaled afterwards, which keeps the normal matrix well
conditioned for small h. A point fails when its normal sums are not finite
or when rcond, the ratio of the smallest to the largest singular value of
the h-scaled normal matrix, is below FitConfig.rcond_min. Failures are
reported (NaN and a failure flag over a grid, SingularLocalSystem from the
single-point fit_* functions), never papered over with regularization.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonPositiveBandwidth, SingularLocalSystem, UserInputError
from .data import IndividualDataset, PooledDataset
from .kernels import KernelKind, kernel_eval

__all__ = [
    "Estimator",
    "FitConfig",
    "LocalFit",
    "PseudoData",
    "CurveEstimate",
    "fit_individual",
    "fit_average_weighted",
    "fit_product_weighted",
    "fit_marginal_integration",
    "build_pseudo_data",
    "estimate_curve",
]


class Estimator(enum.Enum):
    """Which estimator a curve or record refers to."""

    INDIVIDUAL = "individual"
    AVERAGE = "average"
    PRODUCT = "product"
    MARGINAL = "marginal"

    @classmethod
    def parse(cls, name: str) -> "Estimator":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise UserInputError(
                f"unknown estimator {name!r}; expected one of "
                + ", ".join(e.value for e in cls)
            ) from None


@dataclass(frozen=True)
class FitConfig:
    """Settings shared by every local fit: order, bandwidth, kernel, tolerance."""

    p: int
    h: float
    kernel: KernelKind = KernelKind.EPANECHNIKOV
    rcond_min: float = 1e-12

    def __post_init__(self):
        if self.p < 0:
            raise UserInputError(f"polynomial order must be >= 0, got {self.p}")
        if not (self.h > 0.0):
            raise NonPositiveBandwidth(f"bandwidth must be positive, got {self.h}")
        if not (0.0 < self.rcond_min < 1.0):
            raise UserInputError("rcond_min must lie strictly between 0 and 1")


@dataclass(frozen=True)
class LocalFit:
    """Solution of one local weighted least squares problem."""

    x: float
    beta: np.ndarray

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        beta.flags.writeable = False
        object.__setattr__(self, "beta", beta)

    @property
    def m_hat(self) -> float:
        return float(self.beta[0])

    def derivative(self, ell: int) -> float:
        """Estimate of the ell-th derivative of the mean function at x."""
        return math.factorial(ell) * float(self.beta[ell])


@dataclass(frozen=True)
class PseudoData:
    """Pseudo responses for the marginal-integration estimator.

    Each pool contributes one value R_j = c_j Z_j - (c_j - 1) mu_hat,
    attached to every one of its member covariates. mu_hat is computed once
    from the complete dataset and reused everywhere afterwards, in
    particular inside cross-validation folds.
    """

    mu_hat: float
    r: np.ndarray
    source: PooledDataset

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        r.flags.writeable = False
        object.__setattr__(self, "r", r)

    @property
    def r_flat(self) -> np.ndarray:
        """Pseudo response per individual, aligned with source.x_flat."""
        return np.repeat(self.r, self.source.sizes)


@dataclass(frozen=True)
class CurveEstimate:
    """Fitted values over a grid, failures flagged per point."""

    grid: np.ndarray
    values: np.ndarray
    failed: np.ndarray
    estimator: Estimator
    config: FitConfig = field(repr=False)

    def __post_init__(self):
        for name in ("grid", "values", "failed"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (self.grid.size == self.values.size == self.failed.size):
            raise ValueError("grid, values and failed must have equal length")

    @property
    def n_failed(self) -> int:
        return int(self.failed.sum())


def build_pseudo_data(data: PooledDataset) -> PseudoData:
    mu_hat = float(data.sizes @ data.z) / data.n_units
    r = data.sizes * data.z - (data.sizes - 1) * mu_hat
    return PseudoData(mu_hat=mu_hat, r=r, source=data)


# evaluation points per block; a block's arrays hold this many points times
# its window. CV at n = 600 and n = 3000 on a 2-core x86 host ran fastest
# with 48-64 points (16-32 and 96-512 were slower)
_CHUNK = 64


def _unit_design(
    x: np.ndarray, grid: np.ndarray, cfg: FitConfig
) -> tuple[list[np.ndarray], np.ndarray]:
    """Unit rows t^1..t^p of t = (X - x)/h and weights K_h(X - x).

    X (the covariates x) and the evaluation points grid broadcast.
    """
    t = x - grid
    t /= cfg.h
    w = kernel_eval(cfg.kernel, t)
    w /= cfg.h
    powers = []
    for ell in range(cfg.p):
        powers.append(t if ell == 0 else powers[-1] * t)
    return powers, w


def _pool_design(
    members: np.ndarray, pad: np.ndarray, sizes: np.ndarray, grid: np.ndarray,
    cfg: FitConfig, product: bool,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Pool rows: member averages of the unit rows over the first axis.

    members holds one slab of member covariates per slot of the member
    table, pad marks the padding, and every slab broadcasts against grid.
    The pool weight is the average of the member kernel weights, or their
    product for the product-weighted estimator. Padding adds 0 to every
    average and 1 to the product.
    """
    t = members - grid
    t /= cfg.h
    k = kernel_eval(cfg.kernel, t)
    k /= cfg.h
    np.copyto(k, 1.0 if product else 0.0, where=pad)
    w = k.prod(axis=0) if product else k.sum(axis=0) / sizes
    del k
    np.copyto(t, 0.0, where=pad)
    powers = []
    power = t
    for ell in range(cfg.p):
        if ell == 1:
            power = t * t
        elif ell > 1:
            power *= t
        powers.append(power.sum(axis=0) / sizes)
    return powers, w


def _normal_sums(
    powers: list[np.ndarray], w: np.ndarray, resp: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A = sum w D D^T and b = sum w D y over the last axis, with D = (1, powers).

    Every entry is a plain row sum of an elementwise product, so its
    summation order is fixed by the array shape alone. resp broadcasts
    against w.
    """
    q = len(powers) + 1
    A = np.empty((w.shape[0], q, q))
    b = np.empty((w.shape[0], q))
    wd = np.empty_like(w)
    scratch = np.empty_like(w)
    for ell in range(q):
        wd_ell = w if ell == 0 else np.multiply(w, powers[ell - 1], out=wd)
        # D_0 = 1, so row 0 of A holds the plain sums of w D_ell
        A[:, 0, ell] = A[:, ell, 0] = wd_ell.sum(axis=1)
        b[:, ell] = np.multiply(wd_ell, resp, out=scratch).sum(axis=1)
        if ell == 0:
            continue
        for ell2 in range(ell, q):
            A[:, ell, ell2] = A[:, ell2, ell] = np.multiply(
                wd_ell, powers[ell2 - 1], out=scratch
            ).sum(axis=1)
    return A, b


def _solve(A: np.ndarray, b: np.ndarray, cfg: FitConfig) -> tuple[np.ndarray, np.ndarray]:
    """Solve each h-scaled system; coefficients on the original scale plus failures.

    A system fails when it is not finite or when the ratio of its smallest to
    its largest singular value is below rcond_min. Failed rows hold NaN.
    """
    eye = np.eye(A.shape[1])
    bad = ~(np.isfinite(A).all(axis=(1, 2)) & np.isfinite(b).all(axis=1))
    A[bad] = eye
    b[bad] = 0.0
    s = np.linalg.svd(A, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        rcond = s[:, -1] / s[:, 0]
    bad |= ~np.isfinite(rcond) | (rcond < cfg.rcond_min)
    A[bad] = eye
    beta = np.linalg.solve(A, b[..., None])[..., 0]
    beta /= cfg.h ** np.arange(A.shape[1])
    beta[bad] = np.nan
    return beta, bad


def _local_fits(
    estimator: Estimator,
    data: IndividualDataset | PooledDataset,
    cfg: FitConfig,
    points: np.ndarray,
    pseudo: PseudoData | None = None,
    drop: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of an estimator at every evaluation point, and which points failed.

    drop, when given, holds per evaluation point the indices of the rows left
    out of that point's fit, padded with -1: records for the individual and
    marginal estimators, pools for the other two. Those rows get weight zero
    in that point's normal sums. One row per point gives leave-one-out and
    leave-one-pool-out folds, a pool's member rows give the whole-pool drop.
    """
    if estimator is Estimator.INDIVIDUAL:
        if not isinstance(data, IndividualDataset):
            raise UserInputError("the individual estimator needs unpooled (x, y) data")
        x, resp = data.x, data.y
    elif not isinstance(data, PooledDataset):
        raise UserInputError(f"the {estimator.value} estimator needs pooled data")
    elif estimator is Estimator.MARGINAL:
        x = data.x_flat
        resp = (build_pseudo_data(data) if pseudo is None else pseudo).r_flat
    else:
        x, resp = data.x_flat, data.z
    # covariates in ascending order, so every block of points sees one slice
    order = np.argsort(x, kind="stable")
    x_sorted = x[order]

    if estimator in (Estimator.AVERAGE, Estimator.PRODUCT):
        # slot-major member table: slab i holds every pool's i-th member
        table = data.member_table.T
        members, pad = x[table], table < 0
        pool_sorted = data.member_pool_index[order]
        product = estimator is Estimator.PRODUCT

        def design(rows, grid):
            return (*_pool_design(members[:, rows], pad[:, rows], data.sizes[rows], grid,
                                  cfg, product), resp[rows])

        def window(lo, hi):
            # every pool with a member in the slice, in ascending pool order
            touched = np.zeros(data.n_pools, dtype=bool)
            touched[pool_sorted[lo:hi]] = True
            return np.flatnonzero(touched)[None, :]
    else:
        def design(rows, grid):
            return (*_unit_design(x[rows], grid, cfg), resp[rows])

        def window(lo, hi):
            return order[None, lo:hi]

    if drop is not None:
        # column of each row (one per response) in the current block's
        # window, -1 outside it; the extra last entry sends the -1 padding
        # of drop to -1 as well
        column = np.full(resp.size + 1, -1)

    q = cfg.p + 1
    A = np.empty((points.size, q, q))
    b = np.empty((points.size, q))
    eps = np.finfo(float).eps
    for block in np.array_split(np.argsort(points, kind="stable"),
                                range(_CHUNK, points.size, _CHUNK)):
        grid = points[block][:, None]
        first, last = grid[0, 0], grid[-1, 0]
        if cfg.kernel.compact:
            # [first - h, last + h] plus a few ulps. Rounding is monotone, so
            # a member outside the rounded bounds already has rounded |t| >= 1
            # and weight zero; the margin keeps every member with weight in
            # the slice even if t and the bounds were rounded differently
            # (each extra member only adds zero weight)
            reach = cfg.h + 4.0 * eps * (max(abs(first), abs(last)) + cfg.h)
            lo, hi = np.searchsorted(x_sorted, (first - reach, last + reach))
        else:
            lo, hi = 0, x.size
        rows = window(lo, hi)
        powers, w, y = design(rows, grid)
        if drop is not None:
            # dropped rows outside the window already weigh zero
            column[rows[0]] = np.arange(rows.shape[1])
            cols = column[drop[block]]
            column[rows[0]] = -1
            hit = cols >= 0
            w[np.nonzero(hit)[0], cols[hit]] = 0.0
        A[block], b[block] = _normal_sums(powers, w, y)
        # free this block's rows before the next block builds its own
        del powers, w, y
    return _solve(A, b, cfg)


def _fit_point(
    estimator: Estimator,
    data: IndividualDataset | PooledDataset,
    cfg: FitConfig,
    x: float,
    pseudo: PseudoData | None = None,
) -> LocalFit:
    beta, failed = _local_fits(estimator, data, cfg, np.array([x], dtype=float), pseudo)
    if failed[0]:
        raise SingularLocalSystem(
            f"local system at x={x:g} is empty, overflowed or singular "
            f"to tolerance {cfg.rcond_min:g}"
        )
    return LocalFit(x=x, beta=beta[0])


def fit_individual(data: IndividualDataset, cfg: FitConfig, x: float) -> LocalFit:
    """Classical local polynomial fit on raw (x, y) records."""
    return _fit_point(Estimator.INDIVIDUAL, data, cfg, x)


def fit_average_weighted(data: PooledDataset, cfg: FitConfig, x: float) -> LocalFit:
    """Pool-level fit with average design rows and averaged kernel weights."""
    return _fit_point(Estimator.AVERAGE, data, cfg, x)


def fit_product_weighted(data: PooledDataset, cfg: FitConfig, x: float) -> LocalFit:
    """Pool-level fit weighting each pool by the product of member kernels.

    With a compact kernel a single member outside [x - h, x + h] zeroes the
    whole pool's weight, so expect SingularLocalSystem for small bandwidths
    and large pools.

    The weight of pool j, a product of c_j kernels K_h = K(./h)/h, carries a
    factor h^-c_j. When pool sizes differ, rescaling the covariate (x, h and
    the grid by the same s) reweights pools of different sizes against each
    other by s^-(c_j - c_j'), so the estimate depends on the covariate's
    unit; with equal sizes the factor cancels.
    """
    return _fit_point(Estimator.PRODUCT, data, cfg, x)


def fit_marginal_integration(
    data: PooledDataset, cfg: FitConfig, x: float, pseudo: PseudoData | None = None
) -> LocalFit:
    """Individual-style fit on pseudo responses expanded to member covariates."""
    return _fit_point(Estimator.MARGINAL, data, cfg, x, pseudo)


def estimate_curve(
    estimator: Estimator,
    data: IndividualDataset | PooledDataset,
    cfg: FitConfig,
    grid,
    pseudo: PseudoData | None = None,
) -> CurveEstimate:
    """Fitted values over a grid; points that cannot be fit are flagged.

    A failure at one point (singular or overflowed local system) never
    aborts the rest of the curve. Failed entries hold NaN and are marked in
    the failed mask.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise UserInputError("the evaluation grid must be a nonempty 1-d sequence")
    beta, failed = _local_fits(estimator, data, cfg, grid, pseudo)
    return CurveEstimate(
        grid=grid, values=beta[:, 0], failed=failed, estimator=estimator, config=cfg
    )
