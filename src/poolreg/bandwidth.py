"""Leave-one-out cross-validation bandwidth selection.

Every criterion scores predictions at the observed covariates, each made
by a fit that leaves out the rows of its own fold. For individual data the
fold is the record itself (classical leave-one-out residual sum of squares,
the pool criterion below with every c_j = 1). For pooled data there are
three criteria, one per pooled estimator:

  * pool-level residual sum of squares for the average-weighted estimator:
    each pool j is left out in turn, the curve is evaluated at that pool's
    member covariates, and the squared gap between Z_j and the average
    prediction is accumulated with multiplicity c_j (the written criterion
    sums over members even though the summand does not depend on them, and
    we keep that literal factor);
  * the same criterion with the product-weighted estimator;
  * a pseudo individual-level criterion for the marginal-integration
    estimator: each single pseudo point is left out and predicted; pseudo
    siblings from the same pool stay in the training set. The pool mean
    adjustment mu_hat is always the full-data value.

Optional trimming restricts which prediction points enter a criterion to
those inside the central 95 percent of the covariate sample (2.5th to
97.5th empirical quantiles, linear interpolation). Trimming never removes
anything from the training side of a fold.

A candidate bandwidth fails when any needed leave-one-out fit is singular;
failed candidates are dropped from the argmin. If every candidate fails,
NoValidBandwidth is raised.

Ties pick the smallest bandwidth, and a tie is decided at rounding level,
never by exact equality. Every criterion V is a squared weighted norm of a
residual vector, V = sum_i w_i r_i^2. With n records and u = n * eps (eps the
double precision machine epsilon), each computed residual is off by at most
about u times its response, because every fitted value rests on sums over at
most n records (to first order, for a well-conditioned local solve; a solve
near the 1e-12 rcond threshold can lose more, which the band does not cover).
By the triangle inequality sqrt(V) is then known to within
u * sqrt(S) plus the rounding of the final n-term sum, about u * sqrt(V) / 2,
where S is the data's own scale:

  * S = sum_j c_j Z_j^2 for the pool-level criteria (with c_j = 1 and Z = y
    for individual data);
  * S = sum_i R_i^2 over the pseudo responses for the pseudo criterion.

Two computed criteria whose roots differ by less than the sum of both errors
cannot be ordered. So a finite candidate ties with the minimum V_min when

    sqrt(V) <= sqrt(V_min) + u * (sqrt(V_min) + 2 sqrt(S)),

a relative band of u on sqrt(V_min) plus an absolute floor of 2 u sqrt(S)
scaled to the data. The smallest h among the tied candidates is chosen.
Outside that band the ordering is kept exactly, so an input without ties
gets the plain argmin.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .data import IndividualDataset, PooledDataset
from .errors import NoValidBandwidth, TooFewRecords, UserInputError
from .estimators import Estimator, FitConfig, build_pseudo_data, _batch_fits

__all__ = [
    "CvTrace",
    "FoldFailure",
    "default_h_grid",
    "select_bandwidth",
    "trim_bounds_for",
]


@dataclass(frozen=True)
class FoldFailure:
    """One leave-one-out fit that could not be computed (recorded, not raised)."""

    h: float
    pool_index: int
    x: float
    reason: str


# per candidate the needed points whose fold failed, and what a record says of them
_FailedPoints = namedtuple("_FailedPoints", "bad pool_of x reason")


@dataclass(frozen=True)
class CvTrace:
    """Criterion values over a bandwidth grid and the winning bandwidth."""

    estimator: Estimator
    criterion_kind: str
    h_grid: np.ndarray
    criterion: np.ndarray
    chosen_h: float
    trim_bounds: tuple[float, float] | None
    _failed: _FailedPoints = field(repr=False, compare=False)

    def __post_init__(self):
        for name in ("h_grid", "criterion"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @cached_property
    def failures(self) -> tuple[FoldFailure, ...]:
        """One record per failed fold, candidate by candidate, built on first read."""
        bad, pool_of, x, reason = self._failed
        return tuple(FoldFailure(float(h), int(pool_of[j]), float(x[j]), reason)
                     for h, points in zip(self.h_grid, bad) for j in points)


def _quantiles(x: np.ndarray, levels) -> list:
    """np.quantile's default 'linear' points of x, sorted along axis 0, bit for bit.

    Its virtual index (n - 1) q and two-sided lerp (one value: x[-1] twice),
    without the numpy.ma import of np.quantile's first call.
    """
    last = x.shape[0] - 1
    out = []
    for q in levels:
        v = last * q
        j = min(math.floor(v), last - 1)
        a, b = x[j], x[j + 1]
        t, d = v - j, b - a
        out.append(b - d * (1 - t) if t >= 0.5 else a + d * t)
    return out


def trim_bounds_for(x_values: np.ndarray) -> tuple[float, float]:
    """Central 95 percent of the covariate sample, as np.quantile gives it."""
    lo, hi = _quantiles(np.sort(np.asarray(x_values, dtype=float).ravel()), (0.025, 0.975))
    return float(lo), float(hi)


def default_h_grid(x_values, n: int = 30) -> np.ndarray:
    """Geometric grid from 1.5x the mean nearest-neighbor spacing to half the range.

    The lower end keeps at least a couple of points in most kernel windows;
    the upper end approaches a global polynomial fit.
    """
    x = np.sort(np.asarray(x_values, dtype=float))
    if x.size < 2:
        raise TooFewRecords("need at least 2 covariate values to build a bandwidth grid")
    span = x[-1] - x[0]
    if span <= 0.0:
        raise UserInputError("all covariate values are identical; no usable bandwidth grid")
    gaps = np.diff(x)
    nearest = np.minimum(np.r_[gaps, np.inf], np.r_[np.inf, gaps])
    lower = 1.5 * float(nearest.mean())
    upper = 0.5 * span
    if not lower > 0.0:
        lower = upper / n
    if upper <= lower:
        upper = 2.0 * lower
    return np.geomspace(lower, upper, n)


def _pool_rss(pooled: PooledDataset, fitted: np.ndarray, needed: np.ndarray) -> float:
    """Sum over pools of c_j (Z_j - mean prediction at its needed members)^2."""
    table = pooled.member_table
    present = table >= 0
    counts = (present & needed[table]).sum(axis=1)
    sums = np.where(present, np.where(needed, fitted, 0.0)[table], 0.0).sum(axis=1)
    include = counts > 0
    inner = sums[include] / counts[include]
    resid = pooled.z[include] - inner
    # literal criterion: the summand is member-free, so each pool counts c_j times
    return float(np.sum(pooled.sizes[include] * (resid * resid)))


def _smallest_tied(values: np.ndarray, n: int, scale: float) -> int:
    """Index of the first finite criterion tied with the minimum at rounding level.

    See the module docstring for the rule and its derivation.
    """
    u = n * np.finfo(float).eps
    root = np.sqrt(np.where(np.isfinite(values), values, np.inf))
    low = root.min()
    return int(np.flatnonzero(root <= low + u * (low + 2.0 * np.sqrt(scale)))[0])


def _in_bounds(x: np.ndarray, bounds: tuple[float, float] | None) -> np.ndarray:
    if bounds is None:
        return np.ones(x.size, dtype=bool)
    a, b = bounds
    return (x >= a) & (x <= b)


def select_bandwidth(
    data: IndividualDataset | PooledDataset,
    tag: Estimator,
    base_cfg: FitConfig,
    grid=None,
    trim: bool = True,
    criterion: str = "pseudo",
) -> CvTrace:
    """Pick the bandwidth minimizing the estimator's cross-validation criterion.

    The h of base_cfg is ignored; its order and kernel are used as given.
    With trim=True prediction points outside the central 95 percent of the
    covariate sample are skipped.
    For the marginal estimator, criterion picks between the recommended
    "pseudo" (leave one pseudo point out) and the pool-level "pool"
    alternative (leave the whole pool out, residual against Z_j).
    For individual data each record is left out in turn and predicted from
    the rest: the classical leave-one-out residual sum of squares, which is
    the pool criterion with every pool of size 1.

    The chosen h is the smallest candidate whose criterion V ties with the
    minimum V_min at rounding level: sqrt(V) <= sqrt(V_min) + u * (sqrt(V_min)
    + 2 sqrt(S)) with u = n * eps over the n records. The relative band is
    u on sqrt(V_min); the absolute floor 2 u sqrt(S) is scaled by the data,
    S = sum_j c_j Z_j^2 for pool-level criteria and S = sum_i R_i^2 over the
    pseudo responses for the pseudo criterion. Candidates apart by more than
    that are ordered exactly.

    The candidates go to the fitting engine as one batch, which shares the
    set-up that does not depend on h, and are scored as their fits come back.
    """
    if isinstance(data, IndividualDataset):
        if tag is not Estimator.INDIVIDUAL:
            raise UserInputError(f"the {tag.value} estimator needs pooled data")
        x, n_folds = data.x, data.n_units
    else:
        if tag is Estimator.INDIVIDUAL:
            raise UserInputError("the individual estimator needs unpooled (x, y) data")
        x, n_folds = data.x_flat, data.n_pools
    if criterion not in ("pseudo", "pool"):
        raise UserInputError(f"unknown cv criterion {criterion!r}; use 'pseudo' or 'pool'")
    if n_folds < 2:
        raise TooFewRecords("leave-one-out needs at least 2 pools or records")

    h_grid = default_h_grid(x) if grid is None else np.sort(np.asarray(grid, dtype=float))
    if h_grid.size == 0:
        raise UserInputError("the bandwidth grid is empty")
    for h in h_grid:
        replace(base_cfg, h=float(h))  # a candidate is checked as a fit's h is

    bounds = trim_bounds_for(x) if trim else None
    needed = _in_bounds(x, bounds)
    kind = criterion if tag is Estimator.MARGINAL else "pool"
    # predictions are made at every observed covariate x; drop holds the rows
    # each one's fold leaves out of its fit, and target the responses they are
    # scored against one by one (None for the pool criteria, scored per pool)
    if tag is Estimator.INDIVIDUAL:
        drop, pool_of, target = np.arange(x.size)[:, None], np.arange(x.size), data.y
    elif kind == "pseudo":
        drop, pool_of = np.arange(x.size)[:, None], data.member_pool_index
        target = build_pseudo_data(data).r_flat
    else:
        pool_of, target = data.member_pool_index, None
        drop = data.member_table[pool_of] if tag is Estimator.MARGINAL else pool_of[:, None]
    reason = ("leave-one-pseudo-point-out fit singular" if kind == "pseudo"
              else "leave-pool-out fit singular at a member covariate")

    # per candidate its criterion, or NaN, and the needed points whose fold failed
    values, bad = np.full(h_grid.size, np.nan), []
    for k, (beta, failed) in enumerate(_batch_fits(tag, data, base_cfg, h_grid, x, drop)):
        bad.append(np.flatnonzero(failed & needed))
        if bad[k].size:
            continue
        if target is None:
            values[k] = _pool_rss(data, beta[:, 0], needed)
        else:
            resid = np.where(needed, target - beta[:, 0], 0.0)
            values[k] = float(np.sum(resid * resid))

    finite = np.isfinite(values)
    if not finite.any():
        raise NoValidBandwidth(
            f"all {h_grid.size} candidate bandwidths failed cross-validation"
        )
    if target is None:
        scale = float(np.sum(data.sizes * (data.z * data.z)))
    else:
        scale = float(np.sum(target * target))
    best = _smallest_tied(values, x.size, scale)
    return CvTrace(
        estimator=tag,
        criterion_kind=kind,
        h_grid=h_grid,
        criterion=values,
        chosen_h=float(h_grid[best]),
        trim_bounds=bounds,
        _failed=_FailedPoints(bad, pool_of, x, reason),
    )
