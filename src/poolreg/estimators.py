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
compact kernel, and a block also ends where more rows than a block holds
points lie between two of its points. Unit rows are the records of the
slice; pool rows are every pool with a member in the slice, in ascending
pool order, built from the padded member table so that members outside the
slice still enter the pool averages. Time and memory per block are then of
order block size times window, not the number of points times the number
of rows. The Gaussian kernel has no window: its blocks read every row,
which bounds the memory but not the time.

Wide windows of the polynomial kernels (Epanechnikov, quartic, triweight)
use running sums instead, for unit rows and average pool rows; product
weights, tricube and Gaussian stay on the blocks. The sorted rows are cut
into segments of width h/2 anchored at their centres. With s = (anchor -
x)/h, a row adds to each entry of A and b a polynomial in s: its weight
(1 - (s + u)^2)^m / c_j times the pool means of (s + v)^ell, u and v being
its own and its members' (X - anchor)/h. Compensated running sums of those
coefficients, restarted at every segment, give a window as at most five
segment pieces, each evaluated at its own s; a fold's rows are built by
the row builders and subtracted. Each point carries a first-order bound on
the rounding of its A and b and goes back to the blocks when its count of
nonzero-weight rows is below p + 1, when the bound leaves its rcond
decision open, or when it leaves beta_0 undetermined to 1e-12 of
|beta_0| + max |y|. A call takes the running sums when its windows hold
more than 48 rows per row and point plus 65,536, pool rows of largest size
c counting c^2 per member. CV passes timed on both paths at every candidate
h (CHANGES.md) put that line within noise of the faster path: a running
pass costs about 5 ms at n = 600, 15 ms at n = 3000, 65 ms at n = 12,000
and 0.35 s at n = 48,000 whatever h, and loses to the blocks on narrow
windows, where the bound leaves many points to refit.

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
from .kernels import _POLY_FAMILY, KernelKind, kernel_eval

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

# when a call takes the running sums; see the module docstring
_RUNNING_MIN, _RUNNING_BASE = 48, 65536


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
) -> np.ndarray:
    """[A | b] with A = sum w D D^T and b = sum w D y over the last axis, D = (1, powers).

    Every entry is a plain row sum of an elementwise product, so its
    summation order is fixed by the array shape alone. resp broadcasts
    against w.
    """
    q = len(powers) + 1
    Ab = np.empty((w.shape[0], q, q + 1))
    wd = np.empty_like(w)
    scratch = np.empty_like(w)
    for ell in range(q):
        wd_ell = w if ell == 0 else np.multiply(w, powers[ell - 1], out=wd)
        # D_0 = 1, so row 0 of A holds the plain sums of w D_ell
        Ab[:, 0, ell] = Ab[:, ell, 0] = wd_ell.sum(axis=1)
        Ab[:, ell, q] = np.multiply(wd_ell, resp, out=scratch).sum(axis=1)
        if ell == 0:
            continue
        for ell2 in range(ell, q):
            Ab[:, ell, ell2] = Ab[:, ell2, ell] = np.multiply(
                wd_ell, powers[ell2 - 1], out=scratch
            ).sum(axis=1)
    return Ab


def _window_bounds(
    xs: np.ndarray, points: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per point the sorted rows [L, R) of nonzero weight, |fl(fl(X - x)/h)| < 1.

    Rows within a few ulps of x -+ h get t computed as the row builders do.
    """
    margin = 4.0 * np.finfo(float).eps * (np.abs(points) + h)
    bounds = []
    for side in (-1.0, 1.0):
        edge = points + side * h
        first = np.searchsorted(xs, edge - margin)
        cnt = np.searchsorted(xs, edge + margin, "right") - first
        owner = np.repeat(np.arange(points.size), cnt)
        rows = first[owner] + np.arange(owner.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        t = (xs[rows] - points[owner]) / h
        outside = t <= -1.0 if side < 0 else t < 1.0
        bounds.append(first + np.bincount(owner, outside, points.size).astype(first.dtype))
    return bounds[0], bounds[1]


def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of polynomials in s, coefficients in ascending powers along axis 0."""
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1]))
    for i in range(a.shape[0]):
        out[i:i + b.shape[0]] += a[i] * b
    return out


def _running_sums(
    xs: np.ndarray, mates: np.ndarray, size: np.ndarray, resp: np.ndarray,
    cfg: FitConfig, points: np.ndarray, L: np.ndarray, R: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """[A | b] at every point from running sums, and a bound on its rounding error.

    Row r has covariate xs[r] (ascending), its pool's member covariates
    mates[:, r] (NaN padded), pool size size[r] and response resp[r]; a unit
    row is a pool of one. An empty window [L, R) gets zero sums.
    """
    const, m = _POLY_FAMILY[cfg.kernel]
    h, q, n = cfg.h, cfg.p + 1, xs.size
    seg = np.floor((xs - xs[0]) / (0.5 * h))
    new = np.r_[True, seg[1:] != seg[:-1]]
    start = np.flatnonzero(new)
    end = np.r_[start[1:], n]
    gid = np.cumsum(new) - 1
    anchor = xs[0] + (seg[start] + 0.5) * (0.5 * h)
    u = (xs - anchor[gid]) / h
    v = np.nan_to_num((mates - anchor[gid]) / h)
    pairs = [(i, j) for i in range(q) for j in range(i, q + 1)]

    def row_polys(u, v, resp, sign):
        # each row's terms of [A | b] as polynomials in s, b taking D_q =
        # resp; sign = 1 with |u|, |v|, |resp| sums their absolute values
        k = 1.0 / size[None]
        for _ in range(m):
            k = _poly_mul(k, np.stack([1.0 + sign * u * u, 2.0 * sign * u, np.full(n, sign)]))
        nu = [np.ones(n)] + [(v**ell).sum(axis=0) / size for ell in range(1, q)]
        D = [np.stack([math.comb(ell, g) * nu[ell - g] for g in range(ell + 1)])
             for ell in range(q)] + [resp[None]]
        kD = [_poly_mul(k, d) for d in D[:q]]
        return np.concatenate([_poly_mul(kD[i], D[j]) for i, j in pairs])

    # compensated running sums, restarted at every segment; column n is zero
    cols = row_polys(u, v, resp, -1.0)
    run = np.zeros((2 * len(cols), n + 1))
    np.cumsum(cols, axis=1, out=run[:len(cols), :n])
    np.cumsum(row_polys(np.abs(u), np.abs(v), np.abs(resp), 1.0), axis=1,
              out=run[len(cols):, :n])
    signed, err = run[:len(cols)], np.zeros((len(cols), n + 1))
    step = signed[:, 1:n] - signed[:, :n - 1]
    err[:, 1:n] = (signed[:, :n - 1] - (signed[:, 1:n] - step)) + (cols[:, 1:] - step)
    np.cumsum(err[:, :n], axis=1, out=err[:, :n])
    before = np.r_[start[gid] - 1, n]
    before[before < 0] = n
    run -= run[:, before]
    signed += err - err[:, before]
    del cols, err, step, signed
    first = np.cumsum([0] + [2 * m + i + j + 1 - (j == q) * j for i, j in pairs] * 2)
    sums = np.zeros((2 * len(pairs), points.size))
    g_lo, g_hi = gid[np.minimum(L, n - 1)], np.where(R > L, gid[R - 1], -1)
    for j in range(int((g_hi - g_lo).max(initial=0)) + 1):
        # the window's piece in its j-th segment; the absolute terms up to
        # the piece's last row, at |s|, bound the rounding of its sums
        g = np.minimum(g_lo + j, start.size - 1)
        used = g_lo + j <= g_hi
        lo = np.where(used & (L > start[g]), L - 1, n)
        hi = np.where(used, np.minimum(R, end[g]) - 1, n)
        piece = run[:, hi]
        piece[:first[len(pairs)]] -= run[:first[len(pairs)], lo]
        s = (anchor[g] - points) / h
        for k, (a, b) in enumerate(zip(first[:-1], first[1:])):  # Horner's rule
            value = piece[b - 1]
            for row in piece[b - 2:a - 1 if a else None:-1]:
                value *= s if k < len(pairs) else np.abs(s)
                value += row
            sums[k] += value
    # first-order rounding per absolute term: u, v and s, the row
    # polynomials and pool means, the running sums, the pieces and Horner
    kappa = (16 * (m + q) + 2 * v.shape[0] + 8) * np.finfo(float).eps
    out = np.empty((2, points.size, q, q + 1))
    for k, (i, j) in enumerate(pairs):
        out[:, :, i, j] = sums[[k, len(pairs) + k]] * [[const / h], [kappa * const / h]]
        if j < q:
            out[:, :, j, i] = out[:, :, i, j]
    return out[0], out[1]


def _solve(
    Ab: np.ndarray, cfg: FitConfig, bounds: tuple | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve each h-scaled [A | b]: coefficients on the original scale, failures, open points.

    A system fails when it is not finite or when rcond, the ratio of its
    smallest to its largest singular value, is below rcond_min; failed rows
    hold NaN. bounds = (E, ymax) bounds the errors [EA | Eb] of [A | b], so
    the exact singular values lie within e = |EA|_F of the computed ones. A
    point is left open when that leaves its rcond decision open, when e >
    s_min / 2, or when |A^-1|_0 (Eb + EA |beta|) / (1 - e / s_min) exceeds
    1e-12 (|beta_0| + ymax): beta_0 is not determined to 1e-12.
    """
    E, ymax = bounds if bounds else (np.zeros_like(Ab), 0.0)
    A, b, EA, Eb = Ab[..., :-1], Ab[..., -1], E[..., :-1], E[..., -1]
    finite = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
    # A is symmetric, so its singular values are its absolute eigenvalues;
    # eigvalsh finds them in about a third of the time svd takes
    s = np.sort(np.abs(np.linalg.eigvalsh(np.where(finite[:, None, None], A, 0.0))))
    e = np.sqrt((EA * EA).sum(axis=(1, 2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        passes = finite & ((s[:, 0] - e) / (s[:, -1] + e) >= cfg.rcond_min)
        fails = finite & (s[:, -1] > e) & ((s[:, 0] + e) / (s[:, -1] - e) < cfg.rcond_min)
    left_open = ~(passes | fails)
    ok = np.flatnonzero(passes)
    beta = np.full(b.shape, np.nan)
    beta[ok] = np.linalg.solve(A[ok], b[ok, :, None])[..., 0]
    if bounds:
        # the first row of A^-1, A being symmetric
        row = np.abs(np.linalg.solve(A[ok], np.eye(A.shape[1])[:, :1])[..., 0])
        with np.errstate(invalid="ignore"):
            drift = (row * (Eb[ok] + (EA[ok] @ np.abs(beta[ok, :, None]))[..., 0])).sum(axis=1)
        near = e[ok] / s[ok, 0]
        tol = 1e-12 * (1.0 - near) * (np.abs(beta[ok, 0]) + ymax)
        left_open[ok] = (near > 0.5) | ~(drift <= tol)
    beta /= cfg.h ** np.arange(A.shape[1])
    return beta, ~passes, left_open


def _local_fits(
    estimator: Estimator,
    data: IndividualDataset | PooledDataset,
    cfg: FitConfig,
    points: np.ndarray,
    pseudo: PseudoData | None = None,
    drop: np.ndarray | None = None,
    order: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of an estimator at every evaluation point, and which points failed.

    drop, when given, holds per evaluation point the indices of the rows left
    out of that point's fit, padded with -1: records for the individual and
    marginal estimators, pools for the other two. Those rows get weight zero
    in that point's normal sums. One row per point gives leave-one-out and
    leave-one-pool-out folds, a pool's member rows give the whole-pool drop.
    order, when given, is the stable argsort of the covariates, for callers
    that fit many bandwidths; it sorts the points too when they are the
    covariates.
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
    if order is None:
        order = np.argsort(x, kind="stable")
    point_order = order if points is x else np.argsort(points, kind="stable")
    x_sorted = x[order]
    eps = np.finfo(float).eps

    pools = estimator in (Estimator.AVERAGE, Estimator.PRODUCT)
    if pools:
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

    q = cfg.p + 1
    beta, failed = np.empty((points.size, q)), np.empty(points.size, dtype=bool)
    todo = point_order
    if (cfg.kernel in _POLY_FAMILY and estimator is not Estimator.PRODUCT
            and np.isfinite(points).all()):
        # the points in ascending order, so the running sums are read in order
        grid = points[point_order]
        L, R = _window_bounds(x_sorted, grid, cfg.h)
        cmax = table.shape[0] if pools else 1
        if (R - L).sum() * cmax**2 > _RUNNING_MIN * (x.size + points.size) + _RUNNING_BASE:
            if pools:
                mates = data.member_table[pool_sorted].T
                mates = np.where(mates >= 0, x[mates], np.nan)
                size, rows_resp = data.sizes[pool_sorted].astype(float), resp[pool_sorted]
            else:
                mates, size, rows_resp = x_sorted[None], np.ones(x.size), resp[order]
            Ab, E = _running_sums(x_sorted, mates, size, rows_resp, cfg, grid, L, R)
            # rows of nonzero weight: the pools of a window of fewer than
            # c (q + d) members are counted, larger ones hold q + d or more
            count, width = R - L, cmax * (q + (0 if drop is None else drop.shape[1]))
            if pools:
                few = np.flatnonzero(count < width)
                rows = L[few, None] + np.arange(width)
                ids = np.where(rows < R[few, None], pool_sorted[np.minimum(rows, x.size - 1)], -1)
                ids.sort(axis=1)
                new = (ids[:, 1:] != ids[:, :-1]) & (ids[:, 1:] >= 0)
                count[few] = new.sum(axis=1) + (ids[:, 0] >= 0)
            if drop is not None:
                # the fold's rows, built by the row builders and subtracted
                left_out = drop[point_order]
                powers, w, y = design(np.maximum(left_out, 0), grid[:, None])
                w[left_out < 0] = 0.0
                fold = _normal_sums(powers, w, y)
                Ab -= fold
                E += 2.0 * eps * np.abs(fold)
                count -= (w > 0).sum(axis=1)
            beta[point_order], failed[point_order], redo = _solve(Ab, cfg, (E, np.abs(resp).max()))
            del Ab, E
            todo = point_order[redo | (count < q)]

    if drop is not None:
        # column of each row (one per response) in the current block's
        # window, -1 outside it; the extra last entry sends the -1 padding
        # of drop to -1 as well
        column = np.full(resp.size + 1, -1)
    Ab = np.empty((points.size, q, q + 1))
    # blocks of up to _CHUNK sorted points, under a compact kernel also cut
    # where more than _CHUNK rows lie between two points (points refit after
    # the running sums, a coarse grid)
    i, at = np.arange(todo.size), np.searchsorted(x_sorted, points[todo])
    gap = cfg.kernel.compact & (np.diff(at, prepend=at[:1]) > _CHUNK)
    starts = np.flatnonzero((i - np.maximum.accumulate(np.where(gap, i, 0))) % _CHUNK == 0)
    for s, e in zip(starts, np.r_[starts[1:], todo.size]):
        block = todo[s:e]
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
        Ab[block] = _normal_sums(powers, w, y)
        # free this block's rows before the next block builds its own
        del powers, w, y
    beta[todo], failed[todo] = _solve(Ab[todo], cfg)[:2]
    return beta, failed


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
