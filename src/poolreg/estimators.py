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
fold leaves rows out (one record, one pool, or a whole pool's member rows)
before the sums are formed, so a fold fit is the same computation as a
plain fit on the data without those rows.

The sums only visit rows inside the kernel window. The engine sorts the
points and the member covariates once per call and finds each point's
window [L, R), the sorted members of nonzero weight, by binary search. Its
rows are exact: the records in the window; the pools with a member in it,
each once, for average weights; the pools with every member in it for
product weights, taken from the pools sorted by last member (a contiguous
range) by their first member. One flat pass over the (point, row) pairs, in
chunks of 8192, builds the rows and forms each entry of [A | b] as a
segment sum per point, so its summation order is fixed by the data alone.
Time is of order the number of pairs, memory of order the chunk. The
Gaussian kernel has no window: it pairs every point with every row.

Wide windows of the polynomial kernels (Epanechnikov, quartic, triweight)
use running sums instead, for unit rows, average pool rows and product
pool rows when every pool holds c consecutive sorted members (homogeneous
pooling) and 2mc <= 8; tricube, the Gaussian kernel and other product
weights stay on the flat pass. The sorted rows are cut into segments of
width h/2 anchored at their centres. With s = (anchor - x)/h, a row adds
to each entry of A and b a polynomial in s: its weight (1 - (s + u)^2)^m /
c_j, or the product of (1 - (s + v)^2)^m over its members for a product
row placed at its last member, times the pool means of (s + v)^ell, u and
v being its own and its members' (X - anchor)/h. Compensated running sums
of those coefficients, restarted at every segment, give a window as at
most five segment pieces, each evaluated at its own s; a fold's rows are
built by the row builders and subtracted. Each point carries a first-order
bound on the rounding of its A and b and goes back to the flat pass when
its count of nonzero-weight rows is below p + 1, when the bound leaves its
rcond decision open, or when it leaves beta_0 undetermined to 1e-12 of
|beta_0| + max |y|. A call takes the running sums when its flat pass would
build more than 50 member rows per row and point plus 16,384 (a pool row
of largest size c counting c). CV passes timed on both paths at every
candidate h (CHANGES.md) put that line near where they cross: a running
pass costs about 2.5-4 ms at n = 600 and 8-12 ms at n = 3000 whatever h,
a flat pass about 35 ns per member row, and the running sums lose on
narrow windows, where the bound leaves many points to refit.

Every solve happens in the bandwidth-scaled basis ((X - x)/h)^ell and the
coefficients are rescaled afterwards, which keeps the normal matrix well
conditioned for small h. A point fails when its normal sums are not finite
or when rcond, the ratio of the smallest to the largest singular value of
the h-scaled normal matrix, is below 1e-12 (_RCOND_MIN, which the theory
layer applies to its moment matrices too). Failures are
reported (NaN and a failure flag over a grid, SingularLocalSystem from the
single-point fit_* functions), never papered over with regularization.
Cyclic Jacobi rotations decompose every normal matrix of a call at once,
A = V diag(lam) V^T, giving the singular values |lam| as accurately as
LAPACK (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1992) and
beta = V diag(1/lam) V^T b, with no LAPACK call.
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
    """Settings shared by every local fit: order, bandwidth, kernel."""

    p: int
    h: float
    kernel: KernelKind = KernelKind.EPANECHNIKOV

    def __post_init__(self):
        if self.p < 0:
            raise UserInputError(f"polynomial order must be >= 0, got {self.p}")
        if not (self.h > 0.0):
            raise NonPositiveBandwidth(f"bandwidth must be positive, got {self.h}")


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
    mu_hat = float(np.sum(data.sizes * data.z)) / data.n_units
    r = data.sizes * data.z - (data.sizes - 1) * mu_hat
    return PseudoData(mu_hat=mu_hat, r=r, source=data)


# a local system fails below this rcond; see the module docstring
_RCOND_MIN = 1e-12

# when a call takes the running sums; see the module docstring
_RUNNING_MIN, _RUNNING_BASE = 50, 16384

# pairs per chunk of the flat pass: its arrays stay in cache and below
# malloc's mmap threshold (see CHANGES.md)
_PAIRS = 1 << 13

# cap on the Jacobi sweeps of one solve; q <= 6 settles in far fewer
_SWEEPS = 30


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
    members: np.ndarray, sizes: np.ndarray, grid: np.ndarray, cfg: FitConfig, product: bool,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Pool rows: member averages of the unit rows over the first axis.

    members holds one slab of member covariates per slot of the member
    table, NaN for padding, and every slab broadcasts against grid. The
    pool weight is the average of the member kernel weights, or their
    product for the product-weighted estimator. Padding adds 0 to every
    average and 1 to the product; the slabs are reduced one by one.
    """
    pad = np.isnan(members)
    t = members - grid
    t /= cfg.h
    k = kernel_eval(cfg.kernel, t)
    k /= cfg.h
    np.copyto(k, 1.0 if product else 0.0, where=pad)
    w = math.prod(k) if product else sum(k) / sizes
    del k
    np.copyto(t, 0.0, where=pad)
    powers = []
    power = t
    for ell in range(cfg.p):
        if ell == 1:
            power = t * t
        elif ell > 1:
            power *= t
        powers.append(sum(power) / sizes)
    return powers, w


def _normal_sums(
    powers: list[np.ndarray], w: np.ndarray, resp: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """[A | b] with A = sum w D D^T and b = sum w D y per segment of the pairs, D = (1, powers).

    One plane per entry, (q, q + 1, segments); segment k holds the pairs
    from starts[k] up to the next start, and none is empty. Every entry is
    an np.add.reduceat of an elementwise product, so its summation order is
    fixed by the pairs alone.
    """
    q = len(powers) + 1
    Ab = np.empty((q, q + 1, starts.size))
    wd = np.empty_like(w)
    scratch = np.empty_like(w)
    for ell in range(q):
        wd_ell = w if ell == 0 else np.multiply(w, powers[ell - 1], out=wd)
        # D_0 = 1, so row 0 of A holds the plain sums of w D_ell
        Ab[0, ell] = Ab[ell, 0] = np.add.reduceat(wd_ell, starts)
        Ab[ell, q] = np.add.reduceat(np.multiply(wd_ell, resp, out=scratch), starts)
        if ell == 0:
            continue
        for ell2 in range(ell, q):
            Ab[ell, ell2] = Ab[ell2, ell] = np.add.reduceat(
                np.multiply(wd_ell, powers[ell2 - 1], out=scratch), starts)
    return Ab


def _pair_sums(
    grid: np.ndarray, lo: np.ndarray, hi: np.ndarray, bound: np.ndarray,
    gate: tuple | None, drop: np.ndarray | None, cfg: FitConfig, rows: tuple,
) -> np.ndarray:
    """[A | b] at every point grid[i] over its rows lo[i]..hi[i] - 1, in one flat pass.

    rows = (covariates (m,) of unit rows or NaN-padded member covariates
    (c, m) of pool rows, pool sizes, responses, product). gate = (key,
    above) keeps the pair of point i and row k only where (key[k] >=
    bound[i]) == above. A fold leaves out the pairs of the rows drop[i] (-1
    padded), so a fold fit sums what a fit without those rows sums. Chunks
    of about _PAIRS pairs bound the memory however wide the windows.
    """
    q, (cov, sizes, resp, product) = cfg.p + 1, rows
    Ab = np.zeros((q, q + 1, grid.size))
    width = hi - lo
    before = np.cumsum(width) - width
    starts = np.flatnonzero(np.diff(before // _PAIRS, prepend=-1))
    step = np.arange(_PAIRS + width.max(initial=0))
    for a, b in zip(starts, np.r_[starts[1:], grid.size]):
        span = before[a:b] - before[a]  # each point's first pair in the chunk
        k = np.repeat(lo[a:b] - span, width[a:b])
        k += step[:k.size]
        kept = np.ones(k.size, dtype=bool) if gate is None else (
            (gate[0][k] >= np.repeat(bound[a:b], width[a:b])) == gate[1])
        if drop is not None:
            hit = drop[a:b]
            inside = (hit >= lo[a:b, None]) & (hit < hi[a:b, None])
            kept[(hit + (span - lo[a:b])[:, None])[inside]] = False
        keep = np.flatnonzero(kept)
        k, span = k[keep], np.searchsorted(keep, span)
        count = np.r_[span[1:], keep.size] - span
        at, some = np.repeat(grid[a:b], count), np.flatnonzero(count)
        if cov.ndim == 1:
            powers, w = _unit_design(cov[k], at, cfg)
        else:
            powers, w = _pool_design(np.take(cov, k, axis=1), sizes[k], at, cfg, product)
        Ab[..., a + some] = _normal_sums(powers, w, resp[k], span[some])
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
    cfg: FitConfig, points: np.ndarray, L: np.ndarray, R: np.ndarray, product: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """[A | b] at every point from running sums, and a bound on its rounding error.

    Row r has covariate xs[r] (ascending), its pool's member covariates
    mates[:, r] (NaN padded), pool size size[r] and response resp[r]; a unit
    row is a pool of one. Its weight is the kernel at xs[r] over size[r], or
    with product the product of its members' kernels (equal pools, no
    padding). An empty window [L, R) gets zero sums.
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
    # a pool wider than 3h is in no window; its product row is zero, which
    # keeps its large terms out of the running sums
    c, reach = (mates.shape[0], v.min(axis=0) >= u - 3.0) if product else (1, None)
    pairs = [(i, j) for i in range(q) for j in range(i, q + 1)]

    def row_polys(u, v, resp, sign):
        # each row's terms of [A | b] as polynomials in s, b taking D_q =
        # resp; sign = 1 with |u|, |v|, |resp| sums their absolute values.
        # The weight has a factor (1 - (s + v)^2)^m per member if product
        k = (reach if product else 1.0 / size)[None]
        for a in (v if product else [u]):
            for _ in range(m):
                k = _poly_mul(k, np.stack([1.0 + sign * a * a, 2.0 * sign * a, np.full(n, sign)]))
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
    first = np.cumsum([0] + [2 * m * c + i + j + 1 - (j == q) * j for i, j in pairs] * 2)
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
    kappa = (16 * (m * c + q) + 2 * v.shape[0] + 8) * np.finfo(float).eps
    scale = float(const / h) ** c
    out = np.empty((2, q, q + 1, points.size))
    for k, (i, j) in enumerate(pairs):
        out[:, i, j] = sums[[k, len(pairs) + k]] * [[scale], [kappa * scale]]
        if j < q:
            out[:, j, i] = out[:, i, j]
    return out[0], out[1]


def _jacobi(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (q, n) and eigenvectors (q, q, n) of n symmetric matrices held as planes.

    Cyclic Jacobi rotations over all matrices at once give A = V diag(lam)
    V^T, V[:, k] the k-th eigenvector. One rotation settles q = 2; larger
    matrices are swept until every off-diagonal entry is at most
    eps sqrt|a_ii a_jj|, each later sweep over the unsettled matrices only.
    """
    q, n = A.shape[0], A.shape[2]
    # length-n planes of the upper triangle of [[A, V^T], [V, 0]], so that
    # rotating its (i, j) plane gives J^T A J and V J alike
    a = {(i, j): A[i, j].copy() for i in range(q) for j in range(i, q)}
    a.update({(j, q + i): np.full(n, float(i == j)) for i in range(q) for j in range(q)})
    pairs = [(i, j) for i in range(q) for j in range(i + 1, q)]
    todo = np.arange(n)
    for sweep in range(_SWEEPS if q > 1 else 0):
        sub = a if sweep == 0 else {key: v[todo] for key, v in a.items()}
        for i, j in pairs:
            # the rotation that zeroes a_ij (Golub & Van Loan, sym.schur2);
            # theta^2 overflows only where t, below 1e-154, may drop to 0
            aij = sub[i, j]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                theta = (sub[j, j] - sub[i, i]) / (2.0 * aij)
                t = np.copysign(1.0, theta) / (np.abs(theta) + np.sqrt(1.0 + theta * theta))
            t[aij == 0.0] = 0.0
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            sub[i, i], sub[j, j], sub[i, j] = sub[i, i] - t * aij, sub[j, j] + t * aij, 0 * t
            for k in range(2 * q):
                if k != i and k != j:
                    ki, kj = (min(k, i), max(k, i)), (min(k, j), max(k, j))
                    sub[ki], sub[kj] = c * sub[ki] - s * sub[kj], s * sub[ki] + c * sub[kj]
        if sweep:
            for key, v in sub.items():
                a[key][todo] = v
        if q == 2:
            break
        root = [np.sqrt(np.abs(sub[i, i])) for i in range(q)]
        todo = todo[np.any([np.abs(sub[i, j]) > np.finfo(float).eps * root[i] * root[j]
                            for i, j in pairs], axis=0)]
        if todo.size == 0:
            break
    V = [[a[j, q + i] for j in range(q)] for i in range(q)]
    return np.array([a[i, i] for i in range(q)]), np.array(V)


def _solve(
    Ab: np.ndarray, cfg: FitConfig, bounds: tuple | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve each h-scaled [A | b]: coefficients on the original scale, failures, open points.

    Ab holds one plane per entry, (q, q + 1, points); beta comes back as
    (points, q). _jacobi gives the singular values |lam|, beta and the first
    row of A^-1. A system fails when it is not finite or when rcond, the
    ratio of its smallest to its largest singular value, is below
    _RCOND_MIN; failed rows hold NaN. bounds = (E, ymax) bounds the errors
    [EA | Eb] of [A | b], so the exact singular values lie within e = |EA|_F
    of the computed ones. A point is left open when that leaves its rcond
    decision open, when e > s_min / 2, or when |A^-1|_0 (Eb + EA |beta|) /
    (1 - e / s_min) exceeds 1e-12 (|beta_0| + ymax): beta_0 is not
    determined to 1e-12.
    """
    q, b = Ab.shape[0], Ab[:, -1]
    finite = np.isfinite(Ab).all(axis=(0, 1))
    lam, V = _jacobi(np.where(finite, Ab[:, :-1], 0.0))
    s_min, s_max = np.abs(lam).min(axis=0), np.abs(lam).max(axis=0)
    e = np.sqrt((bounds[0][:, :-1] ** 2).sum(axis=(0, 1))) if bounds else 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        passes = finite & ((s_min - e) / (s_max + e) >= _RCOND_MIN)
        fails = finite & (s_max > e) & ((s_min + e) / (s_max - e) < _RCOND_MIN)
        left_open = ~(passes | fails)
        inv = np.where(passes, 1.0 / lam, np.nan)
        beta = (V * ((V * b[:, None]).sum(axis=0) * inv)).sum(axis=1)
        if bounds:
            E, ymax = bounds
            # the first row of A^-1, A being symmetric
            row = np.abs((V * (V[0] * inv)).sum(axis=1))
            drift = (row * (E[:, -1] + (E[:, :-1] * np.abs(beta)).sum(axis=1))).sum(axis=0)
            near = e / s_min
            tol = 1e-12 * (1.0 - near) * (np.abs(beta[0]) + ymax)
            left_open[passes] = ((near > 0.5) | ~(drift <= tol))[passes]
    beta /= (cfg.h ** np.arange(q))[:, None]
    return beta.T, ~passes, left_open


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
    marginal estimators, pools for the other two. Those rows stay out of
    that point's normal sums. One row per point gives leave-one-out and
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
        if pseudo is None:
            pseudo = build_pseudo_data(data)
        elif pseudo.source is not data:
            raise UserInputError("the pseudo data were built from another dataset")
        x, resp = data.x_flat, pseudo.r_flat
    else:
        x, resp = data.x_flat, data.z
    # covariates and points in ascending order; a point that is not finite
    # gets an empty window
    if order is None:
        order = np.argsort(x, kind="stable")
    point_order = order if points is x else np.argsort(points, kind="stable")
    x_sorted, grid = x[order], points[point_order]
    n, q, eps = x.size, cfg.p + 1, np.finfo(float).eps
    finite = np.isfinite(grid)
    grid = np.where(finite, grid, 0.0)
    L, R = (_window_bounds(x_sorted, grid, cfg.h) if cfg.kernel.compact
            else (np.zeros(grid.size, dtype=np.intp), np.full(grid.size, n)))
    L[~finite] = R[~finite] = 0

    # the rows in the engine's order (unit rows: the sorted records), each
    # point's rows lo..hi - 1 kept where gate says so, and the places in
    # that order that can hold each row (-1 padded)
    product = estimator is Estimator.PRODUCT
    place = np.empty(n, dtype=np.intp)
    place[order] = np.arange(n)
    lo, hi, gate, cmax = L, R, None, 1
    if estimator in (Estimator.AVERAGE, Estimator.PRODUCT):
        table = data.member_table
        cmax = table.shape[1]
        # each pool's sorted member positions, ascending, -1 padded first
        ranks = np.sort(np.where(table >= 0, place[table], -1), axis=1)
        if product:
            # the pools by last member; a window's have last and first in [L, R)
            first, last = ranks[np.arange(table.shape[0]), cmax - data.sizes], ranks[:, -1]
            space = np.argsort(last, kind="stable")
            lo, hi = np.searchsorted(last[space], L), np.searchsorted(last[space], R)
            gate, place = (first[space], True), np.argsort(space)[:, None]
        else:
            # the pool of every sorted member: each pool with a member in
            # [L, R) once, at the member whose predecessor lies before L
            space, before, place = data.member_pool_index[order], np.full(n, -1), ranks
            later = ranks[:, 1:] >= 0
            before[ranks[:, 1:][later]] = ranks[:, :-1][later]
            gate = (before, False)
        members = table[space].T
        rows = (np.where(members >= 0, x[members], np.nan), data.sizes[space].astype(float),
                resp[space], product)
    else:
        rows, place = (x_sorted, np.ones(n), resp[order], False), place[:, None]

    beta, failed = np.empty((points.size, q)), np.empty(points.size, dtype=bool)
    todo = np.arange(grid.size)
    # product rows need pools of cmax consecutive sorted members (a window's
    # pools are then a contiguous range, every row of one scale) and a weight
    # of degree 2 m cmax <= 8, beyond which the bound leaves most points open
    running = cfg.kernel in _POLY_FAMILY and (not product or (
        _POLY_FAMILY[cfg.kernel][1] * cmax <= 4 and (last - first + 1 == cmax).all()))
    if running and (hi - lo).sum() * cmax > _RUNNING_MIN * (n + points.size) + _RUNNING_BASE:
        # product rows sit at their pools' last members
        xs, start = (x_sorted[last[space]], np.minimum(np.searchsorted(first[space], L), hi)) \
            if product else (x_sorted, L)
        Ab, E = _running_sums(xs, np.atleast_2d(rows[0]), *rows[1:3], cfg, grid, start, hi,
                              product)
        # rows of nonzero weight; an average window of fewer than c (q + d)
        # members may hold fewer than q + d pools and is refit
        count = hi - start
        if estimator is Estimator.AVERAGE:
            count[R - L < cmax * (q + (0 if drop is None else drop.shape[1]))] = 0
        if drop is not None:
            # the fold's rows, one pair each, subtracted
            left_out = np.where(drop >= 0, place[drop, -1], -1)[point_order].ravel()
            fold = _pair_sums(np.repeat(grid, drop.shape[1]), left_out, left_out + (left_out >= 0),
                              None, None, None, cfg, rows).reshape(q, q + 1, grid.size, -1)
            count -= (fold[0, 0] > 0).sum(axis=-1)
            fold = fold.sum(axis=-1)
            Ab -= fold
            E += 2.0 * eps * np.abs(fold)
        beta[point_order], failed[point_order], redo = _solve(Ab, cfg, (E, np.abs(resp).max()))
        del Ab, E
        todo = np.flatnonzero(redo | (count < q))

    done = point_order[todo]
    if drop is not None:
        drop = np.where(drop[done, :, None] >= 0, place[drop[done]], -1).reshape(
            todo.size, drop.shape[1] * place.shape[1])
    Ab = _pair_sums(grid[todo], lo[todo], hi[todo], L[todo], gate, drop, cfg, rows)
    beta[done], failed[done] = _solve(Ab, cfg)[:2]
    return beta, failed


def _fit_point(
    estimator: Estimator, data: IndividualDataset | PooledDataset, cfg: FitConfig, x: float
) -> LocalFit:
    beta, failed = _local_fits(estimator, data, cfg, np.array([x], dtype=float))
    if failed[0]:
        raise SingularLocalSystem(
            f"local system at x={x:g} is empty, overflowed or singular "
            f"to tolerance {_RCOND_MIN:g}"
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


def fit_marginal_integration(data: PooledDataset, cfg: FitConfig, x: float) -> LocalFit:
    """Individual-style fit on pseudo responses expanded to member covariates."""
    return _fit_point(Estimator.MARGINAL, data, cfg, x)


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
    the failed mask. pseudo, for the marginal estimator, must have been
    built from this data object; any other raises UserInputError.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise UserInputError("the evaluation grid must be a nonempty 1-d sequence")
    beta, failed = _local_fits(estimator, data, cfg, grid, pseudo)
    return CurveEstimate(
        grid=grid, values=beta[:, 0], failed=failed, estimator=estimator, config=cfg
    )
