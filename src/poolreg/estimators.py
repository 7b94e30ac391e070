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
alike. Every row it sums is a pool, and unit rows (individual, marginal)
are pools of one, as the individual fit is the pooled fit with all c_j = 1:
a row holds the member averages D_ell of t^ell, t = (X - x)/h, and the
average or product w of the member weights K_h(X - x). The engine forms
A = sum_r w D D^T and b = sum_r w D y, D = (1, D_1, .., D_p), and solves
A beta = b. A cross-validation fold leaves rows out (one record, one pool,
or a whole pool's member rows) before the sums are formed, so a fold fit
is the same computation as a plain fit on the data without those rows.

The sums only visit rows inside the kernel window. One row table per call
(_row_table) sorts the member covariates and lays the rows out for both
summation paths: a row at every sorted member holding its pool (unit and
average rows), or each pool at its last member (product rows). The engine
takes a batch of bandwidths and solves one local system per bandwidth and
point, in blocks of whole bandwidths of at most 2048 systems (one bandwidth
when it has more points); each system carries its own h, so its arithmetic
is that of a call with that h alone. A block finds each system's window
[L, R), the sorted members of nonzero weight, by one binary search, and the
table's gate keeps the records in it, each pool with a member in it once for
average weights, and the pools with every member in it for product weights.
One flat pass per block, over the (system, row) pairs of its flat bandwidths
and of the points that the running sums leave open (below), in chunks of
8192, builds the rows and forms each entry of [A | b] as a segment sum per
system, so its summation order is fixed by the data alone: time of order the
pairs, memory of order the chunk. The Gaussian kernel has no window: it
pairs every point with every row.

Wide windows of the kernels const (1 - t^2)^m (Epanechnikov, quartic,
triweight) use running sums instead, where the table says they apply: unit
and average rows, and product rows of pools of c consecutive sorted members
(homogeneous pooling) with 2mc <= 8. The sorted rows are cut into segments
of width h/2 anchored at their centres. With s = (anchor - x)/h, a row adds
to each entry of A and b a polynomial in s: its weight (1 - (s + u)^2)^m /
c_j, or the product of (1 - (s + v)^2)^m over its members for a product row,
times the pool means of (s + v)^ell, u and v being its own and its members'
(X - anchor)/h. A pass walks blocks of whole segments of up to 4096 rows
(_BLOCK), laid out in slabs: the segments of one half octave of row counts
side by side, each padded with rows of weight zero to the longest. Running
sums of the coefficients, compensated by TwoSum (Ogita, Rump & Oishi, SIAM
J. Sci. Comput. 26, 2005), start at each segment's own first row, so a
window is at most five segment pieces, each evaluated at its own s by
Horner's rule, one loop over the powers for every polynomial at once.
A bandwidth block's running bandwidths go first, a running pass each, then
one flat-pass call for all their fold rows, which are subtracted, and one
bounded solve. A point goes back to the flat pass when its count of
nonzero-weight rows is below p + 1 (none for an average window of fewer
than c (p + 1 + d) members, d rows left out), or when a first-order bound on
the rounding of its A and b leaves its rcond decision open or beta_0
undetermined to 1e-12 of |beta_0| + max |y|. A piece's bound takes the
absolute terms from its segment's first row to its last, so the terms of a
row with a member far from its mates, up to |v|^2p, reach only the pieces
that sum past it in its segment. A bandwidth takes the running sums when its
flat pass would build more than 28 member rows per row and point plus
43,000 (a pool row of largest size c counting c, the gate keeping one row of
a pool of c consecutive members). That line lies near where CV passes timed
on both paths cross (CHANGES.md): a running pass costs about 1.2-1.7 ms at
n = 600 and 2.9-3.7 ms at n = 3000 whatever h, a flat pass about 20-40 ns
per member row.

Every solve happens in the bandwidth-scaled basis ((X - x)/h)^ell and the
coefficients are rescaled afterwards, which keeps the normal matrix well
conditioned for small h. A point fails when its normal sums are not finite,
when its weights sum below the smallest normal number (where a product of
Gaussian weights keeps only a few digits), or when rcond, the ratio of the
smallest to the largest singular value of the h-scaled normal matrix, is
below 1e-12 (_RCOND_MIN, which the theory layer applies to its moment
matrices too). Failures are
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
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteValue, NonPositiveBandwidth, SingularLocalSystem, UserInputError
from .data import IndividualDataset, PooledDataset
from .kernels import _COMPACT_FAMILY, KernelKind, kernel_eval

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
        if not math.isfinite(self.h):
            raise NonFiniteValue(f"bandwidth must be finite, got {self.h}")


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


# a local system fails below this rcond, or when its weights sum below
# the smallest normal number; see the module docstring
_RCOND_MIN, _NORMAL_MIN = 1e-12, np.finfo(float).tiny

# when a call takes the running sums; see the module docstring
_RUNNING_MIN, _RUNNING_BASE = 28, 43000

# pairs per chunk of the flat pass: its arrays stay in cache and below
# malloc's mmap threshold (see CHANGES.md)
_PAIRS = 1 << 13

# local systems per block of a batch of bandwidths; the block arrays stay
# small next to a flat pass's chunks (see CHANGES.md)
_SYSTEMS = 1 << 11

# rows per block of whole segments, and points per chunk of pieces, of a running pass
_BLOCK = 1 << 12

# cap on the Jacobi sweeps of one solve; q <= 6 settles in far fewer
_SWEEPS = 30


# One estimator's rows, as both summation paths read them. Row r is a pool:
# members cov[:, r] (NaN padded if padded), size sizes[r], response resp[r].
# A window [L, R) of x_sorted holds rows key_rank[L] .. key_rank[R] - 1 (key
# member in it), from lead_rank[L] on with every member in it; the flat pass
# keeps those with (gate[0][r] >= L) == gate[1], if gated. place maps a
# record (unit rows) or pool to its rows, -1 padded. A window costs the flat
# pass c member rows per group touched; repeats is c where a pool is a row
# at each member (average rows), else 0.
_Rows = namedtuple("_Rows", "x_sorted cov sizes resp product padded key key_rank lead_rank gate "
                            "place group repeats running")


def _row_table(
    estimator: Estimator, data: IndividualDataset | PooledDataset, kernel: KernelKind
) -> _Rows:
    """The rows of the estimator on data, its covariates sorted stably."""
    if estimator is Estimator.INDIVIDUAL:
        if not isinstance(data, IndividualDataset):
            raise UserInputError("the individual estimator needs unpooled (x, y) data")
        x, resp = data.x, data.y
    elif not isinstance(data, PooledDataset):
        raise UserInputError(f"the {estimator.value} estimator needs pooled data")
    elif estimator is Estimator.MARGINAL:
        x, resp = data.x_flat, build_pseudo_data(data).r_flat
    else:
        x, resp = data.x_flat, data.z
    order = np.argsort(x, kind="stable")
    n, product = x.size, estimator is Estimator.PRODUCT
    unit, edges = np.arange(n), np.arange(n + 1)
    position = np.empty(n, dtype=np.intp)
    position[order] = unit
    if estimator in (Estimator.AVERAGE, Estimator.PRODUCT):
        table, sizes, pool_of = data.member_table, data.sizes, data.member_pool_index
    else:
        table, sizes, pool_of = unit[:, None], np.ones(n, dtype=np.int64), unit
    c = table.shape[1]
    # each pool's sorted member positions, ascending, -1 padded first
    ranks = np.sort(np.where(table >= 0, position[table], -1), axis=1)
    first, last = ranks[np.arange(table.shape[0]), c - sizes], ranks[:, -1]
    # every pool of c consecutive sorted members (homogeneous pooling)
    chunked = bool((sizes == c).all() and (last - first + 1 == c).all())
    if product:
        # the pools by last member; a window's have last and first in [L, R)
        space = np.argsort(last, kind="stable")
        key, lead, group = last[space], first[space], np.arange(space.size)
        # lead ascends where the running sums apply
        key_rank, lead_rank = np.searchsorted(key, edges), np.searchsorted(lead, edges)
        gate, place, repeats = (lead, True), np.argsort(space)[:, None], 0
    else:
        # a row at every sorted member, holding its pool: the running sums
        # weigh each member, the flat pass keeps each pool with a member in
        # [L, R) once, at the member whose predecessor lies before L
        space, before = pool_of[order], np.full(n, -1)
        later = ranks[:, 1:] >= 0
        before[ranks[:, 1:][later]] = ranks[:, :-1][later]
        key, key_rank, lead_rank = unit, edges, edges
        gate, place = ((before, False) if c > 1 else None), ranks
        # the gate keeps one row of a pool of c consecutive members, and a
        # window may hold fewer pools than rows
        group = unit // c if chunked and c > 1 else unit
        repeats = c if c > 1 else 0
    members = table[space].T
    # product rows need pools of c consecutive sorted members (a window's
    # pools are then a contiguous range, every row of one scale) and a weight
    # of degree 2 m c <= 8, beyond which the bound leaves most points open
    _, a, m = _COMPACT_FAMILY.get(kernel, (None, None, None))
    running = a == 2 and (not product or (m * c <= 4 and chunked))
    return _Rows(x_sorted=x[order], cov=np.where(members >= 0, x[members], np.nan),
                 sizes=sizes[space].astype(float), resp=resp[space], product=product,
                 padded=bool((sizes < c).any()), key=key, key_rank=key_rank,
                 lead_rank=lead_rank, gate=gate, place=place, group=group, repeats=repeats,
                 running=running)


def _pool_design(
    members: np.ndarray, sizes: np.ndarray | None, grid: np.ndarray, h, cfg: FitConfig,
    product: bool,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Pool rows: member averages of the unit rows t^1..t^p of t = (X - x)/h over the first axis.

    members holds one slab of member covariates per slot of the member
    table, and grid and h broadcast to its shape; t takes over its memory.
    The weight is the average of the member weights K_h(X - x), or their
    product. sizes holds the pool sizes of a table padded with NaN (which
    adds 0 to an average, 1 to a product), None when every pool fills every
    slot. A pool of one is its unit row.
    """
    pad = None if sizes is None else np.isnan(members)
    t = np.subtract(members, grid, out=members)
    t /= h
    k = kernel_eval(cfg.kernel, t)
    k /= h
    if pad is not None:
        np.copyto(k, 1.0 if product else 0.0, where=pad)
        np.copyto(t, 0.0, where=pad)
    c = len(t)

    def mean(slabs):
        return slabs[0] if c == 1 else sum(slabs) / (c if sizes is None else sizes)

    w = math.prod(k) if product else mean(k)
    del k
    powers, power = [], t
    for ell in range(cfg.p):
        if ell:
            power = power * t
        powers.append(mean(power))
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
    rows: _Rows, cfg: FitConfig, grid: np.ndarray, h: np.ndarray, lo: np.ndarray,
    hi: np.ndarray, bound: np.ndarray | None = None, drop: np.ndarray | None = None,
) -> np.ndarray:
    """[A | b] at every point grid[i] and bandwidth h[i] over its rows lo[i]..hi[i] - 1.

    With bound, the rows' gate (key, above) keeps the pair of point i and
    row k only where (key[k] >= bound[i]) == above. A fold leaves out the
    pairs of the rows drop[i] (-1 padded), so a fold fit sums what a fit
    without those rows sums. Chunks of about _PAIRS pairs bound the memory
    however wide the windows.
    """
    q = cfg.p + 1
    Ab = np.zeros((q, q + 1, grid.size))
    width = hi - lo
    before = np.cumsum(width) - width
    starts = np.flatnonzero(np.diff(before // _PAIRS, prepend=-1))
    step = np.arange(_PAIRS + width.max(initial=0))
    for a, b in zip(starts, np.r_[starts[1:], grid.size]):
        span = before[a:b] - before[a]  # each point's first pair in the chunk
        k = np.repeat(lo[a:b] - span, width[a:b])
        k += step[:k.size]
        kept = np.ones(k.size, dtype=bool) if bound is None or rows.gate is None else (
            (rows.gate[0][k] >= np.repeat(bound[a:b], width[a:b])) == rows.gate[1])
        if drop is not None:
            hit = drop[a:b]
            inside = (hit >= lo[a:b, None]) & (hit < hi[a:b, None])
            kept[(hit + (span - lo[a:b])[:, None])[inside]] = False
        keep = np.flatnonzero(kept)
        k, span = k[keep], np.searchsorted(keep, span)
        count = np.r_[span[1:], keep.size] - span
        del kept, keep
        at, some = np.repeat(grid[a:b], count), np.flatnonzero(count)
        # a chunk of one bandwidth divides by a number, with no per-pair array
        scale = h[a] if (h[a:b] == h[a]).all() else np.repeat(h[a:b], count)
        members, sizes = np.take(rows.cov, k, axis=1), rows.sizes[k] if rows.padded else None
        powers, w = _pool_design(members, sizes, at, scale, cfg, rows.product)
        Ab[..., a + some] = _normal_sums(powers, w, rows.resp[k], span[some])
    return Ab


def _window_bounds(
    xs: np.ndarray, points: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per point and bandwidth the sorted rows [L, R) of nonzero weight, |fl(fl(X - x)/h)| < 1.

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
        t = (xs[rows] - points[owner]) / h[owner]
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
    rows: _Rows, h: float, cfg: FitConfig, points: np.ndarray, L: np.ndarray, R: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """[A | b] at every point from running sums at bandwidth h, and a bound on its rounding error.

    Row r weighs the kernel at its key covariate xs[r] over its pool size,
    or for product rows (equal pools, no padding) the product of its
    members' kernels. The points ascend, and so does L over the nonempty
    windows [L, R) of rows; an empty window gets zero sums. Blocks, slabs
    and pieces are those of the module docstring.
    """
    xs, product = rows.x_sorted[rows.key], rows.product
    const, _, m = _COMPACT_FAMILY[cfg.kernel]
    q, n, size_p = cfg.p + 1, xs.size, points.size
    seg = np.floor((xs - xs[0]) / (0.5 * h))
    new = np.r_[True, seg[1:] != seg[:-1]]
    start = np.flatnonzero(new)
    end = np.r_[start[1:], n]
    gid = np.cumsum(new) - 1
    anchor = xs[0] + (seg[start] + 0.5) * (0.5 * h)
    c = rows.cov.shape[0] if product else 1
    # first-order rounding per absolute term: u, v and s, the row
    # polynomials and pool means, the running sums, the pieces and Horner.
    # A compensated sum over m rows adds (m eps)^2 per absolute term, below
    # eps while a segment holds fewer than 1 / sqrt(eps), 6.7e7, rows
    eps = np.finfo(float).eps
    kappa = (16 * (m * c + q) + 2 * rows.cov.shape[0] + 8) * eps
    # the polynomials by descending degree, held power-major from the top
    # power down: the rows of s^r hold the first npoly[r] polynomials, those
    # of degree >= r, so that one Horner loop serves every degree
    degree = {(i, j): 2 * m * c + i + (j < q) * j for i in range(q) for j in range(i, q + 1)}
    pairs = sorted(degree, key=degree.get, reverse=True)
    npoly = np.array([sum(d >= r for d in degree.values()) for r in range(degree[pairs[0]] + 1)])
    F = int(npoly.sum())
    slot = [F - np.cumsum(npoly[:degree[ij] + 1]) + k for k, ij in enumerate(pairs)]

    def row_polys(k, u, v, resp, size, sign, out):
        # each row's terms of [A | b] as polynomials in s, b taking D_q =
        # resp; a column of sign 1 and |u|, |v|, |resp| sums absolute values.
        # The weight k has a factor (1 - (s + v)^2)^m per member if product
        for a in (v if product else [u]):
            for _ in range(m):
                k = _poly_mul(k, np.stack([1.0 + sign * a * a, 2.0 * sign * a, sign]))
        nu = [np.ones(u.size)] + [(v**ell).sum(axis=0) / size for ell in range(1, q)]
        D = [np.stack([math.comb(ell, g) * nu[ell - g] for g in range(ell + 1)])
             for ell in range(q)] + [resp[None]]
        kD = [_poly_mul(k, d) for d in D[:q]]
        for k, (i, j) in enumerate(pairs):
            out[slot[k]] = _poly_mul(kD[i], D[j])

    def scan(terms, out, slabs):
        # running sums within every slot, a slab of slots of width w at a time
        for cols, w in slabs:
            np.cumsum(terms[..., cols].reshape(*terms.shape[:-1], -1, w), axis=-1,
                      out=out[..., cols].reshape(*out.shape[:-1], -1, w))

    def both(a):
        return np.concatenate([a, np.abs(a)], axis=-1)

    sums = np.zeros((2, len(pairs), size_p))
    # each window's first and last segment, g_lo made to ascend over the
    # empty windows too
    g_lo = np.maximum.accumulate(gid[np.minimum(L, n - 1)])
    g_hi = np.where(R > L, gid[R - 1], -1)
    pieces = int((g_hi - g_lo).max(initial=0)) + 1
    def add_block(b0, b1):
        """Add to sums every window piece in the segments b0 .. b1 - 1."""
        # the slabs by half octave of rows; segment b0 + i takes the columns
        # base[i] .. base[i] + width[i] - 1
        count = end[b0:b1] - start[b0:b1]
        band = np.floor(2.0 * np.log2(count))
        order = np.argsort(band, kind="stable")
        cuts = np.flatnonzero(np.diff(band[order], prepend=-1.0, append=np.inf))
        slab = np.maximum.reduceat(count[order], cuts[:-1])
        width = np.repeat(slab, np.diff(cuts))
        base = np.empty_like(count)
        base[order] = np.cumsum(width) - width
        total = int(width.sum())
        slabs = [(slice(base[order[i]], base[order[i]] + (i1 - i) * w), w)
                 for i, i1, w in zip(cuts[:-1], cuts[1:], slab)]
        # per column its segment and row, the padding at weight zero
        g = b0 + np.repeat(order, width)
        offset = np.arange(total) - base[g - b0]
        row_of = start[g] + np.minimum(offset, count[g - b0] - 1)
        u = (xs[row_of] - anchor[g]) / h
        v = np.nan_to_num((np.take(rows.cov, row_of, axis=1) - anchor[g]) / h, copy=False)
        # a pool wider than 3h is in no window; its product row is zero,
        # which keeps its large terms out of the running sums
        k = np.where(offset < count[g - b0],
                     v.min(axis=0) >= u - 3.0 if product else 1.0 / rows.sizes[row_of], 0.0)[None]
        resp, size = rows.resp[row_of], rows.sizes[row_of]
        # one buffer per block (separate ones went back to the system after
        # every pass and faulted in anew): the signed and the absolute running
        # sums, column total zero, then the signed and the absolute terms side
        # by side, whose space the pieces of up to _BLOCK points take over
        cut = 2 * F * (total + 1)
        buf = np.empty(cut + max(2 * F * total, 3 * F * min(size_p, _BLOCK)))
        run, spare = buf[:cut].reshape(2 * F, total + 1), buf[cut:]
        run[:, total] = 0.0
        terms = spare[:2 * F * total].reshape(F, 2 * total)
        row_polys(np.tile(k, 2), both(u), both(v), both(resp), np.tile(size, 2),
                  np.repeat([-1.0, 1.0], total), terms)
        scan(terms.reshape(F, 2, total).transpose(1, 0, 2),
             run.reshape(2, F, total + 1)[..., :total], slabs)
        # the absolute terms, summed, turn into scratch
        signed, terms, scratch = run[:F, :total], terms[:, :total], terms[:, total:]
        # the terms turn into the TwoSum rounding of each signed step
        # s_i = s_(i-1) + x_i, (x_i - d) + (s_(i-1) - (s_i - d)) with
        # d = s_i - s_(i-1), whose running sums are added back
        step = np.subtract(signed[:, 1:], signed[:, :-1], out=scratch[:, 1:])
        terms[:, 1:] -= step
        terms[:, 1:] += np.subtract(signed[:, :-1], np.subtract(signed[:, 1:], step, out=step),
                                    out=step)
        terms[:, base] = 0.0
        scan(terms, scratch, slabs)
        signed += scratch
        shift = base - start[b0:b1]
        for j in range(pieces):
            # the points whose window's j-th piece lies in this block
            begin, stop = np.searchsorted(g_lo, [b0 - j, b1 - j])
            for a in range(begin, stop, _BLOCK):
                b = min(a + _BLOCK, stop)
                g = g_lo[a:b] + j
                used = g <= g_hi[a:b]
                # the piece's compensated sums; the absolute terms from its
                # segment's first row to its last, at |s|, bound their rounding
                col = shift[g - b0]
                hi = np.where(used, col + np.minimum(R[a:b], end[g]) - 1, total)
                piece = spare[:2 * F * (b - a)].reshape(2 * F, b - a)
                np.take(run, hi, axis=1, out=piece, mode="clip")
                if j == 0:  # only a window's first piece starts inside its segment
                    lo = np.where(used & (L[a:b] > start[g]), col + L[a:b] - 1, total)
                    piece[:F] -= np.take(run[:F], lo, axis=1, mode="clip",
                                         out=spare[2 * F * (b - a):3 * F * (b - a)].reshape(F, -1))
                s = (anchor[g] - points[a:b]) / h
                at, coef = both(s).reshape(2, 1, b - a), piece.reshape(2, F, b - a)
                value = np.zeros((2, len(pairs), b - a))
                row = live = 0
                for held in npoly[::-1]:  # Horner's rule, from the top power down
                    value[:, :live] *= at
                    value[:, :held] += coef[:, row:row + held]
                    row, live = row + held, held
                sums[:, :, a:b] += value

    b0 = 0
    while b0 < start.size:
        b1 = max(b0 + 1, int(np.searchsorted(end, start[b0] + _BLOCK, "right")))
        add_block(b0, b1)
        b0 = b1
    scale = float(const / h) ** c
    out = np.empty((2, q, q + 1, size_p))
    for k, (i, j) in enumerate(pairs):
        out[:, i, j] = sums[:, k] * [[scale], [kappa * scale]]
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
    Ab: np.ndarray, scale: np.ndarray, bounds: tuple | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve each h-scaled [A | b]: coefficients on the original scale, failures, open points.

    Ab holds one plane per entry, (q, q + 1, points), and scale the h^ell
    that bring beta_ell back to the original scale, (q, points) or (q, 1);
    beta comes back as (points, q). _jacobi gives the singular values |lam|, beta and the first
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
        # a subnormal lam has no finite reciprocal; divide by it instead
        coef = (V * b[:, None]).sum(axis=0)
        beta = (V * np.where(np.isinf(inv), coef / lam, coef * inv)).sum(axis=1)
        if bounds:
            E, ymax = bounds
            # the first row of A^-1, A being symmetric
            row = np.abs((V * (V[0] * inv)).sum(axis=1))
            drift = (row * (E[:, -1] + (E[:, :-1] * np.abs(beta)).sum(axis=1))).sum(axis=0)
            near = e / s_min
            tol = 1e-12 * (1.0 - near) * (np.abs(beta[0]) + ymax)
            left_open[passes] = ((near > 0.5) | ~(drift <= tol))[passes]
    beta /= scale
    return beta.T, ~passes, left_open


def _local_fits(estimator, data, cfg, points, drop=None):
    """_batch_fits at the one bandwidth cfg.h: coefficients per point, and which failed."""
    return next(_batch_fits(estimator, data, cfg, [cfg.h], points, drop))


def _batch_fits(
    estimator: Estimator,
    data: IndividualDataset | PooledDataset,
    cfg: FitConfig,
    hs,
    points: np.ndarray,
    drop: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per bandwidth in hs, in turn: coefficients at every evaluation point, and which failed.

    cfg gives the order and the kernel; its h is not read. drop, when given,
    holds per evaluation point the indices of the rows left out of that
    point's fit, padded with -1: records for the individual and marginal
    estimators, pools for the other two. Those rows stay out of that point's
    normal sums. One row per point gives leave-one-out and
    leave-one-pool-out folds, a pool's member rows give the whole-pool drop.
    Every call sorts, builds its rows and allocates its scratch afresh.
    """
    rows = _row_table(estimator, data, cfg.kernel)
    # the points in ascending order; a point that is not finite gets an
    # empty window
    point_order = np.argsort(points, kind="stable")
    x_sorted, grid = rows.x_sorted, points[point_order]
    n, q, eps, size = x_sorted.size, cfg.p + 1, np.finfo(float).eps, points.size
    c, folded = rows.cov.shape[0], 0 if drop is None else drop.shape[1]
    finite = np.isfinite(grid)
    grid = np.where(finite, grid, 0.0)
    if drop is not None:
        # per sorted point the places of its fold's rows, and for the running
        # sums one place per dropped row
        flat_drop = np.where(drop[point_order, :, None] >= 0, rows.place[drop[point_order]], -1
                             ).reshape(size, folded * rows.place.shape[1])
        left_out = np.where(drop >= 0, rows.place[drop, -1], -1)[point_order]

    hs = np.asarray(hs, dtype=float)
    # h ** ell one h at a time, as a one-h call rounds it (an array power may not)
    scale = np.array([h ** np.arange(q) for h in hs]).T
    ymax = np.abs(rows.resp).max()
    per = max(1, _SYSTEMS // max(size, 1))
    for c0 in range(0, hs.size, per):
        # a block of bandwidths: system k * size + i is sorted point i at
        # the block's k-th bandwidth
        block = hs[c0:c0 + per]
        L, R = (_window_bounds(x_sorted, np.tile(grid, block.size), np.repeat(block, size))
                if cfg.kernel.compact else (np.zeros(block.size * size, dtype=np.intp),
                                            np.full(block.size * size, n)))
        empty = ~np.tile(finite, block.size)
        L[empty] = R[empty] = 0
        lo, hi = rows.key_rank[L], rows.key_rank[R]
        beta, failed = np.empty((L.size, q)), np.empty(L.size, dtype=bool)
        # flat member rows per bandwidth: c per group of rows a window touches
        touched = np.where(hi > lo, rows.group[hi - 1] - np.take(rows.group, lo, mode="clip") + 1,
                           0).reshape(block.size, size).sum(axis=1)
        sums = rows.running & (touched * c > _RUNNING_MIN * (n + size) + _RUNNING_BASE)
        # the systems of the running bandwidths, and of the flat ones
        run, todo = np.flatnonzero(np.repeat(sums, size)), np.flatnonzero(~np.repeat(sums, size))
        if run.size:
            point, k, stop = run % size, run // size, hi[run]
            start = np.minimum(rows.lead_rank[L[run]], stop)
            Ab, E = np.concatenate([_running_sums(rows, h, cfg, grid, a, b) for h, a, b in zip(
                block[sums], start.reshape(-1, size), stop.reshape(-1, size))], axis=-1)
            # rows of nonzero weight; where pools repeat at their members, a
            # window of fewer than c (q + d) members may hold fewer than
            # q + d pools and is refit
            count = stop - start
            count[R[run] - L[run] < rows.repeats * (q + folded)] = 0
            if drop is not None:
                # the fold's rows of every running system, one pair each, subtracted
                out = left_out[point].ravel()
                fold = _pair_sums(rows, cfg, np.repeat(grid[point], folded),
                                  np.repeat(block[k], folded), out, out + (out >= 0)
                                  ).reshape(q, q + 1, run.size, folded)
                count -= (fold[0, 0] > 0).sum(axis=-1)
                fold = fold.sum(axis=-1)
                Ab -= fold
                E += 2.0 * eps * np.abs(fold)
            beta[run], failed[run], redo = _solve(Ab, scale[:, c0 + k], (E, ymax))
            del Ab, E
            # the points the running sums left open join the flat pass
            todo = np.r_[todo, run[redo | (count < q)]]
        if todo.size:
            point, k = todo % size, todo // size
            Ab = _pair_sums(rows, cfg, grid[point], block[k], lo[todo], hi[todo], L[todo],
                            None if drop is None else flat_drop[point])
            # weights summing below the normal range keep too few digits
            Ab[..., Ab[0, 0] < _NORMAL_MIN] = np.nan
            beta[todo], failed[todo] = _solve(Ab, scale[:, c0 + k])[:2]
        for beta_k, failed_k in zip(beta.reshape(block.size, size, q),
                                    failed.reshape(block.size, size)):
            b, f = np.empty_like(beta_k), np.empty_like(failed_k)
            b[point_order], f[point_order] = beta_k, failed_k
            yield b, f


def _fit_point(
    estimator: Estimator, data: IndividualDataset | PooledDataset, cfg: FitConfig, x: float
) -> LocalFit:
    beta, failed = _local_fits(estimator, data, cfg, np.array([x], dtype=float))
    if failed[0]:
        raise SingularLocalSystem(
            f"local system at x={x:g} is empty, underflowed, overflowed or singular "
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
) -> CurveEstimate:
    """Fitted values over a grid; points that cannot be fit are flagged.

    A failure at one point (singular or overflowed local system) never
    aborts the rest of the curve. Failed entries hold NaN and are marked in
    the failed mask.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise UserInputError("the evaluation grid must be a nonempty 1-d sequence")
    beta, failed = _local_fits(estimator, data, cfg, grid)
    return CurveEstimate(
        grid=grid, values=beta[:, 0], failed=failed, estimator=estimator, config=cfg
    )
