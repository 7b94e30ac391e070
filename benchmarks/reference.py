"""Reference computations made apart from the program under test.

Nothing here imports ``poolreg``. Mean functions, the covariate law, the
Epanechnikov kernel, the local fits, the cross-validation criteria and the
individual theory rows are written out again from their definitions:

* a local fit at x solves the weighted least squares problem
  min_beta sum_r w_r (resp_r - row_r . beta)^2 with ``numpy.linalg.lstsq``
  on explicitly built rows, in the scaled basis ((X - x) / h)^ell, and
  returns beta_0;
* the pool criterion leaves each pool out, refits without it and predicts
  at its member covariates; the pseudo criterion leaves each pseudo point
  out and refits without it;
* the individual theory row for p = 1 is a leading bias of
  h^2 m''(x) mu_2(K) / 2 with m'' from finite differences, and a variance
  of sigma^2 R(K) / (n h f(x)).
"""

from __future__ import annotations

import math

import numpy as np

# -- data-generating processes ------------------------------------------------


def mean_d1(x):
    x = np.asarray(x, dtype=float)
    return x**3 * np.exp(x**4 / 1000.0) * np.cos(x)


def mean_d2(x):
    x = np.asarray(x, dtype=float)
    return 2.0 * x * np.exp(-10.0 * x**4 / 81.0)


MEANS = {"d1": mean_d1, "d2": mean_d2}
SIGMAS = {"d1": 0.6, "d2": 0.2}


def sample_mixture(rng: np.random.Generator, n: int) -> np.ndarray:
    """Covariate law of d1 and d2: 0.8 x density 3s^2/16 on [-2, 2] + 0.2 x U(-1, 1).

    Draw order (membership mask, then one uniform per record) follows the
    program's documented seeding contract.
    """
    mask = rng.random(n) < 0.8
    u = rng.random(n)
    return np.where(mask, np.cbrt(16.0 * u - 8.0), 2.0 * u - 1.0)


def mixture_density(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return 0.15 * x * x * (np.abs(x) <= 2.0) + 0.1 * (np.abs(x) <= 1.0)


def mixture_cdf(x: float) -> float:
    x = min(max(float(x), -2.0), 2.0)
    return 0.8 * (x**3 + 8.0) / 16.0 + 0.2 * min(max((x + 1.0) / 2.0, 0.0), 1.0)


def mixture_quantile(q: float) -> float:
    lo, hi = -2.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mixture_cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def central_95() -> tuple[float, float]:
    """Central 95 percent of the covariate law, where rmse_true is taken."""
    return mixture_quantile(0.025), mixture_quantile(0.975)


def sample_individual(dgp: str, rng: np.random.Generator, n: int):
    """Covariates first, then one noise vector, as the program documents."""
    x = sample_mixture(rng, n)
    y = MEANS[dgp](x) + rng.standard_normal(n) * SIGMAS[dgp]
    return x, y


def pool_in_order(x, y, order, c):
    """Chunk records taken in the given order into consecutive pools of c."""
    n = x.size
    sizes = np.full(n // c, c, dtype=np.int64)
    if n % c:
        sizes = np.append(sizes, n % c)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    x_flat = x[order]
    z = np.add.reduceat(y[order], starts) / sizes
    return z, sizes, x_flat


# -- kernel ------------------------------------------------------------------

EPANECHNIKOV_MU2 = 1.0 / 5.0  # integral of t^2 K(t)
EPANECHNIKOV_R = 3.0 / 5.0  # integral of K(t)^2


def epanechnikov(t):
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= 1.0, 0.75 * (1.0 - t * t), 0.0)


# -- local fits ----------------------------------------------------------------


def wls_intercept(rows: np.ndarray, w: np.ndarray, resp: np.ndarray) -> float:
    """beta_0 of the weighted least squares fit; NaN if the rows lack full rank."""
    keep = w > 0.0
    sw = np.sqrt(w[keep])
    a = rows[keep] * sw[:, None]
    if a.shape[0] < a.shape[1]:
        return math.nan
    beta, _, rank, sv = np.linalg.lstsq(a, resp[keep] * sw, rcond=None)
    if rank < a.shape[1] or sv[-1] < 1e-7 * sv[0]:
        return math.nan
    return float(beta[0])


def unit_fit(x_arr, resp, x0, h, p=1, drop=None):
    """Individual-style fit at x0 (individual and pseudo-response rows)."""
    t = (x_arr - x0) / h
    w = epanechnikov(t) / h
    keep = w > 0.0
    if drop is not None:
        keep[drop] = False
    return wls_intercept(np.vander(t[keep], p + 1, increasing=True), w[keep], resp[keep])


def pool_rows(x_flat, sizes, x0, h, p=1):
    """Average-row design, average weights and product weights at x0."""
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    t = (x_flat - x0) / h
    k = epanechnikov(t) / h
    rows = np.column_stack(
        [np.add.reduceat(t**ell, starts) / sizes for ell in range(p + 1)]
    )
    w_avg = np.add.reduceat(k, starts) / sizes
    w_prod = np.multiply.reduceat(k, starts)
    return rows, w_avg, w_prod


def pool_fit(z, sizes, x_flat, x0, h, weight, p=1, drop=None):
    """Average- or product-weighted pooled fit at x0, optionally without one pool."""
    rows, w_avg, w_prod = pool_rows(x_flat, sizes, x0, h, p)
    w = w_avg if weight == "average" else w_prod
    if drop is not None:
        keep = np.ones(z.size, dtype=bool)
        keep[drop] = False
        rows, w, z = rows[keep], w[keep], z[keep]
    return wls_intercept(rows, w, z)


def pseudo_responses(z, sizes):
    """R_j = c_j Z_j - (c_j - 1) mu_hat with mu_hat the per-unit mean response."""
    mu_hat = float(sizes @ z) / float(sizes.sum())
    return sizes * z - (sizes - 1) * mu_hat


def curve(estimator, data, h, points):
    """Reference fitted values of one estimator at each point."""
    out = np.empty(len(points))
    for i, x0 in enumerate(points):
        if estimator == "individual":
            out[i] = unit_fit(data["x"], data["y"], x0, h)
        elif estimator == "marginal":
            r_flat = np.repeat(pseudo_responses(data["z"], data["sizes"]), data["sizes"])
            out[i] = unit_fit(data["x_flat"], r_flat, x0, h)
        else:
            out[i] = pool_fit(data["z"], data["sizes"], data["x_flat"], x0, h, estimator)
    return out


# -- cross-validation criteria, brute force -----------------------------------


def trim_bounds(x_flat) -> tuple[float, float]:
    lo, hi = np.quantile(np.asarray(x_flat, dtype=float), [0.025, 0.975])
    return float(lo), float(hi)


def pool_criterion(z, sizes, x_flat, h, weight="average"):
    """Leave-one-pool-out criterion: sum_j c_j (Z_j - mean prediction at members)^2.

    Only member covariates inside the central 95 percent of the sample are
    predicted; a pool with none of them is skipped.
    """
    lo, hi = trim_bounds(x_flat)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    total = 0.0
    for j, (s, c) in enumerate(zip(starts, sizes)):
        members = x_flat[s:s + c]
        members = members[(members >= lo) & (members <= hi)]
        if members.size == 0:
            continue
        preds = [pool_fit(z, sizes, x_flat, xm, h, weight, drop=j) for xm in members]
        resid = z[j] - float(np.mean(preds))
        total += c * resid * resid
    return total


def pseudo_criterion(z, sizes, x_flat, h):
    """Leave-one-pseudo-point-out criterion over in-bounds member covariates."""
    lo, hi = trim_bounds(x_flat)
    r_flat = np.repeat(pseudo_responses(z, sizes), sizes)
    total = 0.0
    for i in np.flatnonzero((x_flat >= lo) & (x_flat <= hi)):
        resid = r_flat[i] - unit_fit(x_flat, r_flat, x_flat[i], h, drop=i)
        total += resid * resid
    return total


# -- theory rows ---------------------------------------------------------------


def second_derivative(fun, x: float, step: float = 1e-2) -> float:
    """m''(x) by a central difference with one Richardson step (error O(step^4))."""
    def central(d):
        return (float(fun(x + d)) - 2.0 * float(fun(x)) + float(fun(x - d))) / (d * d)

    return (4.0 * central(step / 2.0) - central(step)) / 3.0


def individual_theory_row(dgp: str, x: float, h: float, n: int) -> tuple[float, float]:
    """(leading bias, variance) of the p = 1 Epanechnikov individual fit at x."""
    bias = 0.5 * h * h * second_derivative(MEANS[dgp], x) * EPANECHNIKOV_MU2
    variance = SIGMAS[dgp] ** 2 * EPANECHNIKOV_R / (n * h * float(mixture_density(x)))
    return bias, variance
