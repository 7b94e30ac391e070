"""Asymptotic bias and variance summaries for the pooled-data estimators.

This module evaluates the dominating terms of each estimator's error
expansion, given a data-generating context (mean function, covariate
density, noise variance). The results serve as analytic oracles for Monte
Carlo tests and as the backing of the CLI theory report.

Conventions shared with the estimator module: beta_ell denotes
m^(ell)(x)/ell!, f is the covariate density, and kernel moments mu_ell
(plain) and nu_ell (squared kernel) come in closed form from the kernels
module, for every kernel and order. Pooled powers of a kernel (for the
product-weighted estimator on homogeneous data) replace every moment by
its K^c counterpart. One local expansion gives the product-weighted bias
under random pools of size c and, at c = 1, the bias of every summary of
individual-data form below.

What is reported per estimator:

  * average weighted, random pooling: the full dominating-bias expansion,
    including the bandwidth-free persistent term that makes the estimator
    inconsistent whenever some pool has more than one member; variance is
    known only up to order, so it is reported as an order tag.
  * product weighted, random pooling (equal pool sizes): leading bias and
    its first correction; variance is an order tag in which the bandwidth
    enters with power equal to the pool size.
  * marginal integration, random pooling: bias identical to the
    individual-data estimator (the theory gives the same expansion);
    variance carries the pooling inflation term driven by the average
    noise variance.
  * average and product weighted, homogeneous pooling: bias and variance
    of individual-data form, with plain or pooled-power kernel moments
    respectively; only compact kernels are accepted because the pooled
    power of a non-compact kernel is not a usable kernel here.

The variance sandwich is evaluated in its symmetric form
(inverse, middle, inverse); one displayed equation omits the second
inverse, which is inconsistent with the classical special case it cites
and with the derivation, so the symmetric form is used and the
discrepancy is noted in the summary rather than silently absorbed.

Expectations over the covariate law use QUADPACK's adaptive G7-K15 rule
(Piessens et al. 1983), written out here; see TheoryContext.expect.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Design
from .errors import (
    DivergentMoment,
    SingularMomentMatrix,
    UnsupportedKernel,
    UserInputError,
)
from .estimators import _RCOND_MIN, Estimator
from .kernels import KernelKind, compute_moments

__all__ = [
    "TheoryContext",
    "AsymptoticSummary",
    "average_random_summary",
    "product_random_bias",
    "marginal_random_summary",
    "individual_summary",
    "homogeneous_summary",
]


# 4th-order central difference stencils, orders 1 to 4, with a relative
# step per order: subtractive cancellation grows like eps / step^order, so
# the step must widen as the order rises or the quotient drowns in roundoff
_FD_STENCILS = {
    1: ((-2, -1, 1, 2), (1.0, -8.0, 8.0, -1.0), 12.0, 1e-4),
    2: ((-2, -1, 0, 1, 2), (-1.0, 16.0, -30.0, 16.0, -1.0), 12.0, 1e-4),
    3: ((-3, -2, -1, 1, 2, 3), (1.0, -8.0, 13.0, -13.0, 8.0, -1.0), 8.0, 5e-3),
    4: ((-3, -2, -1, 0, 1, 2, 3), (-1.0, 12.0, -39.0, 56.0, -39.0, 12.0, -1.0), 6.0, 1e-2),
}


# G7-K15 on [-1, 1] (QUADPACK qk15): Kronrod nodes from 1 down to 0, their
# weights, and the Gauss weights at the same nodes (0 where only K15 uses one)
_XK = (0.99145537112081263921, 0.94910791234275852453, 0.86486442335976907279,
       0.74153118559939443986, 0.58608723546769113029, 0.40584515137739716691,
       0.20778495500789846760, 0.0)
_WK = (0.022935322010529224964, 0.063092092629978553291, 0.10479001032225018384,
       0.14065325971552591875, 0.16900472663926790283, 0.19035057806478540991,
       0.20443294007529889241, 0.20948214108472782801)
_WG = (0.0, 0.12948496616886969327, 0.0, 0.27970539148927666790,
       0.0, 0.38183005050511894495, 0.0, 0.41795918367346938776)
_NODES = tuple(-u for u in _XK[:-1]) + _XK[::-1]
_KRONROD = _WK[:-1] + _WK[::-1]
_GAUSS = _WG[:-1] + _WG[::-1]
_EPS = float(np.finfo(float).eps)


def _kronrod15(g: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """K15 integral of g over [lo, hi] and QUADPACK's estimate of its error."""
    half = 0.5 * (hi - lo)
    mid = lo + half
    fs = [float(g(mid + half * u)) for u in _NODES]
    if not all(map(math.isfinite, fs)):
        raise DivergentMoment("the integrand is not finite on this support")
    kron = math.fsum(w * f for w, f in zip(_KRONROD, fs))
    gauss = math.fsum(w * f for w, f in zip(_GAUSS, fs))
    spread = half * math.fsum(w * abs(f - 0.5 * kron) for w, f in zip(_KRONROD, fs))
    size = half * math.fsum(w * abs(f) for w, f in zip(_KRONROD, fs))
    err = abs(half * (kron - gauss))
    if spread and err:
        # |K - G| is the error of G7; K15 on a smooth integrand does far better
        err = spread * min(1.0, (200.0 * err / spread) ** 1.5)
    return half * kron, max(err, 50.0 * _EPS * size)


def _integrate(integrand, support, breakpoints, tol) -> tuple[float, float]:
    """Integral over support and its error, above tol only if the bisection
    stopped at 400 intervals or at one too narrow to split; see expect."""
    a, b = support
    cuts = [a, *sorted(c for c in breakpoints if a < c < b), b]
    if len(cuts) == 2 and math.isinf(a) and math.isinf(b):
        cuts.insert(1, 0.0)
    order = itertools.count()
    heap = []
    for lo, hi in zip(cuts, cuts[1:]):
        g = integrand
        if math.isinf(lo) or math.isinf(hi):
            # s = c + sign t / (1 - t) takes t in [0, 1) onto the tail from c
            c, sign = (lo, 1.0) if math.isinf(hi) else (hi, -1.0)
            g = lambda t, c=c, sign=sign: integrand(c + sign * t / (1.0 - t)) / (1.0 - t) ** 2
            lo, hi = 0.0, 1.0
        value, err = _kronrod15(g, lo, hi)
        heap.append((-err, next(order), lo, hi, g, value))
    heapq.heapify(heap)
    while (err := math.fsum(-item[0] for item in heap)) > tol and len(heap) < 400:
        _, _, lo, hi, g, _ = heap[0]
        if hi - lo <= 1e3 * _EPS * max(abs(lo), abs(hi)):
            break  # too narrow to split: the tolerance cannot be met
        mid = 0.5 * (lo + hi)
        (v1, e1), (v2, e2) = _kronrod15(g, lo, mid), _kronrod15(g, mid, hi)
        heapq.heapreplace(heap, (-e1, next(order), lo, mid, g, v1))
        heapq.heappush(heap, (-e2, next(order), mid, hi, g, v2))
    return math.fsum(item[-1] for item in heap), err


def _finite_difference(fun: Callable[[float], float], x: float, order: int) -> float:
    if order == 0:
        return float(fun(x))
    if order not in _FD_STENCILS:
        raise UserInputError(
            "finite differences cover derivative orders 1 to 4; supply a "
            "closed-form derivative callable for higher orders"
        )
    offsets, coeffs, denom, rel_step = _FD_STENCILS[order]
    step = rel_step * max(1.0, abs(x))
    acc = 0.0
    for k, c in zip(offsets, coeffs):
        acc += c * float(fun(x + k * step))
    return acc / (denom * step**order)


@dataclass(frozen=True, eq=False)
class TheoryContext:
    """Everything the asymptotic formulas need about the data-generating law.

    mean and density are scalar callables. Derivative callables take
    (x, order) and are optional; central finite differences (4th-order
    stencils, step 1e-4 times max(1, |x|)) fill in when they are absent.
    sigma2 may be a constant or a callable; sigma2_mean integrates a callable
    over the covariate law each time it is read. breakpoints lists
    interior points where the density is not smooth; the quadrature cuts
    the support there. quad_tol is the absolute error allowed in every
    expectation.
    """

    mean: Callable[[float], float]
    density: Callable[[float], float]
    sigma2: Callable[[float], float] | float
    support: tuple[float, float]
    mean_derivative: Callable[[float, int], float] | None = None
    density_derivative: Callable[[float, int], float] | None = None
    breakpoints: tuple[float, ...] = ()
    quad_tol: float = 1e-9

    def __post_init__(self):
        a, b = self.support
        if not a < b:
            raise UserInputError("support must be an interval (a, b) with a < b")
        mass = self.expect(lambda s: 1.0)
        if abs(mass - 1.0) > 1e-8:
            raise UserInputError(
                f"the density must integrate to 1 over the support; got {mass!r}"
            )

    # -- derivatives ----------------------------------------------------

    def m(self, x: float) -> float:
        return float(self.mean(x))

    def m_deriv(self, x: float, order: int) -> float:
        if order == 0:
            return self.m(x)
        if self.mean_derivative is not None:
            return float(self.mean_derivative(x, order))
        return _finite_difference(self.mean, x, order)

    def beta(self, x: float, ell: int) -> float:
        """Taylor coefficient m^(ell)(x) / ell!."""
        return self.m_deriv(x, ell) / math.factorial(ell)

    def f(self, x: float) -> float:
        return float(self.density(x))

    def f_deriv(self, x: float, order: int) -> float:
        if order == 0:
            return self.f(x)
        if self.density_derivative is not None:
            return float(self.density_derivative(x, order))
        return _finite_difference(self.density, x, order)

    def sigma2_at(self, x: float) -> float:
        if callable(self.sigma2):
            return float(self.sigma2(x))
        return float(self.sigma2)

    # -- expectations over the covariate law -----------------------------

    def expect(self, fun: Callable[[float], float]) -> float:
        """E fun(X), to within quad_tol, by adaptive G7-K15 quadrature.

        The support is cut at its breakpoints (a line with none at 0); each
        infinite tail from a cut c maps to t in [0, 1) by s = c +- t/(1 - t)
        and is integrated on its own, so two divergent tails cannot cancel.
        Each interval gets 15 Kronrod nodes, 7 of them Gauss nodes whose
        rule gives the error estimate, and the interval of largest error is
        bisected until the summed error is at most quad_tol. fun and the
        density are called one scalar at a time in a fixed order. Raises
        DivergentMoment when the value is not finite, when 400 intervals
        (or one too narrow to split) come before the tolerance, or when the
        error exceeds 1e-6 max(1, |value|). There is no extrapolation, so an
        integrable singularity of the density at a cut other than 0 raises.
        """
        integrand = lambda s: float(fun(s)) * float(self.density(s))
        value, err = _integrate(integrand, self.support, self.breakpoints, self.quad_tol)
        bound = min(self.quad_tol, 1e-6 * max(1.0, abs(value)))
        if not (math.isfinite(value) and err <= bound):
            raise DivergentMoment(
                f"expectation did not converge (value={value!r}, error={err:g}); "
                "the moment may not exist on this support"
            )
        return value

    @property
    def sigma2_mean(self) -> float:
        """Average noise variance over the covariate law."""
        if not callable(self.sigma2):
            return float(self.sigma2)
        return self.expect(self.sigma2)


def _covariate_moments(ctx: TheoryContext, x: float, ell_max: int) -> np.ndarray:
    """delta_ell(x) = E (X - x)^ell for ell = 0 .. ell_max.

    The zeroth moment is 1 by definition and is not re-estimated.
    """
    return np.array([1.0] + [ctx.expect(lambda s, e=ell: (s - x) ** e)
                             for ell in range(1, ell_max + 1)])


def _remainder_moments(ctx: TheoryContext, x: float, p: int, ell_max: int) -> np.ndarray:
    """R_{ell,p}(x) = E (X - x)^ell {m(X) - sum_{l<=p} beta_l (X - x)^l}."""
    betas = [ctx.beta(x, ell) for ell in range(p + 1)]

    def r_p(s: float) -> float:
        taylor = 0.0
        for ell, b in enumerate(betas):
            taylor += b * (s - x) ** ell
        return ctx.m(s) - taylor

    return np.array([ctx.expect(lambda s, e=ell: (s - x) ** e * r_p(s))
                     for ell in range(ell_max + 1)])


def _pool_sizes(pool_sizes) -> np.ndarray:
    sizes = np.asarray(pool_sizes, dtype=float)
    whole = np.isfinite(sizes) & (sizes == np.floor(sizes))
    if sizes.size == 0 or not np.all(whole & (sizes >= 1)):
        raise UserInputError("pool sizes must be a nonempty sequence of integers >= 1")
    return sizes


def _pool_averages(pool_sizes) -> tuple[float, float, float, float]:
    """Means over pools of c^-1, c^-2, (c - 1)/c^2 and (c - 1)(c - 2)/c^2.

    These are the size-driven constants of the random-pooling expansions;
    with unit pools they are 1, 1, 0 and 0.
    """
    c = _pool_sizes(pool_sizes)
    return (
        float(np.mean(c**-1)),
        float(np.mean(c**-2)),
        float(np.mean((c - 1) / c**2)),
        float(np.mean(np.maximum((c - 1) * (c - 2), 0.0) / c**2)),
    )


def _kernel_moments(kind: KernelKind, p: int, power: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """mu and nu, the moments of K^power and K^(2 power) of orders 0 .. 2p + 2.

    power > 1 is the pooled power used by the product-weighted estimator
    on homogeneous data.
    """
    max_order = 2 * p + 2
    return (np.array(compute_moments(kind, max_order, power=power)),
            np.array(compute_moments(kind, max_order, power=2 * power)))


def _hankel(v: np.ndarray, p: int, ell: int = 0) -> np.ndarray:
    """The (p + 1) x (p + 1) moment matrix with entries v[i + j + ell]."""
    idx = np.arange(p + 1)
    return v[idx[:, None] + idx[None, :] + ell]


def _density(ctx: TheoryContext, x: float) -> float:
    """f(x), which every expansion divides by; it must be positive."""
    f = ctx.f(x)
    if not f > 0.0:
        raise UserInputError(
            f"the covariate density is {f:g} at x={x:g}; the asymptotic "
            "expansions need f(x) > 0"
        )
    return f


def _solve(matrix: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    s = np.linalg.svd(matrix, compute_uv=False)
    if s[0] <= 0.0 or s[-1] / s[0] < _RCOND_MIN:
        raise SingularMomentMatrix(f"{what} is singular or too ill conditioned to invert")
    return np.linalg.solve(matrix, rhs)


def _basis(p: int, index: int) -> np.ndarray:
    e = np.zeros(p + 1)
    e[index] = 1.0
    return e


@dataclass(frozen=True)
class AsymptoticSummary:
    """Dominating bias and variance description for one estimator at one point."""

    estimator: Estimator
    design: Design
    x: float
    p: int
    h: float
    persistent_bias: float
    leading_bias: float
    variance: float | None
    variance_order: str
    notes: tuple[str, ...] = ()


def average_random_summary(
    ctx: TheoryContext,
    x: float,
    p: int,
    h: float,
    pool_sizes,
    kernel: KernelKind = KernelKind.EPANECHNIKOV,
) -> AsymptoticSummary:
    """Dominating bias expansion of the average-weighted estimator, random pools.

    The h-free persistent term survives any bandwidth sequence unless all
    pools have a single member. The variance constant is not available at
    this level of the expansion, so only its order is reported.
    """
    mu, _ = _kernel_moments(kernel, p)
    t1, t2, t21, t22 = _pool_averages(pool_sizes)
    delta = _covariate_moments(ctx, x, 2 * p)
    delta_star = delta[:p + 1]
    delta_tilde = _hankel(delta, p)
    r_star = _remainder_moments(ctx, x, p, p)
    r0 = r_star[0]
    f = _density(ctx, x)
    f1 = ctx.f_deriv(x, 1)
    f2 = ctx.f_deriv(x, 2)
    mu2 = mu[2]
    e1 = _basis(p, 0)
    mu0s, mu1s, mu2s = (mu[ell:ell + p + 1] for ell in range(3))

    m0 = (
        t2 * _hankel(mu, p)
        + t21 * (delta_tilde + np.outer(delta_star, mu0s) + np.outer(mu0s, delta_star))
        + t22 * np.outer(delta_star, delta_star)
    )
    m1 = t2 * _hankel(mu, p, 1) + t21 * (
        np.outer(delta_star, mu1s) + np.outer(mu1s, delta_star)
    )
    m2 = (
        t2 * _hankel(mu, p, 2)
        + t21 * (mu2 * delta_tilde + np.outer(delta_star, mu2s) + np.outer(mu2s, delta_star))
        + t22 * mu2 * np.outer(delta_star, delta_star)
    )
    l0 = t21 * (r0 * e1 + r_star) + t22 * r0 * delta_star
    # the beta_2 indicator must cover p <= 1, not just p = 0: that is the
    # choice that reproduces the classical local linear bias when every
    # pool has a single member
    l1 = t1 * (
        ctx.beta(x, 1) * f1 * (1.0 if p == 0 else 0.0)
        + ctx.beta(x, 2) * f * (1.0 if p <= 1 else 0.0)
    ) * e1
    l2_parts = 0.5 * f2 * e1
    if p >= 1:
        l2_parts = l2_parts + f1 * _basis(p, 1)
    if p >= 2:
        l2_parts = l2_parts + f * _basis(p, 2)
    l2 = t21 * r0 * l2_parts
    l3 = t21 * r_star + t22 * r0 * delta_star

    m0_inv_l0 = _solve(m0, l0, "the pooled design moment matrix")
    persistent = float(m0_inv_l0[0])
    # the h^2 matrix factor multiplies M0^-1 L0; the squared second
    # derivative of the density appears as printed in the source expansion
    order_h = -h * (f1 / f) * (m1 @ m0_inv_l0)
    matrix_part = (f2**2 / f) * (m1 @ _solve(m0, m1 @ m0_inv_l0, "the pooled design moment matrix")) \
        + 0.5 * f2 * (m2 @ m0_inv_l0)
    order_h2 = (h**2 / f) * (mu2 * (l1 + l2 + 0.5 * f2 * l3) + matrix_part)
    bias = float(_solve(m0, l0 + order_h + order_h2, "the pooled design moment matrix")[0])
    return AsymptoticSummary(
        estimator=Estimator.AVERAGE, design=Design.RANDOM, x=x, p=p, h=h,
        persistent_bias=persistent, leading_bias=bias,
        variance=None, variance_order="1/(J h)",
        notes=("bandwidth-free bias term persists unless all pools have size 1",),
    )


def product_random_bias(
    ctx: TheoryContext,
    x: float,
    p: int,
    h: float,
    c: int,
    kernel: KernelKind = KernelKind.EPANECHNIKOV,
) -> AsymptoticSummary:
    """Leading bias of the product-weighted estimator under random pooling.

    Stated for pools of one common size c. The variance constant is out of
    scope; its order degrades geometrically in c through h^c.
    """
    _pool_sizes([c])
    bias = _local_bias(ctx, x, p, h, _kernel_moments(kernel, p)[0], c)
    return AsymptoticSummary(
        estimator=Estimator.PRODUCT, design=Design.RANDOM, x=x, p=p, h=h,
        persistent_bias=0.0, leading_bias=bias,
        variance=None, variance_order="1/(J h^c)",
        notes=(f"variance order degrades with pool size through h^{c}",),
    )


def _local_bias(
    ctx: TheoryContext, x: float, p: int, h: float, mu: np.ndarray, c: int = 1,
) -> float:
    """Leading bias of a local polynomial fit, with its first correction in h.

    c is the common pool size of the product-weighted estimator under
    random pooling; every (c - 1) term vanishes at c = 1, which leaves the
    classical expansion on unit-level responses with the kernel moments mu.
    """
    what = "the kernel moment matrix" if c == 1 else "the product-weight moment matrix"
    f = _density(ctx, x)
    f1 = ctx.f_deriv(x, 1)
    bp1 = ctx.beta(x, p + 1)
    bp2 = ctx.beta(x, p + 2)
    mu0s, mu1s = mu[:p + 1], mu[1:p + 2]
    a = _hankel(mu, p) + (c - 1) * np.outer(mu0s, mu0s)
    b1 = mu[p + 1:2 * p + 2] + (c - 1) * mu[p + 1] * mu0s
    b2 = mu[p + 2:2 * p + 3] + (c - 1) * mu[p + 2] * mu0s
    mid = _hankel(mu, p, 1) + (c - 1) * (np.outer(mu0s, mu1s) + np.outer(mu1s, mu0s))
    a_inv_b1 = _solve(a, b1, what)
    lead = bp1 * a_inv_b1
    corr = (bp2 * f + bp1 * f1) * _solve(a, b2, what) \
        - bp1 * f1 * _solve(a, mid @ a_inv_b1, what)
    return h ** (p + 1) * float(lead[0] + (h / f) * corr[0])


def _unit_style_summary(
    ctx: TheoryContext, estimator: Estimator, design: Design, x: float, p: int,
    h: float, n_units: int, kernel: KernelKind, power: int = 1,
    extra_variance: float = 0.0, notes: tuple[str, ...] = (),
) -> AsymptoticSummary:
    """Bias and variance of individual-data form, with moments of K^power.

    The variance is the symmetric sandwich (first diagonal element of
    moment matrix^-1, squared-kernel matrix, moment matrix^-1) times
    (sigma^2(x) + extra_variance) / (N h f(x)).
    """
    mu, nu = _kernel_moments(kernel, p, power)
    bias = _local_bias(ctx, x, p, h, mu)
    left = _solve(_hankel(mu, p), _basis(p, 0), "the kernel moment matrix")
    sandwich = float(left @ _hankel(nu, p) @ left)
    variance = (ctx.sigma2_at(x) + extra_variance) / (n_units * h * ctx.f(x)) * sandwich
    return AsymptoticSummary(
        estimator=estimator, design=design, x=x, p=p, h=h,
        persistent_bias=0.0, leading_bias=bias,
        variance=variance, variance_order="1/(N h)", notes=notes,
    )


def individual_summary(
    ctx: TheoryContext,
    x: float,
    p: int,
    h: float,
    n_units: int,
    kernel: KernelKind = KernelKind.EPANECHNIKOV,
) -> AsymptoticSummary:
    """Classical local polynomial bias and variance on individual data."""
    return _unit_style_summary(
        ctx, Estimator.INDIVIDUAL, Design.RANDOM, x, p, h, n_units, kernel)


def marginal_random_summary(
    ctx: TheoryContext,
    x: float,
    p: int,
    h: float,
    n_units: int,
    pool_sizes,
    kernel: KernelKind = KernelKind.EPANECHNIKOV,
) -> AsymptoticSummary:
    """Bias and variance of the marginal-integration estimator, random pools.

    The bias is the individual estimator's (the expansions coincide for
    every pool size). The variance picks up an inflation proportional to
    the average noise variance and the average excess pool membership;
    with equal pools of size c and a constant noise variance the inflation
    ratio over individual data is exactly c.
    """
    sizes = _pool_sizes(pool_sizes)
    inflation = ctx.sigma2_mean * float(np.sum(sizes * (sizes - 1.0))) / sizes.sum()
    return _unit_style_summary(
        ctx, Estimator.MARGINAL, Design.RANDOM, x, p, h, n_units, kernel,
        extra_variance=inflation)


def homogeneous_summary(
    ctx: TheoryContext,
    tag: Estimator,
    x: float,
    p: int,
    h: float,
    n_units: int,
    c: int,
    kernel: KernelKind = KernelKind.EPANECHNIKOV,
) -> AsymptoticSummary:
    """Bias and variance under homogeneous (sorted) pooling.

    The average-weighted estimator behaves like the individual one; the
    product-weighted estimator behaves like an individual fit whose kernel
    is the c-th power of the original, entering through its own moments.
    The kernel must vanish outside a bounded window; a non-compact kernel
    raised to a pool power is rejected.
    """
    if tag not in (Estimator.AVERAGE, Estimator.PRODUCT):
        raise UserInputError(
            "homogeneous summaries cover the average and product estimators"
        )
    if not kernel.compact:
        raise UnsupportedKernel(
            f"the {kernel.value} kernel has unbounded support and is not "
            "covered by the homogeneous-pooling theory"
        )
    _pool_sizes([c])
    return _unit_style_summary(
        ctx, tag, Design.HOMOGENEOUS, x, p, h, n_units, kernel,
        power=1 if tag is Estimator.AVERAGE else c,
        notes=("variance uses the symmetric inverse-sandwich form",))
