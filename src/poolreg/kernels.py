"""Kernel functions and their moments.

Conventions used throughout the package:
  * a kernel K is symmetric and integrates to 1 over the real line;
  * every kernel except the Gaussian vanishes outside [-1, 1];
  * the bandwidth-scaled kernel is K_h(t) = K(t/h) / h;
  * the moment of order ell and power q is the integral of t^ell K(t)^q dt.

Moments of the polynomial kernels (powers of 1 - t^2) are evaluated in exact
rational arithmetic and rounded once; the tricube and Gaussian kernels go
through adaptive quadrature. Results are cached per (kernel, order, power).
The cache is safe for concurrent reads; inserts are serialized by a lock.
"""

from __future__ import annotations

import enum
import math
import threading
from fractions import Fraction

import numpy as np

from .errors import QuadratureFailure, UnsupportedKernel

__all__ = [
    "KernelKind",
    "kernel_eval",
    "compute_moments",
]

QUAD_ABS_TOL = 1e-13


class KernelKind(enum.Enum):
    EPANECHNIKOV = "epanechnikov"
    QUARTIC = "quartic"
    TRIWEIGHT = "triweight"
    TRICUBE = "tricube"
    GAUSSIAN = "gaussian"

    @property
    def compact(self) -> bool:
        return self is not KernelKind.GAUSSIAN

    @classmethod
    def parse(cls, name: str) -> "KernelKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise UnsupportedKernel(
                f"unknown kernel {name!r}; expected one of "
                + ", ".join(k.value for k in cls)
            ) from None


# (normalizing constant, exponent) for kernels of the form const * (1-t^2)^m
_POLY_FAMILY = {
    KernelKind.EPANECHNIKOV: (Fraction(3, 4), 1),
    KernelKind.QUARTIC: (Fraction(15, 16), 2),
    KernelKind.TRIWEIGHT: (Fraction(35, 32), 3),
}

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def kernel_eval(kind: KernelKind, t):
    """Evaluate K(t); exactly zero outside the support of a compact kernel."""
    t = np.asarray(t, dtype=float)
    if kind is KernelKind.GAUSSIAN:
        out = np.exp(-0.5 * t * t) / _SQRT_2PI
        return out if out.ndim else float(out)
    inside = np.abs(t) <= 1.0
    if kind is KernelKind.TRICUBE:
        body = (70.0 / 81.0) * (1.0 - np.abs(t) ** 3) ** 3
    else:
        const, m = _POLY_FAMILY[kind]
        body = float(const) * (1.0 - t * t) ** m
    out = np.where(inside, body, 0.0)
    return out if out.ndim else float(out)


def _poly_moment_exact(kind: KernelKind, ell: int, power: int) -> float:
    # integral of t^ell [const (1-t^2)^m]^power over [-1, 1], exact rationals
    if ell % 2 == 1:
        return 0.0
    const, m = _POLY_FAMILY[kind]
    big_m = m * power
    total = Fraction(0)
    for i in range(big_m + 1):
        total += Fraction((-1) ** i * math.comb(big_m, i) * 2, ell + 2 * i + 1)
    return float(const**power * total)


def _quad_moment(kind: KernelKind, ell: int, power: int) -> float:
    # imported here: scipy.integrate would dominate the cost of importing poolreg
    from scipy import integrate

    def integrand(t: float) -> float:
        return t**ell * kernel_eval(kind, t) ** power

    if kind.compact:
        # split at 0 so the adaptive rule sees two smooth halves
        left = integrate.quad(integrand, -1.0, 0.0, epsabs=QUAD_ABS_TOL, epsrel=0.0, limit=200)
        right = integrate.quad(integrand, 0.0, 1.0, epsabs=QUAD_ABS_TOL, epsrel=0.0, limit=200)
        value, err = left[0] + right[0], left[1] + right[1]
    else:
        value, err = integrate.quad(
            integrand, -np.inf, np.inf, epsabs=QUAD_ABS_TOL, epsrel=0.0, limit=400
        )
    if not np.isfinite(value) or err > 1e-12:
        raise QuadratureFailure(
            f"moment quadrature did not converge (kernel={kind.value}, "
            f"order={ell}, power={power}, error estimate={err:g})"
        )
    return value


_cache: dict[tuple[KernelKind, int, int], tuple[float, ...]] = {}
_cache_lock = threading.Lock()


def compute_moments(kind: KernelKind, max_order: int, power: int = 1) -> tuple[float, ...]:
    """Moments of K^power up to max_order, closed form where available.

    Returns a tuple whose entry ell is the integral of t^ell K(t)^power dt,
    for ell = 0 .. max_order. Absolute accuracy is 1e-12 or better.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if power < 1:
        raise ValueError("power must be >= 1")
    key = (kind, max_order, power)
    hit = _cache.get(key)
    if hit is not None:
        return hit
    if kind in _POLY_FAMILY:
        values = tuple(_poly_moment_exact(kind, ell, power) for ell in range(max_order + 1))
    else:
        values = tuple(_quad_moment(kind, ell, power) for ell in range(max_order + 1))
    with _cache_lock:
        return _cache.setdefault(key, values)
