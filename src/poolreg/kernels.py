"""Kernel functions and their moments.

Conventions used throughout the package:
  * a kernel K is symmetric and integrates to 1 over the real line;
  * every kernel except the Gaussian vanishes outside [-1, 1];
  * the bandwidth-scaled kernel is K_h(t) = K(t/h) / h;
  * the moment of order ell and power q is the integral of t^ell K(t)^q dt.

Every moment has a closed form, and odd orders vanish by symmetry. The
compact kernels are const (1 - |t|^a)^m, in one table (_COMPACT_FAMILY) that
kernel_eval, the moments and the engine's running sums read (a = 2 with
m = 1, 2, 3 for Epanechnikov, quartic and triweight; a = 3, m = 3 for
tricube), so for even ell a binomial expansion gives

    int t^ell K^q = 2 const^q sum_i C(mq, i) (-1)^i / (ell + a i + 1),

summed in exact rationals and rounded once. For the Gaussian kernel,

    int t^ell K^q = (ell - 1)!! (2 pi)^(-(q - 1)/2) q^(-(ell + 1)/2),

whose rational part is exact, so q = 1 gives the integers (ell - 1)!!.
Results are cached per (kernel, order, power).
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction

import numpy as np

from .errors import UnsupportedKernel

__all__ = [
    "KernelKind",
    "kernel_eval",
    "compute_moments",
]


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


# (normalizing constant, a, m) for every compact kernel const * (1-|t|^a)^m
_COMPACT_FAMILY = {
    KernelKind.EPANECHNIKOV: (Fraction(3, 4), 2, 1),
    KernelKind.QUARTIC: (Fraction(15, 16), 2, 2),
    KernelKind.TRIWEIGHT: (Fraction(35, 32), 2, 3),
    KernelKind.TRICUBE: (Fraction(70, 81), 3, 3),
}

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def kernel_eval(kind: KernelKind, t):
    """Evaluate K(t); exactly zero outside the support of a compact kernel."""
    t = np.asarray(t, dtype=float)
    if kind is KernelKind.GAUSSIAN:
        out = np.exp(-0.5 * t * t) / _SQRT_2PI
        return out if out.ndim else float(out)
    const, a, m = _COMPACT_FAMILY[kind]
    out = np.where(np.abs(t) <= 1.0, float(const) * (1.0 - np.abs(t) ** a) ** m, 0.0)
    return out if out.ndim else float(out)


def _moment(kind: KernelKind, ell: int, power: int) -> float:
    # integral of t^ell K(t)^power over the real line, closed forms above
    if ell % 2 == 1:
        return 0.0
    if kind is KernelKind.GAUSSIAN:
        rational = Fraction(math.prod(range(ell - 1, 0, -2)), power ** (ell // 2))
        return float(rational) / (math.sqrt(power) * (2.0 * math.pi) ** ((power - 1) / 2))
    const, a, m = _COMPACT_FAMILY[kind]
    big_m = m * power
    total = Fraction(0)
    for i in range(big_m + 1):
        total += Fraction((-1) ** i * math.comb(big_m, i) * 2, ell + a * i + 1)
    return float(const**power * total)


_cache: dict[tuple[KernelKind, int, int], tuple[float, ...]] = {}


def compute_moments(kind: KernelKind, max_order: int, power: int = 1) -> tuple[float, ...]:
    """Moments of K^power up to max_order, in closed form.

    Returns a tuple whose entry ell is the integral of t^ell K(t)^power dt,
    for ell = 0 .. max_order, each within a few ulps of the exact value.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if power < 1:
        raise ValueError("power must be >= 1")
    key = (kind, max_order, power)
    if key not in _cache:
        _cache[key] = tuple(_moment(kind, ell, power) for ell in range(max_order + 1))
    return _cache[key]
