"""Shared pytest plumbing.

The acceptance suite reports one PASS/FAIL line per criterion. Those lines
are collected here and echoed in a terminal section at the end of the run,
so they stay visible even when everything passes and output capture would
otherwise swallow them. The same records (slug, ok, detail) go to the
pytest cache under poolreg/acceptance (.pytest_cache/v/poolreg/acceptance
by default) when the cache plugin is on. The quad_moment fixture is the
quadrature reference that the closed-form kernel moments are checked
against, and the average_random_bias_closed_p0 fixture an independent short
form of the average-weighted bias that the general expansion is checked
against.
"""

import os

import pytest

_ACCEPTANCE = []


@pytest.fixture
def accept():
    """Report a criterion outcome: prints, records, then asserts."""

    def report(slug: str, ok: bool, detail: str) -> None:
        line = _line(slug, ok, detail)
        print(line)
        _ACCEPTANCE.append({"slug": slug, "ok": bool(ok), "detail": detail})
        assert ok, line

    return report


@pytest.fixture(scope="session")
def quad_moment():
    """Integral of t^ell K(t)^power by adaptive quadrature, absolute error <= 1e-12."""
    from scipy import integrate

    from poolreg.kernels import kernel_eval

    def moment(kind, ell, power):
        def integrand(t):
            return t**ell * kernel_eval(kind, t) ** power

        # split at 0 so the adaptive rule sees two smooth halves; beyond
        # |t| = 40 the Gaussian kernel underflows to 0
        half = 1.0 if kind.compact else 40.0
        left = integrate.quad(integrand, -half, 0.0, epsabs=1e-13, epsrel=0.0, limit=200)
        right = integrate.quad(integrand, 0.0, half, epsabs=1e-13, epsrel=0.0, limit=200)
        assert left[1] + right[1] <= 1e-12, (kind, ell, power)
        return left[0] + right[0]

    return moment


@pytest.fixture(scope="session")
def average_random_bias_closed_p0():
    """Local constant special case of the average-weighted dominating bias.

    Epanechnikov kernel. The pool mean of (c - 1)/c times E{m(X) - m(x)} plus
    the pool mean of 1/c times the classical local constant bias. It coincides with the general expansion
    wherever the density has zero second derivative at x; elsewhere the two
    differ in an h^2 curvature cross-term that this short form drops.
    """
    import numpy as np

    from poolreg.kernels import KernelKind, compute_moments

    def bias(ctx, x, h, pool_sizes):
        c = np.asarray(pool_sizes, dtype=float)
        mu2 = compute_moments(KernelKind.EPANECHNIKOV, 2)[2]
        f = ctx.f(x)
        nw = h**2 * mu2 * (ctx.beta(x, 1) * ctx.f_deriv(x, 1) / f + ctx.beta(x, 2))
        return float(np.mean((c - 1) / c)) * (ctx.expect(ctx.m) - ctx.m(x)) \
            + float(np.mean(c**-1)) * nw

    return bias


def pytest_configure(config):
    """Child interpreters started by the CLI tests import poolreg from this tree."""
    src = str(config.rootpath / "src")
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if src not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([src, *paths])


def _line(slug: str, ok: bool, detail: str) -> str:
    return f"[ACCEPT] {slug}: {'PASS' if ok else 'FAIL'} ({detail})"


def pytest_sessionfinish(session):
    cache = getattr(session.config, "cache", None)  # None under -p no:cacheprovider
    if _ACCEPTANCE and cache is not None:
        cache.set("poolreg/acceptance", _ACCEPTANCE)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE:
        terminalreporter.section("acceptance criteria")
        for record in _ACCEPTANCE:
            terminalreporter.write_line(_line(**record))
