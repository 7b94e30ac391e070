"""Shared pytest plumbing.

The acceptance suite reports one PASS/FAIL line per criterion. Those lines
are collected here and echoed in a terminal section at the end of the run,
so they stay visible even when everything passes and output capture would
otherwise swallow them. The quad_moment fixture is the quadrature reference
that the closed-form kernel moments are checked against.
"""

import os

import pytest

_ACCEPTANCE_LINES = []


@pytest.fixture
def accept():
    """Report a criterion outcome: prints, records, then asserts."""

    def report(slug: str, ok: bool, detail: str) -> None:
        line = f"[ACCEPT] {slug}: {'PASS' if ok else 'FAIL'} ({detail})"
        print(line)
        _ACCEPTANCE_LINES.append(line)
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


def pytest_configure(config):
    """Child interpreters started by the CLI tests import poolreg from this tree."""
    src = str(config.rootpath / "src")
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if src not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([src, *paths])


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
