"""Shared pytest plumbing.

The acceptance suite reports one PASS/FAIL line per criterion. Those lines
are collected here and echoed in a terminal section at the end of the run,
so they stay visible even when everything passes and output capture would
otherwise swallow them.
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
