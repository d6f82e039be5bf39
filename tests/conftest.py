"""Fixtures shared by the test modules."""

import contextlib

import pytest

import rosevent.linalg
from rosevent.events import IntegrationStats


@contextlib.contextmanager
def _counting():
    stats = IntegrationStats()
    token = rosevent.linalg.current_run.set(stats)
    try:
        yield stats
    finally:
        rosevent.linalg.current_run.reset(token)


@pytest.fixture(scope="session")
def counting():
    """`with counting() as stats:` counts the calls made inside the block
    on stats, a fresh IntegrationStats set as the run in progress, as
    integrate sets its own. Session-scoped, as it holds no state, so the
    property tests may take it."""
    return _counting
