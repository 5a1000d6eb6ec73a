"""Fixtures shared by the test modules."""

import multiprocessing.pool
import os

import pytest


@pytest.fixture
def usable_cores(monkeypatch):
    """Return a function that pretends n usable cores and returns the list of the worker
    counts of the pools built from then on."""
    built = []

    class CountedPool(multiprocessing.pool.Pool):
        def __init__(self, processes=None, *args, **kwargs):
            built.append(processes)
            super().__init__(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool, "Pool", CountedPool)

    def pretend(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        built.clear()
        return built

    return pretend
