"""Fixtures shared by the test modules."""

import concurrent.futures
import os

import pytest


@pytest.fixture
def usable_cores(monkeypatch):
    """Return a function that pretends n usable cores and returns the list of the worker
    counts of the process pools built from then on."""
    built = []

    class CountedExecutor(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedExecutor)

    def pretend(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        built.clear()
        return built

    return pretend
