"""Fixtures shared by the test modules."""

import concurrent.futures
import glob
import os
import time

import pytest


def process_ended(pid):
    """Whether process pid has ended: it is gone, or a zombie that its parent has yet to reap."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def _children():
    """The pids of this process's children, or None where /proc does not list them."""
    paths = glob.glob(f"/proc/{os.getpid()}/task/*/children")
    pids = set()
    for path in paths:
        try:
            with open(path, encoding="ascii") as fh:
                pids.update(map(int, fh.read().split()))
        except (FileNotFoundError, ProcessLookupError):  # a thread that ended since the listing
            pass
    return pids if paths else None


def _command(pid):
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except (FileNotFoundError, ProcessLookupError):
        return ""


@pytest.fixture(autouse=True)
def no_child_outlives_its_test():
    """Fail a test that leaves a child process of this one running 5 s after it ends. The resource
    tracker that a `spawn` context starts once for the whole session is not counted."""
    before = _children()
    yield
    if before is None:
        return
    deadline = time.monotonic() + 5.0
    while True:
        left = {pid: _command(pid) for pid in _children() - before if not process_ended(pid)}
        left = {pid: cmd for pid, cmd in left.items() if "multiprocessing.resource_tracker" not in cmd}
        if not left or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert not left, f"child processes still running 5 s after the test: {left}"


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
