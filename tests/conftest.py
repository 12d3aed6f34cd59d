import os

import numpy as np
import pytest

from levywave import besov, harness


@pytest.fixture
def one_trial_stacks(monkeypatch):
    # each trial a stack of its own, so a small config's trials spread over the workers
    monkeypatch.setattr(harness, "_STACK_CELLS", 1)


@pytest.fixture
def pool_cpus(monkeypatch):
    # the run's budget is at most the usable CPUs; with four, a pool gets the
    # workers a test asks for, up to four, on any host, also on one CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)


@pytest.fixture
def four_cpus(pool_cpus, monkeypatch):
    # a lone stack splits across the budget only from 2 _THREAD_CELLS cells;
    # with four CPUs and no cell floor, threads=2 and 3 split a small trial's
    # passes on any host, also on one CPU
    monkeypatch.setattr(harness, "_THREAD_CELLS", 1)


class _FailingSelection(np.ndarray):
    def partition(self, *args, **kwargs):
        raise FloatingPointError("the selection failed")


class _NumpyWithFailingSelection:
    # numpy as besov sees it, but the buffer sigma_curve ranks in raises in
    # its partition; a method of ndarray cannot be patched on the type itself
    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape):
        return np.empty(shape).view(_FailingSelection)


@pytest.fixture
def fail_selection(monkeypatch):
    # once called, sigma_curve's one partition, on the calling thread after
    # the magnitude pass, raises FloatingPointError("the selection failed")
    return lambda: monkeypatch.setattr(besov, "np", _NumpyWithFailingSelection())
