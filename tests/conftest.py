"""Shared fixtures."""

import sys

import pytest

import twistcover.kernels as kernels
import twistcover.slopes as slopes
import twistcover.solver as solver


def _count_calls(monkeypatch, module, name):
    """Route module.name through a counter at every twistcover module that
    binds it; returns the one-cell tally."""
    calls = [0]
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("twistcover") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.fixture
def g_eval_calls(monkeypatch):
    return _count_calls(monkeypatch, slopes, "g_eval")


@pytest.fixture
def branch_calls(monkeypatch):
    return _count_calls(monkeypatch, solver, "branch_point")


@pytest.fixture
def solve_calls(monkeypatch):
    return _count_calls(monkeypatch, solver, "solve")


@pytest.fixture
def phi_delta_calls(monkeypatch):
    return _count_calls(monkeypatch, kernels, "phi_delta")


@pytest.fixture
def cover_compose_calls(monkeypatch):
    return _count_calls(monkeypatch, kernels, "cover_compose")
