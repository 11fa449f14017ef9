"""Shared fixtures."""

import sys

import pytest

import twistcover.cover as cover
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


def _count_records(monkeypatch, cls):
    """Route cls.__new__ through a counter; returns the one-cell tally of
    records built.

    The records are namedtuples, built by __new__ alone (tuple.__new__ never
    calls __init__), so the count is taken there.  The namedtuple's _make
    bypasses __new__ and is not counted; the library does not call it.
    """
    built = [0]
    real = cls.__new__

    def counted(cls_, *args, **kwargs):
        built[0] += 1
        return real(cls_, *args, **kwargs)

    monkeypatch.setattr(cls, "__new__", counted)
    return built


@pytest.fixture
def g_eval_calls(monkeypatch):
    return _count_calls(monkeypatch, slopes, "g_eval")


@pytest.fixture
def branch_calls(monkeypatch):
    return _count_calls(monkeypatch, solver, "branch_point")


@pytest.fixture
def root_calls(monkeypatch):
    # solver._root is the core that solve and g_eval share, so this counts
    # every root, whether or not a RepSolution is built from it
    return _count_calls(monkeypatch, solver, "_root")


@pytest.fixture
def phi_delta_calls(monkeypatch):
    return _count_calls(monkeypatch, kernels, "phi_delta")


@pytest.fixture
def cover_compose_calls(monkeypatch):
    return _count_calls(monkeypatch, kernels, "cover_compose")


@pytest.fixture
def rep_solutions_built(monkeypatch):
    return _count_records(monkeypatch, solver.RepSolution)


@pytest.fixture
def cover_elems_built(monkeypatch):
    # CoverElem.__new__ boxes through cover._box too, so this counts every
    # CoverElem, checked or not
    return _count_calls(monkeypatch, cover, "_box")


@pytest.fixture
def cover_checks(monkeypatch):
    return _count_calls(monkeypatch, cover, "_check")
