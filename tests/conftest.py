"""Shared fixtures."""

import pytest

import twistcover.slopes as slopes


@pytest.fixture
def g_eval_calls(monkeypatch):
    """Route slopes.g_eval through a counter; yields the one-cell tally."""
    calls = [0]
    real = slopes.g_eval

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(slopes, "g_eval", counted)
    return calls
