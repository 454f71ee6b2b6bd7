from collections import Counter

import pytest

from graycyl import cli, dac, gray, intlin, nu, pr, span, theta


def _forget_memos():
    theta._IDENTITIES.clear()
    theta.bang.cache_clear()
    dac.lambda_cell.cache_clear()
    gray.cylinder_complex.cache_clear()
    gray.lax_shuffle_diagram.cache_clear()


@pytest.fixture
def forget_memos():
    """A function that drops every per-cell memo at once: the identities
    and bangs of theta, the complexes of dac and the cylinders and shuffle
    diagrams of gray, so that the next read of each builds it anew (and
    validates the diagram's columns again).  They are dropped together
    because each holds complexes the others built, and maps compose only
    between the very same complexes: a kept identity or bang holds its
    lambda map, whose complexes the next lambda_cell would not return."""
    return _forget_memos


@pytest.fixture
def mirror_calls(monkeypatch):
    """A Counter, by cell, of the calls of theta.mirror made while the test
    runs, through the module theta or any name a library module binds to
    it."""
    calls, real = Counter(), theta.mirror

    def counted(t):
        calls[t] += 1
        return real(t)

    for module in (cli, dac, gray, intlin, nu, pr, span, theta):
        monkeypatch.setattr(module, "mirror", counted, raising=False)
    return calls
