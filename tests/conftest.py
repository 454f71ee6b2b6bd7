import pytest

from graycyl import dac, gray


def _forget_memos():
    dac.lambda_cell.cache_clear()
    dac._LAMBDA_MAPS.clear()
    gray.cylinder_complex.cache_clear()
    gray.lax_shuffle_diagram.cache_clear()


@pytest.fixture
def forget_memos():
    """A function that drops every per-cell memo of dac and gray at once,
    so that the next read of each complex, lambda map, cylinder and shuffle
    diagram builds it anew (and validates the diagram's columns again).
    They are dropped together because each holds complexes the others
    built, and maps compose only between the very same complexes."""
    return _forget_memos
