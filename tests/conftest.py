"""Fixtures shared by the test modules."""

import pytest

from balk1 import opmodel


@pytest.fixture
def forbid_decomposition(monkeypatch):
    """Make every SVD screening of a block (``opmodel._clipped``) fail the
    test, for tests that assert that each block is certified by its bound."""
    def decomposed(matrix):
        raise AssertionError("a certified block was decomposed")

    monkeypatch.setattr(opmodel, "_clipped", decomposed)
