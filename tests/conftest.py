"""Fixtures shared by the test modules."""

import pytest

from tollkit import kernel


@pytest.fixture
def tiny_term_cap(monkeypatch):
    """Let the kernel series run only 64 terms past the Poisson peak, so a
    steep fractional monomial stops as non-convergent at small loads."""
    monkeypatch.setattr(kernel, "SERIES_TERMS", 64)
