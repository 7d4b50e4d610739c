"""Fixtures shared by the test modules."""

import pytest

from tollkit import kernel


@pytest.fixture
def tiny_term_cap(monkeypatch):
    """Let the kernel series run only 64 terms past the Poisson peak, so a
    steep fractional monomial stops as non-convergent at small loads.

    ``rho_factor`` memoises its reports, so the ones scanned under the
    other cap are dropped on the way in and on the way out."""
    kernel.rho_factor.cache_clear()
    monkeypatch.setattr(kernel, "SERIES_TERMS", 64)
    yield
    kernel.rho_factor.cache_clear()
