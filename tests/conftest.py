import mpmath
import pytest


@pytest.fixture(autouse=True)
def mpmath_precision_unchanged():
    """Fail any test that leaves mpmath's process-wide precision changed."""
    before = (mpmath.mp.prec, mpmath.mp.dps)
    yield
    after = (mpmath.mp.prec, mpmath.mp.dps)
    if after != before:
        pytest.fail(f"mpmath (prec, dps) changed from {before} to {after}")
