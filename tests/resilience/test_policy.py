"""FabricPolicy defaults and validation."""

import pytest

from repro.resilience import FabricPolicy


def test_defaults_are_valid_and_deadline_free():
    policy = FabricPolicy()
    assert policy.task_timeout == 0.0
    assert policy.task_retries == 1
    assert policy.pool_rebuilds == 2
    assert policy.quarantine_after == 2


@pytest.mark.parametrize("kwargs", [
    {"task_timeout": -1.0},
    {"task_retries": -1},
    {"pool_rebuilds": -1},
    {"quarantine_after": 0},
    {"shutdown_grace": -0.5},
])
def test_invalid_budgets_rejected(kwargs):
    with pytest.raises(ValueError):
        FabricPolicy(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"task_timeout": float("inf")},
    {"task_timeout": float("nan")},
    {"shutdown_grace": float("inf")},
    {"shutdown_grace": float("nan")},
])
def test_non_finite_budgets_rejected(kwargs):
    """An infinite deadline used to overflow the pool's wait (an
    OverflowError out of ``HierarchicalCTS.run``) and a NaN one to
    disarm it silently."""
    with pytest.raises(ValueError, match="finite"):
        FabricPolicy(**kwargs)
