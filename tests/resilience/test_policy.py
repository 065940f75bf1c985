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
