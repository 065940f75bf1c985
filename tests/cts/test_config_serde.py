"""FlowConfig canonical serialisation: round-trip and stable digest.

Since config schema v2 the canonical form covers only *result-bearing*
knobs: execution-fabric fields (``jobs``, ``task_timeout``,
``task_retries``, ``pool_rebuilds``) are excluded by contract — they
change where the flow runs, never what it computes, so they must not
change cache keys.
"""

import pytest

from repro.cts.framework import _EXECUTION_FIELDS, FlowConfig


def test_round_trip_is_lossless_for_result_knobs():
    config = FlowConfig(eps=0.25, seed=7, use_sa=False)
    again = FlowConfig.from_dict(config.to_dict())
    assert again.to_dict() == config.to_dict()
    assert again == config


def test_execution_fields_are_excluded_from_canonical_form():
    config = FlowConfig(jobs=4, task_timeout=5.0, task_retries=3,
                        pool_rebuilds=1)
    canon = config.to_dict()
    for name in _EXECUTION_FIELDS:
        assert name not in canon, name
    # the round-trip resets fabric knobs to defaults (jobs: 0 = auto) ...
    again = FlowConfig.from_dict(canon)
    assert again.jobs == 0
    # ... but every result-bearing knob survives
    assert again.to_dict() == canon


def test_fabric_knobs_do_not_change_the_digest():
    base = FlowConfig(eps=0.4)
    assert base.digest() == FlowConfig(
        eps=0.4, jobs=8, task_timeout=2.0, task_retries=0, pool_rebuilds=0
    ).digest()
    assert base.digest() != FlowConfig(eps=0.5).digest()


def test_from_dict_still_accepts_execution_fields():
    # sweep specs may grid over fabric knobs; they configure execution
    # even though they never reach the canonical form
    config = FlowConfig.from_dict({"jobs": 2, "task_timeout": 1.5})
    assert config.jobs == 2
    assert config.task_timeout == 1.5


def test_partial_dict_fills_defaults():
    config = FlowConfig.from_dict({"eps": 0.5})
    assert config.eps == 0.5
    assert config.seed == FlowConfig().seed


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown FlowConfig field"):
        FlowConfig.from_dict({"epsilon": 0.5})


def test_callable_fields_cannot_serialise():
    config = FlowConfig(router=lambda *a, **k: None)
    with pytest.raises(ValueError, match="router"):
        config.to_dict()


def test_digest_stable_and_type_normalised():
    # int-vs-float spellings of the same knob hash identically
    a = FlowConfig.from_dict({"eps": 1, "seed": 3})
    b = FlowConfig.from_dict({"eps": 1.0, "seed": 3})
    assert a.digest() == b.digest()
    assert a.to_dict()["eps"] == 1.0
    assert FlowConfig().digest() != a.digest()
    assert len(FlowConfig().digest()) == 64  # hex sha256


def test_digest_matches_equal_configs():
    assert FlowConfig(eps=0.3).digest() == FlowConfig(eps=0.3).digest()
