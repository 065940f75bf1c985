"""FlowConfig canonical serialisation: round-trip and stable digest.

The canonical form covers only *result-bearing* knobs.  Execution
settings (``jobs``, ``task_timeout``, ``task_retries``,
``pool_rebuilds``) change where the flow runs, never what it computes:
they are :class:`~repro.cts.framework.HierarchicalCTS` arguments, not
config fields, so they can never reach a cache key.
"""

from dataclasses import fields

import pytest

from repro.cts.framework import FlowConfig

EXECUTION_SETTINGS = ("jobs", "task_timeout", "task_retries",
                      "pool_rebuilds")


def test_round_trip_is_lossless_for_result_knobs():
    config = FlowConfig(eps=0.25, seed=7, use_sa=False)
    again = FlowConfig.from_dict(config.to_dict())
    assert again.to_dict() == config.to_dict()
    assert again == config


def test_execution_fields_are_excluded_from_canonical_form():
    names = {f.name for f in fields(FlowConfig)}
    canon = FlowConfig().to_dict()
    for name in EXECUTION_SETTINGS:
        assert name not in names, name
        assert name not in canon, name
    # every field but the router callable is canonical
    assert sorted(canon) == sorted(names - {"router"})


def test_fabric_knobs_do_not_change_the_digest():
    # the default digest from before the execution settings left the
    # config: every stored cache key stays valid
    assert FlowConfig().digest() == (
        "ee7b7255e37153f0588888e9d3b75e82f3a8ae6a04c60cb62e2d2e0ccb765a26")
    assert FlowConfig(eps=0.4).digest() != FlowConfig(eps=0.5).digest()


@pytest.mark.parametrize("name", EXECUTION_SETTINGS)
def test_from_dict_rejects_execution_settings(name):
    # a sweep or serve knob naming one fails instead of being ignored
    with pytest.raises(ValueError, match="unknown FlowConfig field"):
        FlowConfig.from_dict({name: 2})


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
