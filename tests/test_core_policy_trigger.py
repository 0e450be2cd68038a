"""Morphing policies and triggering points."""

import pytest

from repro.core.policy import (
    ElasticPolicy,
    GreedyPolicy,
    SelectivityIncreasePolicy,
)
from repro.core.trigger import (
    EagerTrigger,
    OptimizerDrivenTrigger,
    SLADrivenTrigger,
)
from repro.experiments.common import policy_for


def test_greedy_always_doubles():
    p = GreedyPolicy()
    assert p.next_region(1, 0.0, 1.0) == 2
    assert p.next_region(8, 0.0, 1.0) == 16


def test_si_doubles_on_increase_keeps_otherwise():
    p = SelectivityIncreasePolicy()
    assert p.next_region(4, 0.9, 0.5) == 8
    assert p.next_region(4, 0.2, 0.5) == 4  # never shrinks


def test_elastic_two_way():
    p = ElasticPolicy()
    assert p.next_region(4, 0.9, 0.5) == 8
    assert p.next_region(4, 0.2, 0.5) == 2
    assert p.next_region(1, 0.0, 0.5) == 1  # floor at one page


def test_default_comparison_is_non_strict():
    # local == global counts as "not lower" and grows (see policy module
    # docstring for the reconciliation of Fig. 5b with the CR analysis).
    assert ElasticPolicy().next_region(2, 0.5, 0.5) == 4
    assert ElasticPolicy(strict=True).next_region(2, 0.5, 0.5) == 1
    assert SelectivityIncreasePolicy(strict=True).next_region(2, 0.5, 0.5) == 2


def test_initial_region_is_entire_page_probe():
    for policy in (GreedyPolicy(), SelectivityIncreasePolicy(),
                   ElasticPolicy()):
        assert policy.initial_region() == 1


@pytest.mark.parametrize("name,cls", [
    ("greedy", GreedyPolicy),
    ("si", SelectivityIncreasePolicy),
    ("elastic", ElasticPolicy),
])
def test_policy_for_names_the_paper_policies(name, cls):
    # The one name-to-policy table (fig7 / fig8): a fresh policy with the
    # default non-strict comparison on every call.
    policy = policy_for(name)
    assert type(policy) is cls
    assert policy.strict is False
    assert policy_for(name) is not policy


def test_policy_for_rejects_an_unknown_name():
    with pytest.raises(KeyError):
        policy_for("selectivity-increase")


@pytest.mark.parametrize("strict,expected_elastic,expected_si", [
    # Eq. (1) == Eq. (2): the >= default reads "not lower" and doubles;
    # the strict > literal reading treats equality as no increase.
    (False, 8, 8),
    (True, 2, 4),
])
def test_both_readings_of_eq1_eq2_comparison(strict, expected_elastic,
                                             expected_si):
    local = global_ = 0.75
    elastic = ElasticPolicy(strict=strict)
    si = SelectivityIncreasePolicy(strict=strict)
    assert elastic.next_region(4, local, global_) == expected_elastic
    assert si.next_region(4, local, global_) == expected_si


def test_eager_trigger():
    t = EagerTrigger()
    assert t.eager
    assert t.should_morph(0)
    assert t.post_morph_policy() is None


def test_optimizer_trigger_fires_past_estimate():
    t = OptimizerDrivenTrigger(estimated_cardinality=100)
    assert not t.eager
    assert not t.should_morph(100)
    assert t.should_morph(101)
    with pytest.raises(ValueError):
        OptimizerDrivenTrigger(-1)


def test_sla_trigger_switches_to_greedy():
    t = SLADrivenTrigger(trigger_cardinality=50)
    assert not t.eager
    assert not t.should_morph(49)
    assert t.should_morph(50)
    assert isinstance(t.post_morph_policy(), GreedyPolicy)
    with pytest.raises(ValueError):
        SLADrivenTrigger(-5)
