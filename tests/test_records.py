"""The record classes: equality, hashing, immutability and ``repr`` over their fields."""

import copy
import pickle

import numpy as np
import pytest

from decobs.campaigns import CampaignConfig, CampaignResult
from decobs.entropy import EntropyFunctional
from decobs.majorization import Dominance, dominance

#: (a value, an equal value built apart from it, a value that differs in one field)
EQUAL_AND_UNEQUAL = {
    "config": (
        CampaignConfig("holevo", dim=3, functionals=("linear", "renyi:2")),
        CampaignConfig("holevo", 0, 3, functionals=("linear", "renyi:2")),
        CampaignConfig("holevo", dim=3, functionals=("linear", "renyi:3")),
    ),
    "functional": (EntropyFunctional("renyi", 0.5), EntropyFunctional("renyi", alpha=0.5), EntropyFunctional("renyi", 2.0)),
}


@pytest.mark.parametrize("name", sorted(EQUAL_AND_UNEQUAL))
def test_equal_records_compare_and_hash_equal_and_unequal_ones_differ(name):
    value, same, other = EQUAL_AND_UNEQUAL[name]
    assert value == same and hash(value) == hash(same)
    assert value != other and hash(value) != hash(other)
    assert len({value, same, other}) == 2
    # a record equals only a record of its own class
    assert value != tuple(getattr(value, field) for field in type(value).__slots__)


FROZEN = {
    "config": (CampaignConfig("majorization"), "dim"),
    "functional": (EntropyFunctional("linear"), "kind"),
    "dominance": (dominance([0.7, 0.3], [0.5, 0.5]), "worst_margin"),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_a_frozen_record_refuses_assignment_and_deletion(name):
    value, field = FROZEN[name]
    before = getattr(value, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, 1)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        value.extra = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    assert getattr(value, field) == before


def test_a_repr_names_the_class_and_its_fields_in_order():
    assert repr(EntropyFunctional("renyi", 0.5)) == "EntropyFunctional(kind='renyi', alpha=0.5)"
    assert repr(CampaignConfig("counterexample", which=2)) == (
        "CampaignConfig(command='counterexample', seed=0, dim=2, trials=100, response_dim=None,"
        " functionals=(EntropyFunctional(kind='von-neumann', alpha=None),), tol=1e-09, units='nats',"
        " ensemble_size=None, which=2, povm_file=None)"
    )
    assert repr(Dominance(np.array([0.5]), 0.5, 1.0, 0.5, 0.0)) == (
        "Dominance(margins=array([0.5]), worst_margin=0.5, dominator_prefix=1.0, dominated_prefix=0.5,"
        " sum_residual=0.0)"
    )
    assert repr(CampaignResult({"rows": []}, 0)) == "CampaignResult(report={'rows': []}, exit_code=0)"


def test_a_campaign_result_is_a_mutable_unhashable_value():
    result = CampaignResult({"rows": []}, 1)
    assert result == CampaignResult({"rows": []}, 1) and result != CampaignResult({"rows": []}, 0)
    with pytest.raises(TypeError, match="unhashable"):
        hash(result)
    result.exit_code = 0
    assert result.exit_code == 0


def test_a_config_holds_the_functionals_it_parses_through_pickle_and_copy():
    cfg = CampaignConfig("holevo", functionals=("linear", " renyi:2.0"))
    assert cfg.functionals == (EntropyFunctional("linear"), EntropyFunctional("renyi", 2.0))
    for same in (pickle.loads(pickle.dumps(cfg)), copy.copy(cfg), copy.deepcopy(cfg)):
        assert same == cfg
        assert all(type(functional) is EntropyFunctional for functional in same.functionals)
    # a parsed functional parses to itself
    assert CampaignConfig("holevo", functionals=cfg.functionals).functionals == cfg.functionals


@pytest.mark.parametrize(
    "value",
    [CampaignConfig("holevo", ensemble_size=3), EntropyFunctional("log-det"), CampaignResult({"rows": []}, 0)],
    ids=["config", "functional", "result"],
)
def test_a_record_pickles_and_copies_to_an_equal_value(value):
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.copy(value) == value == copy.deepcopy(value)

