"""lexroad's value records: plain records are NamedTuples, and only the
classes listed here stay dataclasses, each for a reason a tuple cannot meet.
A dataclass costs generated code on every import of lexroad."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import lexroad
from lexroad import bayes_net, boolean_core, compliance, lawmap, rule_dsl, rulepack
from lexroad.boolean_core import And, Or, Var

DATACLASSES = {
    # the class is part of the value: And((a, b)) is not Or((a, b))
    boolean_core.Var, boolean_core.Not, boolean_core.And, boolean_core.Or, boolean_core.Const,
    # cached_property needs an instance __dict__
    boolean_core.RuleEquations, bayes_net.BayesNet, lawmap.LawmapGraph,
    # read field by field in infer's inner loop; for LawmapNode and
    # LawmapEdge, see the comment above them in lawmap.py
    bayes_net.BnNode, lawmap.LawmapNode, lawmap.LawmapEdge,
    # filled from default factories after construction
    rule_dsl.VariableTable, bayes_net.ValidationReport, compliance.ComplianceReport,
}


def _lexroad_classes():
    for info in pkgutil.iter_modules(lexroad.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"lexroad.{info.name}")
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                yield value


def test_only_the_listed_classes_are_dataclasses():
    assert {cls for cls in _lexroad_classes() if dataclasses.is_dataclass(cls)} == DATACLASSES


def test_and_and_or_with_the_same_children_differ():
    a, b = Var("a"), Var("b")
    assert And((a, b)) != Or((a, b))
    assert len({And((a, b)): "and", Or((a, b)): "or"}) == 2


@pytest.fixture(scope="module")
def records(pack):
    """One instance of each NamedTuple record, by class, mostly from the
    shipped pack."""
    rule = pack.rules_by_id["UK-HC-103"]
    profile = rulepack.load_profile(rulepack.default_profile_paths()[0])
    group, requirements = next(iter(pack.checklists.items()))
    net = bayes_net.build_bn(rule.equations)
    check = bayes_net.validate_bn(net, rule.equations).equation_checks[0]
    return {type(record): record for record in (
        rule.source, rule.ast.if_clauses[0], rule.ast, rule.equations.table["A"],
        requirements[0], profile, pack.rate(group, profile), rule, pack,
        compliance.Scenario("UK-HC-103", {"A": True}),
        bayes_net.Divergence("X", {"A": True}, True, 0.0), check, net._plan,
        boolean_core.check_properties(rule.equations),
    )}


NAMEDTUPLES = [
    rule_dsl.RuleSource, rule_dsl.Clause, rule_dsl.RuleAst, rule_dsl.Variable,
    rulepack.CapabilityRequirement, rulepack.CapabilityProfile, rulepack.RagRating,
    rulepack.PackRule, rulepack.Rulepack,
    compliance.Scenario,
    bayes_net.Divergence, bayes_net.EquationCheck, bayes_net._Plan,
    boolean_core.PropertyReport,
]
HASHABLE = [
    rule_dsl.RuleSource, rule_dsl.Clause, rule_dsl.RuleAst, rule_dsl.Variable,
    rulepack.CapabilityRequirement, rulepack.RagRating,
]


def test_the_plain_records_are_named_tuples():
    tuples = {cls for cls in _lexroad_classes() if issubclass(cls, tuple)}
    assert tuples == set(NAMEDTUPLES)


@pytest.mark.parametrize("cls", NAMEDTUPLES, ids=lambda cls: cls.__name__)
def test_a_record_is_immutable_and_replace_keeps_its_type(records, cls):
    record = records[cls]
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    copy = record._replace(**{first: None})
    assert type(copy) is type(record)
    assert getattr(copy, first) is None
    assert copy[1:] == record[1:]


@pytest.mark.parametrize("cls", HASHABLE, ids=lambda cls: cls.__name__)
def test_a_record_with_hashable_fields_hashes_by_value(records, cls):
    record = records[cls]
    equal = type(record)(*record)
    assert equal is not record
    assert equal == record and hash(equal) == hash(record)
    assert {record: "found"}[equal] == "found"
