"""lexroad's value records.  Plain records are NamedTuples.  The expression
nodes, and the records that are filled after they are made or keep a
``cached_property``, are small classes (``rule_dsl.Record``).  No lexroad
class is a dataclass, which would generate code on every import."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import lexroad
from lexroad import bayes_net, boolean_core, compliance, lawmap, rule_dsl, rulepack
from lexroad.bayes_net import BayesNet, ValidationReport, build_bn
from lexroad.boolean_core import And, Const, Not, Or, RuleEquations, Var
from lexroad.compliance import ComplianceReport
from lexroad.lawmap import LawmapGraph, build_lawmap
from lexroad.rule_dsl import VariableTable


def _lexroad_classes():
    for info in pkgutil.iter_modules(lexroad.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"lexroad.{info.name}")
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                yield value


def test_no_lexroad_class_is_a_dataclass():
    assert [cls for cls in _lexroad_classes() if dataclasses.is_dataclass(cls)] == []


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
    graph = lawmap.build_lawmap(rule.equations)
    return {type(record): record for record in (
        rule.source, rule.ast.if_clauses[0], rule.ast, rule.equations.table["A"],
        requirements[0], profile, pack.rate(group, profile), rule, pack,
        compliance.Scenario("UK-HC-103", {"A": True}),
        bayes_net.Divergence("X", {"A": True}, True, 0.0), check, net._plan,
        boolean_core.check_properties(rule.equations),
        net.nodes[0], graph.nodes[0], graph.edges[0],
    )}


NAMEDTUPLES = [
    rule_dsl.RuleSource, rule_dsl.Clause, rule_dsl.RuleAst, rule_dsl.Variable,
    rulepack.CapabilityRequirement, rulepack.CapabilityProfile, rulepack.RagRating,
    rulepack.PackRule, rulepack.Rulepack,
    compliance.Scenario,
    bayes_net.Divergence, bayes_net.EquationCheck, bayes_net._Plan,
    boolean_core.PropertyReport,
    bayes_net.BnNode, lawmap.LawmapNode, lawmap.LawmapEdge,
]
HASHABLE = [
    rule_dsl.RuleSource, rule_dsl.Clause, rule_dsl.RuleAst, rule_dsl.Variable,
    rulepack.CapabilityRequirement, rulepack.RagRating,
    bayes_net.BnNode, lawmap.LawmapNode, lawmap.LawmapEdge,
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


def test_and_and_or_refuse_fewer_than_two_children():
    for cls in (And, Or):
        for children in ((), (Var("a"),)):
            with pytest.raises(ValueError, match=f"^{cls.__name__} needs at least two children$"):
                cls(children)


def _copies(eqs):
    """Two fresh equal copies of ``eqs``, built by their constructor."""
    return [RuleEquations(eqs.rule_id, eqs.table, eqs.equations, eqs.antecedent, eqs.folds,
                          eqs.input_order) for _ in range(2)]


def test_equality_reads_the_declared_fields_only(pack):
    """A cached diagram, plan or Lawmap index lives in the instance
    ``__dict__`` but is no part of the value."""
    eqs = pack.rules_by_id["UK-HC-103"].equations
    used, fresh = _copies(eqs)
    assert used.diagram
    nets = [build_bn(used), build_bn(fresh)]
    assert nets[0]._plan and nets[0].node("X")
    graphs = [build_lawmap(used), build_lawmap(fresh)]
    assert graphs[0]._index and graphs[0]._transitions
    for value, cached in ((used, "diagram"), (nets[0], "_plan"), (graphs[0], "_transitions")):
        assert cached in vars(value)
    assert used == fresh and nets[0] == nets[1] and graphs[0] == graphs[1]
    assert hash(nets[0]) == hash(nets[1]) and hash(graphs[0]) == hash(graphs[1])
    assert BayesNet("other", nets[0].nodes) != nets[0]
    assert LawmapGraph(graphs[0].rule_id, graphs[0].nodes, graphs[0].edges, (("k", "v"),)) \
        != graphs[0]
    assert RuleEquations(eqs.rule_id, eqs.table, {}) != used


def test_expression_nodes_hash_by_value():
    def tree():
        return Or((And((Var("a"), Not(Var("b")))), Const(True)))
    for make in (tree, lambda: Var("a"), lambda: Not(Var("a")), lambda: Const(False)):
        first, second = make(), make()
        assert first is not second and first == second and hash(first) == hash(second)
        assert {first: "found"}[second] == "found"
        assert copy.deepcopy(first) == pickle.loads(pickle.dumps(first)) == second
    assert Var("a") != Const("a") and Not(Var("a")) != Var("a")


def test_the_values_that_hashed_before_still_hash_and_the_others_do_not(pack):
    eqs = pack.rules_by_id["UK-HC-103"].equations
    hash(build_bn(eqs))
    hash(build_lawmap(eqs))
    for unhashable in (eqs, eqs.table, ValidationReport("r", 0), _report()):
        with pytest.raises(TypeError):
            hash(unhashable)


def _frozen_values(pack):
    """An instance of each frozen class that is not a tuple, with one of its
    fields."""
    eqs = pack.rules_by_id["UK-HC-103"].equations
    a = Var("a")
    return [(a, "id"), (Not(a), "child"), (And((a, a)), "children"), (Or((a, a)), "children"),
            (Const(True), "value"), (eqs, "equations"), (build_bn(eqs), "nodes"),
            (build_lawmap(eqs), "edges")]


def test_a_frozen_value_refuses_assignment(pack):
    for value, field in _frozen_values(pack):
        before = getattr(value, field)
        for name in (field, "new_attribute"):
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before


def _report(**fields):
    return ComplianceReport("0.1.0", "pack", "sha", [], [], {}, {}, **fields)


def test_each_record_gets_its_own_default_containers():
    for make, names in ((lambda: VariableTable("r"), ("variables", "paths")),
                        (lambda: ValidationReport("r", 0), ("divergences", "equation_checks")),
                        (_report, ("rule_outcomes", "rule_groups"))):
        first, second = make(), make()
        for name in names:
            container = getattr(first, name)
            assert container in ([], {}) and container is not getattr(second, name)
            if isinstance(container, list):
                container.append("x")
            else:
                container["x"] = "x"
        assert make() == second != first


def test_a_record_takes_each_field_once_by_position_or_keyword():
    assert VariableTable("r", {}, {}) == VariableTable(paths={}, rule_id="r")
    assert _report(generated_at="now").generated_at == "now"
    for args, kwargs in (((), {}), (("r",), {"rule_id": "r"}), (("r",), {"nope": 1}),
                         (("r", {}, {}, {}), {})):
        with pytest.raises(TypeError):
            VariableTable(*args, **kwargs)
