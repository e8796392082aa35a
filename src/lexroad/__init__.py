"""Structured-English road rules as executable logic.

Pipeline: parse a rule (``rule_dsl``), compile it to one Boolean equation
per decision (``boolean_core``), draw and trace the decision flow
(``lawmap``), validate the logic as a deterministic Bayesian network
(``bayes_net``), and evaluate vehicle capability profiles against the
shipped rulepack (``rulepack``, ``compliance``).  The ``lexroad`` CLI ties
the stages together; ``errors`` holds every error a stage raises.

Importing the package imports no stage: each public name below is read
from its module on first use (PEP 562), so ``from lexroad import
compile_rule`` loads ``boolean_core`` and what it imports, not ``lawmap``,
``bayes_net``, ``rulepack`` or ``compliance``.
"""

__version__ = "0.1.0"

# module → the public names the package gives for it
_NAMES = {
    "rule_dsl": "Clause Connective RuleAst RuleSource Variable VariableTable VarKind "
                "assign_variables load_rule_file parse_rule parse_rule_text pretty_print",
    "boolean_core": "And BoolExpr Const FALSE Not Or RuleEquations TRUE Var check_properties "
                    "compile_rule equations_to_text evaluate normalize parse_equations to_text",
    "lawmap": "LawmapEdge LawmapGraph LawmapNode build_lawmap export_dot export_json trace_path",
    "bayes_net": "BayesNet BnNode BnNodeKind build_bn infer net_to_json validate_bn",
    "rulepack": "Answer CapabilityProfile CapabilityRequirement Rag RagRating Rulepack "
                "default_pack_dir load_profile load_rulepack rate",
}
_HOME = {name: module for module, names in _NAMES.items() for name in names.split()}


def __getattr__(name: str):
    from importlib import import_module

    if name in _NAMES:  # a stage, as ``lexroad.lawmap`` after ``import lexroad``
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
