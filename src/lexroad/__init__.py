"""Structured-English road rules as executable logic.

Pipeline: parse a rule (``rule_dsl``), compile it to one Boolean equation
per decision (``boolean_core``), draw and trace the decision flow
(``lawmap``), validate the logic as a deterministic Bayesian network
(``bayes_net``), and evaluate vehicle capability profiles against the
shipped rulepack (``rulepack``, ``compliance``).  The ``lexroad`` CLI ties
the stages together.
"""

__version__ = "0.1.0"

from .rule_dsl import (  # noqa: F401
    Clause,
    Connective,
    RuleAst,
    RuleSource,
    Variable,
    VariableTable,
    VarKind,
    assign_variables,
    load_rule_file,
    parse_rule,
    parse_rule_text,
    pretty_print,
)
from .boolean_core import (  # noqa: F401
    And,
    BoolExpr,
    Const,
    FALSE,
    Not,
    Or,
    RuleEquations,
    TRUE,
    Var,
    check_properties,
    compile_rule,
    equations_to_text,
    evaluate,
    normalize,
    parse_equations,
    to_text,
)
from .lawmap import (  # noqa: F401
    LawmapEdge,
    LawmapGraph,
    LawmapNode,
    build_lawmap,
    export_dot,
    export_json,
    graph_from_json,
    trace_path,
)
from .bayes_net import (  # noqa: F401
    BayesNet,
    BnNode,
    BnNodeKind,
    build_bn,
    infer,
    net_from_json,
    net_to_json,
    validate_bn,
)
from .rulepack import (  # noqa: F401
    Answer,
    CapabilityProfile,
    CapabilityRequirement,
    Rag,
    RagRating,
    Rulepack,
    default_pack_dir,
    load_profile,
    load_rulepack,
    rate,
)
