"""Every error lexroad raises for a bad input, and the CLI exit code of each.

Each stage imports the errors it raises, so ``rule_dsl.RuleSyntaxError``
and the like still name them; ``EXIT_CODES`` maps each one to its code, and
the CLI reads it without importing any stage.
"""

from __future__ import annotations

EXIT_OK, EXIT_PARSE, EXIT_COMPILE, EXIT_SCENARIO, EXIT_INFERENCE, EXIT_RULEPACK = range(6)


class RuleSyntaxError(Exception):
    """Malformed rule text, with the position the parse failed at."""

    def __init__(self, message: str, line: int = 0, col: int = 0, file: str = "<rule>"):
        self.message = message
        self.line = line
        self.col = col
        self.file = file
        super().__init__(f"{file}:{line}:{col}: error: {message}")


class DuplicateLabelError(RuleSyntaxError):
    def __init__(self, label: str, line: int = 0, col: int = 0, file: str = "<rule>"):
        self.label = label
        super().__init__(f"duplicate label '{label}'", line, col, file)


class NamingConflictError(Exception):
    """Two clauses with different text were mapped to the same variable id."""

    def __init__(self, var_id: str, detail: str = ""):
        self.var_id = var_id
        super().__init__(f"naming conflict on '{var_id}'" + (f": {detail}" if detail else ""))


class UnboundVariableError(Exception):
    def __init__(self, var_id: str):
        self.var_id = var_id
        super().__init__(f"no variable assigned for '{var_id}'")


class NoOutcomeError(Exception):
    pass


class CyclicDefinitionError(Exception):
    def __init__(self, var_id: str, line: int | None = None):
        self.var_id = var_id
        at = "" if line is None else f"line {line}: "
        super().__init__(f"{at}decision '{var_id}' is used before (or within) its own definition")


class EquationSyntaxError(Exception):
    pass


class UnknownScenarioVariableError(Exception):
    def __init__(self, rule_id: str, unknown: tuple[str, ...], kind: str = "unknown variables",
                 source: str = "scenario"):
        self.rule_id = rule_id
        self.unknown = unknown
        super().__init__(f"{source} for {rule_id} names {kind}: {', '.join(unknown)}")


class InconsistentInputsError(Exception):
    pass


class IncompleteAssignmentError(Exception):
    def __init__(self, missing: tuple[str, ...]):
        self.missing = missing
        super().__init__(f"assignment missing condition variables: {', '.join(missing)}")


class ImpossibleEvidenceError(Exception):
    pass


class GoldenMismatchError(Exception):
    def __init__(self, rule_id: str, decision: str | None, witness: dict[str, bool] | None):
        self.rule_id = rule_id
        self.decision = decision
        self.witness = witness
        detail = f" on {decision}" if decision else ""
        if witness:
            detail += f" at {witness}"
        super().__init__(f"compiled equations for {rule_id} diverge from golden set{detail}")


class IncompleteProfileError(Exception):
    def __init__(self, vehicle_id: str, missing: tuple[str, ...]):
        self.vehicle_id = vehicle_id
        self.missing = missing
        super().__init__(f"profile {vehicle_id} lacks answers for: {', '.join(missing)}")


class DuplicateProfileError(Exception):
    def __init__(self, vehicle_id: str):
        self.vehicle_id = vehicle_id
        super().__init__(f"two profiles for vehicle '{vehicle_id}'")


EXIT_CODES: dict[type[Exception], int] = {
    **dict.fromkeys((RuleSyntaxError, DuplicateLabelError, EquationSyntaxError), EXIT_PARSE),
    **dict.fromkeys((NamingConflictError, UnboundVariableError, NoOutcomeError,
                     InconsistentInputsError), EXIT_COMPILE),
    **dict.fromkeys((UnknownScenarioVariableError, IncompleteAssignmentError), EXIT_SCENARIO),
    **dict.fromkeys((CyclicDefinitionError, ImpossibleEvidenceError), EXIT_INFERENCE),
    **dict.fromkeys((GoldenMismatchError, IncompleteProfileError, DuplicateProfileError),
                    EXIT_RULEPACK),
}
