"""Deterministic simulator for the deferred-choice pattern on
transaction-driven ledgers."""

from .choice import DeferredChoiceContract, make_choice_contract
from .expr import (
    And,
    Comparison,
    Expr,
    ExprError,
    ExprEvalError,
    ExprSyntaxError,
    Not,
    Or,
    evaluate,
    parse,
    render,
    variables,
)
from .ledger import (
    Chain,
    GasSchedule,
    LogEntry,
    Receipt,
    Revert,
    Transaction,
    UnknownContractError,
)
from .oracles import (
    ALL_VARIANTS,
    Answer,
    Architecture,
    Delivery,
    History,
    OracleProvider,
    OracleVariant,
    SemanticsKind,
    make_oracle_contract,
)
from .scenario import (
    Action,
    ChoiceDecl,
    ExperimentReport,
    OracleDecl,
    Scenario,
    ScenarioError,
    ground_truth,
    run,
)
from .semantics import (
    NEVER,
    AbsoluteTimer,
    Conditional,
    ContractViolation,
    EventSpec,
    Message,
    RelativeTimer,
    decide,
    prefer,
    timer_fire,
)

__all__ = [name for name in dir() if not name.startswith("_")]
