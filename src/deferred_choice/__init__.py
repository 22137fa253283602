"""Deterministic simulator for the deferred-choice pattern on
transaction-driven ledgers."""

from .choice import DeferredChoiceContract
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
    gas_cost,
)
from .oracles import (
    ALL_VARIANTS,
    Answer,
    Architecture,
    Delivery,
    History,
    HistoryEntry,
    OracleProvider,
    OracleQuery,
    OracleVariant,
    SemanticsKind,
    Subscription,
    earliest_satisfied,
    make_oracle_contract,
)
from .scenario import (
    Action,
    ChoiceDecl,
    ExperimentReport,
    OracleDecl,
    Scenario,
    ScenarioError,
    ground_truth_winner,
    induced_trace,
    run,
)
from .semantics import (
    NEVER,
    AbsoluteTimer,
    ChoiceState,
    Conditional,
    ContractViolation,
    EnvironmentState,
    EnvironmentTrace,
    EventSpec,
    Message,
    RelativeTimer,
    TimestampOverflow,
    continual_step,
    detect,
    detected_set,
    earliest_any_detection,
    earliest_detection,
    initial_state,
    run_continual,
    successor,
    transaction_step,
)

__all__ = [name for name in dir() if not name.startswith("_")]
