"""Reference executors: the paper's two deferred-choice semantics over dense
environment traces.

The environment is a sequence of states, each a timestamp plus a valuation
of external variables. A deferred choice races a set of external events
(``deferred_choice.semantics``). Two executors are stated here:

* the continual semantics observes every successor state and picks a winner
  the moment any event is detected;
* the transaction-driven semantics tolerates observation gaps and picks the
  winner by ranking events on the earliest timestamp each one could have
  been detected within the observed window.

Every event, timers included, is detected by testing it state by state from
activation on, so this module states the timer rule independently of
``semantics.timer_fire``. The tests check the package's closed-form ground
truth (``scenario.ground_truth``) against ``run_continual`` over the trace
``induced_trace`` builds, and the oracle histories against
``earliest_satisfied`` and the pair codec ``encode_pairs``/``decode_pairs``
(and ``decode_bool``, the boolean answer word).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from deferred_choice import expr as exprlang
from deferred_choice import wordcodec
from deferred_choice.semantics import (
    NEVER,
    AbsoluteTimer,
    ContractViolation,
    EventSpec,
    Message,
    RelativeTimer,
    SemanticsError,
    check_events,
)

ExplicitLog = Sequence[tuple[int, int]]  # (event id, timestamp) per delivered message


class TimestampOverflow(SemanticsError):
    """Advancing time would leave the representable range; fatal."""


@dataclass(frozen=True)
class EnvironmentState:
    """A timestamp plus the valuation of all external variables."""

    t: int
    nu: Mapping[str, int]

    def __post_init__(self) -> None:
        if not 0 <= self.t < NEVER:
            raise ContractViolation(f"timestamp out of range: {self.t}")


def successor(state: EnvironmentState, nu_next: Mapping[str, int]) -> EnvironmentState:
    """The state one time unit later, carrying the given valuation."""
    if state.t + 1 >= NEVER:
        raise TimestampOverflow("timestamp overflow while advancing the environment")
    return EnvironmentState(state.t + 1, dict(nu_next))


class EnvironmentTrace:
    """A successor-chained run of environment states.

    The first state is the activation state of the choice under
    consideration; a single-state trace is legal.
    """

    def __init__(self, states: Iterable[EnvironmentState]):
        self.states: tuple[EnvironmentState, ...] = tuple(states)
        if not self.states:
            raise ContractViolation("a trace needs at least one state")
        for previous, current in zip(self.states, self.states[1:]):
            if current.t != previous.t + 1:
                raise ContractViolation(
                    f"trace is not successor-chained at t={previous.t}"
                )

    @property
    def start(self) -> EnvironmentState:
        return self.states[0]

    @property
    def end(self) -> EnvironmentState:
        return self.states[-1]

    def state_at(self, t: int) -> EnvironmentState:
        offset = t - self.start.t
        if not 0 <= offset < len(self.states):
            raise ContractViolation(f"timestamp {t} outside trace")
        return self.states[offset]

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)


@dataclass(frozen=True)
class ChoiceState:
    """Activation state, last observed state, and the winner once decided."""

    activation: EnvironmentState
    observed: EnvironmentState
    winner: int | None

    def __post_init__(self) -> None:
        if self.activation.t > self.observed.t:
            raise ContractViolation("observed state precedes activation")


# --- detection ------------------------------------------------------------


def detect(
    event: EventSpec,
    activation: EnvironmentState,
    state: EnvironmentState,
    explicit_now: frozenset[int] | set[int],
) -> bool:
    """Whether the event can be detected in ``state`` given activation."""
    kind = event.kind
    if isinstance(kind, Message):
        return event.id in explicit_now
    if isinstance(kind, AbsoluteTimer):
        return state.t >= kind.deadline
    if isinstance(kind, RelativeTimer):
        return state.t >= activation.t + kind.delta
    return exprlang.evaluate(kind.condition, state.nu)


def detected_set(
    events: Sequence[EventSpec],
    activation: EnvironmentState,
    state: EnvironmentState,
    explicit_now: frozenset[int] | set[int],
) -> set[int]:
    return {e.id for e in events if detect(e, activation, state, explicit_now)}


def pick_winner(detected: set[int], preferred: int | None) -> int | None:
    """The tie-break, stated here apart from ``semantics.decide``: the
    preferred event if detected, else the lowest id; None if none is."""
    if not detected:
        return None
    if preferred is not None and preferred in detected:
        return preferred
    return min(detected)


def initial_state(
    events: Sequence[EventSpec],
    state: EnvironmentState,
    explicit_now: frozenset[int] | set[int],
    preferred: int | None = None,
) -> ChoiceState:
    """Activate the choice in ``state``; an immediate detection decides the race."""
    winner = pick_winner(detected_set(events, state, state, explicit_now), preferred)
    return ChoiceState(state, state, winner)


def continual_step(
    choice: ChoiceState,
    events: Sequence[EventSpec],
    s_next: EnvironmentState,
    explicit_now: frozenset[int] | set[int],
    preferred: int | None = None,
) -> ChoiceState:
    """Advance by exactly one environment state; no gaps allowed."""
    if choice.winner is not None:
        raise ContractViolation("choice already decided")
    if s_next.t != choice.observed.t + 1:
        raise ContractViolation(
            f"continual step requires the direct successor of t={choice.observed.t}"
        )
    winner = pick_winner(
        detected_set(events, choice.activation, s_next, explicit_now), preferred
    )
    return ChoiceState(choice.activation, s_next, winner)


# --- timed detection ------------------------------------------------------


def _message_log_times(event_id: int, log: ExplicitLog, activation_t: int) -> list[int]:
    times = []
    for logged_id, at in log:
        if at < activation_t:
            raise ContractViolation(
                f"explicit event {logged_id} logged at {at}, before activation {activation_t}"
            )
        if logged_id == event_id:
            times.append(at)
    return times


def earliest_detection(
    event: EventSpec,
    activation: EnvironmentState,
    history: EnvironmentTrace,
    explicit_log: ExplicitLog,
) -> int:
    """Earliest timestamp the event could have been detected in the window.

    The window runs from the activation state (the first state of
    ``history``) to its last state; NEVER means no detection in the window.
    A message is read from the log; a timer or a condition is tested state
    by state with ``detect``.
    """
    if history.start.t != activation.t:
        raise ContractViolation("history must start at the activation state")
    if isinstance(event.kind, Message):
        horizon = history.end.t
        times = [t for t in _message_log_times(event.id, explicit_log, activation.t) if t <= horizon]
        return min(times) if times else NEVER
    for state in history:
        if detect(event, activation, state, frozenset()):
            return state.t
    return NEVER


def earliest_any_detection(
    events: Sequence[EventSpec],
    activation: EnvironmentState,
    history: EnvironmentTrace,
    explicit_log: ExplicitLog,
) -> int:
    """Minimum earliest detection over all events; NEVER when none detected."""
    return min(
        (earliest_detection(e, activation, history, explicit_log) for e in events),
        default=NEVER,
    )


def transaction_step(
    choice: ChoiceState,
    events: Sequence[EventSpec],
    s_now: EnvironmentState,
    history: EnvironmentTrace,
    explicit_log: ExplicitLog,
    preferred: int | None = None,
) -> ChoiceState:
    """Advance across an observation gap, ranking events by earliest detection.

    ``history`` must span activation up to ``s_now`` inclusive. The winner,
    if any, minimizes the earliest detection time; ties go to the preferred
    event, then the lowest event id.
    """
    if choice.winner is not None:
        raise ContractViolation("choice already decided")
    if s_now.t <= choice.observed.t:
        raise ContractViolation(
            f"transaction step must move forward (observed t={choice.observed.t})"
        )
    if history.start.t != choice.activation.t or history.end.t != s_now.t:
        raise ContractViolation("history must span activation..s_now")
    detections = {
        e.id: earliest_detection(e, choice.activation, history, explicit_log)
        for e in events
    }
    best = min(detections.values(), default=NEVER)
    if best == NEVER:
        return ChoiceState(choice.activation, s_now, None)
    pool = {eid for eid, at in detections.items() if at == best}
    return ChoiceState(choice.activation, s_now, pick_winner(pool, preferred))


# --- reference executor ---------------------------------------------------


def _explicit_by_time(log: ExplicitLog) -> dict[int, set[int]]:
    by_time: dict[int, set[int]] = {}
    for event_id, at in log:
        by_time.setdefault(at, set()).add(event_id)
    return by_time


def run_continual(
    events: Sequence[EventSpec],
    trace: EnvironmentTrace,
    explicit_log: ExplicitLog = (),
    preferred_by_time: Mapping[int, int] | None = None,
) -> ChoiceState:
    """Execute the continual semantics over a full trace; stop at the winner.

    ``preferred_by_time`` carries per-timestamp tie-break preferences, as
    ``semantics.prefer`` records them from the choice's transactions.
    """
    check_events(events)
    for _, at in explicit_log:
        if at < trace.start.t:
            raise ContractViolation(
                f"explicit event logged at {at}, before activation {trace.start.t}"
            )
    preferred_by_time = dict(preferred_by_time or {})
    by_time = _explicit_by_time(explicit_log)
    start = trace.start
    choice = initial_state(
        events, start, by_time.get(start.t, set()), preferred_by_time.get(start.t)
    )
    for state in trace.states[1:]:
        if choice.winner is not None:
            break
        choice = continual_step(
            choice,
            events,
            state,
            by_time.get(state.t, set()),
            preferred_by_time.get(state.t),
        )
    return choice


# --- scenarios and oracle histories ----------------------------------------


def induced_trace(scenario, start: int, end: int) -> EnvironmentTrace:
    """Environment trace from the timeline: valuations change at update steps."""
    updates: dict[int, list[tuple[int, int]]] = {}
    for action in scenario.timeline:
        if action.kind == "update":
            updates.setdefault(action.step, []).append((action.oracle, action.value))
    values = {decl.variable: 0 for decl in scenario.oracles}
    states = []
    for step in range(1, end + 1):
        for oracle_index, value in updates.get(step, ()):
            values[scenario.oracles[oracle_index].variable] = value
        if step >= start:
            states.append(EnvironmentState(step, dict(values)))
    return EnvironmentTrace(states)


class HistoryEntry(NamedTuple):
    """One change point of a step-function variable."""

    at: int
    value: int


def earliest_satisfied(
    entries: list[HistoryEntry],
    from_ts: int,
    condition: exprlang.Expr,
    variable: str,
) -> tuple[int, int]:
    """Earliest timestamp >= from_ts at which the condition holds, or NEVER.

    Walks the change points of the step-function variable, starting with the
    one in force when the window opens. Returns ``(timestamp, visited)``
    where ``visited`` counts the entries examined.
    """
    times = [entry.at for entry in entries]
    start = max(bisect_right(times, from_ts) - 1, 0)
    for index in range(start, len(entries)):
        if exprlang.evaluate(condition, {variable: entries[index].value}):
            return max(times[index], from_ts), index - start + 1
    return NEVER, len(entries) - start


def encode_pairs(pairs: Iterable[tuple[int, int]]) -> bytes:
    """A history slice: a count word, then each ``(at, value)`` word pair."""
    items = list(pairs)
    return wordcodec.encode_words(len(items), *(word for pair in items for word in pair))


def decode_pairs(data: bytes, index: int = 0) -> list[tuple[int, int]]:
    """The ``(at, value)`` pairs of the history slice at word ``index``."""
    count = wordcodec.decode_word(data, index)
    return [
        (wordcodec.decode_word(data, index + 1 + 2 * i), wordcodec.decode_word(data, index + 2 + 2 * i))
        for i in range(count)
    ]


def decode_bool(data: bytes, index: int = 0) -> bool:
    """A boolean word, as a conditional current-value answer carries it."""
    return wordcodec.decode_word(data, index) != 0


_NEGATED_OP = {"<": ">=", "<=": ">", "==": "!=", "!=": "==", ">=": "<", ">": "<="}


def negate_comparison(expr: exprlang.Comparison) -> exprlang.Comparison:
    """The comparison with the logically opposite operator."""
    return exprlang.Comparison(expr.var, _NEGATED_OP[expr.op], expr.value)
