"""The event model of a deferred choice and the rules every executor shares.

A deferred choice races a set of external events: messages (explicit,
delivered by transactions), absolute / relative timers, and conditional
events over the valuation of external variables. An event is detected from
the activation of its choice on. This module holds the event kinds, the
binding rule (``check_bindings``) that scenarios and contracts apply, and
the rules the contracts and the ground truth call, which differ only in
how they date what they detect: ``prefer``, ``timer_fire`` and the one
decision rule ``decide``. The continual and transaction-driven executors
over dense traces, against which the ground truth is tested, live with
the tests as their reference.

Timestamps and data values are unsigned 64-bit words. ``NEVER`` is the
largest representable word and doubles as the "not detected" sentinel;
reachable timestamps are strictly below it.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from . import expr as exprlang

NEVER = 2**64 - 1
DATA_MAX = NEVER


class SemanticsError(Exception):
    """Base class for semantic-layer failures."""


class ContractViolation(SemanticsError):
    """An operation was called outside its precondition."""


# --- events ---------------------------------------------------------------


@dataclass(frozen=True)
class Message:
    """Explicit event delivered by an external actor's transaction."""


@dataclass(frozen=True)
class AbsoluteTimer:
    deadline: int


@dataclass(frozen=True)
class RelativeTimer:
    delta: int


@dataclass(frozen=True)
class Conditional:
    condition: exprlang.Expr


EventKind = Message | AbsoluteTimer | RelativeTimer | Conditional

# wire name of each event kind in scenario files and reports
KIND_NAMES: dict[type, str] = {
    Message: "message",
    AbsoluteTimer: "absolute-timer",
    RelativeTimer: "relative-timer",
    Conditional: "conditional",
}


@dataclass(frozen=True)
class EventSpec:
    id: int
    kind: EventKind


def check_events(events: Sequence[EventSpec]) -> None:
    if not events:
        raise ContractViolation("a deferred choice needs at least one event")
    ids = [event.id for event in events]
    if ids != list(range(len(events))):
        raise ContractViolation(f"event ids must be 0..{len(events) - 1}, got {ids}")


def check_bindings(
    events: Sequence[EventSpec],
    bound: Mapping[int, Hashable],
    one_per_oracle: bool,
    oracle_of: Callable[[Hashable], Any] = lambda oracle: oracle,
) -> None:
    """The binding rule of a deferred choice: its event ids run 0..k-1, each
    conditional event and no other is bound to an oracle (``bound[id]``, or
    what ``oracle_of`` resolves it to) whose ``variable`` its condition names
    exactly, and with ``one_per_oracle`` (push delivery) no two share one."""
    check_events(events)
    conditions = {e.id: e.kind.condition for e in events if isinstance(e.kind, Conditional)}
    shared: set[Hashable] = set()
    for event_id, condition in conditions.items():
        if event_id not in bound:
            raise ContractViolation(f"conditional event {event_id} lacks an oracle binding")
        variable = oracle_of(bound[event_id]).variable
        if one_per_oracle and bound[event_id] in shared:
            raise ContractViolation(
                "push delivery allows one subscription per oracle, but the oracle of "
                f"{variable!r} binds two events"
            )
        shared.add(bound[event_id])
        referenced = exprlang.variables(condition)
        if referenced != {variable}:
            raise ContractViolation(
                f"event {event_id} references {sorted(referenced)} but the bound oracle "
                f"provides {[variable]}"
            )
    for event_id in bound:
        if event_id not in conditions:
            raise ContractViolation(
                f"oracle binding for event {event_id!r}, which is not a conditional event"
            )


# --- shared rules -----------------------------------------------------------


def timer_fire(kind: AbsoluteTimer | RelativeTimer, activation_t: int) -> int:
    """When a timer of a choice activated at ``activation_t`` is detected:
    its deadline, or ``activation_t + delta``. Events are detected from
    activation on, so a deadline already past fires at activation."""
    if isinstance(kind, AbsoluteTimer):
        return max(kind.deadline, activation_t)
    return activation_t + kind.delta


def prefer(
    preferred_at: dict[int, int], at: int, preferred: int | None, message_event: int | None = None
) -> None:
    """Record the tie-break preference of a choice transaction at ``at`` in
    ``preferred_at``: the event it names, else the message it delivers. The
    first transaction at a timestamp that names one sets it, and it breaks
    only a tie at that timestamp."""
    named = message_event if preferred is None else preferred
    if named is not None:
        preferred_at.setdefault(at, named)


def decide(detected: Mapping[int, int], preferred_at: Mapping[int, int]) -> tuple[int, int, bool]:
    """The decision rule of a deferred choice over its non-empty
    ``detected`` record (event id -> detection timestamp): the earliest
    detection wins, and of events tied with it the preference at that
    timestamp, if it is one of them, else the lowest id. Returns the winner,
    its timestamp and whether another event tied with it."""
    at = min(detected.values())
    tied = [event_id for event_id, detected_at in detected.items() if detected_at == at]
    preferred = preferred_at.get(at)
    return (preferred if preferred in tied else min(tied)), at, len(tied) > 1
