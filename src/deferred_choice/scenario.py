"""Scenario definition and deterministic replay.

A scenario fixes the oracle variant, the execution semantics, the deferred
choices with their event sets and oracle bindings, and a timeline of
actions: external-variable updates, activations, triggers, and messages.
Replaying a scenario drives a fresh chain plus providers step by step,
mining only the blocks that hold a transaction, and then reports, per
choice, the on-chain winner next to the ground-truth winner of the
continual semantics over the environment induced from the timeline
(timestamps from step indices, valuations piecewise-constant between
updates). Each replay computes the ground truth afresh (``ground_truth``)
in one walk of the timeline, each variable's updates filled in bulk into an
``oracles.History`` of change points; the tests check it against a dense
continual executor run state by state over the whole induced environment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Any, NamedTuple

from . import expr as exprlang
from .choice import DeferredChoiceContract, encode_activate, encode_trigger
from .ledger import Chain, GasSchedule, Receipt, Transaction
from .oracles import (
    Delivery,
    History,
    OracleError,
    OracleProvider,
    OracleVariant,
    SemanticsKind,
    make_oracle_contract,
)
from .semantics import (
    DATA_MAX,
    KIND_NAMES,
    NEVER,
    AbsoluteTimer,
    Conditional,
    ContractViolation,
    EventSpec,
    Message,
    RelativeTimer,
    check_bindings,
    decide,
    prefer,
    timer_fire,
)

SIM_ACCOUNT = "sim"
_KIND_TYPES = {name: kind for kind, name in KIND_NAMES.items()}


class ScenarioError(ValueError):
    """Scenario failed validation or deserialization."""


def _in_range(value: Any, stop: int) -> bool:
    """Whether ``value`` is an int, not a bool, in ``range(stop)``."""
    return type(value) is int and 0 <= value < stop


@dataclass(frozen=True)
class OracleDecl:
    """An oracle of a scenario, named by the variable it reports."""
    variable: str


@dataclass(frozen=True)
class ChoiceDecl:
    """A deferred choice: its events and the oracle of each conditional one."""
    events: tuple[EventSpec, ...]
    oracle_for_event: dict[int, int] = field(default_factory=dict)


class Action(NamedTuple):
    step: int
    kind: str  # update | activate | trigger | message
    oracle: int | None = None
    value: int | None = None
    choice: int | None = None
    preferred: int | None = None
    event: int | None = None


# per kind, the indexes of the ``Action`` fields it must leave unset
_UNTAKEN_FIELDS = {"update": (4, 5, 6), "activate": (2, 3, 6), "trigger": (2, 3, 6),
                   "message": (2, 3)}


@dataclass(frozen=True)
class Scenario:
    """A scenario: variant, semantics, oracles, choices and a timeline of actions."""
    scenario_id: str
    variant: OracleVariant
    semantics: SemanticsKind
    oracles: tuple[OracleDecl, ...]
    choices: tuple[ChoiceDecl, ...]
    timeline: tuple[Action, ...]
    seed: int = 0
    # set by a passing ``validate``; not a field, so copies made with
    # ``dataclasses.replace`` start unvalidated
    _validated = False
    # the scenario a ``with_variant`` copy was made from, and the file text
    # after the header that ``to_json`` keeps on it; neither is a field
    _origin = None
    _body = None

    def validate(self) -> None:
        if not isinstance(self.scenario_id, str):
            raise ScenarioError(f"bad id {self.scenario_id!r}: ids are strings")
        if type(self.seed) is not int:
            raise ScenarioError(f"bad seed {self.seed!r}: seeds are integers")
        if self.semantics != self.variant.semantics:
            raise ScenarioError(
                f"{self.variant.id} cannot run under {self.semantics.value} semantics"
            )
        for decl in self.oracles:
            # a condition names the variable, so it must read as one
            if not isinstance(decl.variable, str) or not exprlang.IDENTIFIER.fullmatch(decl.variable):
                raise ScenarioError(f"bad variable {decl.variable!r}: variables are identifiers")
        # the ground truth keys change points by variable name
        if len({decl.variable for decl in self.oracles}) != len(self.oracles):
            raise ScenarioError("oracle variables must be distinct names")
        one_subscription = self.variant.architecture.delivery is Delivery.PUSH
        for decl in self.choices:
            try:
                check_bindings(decl.events, decl.oracle_for_event, one_subscription, self._oracle)
            except ContractViolation as error:
                raise ScenarioError(str(error)) from None
            for event in decl.events:
                kind = event.kind
                if isinstance(kind, AbsoluteTimer) and not _in_range(kind.deadline, DATA_MAX + 1):
                    raise ScenarioError(f"event {event.id}: bad deadline {kind.deadline!r}")
                if isinstance(kind, RelativeTimer) and not _in_range(kind.delta, DATA_MAX + 1):
                    raise ScenarioError(f"event {event.id}: bad delta {kind.delta!r}")
        oracle_count, choices = len(self.oracles), self.choices
        last_step = 0
        update_seen: dict[int, int] = {}  # per oracle: the step of its latest update
        choice_tx_seen: dict[int, int] = {}  # per choice: the step of its latest transaction
        first_update: dict[int, int] = {}
        activation_step: dict[int, int] = {}
        first_message: dict[int, int] = {}
        for action in self.timeline:
            step, kind, oracle, value, choice, preferred, event = action
            if type(step) is not int or not 0 < step < NEVER:  # NEVER: "not detected"
                raise ScenarioError(f"bad step {step!r}: steps are integers from 1 to 2**64-2")
            if step < last_step:
                raise ScenarioError("timeline steps must be non-decreasing")
            last_step = step
            untaken = _UNTAKEN_FIELDS.get(kind) if type(kind) is str else None
            if untaken is None:
                raise ScenarioError(f"unknown action kind {kind!r}")
            for index in untaken:
                if action[index] is not None:
                    raise ScenarioError(
                        f"{kind} action at step {step} takes no {Action._fields[index]!r}"
                    )
            if kind == "update":
                if type(oracle) is not int or not 0 <= oracle < oracle_count:
                    raise ScenarioError(f"unknown oracle {oracle!r}")
                if type(value) is not int or not 0 <= value <= DATA_MAX:
                    raise ScenarioError(f"bad value {value!r}: values are 64-bit words")
                if update_seen.get(oracle) == step:
                    raise ScenarioError(f"oracle {oracle} updated twice at step {step}")
                update_seen[oracle] = step
                first_update.setdefault(oracle, step)
                continue
            if type(choice) is not int or not 0 <= choice < len(choices):
                raise ScenarioError(f"unknown choice {choice!r}")
            # one transaction per choice per block keeps tie-breaking
            # well-defined (the block's preferred event is unambiguous)
            if choice_tx_seen.get(choice) == step:
                raise ScenarioError(f"choice {choice} has two transactions at step {step}")
            choice_tx_seen[choice] = step
            events = choices[choice].events
            if kind == "activate":
                if choice in activation_step:
                    raise ScenarioError(f"choice {choice} activated twice")
                activation_step[choice] = step
                if choice in first_message:
                    raise ScenarioError(
                        f"choice {choice} has a message at step {first_message[choice]}, "
                        f"before its activation at step {step}"
                    )
            elif kind == "message":
                if type(event) is not int or not 0 <= event < len(events):
                    raise ScenarioError("message action needs a valid event id")
                if not isinstance(events[event].kind, Message):
                    raise ScenarioError(f"event {event} is not a message event")
                first_message.setdefault(choice, step)
            if preferred is not None and (type(preferred) is not int
                                          or not 0 <= preferred < len(events)):
                raise ScenarioError(f"unknown preferred event {preferred!r}")
        # the oracles a choice binds must be updated by its activation
        for index, activation in activation_step.items():
            for oracle in self.choices[index].oracle_for_event.values():
                first = first_update.get(oracle)
                if first is None or first > activation:
                    raise ScenarioError(f"oracle {oracle} has no update at or before activation")
        object.__setattr__(self, "_validated", True)

    def _oracle(self, index: Any) -> OracleDecl:
        if not _in_range(index, len(self.oracles)):
            raise ScenarioError(f"oracle index {index!r} out of range")
        return self.oracles[index]

    def with_variant(self, variant: OracleVariant) -> "Scenario":
        """A copy under ``variant`` and its semantics. Copies of one
        scenario, and copies of those, share the text ``to_json`` writes
        after the header, since the variant changes only the header."""
        copy = replace(self, variant=variant, semantics=variant.semantics)
        object.__setattr__(copy, "_origin", self._origin or self)
        return copy

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        """The scenario file of this scenario: the text ``json.dumps(obj,
        indent=2)`` writes for its JSON object, byte for byte, formatted
        directly from the schema. Keys keep the schema's order and an
        action lists only the fields it sets. ``from_json`` reads the text
        back to an equal scenario.

        The body after the header (the oracles, choices and timeline) is
        formatted once and kept on the scenario ``with_variant`` copies
        came from, so each further copy formats only its header."""
        origin = self._origin or self
        body = origin._body
        if body is None:
            oracles = [
                _block([f'"variable": {_scalar(o.variable)}'], "{}", _ITEM) for o in self.oracles
            ]
            choices = []
            for decl in self.choices:
                events = _block([_event_json(e, decl) for e in decl.events], "[]", _ITEM_KEY)
                choices.append(_block([f'"events": {events}'], "{}", _ITEM))
            timeline = [_action_json(a) for a in self.timeline]
            body = (
                f',\n  "oracles": {_block(oracles, "[]", _KEY)},'
                f'\n  "choices": {_block(choices, "[]", _KEY)},'
                f'\n  "timeline": {_block(timeline, "[]", _KEY)}\n}}'
            )
            object.__setattr__(origin, "_body", body)
        return (
            f'{{\n  "id": {_scalar(self.scenario_id)},\n  "variant": {_quote(self.variant.id)},'
            f'\n  "semantics": {_quote(self.semantics.value)},\n  "seed": {_scalar(self.seed)}'
            + body
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "Scenario":
        """The scenario of a scenario file's text, or of its bytes, which
        must be UTF-8; see ``from_obj``."""
        try:
            obj = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
        except (ValueError, RecursionError) as error:
            raise ScenarioError(f"not valid JSON: {error}") from None
        return cls.from_obj(obj)

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "Scenario":
        """The scenario a decoded scenario file describes, validated.

        Values are taken as they are, without conversion, and ``validate``
        checks them; a missing or unknown key, a value of the wrong type or
        a failed check raises ``ScenarioError``."""
        try:
            _check_keys(obj, _SCENARIO_KEYS, "scenario")
            variant = OracleVariant.parse(obj["variant"])
            semantics = SemanticsKind(obj["semantics"])
            oracles = []
            for oracle_obj in _array(obj, "oracles"):
                _check_keys(oracle_obj, _ORACLE_KEYS, "oracle")
                oracles.append(OracleDecl(oracle_obj["variable"]))
            choices = []
            for choice_obj in _array(obj, "choices"):
                _check_keys(choice_obj, _CHOICE_KEYS, "choice")
                events = []
                bindings: dict[int, int] = {}
                for eid, event_obj in enumerate(_array(choice_obj, "events")):
                    if not isinstance(event_obj, dict):
                        _object(event_obj, f"event {eid}")  # raises
                    kind_type = _KIND_TYPES.get(event_obj["kind"])
                    if kind_type is None:
                        raise ScenarioError(f"unknown event kind {event_obj['kind']!r}")
                    if not _EVENT_KEYS[kind_type].issuperset(event_obj):
                        _check_keys(event_obj, _EVENT_KEYS[kind_type], f"event {eid}")  # raises
                    if kind_type is Conditional:
                        kind: Any = Conditional(exprlang.parse(event_obj["expr"]))
                        bindings[eid] = event_obj["oracle"]
                    else:  # a message has no field, a timer its deadline or delta
                        kind = kind_type(*map(event_obj.__getitem__, _KIND_FIELDS[kind_type]))
                    events.append(EventSpec(eid, kind))
                choices.append(ChoiceDecl(tuple(events), bindings))
            actions = _array(obj, "timeline")
            for a in actions:
                if not (isinstance(a, dict) and _ACTION_KEYS.issuperset(a)):
                    _check_keys(a, _ACTION_KEYS, "action")  # raises
            # the bulk of a scenario file, so each action is built as the
            # plain tuple it is, without the named tuple's constructor
            timeline = [
                tuple.__new__(Action, (a["step"], a["action"], a.get("oracle"), a.get("value"),
                                       a.get("choice"), a.get("preferred"), a.get("event")))
                for a in actions
            ]
            scenario = cls(
                scenario_id=obj.get("id", "scenario"),
                variant=variant,
                semantics=semantics,
                oracles=tuple(oracles),
                choices=tuple(choices),
                timeline=tuple(timeline),
                seed=obj.get("seed", 0),
            )
        except ScenarioError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError, OracleError) as error:
            raise ScenarioError(f"malformed scenario: {error}") from None
        scenario.validate()
        return scenario


# --- scenario files -----------------------------------------------------------

# field names of each event kind but a condition, in the order its class
# takes them (a message has none); a condition is written as its text
_KIND_FIELDS = {
    kind: tuple(f.name for f in fields(kind)) for kind in KIND_NAMES if kind is not Conditional
}
# the keys each object of a scenario file may have; an action names its
# kind under "action"
_SCENARIO_KEYS = frozenset(("id", "variant", "semantics", "seed", "oracles", "choices", "timeline"))
_ORACLE_KEYS = frozenset(("variable",))
_CHOICE_KEYS = frozenset(("events",))
_EVENT_KEYS = {
    kind: frozenset(("kind", *(("expr", "oracle") if kind is Conditional else _KIND_FIELDS[kind])))
    for kind in KIND_NAMES
}
_ACTION_KEYS = frozenset(("step", "action", *Action._fields[2:]))
# an action writes its optional fields only when set
_ACTION_OPTIONAL_KEYS = tuple(f',\n      "{name}": ' for name in Action._fields[2:])
# indents of a scenario file: top-level keys, list items, item keys, and the
# items of a choice's events list
_KEY, _ITEM, _ITEM_KEY, _EVENT = "  ", "    ", "      ", "        "
_quote = json.encoder.encode_basestring_ascii


def _object(value: Any, where: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where} is not an object")
    return value


def _array(obj: dict[str, Any], key: str) -> list[Any]:
    """The JSON array under ``key``; an absent key reads []."""
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise ScenarioError(f"{key} is not an array")
    return value


def _check_keys(obj: Any, allowed: frozenset[str], where: str) -> None:
    if not allowed.issuperset(_object(obj, where)):
        unknown = ", ".join(sorted(repr(key) for key in obj if key not in allowed))
        raise ScenarioError(f"{where} has unknown keys {unknown}")


def _scalar(value: Any) -> str:
    """What ``json.dumps`` writes for a scalar; strings and ints directly."""
    if type(value) is int:
        return int.__repr__(value)
    if type(value) is str:
        return _quote(value)
    return json.dumps(value)


def _block(items: list[str], brackets: str, indent: str) -> str:
    """A JSON array (``brackets`` ``"[]"``) of formatted items or object
    (``"{}"``) of ``"key": value`` members, closing at ``indent``."""
    if not items:
        return brackets
    inner = ",\n" + indent + "  "
    return brackets[0] + inner[1:] + inner.join(items) + "\n" + indent + brackets[1]


def _event_json(event: EventSpec, decl: ChoiceDecl) -> str:
    kind = event.kind
    members = [f'"kind": {_quote(KIND_NAMES[type(kind)])}']
    if isinstance(kind, Conditional):
        members.append(f'"expr": {_quote(exprlang.render(kind.condition))}')
        members.append(f'"oracle": {_scalar(decl.oracle_for_event[event.id])}')
    else:
        for name in _KIND_FIELDS[type(kind)]:
            members.append(f'"{name}": {_scalar(getattr(kind, name))}')
    return _block(members, "{}", _EVENT)


def _action_json(action: Action) -> str:
    # the bulk of a scenario file, so formatted without ``_block``
    text = f'{{\n      "step": {_scalar(action.step)},\n      "action": {_scalar(action.kind)}'
    for key, value in zip(_ACTION_OPTIONAL_KEYS, action[2:]):
        if value is not None:
            text += key + _scalar(value)
    return text + "\n    }"


# --- ground truth -----------------------------------------------------------


def ground_truth(scenario: Scenario) -> list[tuple[int | None, int | None]]:
    """(winner, observed timestamp) of every choice per the continual semantics.

    Gives the result of the continual semantics over the environment the
    timeline induces from the activation to the last step, without building
    that trace: one pass over the timeline collects each variable's value
    at each step, which ``History.extend`` reduces to change points at once,
    and each choice's activation, messages and preferences (``prefer``);
    each event's first detection follows in closed form (``timer_fire``
    for a timer). A conditional event is evaluated at activation and then
    at its variable's later change points in time order, never past the
    earliest detection found, so it is evaluated at no more states than the
    dense executor visits. Choices that ask the same question share the
    history's ``Scan`` of it: change points one of them found unsatisfied
    are skipped, a hit one of them found is reused, and the scan goes no
    further than the furthest any of them needs. Expects a validated
    scenario; an unactivated choice yields ``(None, None)``.
    """
    oracles, timeline = scenario.oracles, scenario.timeline
    # per variable: its value from each step it is updated at, the last
    # update at a step winning; a variable reads 0 until its first update
    updates: dict[str, dict[int, int]] = {decl.variable: {0: 0} for decl in oracles}
    updates_of = [updates[decl.variable] for decl in oracles]
    activations: dict[int, int] = {}
    messages: dict[int, dict[int, int]] = {}  # per choice: each message's first step
    # per choice: the tie-break preference at each timestamp
    preferred_at: dict[int, dict[int, int]] = {}
    for step, kind, oracle, value, choice, preferred, event in timeline:
        if kind == "update":
            updates_of[oracle][step] = value
        else:
            if kind == "activate":
                activations.setdefault(choice, step)
            elif kind == "message":
                messages.setdefault(choice, {}).setdefault(event, step)
            prefer(preferred_at.setdefault(choice, {}), step, preferred, event)
    end = timeline[-1].step if timeline else 0  # the timeline is in step order
    histories: dict[str, History] = {}
    for name, values in updates.items():
        histories[name] = History(name)
        histories[name].extend(list(values), list(values.values()))

    results: list[tuple[int | None, int | None]] = []
    for index, decl in enumerate(scenario.choices):
        start = activations.get(index)
        if start is None:
            results.append((None, None))
            continue
        detected = dict(messages.get(index, {}))
        # (step, event id, change point in force from that step, scan)
        pending = []
        for event in decl.events:
            kind = event.kind
            if isinstance(kind, (AbsoluteTimer, RelativeTimer)):
                fire = timer_fire(kind, start)
                if fire <= end:
                    detected[event.id] = fire
            elif isinstance(kind, Conditional):
                history = histories[oracles[decl.oracle_for_event[event.id]].variable]
                scan = history.scan(start, kind.condition)
                pending.append((start, event.id, scan.start, scan))
        horizon = min(detected.values(), default=end)
        heapify(pending)
        while pending and pending[0][0] <= horizon:
            step, event_id, change, scan = heappop(pending)
            if scan.holds(change):
                detected[event_id] = step
                horizon = step  # events detected at this same step still join the pool
            elif scan.stop < len(scan.times):
                # no change point before ``stop`` satisfies it
                heappush(pending, (scan.times[scan.stop], event_id, scan.stop, scan))
        if not detected:
            results.append((None, end))
            continue
        winner, first, _ = decide(detected, preferred_at[index])
        results.append((winner, first))
    return results


# --- replay -----------------------------------------------------------------


@dataclass
class ChoiceOutcome:
    """What a replay decided for one choice, next to the ground truth."""
    choice: int
    winner: int | None
    truth: int | None
    # when the ground truth detects its winner: the last step if it detects
    # none, None if the choice is never activated
    truth_ts: int | None
    activation_ts: int | None
    observed_ts: int | None
    winner_detection_ts: int | None
    finalized_at: int | None

    @property
    def correct(self) -> bool:
        return self.winner == self.truth


@dataclass
class ExperimentReport:
    """The result of replaying one scenario: outcomes, gas and receipts."""
    scenario_id: str
    variant: OracleVariant
    consumers: int
    updates: int
    outcomes: list[ChoiceOutcome]
    gas_deploy: int
    gas_total: int
    receipts: list[Receipt]

    @property
    def gas_operating(self) -> int:
        return self.gas_total - self.gas_deploy

    @property
    def gas_per_consumer(self) -> float:
        return self.gas_operating / max(self.consumers, 1)

    @property
    def winner(self) -> int | None:
        return self.outcomes[0].winner if self.outcomes else None

    @property
    def truth(self) -> int | None:
        return self.outcomes[0].truth if self.outcomes else None

    @property
    def correct(self) -> bool:
        return all(outcome.correct for outcome in self.outcomes)


def _call(kind: str, preferred: int | None, event: int | None) -> tuple[str, bytes]:
    """The function and payload of a choice action's transaction."""
    if kind == "activate":
        return "activate", encode_activate(preferred)
    if kind == "trigger":
        return "try_trigger", encode_trigger(preferred, None)
    # message: the transaction names its own event as preferred
    return "try_trigger", encode_trigger(event if preferred is None else preferred, event)


_gas_used = attrgetter("gas_used")


def run(scenario: Scenario, schedule: GasSchedule | None = None) -> ExperimentReport:
    """Replay the scenario on a fresh chain; deterministic for a given input."""
    if not scenario._validated:
        scenario.validate()
    chain = Chain(schedule or GasSchedule())
    oracle_contracts = [
        make_oracle_contract(scenario.variant, decl.variable) for decl in scenario.oracles
    ]
    for contract in oracle_contracts:
        chain.deploy(contract)
    providers = [OracleProvider(chain, contract) for contract in oracle_contracts]
    # a sync oracle answers within the calling transaction and logs nothing
    # for its provider to react to
    reacting = [provider for provider in providers if not provider.variant.synchronous]
    choice_contracts = []
    for decl in scenario.choices:
        bindings = {eid: oracle_contracts[index] for eid, index in decl.oracle_for_event.items()}
        contract = DeferredChoiceContract(decl.events, scenario.variant, bindings)
        chain.deploy(contract)
        choice_contracts.append(contract)

    # one walk plans the replay: each step with its updates, then its choice
    # transactions, since within a block data changes precede choice
    # transactions and the induced ground-truth trace assumes the same order
    plan: list[tuple[int, list[Action], list[Action]]] = []
    step = None
    updates, setup = 0, None  # setup: updates before the step of the first activation
    for action in scenario.timeline:
        if action.step != step:
            step = action.step
            step_updates, step_calls = [], []
            plan.append((step, step_updates, step_calls))
            before = updates
        if action.kind == "update":
            step_updates.append(action)
            updates += 1
        else:
            step_calls.append(action)
            if setup is None and action.kind == "activate":
                setup = before
    blocks = iter(plan)
    block = next(blocks, None)
    # (kind, preferred, event) -> a transaction of that call: choices sent the
    # same call share one payload, validated once
    calls: dict[tuple[str, int | None, int | None], Transaction] = {}

    # mine while an action is left or a transaction is queued, skipping the
    # empty blocks before the next action; providers react only to
    # activations and wakes, never to callbacks and pushes, so the chain is
    # idle at most one block after the last action
    while block is not None or not chain.idle:
        if block is not None:
            chain.skip_empty_blocks(block[0] - 1)
        step = chain.height + 1
        if block is not None and block[0] == step:
            _, step_updates, step_calls = block
            for action in step_updates:
                providers[action.oracle].on_external_update(action.value, step)
            for action in step_calls:
                key = (action.kind, action.preferred, action.event)
                target = choice_contracts[action.choice].address
                call = calls.get(key)
                if call is None:
                    call = calls[key] = Transaction(SIM_ACCOUNT, target, *_call(*key))
                chain.submit(call.sent_to(target))
            block = next(blocks, None)
        receipts = chain.step()
        if receipts:
            for provider in reacting:
                provider.after_block(receipts)

    truths = ground_truth(scenario)
    outcomes = [
        ChoiceOutcome(
            choice=index, winner=contract.winner, truth=truth, truth_ts=truth_ts,
            activation_ts=contract.activation_ts, observed_ts=contract.observed_ts,
            winner_detection_ts=contract.winner_detection_ts, finalized_at=contract.finalized_at,
        )
        for index, (contract, (truth, truth_ts)) in enumerate(zip(choice_contracts, truths))
    ]
    return ExperimentReport(
        scenario_id=scenario.scenario_id,
        variant=scenario.variant,
        consumers=len(scenario.choices),
        # updates before the first activation initialize variables; they are
        # setup, not experiment load
        updates=updates - (setup or 0),
        outcomes=outcomes,
        gas_deploy=chain.deploy_gas_total,
        gas_total=chain.deploy_gas_total + sum(map(_gas_used, chain.receipts)),
        receipts=list(chain.receipts),
    )
