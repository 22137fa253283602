"""Deferred-choice consumer contracts.

A choice contract races its events on-chain. It keeps one record,
``detected``: each message, condition and fired timer enters it once,
dated when the contract first learns of it. ``_rank`` decides on that
record with ``semantics.decide`` once no unseen event could still come
first. The two axes of its oracle architecture (see ``oracles``) fix the
rest:

* the answer fixes how detections are dated, and so the semantics. The
  contract asks with the parameters its oracle contract builds
  (``OracleContract.params``) and hands each answer to that contract's
  ``dated``, which reads it as a timestamp, NEVER if not detected. With a
  history since activation (on-chain or off-chain history, pub/sub) a
  ``transaction-driven`` contract dates each event at the earliest
  timestamp it could have been detected, a timer at its fire time. With
  only the current value (storage, request-response) a ``continual``
  contract is the naive baseline: a condition that holds is dated at the
  answer's horizon, a fired timer at the wake that first sees it;
* the delivery fixes the transport and the entry points, and each delivery
  has its own contract class: a ``SyncChoice`` reads its oracles inline; a
  ``CallbackChoice`` issues correlated queries and takes ``oracle_callback``;
  a ``PushChoice`` subscribes at activation, takes ``push`` and accumulates
  pushed change points instead of querying. A class takes its bindings as
  checked: ``make_choice_contract`` checks them (``check_bindings``), and
  ``scenario.run`` builds from the bindings ``Scenario.validate`` checked.

A contract keeps each fact it stores in its storage only, and reads it
back from there; ``scenario.run`` reads a report row from that storage and
the block of the ``winner`` log. On the host live only ``detected``, the
tie-break preferences and indexes derived from storage and the events.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence

from . import wordcodec
from .ledger import Contract, ExecutionContext, Revert
from .oracles import (  # SemanticsKind is re-exported for bench/fuzzgen.py
    Delivery,
    OracleContract,
    OracleVariant,
    SemanticsKind,
    leading_words,
)
from .semantics import (
    NEVER,
    AbsoluteTimer,
    Conditional,
    EventSpec,
    Message,
    RelativeTimer,
    check_bindings,
    decide,
    prefer,
    timer_fire,
)
from .wordcodec import WORD_SIZE


NIL = NEVER  # wire encoding of "no event" in activate/trigger payloads


def _optional(value: int) -> int | None:
    return None if value == NIL else value


def encode_activate(preferred: int | None) -> bytes:
    return wordcodec.encode_word(NIL if preferred is None else preferred)


def encode_trigger(preferred: int | None, message_event: int | None) -> bytes:
    return wordcodec.encode_words(
        NIL if preferred is None else preferred,
        NIL if message_event is None else message_event,
    )


class DeferredChoiceContract(Contract, ABC):
    """On-chain half of one deferred choice instance, as every delivery has
    it; the class of its delivery adds how a wake evaluates (``_evaluate``)
    and the entry point that takes answers."""

    stores_answers = True  # whether ``_note`` stores history answers
    one_per_oracle = False  # the binding rule of ``check_bindings``

    def __init__(
        self,
        events: Sequence[EventSpec],
        variant: OracleVariant,
        oracles: Mapping[int, OracleContract],
    ):
        super().__init__()
        self.events = tuple(events)
        self.kind = f"{variant.id}-choice"
        self.deploy_gas = variant.architecture.choice_gas[variant.conditional]
        self.oracles = dict(oracles)
        # the architecture's row, resolved once per contract
        self.has_history = not variant.baseline
        self._stores_answers = self.has_history and self.stores_answers
        # the events by kind, for ``_rank``; timers fire at times fixed at activation
        self._conditions = {
            e.id: e.kind.condition for e in self.events if isinstance(e.kind, Conditional)
        }
        self._message_ids = tuple(e.id for e in self.events if isinstance(e.kind, Message))
        self._oracle_event = {self.oracles[eid].address: eid for eid in self._conditions}
        # what the contract has detected, each event dated once when it first
        # learns it; timers wait as (fire time, event id) in fire order
        self.detected: dict[int, int] = {}
        self._timers: list[tuple[int, int]] = []
        # host-side only: the tie-break preference at each waking timestamp
        self._preferred_at: dict[int, int] = {}
        # host-side only: the query or subscription parameters of each
        # condition, built at activation, where every delivery asks them all
        self._params: dict[int, bytes] = {}
        self._pending: dict[int, int] = {}  # a callback contract's queries in flight

    # -- helpers -----------------------------------------------------------

    def _observe(self, ctx: ExecutionContext, horizon: int) -> None:
        observed = self.storage["observed_ts"]  # written at activation
        ctx.write(self.storage, "observed_ts", horizon if horizon > observed else observed)

    def _finalize(
        self, ctx: ExecutionContext, winner: int, detected_at: int, horizon: int
    ) -> None:
        self._observe(ctx, horizon)
        ctx.write(self.storage, "winner", winner)
        ctx.write(self.storage, "winner_detection_ts", detected_at)
        ctx.log(self.address, "winner", wordcodec.encode_words(winner, detected_at))
        self._unsubscribe(ctx)

    @abstractmethod
    def _evaluate(self, ctx: ExecutionContext, now: int) -> None:
        """Evaluate a wake at ``now``, as the contract's delivery does."""

    def _subscribe(self, ctx: ExecutionContext) -> None:
        """Take what activation takes of the oracles: nothing but a push."""

    def _unsubscribe(self, ctx: ExecutionContext) -> None:
        """Release what ``_subscribe`` took, once the contract finalizes."""

    def _note(self, ctx: ExecutionContext, eid: int, at: int, horizon: int) -> None:
        """Record event ``eid`` as detected at ``at`` if it is not yet, or as
        not detected through ``horizon`` if ``at`` is NEVER. With a history,
        answers that arrive in their own transaction (callbacks, pushes) are
        kept in contract storage, a clear horizon in ``clear:<eid>``; other
        answers are used within the evaluation that made them, which ranks
        with its horizon as the clear floor. A callback round or a push
        answers past the horizon stored before it, so the slot only rises."""
        if at == NEVER:
            if self._stores_answers:
                ctx.write(self.storage, f"clear:{eid}", horizon)
        elif eid not in self.detected:
            self.detected[eid] = at
            if self._stores_answers:
                ctx.write(self.storage, f"cond:{eid}", at)

    # -- dispatch ------------------------------------------------------------

    def handle(self, ctx: ExecutionContext, function: str, payload: bytes) -> None:
        entry = self._entry_points.get(function)
        if entry is None:
            raise Revert(f"unknown function {function!r}")
        if len(payload) < entry[1]:
            raise Revert(f"{function}: calldata shorter than {entry[1] // WORD_SIZE} words")
        entry[0](self, ctx, payload)

    # -- entry points ----------------------------------------------------------

    def _activate(self, ctx: ExecutionContext, payload: bytes) -> None:
        if "activated" in self.storage:
            raise Revert("already activated")
        now = ctx.block_time
        prefer(self._preferred_at, now, _optional(leading_words(payload, 1)[0]))
        self._timers = sorted(
            (timer_fire(e.kind, now), e.id)
            for e in self.events
            if isinstance(e.kind, (AbsoluteTimer, RelativeTimer))
        )
        ctx.write(self.storage, "activated", 1)
        ctx.write(self.storage, "activation_ts", now)
        ctx.write(self.storage, "observed_ts", now)
        for eid, condition in self._conditions.items():
            ctx.write(self.storage, f"clear:{eid}", now - 1)
            self._params[eid] = self.oracles[eid].params(condition, now)
        self._subscribe(ctx)
        self._evaluate(ctx, now)

    def _try_trigger(self, ctx: ExecutionContext, payload: bytes) -> None:
        if "activated" not in self.storage:
            raise Revert("not activated")
        if "winner" in self.storage:
            ctx.log(self.address, "already_decided")
            return
        preferred, message_event = map(_optional, leading_words(payload, 2))
        if message_event is not None and message_event not in self._message_ids:
            raise Revert(f"event {message_event} is not a message event")
        if self._pending:
            raise Revert("evaluation in progress")
        now = ctx.block_time
        prefer(self._preferred_at, now, preferred, message_event)
        if message_event is not None and message_event not in self.detected:
            self.detected[message_event] = now
            if self.has_history:
                ctx.write(self.storage, f"msgdet:{message_event}", now)
        self._evaluate(ctx, now)

    # function selector -> (entry point, the fewest bytes its calldata holds)
    _entry_points = {
        "activate": (_activate, WORD_SIZE), "try_trigger": (_try_trigger, 2 * WORD_SIZE)
    }

    # -- winner selection ---------------------------------------------------------

    def _rank(
        self,
        ctx: ExecutionContext,
        horizon: int,
        clear_floor: int,
        timer_now: int | None = None,
        settled: int | None = None,
    ) -> None:
        """Finalize on ``decide`` over what is detected at ``horizon`` unless
        a condition not yet detected, clear only through ``clear_floor`` or
        its stored ``clear:`` horizon, or a transaction after ``settled``
        could still precede or tie the earliest. A timer fired by
        ``timer_now`` is detected at its fire time with a history, else at
        ``timer_now``."""
        if timer_now is None:
            timer_now = horizon
        detected = self.detected
        while self._timers and self._timers[0][0] <= timer_now:
            fire, eid = self._timers.pop(0)
            detected[eid] = fire if self.has_history else timer_now
        if not detected:
            self._observe(ctx, horizon)
            return
        winner, at, tied = decide(detected, self._preferred_at)
        blocker = NEVER
        for eid in self._conditions:
            if eid not in detected:  # its ``clear:`` slot is written at activation
                blocker = min(blocker, max(clear_floor, self.storage[f"clear:{eid}"]))
        if settled is not None and (tied or any(e not in detected for e in self._message_ids)):
            # a transaction later in this block could still deliver a message
            # that ties, or name the event that breaks a tie; wait for a wake
            # that rules it out
            blocker = min(blocker, settled)
        if at > blocker:
            self._observe(ctx, horizon)
            return
        self._finalize(ctx, winner, at, horizon)


class SyncChoice(DeferredChoiceContract):
    """Reads its oracles inline at each wake, so it stores no answer."""

    stores_answers = False

    def _evaluate(self, ctx: ExecutionContext, now: int) -> None:
        activation = self.storage["activation_ts"]
        for eid, condition in self._conditions.items():
            oracle = self.oracles[eid]
            answer = oracle.query(ctx, self._params[eid])
            at = oracle.dated(answer, 0, condition, activation, now)
            self._note(ctx, eid, at, now)
        self._rank(ctx, now, now)


class CallbackChoice(DeferredChoiceContract):
    """Queries at a wake, and ranks once ``oracle_callback`` has every answer."""

    def _evaluate(self, ctx: ExecutionContext, now: int) -> None:
        needed = [eid for eid in self._conditions if eid not in self.detected]
        if not needed:
            self._rank(ctx, now, now)
            return
        ctx.write(self.storage, "inflight_horizon", now)
        for eid in needed:
            corr = self.storage.get("corr_seq", 0) + 1
            ctx.write(self.storage, "corr_seq", corr)
            self._pending[corr] = eid
            # the event id + 1 while in flight and 0 once answered, so a
            # query for event 0 in flight reads apart from an answered one
            ctx.write(self.storage, f"pending:{corr}", eid + 1)
            self.oracles[eid].request(ctx, self.address, corr, self._params[eid])
        self._observe(ctx, now)

    def _oracle_callback(self, ctx: ExecutionContext, payload: bytes) -> None:
        if "winner" in self.storage:
            return  # late callbacks are accepted and ignored
        # the correlation word and the answer's first word, decoded once
        # for every consumer a fan-out sends this payload
        corr = leading_words(payload, 2)[0]
        eid = self._pending.get(corr)
        if eid is None:
            raise Revert(f"unknown correlation id {corr}")
        horizon = self.storage["inflight_horizon"]
        try:  # read before any write, so a truncated answer reverts cleanly
            at = self.oracles[eid].dated(
                payload, 1, self._conditions[eid], self.storage["activation_ts"], horizon
            )
        except wordcodec.CodecError:
            raise Revert("oracle_callback: truncated answer") from None
        del self._pending[corr]
        ctx.write(self.storage, f"pending:{corr}", 0)
        self._note(ctx, eid, at, horizon)
        if self._pending:
            return
        ctx.write(self.storage, "inflight_horizon", 0)
        # every condition still undetected was answered through ``horizon``
        self._rank(ctx, horizon, horizon)

    _entry_points = {
        **DeferredChoiceContract._entry_points,
        "oracle_callback": (_oracle_callback, 2 * WORD_SIZE),
    }


class PushChoice(DeferredChoiceContract):
    """Subscribes to each condition's own oracle, which pushes it changes."""

    one_per_oracle = True

    def _subscribe(self, ctx: ExecutionContext) -> None:
        for eid in self._conditions:
            self.oracles[eid].subscribe(ctx, self.address, self._params[eid])

    def _unsubscribe(self, ctx: ExecutionContext) -> None:
        # a contract finalizes once, never in its activation, so it holds each one
        for eid in self._conditions:
            self.oracles[eid].unsubscribe(ctx, self.address)

    def _evaluate(self, ctx: ExecutionContext, now: int) -> None:
        # after the activation block every change up to "now" has been
        # delivered before this transaction, so silence certifies
        # "unsatisfied through now". In the activation block itself the
        # catch-up push is still in flight and certifies nothing.
        self._rank(ctx, now, now if now > self.storage["activation_ts"] else now - 1)

    def _push(self, ctx: ExecutionContext, payload: bytes) -> None:
        if "activated" not in self.storage:
            raise Revert("not activated")
        if "winner" in self.storage:
            return  # pushes racing the decision are ignored
        # decoded once: the (oracle, at) header, then the change its oracle reads
        words = leading_words(payload, len(payload) // WORD_SIZE)
        oracle_address, at = words[0], words[1]
        if oracle_address not in self._oracle_event:
            raise Revert(f"push from unbound oracle {oracle_address}")
        eid = self._oracle_event[oracle_address]
        size = self.oracles[eid].push_bytes
        if len(payload) < size:
            raise Revert(f"push: calldata shorter than {size // WORD_SIZE} words")
        if eid not in self.detected:
            found = self.oracles[eid].change_dated(words, 2, self._conditions[eid], at)
            self._note(ctx, eid, found, at)
        # other oracles and message transactions may still land in this very
        # block, so a push only certifies the world through the previous step;
        # in the block after activation the other catch-up pushes of the
        # activation step may still land, so it certifies nothing yet
        previous = ctx.block_time - 1
        activation = self.storage["activation_ts"]
        clear_floor = activation - 1 if previous == activation else previous
        self._rank(ctx, at, clear_floor, ctx.block_time, settled=previous)

    _entry_points = {**DeferredChoiceContract._entry_points, "push": (_push, 2 * WORD_SIZE)}


# the choice contract class of each delivery
_CHOICE_CLASS = {
    Delivery.SYNC: SyncChoice, Delivery.CALLBACK: CallbackChoice, Delivery.PUSH: PushChoice
}


def choice_class(variant: OracleVariant) -> type[DeferredChoiceContract]:
    return _CHOICE_CLASS[variant.architecture.delivery]


def make_choice_contract(
    events: Sequence[EventSpec], variant: OracleVariant, oracles: Mapping[int, OracleContract]
) -> DeferredChoiceContract:
    """The choice contract of ``variant`` over ``events`` and the oracles
    bound to them, once ``check_bindings`` passes; it raises otherwise."""
    cls = choice_class(variant)
    check_bindings(events, oracles, cls.one_per_oracle)
    return cls(events, variant, oracles)
