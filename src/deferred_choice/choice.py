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
  has its own contract class (``make_choice_contract``): a ``SyncChoice``
  reads its oracles inline; a ``CallbackChoice`` issues correlated queries
  and takes ``oracle_callback``; a ``PushChoice`` subscribes at activation,
  takes ``push`` and accumulates pushed change points instead of querying.
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
        check_bindings(events, oracles, self.one_per_oracle)
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
        self.cond_ids = tuple(self._conditions)
        self._message_ids = tuple(e.id for e in self.events if isinstance(e.kind, Message))
        self._oracle_event = {self.oracles[eid].address: eid for eid in self.cond_ids}
        # mutable contract state (writes metered through the context)
        self.activation_ts: int | None = None
        self.observed_ts: int | None = None
        self.winner: int | None = None
        self.winner_detection_ts: int | None = None
        self.finalized_at: int | None = None
        # what the contract has detected, each event dated once when it first
        # learns it; timers wait as (fire time, event id) in fire order
        self.detected: dict[int, int] = {}
        self._timers: list[tuple[int, int]] = []
        # host-side only: the tie-break preference at each waking timestamp
        self._preferred_at: dict[int, int] = {}
        self._cond_clear: dict[int, int] = {}
        # host-side only: the query or subscription parameters of each
        # condition, built at activation, where every delivery asks them all
        self._params: dict[int, bytes] = {}
        self._pending: dict[int, int] = {}  # a callback contract's queries in flight
        self._corr_seq = 0

    # -- helpers -----------------------------------------------------------

    def _observe(self, ctx: ExecutionContext, horizon: int) -> None:
        if self.observed_ts is None or horizon > self.observed_ts:
            self.observed_ts = horizon
        ctx.write(self.storage, "observed_ts", self.observed_ts)

    def _finalize(
        self, ctx: ExecutionContext, winner: int, detected_at: int, horizon: int
    ) -> None:
        self.winner = winner
        self.winner_detection_ts = detected_at
        self.finalized_at = ctx.block_time
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
        kept in contract storage; other answers are used within the
        evaluation that made them."""
        if at == NEVER:
            self._cond_clear[eid] = max(self._cond_clear.get(eid, 0), horizon)
            if self._stores_answers:
                ctx.write(self.storage, f"clear:{eid}", self._cond_clear[eid])
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
        if self.activation_ts is not None:
            raise Revert("already activated")
        now = ctx.block_time
        prefer(self._preferred_at, now, _optional(leading_words(payload, 1)[0]))
        self.activation_ts = now
        self._timers = sorted(
            (timer_fire(e.kind, now), e.id)
            for e in self.events
            if isinstance(e.kind, (AbsoluteTimer, RelativeTimer))
        )
        ctx.write(self.storage, "activated", 1)
        ctx.write(self.storage, "activation_ts", now)
        self._observe(ctx, now)
        for eid in self.cond_ids:
            self._cond_clear[eid] = now - 1
            ctx.write(self.storage, f"clear:{eid}", now - 1)
            self._params[eid] = self.oracles[eid].params(self._conditions[eid], now)
        self._subscribe(ctx)
        self._evaluate(ctx, now)

    def _try_trigger(self, ctx: ExecutionContext, payload: bytes) -> None:
        if self.activation_ts is None:
            raise Revert("not activated")
        if self.winner is not None:
            ctx.log(self.address, "already_decided")
            return
        preferred, message_event = map(_optional, leading_words(payload, 2))
        if message_event is not None:
            if message_event >= len(self.events) or not isinstance(
                self.events[message_event].kind, Message
            ):
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
        clear_floor: int | None = None,
        timer_now: int | None = None,
        settled: int | None = None,
    ) -> None:
        """Finalize on ``decide`` over what is detected at ``horizon`` unless
        a condition not yet detected, clear only through its last answer or
        ``clear_floor``, or a transaction after ``settled`` could still
        precede or tie the earliest. A timer fired by ``timer_now`` is
        detected at its fire time with a history, else at ``timer_now``."""
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
        for eid in self.cond_ids:
            if eid not in detected:
                known_clear = self._cond_clear[eid]  # set for each at activation
                if clear_floor is not None:
                    known_clear = max(known_clear, clear_floor)
                blocker = min(blocker, known_clear)
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
        for eid in self.cond_ids:
            oracle = self.oracles[eid]
            answer = oracle.query(ctx, self._params[eid])
            at = oracle.dated(answer, 0, self._conditions[eid], self.activation_ts, now)
            self._note(ctx, eid, at, now)
        self._rank(ctx, now)


class CallbackChoice(DeferredChoiceContract):
    """Queries at a wake, and ranks once ``oracle_callback`` has every answer."""

    def _evaluate(self, ctx: ExecutionContext, now: int) -> None:
        needed = tuple(eid for eid in self.cond_ids if eid not in self.detected)
        if needed:
            self._issue_queries(ctx, needed, now)
        else:
            self._rank(ctx, now)

    def _issue_queries(self, ctx: ExecutionContext, event_ids: Sequence[int], now: int) -> None:
        ctx.write(self.storage, "inflight_horizon", now)
        for eid in event_ids:
            self._corr_seq += 1
            corr = self._corr_seq
            ctx.write(self.storage, "corr_seq", corr)
            self._pending[corr] = eid
            ctx.write(self.storage, f"pending:{corr}", eid)
            self.oracles[eid].request(ctx, self.address, corr, self._params[eid])
        self._observe(ctx, now)

    def _oracle_callback(self, ctx: ExecutionContext, payload: bytes) -> None:
        if self.winner is not None:
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
                payload, 1, self._conditions[eid], self.activation_ts, horizon
            )
        except wordcodec.CodecError:
            raise Revert("oracle_callback: truncated answer") from None
        del self._pending[corr]
        ctx.write(self.storage, f"pending:{corr}", 0)
        self._note(ctx, eid, at, horizon)
        if self._pending:
            return
        ctx.write(self.storage, "inflight_horizon", 0)
        self._rank(ctx, horizon)

    _entry_points = {
        **DeferredChoiceContract._entry_points,
        "oracle_callback": (_oracle_callback, 2 * WORD_SIZE),
    }


class PushChoice(DeferredChoiceContract):
    """Subscribes to each condition's own oracle, which pushes it changes."""

    one_per_oracle = True

    def _subscribe(self, ctx: ExecutionContext) -> None:
        for eid in self.cond_ids:
            self.oracles[eid].subscribe(ctx, self.address, self._params[eid])

    def _unsubscribe(self, ctx: ExecutionContext) -> None:
        # a contract finalizes once, never in its activation, so it holds each one
        for eid in self.cond_ids:
            self.oracles[eid].unsubscribe(ctx, self.address)

    def _evaluate(self, ctx: ExecutionContext, now: int) -> None:
        # after the activation block every change up to "now" has been
        # delivered before this transaction, so silence certifies
        # "unsatisfied through now". In the activation block itself the
        # catch-up push is still in flight and certifies nothing.
        self._rank(ctx, now, now if now > self.activation_ts else None)

    def _push(self, ctx: ExecutionContext, payload: bytes) -> None:
        if self.activation_ts is None:
            raise Revert("not activated")
        if self.winner is not None:
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
        clear_floor = self.activation_ts - 1 if previous == self.activation_ts else previous
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
    return choice_class(variant)(events, variant, oracles)
