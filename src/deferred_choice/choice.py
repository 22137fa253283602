"""Deferred-choice consumer contracts.

A choice contract races its events on-chain. What it can do follows from
the two axes of its oracle architecture (see ``oracles``):

* the answer fixes the semantics. Every contract decides with ``_rank``:
  the earliest detection wins, and the preference at its timestamp breaks
  a tie. With a history since activation (on-chain or off-chain history,
  pub/sub) a ``transaction-driven`` contract dates each event at the
  earliest timestamp it could have been detected, so it picks the true
  first event even when transactions arrive late; a regular variant reads
  each served history slice into its own ``oracles.History`` and asks it,
  as a conditional oracle would, for the earliest satisfying change point
  since activation. With only the current value (storage,
  request-response) a ``continual`` contract is the naive baseline: it
  dates everything it sees at the waking transaction;
* the delivery fixes how an evaluation runs. A sync contract reads its
  oracles inline and can finalize within the waking transaction; a
  callback contract issues correlated queries and finishes the evaluation
  once every callback has arrived; a push contract accumulates pushed
  change points instead of querying.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from . import expr as exprlang
from . import wordcodec
from .ledger import Contract, ExecutionContext, Revert
from .oracles import (  # SemanticsKind is re-exported for bench/fuzzgen.py
    Answer,
    AsyncOracle,
    Delivery,
    History,
    OracleVariant,
    SemanticsKind,
    SyncOracle,
)
from .semantics import (
    NEVER,
    Conditional,
    EventSpec,
    Message,
    check_events,
    pick_winner,
    prefer,
    timer_fire,
)


NIL = NEVER  # wire encoding of "no event" in activate/trigger payloads


def _decode_optional(data: bytes, index: int) -> int | None:
    value = wordcodec.decode_word(data, index)
    return None if value == NIL else value


def encode_activate(preferred: int | None) -> bytes:
    return wordcodec.encode_word(NIL if preferred is None else preferred)


def encode_trigger(preferred: int | None, message_event: int | None) -> bytes:
    return wordcodec.encode_words(
        NIL if preferred is None else preferred,
        NIL if message_event is None else message_event,
    )


class DeferredChoiceContract(Contract):
    """On-chain half of one deferred choice instance."""

    def __init__(
        self,
        events: Sequence[EventSpec],
        variant: OracleVariant,
        oracles: Mapping[int, SyncOracle | AsyncOracle],
    ):
        super().__init__()
        check_events(events)
        self.events = tuple(events)
        self.variant = variant
        self.kind = f"{variant.id}-choice"
        self.oracles = dict(oracles)
        # the architecture's row, resolved once per contract
        self.has_history = variant.architecture.answer is Answer.HISTORY
        self.delivery = variant.architecture.delivery
        self.cond_ids = tuple(
            e.id for e in self.events if isinstance(e.kind, Conditional)
        )
        for eid in self.cond_ids:
            if eid not in self.oracles:
                raise ValueError(f"conditional event {eid} has no oracle binding")
            oracle = self.oracles[eid]
            referenced = exprlang.variables(self._condition(eid))
            if referenced != {oracle.variable}:
                raise ValueError(
                    f"event {eid} references {sorted(referenced)}, oracle provides "
                    f"{oracle.variable!r}"
                )
        if self.delivery is Delivery.PUSH:
            bound = [self.oracles[eid].address for eid in self.cond_ids]
            if len(bound) != len(set(bound)):
                raise ValueError("pub/sub allows one subscription per oracle")
        self._oracle_event = {self.oracles[eid].address: eid for eid in self.cond_ids}
        # mutable contract state (writes metered through the context)
        self.activation_ts: int | None = None
        self.observed_ts: int | None = None
        self.winner: int | None = None
        self.winner_detection_ts: int | None = None
        self.finalized_at: int | None = None
        self.message_detections: dict[int, int] = {}
        # host-side only: the tie-break preference at each waking timestamp
        self._preferred_at: dict[int, int] = {}
        self._cond_found: dict[int, int] = {}
        self._cond_clear: dict[int, int] = {}
        # host-side only: the query parameters of each event, and the history
        # its served slices were read into (regular history variants)
        self._params_of: dict[int, bytes] = {}
        self._histories: dict[int, History] = {}
        self._pending: dict[int, int] = {}
        self._corr_seq = 0

    # -- helpers -----------------------------------------------------------

    @property
    def activated(self) -> bool:
        return self.activation_ts is not None

    def _condition(self, eid: int) -> exprlang.Expr:
        kind = self.events[eid].kind
        assert isinstance(kind, Conditional)
        return kind.condition

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
        if self.delivery is Delivery.PUSH:
            for eid in self.cond_ids:
                oracle = self.oracles[eid]
                if oracle.is_subscribed(self.address):
                    oracle.unsubscribe(ctx, self.address)

    def _params(self, eid: int) -> bytes:
        """Query or subscription parameters of event ``eid``, built once: the
        activation time when the contract queries a history, then the
        condition text of a conditional variant. A subscription names no
        time; it starts when it is made."""
        params = self._params_of.get(eid)
        if params is None:
            params = b""
            if self.has_history and self.delivery is not Delivery.PUSH:
                params = wordcodec.encode_word(self.activation_ts)
            if self.variant.conditional:
                params += wordcodec.encode_text(exprlang.render(self._condition(eid)))
            self._params_of[eid] = params
        return params

    def _read(self, eid: int, payload: bytes, index: int) -> int | bool:
        """The oracle's answer for event ``eid`` at word ``index`` of
        ``payload``: from a history, the earliest detection since activation
        or NEVER; from the current value, whether the condition holds."""
        if self.variant.conditional:
            if self.has_history:
                return wordcodec.decode_word(payload, index)
            return wordcodec.decode_bool(payload, index)
        if not self.has_history:
            value = wordcodec.decode_word(payload, index)
            return exprlang.evaluate(self._condition(eid), {self.oracles[eid].variable: value})
        # slices start at the change point in force at activation, and no
        # later one lands at or before it, so each slice extends the last
        history = self._histories.get(eid)
        if history is None:
            history = self._histories[eid] = History(self.oracles[eid].variable)
        history.extend(payload, index)
        return history.earliest(self.activation_ts, self._condition(eid))[0]

    def _note(self, ctx: ExecutionContext, eid: int, answer: int | bool, horizon: int) -> None:
        """Record event ``eid``'s answer, which holds through ``horizon``.

        A current value dates a condition that holds at ``horizon``. With a
        history, answers that arrive in their own transaction (callbacks,
        pushes) are kept in contract storage; other answers are used within
        the evaluation that made them."""
        if not self.has_history:
            answer = horizon if answer else NEVER
        persist = self.has_history and self.delivery is not Delivery.SYNC
        if answer == NEVER:
            self._cond_clear[eid] = max(self._cond_clear.get(eid, 0), horizon)
            if persist:
                ctx.write(self.storage, f"clear:{eid}", self._cond_clear[eid])
        else:
            self._cond_found[eid] = answer
            if persist:
                ctx.write(self.storage, f"cond:{eid}", answer)

    # -- dispatch ------------------------------------------------------------

    def handle(self, ctx: ExecutionContext, function: str, payload: bytes) -> None:
        if function == "activate":
            self._activate(ctx, payload)
        elif function == "try_trigger":
            self._try_trigger(ctx, payload)
        elif function == "oracle_callback":
            self._oracle_callback(ctx, payload)
        elif function == "push":
            self._push(ctx, payload)
        else:
            raise Revert(f"unknown function {function!r}")

    # -- entry points ----------------------------------------------------------

    def _activate(self, ctx: ExecutionContext, payload: bytes) -> None:
        if self.activated:
            raise Revert("already activated")
        now = ctx.block_time
        prefer(self._preferred_at, now, _decode_optional(payload, 0))
        self.activation_ts = now
        ctx.write(self.storage, "activated", 1)
        ctx.write(self.storage, "activation_ts", now)
        self._observe(ctx, now)
        for eid in self.cond_ids:
            self._cond_clear[eid] = now - 1
            ctx.write(self.storage, f"clear:{eid}", now - 1)
        if self.delivery is Delivery.PUSH:
            for eid in self.cond_ids:
                self.oracles[eid].subscribe(ctx, self.address, self._params(eid))
        self._evaluate(ctx, now)

    def _try_trigger(self, ctx: ExecutionContext, payload: bytes) -> None:
        if not self.activated:
            raise Revert("not activated")
        if self.winner is not None:
            ctx.log(self.address, "already_decided")
            return
        preferred = _decode_optional(payload, 0)
        message_event = _decode_optional(payload, 1)
        if message_event is not None:
            if message_event >= len(self.events) or not isinstance(
                self.events[message_event].kind, Message
            ):
                raise Revert(f"event {message_event} is not a message event")
        if self._pending:
            raise Revert("evaluation in progress")
        now = ctx.block_time
        prefer(self._preferred_at, now, preferred, message_event)
        if message_event is not None and message_event not in self.message_detections:
            self.message_detections[message_event] = now
            if self.has_history:
                ctx.write(self.storage, f"msgdet:{message_event}", now)
        self._evaluate(ctx, now)

    def _evaluate(self, ctx: ExecutionContext, now: int) -> None:
        clear_floor = None
        if self.delivery is Delivery.SYNC:
            for eid in self.cond_ids:
                answer = self._read(eid, self.oracles[eid].query(ctx, self._params(eid)), 0)
                self._note(ctx, eid, answer, now)
        elif self.delivery is Delivery.CALLBACK:
            needed = tuple(eid for eid in self.cond_ids if eid not in self._cond_found)
            if needed:
                self._issue_queries(ctx, needed, now)
                return
        elif now > self.activation_ts:
            # push: after the activation block every change up to "now" has
            # been delivered before this transaction, so silence certifies
            # "unsatisfied through now". In the activation block itself the
            # catch-up push is still in flight and certifies nothing.
            clear_floor = now
        self._rank(ctx, now, clear_floor)

    # -- asynchronous resolution -------------------------------------------------

    def _issue_queries(self, ctx: ExecutionContext, event_ids: Sequence[int], now: int) -> None:
        ctx.write(self.storage, "inflight_horizon", now)
        for eid in event_ids:
            self._corr_seq += 1
            corr = self._corr_seq
            ctx.write(self.storage, "corr_seq", corr)
            self._pending[corr] = eid
            ctx.write(self.storage, f"pending:{corr}", eid)
            self.oracles[eid].request(ctx, self.address, corr, self._params(eid))
        self._observe(ctx, now)

    def _oracle_callback(self, ctx: ExecutionContext, payload: bytes) -> None:
        if self.winner is not None:
            return  # late callbacks are accepted and ignored
        corr = wordcodec.decode_word(payload, 0)
        if corr not in self._pending:
            raise Revert(f"unknown correlation id {corr}")
        eid = self._pending.pop(corr)
        ctx.write(self.storage, f"pending:{corr}", 0)
        horizon = self.storage["inflight_horizon"]
        self._note(ctx, eid, self._read(eid, payload, 1), horizon)
        if self._pending:
            return
        ctx.write(self.storage, "inflight_horizon", 0)
        self._rank(ctx, horizon)

    # -- pub/sub deliveries ----------------------------------------------------------

    def _push(self, ctx: ExecutionContext, payload: bytes) -> None:
        if not self.activated:
            raise Revert("not activated")
        if self.winner is not None:
            return  # pushes racing the decision are ignored
        oracle_address = wordcodec.decode_word(payload, 0)
        if oracle_address not in self._oracle_event:
            raise Revert(f"push from unbound oracle {oracle_address}")
        eid = self._oracle_event[oracle_address]
        at = wordcodec.decode_word(payload, 1)
        if eid not in self._cond_found:
            # a conditional push signals the condition; a regular one carries
            # the new value
            holds = self.variant.conditional or exprlang.evaluate(
                self._condition(eid),
                {self.oracles[eid].variable: wordcodec.decode_word(payload, 2)},
            )
            self._note(ctx, eid, at if holds else NEVER, at)
        # other oracles and message transactions may still land in this very
        # block, so a push only certifies the world through the previous step;
        # in the block after activation the other catch-up pushes of the
        # activation step may still land, so it certifies nothing yet
        previous = ctx.block_time - 1
        clear_floor = self.activation_ts - 1 if previous == self.activation_ts else previous
        self._rank(ctx, at, clear_floor, ctx.block_time, settled=previous)

    # -- winner selection ---------------------------------------------------------

    def _rank(
        self,
        ctx: ExecutionContext,
        horizon: int,
        clear_floor: int | None = None,
        timer_now: int | None = None,
        settled: int | None = None,
    ) -> None:
        """Finalize on the earliest detection known at ``horizon`` unless a
        condition not yet found, clear only through its last answer or
        ``clear_floor``, or a transaction after ``settled`` could still
        precede or tie it. Timers count as fired up to ``timer_now``."""
        if timer_now is None:
            timer_now = horizon
        found = self._cond_found
        detections: dict[int, int] = {}
        undelivered_message = False
        for event in self.events:
            if isinstance(event.kind, Message):
                if event.id in self.message_detections:
                    detections[event.id] = self.message_detections[event.id]
                else:
                    undelivered_message = True
            elif isinstance(event.kind, Conditional):
                if event.id in found:
                    detections[event.id] = found[event.id]
            else:
                fire = timer_fire(event.kind, self.activation_ts)
                if fire <= timer_now:
                    # without a history a fired timer is seen at the wake
                    detections[event.id] = fire if self.has_history else horizon
        blocker = NEVER
        for eid in self.cond_ids:
            if eid in found:
                continue
            known_clear = self._cond_clear.get(eid, self.activation_ts - 1)
            if clear_floor is not None:
                known_clear = max(known_clear, clear_floor)
            blocker = min(blocker, known_clear)
        if not detections:
            self._observe(ctx, horizon)
            return
        best = min(detections.values())
        pool = {eid for eid, at in detections.items() if at == best}
        if settled is not None and (undelivered_message or len(pool) > 1):
            # a transaction later in this block could still deliver a message
            # that ties, or name the event that breaks a tie; wait for a wake
            # that rules it out
            blocker = min(blocker, settled)
        if best > blocker:
            self._observe(ctx, horizon)
            return
        self._finalize(ctx, pick_winner(pool, self._preferred_at.get(best)), best, horizon)
