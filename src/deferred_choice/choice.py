"""Deferred-choice consumer contracts.

A choice contract races its events on-chain. Two semantics are available:

* ``transaction-driven`` contracts rank events by the earliest timestamp
  each could have been detected, reconstructed from history oracles or
  pub/sub deliveries, and therefore pick the true first event even when
  transactions arrive late;
* ``continual`` contracts are the naive baseline: at every waking
  transaction they look only at the current state of the world, which is
  exactly what plain storage / request-response oracles support.

Sync-bound contracts resolve conditions inline and can finalize within the
waking transaction. Async-bound contracts issue correlated queries and
finish the evaluation once every callback has arrived; pub/sub contracts
accumulate pushed change points instead of querying.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from enum import Enum

from . import expr as exprlang
from . import wordcodec
from .ledger import Contract, ExecutionContext, Revert
from .oracles import Architecture, AsyncOracle, OracleVariant, SyncOracle
from .semantics import (
    NEVER,
    AbsoluteTimer,
    Conditional,
    EventSpec,
    Message,
    RelativeTimer,
    check_events,
)


class SemanticsKind(str, Enum):
    CONTINUAL = "continual"
    TRANSACTION_DRIVEN = "transaction-driven"


def valid_combination(variant: OracleVariant, semantics: SemanticsKind) -> bool:
    """Baselines run on plain oracles; ranking needs history or pub/sub."""
    if semantics is SemanticsKind.CONTINUAL:
        return variant.baseline
    return not variant.baseline


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


def resume_slice_scan(
    payload: bytes, index: int, skip: int, condition: exprlang.Expr, variable: str
) -> tuple[int, int]:
    """First change point satisfying ``condition`` in the encoded history
    slice at word ``index`` of ``payload``.

    The first ``skip`` pairs are taken as unsatisfied: a scan of an earlier
    slice that this one extends tested them. Returns the hit's timestamp, or
    NEVER, and the number of leading pairs now known to be unsatisfied.
    Values are decoded first and a timestamp only for the hit.
    """
    count = wordcodec.decode_word(payload, index)
    if len(payload) < (index + 1 + 2 * count) * wordcodec.WORD_SIZE:
        raise wordcodec.CodecError(f"truncated history slice of {count} pairs")
    for pair in range(skip, count):
        value = wordcodec.decode_word(payload, index + 2 + 2 * pair)
        if exprlang.evaluate(condition, {variable: value}):
            return wordcodec.decode_word(payload, index + 1 + 2 * pair), pair
    return NEVER, count


@dataclass
class _InFlight:
    preferred: int | None
    message_event: int | None
    horizon: int


class DeferredChoiceContract(Contract):
    """On-chain half of one deferred choice instance."""

    def __init__(
        self,
        events: Sequence[EventSpec],
        variant: OracleVariant,
        semantics: SemanticsKind,
        oracles: Mapping[int, SyncOracle | AsyncOracle],
    ):
        super().__init__()
        check_events(events)
        if not valid_combination(variant, semantics):
            raise ValueError(f"{variant.id} cannot implement {semantics.value} semantics")
        self.events = tuple(events)
        self.variant = variant
        self.semantics = semantics
        self.kind = f"{variant.id}-choice"
        self.oracles = dict(oracles)
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
        if variant.architecture is Architecture.PUBSUB:
            bound = [self.oracles[eid].address for eid in self.cond_ids]
            if len(bound) != len(set(bound)):
                raise ValueError("pub/sub allows one subscription per oracle")
        self._oracle_event = {self.oracles[eid].address: eid for eid in self.cond_ids}
        # mutable contract state (writes metered through the context)
        self.activated = False
        self.activation_ts: int | None = None
        self.observed_ts: int | None = None
        self.winner: int | None = None
        self.winner_detection_ts: int | None = None
        self.finalized_at: int | None = None
        self.message_detections: dict[int, int] = {}
        self._cond_found: dict[int, int] = {}
        self._cond_clear: dict[int, int] = {}
        # host-side only: leading pairs of the event's history slice known
        # not to satisfy its condition (regular history variants)
        self._cond_unsatisfied: dict[int, int] = {}
        self._pending: dict[int, int] = {}
        self._inflight: _InFlight | None = None
        self._callback_values: dict[int, int | bool] = {}
        self._corr_seq = 0
        self.queries_issued = 0
        self.callbacks_received = 0

    # -- helpers -----------------------------------------------------------

    def _condition(self, eid: int) -> exprlang.Expr:
        kind = self.events[eid].kind
        assert isinstance(kind, Conditional)
        return kind.condition

    def _fire_time(self, event: EventSpec) -> int | None:
        if isinstance(event.kind, AbsoluteTimer):
            return event.kind.deadline
        if isinstance(event.kind, RelativeTimer):
            return self.activation_ts + event.kind.delta
        return None

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
        if self.variant.architecture is Architecture.PUBSUB:
            for eid in self.cond_ids:
                oracle = self.oracles[eid]
                if oracle.is_subscribed(self.address):
                    oracle.unsubscribe(ctx, self.address)

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
        preferred = _decode_optional(payload, 0)
        now = ctx.block_time
        self.activated = True
        self.activation_ts = now
        ctx.write(self.storage, "activated", 1)
        ctx.write(self.storage, "activation_ts", now)
        self._observe(ctx, now)
        for eid in self.cond_ids:
            self._cond_clear[eid] = now - 1
            ctx.write(self.storage, f"clear:{eid}", now - 1)
        if self.variant.architecture is Architecture.PUBSUB:
            for eid in self.cond_ids:
                params = b""
                if self.variant.conditional:
                    params = wordcodec.encode_text(
                        exprlang.render(self._condition(eid))
                    )
                self.oracles[eid].subscribe(ctx, self.address, params)
        self._evaluate(ctx, preferred, None, now)

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
        if (
            message_event is not None
            and self.semantics is SemanticsKind.TRANSACTION_DRIVEN
            and message_event not in self.message_detections
        ):
            self.message_detections[message_event] = ctx.block_time
            ctx.write(self.storage, f"msgdet:{message_event}", ctx.block_time)
        self._evaluate(ctx, preferred, message_event, ctx.block_time)

    def _evaluate(
        self,
        ctx: ExecutionContext,
        preferred: int | None,
        message_event: int | None,
        now: int,
    ) -> None:
        arch = self.variant.architecture
        if self.semantics is SemanticsKind.CONTINUAL:
            if arch is Architecture.STORAGE:
                values = {
                    eid: self._sync_current(ctx, eid) for eid in self.cond_ids
                }
                detected = self._detected_now(message_event, now, values)
                self._conclude_baseline(ctx, detected, preferred, now)
            else:  # request-response
                if self.cond_ids:
                    self._issue_queries(ctx, self.cond_ids, preferred, message_event, now)
                else:
                    detected = self._detected_now(message_event, now, {})
                    self._conclude_baseline(ctx, detected, preferred, now)
            return
        if arch is Architecture.ONCHAIN_HISTORY:
            found, clear = self._resolve_sync(ctx, now)
            self._rank(ctx, preferred, now, found, clear, None, now)
        elif arch is Architecture.OFFCHAIN_HISTORY:
            needed = tuple(eid for eid in self.cond_ids if eid not in self._cond_found)
            if needed:
                self._issue_queries(ctx, needed, preferred, message_event, now)
            else:
                self._rank(
                    ctx, preferred, now, self._cond_found, self._cond_clear, None, now
                )
        else:  # pub/sub: change points arrive by push; triggers only rank.
            # After the activation block every change up to "now" has been
            # delivered before this transaction, so silence certifies
            # "unsatisfied through now". In the activation block itself the
            # catch-up push is still in flight and certifies nothing.
            floor = now if now > self.activation_ts else None
            self._rank(
                ctx, preferred, now, self._cond_found, self._cond_clear, floor, now
            )

    def _scan_slice(self, eid: int, payload: bytes, index: int) -> int:
        """Earliest change point satisfying event ``eid`` in a history slice.

        Slices are always taken from activation, so each one extends the
        last and only the pairs appended since need testing."""
        at, self._cond_unsatisfied[eid] = resume_slice_scan(
            payload,
            index,
            self._cond_unsatisfied.get(eid, 0),
            self._condition(eid),
            self.oracles[eid].variable,
        )
        return at

    # -- synchronous resolution ------------------------------------------------

    def _sync_current(self, ctx: ExecutionContext, eid: int) -> int | bool:
        oracle = self.oracles[eid]
        if self.variant.conditional:
            params = wordcodec.encode_text(exprlang.render(self._condition(eid)))
            return wordcodec.decode_bool(oracle.query(ctx, params))
        value = wordcodec.decode_word(oracle.query(ctx, b""), 0)
        return value

    def _resolve_sync(
        self, ctx: ExecutionContext, now: int
    ) -> tuple[dict[int, int], dict[int, int]]:
        found: dict[int, int] = {}
        clear: dict[int, int] = {}
        from_ts = self.activation_ts
        for eid in self.cond_ids:
            oracle = self.oracles[eid]
            if self.variant.conditional:
                params = wordcodec.encode_word(from_ts) + wordcodec.encode_text(
                    exprlang.render(self._condition(eid))
                )
                at = wordcodec.decode_word(oracle.query(ctx, params), 0)
            else:
                at = self._scan_slice(
                    eid, oracle.query(ctx, wordcodec.encode_word(from_ts)), 0
                )
            if at == NEVER:
                clear[eid] = now
            else:
                found[eid] = at
        return found, clear

    # -- asynchronous resolution -------------------------------------------------

    def _issue_queries(
        self,
        ctx: ExecutionContext,
        event_ids: Sequence[int],
        preferred: int | None,
        message_event: int | None,
        now: int,
    ) -> None:
        self._inflight = _InFlight(preferred, message_event, now)
        ctx.write(self.storage, "inflight_horizon", now)
        self._callback_values = {}
        for eid in event_ids:
            self._corr_seq += 1
            corr = self._corr_seq
            ctx.write(self.storage, "corr_seq", corr)
            self._pending[corr] = eid
            ctx.write(self.storage, f"pending:{corr}", eid)
            if self.semantics is SemanticsKind.TRANSACTION_DRIVEN:
                params = wordcodec.encode_word(self.activation_ts)
                if self.variant.conditional:
                    params += wordcodec.encode_text(
                        exprlang.render(self._condition(eid))
                    )
            else:
                params = b""
                if self.variant.conditional:
                    params = wordcodec.encode_text(
                        exprlang.render(self._condition(eid))
                    )
            self.oracles[eid].request(ctx, self.address, corr, params)
            self.queries_issued += 1
        self._observe(ctx, now)

    def _oracle_callback(self, ctx: ExecutionContext, payload: bytes) -> None:
        if self.winner is not None:
            return  # late callbacks are accepted and ignored
        corr = wordcodec.decode_word(payload, 0)
        if corr not in self._pending:
            raise Revert(f"unknown correlation id {corr}")
        eid = self._pending.pop(corr)
        ctx.write(self.storage, f"pending:{corr}", 0)
        self.callbacks_received += 1
        inflight = self._inflight
        if self.semantics is SemanticsKind.TRANSACTION_DRIVEN:
            if self.variant.conditional:
                at = wordcodec.decode_word(payload, 1)
            else:
                at = self._scan_slice(eid, payload, 1)
            if at == NEVER:
                self._cond_clear[eid] = max(
                    self._cond_clear.get(eid, 0), inflight.horizon
                )
                ctx.write(self.storage, f"clear:{eid}", self._cond_clear[eid])
            else:
                self._cond_found[eid] = at
                ctx.write(self.storage, f"cond:{eid}", at)
        else:
            if self.variant.conditional:
                self._callback_values[eid] = wordcodec.decode_bool(payload, 1)
            else:
                self._callback_values[eid] = wordcodec.decode_word(payload, 1)
        if self._pending:
            return
        self._inflight = None
        ctx.write(self.storage, "inflight_horizon", 0)
        if self.semantics is SemanticsKind.TRANSACTION_DRIVEN:
            self._rank(
                ctx,
                inflight.preferred,
                inflight.horizon,
                self._cond_found,
                self._cond_clear,
                None,
                inflight.horizon,
            )
        else:
            values = {
                eid: (
                    value
                    if self.variant.conditional
                    else exprlang.evaluate(
                        self._condition(eid), {self.oracles[eid].variable: value}
                    )
                )
                for eid, value in self._callback_values.items()
            }
            detected = self._detected_now(
                inflight.message_event, inflight.horizon, values
            )
            self._conclude_baseline(ctx, detected, inflight.preferred, inflight.horizon)

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
        if self.variant.conditional:
            if eid not in self._cond_found:
                self._cond_found[eid] = at
                ctx.write(self.storage, f"cond:{eid}", at)
        else:
            value = wordcodec.decode_word(payload, 2)
            if eid not in self._cond_found:
                oracle = self.oracles[eid]
                if exprlang.evaluate(
                    self._condition(eid), {oracle.variable: value}
                ):
                    self._cond_found[eid] = at
                    ctx.write(self.storage, f"cond:{eid}", at)
                else:
                    self._cond_clear[eid] = max(self._cond_clear.get(eid, 0), at)
                    ctx.write(self.storage, f"clear:{eid}", self._cond_clear[eid])
        # other oracles and message transactions may still land in this very
        # block, so a push only certifies the world through the previous step
        self._rank(
            ctx,
            None,
            at,
            self._cond_found,
            self._cond_clear,
            ctx.block_time - 1,
            ctx.block_time,
            message_cap=ctx.block_time - 1,
        )

    # -- winner selection ---------------------------------------------------------

    def _rank(
        self,
        ctx: ExecutionContext,
        preferred: int | None,
        horizon: int,
        found: Mapping[int, int],
        clear: Mapping[int, int],
        clear_floor: int | None,
        timer_now: int,
        message_cap: int | None = None,
    ) -> None:
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
                fire = self._fire_time(event)
                if fire is not None and fire <= timer_now:
                    detections[event.id] = fire
        blocker = NEVER
        for eid in self.cond_ids:
            if eid in found:
                continue
            known_clear = clear.get(eid, self.activation_ts - 1)
            if clear_floor is not None:
                known_clear = max(known_clear, clear_floor)
            blocker = min(blocker, known_clear)
        if message_cap is not None and undelivered_message:
            # an undelivered message could still be mined later in this
            # block and tie; wait for a wake that rules it out
            blocker = min(blocker, message_cap)
        if not detections:
            self._observe(ctx, horizon)
            return
        best = min(detections.values())
        if best > blocker:
            self._observe(ctx, horizon)
            return
        pool = {eid for eid, at in detections.items() if at == best}
        winner = preferred if preferred in pool else min(pool)
        self._finalize(ctx, winner, best, horizon)

    # -- continual baseline ------------------------------------------------------

    def _detected_now(
        self,
        message_event: int | None,
        now: int,
        cond_truth: Mapping[int, int | bool],
    ) -> set[int]:
        detected: set[int] = set()
        for event in self.events:
            if isinstance(event.kind, Message):
                if event.id == message_event:
                    detected.add(event.id)
            elif isinstance(event.kind, Conditional):
                truth = cond_truth.get(event.id, False)
                if not isinstance(truth, bool):
                    truth = exprlang.evaluate(
                        self._condition(event.id),
                        {self.oracles[event.id].variable: truth},
                    )
                if truth:
                    detected.add(event.id)
            else:
                fire = self._fire_time(event)
                if fire is not None and fire <= now:
                    detected.add(event.id)
        return detected

    def _conclude_baseline(
        self,
        ctx: ExecutionContext,
        detected: set[int],
        preferred: int | None,
        horizon: int,
    ) -> None:
        if not detected:
            self._observe(ctx, horizon)
            return
        winner = preferred if preferred in detected else min(detected)
        self._finalize(ctx, winner, horizon, horizon)
