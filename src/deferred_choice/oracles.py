"""Oracle architectures bridging external variables onto the ledger.

Each oracle serves one external variable and comes in two halves: an
on-chain contract and an off-chain provider. The architectures differ on
two axes, and ``Architecture`` holds one row per architecture:

==================  ========================  ========
architecture        answer                    delivery
==================  ========================  ========
storage             current value             sync
request-response    current value             callback
onchain-history     history since activation  sync
offchain-history    history since activation  callback
pubsub              history since activation  push
==================  ========================  ========

The answer is what the oracle can tell a sleeping contract: only the value
in force now, or every change point since the contract activated. Only a
history answer lets a contract rank events by the time they happened, so
the answer axis fixes the ``SemanticsKind`` and the dating: a history
dates a condition at its first satisfying change point and a timer at its
fire time, a current value both at the wake that sees them. The delivery
is how the answer reaches the contract: a read within the calling
transaction, a query event answered by a callback transaction, or a push
on every change. Every other difference in behaviour between the
architectures is read from these two fields; the row also holds the
deployment gas of the architecture's contracts.

Each architecture comes in a regular and a conditional variant. Regular
variants hand values (or value histories) to the consumer, which
evaluates its condition locally. Conditional variants accept a rendered
condition expression and answer with a boolean, an earliest-satisfied
timestamp, or a push signal at the first time the condition holds.

Histories record change points only (``History.append`` decides): an
update that repeats the current value adds no entry and triggers no push.
Every provider keeps a ``History``; its last change point is the current
value. A provider reacts to on-chain events (queries, subscriptions)
right after the block that logged them, so its reactions are queued first
for the next block and mined exactly one block later; transactions the
provider originates itself when the external variable changes
(storage/history writes, change pushes) are mined in the block of the
change timestamp.

Both history architectures keep their change points in one ``History``:
each point is held once and encoded at most once, the first time a served
slice needs it. A query's window starts at the change point in force at
its ``from_ts``. A conditional history query resumes the scan that the
same condition from the same window start stopped at. This saves host work
only: the bytes served and charged, and therefore gas, are those of a
fresh encoding of the window and a scan of it from its start, which
charges the change points examined.

Each delivery has its own contract class: ``SyncOracle`` (``query``,
``set``), ``CallbackOracle`` (``request``) and ``PushOracle``
(``subscribe``, ``unsubscribe``). Each owns the answer protocol:
``params`` builds what a consumer asks with, ``answer`` (or a push's
``pushed``) what the oracle replies, and ``dated`` how a reply dates a
condition. It reads a regular history slice from the bytes served alone;
consumers handed one payload share the date for one replay.

A provider's fan-outs share their bytes too. Within one block it answers
each distinct query once and sends every consumer that asked it a callback
carrying that one answer, and a change, or a block's catch-up pushes, goes
out as one payload to every subscriber it is pushed to. A sync oracle
answers each distinct question once between two ``set``s: a later caller
gets the same bytes and is charged the surcharge the first answer metered.
Transactions and their gas stay per consumer. A sync oracle logs nothing
for its provider, so a replay hands only the other providers its blocks.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from operator import lt, ne

from . import expr as exprlang
from . import wordcodec
from .ledger import Chain, Contract, ExecutionContext, Revert, Transaction
from .semantics import NEVER


class OracleError(Exception):
    """Misuse of an oracle interface (e.g. an update out of time order)."""


class Answer(str, Enum):
    """What an oracle can tell a sleeping contract."""

    CURRENT = "current value"
    HISTORY = "history since activation"


class Delivery(str, Enum):
    """How an oracle's answer reaches the contract."""

    SYNC = "sync"
    CALLBACK = "callback"
    PUSH = "push"


class SemanticsKind(str, Enum):
    CONTINUAL = "continual"
    TRANSACTION_DRIVEN = "transaction-driven"


class Architecture(str, Enum):
    """One row per architecture: its wire name, what it answers, how the
    answer is delivered, and the deployment gas of its oracle contract and
    of its choice contract, each as (regular, conditional). A variant's
    contracts read everything they differ by from their row, so a new
    architecture is one more row; a gas schedule may override the gas per
    contract kind."""

    answer: Answer
    delivery: Delivery
    oracle_gas: tuple[int, int]
    choice_gas: tuple[int, int]

    def __new__(cls, value: str, *row) -> "Architecture":
        member = str.__new__(cls, value)
        member._value_ = value
        member.answer, member.delivery, member.oracle_gas, member.choice_gas = row
        return member

    # Invented gas constants; relative magnitudes reflect contract complexity
    # (history slicing and on-chain condition evaluation cost more code).
    STORAGE = ("storage", Answer.CURRENT, Delivery.SYNC,
               (280_000, 410_000), (1_430_000, 1_410_000))
    REQUEST_RESPONSE = ("request-response", Answer.CURRENT, Delivery.CALLBACK,
                        (280_000, 280_000), (1_500_000, 1_480_000))
    ONCHAIN_HISTORY = ("onchain-history", Answer.HISTORY, Delivery.SYNC,
                       (470_000, 550_000), (1_520_000, 1_390_000))
    OFFCHAIN_HISTORY = ("offchain-history", Answer.HISTORY, Delivery.CALLBACK,
                        (280_000, 280_000), (1_590_000, 1_450_000))
    PUBSUB = ("pubsub", Answer.HISTORY, Delivery.PUSH,
              (280_000, 280_000), (1_580_000, 1_490_000))


@dataclass(frozen=True)
class OracleVariant:
    """An oracle architecture, answering regular or conditional queries."""
    architecture: Architecture
    conditional: bool = False
    # the wire name, derived once per variant: contracts and report rows read it
    id: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        suffix = "-cond" if self.conditional else ""
        object.__setattr__(self, "id", self.architecture.value + suffix)

    @property
    def synchronous(self) -> bool:
        return self.architecture.delivery is Delivery.SYNC

    @property
    def baseline(self) -> bool:
        """True for the architectures that cannot rank detections in time:
        they answer only the current value."""
        return self.architecture.answer is Answer.CURRENT

    @property
    def semantics(self) -> SemanticsKind:
        """Ranking needs a history answer; a current value supports only the
        continual baseline."""
        if self.baseline:
            return SemanticsKind.CONTINUAL
        return SemanticsKind.TRANSACTION_DRIVEN

    @staticmethod
    def parse(text: str) -> "OracleVariant":
        variant = _VARIANTS.get(text.strip())
        if variant is None:
            raise OracleError(f"unknown oracle variant {text!r}")
        return variant


ALL_VARIANTS: tuple[OracleVariant, ...] = tuple(
    OracleVariant(arch, conditional)
    for arch in Architecture
    for conditional in (False, True)
)
_VARIANTS = {variant.id: variant for variant in ALL_VARIANTS}


_PAIR_SIZE = 2 * wordcodec.WORD_SIZE


class Scan:
    """When a condition on a history's variable first holds, from the change
    point ``start`` on.

    It tests change points in time order, each at most once, and only as far
    as it is asked. Its ``History`` keeps one per condition and window start,
    shared by everyone who asks that question."""

    __slots__ = ("condition", "variable", "times", "values", "start", "stop", "hit")

    def __init__(self, history: History, condition: exprlang.Expr, start: int):
        self.condition = condition
        # the history's own lists, which only grow; holding the history
        # itself would make a reference cycle that only the collector frees
        self.variable, self.times, self.values = history.variable, history.times, history.values
        self.start = start
        self.stop = start  # change points [start, stop) do not satisfy it
        self.hit = False  # change point ``stop`` satisfies it

    def holds(self, change: int) -> bool:
        """Whether the condition holds at change point ``change``, which is
        at most ``stop``."""
        self.advance(change + 1)
        return self.hit and change == self.stop

    def first(self, from_ts: int) -> tuple[int, int]:
        """When the condition first holds, dated no earlier than ``from_ts``,
        or NEVER; and the number of change points examined."""
        count = len(self.times)
        self.advance(count)
        if self.hit:
            return max(self.times[self.stop], from_ts), self.stop - self.start + 1
        return NEVER, count - self.start

    def advance(self, limit: int) -> None:
        """Test the change points from ``stop`` on, up to the first that
        satisfies the condition or to ``limit``."""
        if self.hit:
            return
        condition, variable, values, stop = self.condition, self.variable, self.values, self.stop
        while stop < limit:
            if exprlang.evaluate(condition, {variable: values[stop]}):
                self.hit = True
                break
            stop += 1
        self.stop = stop


class History:
    """Change points of one step-function variable, in strictly increasing
    time order, each held once.

    The one owner of the variable's representation: ``append`` decides what
    is a change point (``extend`` for many updates at once), ``since``
    writes a served slice and ``served`` reads one. Pairs are encoded into
    one growing buffer the first time a served slice needs them. A condition
    has one ``Scan`` per window start, so asking again, from any time in that
    window, examines only the change points appended since.
    """

    def __init__(self, variable: str):
        self.variable = variable
        self.times: list[int] = []
        self.values: list[int] = []
        self._updated = -1  # the time of the latest update; timestamps are not negative
        self._words = bytearray()  # encoded (at, value) pairs, oldest first
        self._scans: dict[tuple[int, exprlang.Expr], Scan] = {}

    def append(self, at: int, value: int) -> bool:
        """Record an update to ``value`` at ``at``; whether it is a change
        point. A repeated value records nothing. An update at or before the
        latest one, repeated or not, raises ``OracleError``."""
        if at <= self._updated:
            raise OracleError(
                f"non-monotone update: {at} after {self._updated} on {self.variable}"
            )
        self._updated = at
        if self.values and self.values[-1] == value:
            return False
        self.times.append(at)
        self.values.append(value)
        return True

    def extend(self, times: list[int], values: list[int]) -> None:
        """``append`` each update ``(times[i], values[i])`` in turn, in one pass
        when the times are in order: the same change points and errors."""
        if not times or not all(map(lt, [self._updated, *times], times)):
            for at, value in zip(times, values):
                self.append(at, value)
            return
        # an update is a change point if its value differs from the one before
        changed = list(map(ne, values, [self.values[-1] if self.values else None, *values]))
        self.times += itertools.compress(times, changed)
        self.values += itertools.compress(values, changed)
        self._updated = times[-1]

    @classmethod
    def served(cls, variable: str, payload: bytes, index: int) -> History:
        """The history of ``variable`` in the slice served at word ``index``
        of ``payload``. A truncated slice raises ``CodecError``."""
        count = wordcodec.decode_word(payload, index)
        words = wordcodec.decode_words(payload, 2 * count, index + 1)
        history = cls(variable)
        history.times, history.values = words[::2], words[1::2]
        return history

    def _encoded(self, start: int, stop: int) -> bytes:
        """The change points [start, stop) as a count word followed by each
        ``(at, value)`` pair."""
        encoded = len(self._words) // _PAIR_SIZE
        if stop > encoded:
            self._words += wordcodec.encode_words(
                *itertools.chain.from_iterable(
                    zip(self.times[encoded:stop], self.values[encoded:stop])
                )
            )
        return (
            wordcodec.encode_word(stop - start)
            + self._words[start * _PAIR_SIZE : stop * _PAIR_SIZE]
        )

    def _start(self, from_ts: int) -> int:
        """The window at ``from_ts``: the index of the change point in force
        then, or of the first one if none is."""
        return max(bisect_right(self.times, from_ts) - 1, 0)

    def since(self, from_ts: int, count: int | None = None) -> bytes:
        """The encoded slice of the window at ``from_ts``: all its change
        points, or the first ``count`` (those a scan examined)."""
        start = self._start(from_ts)
        return self._encoded(start, len(self.times) if count is None else start + count)

    def scan(self, from_ts: int, condition: exprlang.Expr) -> Scan:
        """The scan of ``condition`` over the window at ``from_ts``, shared by
        every ``from_ts`` in that window. An append at or before ``from_ts``
        starts a new window there, and so a new scan."""
        key = (self._start(from_ts), condition)
        scan = self._scans.get(key)
        if scan is None:
            scan = self._scans[key] = Scan(self, condition, key[0])
        return scan

    def earliest(self, from_ts: int, condition: exprlang.Expr) -> tuple[int, int]:
        """Earliest timestamp at or after ``from_ts`` at which ``condition``
        holds, or NEVER; and the number of change points examined.

        The window starts at the change point in force at ``from_ts``, and
        a hit there counts from ``from_ts``."""
        return self.scan(from_ts, condition).first(from_ts)


# --- on-chain halves --------------------------------------------------------


@functools.lru_cache(maxsize=1024)
def leading_words(payload: bytes, count: int) -> tuple[int, ...]:
    """The first ``count`` words of ``payload``, decoded once for all the
    contracts a payload fans out to while it stays recently used."""
    return tuple(wordcodec.decode_words(payload, count))


class OracleContract(Contract):
    """What every on-chain half shares: the variant, the variable, and the
    answer protocol. A consumer asks with ``params`` and reads each reply
    with ``dated``; it only carries the bytes."""

    def __init__(self, variant: OracleVariant, variable: str):
        super().__init__()
        self.variant = variant
        self.variable = variable
        self.kind = f"{variant.id}-oracle"
        self.deploy_gas = variant.architecture.oracle_gas[variant.conditional]
        # a consumer queries a window of the history; a push carries one change
        arch = variant.architecture
        self._windowed = arch.answer is Answer.HISTORY and arch.delivery is not Delivery.PUSH
        # host-side only: (payload, index, condition, from_ts) -> date of a served slice
        self._slice_dates: dict[tuple[bytes, int, exprlang.Expr, int], int] = {}

    def params(self, condition: exprlang.Expr, from_ts: int) -> bytes:
        """The parameters asking about ``condition`` since ``from_ts``: the
        window word when a history is queried, then the condition text of a
        conditional variant."""
        params = wordcodec.encode_word(from_ts) if self._windowed else b""
        if self.variant.conditional:
            params += wordcodec.encode_text(exprlang.render(condition))
        return params

    def answer(
        self, known: int | History, params: bytes, ctx: ExecutionContext | None = None
    ) -> bytes:
        """Answer ``params`` on the current value ``known`` or on a history:
        a regular query with the value or the window's slice, a conditional
        one with a boolean on the current value and the earliest satisfying
        timestamp (or NEVER) on a history. An on-chain read passes its
        ``ctx``, charged for the parameters, the bytes scanned to produce the
        answer and the result; an off-chain answer passes none, and the
        scanned bytes are not built."""
        conditional, scan = self.variant.conditional, b""
        if isinstance(known, History):
            from_ts = wordcodec.decode_word(params, 0)
            if conditional:
                condition = exprlang.parse(wordcodec.decode_text(params, 1))
                found, visited = known.earliest(from_ts, condition)
                result = wordcodec.encode_word(found)
                if ctx is not None:
                    scan = known.since(from_ts, visited)
            else:
                result = scan = known.since(from_ts)
        elif conditional:
            condition = exprlang.parse(wordcodec.decode_text(params, 0))
            result = wordcodec.encode_bool(exprlang.evaluate(condition, {self.variable: known}))
            if ctx is not None:
                scan = wordcodec.encode_word(known)
        else:
            result = scan = wordcodec.encode_word(known)
        if ctx is not None:
            ctx.charge_bytes(params)
            ctx.charge_bytes(scan)
            ctx.charge_bytes(result)
        return result

    def dated(
        self, payload: bytes, index: int, condition: exprlang.Expr, from_ts: int, horizon: int
    ) -> int:
        """When the answer at word ``index`` of ``payload`` dates
        ``condition``, or NEVER: a served slice at its first change point that
        holds, no earlier than ``from_ts`` (kept for this contract's replay);
        a conditional history by the date it answers; a current value at
        ``horizon`` if it holds."""
        conditional = self.variant.conditional
        if self._windowed and not conditional:
            key = (payload, index, condition, from_ts)
            found = self._slice_dates.get(key)
            if found is None:
                history = History.served(self.variable, payload, index)
                found = self._slice_dates[key] = history.earliest(from_ts, condition)[0]
            return found
        word = leading_words(payload, index + 1)[index]
        if self._windowed:
            return word
        holds = word if conditional else exprlang.evaluate(condition, {self.variable: word})
        return horizon if holds else NEVER


class SyncOracle(OracleContract):
    """Storage and on-chain-history contracts: data lives on-chain and
    queries answer within the calling transaction.

    Query parameters, the returned bytes and the storage entries examined
    are all charged to the calling transaction as an execution surcharge.
    """

    def __init__(self, variant: OracleVariant, variable: str):
        super().__init__(variant, variable)
        # a storage oracle keeps only the current value
        self.history = History(variable) if variant.architecture.answer is Answer.HISTORY else None
        # params -> (result, surcharge) of each question asked since the last set
        self._answers: dict[bytes, tuple[bytes, int]] = {}

    def handle(self, ctx: ExecutionContext, function: str, payload: bytes) -> None:
        if function == "set":
            self.set(ctx, payload)
        else:
            raise Revert(f"unknown function {function!r}")

    def set(self, ctx: ExecutionContext, payload: bytes) -> None:
        self._answers.clear()
        value = wordcodec.decode_word(payload, 0)
        at = ctx.block_time
        history = self.history
        if history is None:
            ctx.write(self.storage, "value", value)
        elif history.append(at, value):
            index = len(history.times) - 1
            ctx.write(self.storage, f"at:{index}", at)
            ctx.write(self.storage, f"value:{index}", value)

    def query(self, ctx: ExecutionContext, params: bytes) -> bytes:
        """Answer ``params`` within the calling transaction. Between two
        ``set``s a question is answered once: later callers get its bytes and
        are charged the surcharge its answer metered."""
        answer = self._answers.get(params)
        if answer is None:
            charged = ctx.surcharge
            known = self.storage.get("value", 0) if self.history is None else self.history
            result = self.answer(known, params, ctx)
            answer = self._answers[params] = (result, ctx.surcharge - charged)
        else:
            ctx.surcharge += answer[1]
        return answer[0]


class CallbackOracle(OracleContract):
    """Request-response and off-chain-history contracts: data lives with the
    provider; a request is logged as a query event, which the provider
    answers with a callback transaction."""

    def request(self, ctx: ExecutionContext, consumer: int, corr: int, params: bytes) -> None:
        ctx.log(self.address, "query", wordcodec.encode_words(corr, consumer) + params)


class PushOracle(OracleContract):
    """Pub/sub contracts: a subscription is logged for the provider, which
    pushes each change point (a conditional one only the first that holds).
    Subscriptions are flagged on-chain, so a duplicate subscribe and an
    unmatched unsubscribe revert."""

    def dated(
        self, payload: bytes, index: int, condition: exprlang.Expr, from_ts: int, horizon: int
    ) -> int:
        """``change_dated`` of the push ``payload``, decoded."""
        words = leading_words(payload, len(payload) // wordcodec.WORD_SIZE)
        return self.change_dated(words, index, condition, horizon)

    def change_dated(
        self, words: tuple[int, ...], index: int, condition: exprlang.Expr, horizon: int
    ) -> int:
        """``horizon`` if the decoded push ``words`` shows ``condition`` holds, else
        NEVER: a regular push by its value at word ``index``, a conditional one always."""
        if self.variant.conditional or exprlang.evaluate(condition, {self.variable: words[index]}):
            return horizon
        return NEVER

    def pushed(self, at: int, value: int) -> bytes:
        """A push of ``value`` at ``at``: the value itself to a regular
        subscriber, the bare signal to a conditional one."""
        if self.variant.conditional:
            return wordcodec.encode_words(self.address, at)
        return wordcodec.encode_words(self.address, at, value)

    def subscribe(self, ctx: ExecutionContext, subscriber: int, params: bytes) -> None:
        key = f"sub:{subscriber}"
        if self.storage.get(key) == 1:
            raise Revert("already subscribed")
        ctx.write(self.storage, key, 1)
        ctx.log(self.address, "subscribe", wordcodec.encode_word(subscriber) + params)

    def unsubscribe(self, ctx: ExecutionContext, subscriber: int) -> None:
        key = f"sub:{subscriber}"
        if self.storage.get(key) != 1:
            raise Revert("not subscribed")
        ctx.write(self.storage, key, 0)
        ctx.log(self.address, "unsubscribe", wordcodec.encode_word(subscriber))


_CONTRACT_CLASS = {
    Delivery.SYNC: SyncOracle, Delivery.CALLBACK: CallbackOracle, Delivery.PUSH: PushOracle
}


def make_oracle_contract(variant: OracleVariant, variable: str) -> OracleContract:
    return _CONTRACT_CLASS[variant.architecture.delivery](variant, variable)


# --- off-chain half ---------------------------------------------------------


class OracleProvider:
    """Deterministic off-chain reactor for one oracle contract.

    ``on_external_update`` is driven by the scenario engine when the
    external variable changes; ``after_block`` consumes the freshly mined
    block's logs (a reverted transaction leaves none) and queues responses
    for the next block. It runs right after that block is mined, before
    anything else is queued, so the responses run first in the next block.
    """

    def __init__(self, chain: Chain, oracle: OracleContract):
        self.chain = chain
        self.oracle = oracle
        self.variant: OracleVariant = oracle.variant
        self.variable: str = oracle.variable
        self.account = f"provider-{oracle.address}"
        self.history = History(self.variable)  # its last value is the current one
        # subscriber -> its condition (None: pushed every change), following the
        # oracle's subscribe and unsubscribe logs; a condition goes once it signals
        self.subscriptions: dict[int, exprlang.Expr | None] = {}
        self.answers_history = self.variant.architecture.answer is Answer.HISTORY
        self.delivery = self.variant.architecture.delivery

    # -- data updates --------------------------------------------------------

    def on_external_update(self, value: int, at: int) -> None:
        if not self.history.append(at, value) and self.answers_history:
            return  # a repeat changes no history, so there is nothing to send
        if self.delivery is Delivery.SYNC:
            self._submit_set(value)
        elif self.delivery is Delivery.PUSH:
            self._push_change(value, at)

    def _submit_set(self, value: int) -> None:
        self.chain.submit(
            Transaction(self.account, self.oracle.address, "set", wordcodec.encode_word(value))
        )

    def _push_change(self, value: int, at: int) -> None:
        push = None  # one push for every subscriber sent one
        signaled = []
        for subscriber, condition in self.subscriptions.items():
            if condition is not None:
                if not exprlang.evaluate(condition, {self.variable: value}):
                    continue
                signaled.append(subscriber)
            if push is None:
                push = Transaction(self.account, subscriber, "push", self.oracle.pushed(at, value))
            else:
                push = push.sent_to(subscriber)
            self.chain.submit(push)
        for subscriber in signaled:
            del self.subscriptions[subscriber]

    # -- log reactions ---------------------------------------------------------

    def after_block(self, receipts) -> None:
        # nothing here changes what the provider knows, so consumers that
        # ask the same question get one answer (correlation ids count per
        # contract, so consumers that query in step ask alike) and those
        # that subscribe get one catch-up push
        callbacks: dict[tuple[int, bytes], Transaction] = {}
        catch_up = None
        address = self.oracle.address
        for receipt in receipts:
            for log in receipt.logs:
                if log.source != address:
                    continue
                if log.topic == "query":
                    corr, consumer = wordcodec.decode_words(log.payload, 2)
                    params = log.payload[2 * wordcodec.WORD_SIZE :]
                    callback = callbacks.get((corr, params))
                    if callback is None:
                        callback = callbacks[corr, params] = self.respond(consumer, corr, params)
                    else:
                        callback = callback.sent_to(consumer)
                    self.chain.submit(callback)
                elif log.topic == "subscribe":
                    subscriber = wordcodec.decode_word(log.payload, 0)
                    if self._register_subscription(subscriber, log.payload[wordcodec.WORD_SIZE :]):
                        if catch_up is None:
                            catch_up = Transaction(
                                self.account, subscriber, "push",
                                self.oracle.pushed(self.chain.height, self.history.values[-1]),
                            )
                        else:
                            catch_up = catch_up.sent_to(subscriber)
                        self.chain.submit(catch_up)
                elif log.topic == "unsubscribe":
                    self.subscriptions.pop(wordcodec.decode_word(log.payload, 0), None)

    def _register_subscription(self, subscriber: int, params: bytes) -> bool:
        """Register a subscription; whether to push the current knowledge
        now, so the subscriber has no gap. A condition that holds already
        signals now and is not kept."""
        if not self.history.values:
            raise OracleError(
                f"subscription before any update of {self.variable!r}"
            )
        if not self.variant.conditional:
            self.subscriptions[subscriber] = None
            return True
        condition = exprlang.parse(wordcodec.decode_text(params, 0))
        if exprlang.evaluate(condition, {self.variable: self.history.values[-1]}):
            return True
        self.subscriptions[subscriber] = condition
        return False

    # -- query answers -----------------------------------------------------------

    def respond(self, consumer: int, corr: int, params: bytes) -> Transaction:
        """Build the callback transaction answering query ``corr`` of
        ``consumer`` with parameters ``params``."""
        if self.answers_history:
            known = self.history
        else:
            known = self.history.values[-1] if self.history.values else 0
        result = self.oracle.answer(known, params)
        return Transaction(
            self.account, consumer, "oracle_callback", wordcodec.encode_word(corr) + result
        )
