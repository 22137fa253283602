"""Oracle contract + provider behavior, driven through a real chain.

The running fixture mirrors the worked example: variable ``d_w`` is 0 at
step 73, 1 at 74, and 2 at 77.
"""

from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deferred_choice import expr
from deferred_choice import wordcodec as wc
from deferred_choice.choice import (
    CallbackChoice,
    PushChoice,
    SyncChoice,
    encode_activate,
    encode_trigger,
    make_choice_contract,
)
from deferred_choice.experiments import gen_cost
from deferred_choice.expr import evaluate, parse
from deferred_choice.ledger import (
    Chain,
    Contract,
    ExecutionContext,
    GasSchedule,
    Revert,
    Transaction,
)
from deferred_choice.oracles import (
    ALL_VARIANTS,
    Answer,
    Architecture,
    CallbackOracle,
    Delivery,
    History,
    OracleError,
    OracleProvider,
    OracleVariant,
    PushOracle,
    SyncOracle,
    make_oracle_contract,
)
from deferred_choice.scenario import Scenario
from deferred_choice.scenario import run as replay
from deferred_choice.semantics import NEVER, Conditional, EventSpec, Message
from reference import HistoryEntry, decode_bool, decode_pairs, earliest_satisfied, encode_pairs


class Sink(Contract):
    """Records every transaction it receives (a stand-in consumer)."""

    kind = "sink"

    def __init__(self):
        super().__init__()
        self.received = []

    def handle(self, ctx, function, payload):
        self.received.append((ctx.block_time, function, payload))


def make_rig(variant_id):
    schedule = GasSchedule().with_overrides({"deploy_per_contract": {"sink": 1_000}})
    chain = Chain(schedule)
    oracle = make_oracle_contract(OracleVariant.parse(variant_id), "d_w")
    chain.deploy(oracle)
    provider = OracleProvider(chain, oracle)
    sink = Sink()
    chain.deploy(sink)
    return chain, oracle, provider, sink


def mine(chain, provider):
    receipts = chain.step()
    provider.after_block(receipts)
    return receipts


def advance_to(chain, provider, step):
    while chain.height < step:
        mine(chain, provider)


def feed_table_updates(chain, provider, through=77):
    """Replays updates 0@73, 1@74, 2@77 (mined at those heights)."""
    for at, value in ((73, 0), (74, 1), (77, 2)):
        if at > through:
            break
        advance_to(chain, provider, at - 1)
        provider.on_external_update(value, at)
        mine(chain, provider)
    advance_to(chain, provider, through)


def ctx_for(chain):
    from deferred_choice.ledger import ExecutionContext

    return ExecutionContext(chain.height, chain.schedule)


# --- provider_update ---------------------------------------------------------


def test_storage_update_then_sync_query():
    chain, oracle, provider, _ = make_rig("storage")
    feed_table_updates(chain, provider, through=74)
    result = oracle.query(ctx_for(chain), b"")
    assert wc.decode_word(result) == 1


def test_storage_set_mined_at_update_step():
    chain, oracle, provider, _ = make_rig("storage")
    advance_to(chain, provider, 72)
    provider.on_external_update(0, 73)
    receipts = mine(chain, provider)
    assert [r.tx.function for r in receipts] == ["set"]
    assert receipts[0].mined_at == 73


def test_storage_repeats_still_sent():
    chain, oracle, provider, _ = make_rig("storage")
    advance_to(chain, provider, 1)
    provider.on_external_update(1, 2)
    mine(chain, provider)
    provider.on_external_update(1, 3)
    receipts = mine(chain, provider)
    assert [r.tx.function for r in receipts] == ["set"]


@pytest.mark.parametrize("variant_id", ["storage", "storage-cond"])
def test_storage_repeat_set_pays_its_write(variant_id):
    """A storage oracle writes every set, a repeated value too, so a repeat
    costs what a change does once the slot exists."""
    chain, oracle, provider, _ = make_rig(variant_id)
    gas = []
    for at, value in ((1, 4), (2, 5), (3, 5)):
        provider.on_external_update(value, at)
        gas.append(mine(chain, provider)[0].gas_used)
    schedule = chain.schedule
    write = [schedule.storage_write_new] + 2 * [schedule.storage_write_update]
    intrinsic = [schedule.tx_base + schedule.byte_cost(wc.encode_word(v)) for v in (4, 5, 5)]
    assert gas == list(map(sum, zip(intrinsic, write)))
    assert oracle.storage == {"value": 5}


def test_onchain_history_skips_unchanged_values():
    chain, oracle, provider, _ = make_rig("onchain-history")
    advance_to(chain, provider, 1)
    set_counts = []
    for step, value in ((2, 0), (3, 1), (4, 1), (5, 2)):
        provider.on_external_update(value, step)
        receipts = mine(chain, provider)
        set_counts.append(sum(1 for r in receipts if r.tx.function == "set"))
    assert set_counts == [1, 1, 0, 1]
    assert list(zip(oracle.history.times, oracle.history.values)) == [(2, 0), (3, 1), (5, 2)]


def test_offchain_history_update_produces_no_transactions():
    chain, oracle, provider, _ = make_rig("offchain-history")
    advance_to(chain, provider, 72)
    provider.on_external_update(0, 73)
    assert mine(chain, provider) == []
    assert (provider.history.times, provider.history.values) == ([73], [0])


def test_nonmonotone_update_rejected():
    chain, oracle, provider, _ = make_rig("storage")
    advance_to(chain, provider, 4)
    provider.on_external_update(1, 5)
    with pytest.raises(OracleError):
        provider.on_external_update(2, 5)
    # a repeat records no change point, but its time still counts
    provider.on_external_update(1, 7)
    with pytest.raises(OracleError):
        provider.on_external_update(1, 6)


def test_pubsub_conditional_signals_only_on_first_transition():
    chain, oracle, provider, sink = make_rig("pubsub-cond")
    advance_to(chain, provider, 72)
    provider.on_external_update(0, 73)
    mine(chain, provider)
    ctx = ctx_for(chain)
    oracle.subscribe(ctx, sink.address, wc.encode_text("d_w >= 2"))
    provider.after_block([type("R", (), {"status": "ok", "logs": ctx.logs})()])
    mine(chain, provider)  # immediate push window: condition false, no signal
    before = len(sink.received)
    for at, value in ((75, 1), (76, 1)):
        advance_to(chain, provider, at - 1)
        provider.on_external_update(value, at)
        mine(chain, provider)
    assert len(sink.received) == before  # 0,1,1 produced no signal
    provider.on_external_update(2, 77)
    receipts = mine(chain, provider)
    pushes = [r for r in receipts if r.tx.function == "push"]
    assert len(pushes) == 1
    carried = wc.decode_word(pushes[0].tx.payload, 1)
    assert carried == 77
    provider.on_external_update(3, 78)  # still satisfied: no second signal
    assert [r for r in mine(chain, provider) if r.tx.function == "push"] == []
    assert sink.address not in provider.subscriptions  # dropped once signalled


# --- sync_query ----------------------------------------------------------------


def test_onchain_history_slice_from_activation():
    chain, oracle, provider, _ = make_rig("onchain-history")
    feed_table_updates(chain, provider)
    result = oracle.query(ctx_for(chain), wc.encode_word(73))
    assert decode_pairs(result) == [(73, 0), (74, 1), (77, 2)]


def test_onchain_history_conditional_earliest():
    chain, oracle, provider, _ = make_rig("onchain-history-cond")
    feed_table_updates(chain, provider)
    params = wc.encode_word(73) + wc.encode_text("d_w >= 2")
    assert wc.decode_word(oracle.query(ctx_for(chain), params)) == 77


def test_storage_conditional_query():
    chain, oracle, provider, _ = make_rig("storage-cond")
    feed_table_updates(chain, provider, through=74)
    result = oracle.query(ctx_for(chain), wc.encode_text("d_w >= 2"))
    assert decode_bool(result) is False


# each delivery's oracle contract class and the entry points a consumer or
# provider calls, then its choice contract class and the functions it takes
DELIVERY_CONTRACTS = {
    Delivery.SYNC: (SyncOracle, {"query", "set"}, SyncChoice, {"activate", "try_trigger"}),
    Delivery.CALLBACK: (
        CallbackOracle, {"request"}, CallbackChoice, {"activate", "try_trigger", "oracle_callback"}
    ),
    Delivery.PUSH: (
        PushOracle, {"subscribe", "unsubscribe"}, PushChoice, {"activate", "try_trigger", "push"}
    ),
}


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda variant: variant.id)
def test_oracle_contract_exposes_exactly_its_delivery_entry_points(variant):
    """A call another delivery takes finds no method: a sync query on a
    callback oracle, a request to a push one, a subscription to a sync one.
    A choice contract takes exactly its delivery's functions: an empty call
    to one of them reverts on its calldata, to any other as unknown."""
    oracle = make_oracle_contract(variant, "d_w")
    cls, entry_points, choice_cls, functions = DELIVERY_CONTRACTS[variant.architecture.delivery]
    assert type(oracle) is cls
    every = set().union(*(names for _, names, _, _ in DELIVERY_CONTRACTS.values()))
    assert {name for name in every if callable(getattr(oracle, name, None))} == entry_points
    consumer = make_choice_contract(
        (EventSpec(0, Conditional(parse("d_w >= 1"))),), variant, {0: oracle}
    )
    assert type(consumer) is choice_cls
    taken = set()
    for function in set().union(*(names for *_, names in DELIVERY_CONTRACTS.values())):
        with pytest.raises(Revert) as revert:
            consumer.handle(ExecutionContext(1, GasSchedule()), function, b"")
        if revert.value.reason != f"unknown function {function!r}":
            taken.add(function)
    assert taken == functions


# calldata too short for its entry point: (variant, target, function, payload
# for the bound oracle, whether the choice is activated first)
SHORT_CALLS = {
    "push-one-word": ("pubsub", "choice", "push", lambda o: wc.encode_word(o.address), True),
    "push-no-value": ("pubsub", "choice", "push", lambda o: wc.encode_words(o.address, 3), True),
    "callback-empty": ("offchain-history", "choice", "oracle_callback", lambda o: b"", True),
    "callback-truncated-slice": (
        "offchain-history", "choice", "oracle_callback", lambda o: wc.encode_words(1, 5), True
    ),
    "trigger-one-word": ("storage", "choice", "try_trigger", lambda o: wc.encode_word(0), True),
    "activate-empty": ("storage", "choice", "activate", lambda o: b"", False),
    "set-empty": ("storage", "oracle", "set", lambda o: b"", False),
}


@pytest.mark.parametrize("case", SHORT_CALLS.values(), ids=SHORT_CALLS)
def test_short_calldata_reverts_and_its_block_mines_on(case):
    """A call whose calldata is too short for its entry point's layout
    reverts, naming the function, before it changes any state; the next
    transaction of the same block still mines. The choice waits on
    ``d_w >= 5`` and is activated at block 2, its query left unanswered."""
    variant_id, target, function, payload, activated = case
    chain, oracle, provider, sink = make_rig(variant_id)
    events = (EventSpec(0, Conditional(parse("d_w >= 5"))), EventSpec(1, Message()))
    consumer = make_choice_contract(events, oracle.variant, {0: oracle})
    chain.deploy(consumer)
    provider.on_external_update(0, 1)
    mine(chain, provider)
    if activated:
        chain.submit(Transaction("sim", consumer.address, "activate", encode_activate(None)))
        chain.step()
    contract = consumer if target == "choice" else oracle
    storage, pending = dict(contract.storage), dict(consumer._pending)
    chain.submit(Transaction("sim", contract.address, function, payload(oracle)))
    chain.submit(Transaction("sim", sink.address, "ping", b""))
    receipts = chain.step()
    assert [(r.tx.function, r.status) for r in receipts] == [
        (function, "reverted"), ("ping", "ok")
    ]
    assert receipts[0].revert_reason.startswith(f"{function}: ")
    assert (contract.storage, consumer._pending) == (storage, pending)


SYNC_VARIANT_IDS = ["storage", "storage-cond", "onchain-history", "onchain-history-cond"]


@pytest.mark.parametrize("variant_id", SYNC_VARIANT_IDS)
def test_a_second_set_in_one_block_reverts_and_the_block_mines_on(variant_id):
    """A sync oracle takes one set per block: a second reverts, naming
    ``set``, and leaves the storage and the answers of the first; the next
    transaction of the block still mines."""
    rigs = [make_rig(variant_id) for _ in range(2)]
    for chain, _, provider, _ in rigs:
        provider.on_external_update(0, 1)
        mine(chain, provider)
    (chain, oracle, _, sink), (once_chain, once, _, _) = rigs
    for value in (1, 2):
        chain.submit(Transaction("sim", oracle.address, "set", wc.encode_word(value)))
    chain.submit(Transaction("sim", sink.address, "ping", b""))
    once_chain.submit(Transaction("sim", once.address, "set", wc.encode_word(1)))
    receipts = chain.step()
    once_chain.step()
    assert [(r.tx.function, r.status) for r in receipts] == [
        ("set", "ok"), ("set", "reverted"), ("ping", "ok")
    ]
    assert receipts[1].revert_reason.startswith("set: ")
    assert oracle.storage == once.storage
    params = dict(SYNC_QUESTIONS)[variant_id]
    assert oracle.query(ctx_for(chain), params) == once.query(ctx_for(once_chain), params)


@pytest.mark.parametrize("variant_id", ["storage", "storage-cond"])
def test_a_current_value_reads_zero_before_any_update(variant_id):
    chain, oracle, provider, sink = make_rig(variant_id)
    params = dict(SYNC_QUESTIONS)[variant_id]  # d_w >= 2 does not hold for 0
    assert wc.decode_word(oracle.query(ctx_for(chain), params)) == 0
    rr_id = variant_id.replace("storage", "request-response")
    _, _, rr_provider, _ = make_rig(rr_id)
    assert wc.decode_word(rr_provider.respond(sink.address, 1, params).payload, 1) == 0


# --- async_query / provider_respond ------------------------------------------------


def test_request_response_callback_carries_current_value():
    chain, oracle, provider, sink = make_rig("request-response")
    feed_table_updates(chain, provider, through=74)
    callback = provider.respond(sink.address, 7, b"")
    assert callback.function == "oracle_callback"
    assert wc.decode_word(callback.payload, 0) == 7
    assert wc.decode_word(callback.payload, 1) == 1


def test_offchain_history_conditional_response():
    chain, oracle, provider, sink = make_rig("offchain-history-cond")
    feed_table_updates(chain, provider, through=78)
    params = wc.encode_word(73) + wc.encode_text("d_w >= 2")
    callback = provider.respond(sink.address, 1, params)
    assert wc.decode_word(callback.payload, 1) == 77


def test_offchain_history_regular_slice_is_truncated():
    chain, oracle, provider, sink = make_rig("offchain-history")
    feed_table_updates(chain, provider, through=78)
    callback = provider.respond(sink.address, 1, wc.encode_word(75))
    # starts at the change point in force at 75
    assert decode_pairs(callback.payload, 1) == [(74, 1), (77, 2)]


def test_query_log_round_trip_via_chain():
    chain, oracle, provider, sink = make_rig("request-response")
    feed_table_updates(chain, provider, through=74)
    ctx = ctx_for(chain)
    oracle.request(ctx, sink.address, 3, b"")
    provider.after_block([type("R", (), {"status": "ok", "logs": ctx.logs})()])
    receipts = mine(chain, provider)
    assert [r.tx.function for r in receipts] == ["oracle_callback"]
    assert sink.received[0][1] == "oracle_callback"


# --- subscribe ---------------------------------------------------------------------


def test_subscribe_pushes_current_value_next_step():
    chain, oracle, provider, sink = make_rig("pubsub")
    feed_table_updates(chain, provider, through=74)
    ctx = ctx_for(chain)
    oracle.subscribe(ctx, sink.address, b"")
    provider.after_block([type("R", (), {"status": "ok", "logs": ctx.logs})()])
    receipts = mine(chain, provider)
    pushes = [r for r in receipts if r.tx.function == "push"]
    assert len(pushes) == 1
    assert pushes[0].mined_at == 75
    assert wc.decode_word(pushes[0].tx.payload, 1) == 74  # observation step
    assert wc.decode_word(pushes[0].tx.payload, 2) == 1


def test_conditional_subscribe_already_satisfied_signals_subscription_step():
    chain, oracle, provider, sink = make_rig("pubsub-cond")
    feed_table_updates(chain, provider, through=78)
    ctx = ctx_for(chain)
    oracle.subscribe(ctx, sink.address, wc.encode_text("d_w >= 2"))
    provider.after_block([type("R", (), {"status": "ok", "logs": ctx.logs})()])
    receipts = mine(chain, provider)
    pushes = [r for r in receipts if r.tx.function == "push"]
    assert len(pushes) == 1
    assert wc.decode_word(pushes[0].tx.payload, 1) == 78
    assert sink.address not in provider.subscriptions  # signalled, never kept


def test_duplicate_subscription_reverts():
    chain, oracle, provider, sink = make_rig("pubsub")
    ctx = ctx_for(chain)
    oracle.subscribe(ctx, sink.address, b"")
    from deferred_choice.ledger import Revert

    with pytest.raises(Revert):
        oracle.subscribe(ctx, sink.address, b"")


@pytest.mark.parametrize("variant_id", ["pubsub", "pubsub-cond"])
def test_provider_drops_a_finalized_consumer_and_pushes_it_nothing(variant_id):
    # the consumer waits on d_w >= 5 and a message decides it; its
    # unsubscribe log takes it out of the provider's subscription set
    chain, oracle, provider, _ = make_rig(variant_id)
    events = (EventSpec(0, Conditional(parse("d_w >= 5"))), EventSpec(1, Message()))
    consumer = make_choice_contract(events, oracle.variant, {0: oracle})
    chain.deploy(consumer)
    advance_to(chain, provider, 1)
    provider.on_external_update(0, 2)
    mine(chain, provider)
    chain.submit(Transaction("sim", consumer.address, "activate", encode_activate(None)))
    mine(chain, provider)  # the activation subscribes
    assert consumer.address in provider.subscriptions
    mine(chain, provider)  # the catch-up push of a regular subscription
    chain.submit(Transaction("sim", consumer.address, "try_trigger", encode_trigger(None, 1)))
    mine(chain, provider)  # the message wins, and the winner unsubscribes
    assert consumer.storage["winner"] == 1
    assert consumer.address not in provider.subscriptions
    provider.on_external_update(7, chain.height + 1)  # would signal d_w >= 5
    assert [r for r in mine(chain, provider) if r.tx.function == "push"] == []


# one block's subscription logs, in order: (function, subscriber, condition
# text); the subscribers pushed the catch-up, and the subscriptions kept
CATCH_UP_BLOCKS = {
    "pubsub": (
        [("subscribe", 0, ""), ("subscribe", 1, ""),
         ("subscribe", 2, ""), ("unsubscribe", 2, None)],
        [0, 1, 2],
        {0: None, 1: None},
    ),
    "pubsub-cond": (
        [("subscribe", 0, "d_w >= 1"), ("subscribe", 1, "d_w >= 2"),
         ("subscribe", 2, "d_w >= 1"), ("unsubscribe", 2, None),
         ("subscribe", 3, "d_w >= 2"), ("unsubscribe", 3, None)],
        [0, 2],
        {1: parse("d_w >= 2")},
    ),
}


@pytest.mark.parametrize("variant_id", CATCH_UP_BLOCKS)
def test_catch_up_pushes_a_block_of_subscriptions_once(variant_id):
    """A block's new subscriptions get one catch-up payload, the change
    point in force dated at that block: every regular subscriber and every
    conditional one that holds, which is then dropped. A subscriber that
    unsubscribes in the block it subscribed still gets the catch-up and is
    not kept, and dropping it once it signals does not raise."""
    chain, oracle, provider, _ = make_rig(variant_id)
    sinks = [Sink() for _ in range(4)]
    for sink in sinks:
        chain.deploy(sink)
    feed_table_updates(chain, provider, through=74)  # d_w is 1 from 74 on
    logs, pushed, kept = CATCH_UP_BLOCKS[variant_id]
    ctx = ctx_for(chain)
    for function, index, text in logs:
        if function == "subscribe":
            oracle.subscribe(ctx, sinks[index].address, wc.encode_text(text) if text else b"")
        else:
            oracle.unsubscribe(ctx, sinks[index].address)
    provider.after_block([type("R", (), {"status": "ok", "logs": ctx.logs})()])
    receipts = mine(chain, provider)
    assert [r.tx.to for r in receipts] == [sinks[index].address for index in pushed]
    assert {(r.tx.function, r.tx.payload, r.mined_at) for r in receipts} == {
        ("push", oracle.pushed(74, 1), 75)
    }
    assert provider.subscriptions == {sinks[index].address: c for index, c in kept.items()}


# --- cross-architecture properties ---------------------------------------------------


def random_updates(rng, count):
    at = 0
    updates = []
    for _ in range(count):
        at += rng.randint(1, 4)
        updates.append((at, rng.randint(0, 5)))
    return updates


def test_history_equivalence_on_and_off_chain():
    import random

    rng = random.Random(5)
    for _ in range(50):
        updates = random_updates(rng, rng.randint(1, 12))
        chain_on, on, prov_on, _ = make_rig("onchain-history")
        chain_off, off, prov_off, _ = make_rig("offchain-history")
        for at, value in updates:
            advance_to(chain_on, prov_on, at - 1)
            prov_on.on_external_update(value, at)
            mine(chain_on, prov_on)
            prov_off.on_external_update(value, at)
        from_ts = rng.randint(0, updates[0][0])
        text = f"d_w >= {rng.randint(1, 5)}"
        condition = parse(text)
        assert on.history.since(from_ts) == prov_off.history.since(from_ts)
        assert (
            on.history.earliest(from_ts, condition)[0]
            == prov_off.history.earliest(from_ts, condition)[0]
        )


def test_conditional_agrees_with_scan_over_regular_slice():
    import random

    rng = random.Random(9)
    for _ in range(50):
        updates = random_updates(rng, rng.randint(1, 12))
        history = History("d_w")
        for at, value in updates:
            history.append(at, value)
        from_ts = rng.randint(0, updates[0][0])  # at or before the first entry
        text = f"d_w >= {rng.randint(1, 5)}"
        condition = parse(text)
        found, _ = history.earliest(from_ts, condition)
        consumer = History.served("d_w", history.since(from_ts), 0)
        assert consumer.earliest(from_ts, condition)[0] == found


def test_onchain_conditional_scan_charges_the_examined_window():
    """The on-chain conditional history charges, as its scan, the entries
    it examined from the window start, not the first entries of the whole
    history."""
    chain, oracle, provider, _ = make_rig("onchain-history-cond")
    for at, value in ((1, 0), (5, 7), (9, 3)):
        advance_to(chain, provider, at - 1)
        provider.on_external_update(value, at)
        mine(chain, provider)
    params = wc.encode_word(6) + wc.encode_text("d_w >= 7")
    ctx = ctx_for(chain)
    result = oracle.query(ctx, params)
    assert wc.decode_word(result) == 6
    entries = list(map(HistoryEntry, oracle.history.times, oracle.history.values))
    assert earliest_satisfied(entries, 6, parse("d_w >= 7"), "d_w") == (6, 1)
    byte_cost = chain.schedule.byte_cost
    charged_scan = ctx.surcharge - byte_cost(params) - byte_cost(result)
    assert charged_scan == byte_cost(encode_pairs([(5, 7)]))  # the entry examined
    assert charged_scan != byte_cost(encode_pairs([(1, 0)]))


def test_pubsub_completeness_one_push_per_change():
    chain, oracle, provider, sink = make_rig("pubsub")
    advance_to(chain, provider, 1)
    provider.on_external_update(0, 2)
    mine(chain, provider)
    ctx = ctx_for(chain)
    oracle.subscribe(ctx, sink.address, b"")
    provider.after_block([type("R", (), {"status": "ok", "logs": ctx.logs})()])
    mine(chain, provider)  # catch-up push
    pushes_before = sum(1 for _, fn, _ in sink.received if fn == "push")
    values = [0, 1, 1, 2, 2, 3]
    changes = 0
    last = 0
    for offset, value in enumerate(values):
        if value != last:
            changes += 1
        last = value
        provider.on_external_update(value, chain.height + 1)
        mine(chain, provider)
    pushes = sum(1 for _, fn, _ in sink.received if fn == "push") - pushes_before
    assert pushes == changes


def test_storage_oracle_is_memoryless():
    chain, oracle, provider, _ = make_rig("storage")
    advance_to(chain, provider, 1)
    for step, value in ((2, 4), (3, 1)):
        provider.on_external_update(value, step)
        mine(chain, provider)
    assert wc.decode_word(oracle.query(ctx_for(chain), b"")) == 1
    assert "at:0" not in oracle.storage


# --- sync answers: one per question between two sets --------------------------------

SYNC_QUESTIONS = [
    ("storage", b""),
    ("storage-cond", wc.encode_text("d_w >= 2")),
    ("onchain-history", wc.encode_word(73)),
    ("onchain-history-cond", wc.encode_word(73) + wc.encode_text("d_w >= 2")),
]


def fresh_answer(variant_id, params, through):
    """The answer and surcharge of a query to an oracle never asked before."""
    chain, oracle, provider, _ = make_rig(variant_id)
    feed_table_updates(chain, provider, through=through)
    ctx = ctx_for(chain)
    return oracle.query(ctx, params), ctx.surcharge


@pytest.mark.parametrize("variant_id, params", SYNC_QUESTIONS)
def test_sync_consumers_asking_alike_share_bytes_and_surcharge(variant_id, params):
    chain, oracle, provider, _ = make_rig(variant_id)
    feed_table_updates(chain, provider)
    first, second = ctx_for(chain), ctx_for(chain)
    first_answer = oracle.query(first, params)
    second_answer = oracle.query(second, bytes(bytearray(params)))  # equal, not the same object
    assert second_answer == first_answer
    assert second.surcharge == first.surcharge > 0
    assert (first_answer, first.surcharge) == fresh_answer(variant_id, params, 77)


@pytest.mark.parametrize("variant_id, params", SYNC_QUESTIONS)
def test_sync_answer_after_a_set_is_answered_again(variant_id, params):
    chain, oracle, provider, _ = make_rig(variant_id)
    feed_table_updates(chain, provider, through=74)
    before = oracle.query(ctx_for(chain), params)
    assert before == fresh_answer(variant_id, params, 74)[0]
    advance_to(chain, provider, 76)
    provider.on_external_update(2, 77)  # a set mined at 77
    mine(chain, provider)
    ctx = ctx_for(chain)
    after = oracle.query(ctx, params)
    assert after != before
    assert (after, ctx.surcharge) == fresh_answer(variant_id, params, 77)


# --- history: differential against a stateless reference ---------------------------

CONDITION_TEXTS = (
    "d_w < 3",
    "d_w <= 2",
    "d_w == 4",
    "d_w != 0",
    "d_w >= 5",
    "d_w > 1",
    "d_w >= 2 && d_w < 5",
    "d_w == 0 || d_w > 4",
    "!(d_w == 3)",
)

HORIZON = 99  # a served regular history slice dates a condition without it


def in_force_later(pairs, i, from_ts):
    """Whether change point ``i`` is replaced at or before ``from_ts``, so
    that its interval lies entirely before the window at ``from_ts``."""
    return i + 1 < len(pairs) and pairs[i + 1][0] <= from_ts


def reference_earliest(pairs, from_ts, condition):
    """The per-query walk from the first change point, with no cursor."""
    visited = 0
    for i, (at, value) in enumerate(pairs):
        if in_force_later(pairs, i, from_ts):
            continue  # interval entirely before the window
        visited += 1
        if evaluate(condition, {"d_w": value}):
            return max(at, from_ts), visited
    return NEVER, visited


def reference_slice_hit(payload, index, condition):
    """First satisfying change point of a fully decoded slice, or NEVER."""
    for at, value in decode_pairs(payload, index):
        if evaluate(condition, {"d_w": value}):
            return at
    return NEVER


@st.composite
def history_runs(draw):
    """A few (from_ts, condition) questions and an interleaving of appends
    (time gap, value) and repeated asks of those questions."""
    questions = draw(
        st.lists(
            st.tuples(st.integers(0, 20), st.sampled_from(CONDITION_TEXTS)),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("append"), st.integers(1, 6), st.integers(0, 6)),
                st.tuples(st.just("ask"), st.integers(0, len(questions) - 1)),
            ),
            max_size=30,
        )
    )
    return questions, ops


@settings(max_examples=400, deadline=None)
@given(history_runs())
@example(([(3, "d_w >= 0")], [("ask", 0)]))  # empty history
@example(  # from_ts equal to a change point
    ([(5, "d_w == 4")], [("append", 2, 4), ("append", 4, 0), ("ask", 0)])
)
@example(  # an append at or before from_ts moves the window start
    (
        [(6, "d_w >= 7")],
        [("append", 2, 0), ("ask", 0), ("append", 3, 7), ("ask", 0), ("append", 5, 3), ("ask", 0)],
    )
)
@example(  # a hit asked again after later appends
    (
        [(0, "d_w > 1"), (2, "d_w < 3")],
        [("append", 1, 2), ("ask", 0), ("ask", 1), ("append", 2, 5), ("ask", 0), ("ask", 1)],
    )
)
def test_history_matches_stateless_reference(run):
    questions, ops = run
    history = History("d_w")
    oracle = make_oracle_contract(OracleVariant.parse("onchain-history"), "d_w")
    pairs = []  # the change points: an update that repeats the value is none
    at = -1
    for op in ops:
        if op[0] == "append":
            at += op[1]
            changed = not pairs or pairs[-1][1] != op[2]
            assert history.append(at, op[2]) == changed
            if changed:
                pairs.append((at, op[2]))
            continue
        number = op[1]
        from_ts, text = questions[number]
        condition = parse(text)
        found, visited = history.earliest(from_ts, condition)
        assert (found, visited) == reference_earliest(pairs, from_ts, condition)
        in_window = [p for i, p in enumerate(pairs) if not in_force_later(pairs, i, from_ts)]
        assert history.since(from_ts, visited) == encode_pairs(in_window[:visited])
        window = history.since(from_ts)
        assert window == encode_pairs(in_window)
        # the consumer reads slices at word 0 (on-chain) or after a
        # correlation word (callback)
        index = number % 2
        payload = wc.encode_word(number) * index + window
        consumer = History.served("d_w", payload, index)
        assert list(zip(consumer.times, consumer.values)) == in_window
        hit = reference_slice_hit(payload, index, condition)
        # a hit on the change point in force at from_ts counts from from_ts
        expected = NEVER if hit == NEVER else max(hit, from_ts)
        assert consumer.earliest(from_ts, condition)[0] == expected
        assert oracle.dated(payload, index, condition, from_ts, HORIZON) == expected
    assert list(zip(history.times, history.values)) == pairs


def test_history_shares_a_scan_across_one_window():
    """Two ``from_ts`` in the window of one change point ask one question,
    so between them each change point is evaluated once."""
    history = History("d_w")
    for at, value in ((2, 0), (5, 1), (8, 3)):
        history.append(at, value)
    never, at_window_start = parse("d_w >= 3"), parse("d_w == 0")
    with mock.patch.object(expr, "evaluate", wraps=evaluate) as evaluated:
        assert history.earliest(2, never) == history.earliest(4, never) == (8, 3)
        assert history.earliest(2, at_window_start) == (2, 1)
        assert history.earliest(4, at_window_start) == (4, 1)  # a hit counts from from_ts
    assert evaluated.call_count == 3 + 1


def test_history_rejects_non_increasing_append():
    history = History("d_w")
    history.append(4, 1)
    with pytest.raises(OracleError):
        history.append(4, 2)


def test_history_append_records_change_points_only():
    """A repeated value is no change point: ``append`` says so and changes
    neither the history nor the slices it serves."""
    history = History("d_w")
    assert history.append(2, 0) and history.append(5, 1)
    served = history.since(0)
    assert history.append(7, 1) is False
    assert (history.times, history.values) == ([2, 5], [0, 1])
    assert history.since(0) == served == encode_pairs([(2, 0), (5, 1)])


def test_history_served_rejects_truncated_slice():
    payload = encode_pairs([(1, 0), (2, 5)])[: -wc.WORD_SIZE]
    with pytest.raises(wc.CodecError):
        History.served("d_w", payload, 0)


# --- consumer-side answers ------------------------------------------------------


def served_slices(pairs):
    """The slice served from the first change point after each append."""
    served = History("d_w")
    slices = []
    for at, value in pairs:
        served.append(at, value)
        slices.append(served.since(0))
    return slices


def test_first_held_answers_each_slice_from_its_own_points():
    """A consumer served fewer change points than another gets no answer
    from the points it was not served."""
    short, long = served_slices([(1, 0), (3, 1), (6, 4)])[1:]
    oracle = make_oracle_contract(OracleVariant.parse("onchain-history"), "d_w")
    condition = parse("d_w >= 4")
    assert oracle.dated(long, 0, condition, 2, HORIZON) == 6
    assert oracle.dated(short, 0, condition, 2, HORIZON) == NEVER  # 6 lies past its slice
    assert oracle.dated(long, 0, parse("d_w >= 1"), 2, HORIZON) == 3


@pytest.mark.parametrize("variant_id", ["onchain-history", "offchain-history"])
def test_first_held_decodes_a_repeated_payload_once(variant_id):
    """Consumers handed one payload for one condition and window get one
    answer: the slice is decoded and scanned once per oracle contract, so
    once per replay, and a fresh contract reads it again."""
    payload = wc.encode_word(7) + served_slices([(1, 0), (3, 1)])[-1]
    condition = parse("d_w >= 1")
    oracle = make_oracle_contract(OracleVariant.parse(variant_id), "d_w")
    assert oracle.dated(payload, 1, condition, 2, HORIZON) == 3
    with (
        mock.patch.object(wc, "decode_word", wraps=wc.decode_word) as word,
        mock.patch.object(wc, "decode_words", wraps=wc.decode_words) as words,
        mock.patch.object(expr, "evaluate", wraps=evaluate) as evaluated,
    ):
        assert oracle.dated(payload, 1, condition, 2, HORIZON) == 3
        assert oracle.dated(bytes(bytearray(payload)), 1, condition, 2, HORIZON) == 3
        assert word.call_count == words.call_count == evaluated.call_count == 0
        fresh = make_oracle_contract(oracle.variant, "d_w")
        assert fresh.dated(payload, 1, condition, 2, HORIZON) == 3
        assert (word.call_count, words.call_count, evaluated.call_count) == (1, 1, 2)


@pytest.mark.parametrize("variant_id", ["onchain-history", "offchain-history"])
def test_regular_history_replays_do_equal_work(variant_id):
    """Answers live for one replay: a replay repeated at once does the work
    of the first, none of it answered from a memo the first one filled."""
    scenario = gen_cost(20, 10, OracleVariant.parse(variant_id))
    counts = []
    for _ in range(2):
        with mock.patch.object(expr, "evaluate", wraps=evaluate) as evaluated:
            assert replay(scenario).correct
        counts.append(evaluated.call_count)
    assert counts[0] == counts[1]


# architectures whose consumers query a window of the history
WINDOWED = {"onchain-history", "offchain-history"}


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda variant: variant.id)
def test_params_name_the_window_and_the_condition_the_variant_needs(variant):
    """The window word only when a history is queried rather than pushed;
    the condition text only for a conditional variant."""
    oracle = make_oracle_contract(variant, "d_w")
    window = wc.encode_word(73) if variant.architecture.value in WINDOWED else b""
    text = wc.encode_text("d_w >= 1") if variant.conditional else b""
    assert oracle.params(parse("d_w >= 1"), 73) == window + text


def dated_answer(variant, text):
    """How the answer a consumer activated at 73 is handed at 78 dates
    ``text``, asked with its oracle's parameters; None if the oracle sends
    nothing."""
    chain, oracle, provider, sink = make_rig(variant.id)
    feed_table_updates(chain, provider, through=78)
    condition = parse(text)
    params = oracle.params(condition, 73)
    delivery = variant.architecture.delivery
    if delivery is Delivery.SYNC:
        payload, index, horizon = oracle.query(ctx_for(chain), params), 0, 78
    elif delivery is Delivery.CALLBACK:
        payload, index, horizon = provider.respond(sink.address, 1, params).payload, 1, 78
    else:
        ctx = ctx_for(chain)
        oracle.subscribe(ctx, sink.address, params)
        provider.after_block([type("R", (), {"status": "ok", "logs": ctx.logs})()])
        mine(chain, provider)
        if not sink.received:
            return None
        payload = sink.received[-1][2]
        words = wc.decode_words(payload, len(payload) // wc.WORD_SIZE)
        return oracle.change_dated(words, 2, condition, words[1])
    return oracle.dated(payload, index, condition, 73, horizon)


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda variant: variant.id)
def test_dated_gives_the_change_time_the_horizon_or_never(variant):
    """d_w is 1 from 74 and 2 from 77. A queried history dates ``d_w >= 1``
    at its change time 74; a current value or a pushed change point at the
    answer's horizon 78. A condition that never held is NEVER, and a
    conditional push oracle sends nothing for it."""
    assert dated_answer(variant, "d_w >= 1") == (
        74 if variant.architecture.value in WINDOWED else 78
    )
    never = None if variant.id == "pubsub-cond" else NEVER
    assert dated_answer(variant, "d_w >= 5") == never


# --- a new architecture is one row ------------------------------------------

TABLE1 = Path(__file__).resolve().parent.parent / "scenarios" / "table1.json"


class StandInRow(NamedTuple):
    """An architecture row that is not an ``Architecture`` member: the
    fields a variant's contracts read, and nothing else."""

    value: str
    answer: Answer
    delivery: Delivery
    oracle_gas: tuple[int, int]
    choice_gas: tuple[int, int]


@pytest.mark.parametrize("conditional", [False, True], ids=["regular", "conditional"])
@pytest.mark.parametrize(
    "answer, delivery",
    [(answer, delivery) for answer in Answer for delivery in Delivery],
    ids=lambda axis: axis.name.lower(),
)
def test_a_new_row_replays_with_its_own_deploy_gas(answer, delivery, conditional):
    """A row for every (answer, delivery) pair, with gas constants no
    ``Architecture`` has, replays the worked example and a cost cell. Where
    an ``Architecture`` has the same two axes, the stand-in mines the same
    receipts and operating gas; its deployment gas is its own constants."""
    row = StandInRow(f"row-{answer.name}-{delivery.name}".lower(), answer, delivery,
                     (1_111, 2_222), (33_000, 44_000))
    variant = OracleVariant(row, conditional)
    twin = next(
        (OracleVariant(arch, conditional) for arch in Architecture
         if (arch.answer, arch.delivery) == (answer, delivery)),
        None,
    )
    for scenario in (Scenario.from_json(TABLE1.read_text()), gen_cost(5, 10, variant)):
        report = replay(scenario.with_variant(variant))
        assert report.gas_deploy == (
            len(scenario.oracles) * row.oracle_gas[conditional]
            + len(scenario.choices) * row.choice_gas[conditional]
        )
        if twin is not None:
            expected = replay(scenario.with_variant(twin))
            assert report.receipts == expected.receipts
            assert report.gas_operating == expected.gas_operating
            assert report.outcomes == expected.outcomes
