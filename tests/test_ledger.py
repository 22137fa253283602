import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deferred_choice.ledger import (
    Chain,
    Contract,
    GasSchedule,
    LedgerError,
    LogEntry,
    Receipt,
    Revert,
    Transaction,
    UnknownContractError,
    receipt_line,
)
from deferred_choice.experiments import gen_cost
from deferred_choice.oracles import ALL_VARIANTS, Architecture
from deferred_choice.scenario import Action, run


class Probe(Contract):
    """Minimal contract: writes, logs, reverts and records its wake-ups."""

    kind = "probe"

    def __init__(self):
        super().__init__()
        self.calls = []

    def handle(self, ctx, function, payload):
        self.calls.append((ctx.block_time, function))
        if function == "write_new":
            ctx.write(self.storage, f"slot{len(self.calls)}", 1)
        elif function == "write_update":
            ctx.write(self.storage, "slot", 1)
        elif function == "log":
            ctx.log(self.address, "topic", payload)
        elif function == "fail":
            raise Revert("nope")
        elif function == "noop":
            pass
        else:
            raise Revert(f"unknown function {function!r}")


def make_chain():
    schedule = GasSchedule().with_overrides({"deploy_per_contract": {"probe": 12_345}})
    return Chain(schedule)


def tx(to, function="noop", payload=b""):
    return Transaction("sim", to, function, payload)


@pytest.mark.parametrize(
    "overrides, named",
    [
        ({"tx_base": True}, "'tx_base'"),
        ({"tx_base": 1.9}, "'tx_base'"),
        ({"tx_base": -5}, "'tx_base'"),
        ({"deploy_per_contract": {"storage-oracle": 2.5}}, "'deploy_per_contract.storage-oracle'"),
        ({"tx_bse": 5}, "'tx_bse'"),
        ([1, 2], "a gas schedule is an object"),
        ({"deploy_per_contract": 7}, "deploy_per_contract is an object"),
    ],
)
def test_gas_schedule_override_rejects_malformed_values(overrides, named):
    with pytest.raises(LedgerError, match=re.escape(named)):
        GasSchedule().with_overrides(overrides)


# --- deploy -------------------------------------------------------------


def test_deploy_assigns_sequential_addresses_and_charges():
    chain = make_chain()
    first = chain.deploy(Probe())
    second = chain.deploy(Probe())
    assert first == 1
    assert second == 2
    assert chain.deploy_gas_total == 24_690


def test_deploy_charges_configured_oracle_constant():
    from deferred_choice.oracles import OracleVariant, make_oracle_contract

    chain = Chain()
    oracle = make_oracle_contract(OracleVariant.parse("storage"), "x")
    address = chain.deploy(oracle)
    assert address == 1
    assert chain.deploy_gas_total == Architecture.STORAGE.oracle_gas[0] == 280_000


def test_deploy_charges_configured_choice_constant():
    from deferred_choice.choice import make_choice_contract
    from deferred_choice.expr import parse as parse_expr
    from deferred_choice.oracles import OracleVariant, make_oracle_contract
    from deferred_choice.semantics import Conditional, EventSpec

    chain = Chain()
    variant = OracleVariant.parse("pubsub")
    oracle = make_oracle_contract(variant, "x")
    chain.deploy(oracle)
    contract = make_choice_contract(
        (EventSpec(0, Conditional(parse_expr("x >= 1"))),),
        variant,
        {0: oracle},
    )
    oracle_gas = chain.deploy_gas_total
    chain.deploy(contract)
    assert chain.deploy_gas_total - oracle_gas == Architecture.PUBSUB.choice_gas[0] == 1_580_000


def test_deploy_unknown_kind_rejected():
    chain = Chain(GasSchedule().with_overrides({"deploy_per_contract": {"probe": 1}}))

    class Oddity(Contract):
        kind = "never-configured"

    with pytest.raises(LedgerError, match="'never-configured'"):
        chain.deploy(Oddity())
    assert chain.contracts == {}
    assert chain.deploy_gas_total == 0


def test_deploy_charges_the_override_else_the_stated_gas():
    class Stated(Contract):
        kind = "stated"
        deploy_gas = 700

    class Overridden(Stated):
        kind = "overridden"

    chain = Chain(GasSchedule().with_overrides({"deploy_per_contract": {"overridden": 5}}))
    chain.deploy(Overridden())
    assert chain.deploy_gas_total == 5
    chain.deploy(Stated())
    assert chain.deploy_gas_total == 705


@pytest.mark.parametrize("half", ["oracle", "choice"])
@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda variant: variant.id)
def test_run_deploy_override_replaces_only_its_kinds_row_constant(variant, half):
    """An override of one kind of contract replaces that kind's row constant
    in a replay's deployment gas; the other kind, another variant's kind and
    every receipt are untouched."""
    scenario = gen_cost(3, 2, variant)
    row = variant.architecture
    oracle_gas = row.oracle_gas[variant.conditional]
    choice_gas = row.choice_gas[variant.conditional]
    default = run(scenario)
    assert default.gas_deploy == oracle_gas + 3 * choice_gas
    other = next(v for v in ALL_VARIANTS if v != variant)
    overrides = {f"{variant.id}-{half}": 7, f"{other.id}-oracle": 9, f"{other.id}-choice": 9}
    overridden = run(scenario, GasSchedule().with_overrides({"deploy_per_contract": overrides}))
    if half == "oracle":
        assert overridden.gas_deploy == 7 + 3 * choice_gas
    else:
        assert overridden.gas_deploy == oracle_gas + 3 * 7
    assert overridden.gas_operating == default.gas_operating
    assert overridden.receipts == default.receipts


# --- submit / step --------------------------------------------------------


def test_submit_then_step_yields_one_receipt():
    chain = make_chain()
    address = chain.deploy(Probe())
    chain.submit(tx(address))
    receipts = chain.step()
    assert len(receipts) == 1
    assert receipts[0].status == "ok"


def test_receipts_follow_submission_order():
    chain = make_chain()
    address = chain.deploy(Probe())
    chain.submit(tx(address, "noop"))
    chain.submit(tx(address, "log", b"\x00" * 32))
    receipts = chain.step()
    assert [r.tx.function for r in receipts] == ["noop", "log"]


def test_submit_to_unknown_address_raises():
    chain = make_chain()
    with pytest.raises(UnknownContractError):
        chain.submit(tx(99))


def test_empty_step_advances_height():
    chain = make_chain()
    assert chain.step() == []
    assert chain.height == 1


def test_block_timestamp_equals_height():
    chain = make_chain()
    address = chain.deploy(Probe())
    probe = chain.contracts[address]
    for _ in range(75):
        chain.step()
    chain.submit(tx(address))
    receipts = chain.step()
    assert chain.height == 76
    assert receipts[0].mined_at == 76
    assert probe.calls == [(76, "noop")]


def test_transactions_submitted_after_a_step_execute_next_step_in_order():
    chain = make_chain()
    address = chain.deploy(Probe())
    chain.submit(tx(address, "log", b"\x00" * 32))
    assert [r.mined_at for r in chain.step()] == [1]
    # a reaction queued right after block 1 runs first in block 2, ahead of
    # transactions submitted after it
    chain.submit(tx(address, "noop"))
    chain.submit(tx(address, "log", b"\x00" * 32))
    chain.submit(tx(address, "write_new"))
    second = chain.step()
    assert [(r.tx.function, r.mined_at) for r in second] == [
        ("noop", 2), ("log", 2), ("write_new", 2)
    ]
    assert chain.step() == []


def test_skip_empty_blocks_waits_for_the_queue():
    chain = make_chain()
    address = chain.deploy(Probe())
    chain.submit(tx(address))
    assert not chain.idle
    chain.skip_empty_blocks(10)
    assert chain.height == 0  # the next block holds a transaction
    assert [r.mined_at for r in chain.step()] == [1]
    assert chain.idle
    chain.skip_empty_blocks(10)
    assert chain.height == 10
    chain.skip_empty_blocks(4)
    assert chain.height == 10  # never backwards


def test_revert_records_reason_and_base_gas():
    chain = make_chain()
    address = chain.deploy(Probe())
    chain.submit(tx(address, "fail"))
    receipt = chain.step()[0]
    assert receipt.status == "reverted"
    assert receipt.revert_reason == "nope"
    assert receipt.gas_used == 21_000


def test_reverted_receipts_keep_base_plus_calldata_gas():
    """A reverted transaction pays its base and calldata gas, like an ok one
    that does nothing, whether or not the chain has priced its payload."""
    payload = b"\x00" * 32 + b"\x01" * 32
    for schedule, intrinsic in (
        (make_chain().schedule, 21_000 + 32 * 4 + 32 * 16),
        (make_chain().schedule.with_overrides({"tx_base": 7, "per_zero_byte": 1}), 7 + 32 + 32 * 16),
    ):
        chain = Chain(schedule)
        address = chain.deploy(Probe())
        chain.submit(tx(address, "fail", payload))
        chain.submit(tx(address, "noop", payload))
        chain.submit(tx(address, "fail", payload))
        assert [(r.status, r.gas_used) for r in chain.step()] == [
            ("reverted", intrinsic), ("ok", intrinsic), ("reverted", intrinsic)
        ]


def test_fan_out_readdressing_keeps_the_call():
    original = tx(1, "push", b"\x01" * 64)
    copy = original.sent_to(2)
    assert type(copy) is Transaction
    assert copy == original._replace(to=2)


def test_default_schedules_share_no_deploy_table():
    from deferred_choice.oracles import OracleVariant, make_oracle_contract

    first = GasSchedule()
    first.deploy_per_contract["storage-oracle"] = 1
    assert GasSchedule().deploy_per_contract == {}
    chain = Chain(GasSchedule())
    chain.deploy(make_oracle_contract(OracleVariant.parse("storage"), "x"))
    assert chain.deploy_gas_total == 280_000
    with pytest.raises(AttributeError):
        first.tx_base = 1  # frozen: a chain keeps what it derives from it


def test_revert_does_not_abort_the_block():
    chain = make_chain()
    address = chain.deploy(Probe())
    chain.submit(tx(address, "fail"))
    chain.submit(tx(address, "noop"))
    receipts = chain.step()
    assert [r.status for r in receipts] == ["reverted", "ok"]


def test_write_costs_new_then_update():
    chain = make_chain()
    address = chain.deploy(Probe())
    chain.submit(tx(address, "write_update"))
    chain.submit(tx(address, "write_update"))
    first, second = chain.step()
    assert first.gas_used == 21_000 + 20_000
    assert second.gas_used == 21_000 + 5_000


def test_log_costs_base_plus_per_byte():
    chain = make_chain()
    address = chain.deploy(Probe())
    chain.submit(tx(address, "log", b"\x00" * 32))
    (receipt,) = chain.step()
    # base, one zero calldata word, and the log's base and per-byte terms
    assert receipt.gas_used == 21_000 + 4 * 32 + 375 + 8 * 32


def test_payloads_word_aligned():
    with pytest.raises(Exception):
        Transaction("sim", 1, "f", b"\x00" * 31)
    chain = make_chain()
    address = chain.deploy(Probe())
    chain.submit(tx(address, "log", b"\x00" * 64))
    for receipt in chain.step():
        assert len(receipt.tx.payload) % 32 == 0
        for log in receipt.logs:
            assert len(log.payload) % 32 == 0


def test_identical_runs_are_deterministic():
    def run_once():
        chain = make_chain()
        address = chain.deploy(Probe())
        chain.submit(tx(address, "write_new"))
        chain.submit(tx(address, "log", b"\x01" * 32))
        chain.step()
        chain.submit(tx(address, "write_update"))
        chain.step()
        return [(r.mined_at, r.gas_used, r.status) for r in chain.receipts]

    assert run_once() == run_once()


# --- records ----------------------------------------------------------------

# every field of each record, in declaration order, with a sample value
RECORD_FIELDS = {
    Action: {
        "step": 3, "kind": "message", "oracle": None, "value": None,
        "choice": 0, "preferred": 1, "event": 2,
    },
    Transaction: {
        "sender": "sim", "to": 1, "function": "f", "payload": b"\x01" * 32,
    },
    LogEntry: {"source": 1, "topic": "t", "payload": b"\x00" * 64},
    Receipt: {
        "tx": Transaction("sim", 1, "f", b""),
        "mined_at": 1,
        "gas_used": 21_000,
        "logs": (LogEntry(1, "t", b""),),
        "status": "reverted",
        "revert_reason": "nope",
    },
}


@pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_record_keyword_and_positional_construction_agree(cls):
    fields = RECORD_FIELDS[cls]
    record = cls(**fields)
    assert record == cls(*fields.values())
    assert {name: getattr(record, name) for name in fields} == fields


@pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_record_fields_cannot_be_assigned(cls):
    record = cls(**RECORD_FIELDS[cls])
    for name, value in RECORD_FIELDS[cls].items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)


@pytest.mark.parametrize("payload", [b"\x00", b"\x01" * 31, b"\x00" * 33])
def test_unaligned_record_payload_rejected(payload):
    with pytest.raises(LedgerError):
        Transaction("sim", 1, "f", payload)
    with pytest.raises(LedgerError):
        Transaction(sender="sim", to=1, function="f", payload=payload)
    with pytest.raises(LedgerError):
        Transaction("sim", 1, "f", b"")._replace(payload=payload)
    with pytest.raises(LedgerError):
        LogEntry(1, "t", payload)
    with pytest.raises(LedgerError):
        LogEntry(source=1, topic="t", payload=payload)


def test_action_fields_default_to_none():
    action = Action(step=1, kind="update")
    assert (action.step, action.kind) == (1, "update")
    assert [action.oracle, action.value, action.choice, action.preferred, action.event] == [None] * 5


# --- receipts log line ------------------------------------------------------------


def reference_line(receipt):
    """The receipts-log line as ``json.dumps`` of the record dict."""
    record = {
        "step": receipt.mined_at,
        "from": receipt.tx.sender,
        "to": receipt.tx.to,
        "function": receipt.tx.function,
        "payload_bytes": receipt.tx.payload.hex(),
        "gas_used": receipt.gas_used,
        "status": receipt.status,
        "logs": [
            {"source": log.source, "topic": log.topic, "payload": log.payload.hex()}
            for log in receipt.logs
        ],
    }
    return json.dumps(record) + "\n"


# quotes, backslashes, control characters, non-ASCII and lone surrogates
texts = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\ud800\U0001f600'),
        st.characters(codec=None, categories=None),
    )
)
ints = st.one_of(st.integers(min_value=0, max_value=2**64), st.integers(min_value=-(2**520), max_value=2**520))
payloads = st.lists(st.binary(min_size=32, max_size=32), max_size=3).map(b"".join)
log_entries = st.builds(LogEntry, ints, texts, payloads)
receipts = st.builds(
    Receipt,
    st.builds(Transaction, texts, ints, texts, payloads),
    ints,
    ints,
    st.lists(log_entries, max_size=4).map(tuple),
    st.sampled_from(["ok", "reverted"]),
    st.one_of(st.none(), texts),
)


@settings(max_examples=300, deadline=None)
@given(receipts)
@example(Receipt(Transaction("sim", 3, "activate", b""), 73, 21_000, (), "ok"))
@example(
    Receipt(
        Transaction('pro"vider\\-\x01', 2**256, "caf\xe9\u2028", b"\x00" * 31 + b"\xff"),
        2**70,
        -1,
        (LogEntry(0, "", b""), LogEntry(2, "t\u00f6pic\n", b"\x01" * 64), LogEntry(3, "\ud83d", b"")),
        "reverted",
        "unknown contract",
    )
)
def test_receipt_line_matches_json_dumps(receipt):
    assert receipt_line(receipt) == reference_line(receipt)
