"""Deterministic transaction-driven runtime standing in for a blockchain.

Block ``n`` is the block of simulation step ``n`` and its timestamp equals
its height, which realizes the discrete time domain of the semantics layer
directly on-chain. The chain keeps one queue of transactions, and a block
runs what was queued for it in the order it was submitted. A block that
would hold no transaction changes nothing but the height, so the chain can
skip it (``Chain.skip_empty_blocks``).
Gas covers the transaction base cost, calldata bytes, storage writes, log
emission and any execution surcharge a contract adds (synchronous oracle
reads are metered that way). Base plus calldata gas depends on the payload
alone, so a chain computes it once per distinct payload under its (frozen)
schedule; fan-outs and repeated calls share payloads. The other terms are
metered as the contract runs. Deploying a contract charges the gas it
states (``Contract.deploy_gas``) unless the schedule overrides its kind;
the ledger itself names no kind of contract. There is no virtual machine:
contracts are Python objects dispatching on a function selector.
Transactions, logs and receipts are immutable named tuples.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

from . import wordcodec


class LedgerError(Exception):
    """Base class for ledger failures."""


class UnknownContractError(LedgerError):
    """A transaction was submitted to an address with no contract."""


class Revert(Exception):
    """Raised by contract code to abort the current transaction."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _TransactionFields(NamedTuple):
    sender: str
    to: int
    function: str
    payload: bytes


class Transaction(_TransactionFields):
    """An immutable transaction; its payload must be whole words."""

    __slots__ = ()

    def __new__(cls, sender: str, to: int, function: str, payload: bytes) -> "Transaction":
        if len(payload) % wordcodec.WORD_SIZE:
            raise LedgerError(
                f"payload length {len(payload)} is not a multiple of 32"
            )
        return tuple.__new__(cls, (sender, to, function, payload))

    @classmethod
    def _make(cls, iterable) -> "Transaction":
        return cls(*iterable)  # so that ``_replace`` validates too

    def sent_to(self, to: int) -> "Transaction":
        """This transaction addressed to ``to``; its payload is validated
        already, so a fan-out re-wraps it without checking it again."""
        return tuple.__new__(Transaction, (self.sender, to, self.function, self.payload))


class _LogEntryFields(NamedTuple):
    source: int
    topic: str
    payload: bytes


class LogEntry(_LogEntryFields):
    """An immutable log record; its payload must be whole words."""

    __slots__ = ()

    def __new__(cls, source: int, topic: str, payload: bytes) -> "LogEntry":
        if len(payload) % wordcodec.WORD_SIZE:
            raise LedgerError("log payload is not word aligned")
        return tuple.__new__(cls, (source, topic, payload))

    @classmethod
    def _make(cls, iterable) -> "LogEntry":
        return cls(*iterable)  # so that ``_replace`` validates too


class Receipt(NamedTuple):
    tx: Transaction
    mined_at: int
    gas_used: int
    logs: tuple[LogEntry, ...]
    status: str  # "ok" | "reverted"
    revert_reason: str | None = None


@dataclass(frozen=True)
class GasSchedule:
    """Cost constants; configuration, not contract. Frozen, so a chain may
    keep what it derived from its schedule."""

    tx_base: int = 21_000
    per_zero_byte: int = 4
    per_nonzero_byte: int = 16
    storage_write_new: int = 20_000
    storage_write_update: int = 5_000
    log_base: int = 375
    log_per_byte: int = 8
    # per-kind overrides of the gas a contract states it costs to deploy
    deploy_per_contract: dict[str, int] = field(default_factory=dict)

    def byte_cost(self, data: bytes) -> int:
        zeros = data.count(0)
        return zeros * self.per_zero_byte + (len(data) - zeros) * self.per_nonzero_byte

    def log_cost(self, log: LogEntry) -> int:
        return self.log_base + self.log_per_byte * len(log.payload)

    def with_overrides(self, overrides: object) -> "GasSchedule":
        """This schedule with the constants a decoded JSON object names
        replaced; ``deploy_per_contract`` is an object of per-kind constants
        merged into this schedule's. Every constant is a non-negative int.
        Raises ``LedgerError`` naming the key of a value it rejects."""
        if not isinstance(overrides, Mapping):
            raise LedgerError(f"a gas schedule is an object, not {overrides!r}")
        names = {f.name for f in fields(self)}
        scalars = {}
        for key, value in overrides.items():
            if key not in names:
                raise LedgerError(f"unknown gas schedule key {key!r}")
            if key != "deploy_per_contract":
                scalars[key] = _gas(key, value)
        schedule = replace(self, **scalars)
        if "deploy_per_contract" in overrides:
            deploys = overrides["deploy_per_contract"]
            if not isinstance(deploys, Mapping):
                raise LedgerError(
                    f"deploy_per_contract is an object of per-kind gas, not {deploys!r}"
                )
            merged = dict(schedule.deploy_per_contract)
            merged.update(
                {kind: _gas(f"deploy_per_contract.{kind}", gas) for kind, gas in deploys.items()}
            )
            schedule = replace(schedule, deploy_per_contract=merged)
        return schedule


def _gas(key: str, value: object) -> int:
    """``value`` if it is a non-negative int and not a bool."""
    if type(value) is not int or value < 0:
        raise LedgerError(f"gas schedule key {key!r}: {value!r} is not a non-negative integer")
    return value


class ExecutionContext:
    """Per-transaction accounting: block time, logs, and the gas of storage
    writes and logs (``gas``) and of surcharges (``surcharge``), each
    metered when it happens."""

    __slots__ = ("block_time", "schedule", "logs", "gas", "surcharge")

    def __init__(self, block_time: int, schedule: GasSchedule):
        self.block_time = block_time
        self.schedule = schedule
        self.logs: list[LogEntry] = []
        self.gas = 0
        self.surcharge = 0

    def write(self, storage: dict[str, int], key: str, value: int) -> None:
        """Write a storage slot, metered as new or as an update."""
        if key in storage:
            self.gas += self.schedule.storage_write_update
        else:
            self.gas += self.schedule.storage_write_new
        storage[key] = value

    def log(self, source: int, topic: str, payload: bytes = b"") -> None:
        log = LogEntry(source, topic, payload)
        self.logs.append(log)
        self.gas += self.schedule.log_cost(log)

    def charge_bytes(self, data: bytes) -> None:
        self.surcharge += self.schedule.byte_cost(data)


class Contract:
    """Base for on-chain objects; the chain assigns the address at deploy
    and charges ``deploy_gas``, unless the schedule overrides its kind."""

    kind: str = "contract"
    deploy_gas: int | None = None

    def __init__(self) -> None:
        self.address: int = 0
        self.storage: dict[str, int] = {}  # written through ``ExecutionContext.write``

    def handle(self, ctx: ExecutionContext, function: str, payload: bytes) -> None:
        raise Revert(f"unknown function {function!r}")


class Chain:
    """Single-owner deterministic chain: blocks, receipts, gas attribution."""

    def __init__(self, schedule: GasSchedule | None = None):
        self.schedule = schedule or GasSchedule()
        self.height = 0
        self.contracts: dict[int, Contract] = {}
        self.receipts: list[Receipt] = []
        self.deploy_gas_total = 0
        self._next_address = 1
        self._pending: list[Transaction] = []
        # payload -> base plus calldata gas under ``schedule``; fan-outs and
        # repeated calls share payloads, so most transactions look it up
        self._intrinsic: dict[bytes, int] = {}

    def deploy(self, contract: Contract) -> int:
        """Register a contract and charge its deployment gas: the schedule's
        constant for its kind, else the contract's own."""
        gas = self.schedule.deploy_per_contract.get(contract.kind, contract.deploy_gas)
        if gas is None:
            raise LedgerError(f"no deployment cost configured for kind {contract.kind!r}")
        address = self._next_address
        self._next_address += 1
        contract.address = address
        self.contracts[address] = contract
        self.deploy_gas_total += gas
        return address

    def submit(self, tx: Transaction) -> None:
        """Queue for the next mined block, after every transaction queued
        before it; the target must exist."""
        if tx.to not in self.contracts:
            raise UnknownContractError(f"no contract at address {tx.to}")
        self._pending.append(tx)

    @property
    def idle(self) -> bool:
        """Whether no transaction is queued for the next block."""
        return not self._pending

    def skip_empty_blocks(self, height: int) -> None:
        """Advance to ``height`` without mining, unless a transaction is
        queued, in which case the next block is not empty."""
        if self.idle and height > self.height:
            self.height = height

    def step(self) -> list[Receipt]:
        """Mine one block: execute the queue in submission order."""
        self.height += 1
        batch, self._pending = self._pending, []
        mined = [self._execute(tx, self.height) for tx in batch]
        self.receipts += mined
        return mined

    def _execute(self, tx: Transaction, block_time: int) -> Receipt:
        payload = tx.payload
        intrinsic = self._intrinsic.get(payload)
        if intrinsic is None:
            schedule = self.schedule
            intrinsic = self._intrinsic[payload] = schedule.tx_base + schedule.byte_cost(payload)
        ctx = ExecutionContext(block_time, self.schedule)
        try:
            self.contracts[tx.to].handle(ctx, tx.function, payload)
        except Revert as revert:
            return _receipt(Receipt, (tx, block_time, intrinsic, (), "reverted", revert.reason))
        gas = intrinsic + ctx.gas + ctx.surcharge
        return _receipt(Receipt, (tx, block_time, gas, tuple(ctx.logs), "ok", None))


_receipt = tuple.__new__  # a receipt's fields need no checks, so skip its ``__new__``


_quote = json.encoder.encode_basestring_ascii


def receipt_line(receipt: Receipt) -> str:
    """One line of the receipts log, newline included: the JSON object
    ``json.dumps`` writes for the receipt, with ASCII-escaped strings and
    its default separators, formatted directly."""
    tx = receipt.tx
    logs = ", ".join(
        f'{{"source": {log.source}, "topic": {_quote(log.topic)}, '
        f'"payload": "{log.payload.hex()}"}}'
        for log in receipt.logs
    )
    return (
        f'{{"step": {receipt.mined_at}, "from": {_quote(tx.sender)}, "to": {tx.to}, '
        f'"function": {_quote(tx.function)}, "payload_bytes": "{tx.payload.hex()}", '
        f'"gas_used": {receipt.gas_used}, "status": {_quote(receipt.status)}, '
        f'"logs": [{logs}]}}\n'
    )
