"""Experiment generators, drivers and report serialization.

Two experiment families are provided:

* correctness — random deferred choices whose events occur strictly
  sequentially, three steps apart, so event 0 is the unambiguous winner;
  ranking implementations must always pick it, while the continual
  baseline only succeeds when the first event happens to be explicit.
* cost — ``c`` choices sharing a single oracle that receives ``u``
  updates; a trigger is sent to every choice at each fifth update and only
  the final update satisfies the condition.
"""

from __future__ import annotations

import csv
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields
from pathlib import Path

from . import expr as exprlang
from .ledger import GasSchedule, receipt_line
from .oracles import Architecture, OracleVariant
from .scenario import (
    Action,
    ChoiceDecl,
    ExperimentReport,
    OracleDecl,
    Scenario,
    run,
)
from .semantics import (
    KIND_NAMES,
    Conditional,
    EventSpec,
    Message,
    RelativeTimer,
)

_EVENT_SPACING = 3  # steps between consecutive event occurrences


# --- correctness experiment ---------------------------------------------------


def gen_correctness(n: int, k: int, variant: OracleVariant, seed: int) -> list[Scenario]:
    """Random choices with k events occurring sequentially; event 0 first.

    Event types are sampled uniformly from message, relative timer and
    conditional. Conditions start unsatisfied and flip at the event's slot;
    each conditional event watches its own variable through its own oracle.
    The draw depends only on (n, k, seed), so every variant replays the
    same event sequences.
    """
    if n < 1 or k < 2:
        raise ValueError("need n >= 1 scenarios and k >= 2 events")
    rng = random.Random(seed)
    scenarios = []
    for index in range(n):
        kinds = [
            rng.choice(("message", "relative-timer", "conditional")) for _ in range(k)
        ]
        activation = 2
        occurrence = [activation + _EVENT_SPACING * (i + 1) for i in range(k)]
        events: list[EventSpec] = []
        bindings: dict[int, int] = {}
        oracles: list[OracleDecl] = []
        actions: list[Action] = [Action(step=activation, kind="activate", choice=0)]
        for eid, kind_name in enumerate(kinds):
            at = occurrence[eid]
            if kind_name == "message":
                events.append(EventSpec(eid, Message()))
                actions.append(Action(step=at, kind="message", choice=0, event=eid))
            elif kind_name == "relative-timer":
                events.append(EventSpec(eid, RelativeTimer(at - activation)))
            else:
                oracle_index = len(oracles)
                variable = f"x{oracle_index}"
                oracles.append(OracleDecl(variable))
                events.append(
                    EventSpec(eid, Conditional(exprlang.parse(f"{variable} >= 1")))
                )
                bindings[eid] = oracle_index
                actions.append(
                    Action(step=1, kind="update", oracle=oracle_index, value=0)
                )
                actions.append(
                    Action(step=at, kind="update", oracle=oracle_index, value=1)
                )
        final = occurrence[-1] + _EVENT_SPACING
        actions.append(Action(step=final, kind="trigger", choice=0))
        actions.sort(key=lambda a: (a.step, 0 if a.kind == "update" else 1))
        scenarios.append(
            Scenario(
                scenario_id=f"corr-k{k}-{index:04d}",
                variant=variant,
                semantics=variant.semantics,
                oracles=tuple(oracles),
                choices=(ChoiceDecl(tuple(events), bindings),),
                timeline=tuple(actions),
                seed=seed,
            )
        )
    return scenarios


@dataclass
class CorrectnessRecord:
    """One correctness replay: the contract's winner next to the ground truth's."""
    scenario_id: str
    k: int
    first_event_kind: str
    winner: int | None
    truth: int | None
    correct: bool


def run_correctness_experiment(
    n: int,
    ks: Sequence[int],
    variants: Sequence[OracleVariant],
    seed: int,
    schedule: GasSchedule | None = None,
) -> dict[str, list[CorrectnessRecord]]:
    """n scenarios per variant, split evenly across the requested k values
    (the first ``n % len(ks)`` get one more); a k value whose share is 0 is
    skipped."""
    counts = [n // len(ks)] * len(ks)
    for i in range(n % len(ks)):
        counts[i] += 1
    shares = [(k, count) for k, count in zip(ks, counts) if count]
    results: dict[str, list[CorrectnessRecord]] = {}
    for variant in variants:
        records = []
        for k, count in shares:
            for scenario in gen_correctness(count, k, variant, seed * 1000 + k):
                report = run(scenario, schedule)
                records.append(
                    CorrectnessRecord(
                        scenario_id=f"{scenario.scenario_id}-{variant.id}",
                        k=k,
                        first_event_kind=KIND_NAMES[type(scenario.choices[0].events[0].kind)],
                        winner=report.winner,
                        truth=report.truth,
                        correct=report.correct,
                    )
                )
        results[variant.id] = records
    return results


@dataclass
class CorrectnessRow:
    """One row of the correctness table: an architecture's correct replays."""
    semantics: str
    architecture: str
    regular_correct: int
    regular_total: int
    conditional_correct: int
    conditional_total: int

    @property
    def regular_pct(self) -> float:
        return 100.0 * self.regular_correct / max(self.regular_total, 1)

    @property
    def conditional_pct(self) -> float:
        return 100.0 * self.conditional_correct / max(self.conditional_total, 1)


def correctness_rows(
    results: dict[str, list[CorrectnessRecord]]
) -> list[CorrectnessRow]:
    rows = []
    for architecture in Architecture:
        cells = {}
        for conditional in (False, True):
            records = results.get(OracleVariant(architecture, conditional).id, [])
            cells[conditional] = (
                sum(1 for r in records if r.correct),
                len(records),
            )
        if cells[False][1] == 0 and cells[True][1] == 0:
            continue
        rows.append(
            CorrectnessRow(
                semantics=OracleVariant(architecture).semantics.value,
                architecture=architecture.value,
                regular_correct=cells[False][0],
                regular_total=cells[False][1],
                conditional_correct=cells[True][0],
                conditional_total=cells[True][1],
            )
        )
    return rows


# --- cost experiment ----------------------------------------------------------


def gen_cost(c: int, u: int, variant: OracleVariant) -> Scenario:
    """c consumers on one shared oracle, u updates, triggers at every fifth
    update (plus a final round when u is not a multiple of five); only the
    last update satisfies the condition."""
    if c < 1 or u < 1:
        raise ValueError("need c >= 1 consumers and u >= 1 updates")
    condition = f"x >= {u}"
    events = (EventSpec(0, Conditional(exprlang.parse(condition))),)
    choices = tuple(ChoiceDecl(events, {0: 0}) for _ in range(c))
    actions: list[Action] = [Action(step=1, kind="update", oracle=0, value=0)]
    activation = 2
    for choice in range(c):
        actions.append(Action(step=activation, kind="activate", choice=choice))
    update_step = {}
    for r in range(1, u + 1):
        update_step[r] = activation + _EVENT_SPACING * r
        actions.append(
            Action(step=update_step[r], kind="update", oracle=0, value=r)
        )
    trigger_rounds = [update_step[5 * j] for j in range(1, u // 5 + 1)]
    if u % 5:
        trigger_rounds.append(update_step[u] + _EVENT_SPACING)
    for step in trigger_rounds:
        for choice in range(c):
            actions.append(Action(step=step, kind="trigger", choice=choice))
    actions.sort(key=lambda a: (a.step, 0 if a.kind == "update" else 1))
    return Scenario(
        scenario_id=f"cost-{variant.id}-c{c}-u{u}",
        variant=variant,
        semantics=variant.semantics,
        oracles=(OracleDecl("x"),),
        choices=choices,
        timeline=tuple(actions),
        seed=0,
    )


def run_cost_experiment(
    cs: Sequence[int],
    us: Sequence[int],
    variants: Sequence[OracleVariant],
    schedule: GasSchedule | None = None,
) -> list[ExperimentReport]:
    reports = []
    for variant in variants:
        for c in cs:
            for u in us:
                reports.append(run(gen_cost(c, u, variant), schedule))
    return reports


@dataclass
class HeatmapRow:
    """One heatmap cell: a variant's normalized per-consumer gas at (c, u)."""
    variant: str
    c: int
    u: int
    normalized: float


def heatmap_rows(reports: Sequence[ExperimentReport]) -> list[HeatmapRow]:
    """Global min-max normalization of per-consumer operating cost."""
    costs = [report.gas_per_consumer for report in reports]
    lo, hi = min(costs), max(costs)
    span = hi - lo
    rows = []
    for report in reports:
        value = 0.0 if span == 0 else (report.gas_per_consumer - lo) / span
        rows.append(
            HeatmapRow(
                variant=report.variant.id,
                c=report.consumers,
                u=report.updates,
                normalized=value,
            )
        )
    return rows


# --- CSV and receipt serialization ------------------------------------------------


@dataclass
class ReportRow:
    """One line of ``report.csv``: a replay's outcome and gas."""
    scenario_id: str
    variant: str
    semantics: str
    c: int
    u: int
    winner: int | None
    truth: int | None
    correct: bool
    gas_deploy: int
    gas_total: int
    gas_per_consumer: float


def report_rows(reports: Iterable[ExperimentReport]) -> list[ReportRow]:
    return [
        ReportRow(
            scenario_id=r.scenario_id,
            variant=r.variant.id,
            semantics=r.variant.semantics.value,
            c=r.consumers,
            u=r.updates,
            winner=r.winner,
            truth=r.truth,
            correct=r.correct,
            gas_deploy=r.gas_deploy,
            gas_total=r.gas_total,
            gas_per_consumer=r.gas_per_consumer,
        )
        for r in reports
    ]


def _cell(row, column: str) -> object:
    """The CSV cell of ``row``'s ``column``: an int or str as is, a float by
    ``repr``, ``nil`` for None and ``true``/``false`` for a bool. A derived
    ``*_pct`` column is written to one decimal, and empty when its total
    is 0."""
    value = getattr(row, column)
    kind = type(value)
    if kind is int or kind is str:
        return value
    if kind is float:
        if column.endswith("_pct"):
            return f"{value:.1f}" if getattr(row, column.replace("_pct", "_total")) else ""
        return repr(value)
    if value is None:
        return "nil"
    return "true" if value else "false"


def _columns(row_type: type) -> list[str]:
    """A row dataclass's CSV columns: its fields, each ``*_total`` followed
    by the derived ``*_pct`` where the class defines one."""
    columns = []
    for field in fields(row_type):
        columns.append(field.name)
        stem = field.name.removesuffix("_total")
        if stem != field.name and hasattr(row_type, f"{stem}_pct"):
            columns.append(f"{stem}_pct")
    return columns


# the reading of each field type's cells, the inverse of ``_cell``
_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "bool": "true".__eq__,
    "int | None": lambda text: None if text == "nil" else int(text),
}


def _write_csv(path: str | Path, row_type: type, rows: Iterable) -> None:
    columns = _columns(row_type)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows([_cell(row, column) for column in columns] for row in rows)


def _read_csv(path: str | Path, row_type: type) -> list:
    parsers = [(f.name, _PARSERS[f.type]) for f in fields(row_type)]
    with open(path, newline="") as handle:
        return [
            row_type(*[parse(row[name]) for name, parse in parsers])
            for row in csv.DictReader(handle)
        ]


def write_report_csv(path: str | Path, rows: Iterable[ReportRow]) -> None:
    _write_csv(path, ReportRow, rows)


def read_report_csv(path: str | Path) -> list[ReportRow]:
    return _read_csv(path, ReportRow)


def write_correctness_csv(path: str | Path, rows: Iterable[CorrectnessRow]) -> None:
    _write_csv(path, CorrectnessRow, rows)


def read_correctness_csv(path: str | Path) -> list[CorrectnessRow]:
    return _read_csv(path, CorrectnessRow)


def write_heatmap_csv(path: str | Path, rows: Iterable[HeatmapRow]) -> None:
    _write_csv(path, HeatmapRow, rows)


def write_receipts_log(path: str | Path, reports: Iterable[ExperimentReport]) -> None:
    """Line-delimited JSON, one record per receipt."""
    with open(path, "w") as handle:
        for report in reports:
            handle.writelines(map(receipt_line, report.receipts))
