"""Command-line entry point.

Subcommands:

* ``run <file>`` — replay one scenario file; writes report.csv and
  receipts.log.
* ``correctness`` — random-scenario correctness experiment; writes a
  summary table as report.csv.
* ``cost`` — cost grid over consumers x updates; writes per-cell
  report.csv and a globally min-max normalized heatmap.csv.

``--gas-schedule`` accepts a JSON file overriding schedule constants, e.g.
``{"tx_base": 30000, "deploy_per_contract": {"storage-oracle": 1}}``;
``deploy_per_contract`` names only kinds that some variant deploys.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from pathlib import Path

from .experiments import (
    correctness_rows,
    heatmap_rows,
    report_rows,
    run_correctness_experiment,
    run_cost_experiment,
    write_correctness_csv,
    write_heatmap_csv,
    write_receipts_log,
    write_report_csv,
)
from .ledger import GasSchedule, LedgerError
from .oracles import ALL_VARIANTS, OracleError, OracleVariant
from .scenario import Scenario, ScenarioError, run

DEFAULT_SEED = 11


def _distinct(values: list, text: str) -> None:
    """Reject a value the comma list ``text`` repeats: it would be counted twice."""
    for index, value in enumerate(values):
        if value in values[:index]:
            raise argparse.ArgumentTypeError(f"{value} is repeated in {text!r}")


def _integers(minimum: int, single: bool = False) -> Callable[[str], int | list[int]]:
    """The argument type of a comma list of distinct integers >= ``minimum``,
    or one if ``single``."""

    def integers(text: str) -> int | list[int]:
        values = [int(part) for part in ([text] if single else text.split(",")) if part]
        if not values or min(values) < minimum:
            raise argparse.ArgumentTypeError(f"expected integers >= {minimum}, got {text!r}")
        _distinct(values, text)
        return values[0] if single else values

    return integers


def _variants(text: str) -> list[OracleVariant]:
    """The argument type of a non-empty comma list of distinct variants, or 'all'."""
    if text.strip() == "all":
        return list(ALL_VARIANTS)
    try:
        variants = [OracleVariant.parse(part) for part in text.split(",") if part]
    except OracleError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    if not variants:
        raise argparse.ArgumentTypeError(f"expected a comma list of variants, got {text!r}")
    _distinct([variant.id for variant in variants], text)
    return variants


class _InputError(Exception):
    """An input file cannot be used; the command exits 2."""


def _load_schedule(path: str | None) -> GasSchedule:
    schedule = GasSchedule()
    if path is None:
        return schedule
    try:
        with open(path, encoding="utf-8") as handle:
            loaded = schedule.with_overrides(json.load(handle))
        # every variant deploys an oracle and a choice contract
        kinds = {f"{v.id}-{half}" for v in ALL_VARIANTS for half in ("oracle", "choice")}
        unknown = sorted(set(loaded.deploy_per_contract) - kinds)
        if unknown:
            raise LedgerError(f"deploy_per_contract names kinds nothing deploys: {unknown}")
        return loaded
    # ValueError covers undecodable text and JSON, and over-long integers
    except (OSError, ValueError, RecursionError, LedgerError) as error:
        raise _InputError(f"gas schedule {path}: {error}") from None


def _out_dir(path: str) -> Path:
    """The output directory, made before any work, so an unusable one fails at once."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        raise _InputError(f"output directory {path}: {error}") from None
    return out


def _write(writer: Callable[[Path, object], None], path: Path, rows: object) -> None:
    """Write ``rows`` to ``path`` with ``writer``; an unwritable path is an input error."""
    try:
        writer(path, rows)
    except OSError as error:
        raise _InputError(f"output file {path}: {error}") from None


def cmd_run(args: argparse.Namespace) -> int:
    schedule = _load_schedule(args.gas_schedule)
    try:
        scenario = Scenario.from_json(Path(args.scenario).read_bytes())
    except (OSError, ScenarioError) as error:
        raise _InputError(error) from None
    out = _out_dir(args.out)
    report = run(scenario, schedule)
    _write(write_report_csv, out / "report.csv", report_rows([report]))
    _write(write_receipts_log, out / "receipts.log", [report])
    winner = "nil" if report.winner is None else report.winner
    print(
        f"{scenario.scenario_id}: winner={winner} truth="
        f"{'nil' if report.truth is None else report.truth} "
        f"correct={str(report.correct).lower()} gas_total={report.gas_total}"
    )
    return 0


def cmd_correctness(args: argparse.Namespace) -> int:
    schedule = _load_schedule(args.gas_schedule)
    out = _out_dir(args.out)
    results = run_correctness_experiment(args.n, args.k, args.variants, args.seed, schedule)
    rows = correctness_rows(results)
    _write(write_correctness_csv, out / "report.csv", rows)
    for row in rows:
        regular = f"{row.regular_pct:5.1f}%" if row.regular_total else "    -"
        conditional = (
            f"{row.conditional_pct:5.1f}%" if row.conditional_total else "    -"
        )
        print(
            f"{row.semantics:20s} {row.architecture:18s} "
            f"reg={regular} cond={conditional}"
        )
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    schedule = _load_schedule(args.gas_schedule)
    out = _out_dir(args.out)
    reports = run_cost_experiment(args.c, args.u, args.variants, schedule)
    _write(write_report_csv, out / "report.csv", report_rows(reports))
    _write(write_heatmap_csv, out / "heatmap.csv", heatmap_rows(reports))
    print(f"wrote {len(reports)} cells for {len(args.variants)} variants to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deferred-choice",
        description="Deterministic deferred-choice simulator and experiment harness",
    )
    parser.add_argument(
        "--gas-schedule", metavar="FILE", help="JSON file with gas schedule overrides"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="replay one scenario file")
    run_parser.add_argument("scenario", help="scenario JSON file")
    run_parser.add_argument("--out", default="out", help="output directory")
    run_parser.set_defaults(func=cmd_run)

    corr = commands.add_parser("correctness", help="correctness experiment")
    corr.add_argument(
        "--n", type=_integers(1, single=True), default=60, help="scenarios per variant"
    )
    corr.add_argument("--k", type=_integers(2), default="5,10", help="comma list of event counts")
    corr.add_argument("--variants", type=_variants, default="all", help="comma list or 'all'")
    corr.add_argument("--seed", type=int, default=DEFAULT_SEED)
    corr.add_argument("--out", default="out", help="output directory")
    corr.set_defaults(func=cmd_correctness)

    cost = commands.add_parser("cost", help="cost experiment grid")
    cost.add_argument(
        "--c", type=_integers(1), default="5,10,20", help="comma list of consumer counts"
    )
    cost.add_argument(
        "--u", type=_integers(1), default="1,10,20,30", help="comma list of update counts"
    )
    cost.add_argument("--variants", type=_variants, default="all", help="comma list or 'all'")
    cost.add_argument("--out", default="out", help="output directory")
    cost.set_defaults(func=cmd_cost)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        return args.func(args)
    except _InputError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Exception as error:  # surface anything unexpected as a diagnostic
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
