"""The benchmark's three workloads.

Each workload generates its inputs once per set-up, replays them one at a
time in a pass, writes the pass's outputs with the package writers and
checks the claims those outputs must meet.

* ``correctness`` — the paper's correctness experiment (n=60, k=5,10, all
  variants): 600 tiny single-choice replays with one oracle per conditional
  event, so per-replay and per-block fixed costs dominate.
* ``cost`` — the paper's consumers x updates grid plus a c=100, u=100
  scaling cell, all variants: many consumers share one oracle, so the
  ground truth, the word codec and the oracle history reads dominate.
* ``fuzz`` — seeded write-heavy scenarios round-tripped through JSON like
  ``deferred-choice run``; the only workload where ranking variants
  disagree with the reference today, so its failure ratio is non-zero.
"""

from __future__ import annotations

from pathlib import Path

import fuzzgen

CORRECTNESS_N = 60
CORRECTNESS_KS = (5, 10)
COST_CELLS = tuple((c, u) for c in (5, 10, 20) for u in (1, 10, 20, 30)) + ((100, 100),)
FUZZ_SCENARIOS = 300

_KIND_NAMES = {
    "Message": "message",
    "AbsoluteTimer": "absolute-timer",
    "RelativeTimer": "relative-timer",
    "Conditional": "conditional",
}


class Correctness:
    name = "correctness"
    default_seed = 11  # the seed the paper's correctness table is reproduced with

    def generate(self, pkg, seed: int) -> list:
        # the same split and per-k seeds as run_correctness_experiment
        counts = [CORRECTNESS_N // len(CORRECTNESS_KS)] * len(CORRECTNESS_KS)
        for i in range(CORRECTNESS_N % len(CORRECTNESS_KS)):
            counts[i] += 1
        return [
            scenario
            for variant in pkg.oracles.ALL_VARIANTS
            for k, count in zip(CORRECTNESS_KS, counts)
            for scenario in pkg.experiments.gen_correctness(count, k, variant, seed * 1000 + k)
        ]

    def replay(self, pkg, scenario):
        return pkg.scenario.run(scenario)

    def write(self, pkg, done: list, out: Path) -> list[Path]:
        ex = pkg.experiments
        results: dict[str, list] = {}
        for scenario, report in done:
            results.setdefault(report.variant.id, []).append(
                ex.CorrectnessRecord(
                    scenario_id=f"{scenario.scenario_id}-{report.variant.id}",
                    k=len(scenario.choices[0].events),
                    first_event_kind=_KIND_NAMES[type(scenario.choices[0].events[0].kind).__name__],
                    winner=report.winner,
                    truth=report.truth,
                    correct=report.correct,
                )
            )
        # the summary table is what `deferred-choice correctness` writes; the
        # per-replay report adds gas, so a changed cost shows in the digest
        ex.write_correctness_csv(out / "report.csv", ex.correctness_rows(results))
        ex.write_report_csv(out / "replays.csv", ex.report_rows(report for _, report in done))
        return [out / "report.csv", out / "replays.csv"]

    def check(self, pkg, out: Path) -> list[str]:
        """The paper's claim: every ranking implementation is always right."""
        rows = pkg.experiments.read_correctness_csv(out / "report.csv")
        problems = [
            f"{row.architecture}: ranking variant below 100% "
            f"({row.regular_correct}/{row.regular_total} regular, "
            f"{row.conditional_correct}/{row.conditional_total} conditional)"
            for row in rows
            if row.semantics == "transaction-driven"
            and (row.regular_correct < row.regular_total
                 or row.conditional_correct < row.conditional_total)
        ]
        total = sum(r.regular_total + r.conditional_total for r in rows)
        expected = CORRECTNESS_N * len(pkg.oracles.ALL_VARIANTS)
        if total != expected:
            problems.append(f"correctness table covers {total} replays, expected {expected}")
        return problems


class Cost:
    name = "cost"
    default_seed = None  # the grid is fixed; the seed changes nothing

    def generate(self, pkg, seed: int) -> list:
        return [
            pkg.experiments.gen_cost(c, u, variant)
            for variant in pkg.oracles.ALL_VARIANTS
            for c, u in COST_CELLS
        ]

    def replay(self, pkg, scenario):
        return pkg.scenario.run(scenario)

    def write(self, pkg, done: list, out: Path) -> list[Path]:
        ex = pkg.experiments
        reports = [report for _, report in done]
        ex.write_report_csv(out / "report.csv", ex.report_rows(reports))
        ex.write_heatmap_csv(out / "heatmap.csv", ex.heatmap_rows(reports))
        return [out / "report.csv", out / "heatmap.csv"]

    def check(self, pkg, out: Path) -> list[str]:
        """The paper's claim: every variant picks the right winner in every cell."""
        rows = pkg.experiments.read_report_csv(out / "report.csv")
        problems = [f"{row.scenario_id}: incorrect winner" for row in rows if not row.correct]
        expected = len(COST_CELLS) * len(pkg.oracles.ALL_VARIANTS)
        if len(rows) != expected:
            problems.append(f"cost report has {len(rows)} cells, expected {expected}")
        return problems


class Fuzz:
    name = "fuzz"
    default_seed = 2104

    def generate(self, pkg, seed: int) -> list:
        scenarios = fuzzgen.generate(pkg, FUZZ_SCENARIOS, seed)
        return [
            scenario.with_variant(variant).to_json()
            for variant in pkg.oracles.ALL_VARIANTS
            for scenario in scenarios
        ]

    def replay(self, pkg, text: str):
        sc = pkg.scenario
        return sc.run(sc.Scenario.from_json(text))

    def write(self, pkg, done: list, out: Path) -> list[Path]:
        ex = pkg.experiments
        reports = [report for _, report in done]
        ex.write_report_csv(out / "report.csv", ex.report_rows(reports))
        ex.write_receipts_log(out / "receipts.log", reports)
        return [out / "report.csv", out / "receipts.log"]

    def check(self, pkg, out: Path) -> list[str]:
        # wrong winners here are the known defects; they are counted as
        # failures, not rejected as broken output
        return []


WORKLOADS = {w.name: w for w in (Correctness(), Cost(), Fuzz())}
