"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import importlib.util
import random
import time
from pathlib import Path

import pytest

import deferred_choice
from deferred_choice import wordcodec as wc
from deferred_choice.choice import DeferredChoiceContract
from deferred_choice.cli import DEFAULT_SEED, main
from deferred_choice.expr import (
    And,
    Comparison,
    Not,
    Or,
    evaluate,
    parse,
    render,
)
from deferred_choice.experiments import (
    heatmap_rows,
    run_correctness_experiment,
    run_cost_experiment,
)
from deferred_choice.oracles import ALL_VARIANTS, History, OracleVariant
from deferred_choice.scenario import Scenario, ground_truth, run
from deferred_choice.semantics import NEVER, AbsoluteTimer, RelativeTimer, timer_fire
from reference import negate_comparison

TRANSACTION_DRIVEN_VARIANTS = tuple(v for v in ALL_VARIANTS if not v.baseline)
TABLE1 = Path(__file__).resolve().parent.parent / "scenarios" / "table1.json"
FUZZGEN = Path(__file__).resolve().parent.parent / "bench" / "fuzzgen.py"


def table1(variant_id):
    return Scenario.from_json(TABLE1.read_text()).with_variant(
        OracleVariant.parse(variant_id)
    )


def test_criterion_1_table1_replay():
    started = time.monotonic()
    # (a) the continual reference executor stops at the timer detection
    truth, observed = ground_truth(table1("onchain-history"))[0]
    assert (truth, observed) == (0, 76)
    # (b) on-chain history finalizes the timer at the step-78 trigger
    history = run(table1("onchain-history")).outcomes[0]
    assert history.winner == 0
    assert history.winner_detection_ts == 76
    assert history.finalized_at == 78
    assert (history.activation_ts, history.observed_ts) == (73, 78)
    # (c) pub/sub finalizes at step 77's push
    pubsub = run(table1("pubsub")).outcomes[0]
    assert pubsub.winner == 0
    assert pubsub.finalized_at == 77
    assert (pubsub.activation_ts, pubsub.observed_ts) == (73, 77)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"replay took {elapsed:.2f}s"
    print(
        f"\n[criterion 1] PASS - bundled scenario exact under continual, "
        f"history and pub/sub execution in {elapsed:.2f}s"
    )


def test_criterion_2_correctness_table():
    started = time.monotonic()
    results = run_correctness_experiment(60, (5, 10), ALL_VARIANTS, DEFAULT_SEED)
    rates = {}
    for variant in ALL_VARIANTS:
        records = results[variant.id]
        assert len(records) == 60
        rates[variant.id] = 100.0 * sum(r.correct for r in records) / len(records)
        if not variant.baseline:
            assert rates[variant.id] == 100.0, (variant.id, rates[variant.id])
        else:
            assert 18.0 <= rates[variant.id] <= 48.0, (variant.id, rates[variant.id])
            for record in records:
                if not record.correct:
                    assert record.first_event_kind != "message", record
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"experiment took {elapsed:.1f}s"
    baseline = sorted({rates[v.id] for v in ALL_VARIANTS if v.baseline})
    print(
        f"\n[criterion 2] PASS - ranking rows 100%, baseline rows {baseline} "
        f"(failures all non-message-first) in {elapsed:.1f}s"
    )


def fuzz_scenarios(count, seed):
    """``count`` scenarios of the benchmark's fuzz generator at ``seed``:
    several choices sharing one to three oracles, all six comparison
    operators, ``&&``/``||``/``!`` and preferences on every kind of choice
    transaction."""
    spec = importlib.util.spec_from_file_location("fuzzgen", FUZZGEN)
    fuzzgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzzgen)
    return fuzzgen.generate(deferred_choice, count, seed)


def shape_case(scenario_id, variables, events, timeline):
    """A one-choice scenario; ``events`` and ``timeline`` are written as in a
    scenario file, a timeline entry as (step, action, fields)."""
    return Scenario.from_obj(
        {
            "id": scenario_id,
            "variant": "onchain-history",
            "semantics": "transaction-driven",
            "oracles": [{"variable": name} for name in variables],
            "choices": [{"events": events}],
            "timeline": [{"step": step, "action": action, **fields} for step, action, fields in timeline],
        }
    )


def update(step, oracle, value):
    return (step, "update", {"oracle": oracle, "value": value})


def wake(step, action="trigger", **fields):
    return (step, action, {"choice": 0, **fields})


# shapes the fuzz generator never draws, each with its ground truth
SHAPE_CASES = (
    (
        shape_case(
            "single-event",
            ["x0"],
            [{"kind": "conditional", "expr": "x0 >= 3", "oracle": 0}],
            [update(1, 0, 0), wake(2, "activate"), update(4, 0, 2), wake(5),
             update(7, 0, 5), wake(10)],
        ),
        (0, 7),
    ),
    (
        shape_case(
            "six-events",
            ["x0", "x1"],
            [
                {"kind": "message"},
                {"kind": "absolute-timer", "deadline": 12},
                {"kind": "relative-timer", "delta": 8},
                {"kind": "conditional", "expr": "x0 == 4", "oracle": 0},
                {"kind": "conditional", "expr": "x1 > 6", "oracle": 1},
                {"kind": "message"},
            ],
            [update(1, 0, 0), update(1, 1, 3), wake(2, "activate"), wake(5),
             update(7, 0, 4), update(8, 1, 7), wake(9, "message", event=0), wake(14)],
        ),
        (3, 7),
    ),
    # the deadline is one step past the last step, so the timer never fires
    (
        shape_case(
            "timer-after-last-step",
            ["x0"],
            [
                {"kind": "absolute-timer", "deadline": 15},
                {"kind": "conditional", "expr": "x0 >= 5", "oracle": 0},
            ],
            [update(1, 0, 0), wake(2, "activate"), wake(8), update(13, 0, 6), wake(14)],
        ),
        (1, 13),
    ),
    (
        shape_case(
            "nothing-detected",
            ["x0"],
            [
                {"kind": "message"},
                {"kind": "conditional", "expr": "x0 > 8", "oracle": 0},
                {"kind": "message"},
            ],
            [update(1, 0, 0), wake(2, "activate"), update(4, 0, 3), wake(5),
             update(9, 0, 8), wake(12)],
        ),
        (None, 12),  # the reference stops at the last step
    ),
)


def test_criterion_3_shape_cases_have_their_shape():
    for scenario, truth in SHAPE_CASES:
        assert ground_truth(scenario) == [truth], scenario.scenario_id


EQUIVALENCE_INPUTS = {
    "fuzz-20_24": lambda: fuzz_scenarios(500, 20_24),
    "fuzz-2104": lambda: fuzz_scenarios(300, 2104),
    "fuzz-90517": lambda: fuzz_scenarios(300, 90517),
    "shapes": lambda: [scenario for scenario, _ in SHAPE_CASES],
}


@pytest.mark.parametrize("inputs", sorted(EQUIVALENCE_INPUTS))
def test_criterion_3_oracle_equivalence(inputs):
    started = time.monotonic()
    scenarios = EQUIVALENCE_INPUTS[inputs]()
    checked = 0
    wrong = []
    for scenario in scenarios:
        for variant in TRANSACTION_DRIVEN_VARIANTS:
            for outcome in run(scenario.with_variant(variant)).outcomes:
                if not outcome.correct:
                    wrong.append(
                        (scenario.scenario_id, variant.id, outcome.choice, outcome.winner, outcome.truth)
                    )
                checked += 1
    assert wrong == []
    elapsed = time.monotonic() - started
    print(
        f"\n[criterion 3] PASS - {checked} choices over {len(scenarios)} {inputs} "
        f"scenarios x {len(TRANSACTION_DRIVEN_VARIANTS)} variants agree with the "
        f"reference executor in {elapsed:.1f}s"
    )


def test_criterion_3_detections_recorded_once(monkeypatch):
    """Over criterion 3's fuzz inputs at seed 2104 under every variant, no
    call changes a detection a contract recorded before it, and a decided
    contract's winner is dated as its record dates it."""
    handle = DeferredChoiceContract.handle
    contracts = {}
    changed = []

    def recording(contract, ctx, function, payload):
        contracts[id(contract)] = contract
        before = dict(contract.detected)
        try:
            handle(contract, ctx, function, payload)
        finally:
            if any(contract.detected[eid] != at for eid, at in before.items()):
                changed.append((contract.kind, function, before, dict(contract.detected)))

    monkeypatch.setattr(DeferredChoiceContract, "handle", recording)
    decided = 0
    for scenario in EQUIVALENCE_INPUTS["fuzz-2104"]():
        for variant in ALL_VARIANTS:
            contracts.clear()
            run(scenario.with_variant(variant))
            for contract in contracts.values():
                if contract.winner is not None:
                    decided += 1
                    assert contract.winner_detection_ts == contract.detected[contract.winner]
    assert changed == []
    assert decided > 5000


def test_criterion_4_earliest_detection_against_brute_force():
    rng = random.Random(404)

    def detected(fire, horizon):
        """A timer's detection as the replay reads it: NEVER past the horizon."""
        return fire if fire <= horizon else NEVER

    for _ in range(200):
        t_a = rng.randint(0, 1000)
        delta = rng.randint(0, 80)
        horizon = t_a + rng.randint(0, 100)
        closed = detected(timer_fire(RelativeTimer(delta), t_a), horizon)
        brute = next(
            (t for t in range(t_a, horizon + 1) if t >= t_a + delta), NEVER
        )
        assert closed == brute, (t_a, delta, horizon)
        # deadlines may predate activation: the timer then fires at t_a
        deadline = max(t_a + rng.randint(-80, 80), 0)
        closed = detected(timer_fire(AbsoluteTimer(deadline), t_a), horizon)
        brute = next((t for t in range(t_a, horizon + 1) if t >= deadline), NEVER)
        assert closed == brute, (t_a, deadline, horizon)
    for _ in range(200):
        start = rng.randint(0, 5)
        entries = []
        at = start
        for _ in range(rng.randint(1, 12)):
            entries.append((at, rng.randint(0, 6)))
            at += rng.randint(1, 4)
        from_ts = rng.randint(start, start + 10)
        horizon = from_ts + rng.randint(0, 30)
        known = [(at, value) for at, value in entries if at <= horizon]
        if not known or known[0][0] > from_ts:
            continue
        op = rng.choice(["<", "<=", "==", "!=", ">=", ">"])
        text = f"v {op} {rng.randint(0, 6)}"
        condition = parse(text)

        def value_at(t):
            return max(entry for entry in known if entry[0] <= t)[1]

        brute = next(
            (
                t
                for t in range(from_ts, horizon + 1)
                if evaluate(condition, {"v": value_at(t)})
            ),
            NEVER,
        )
        history = History("v")
        for at, value in known:
            history.append(at, value)
        found, _ = history.earliest(from_ts, condition)
        assert found == brute, (entries, from_ts, horizon, render(condition))
    print("\n[criterion 4] PASS - 200 timer and 200 step-function cases match brute force")


def test_criterion_5_cost_trends():
    started = time.monotonic()
    cs, us = (5, 10, 20), (1, 10, 20, 30)
    reports = run_cost_experiment(cs, us, ALL_VARIANTS)
    cell = {(r.variant.id, r.consumers, r.updates): r for r in reports}

    def per_consumer(vid, c, u):
        return cell[(vid, c, u)].gas_per_consumer

    # (a) synchronous variants: per-consumer cost non-increasing in c
    for vid in ("storage", "storage-cond", "onchain-history", "onchain-history-cond"):
        for u in us:
            seq = [per_consumer(vid, c, u) for c in cs]
            assert all(a >= b for a, b in zip(seq, seq[1:])), (vid, u, seq)
    # (b) asynchronous variants: per-consumer cost identical across c
    for vid in (
        "request-response",
        "request-response-cond",
        "offchain-history",
        "offchain-history-cond",
        "pubsub",
        "pubsub-cond",
    ):
        for u in us:
            operating = [
                (cell[(vid, c, u)].gas_operating, c) for c in cs
            ]
            for (gas_a, c_a), (gas_b, c_b) in zip(operating, operating[1:]):
                assert gas_a * c_b == gas_b * c_a, (vid, u, operating)
    # (c) regular pub/sub affine in u (zero second difference within one tx base)
    for c in cs:
        d2 = (
            per_consumer("pubsub", c, 30)
            - 2 * per_consumer("pubsub", c, 20)
            + per_consumer("pubsub", c, 10)
        )
        assert abs(d2) <= 21_000, (c, d2)
    # (d) on-chain history strictly superlinear in u
    for vid in ("onchain-history", "onchain-history-cond"):
        for c in cs:
            d2 = (
                per_consumer(vid, c, 30)
                - 2 * per_consumer(vid, c, 20)
                + per_consumer(vid, c, 10)
            )
            assert d2 > 0, (vid, c, d2)
    # (e) conditional history and pub/sub no pricier than regular at u=30
    for base in ("onchain-history", "offchain-history", "pubsub"):
        for c in cs:
            assert per_consumer(f"{base}-cond", c, 30) <= per_consumer(base, c, 30)
    # (f) heatmap extremes by position
    rows = heatmap_rows(reports)
    minima = [r for r in rows if r.normalized == 0.0]
    maxima = [r for r in rows if r.normalized == 1.0]
    assert [(r.variant, r.c, r.u) for r in minima] == [("storage", 20, 1)]
    assert maxima and all(r.variant == "pubsub" and r.u == 30 for r in maxima)
    elapsed = time.monotonic() - started
    print(f"\n[criterion 5] PASS - cost trends (a)-(f) hold in {elapsed:.1f}s")


def test_criterion_6_determinism(tmp_path):
    out_a = tmp_path / "corr-a"
    out_b = tmp_path / "corr-b"
    args = ["correctness", "--n", "60", "--k", "5,10", "--variants", "all", "--seed", str(DEFAULT_SEED)]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
    cost_a = tmp_path / "cost-a"
    cost_b = tmp_path / "cost-b"
    cost_args = ["cost", "--c", "5,10,20", "--u", "1,10,20,30", "--variants", "all"]
    assert main(cost_args + ["--out", str(cost_a)]) == 0
    assert main(cost_args + ["--out", str(cost_b)]) == 0
    assert (cost_a / "report.csv").read_bytes() == (cost_b / "report.csv").read_bytes()
    assert (cost_a / "heatmap.csv").read_bytes() == (cost_b / "heatmap.csv").read_bytes()
    print("\n[criterion 6] PASS - repeated experiment runs are byte-identical")


def _random_expr(rng, depth=0):
    if depth >= 4 or rng.random() < 0.4:
        return Comparison(
            rng.choice(("a", "b", "c", "d_w", "x1")),
            rng.choice(("<", "<=", "==", "!=", ">=", ">")),
            rng.randint(0, 2**64 - 1),
        )
    pick = rng.random()
    if pick < 0.25:
        return Not(_random_expr(rng, depth + 1))
    if pick < 0.65:
        return And(_random_expr(rng, depth + 1), _random_expr(rng, depth + 1))
    return Or(_random_expr(rng, depth + 1), _random_expr(rng, depth + 1))


def test_criterion_7_expression_suite():
    rng = random.Random(7)
    names = ("a", "b", "c", "d_w", "x1")
    for _ in range(1000):
        expr = _random_expr(rng)
        assert parse(render(expr)) == expr
    for _ in range(1000):
        left = _random_expr(rng, depth=3)
        right = _random_expr(rng, depth=3)
        valuation = {name: rng.randint(0, 2**64 - 1) for name in names}
        assert evaluate(Not(And(left, right)), valuation) == evaluate(
            Or(Not(left), Not(right)), valuation
        )
        comparison = Comparison(
            rng.choice(names),
            rng.choice(("<", "<=", "==", "!=", ">=", ">")),
            rng.randint(0, 2**64 - 1),
        )
        assert evaluate(Not(comparison), valuation) == evaluate(
            negate_comparison(comparison), valuation
        )
    print("\n[criterion 7] PASS - 1000 round-trips and 1000 equivalence checks")
