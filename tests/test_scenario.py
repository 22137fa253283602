import hashlib
import json
import re
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deferred_choice import expr as exprlang
from deferred_choice import scenario as scenario_module
from deferred_choice.choice import SemanticsKind
from deferred_choice.experiments import (
    gen_correctness,
    gen_cost,
    write_receipts_log,
)
from deferred_choice.ledger import Chain, GasSchedule
from deferred_choice.oracles import ALL_VARIANTS, Delivery, OracleProvider, OracleVariant
from deferred_choice.scenario import (
    Action,
    ChoiceDecl,
    OracleDecl,
    Scenario,
    ScenarioError,
    ground_truth,
    run,
)
from deferred_choice.semantics import (
    KIND_NAMES,
    AbsoluteTimer,
    Conditional,
    EventSpec,
    Message,
    RelativeTimer,
    NEVER,
    prefer,
)
from reference import induced_trace, run_continual

TABLE1 = Path(__file__).resolve().parent.parent / "scenarios" / "table1.json"


def table1(variant_id):
    return Scenario.from_json(TABLE1.read_text()).with_variant(
        OracleVariant.parse(variant_id)
    )


# --- run ------------------------------------------------------------------


def test_run_table1_offchain_history():
    report = run(table1("offchain-history"))
    assert report.winner == 0
    assert report.correct is True


def test_run_table1_pubsub():
    report = run(table1("pubsub"))
    assert report.winner == 0
    assert report.correct is True


def test_run_table1_storage_baseline_incorrect():
    report = run(table1("storage"))
    assert report.correct is False


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.id)
def test_condition_already_true_at_activation_wins(variant):
    # x0 is 7 from step 5, so "x0 != 6" holds when the choice activates at
    # step 8, before the timer at 11: the change point in force at
    # activation counts, although it is older than the activation
    scenario = race_scenario(
        ["x0"],
        [
            ChoiceDecl(
                (
                    EventSpec(0, Conditional(exprlang.parse("x0 != 6"))),
                    EventSpec(1, AbsoluteTimer(11)),
                ),
                {0: 0},
            )
        ],
        [
            Action(5, "update", oracle=0, value=7),
            Action(8, "activate", choice=0),
            Action(12, "trigger", choice=0),
        ],
    ).with_variant(variant)
    report = run(scenario)
    assert (report.winner, report.truth) == (0, 0)


@pytest.mark.xfail(
    strict=True,
    reason="a pub/sub tie that only a push of its own block settles waits for a "
    "later wake, and with no later trigger none comes",
)
@pytest.mark.parametrize("variant_id", ["pubsub", "pubsub-cond"])
def test_pubsub_tie_settled_by_a_push_without_a_later_trigger(variant_id):
    # x0 >= 1 and the deadline both hold at step 6; the ground truth picks
    # the condition, but the push of step 6 may not settle the tie, since a
    # trigger later in that block could name its preference
    scenario = race_scenario(
        ["x0"],
        [ChoiceDecl((EventSpec(0, Conditional(exprlang.parse("x0 >= 1"))),
                     EventSpec(1, AbsoluteTimer(6))), {0: 0})],
        [Action(1, "update", oracle=0, value=0),
         Action(3, "activate", choice=0),
         Action(6, "update", oracle=0, value=5)],
    ).with_variant(OracleVariant.parse(variant_id))
    assert ground_truth(scenario) == [(0, 6)]
    report = run(scenario)
    assert (report.winner, report.truth) == (0, 0)


def test_run_is_reproducible():
    first = run(table1("pubsub-cond"))
    second = run(table1("pubsub-cond"))
    assert [
        (r.mined_at, r.tx.sender, r.tx.function, r.tx.payload, r.gas_used, r.status)
        for r in first.receipts
    ] == [
        (r.mined_at, r.tx.sender, r.tx.function, r.tx.payload, r.gas_used, r.status)
        for r in second.receipts
    ]
    assert first.gas_total == second.gas_total


_GAS_CONSTANTS = (
    "tx_base", "per_zero_byte", "per_nonzero_byte", "storage_write_new",
    "storage_write_update", "log_base", "log_per_byte",
)


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.id)
def test_each_run_charges_its_own_schedule(variant):
    """Gas is linear in the schedule's constants, so doubling every one,
    ``tx_base`` and ``per_zero_byte`` among them, doubles every receipt's
    gas. The runs before and after, on the default schedule, charge alike,
    so nothing a chain derives from its schedule (intrinsic gas per payload,
    shared sync answers) reaches another run."""
    scenario = gen_cost(3, 6, variant)  # consumers share payloads and questions
    default = GasSchedule()
    doubled = default.with_overrides({name: 2 * getattr(default, name) for name in _GAS_CONSTANTS})
    before = run(scenario)
    twice = run(scenario, doubled)
    after = run(scenario)
    assert [r.gas_used for r in twice.receipts] == [2 * r.gas_used for r in before.receipts]
    assert [r.gas_used for r in after.receipts] == [r.gas_used for r in before.receipts]
    overridden = run(scenario, default.with_overrides({"tx_base": 0, "per_zero_byte": 0}))
    assert overridden.gas_total < before.gas_total


def test_sync_providers_get_no_after_block():
    """A sync oracle logs nothing for its provider, so the replay does not
    hand it the mined receipts; every other provider gets them."""
    for variant in ALL_VARIANTS:
        with mock.patch.object(
            OracleProvider, "after_block", autospec=True, side_effect=OracleProvider.after_block
        ) as after_block:
            report = run(table1(variant.id))
        assert report.correct or variant.baseline, variant.id
        assert (after_block.call_count == 0) == variant.synchronous, variant.id


def test_far_trigger_mines_only_blocks_with_transactions():
    from dataclasses import replace

    for variant in ALL_VARIANTS:
        scenario = table1(variant.id)
        last = scenario.timeline[-1].step

        def with_trigger(step):
            return replace(
                scenario, timeline=scenario.timeline + (Action(step, "trigger", choice=0),)
            )

        near = run(with_trigger(last + 1))
        with mock.patch.object(Chain, "step", autospec=True, side_effect=Chain.step) as step:
            far = run(with_trigger(10**9))
        assert step.call_count <= 12, variant.id
        assert far.receipts[-1].mined_at == 10**9
        assert [(o.winner, o.truth) for o in far.outcomes] == [
            (o.winner, o.truth) for o in near.outcomes
        ], variant.id
        assert far.gas_total == near.gas_total, variant.id


def activation_last(variant):
    """x0 is 7 from step 5 and the choice activates at step 8, its last
    action, while "x0 >= 1" holds: a callback oracle answers the query of
    the activation, and a push oracle, conditional or not, sends it a
    catch-up push, each in block 9."""
    return race_scenario(
        ["x0"],
        [ChoiceDecl((EventSpec(0, Conditional(exprlang.parse("x0 >= 1"))),
                     EventSpec(1, AbsoluteTimer(20))), {0: 0})],
        [Action(5, "update", oracle=0, value=7), Action(8, "activate", choice=0)],
    ).with_variant(variant)


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.id)
def test_replay_ends_at_most_one_block_after_its_last_action(variant):
    scenarios = [
        table1(variant.id),
        gen_cost(5, 10, variant),
        *gen_correctness(6, 5, variant, 11),
        activation_last(variant),
    ]
    for scenario in scenarios:
        last = scenario.timeline[-1].step
        report = run(scenario)
        assert report.receipts[-1].mined_at in (last, last + 1), scenario.scenario_id
    # the loop ends with activation_last: the answer to its final
    # activation is mined, not cut off
    reaction = {Delivery.CALLBACK: "oracle_callback", Delivery.PUSH: "push"}
    trailing = [
        (receipt.mined_at, receipt.tx.function, receipt.status)
        for receipt in report.receipts
        if receipt.mined_at > last
    ]
    delivery = variant.architecture.delivery
    if delivery is Delivery.SYNC:
        assert trailing == []
    else:
        assert trailing == [(last + 1, reaction[delivery], "ok")]
    assert (report.winner, report.truth) == (0, 0)


def test_induced_trace_is_piecewise_constant():
    scenario = table1("onchain-history")
    trace = induced_trace(scenario, 73, 78)
    values = [state.nu["d_w"] for state in trace]
    assert values == [0, 1, 1, 1, 2, 2]


def test_ground_truth_matches_continual_trace():
    scenario = table1("onchain-history")
    winner, observed = ground_truth(scenario)[0]
    assert winner == 0
    assert observed == 76


def dense_ground_truth(scenario, choice_index):
    """The reference: the continual executor over the dense induced trace."""
    activation = next(
        (a for a in scenario.timeline if a.kind == "activate" and a.choice == choice_index),
        None,
    )
    if activation is None:
        return None, None
    end = max(a.step for a in scenario.timeline)
    trace = induced_trace(scenario, activation.step, end)
    actions = [a for a in scenario.timeline if a.kind != "update" and a.choice == choice_index]
    preferred_by_time: dict[int, int] = {}
    for a in actions:
        prefer(preferred_by_time, a.step, a.preferred, a.event)
    final = run_continual(
        scenario.choices[choice_index].events,
        trace,
        [(a.event, a.step) for a in actions if a.kind == "message"],
        preferred_by_time,
    )
    return final.winner, final.observed.t


LAST_STEP = 10
VALUE_MAX = 4


def race_scenario(names, choices, timeline):
    return Scenario(
        scenario_id="race",
        variant=OracleVariant.parse("onchain-history"),
        semantics=SemanticsKind.TRANSACTION_DRIVEN,
        oracles=tuple(OracleDecl(name) for name in names),
        choices=tuple(choices),
        timeline=tuple(sorted(timeline, key=lambda a: (a.step, a.kind != "update"))),
    )


def conditions(variable):
    comparison = st.builds(
        exprlang.Comparison,
        st.just(variable),
        st.sampled_from(exprlang.COMPARISON_OPS),
        st.integers(0, VALUE_MAX),
    )
    return st.recursive(
        comparison,
        lambda inner: st.one_of(
            st.builds(exprlang.And, inner, inner),
            st.builds(exprlang.Or, inner, inner),
            st.builds(exprlang.Not, inner),
        ),
        max_leaves=3,
    )


@st.composite
def races(draw):
    """Small dense races: shared and same-named oracles, same-step ties.

    Values and constants share a small range, so conditions often hold at
    activation; absolute deadlines may predate activation; some choices
    never activate and some never decide. A message or trigger may be
    mined at its choice's activation step or with another of its choice's
    transactions, which ``Scenario.validate`` forbids but the reference
    executor defines, so these scenarios are not validated.
    """
    names = draw(st.lists(st.sampled_from(("x", "y")), min_size=1, max_size=3))
    timeline = [
        Action(step=step, kind="update", oracle=oracle, value=draw(st.integers(0, VALUE_MAX)))
        for oracle in range(len(names))
        for step in sorted(draw(st.sets(st.integers(1, LAST_STEP), max_size=LAST_STEP)))
    ]
    choices = []
    for index in range(draw(st.integers(1, 3))):
        events, bindings = [], {}
        for event_id in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(("message", "absolute", "relative", "conditional")))
            if kind == "message":
                events.append(EventSpec(event_id, Message()))
            elif kind == "absolute":
                events.append(EventSpec(event_id, AbsoluteTimer(draw(st.integers(0, LAST_STEP + 2)))))
            elif kind == "relative":
                events.append(EventSpec(event_id, RelativeTimer(draw(st.integers(0, LAST_STEP)))))
            else:
                oracle = draw(st.integers(0, len(names) - 1))
                events.append(EventSpec(event_id, Conditional(draw(conditions(names[oracle])))))
                bindings[event_id] = oracle
        choices.append(ChoiceDecl(tuple(events), bindings))
        preferred = st.none() | st.integers(0, len(events) - 1)
        activation = draw(st.sampled_from((None, *range(1, LAST_STEP + 1))))
        if activation is not None:
            timeline.append(
                Action(step=activation, kind="activate", choice=index, preferred=draw(preferred))
            )
        message_events = [e.id for e in events if isinstance(e.kind, Message)]
        if message_events:
            for step in sorted(draw(st.lists(st.integers(activation or 1, LAST_STEP), max_size=3))):
                timeline.append(
                    Action(step=step, kind="message", choice=index,
                           event=draw(st.sampled_from(message_events)), preferred=draw(preferred))
                )
        for step in sorted(draw(st.lists(st.integers(activation or 1, LAST_STEP), max_size=2))):
            timeline.append(Action(step=step, kind="trigger", choice=index, preferred=draw(preferred)))
    return race_scenario(names, choices, timeline)


X_AT_LEAST_2 = Conditional(exprlang.parse("x >= 2"))
X_AT_LEAST_3 = Conditional(exprlang.parse("x >= 3"))


@settings(max_examples=400, deadline=None)
@given(races())
@example(  # a message at activation names the winner of a tie with two timers
    race_scenario(
        ["x"],
        [ChoiceDecl((EventSpec(0, AbsoluteTimer(1)), EventSpec(1, RelativeTimer(0)),
                     EventSpec(2, Message())))],
        [Action(step=3, kind="activate", choice=0),
         Action(step=3, kind="message", choice=0, event=2)],
    )
)
@example(  # a message names another event of its tie
    race_scenario(
        ["x"],
        [ChoiceDecl((EventSpec(0, Message()), EventSpec(1, AbsoluteTimer(6))))],
        [Action(step=2, kind="activate", choice=0),
         Action(step=6, kind="message", choice=0, event=0, preferred=1)],
    )
)
@example(  # a trigger names the winner of a tie at its own step, and a later
    # trigger names an event of an earlier tie without breaking it
    race_scenario(
        ["x"],
        [ChoiceDecl((EventSpec(0, RelativeTimer(3)), EventSpec(1, AbsoluteTimer(5)))),
         ChoiceDecl((EventSpec(0, RelativeTimer(3)), EventSpec(1, AbsoluteTimer(7))))],
        [Action(step=2, kind="activate", choice=0),
         Action(step=4, kind="activate", choice=1),
         Action(step=5, kind="trigger", choice=0, preferred=1),
         Action(step=10, kind="trigger", choice=1, preferred=1)],
    )
)
@example(  # two oracles named x update at one step: the later one is in force
    race_scenario(
        ["x", "x"],
        [ChoiceDecl((EventSpec(0, X_AT_LEAST_2), EventSpec(1, AbsoluteTimer(9))), {0: 0})],
        [Action(step=1, kind="update", oracle=0, value=0),
         Action(step=2, kind="activate", choice=0),
         Action(step=4, kind="update", oracle=0, value=3),
         Action(step=4, kind="update", oracle=1, value=1),
         Action(step=6, kind="update", oracle=1, value=2)],
    )
)
@example(  # one choice never activates, the other never decides
    race_scenario(
        ["x"],
        [ChoiceDecl((EventSpec(0, X_AT_LEAST_2),), {0: 0}),
         ChoiceDecl((EventSpec(0, X_AT_LEAST_2), EventSpec(1, RelativeTimer(5))), {0: 0})],
        [Action(step=1, kind="update", oracle=0, value=1),
         Action(step=2, kind="activate", choice=1, preferred=1)],
    )
)
@example(  # two choices ask one question: a timer caps the first before the
    # hit at step 7, and the second scans on past that cap to the hit
    race_scenario(
        ["x"],
        [ChoiceDecl((EventSpec(0, X_AT_LEAST_3), EventSpec(1, RelativeTimer(2))), {0: 0}),
         ChoiceDecl((EventSpec(0, X_AT_LEAST_3),), {0: 0})],
        [Action(step=1, kind="update", oracle=0, value=0),
         Action(step=2, kind="activate", choice=0),
         Action(step=2, kind="activate", choice=1),
         Action(step=3, kind="update", oracle=0, value=1),
         Action(step=5, kind="update", oracle=0, value=2),
         Action(step=7, kind="update", oracle=0, value=3)],
    )
)
def test_ground_truth_matches_dense_continual_executor(scenario):
    with mock.patch.object(exprlang, "evaluate", wraps=exprlang.evaluate) as evaluate:
        expected = [dense_ground_truth(scenario, i) for i in range(len(scenario.choices))]
        dense_evaluations = evaluate.call_count
        evaluate.reset_mock()
        assert ground_truth(scenario) == expected
    # change points visit a subset of the states the dense executor visits
    assert evaluate.call_count <= dense_evaluations


@pytest.mark.parametrize("c", [1, 5, 20])
def test_ground_truth_scans_a_question_shared_by_all_consumers_once(c):
    scenario = gen_cost(c, 10, OracleVariant.parse("pubsub"))
    with mock.patch.object(exprlang, "evaluate", wraps=exprlang.evaluate) as evaluate:
        truths = ground_truth(scenario)
    assert truths == [(0, 2 + 3 * 10)] * c
    # the condition at activation and at each of the ten later change points
    assert evaluate.call_count <= 11


def test_ground_truth_evaluates_a_repeated_value_once():
    # the update at step 4 repeats x0 = 2 and is no change point, so the
    # condition is evaluated at activation and at step 6 only
    scenario = race_scenario(
        ["x0"],
        [ChoiceDecl((EventSpec(0, Conditional(exprlang.parse("x0 >= 5"))),
                     EventSpec(1, AbsoluteTimer(9))), {0: 0})],
        [Action(1, "update", oracle=0, value=2),
         Action(2, "activate", choice=0),
         Action(4, "update", oracle=0, value=2),
         Action(6, "update", oracle=0, value=7),
         Action(9, "trigger", choice=0)],
    )
    with mock.patch.object(exprlang, "evaluate", wraps=exprlang.evaluate) as evaluate:
        assert ground_truth(scenario) == [(0, 6)]
    assert evaluate.call_count == 2


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.id)
def test_outcome_keeps_the_truth_timestamp(variant):
    # table1's deadline at 76 fires before d_w reaches 2 at 77
    (outcome,) = run(table1(variant.id)).outcomes
    assert (outcome.truth, outcome.truth_ts) == (0, 76)


def test_unactivated_choice_has_no_truth_timestamp():
    event = (EventSpec(0, Conditional(exprlang.parse("x0 >= 1"))),)
    scenario = race_scenario(
        ["x0"],
        [ChoiceDecl(event, {0: 0}), ChoiceDecl(event, {0: 0})],
        [Action(1, "update", oracle=0, value=0),
         Action(2, "activate", choice=0),
         Action(3, "update", oracle=0, value=1),
         Action(5, "trigger", choice=0)],
    )
    first, second = run(scenario).outcomes
    assert (first.truth, first.truth_ts) == (0, 3)
    assert (second.truth, second.truth_ts, second.activation_ts) == (None, None, None)


# three choices share x0: choices 0 and 1 activate together with different
# conditions and read one window; choice 2 activates later, after x0 changed,
# so its window starts at another change point
SHARED_X0_CHOICES = [
    ChoiceDecl((EventSpec(0, Conditional(exprlang.parse("x0 >= 3"))),
                EventSpec(1, AbsoluteTimer(8))), {0: 0}),
    ChoiceDecl((EventSpec(0, Conditional(exprlang.parse("x0 == 1"))),
                EventSpec(1, AbsoluteTimer(9))), {0: 0}),
    ChoiceDecl((EventSpec(0, AbsoluteTimer(12)),
                EventSpec(1, Conditional(exprlang.parse("x0 >= 4")))), {1: 0}),
]
SHARED_X0_TIMELINE = [
    *(Action(step, "update", oracle=0, value=value)
      for step, value in ((1, 0), (3, 1), (5, 3), (7, 2), (9, 4))),
    Action(2, "activate", choice=0), Action(2, "activate", choice=1),
    Action(4, "activate", choice=2),
    Action(4, "trigger", choice=0), Action(6, "trigger", choice=0),
    Action(6, "trigger", choice=1), Action(6, "trigger", choice=2),
    Action(8, "trigger", choice=2), Action(10, "trigger", choice=0),
    Action(10, "trigger", choice=2),
]


def _decided(outcome):
    return outcome.winner, outcome.winner_detection_ts, outcome.finalized_at


@pytest.mark.parametrize("variant_id", ["onchain-history", "offchain-history"])
def test_choices_sharing_a_reader_decide_as_each_alone(variant_id):
    variant = OracleVariant.parse(variant_id)
    shared = run(race_scenario(["x0"], SHARED_X0_CHOICES, SHARED_X0_TIMELINE)
                 .with_variant(variant))
    assert [(o.truth, o.truth_ts) for o in shared.outcomes] == [(0, 5), (0, 3), (1, 9)]
    for index, outcome in enumerate(shared.outcomes):
        alone = run(race_scenario(
            ["x0"],
            [SHARED_X0_CHOICES[index]],
            [a if a.kind == "update" else a._replace(choice=0)
             for a in SHARED_X0_TIMELINE if a.kind == "update" or a.choice == index],
        ).with_variant(variant))
        assert _decided(outcome) == _decided(alone.outcomes[0])
        assert (outcome.winner, outcome.winner_detection_ts) == (outcome.truth, outcome.truth_ts)


@pytest.mark.parametrize("variant_id", ["onchain-history", "offchain-history"])
def test_regular_history_consumers_scan_each_change_point_once(variant_id):
    # consumers that activate together are handed one payload per answer
    # and share its scan, so the evaluations do not grow with their number
    counts = []
    for c in (1, 20):
        scenario = gen_cost(c, 10, OracleVariant.parse(variant_id))
        with mock.patch.object(exprlang, "evaluate", wraps=exprlang.evaluate) as evaluate:
            report = run(scenario)
        assert report.correct
        counts.append(evaluate.call_count)
    assert counts[0] == counts[1]


# --- validation ----------------------------------------------------------------


def test_bad_variant_semantics_combo_rejected():
    scenario = table1("onchain-history")
    from dataclasses import replace
    from deferred_choice.choice import SemanticsKind

    broken = replace(scenario, semantics=SemanticsKind.CONTINUAL)
    with pytest.raises(ScenarioError):
        broken.validate()


def test_unknown_choice_reference_rejected():
    scenario = table1("onchain-history")
    from dataclasses import replace

    broken = replace(
        scenario,
        timeline=scenario.timeline + (Action(step=80, kind="trigger", choice=7),),
    )
    with pytest.raises(ScenarioError):
        broken.validate()


def test_message_action_must_target_message_event():
    scenario = table1("onchain-history")
    from dataclasses import replace

    broken = replace(
        scenario,
        timeline=scenario.timeline + (Action(step=80, kind="message", choice=0, event=0),),
    )
    with pytest.raises(ScenarioError):
        broken.validate()


def test_two_choice_transactions_in_one_step_rejected():
    scenario = table1("onchain-history")
    from dataclasses import replace

    broken = replace(
        scenario,
        timeline=scenario.timeline
        + (
            Action(step=80, kind="trigger", choice=0),
            Action(step=80, kind="message", choice=0, event=3),
        ),
    )
    with pytest.raises(ScenarioError):
        broken.validate()


def test_message_before_activation_rejected():
    scenario = table1("onchain-history")
    from dataclasses import replace

    broken = replace(
        scenario,
        timeline=(Action(step=72, kind="message", choice=0, event=3),) + scenario.timeline,
    )
    with pytest.raises(ScenarioError, match="before its activation"):
        broken.validate()


def test_conditional_oracle_needs_update_before_activation():
    scenario = table1("onchain-history")
    from dataclasses import replace

    broken = replace(scenario, timeline=scenario.timeline[1:])  # drop the 0@73 update
    with pytest.raises(ScenarioError):
        broken.validate()


def test_run_rejects_invalid_directly_built_scenario():
    scenario = table1("onchain-history")
    broken = Scenario(
        scenario.scenario_id,
        scenario.variant,
        scenario.semantics,
        scenario.oracles,
        scenario.choices,
        scenario.timeline[1:],  # drop the 0@73 update
    )
    with pytest.raises(ScenarioError):
        run(broken)


@pytest.mark.parametrize("bindings", [{1: 0, 2: 3}, {1: 0, 2: 0}])
def test_oracle_binding_of_a_non_conditional_event_rejected(bindings):
    # event 2 is a message: run would index a missing oracle for an
    # out-of-range binding, and to_json writes no binding for a message, so
    # an in-range one would not survive the JSON round trip
    scenario = table1("onchain-history")
    broken = replace(scenario, choices=(ChoiceDecl(scenario.choices[0].events, bindings),))
    with pytest.raises(ScenarioError, match="event 2, which is not a conditional event"):
        broken.validate()
    with pytest.raises(ScenarioError):
        run(broken)


def test_unbound_conditional_event_of_a_built_choice_rejected():
    # event 1 is the conditional event of table1; a scenario file cannot
    # leave it unbound, a directly built choice can
    scenario = table1("onchain-history")
    broken = replace(scenario, choices=(ChoiceDecl(scenario.choices[0].events, {}),))
    with pytest.raises(ScenarioError, match="conditional event 1 lacks an oracle binding"):
        broken.validate()


def _with(index, **fields):
    """A timeline edit: action ``index`` with ``fields`` replaced."""
    return lambda timeline: (
        timeline[:index] + (timeline[index]._replace(**fields),) + timeline[index + 1 :]
    )


def _insert(index, *actions):
    """A timeline edit: ``actions`` listed from position ``index`` on."""
    return lambda timeline: timeline[:index] + actions + timeline[index:]


def _edits(*edits):
    def edit(timeline):
        for one in edits:
            timeline = one(timeline)
        return timeline

    return edit


# table1's timeline (0@73, activate@73, 1@74, 2@77, message event 2 @78)
# edited to fail the timeline checks of ``validate``; each case but the
# pairs fails one check, and each pair fails two, of which the message names
# the one ``validate`` checks first
TIMELINE_FAILURES = {
    "step-zero": (_with(0, step=0), "bad step 0: steps are integers from 1 to 2**64-2"),
    "step-bool": (_with(0, step=True), "bad step True: steps are integers from 1 to 2**64-2"),
    "step-never": (
        _with(4, step=NEVER),
        "bad step 18446744073709551615: steps are integers from 1 to 2**64-2",
    ),
    "step-decreasing": (_with(4, step=76), "timeline steps must be non-decreasing"),
    "kind-unknown": (_with(4, kind="vote"), "unknown action kind 'vote'"),
    "kind-unhashable": (_with(4, kind=["message"]), "unknown action kind ['message']"),
    "update-takes-no-choice": (_with(2, choice=0), "update action at step 74 takes no 'choice'"),
    "message-takes-no-value": (_with(4, value=1), "message action at step 78 takes no 'value'"),
    "oracle-unknown": (_with(2, oracle=1), "unknown oracle 1"),
    "oracle-bool": (_with(2, oracle=False), "unknown oracle False"),
    "value-too-big": (
        _with(2, value=2**64), "bad value 18446744073709551616: values are 64-bit words"
    ),
    "oracle-updated-twice": (
        _insert(3, Action(74, "update", oracle=0, value=5)), "oracle 0 updated twice at step 74"
    ),
    "choice-unknown": (_with(4, choice=1), "unknown choice 1"),
    "two-transactions": (
        _insert(5, Action(78, "trigger", choice=0)), "choice 0 has two transactions at step 78"
    ),
    "activated-twice": (
        _insert(3, Action(74, "activate", choice=0)), "choice 0 activated twice"
    ),
    "message-before-activation": (
        _insert(0, Action(72, "message", choice=0, event=3)),
        "choice 0 has a message at step 72, before its activation at step 73",
    ),
    "message-event-out-of-range": (_with(4, event=4), "message action needs a valid event id"),
    "message-event-unset": (_with(4, event=None), "message action needs a valid event id"),
    "message-names-a-timer": (_with(4, event=0), "event 0 is not a message event"),
    "preferred-unknown": (_with(1, preferred=4), "unknown preferred event 4"),
    "no-update-by-activation": (
        lambda timeline: timeline[1:], "oracle 0 has no update at or before activation"
    ),
    # pairs: the first check named wins
    "bad-step-before-order": (_with(4, step=0), "bad step 0: steps are integers from 1 to 2**64-2"),
    "bad-step-before-kind": (
        _with(4, step=-1, kind="vote"), "bad step -1: steps are integers from 1 to 2**64-2"
    ),
    "order-before-kind": (_with(4, step=76, kind="vote"), "timeline steps must be non-decreasing"),
    "kind-before-fields": (_with(2, kind="vote", choice=0), "unknown action kind 'vote'"),
    "fields-in-field-order": (
        _with(2, event=1, preferred=0), "update action at step 74 takes no 'preferred'"
    ),
    "fields-before-oracle": (
        _with(2, oracle=3, event=1), "update action at step 74 takes no 'event'"
    ),
    "oracle-before-value": (_with(2, oracle=3, value=-1), "unknown oracle 3"),
    "value-before-updated-twice": (
        _insert(3, Action(74, "update", oracle=0, value=-1)),
        "bad value -1: values are 64-bit words",
    ),
    "fields-before-choice": (
        _with(4, choice=5, value=3), "message action at step 78 takes no 'value'"
    ),
    "choice-before-two-transactions": (
        _insert(5, Action(78, "trigger", choice=5)), "unknown choice 5"
    ),
    "two-transactions-before-preferred": (
        _insert(5, Action(78, "trigger", choice=0, preferred=9)),
        "choice 0 has two transactions at step 78",
    ),
    "activated-twice-before-message-order": (
        _insert(5, Action(79, "activate", choice=0)), "choice 0 activated twice"
    ),
    "event-range-before-preferred": (
        _with(4, event=7, preferred=7), "message action needs a valid event id"
    ),
    "event-kind-before-preferred": (
        _with(4, event=0, preferred=9), "event 0 is not a message event"
    ),
    "timeline-before-activation-updates": (
        _edits(lambda timeline: timeline[1:], _with(3, preferred=9)),
        "unknown preferred event 9",
    ),
    "first-failing-action-wins": (
        _edits(_with(0, value=-1), _with(4, choice=3)), "bad value -1: values are 64-bit words"
    ),
}


@pytest.mark.parametrize("case", sorted(TIMELINE_FAILURES))
def test_built_scenario_fails_its_first_timeline_check(case):
    edit, message = TIMELINE_FAILURES[case]
    scenario = table1("onchain-history")
    broken = replace(scenario, timeline=edit(scenario.timeline))
    with pytest.raises(ScenarioError) as raised:
        broken.validate()
    assert str(raised.value) == message


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.id)
def test_choice_transaction_listed_before_an_update_of_its_step_replays_the_same(variant):
    """Within a block updates come first, however the timeline lists them:
    table1 with its activation listed before the update of step 73, and a
    message listed before an update of step 78, replays as listed update
    first, down to the load it reports."""
    scenario = table1(variant.id)
    update_first = replace(
        scenario, timeline=scenario.timeline + (Action(78, "update", oracle=0, value=3),)
    )
    update_0, activate, *middle, message, update_3 = update_first.timeline
    listed_late = replace(
        update_first, timeline=(activate, update_0, *middle, update_3, message)
    )
    assert run(listed_late) == run(update_first)
    assert run(listed_late).updates == 4


def test_run_validates_a_json_scenario_once():
    text = TABLE1.read_text()
    with mock.patch.object(
        Scenario, "validate", autospec=True, side_effect=Scenario.validate
    ) as validate:
        run(Scenario.from_json(text))
    assert validate.call_count == 1


def test_json_round_trip():
    scenario = table1("pubsub-cond")
    again = Scenario.from_json(scenario.to_json())
    assert again == scenario


# --- scenario files ---------------------------------------------------------------


def reference_dict(scenario):
    """The JSON object of a scenario file as a dict: ``to_json`` must write
    the text ``json.dumps(reference_dict(s), indent=2)`` writes."""

    def event_obj(event, decl):
        kind = event.kind
        obj = {"kind": KIND_NAMES[type(kind)]}
        if isinstance(kind, Conditional):
            obj["expr"] = exprlang.render(kind.condition)
            obj["oracle"] = decl.oracle_for_event[event.id]
        else:
            obj.update(vars(kind))  # a timer's deadline or delta
        return obj

    def action_obj(action):
        obj = {"step": action.step, "action": action.kind}
        for name in ("oracle", "value", "choice", "preferred", "event"):
            value = getattr(action, name)
            if value is not None:
                obj[name] = value
        return obj

    return {
        "id": scenario.scenario_id,
        "variant": scenario.variant.id,
        "semantics": scenario.semantics.value,
        "seed": scenario.seed,
        "oracles": [{"variable": o.variable} for o in scenario.oracles],
        "choices": [
            {"events": [event_obj(e, decl) for e in decl.events]}
            for decl in scenario.choices
        ],
        "timeline": [action_obj(a) for a in scenario.timeline],
    }


WORDS = st.integers(0, 2**64 - 1)
# quotes, backslashes, control characters, non-ASCII text and lone
# surrogates: everything ``json.dumps`` escapes
AWKWARD_TEXT = st.text(
    st.characters(exclude_categories=()) | st.sampled_from('"\\\x00\x1f\x7f\u2028\u00e9\ud800\udfff'),
    max_size=6,
)
# JSON reads an escaped high surrogate followed by an escaped low one back
# as one character, so text that must survive a round trip avoids that pair
SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")
ROUND_TRIP_TEXT = AWKWARD_TEXT.filter(lambda text: not SURROGATE_PAIR.search(text))
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # a variable name conditions can hold
IDENTIFIERS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True)
SCALARS = st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | AWKWARD_TEXT


@st.composite
def scenario_files(draw):
    """``(scenario, validated)``: a scenario ``validate`` accepts unless an
    oracle's name is not an identifier, or a directly built one whose
    fields hold any scalar.

    A validated scenario updates every oracle at step 1 and gives each
    later transaction a step of its own, and a choice binds each oracle
    once; any oracle, whatever its name, can be named in a condition.
    """
    validated = draw(st.booleans())
    variant = draw(st.sampled_from(ALL_VARIANTS))
    if validated:
        semantics = variant.semantics
        scenario_id, seed = draw(ROUND_TRIP_TEXT), draw(st.integers())
        names = draw(st.lists(IDENTIFIERS | ROUND_TRIP_TEXT, max_size=3, unique=True))
        fields = WORDS
    else:
        semantics = draw(st.sampled_from(SemanticsKind))
        scenario_id, seed = draw(SCALARS), draw(SCALARS)
        names = draw(st.lists(SCALARS, max_size=3))
        fields = SCALARS
    timeline = [Action(1, "update", oracle, draw(WORDS)) for oracle in range(len(names))]
    step = 1
    choices = []
    for index in range(draw(st.integers(0, 3))):
        unbound = list(range(len(names)))
        events, bindings = [], {}
        for event_id in range(draw(st.integers(int(validated), 4))):
            kind = draw(st.sampled_from(tuple(KIND_NAMES)))
            if kind is Conditional and validated and not unbound:
                kind = Message
            if kind is Conditional:
                if validated:
                    oracle = unbound.pop(draw(st.integers(0, len(unbound) - 1)))
                    variable, bindings[event_id] = names[oracle], oracle
                else:
                    variable, bindings[event_id] = draw(IDENTIFIERS), draw(SCALARS)
                events.append(EventSpec(event_id, Conditional(draw(conditions(variable)))))
            elif kind is Message:
                events.append(EventSpec(event_id, Message()))
            else:
                events.append(EventSpec(event_id, kind(draw(fields))))
        choices.append(ChoiceDecl(tuple(events), bindings))
        if not validated:
            continue
        preferred = st.none() | st.integers(0, len(events) - 1)
        transactions = [("activate", None)] + [
            ("message", e.id) for e in events if isinstance(e.kind, Message) and draw(st.booleans())
        ]
        transactions += [("trigger", None)] * draw(st.integers(0, 2))
        for kind, event_id in transactions[: draw(st.integers(0, len(transactions)))]:
            step += draw(st.integers(1, 2**40))
            timeline.append(Action(step, kind, None, None, index, draw(preferred), event_id))
    if validated and names:
        for oracle in draw(st.lists(st.integers(0, len(names) - 1), max_size=4)):
            step += draw(st.integers(1, 3))
            timeline.append(Action(step, "update", oracle, draw(WORDS)))
    elif not validated:
        kinds = st.sampled_from(("update", "activate", "trigger", "message")) | AWKWARD_TEXT
        timeline += draw(st.lists(st.builds(Action, SCALARS, kinds, *[SCALARS] * 5), max_size=4))
    scenario = Scenario(
        scenario_id, variant, semantics, tuple(map(OracleDecl, names)), tuple(choices),
        tuple(timeline), seed,
    )
    return scenario, validated


def check_scenario_file(scenario, validated, variant):
    """The file of ``scenario``, of its copy under ``variant`` and of a
    copy of that copy, which share the text after the header."""
    copy = scenario.with_variant(variant)
    for written in (scenario, copy, copy.with_variant(scenario.variant)):
        text = written.to_json()
        assert text == json.dumps(reference_dict(written), indent=2)
        if not validated:
            continue
        try:
            written.validate()
        except ScenarioError:
            # a name a condition cannot hold is the only thing left to reject
            assert not all(IDENTIFIER.fullmatch(o.variable) for o in written.oracles)
            continue
        # what validate accepts, the file reads back
        assert Scenario.from_json(text) == written


@settings(max_examples=300, deadline=None)
@given(scenario_files(), st.sampled_from(ALL_VARIANTS))
def test_to_json_writes_what_json_dumps_writes(case, variant):
    check_scenario_file(*case, variant)


NO_ORACLES = Scenario(
    "no-oracles",
    OracleVariant.parse("pubsub"),
    SemanticsKind.TRANSACTION_DRIVEN,
    (),
    (ChoiceDecl((EventSpec(0, Message()),)),),
    (),
)


@pytest.mark.parametrize(
    "scenario",
    [pytest.param(table1(v.id), id=f"table1-{v.id}") for v in ALL_VARIANTS]
    + [pytest.param(NO_ORACLES, id="no-oracles")]
    + [pytest.param(gen_cost(5, 10, v), id=f"cost-{v.id}") for v in ALL_VARIANTS],
)
def test_to_json_writes_what_json_dumps_writes_on_bundled_scenarios(scenario):
    check_scenario_file(scenario, True, OracleVariant.parse("pubsub-cond"))


@pytest.mark.parametrize(
    "make",
    [lambda: Scenario.from_json(TABLE1.read_text()), lambda: gen_cost(5, 10, ALL_VARIANTS[0])],
    ids=["table1", "cost"],
)
def test_variant_copies_format_the_timeline_once(make):
    base = make()
    copies = [base.with_variant(ALL_VARIANTS[0])]
    for variant in ALL_VARIANTS[1:]:  # each a copy of the one before
        copies.append(copies[-1].with_variant(variant))
    with mock.patch.object(
        scenario_module, "_action_json", wraps=scenario_module._action_json
    ) as action_json:
        texts = [copy.to_json() for copy in copies]
    assert action_json.call_count == len(base.timeline)
    assert texts == [json.dumps(reference_dict(copy), indent=2) for copy in copies]


def test_variant_copies_add_no_fields():
    base = table1("storage")
    variant = OracleVariant.parse("pubsub")
    copy = base.with_variant(variant)
    copy.to_json()
    assert [f.name for f in fields(Scenario)] == [
        "scenario_id", "variant", "semantics", "oracles", "choices", "timeline", "seed",
    ]
    assert copy == replace(base, variant=variant, semantics=variant.semantics)
    assert "_origin" not in repr(copy) and "_body" not in repr(copy)


# --- gen_correctness ----------------------------------------------------------------


def test_gen_correctness_shape():
    scenarios = gen_correctness(10, 5, OracleVariant.parse("onchain-history"), seed=3)
    assert len(scenarios) == 10
    for scenario in scenarios:
        events = scenario.choices[0].events
        assert len(events) == 5
        scenario.validate()


def test_gen_correctness_deterministic_and_variant_independent():
    a = gen_correctness(6, 5, OracleVariant.parse("onchain-history"), seed=3)
    b = gen_correctness(6, 5, OracleVariant.parse("pubsub-cond"), seed=3)
    for left, right in zip(a, b):
        assert left.timeline == right.timeline
        assert left.choices == right.choices


def test_gen_correctness_transaction_driven_always_picks_first():
    for variant in (v for v in ALL_VARIANTS if not v.baseline):
        for scenario in gen_correctness(6, 5, variant, seed=3):
            report = run(scenario)
            assert report.winner == 0, (variant.id, scenario.scenario_id)
            assert report.truth == 0


def test_gen_correctness_message_first_is_correct_everywhere():
    # explicit-first scenarios succeed under every variant, baselines included
    for variant in ALL_VARIANTS:
        scenarios = [
            s
            for s in gen_correctness(12, 2, variant, seed=3)
            if isinstance(s.choices[0].events[0].kind, Message)
        ]
        assert scenarios, "seed produced no message-first scenario"
        for scenario in scenarios:
            report = run(scenario)
            assert report.correct is True, (variant.id, scenario.scenario_id)


def test_gen_correctness_rejects_tiny_parameters():
    with pytest.raises(ValueError):
        gen_correctness(0, 5, OracleVariant.parse("pubsub"), seed=1)
    with pytest.raises(ValueError):
        gen_correctness(5, 1, OracleVariant.parse("pubsub"), seed=1)


# --- gen_cost ----------------------------------------------------------------------


def test_gen_cost_single_update_single_round():
    scenario = gen_cost(5, 1, OracleVariant.parse("onchain-history"))
    report = run(scenario)
    assert report.updates == 1
    trigger_steps = {a.step for a in scenario.timeline if a.kind == "trigger"}
    assert len(trigger_steps) == 1
    update_step = max(a.step for a in scenario.timeline if a.kind == "update")
    for outcome in report.outcomes:
        assert outcome.winner == 0
        assert outcome.winner_detection_ts == update_step


def test_gen_cost_trigger_rounds():
    scenario = gen_cost(20, 30, OracleVariant.parse("pubsub"))
    trigger_steps = sorted({a.step for a in scenario.timeline if a.kind == "trigger"})
    assert len(trigger_steps) == 6
    per_round = [
        sum(1 for a in scenario.timeline if a.kind == "trigger" and a.step == s)
        for s in trigger_steps
    ]
    assert per_round == [20] * 6


def test_gen_cost_only_last_update_satisfies():
    scenario = gen_cost(3, 10, OracleVariant.parse("offchain-history-cond"))
    report = run(scenario)
    last_update = max(a.step for a in scenario.timeline if a.kind == "update")
    for outcome in report.outcomes:
        assert outcome.winner == 0
        assert outcome.winner_detection_ts == last_update
        assert outcome.correct


def test_gen_cost_sync_cost_decreases_with_consumers():
    variant = OracleVariant.parse("storage")
    small = run(gen_cost(5, 10, variant))
    large = run(gen_cost(20, 10, variant))
    assert large.gas_per_consumer < small.gas_per_consumer


def test_empty_timeline_reports_nil_winner():
    obj = {
        "id": "empty",
        "variant": "onchain-history",
        "semantics": "transaction-driven",
        "oracles": [],
        "choices": [{"events": [{"kind": "message"}]}],
        "timeline": [],
    }
    report = run(Scenario.from_obj(obj))
    assert report.winner is None
    assert report.truth is None
    assert report.correct is True


@pytest.mark.parametrize("variant", [v for v in ALL_VARIANTS if not v.baseline], ids=lambda v: v.id)
def test_scenario_ending_just_below_never_runs_correctly(variant):
    # the last step is NEVER-1; the timer would fire past NEVER, so the
    # condition holding at the final trigger wins
    obj = {
        "id": "edge",
        "variant": variant.id,
        "semantics": variant.semantics.value,
        "oracles": [{"variable": "x"}],
        "choices": [
            {
                "events": [
                    {"kind": "conditional", "expr": "x >= 1", "oracle": 0},
                    {"kind": "relative-timer", "delta": 3},
                ]
            }
        ],
        "timeline": [
            {"step": 1, "action": "update", "oracle": 0, "value": 0},
            {"step": NEVER - 2, "action": "activate", "choice": 0},
            {"step": NEVER - 1, "action": "update", "oracle": 0, "value": 1},
            {"step": NEVER - 1, "action": "trigger", "choice": 0},
        ],
    }
    (outcome,) = run(Scenario.from_obj(obj)).outcomes
    assert (outcome.winner, outcome.truth) == (0, 0)
    assert outcome.winner_detection_ts == NEVER - 1


# --- pinned outputs ---------------------------------------------------------------

# (variant, input) -> (gas_total, sha256 of write_receipts_log); "table1" is
# scenarios/table1.json and "cost" is gen_cost(5, 10, variant). A refactor
# that keeps outputs byte-identical keeps every pair.
PINNED_OUTPUTS = {
    ("storage", "table1"): (1977335, "8962a5e7facb9143d1c37a74cdece3c9daf96b06c8b290f97983e580e3bd3881"),
    ("storage", "cost"): (8736643, "479151724257a9c39d9676b09e0bba3315172a1cdd809c2b3592db87ea51bc01"),
    ("storage-cond", "table1"): (2088063, "5319cf546e821fd545c101c0902a845539495ce5e2a5d58f973343bbad684299"),
    ("storage-cond", "cost"): (8771863, "2db270106d3bd878889c33b40d139d9eaa92fd6f968b65b8349ca90259c3abf3"),
    ("request-response", "table1"): (2117713, "ce2310b7166c709bebaecfc6a5a32ffeaa301f6c5b119915caa88343fa2e9c4a"),
    ("request-response", "cost"): (9937480, "77cb8eac2e3ece64f6b01ab7755819700b0f638f0e23c9892333f2ca4c53c14d"),
    ("request-response-cond", "table1"): (2098737, "5c457d9828fd0647f5ac99a9ba347e267dc68a3a7e8310225049cfe06872f1a3"),
    ("request-response-cond", "cost"): (9845100, "9b6399bb961ca4bc9ebebaabd7b74f81849ef56fce264c55bdd3d6db5bc99bac"),
    ("onchain-history", "table1"): (2369831, "7c9d249486514a5523715af863d1bd465ac54e51be65df0b4b0181f3fec00161"),
    ("onchain-history", "cost"): (9798903, "ec8ab840a5465bbaeadfa0eddeceb4b23ecf7e33ec3ac5d206db58de453d6765"),
    ("onchain-history-cond", "table1"): (2319547, "6512530df0bca6be9088fec1997f6da978ff508b3b2701dd7ce6b8b8eaba3e1c"),
    ("onchain-history-cond", "cost"): (9210003, "c5cbd438efd772f95d1c52ec9256071641a9c9c4ace2ff8d78d5330267a17c73"),
    ("offchain-history", "table1"): (2254333, "795a5b4ed159cb0803027db61cde849ecd5c3d9afe405e808cf773355b60010c"),
    ("offchain-history", "cost"): (10566400, "0e176ef17a2a72c1d1609cfb77dfbeedf99e703300db88224a5f5b821e391190"),
    ("offchain-history-cond", "table1"): (2114345, "5e9ffe23ce0753e0f22959c195fb5d708e7d19f33927a461a649a9e51edbac99"),
    ("offchain-history-cond", "cost"): (9849900, "13dec049f4c9552aaa6f078016ec9802acbfc0f682031de70be4e0b069a4ffc5"),
    ("pubsub", "table1"): (2164276, "92c12ff958fa97ef58e831472f90ef2066b9cf7cb3d700b0530510f57a610291"),
    ("pubsub", "cost"): (11091260, "0d6673e97302bf7392f833e378f1bdd6fbe110878f5aa38da931749178aecadf"),
    ("pubsub-cond", "table1"): (2011820, "333602f3736f4771afb9d0378635e86edde5f7b07ef147ebe116864cee52850e"),
    ("pubsub-cond", "cost"): (9072180, "77e831668a8e164ff2c3ba16bab693aebb07433f360cb186d4e786a5c38c3172"),
}


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda variant: variant.id)
def test_consumers_sent_the_same_message_share_one_payload(variant):
    report = run(gen_cost(20, 10, variant))
    payloads = {}
    for receipt in report.receipts:
        payloads.setdefault(receipt.tx.function, []).append(receipt.tx.payload)
    for function, sent in payloads.items():
        assert len({id(payload) for payload in sent}) == len(set(sent)), function


def test_outputs_pinned_for_every_variant(tmp_path):
    path = tmp_path / "receipts.log"
    for variant in ALL_VARIANTS:
        for name, scenario in (("table1", table1(variant.id)), ("cost", gen_cost(5, 10, variant))):
            report = run(scenario)
            write_receipts_log(path, [report])
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert (report.gas_total, digest) == PINNED_OUTPUTS[variant.id, name], (variant.id, name)
