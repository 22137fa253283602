"""Choice-contract behavior, mostly driven through full scenario replays of
the worked example (warning level 0@73, 1@74, 2@77; timer deadline 76;
cancellation message at 78)."""

import json
from pathlib import Path
from unittest import mock

import pytest

from deferred_choice import choice, oracles
from deferred_choice import wordcodec as wc
from deferred_choice.choice import (
    SemanticsKind,
    encode_activate,
    encode_trigger,
    make_choice_contract,
)
from deferred_choice.expr import parse
from deferred_choice.ledger import Chain, Transaction
from deferred_choice.oracles import (
    ALL_VARIANTS,
    Answer,
    Architecture,
    Delivery,
    OracleProvider,
    OracleVariant,
    make_oracle_contract,
)
from deferred_choice.scenario import Action, ChoiceDecl, OracleDecl, Scenario, run
from deferred_choice.semantics import (
    AbsoluteTimer,
    Conditional,
    ContractViolation,
    EventSpec,
    Message,
    RelativeTimer,
)

TABLE1 = Path(__file__).resolve().parent.parent / "scenarios" / "table1.json"

E_D, E_W, E_C, E_T = 0, 1, 2, 3


def table1_scenario(variant_id="onchain-history"):
    scenario = Scenario.from_json(TABLE1.read_text())
    return scenario.with_variant(OracleVariant.parse(variant_id))


def test_architecture_table():
    rows = {arch: (arch.answer, arch.delivery) for arch in Architecture}
    assert rows == {
        Architecture.STORAGE: (Answer.CURRENT, Delivery.SYNC),
        Architecture.REQUEST_RESPONSE: (Answer.CURRENT, Delivery.CALLBACK),
        Architecture.ONCHAIN_HISTORY: (Answer.HISTORY, Delivery.SYNC),
        Architecture.OFFCHAIN_HISTORY: (Answer.HISTORY, Delivery.CALLBACK),
        Architecture.PUBSUB: (Answer.HISTORY, Delivery.PUSH),
    }
    for variant in ALL_VARIANTS:
        continual = variant.semantics is SemanticsKind.CONTINUAL
        assert continual == (variant.architecture.answer is Answer.CURRENT)
        assert continual == variant.baseline
        reacts = make_oracle_contract(variant, "d_w").logs_for_provider
        assert reacts == (variant.architecture.delivery is not Delivery.SYNC)


# --- activate ------------------------------------------------------------------


def test_activation_before_any_detection_stays_nil():
    scenario = table1_scenario()
    truncated = Scenario(
        scenario_id="activate-only",
        variant=scenario.variant,
        semantics=scenario.semantics,
        oracles=scenario.oracles,
        choices=scenario.choices,
        timeline=tuple(a for a in scenario.timeline if a.step == 73),
    )
    report = run(truncated)
    outcome = report.outcomes[0]
    assert outcome.winner is None
    assert outcome.activation_ts == 73


def test_activation_after_both_detections_ranks_by_earliest():
    scenario = table1_scenario()
    late_activation = Scenario(
        scenario_id="late-activation",
        variant=scenario.variant,
        semantics=scenario.semantics,
        oracles=scenario.oracles,
        choices=scenario.choices,
        timeline=(
            Action(step=73, kind="update", oracle=0, value=0),
            Action(step=74, kind="update", oracle=0, value=1),
            Action(step=77, kind="update", oracle=0, value=2),
            Action(step=77, kind="activate", choice=0),
        ),
    )
    report = run(late_activation)
    outcome = report.outcomes[0]
    # events are detected from activation on: the timer, past its deadline
    # 76, fires at activation and ties with the condition seen at 77; the
    # lower id wins, as in the ground truth
    assert outcome.winner == E_D == outcome.truth
    assert outcome.winner_detection_ts == 77
    assert outcome.finalized_at == 77


def test_deadline_passed_at_activation_fires_at_activation():
    # x goes 0 -> 5 at step 5, when the choice activates; the absolute timer
    # at 3 is already past and ties with the condition at 5
    scenario = Scenario(
        scenario_id="past-deadline",
        variant=OracleVariant.parse("onchain-history"),
        semantics=SemanticsKind.TRANSACTION_DRIVEN,
        oracles=(OracleDecl("x"),),
        choices=(
            ChoiceDecl(
                (EventSpec(0, Conditional(parse("x >= 1"))), EventSpec(1, AbsoluteTimer(3))),
                {0: 0},
            ),
        ),
        timeline=(
            Action(step=1, kind="update", oracle=0, value=0),
            Action(step=5, kind="update", oracle=0, value=5),
            Action(step=5, kind="activate", choice=0),
            Action(step=8, kind="trigger", choice=0),
        ),
    )
    for variant in ALL_VARIANTS:
        outcome = run(scenario.with_variant(variant)).outcomes[0]
        assert (outcome.winner, outcome.truth) == (0, 0), variant.id
        assert outcome.winner_detection_ts == 5, variant.id


def test_pubsub_activation_emits_one_subscribe_log_per_conditional_event():
    report = run(table1_scenario("pubsub"))
    activate_receipts = [
        r for r in report.receipts if r.tx.function == "activate" and r.status == "ok"
    ]
    assert len(activate_receipts) == 1
    topics = [log.topic for log in activate_receipts[0].logs]
    assert topics.count("subscribe") == 1


def test_double_activation_reverts():
    scenario = table1_scenario()
    doubled = Scenario(
        scenario_id="double",
        variant=scenario.variant,
        semantics=scenario.semantics,
        oracles=scenario.oracles,
        choices=scenario.choices,
        timeline=scenario.timeline[:2]
        + (Action(step=74, kind="trigger", choice=0),),
    )
    chain_report = run(doubled)
    # craft the duplicate activation directly against the engine's chain
    chain = Chain()
    oracle = make_oracle_contract(scenario.variant, "d_w")
    chain.deploy(oracle)
    contract = make_choice_contract(
        scenario.choices[0].events,
        scenario.variant,
        {E_W: oracle},
    )
    chain.deploy(contract)
    chain.submit(Transaction("sim", contract.address, "activate", encode_activate(None)))
    chain.step()
    chain.submit(Transaction("sim", contract.address, "activate", encode_activate(None)))
    receipt = chain.step()[0]
    assert receipt.status == "reverted"
    assert receipt.revert_reason == "already activated"
    assert chain_report.outcomes[0].winner is None


# --- try_trigger -----------------------------------------------------------------


def test_transaction_driven_trigger_picks_first_event():
    report = run(table1_scenario("onchain-history"))
    outcome = report.outcomes[0]
    assert outcome.winner == E_D
    assert outcome.winner_detection_ts == 76
    assert outcome.finalized_at == 78
    assert outcome.observed_ts == 78


def test_baseline_cannot_rank_past_detections():
    report = run(table1_scenario("storage"))
    outcome = report.outcomes[0]
    assert outcome.winner == E_C  # the waking message names itself preferred
    assert outcome.correct is False


def test_trigger_before_any_detection_keeps_nil():
    scenario = table1_scenario()
    early = Scenario(
        scenario_id="early-trigger",
        variant=scenario.variant,
        semantics=scenario.semantics,
        oracles=scenario.oracles,
        choices=scenario.choices,
        timeline=scenario.timeline[:2]
        + (Action(step=74, kind="trigger", choice=0),),
    )
    report = run(early)
    assert report.outcomes[0].winner is None


def test_trigger_with_non_message_event_reverts():
    chain = Chain()
    oracle = make_oracle_contract(OracleVariant.parse("onchain-history"), "d_w")
    chain.deploy(oracle)
    scenario = table1_scenario()
    contract = make_choice_contract(
        scenario.choices[0].events, scenario.variant, {E_W: oracle}
    )
    chain.deploy(contract)
    chain.submit(Transaction("sim", contract.address, "activate", encode_activate(None)))
    chain.step()
    chain.submit(
        Transaction("sim", contract.address, "try_trigger", encode_trigger(None, E_D))
    )
    receipt = chain.step()[0]
    assert receipt.status == "reverted"
    assert "not a message event" in receipt.revert_reason


def test_trigger_after_winner_is_noop_with_status():
    scenario = table1_scenario("onchain-history")
    extended = Scenario(
        scenario_id="late-trigger",
        variant=scenario.variant,
        semantics=scenario.semantics,
        oracles=scenario.oracles,
        choices=scenario.choices,
        timeline=scenario.timeline + (Action(step=80, kind="trigger", choice=0),),
    )
    report = run(extended)
    late = [r for r in report.receipts if r.mined_at == 80 and r.tx.function == "try_trigger"]
    assert late[0].status == "ok"
    assert [log.topic for log in late[0].logs] == ["already_decided"]
    assert report.outcomes[0].winner == E_D


# --- oracle_callback ------------------------------------------------------------------


def test_async_callback_completes_detection():
    report = run(table1_scenario("offchain-history"))
    outcome = report.outcomes[0]
    assert outcome.winner == E_D
    assert outcome.winner_detection_ts == 76
    assert outcome.finalized_at == 79  # callback lands one step after the trigger
    assert outcome.observed_ts == 78


def test_async_callbacks_match_queries():
    scenario = table1_scenario("offchain-history")
    report = run(scenario)
    callbacks = [r for r in report.receipts if r.tx.function == "oracle_callback"]
    queries = [
        log
        for receipt in report.receipts
        for log in receipt.logs
        if log.topic == "query"
    ]
    # one query round at activation, one at the waking message
    assert len(callbacks) == len(queries) == 2


def test_callback_with_all_never_keeps_nil():
    scenario = table1_scenario("offchain-history")
    early = Scenario(
        scenario_id="early-async",
        variant=scenario.variant,
        semantics=scenario.semantics,
        oracles=scenario.oracles,
        choices=scenario.choices,
        timeline=scenario.timeline[:2]
        + (Action(step=74, kind="trigger", choice=0),),
    )
    report = run(early)
    assert report.outcomes[0].winner is None
    callbacks = [r for r in report.receipts if r.tx.function == "oracle_callback"]
    assert len(callbacks) == 2  # activation round and trigger round
    assert all(r.status == "ok" for r in callbacks)


def test_unknown_correlation_id_reverts():
    chain = Chain()
    oracle = make_oracle_contract(OracleVariant.parse("offchain-history"), "d_w")
    chain.deploy(oracle)
    scenario = table1_scenario("offchain-history")
    contract = make_choice_contract(
        scenario.choices[0].events, scenario.variant, {E_W: oracle}
    )
    chain.deploy(contract)
    chain.submit(Transaction("sim", contract.address, "activate", encode_activate(None)))
    chain.step()
    chain.submit(
        Transaction("sim", contract.address, "oracle_callback", wc.encode_words(42, 0))
    )
    receipt = chain.step()[0]
    assert receipt.status == "reverted"
    assert "unknown correlation id" in receipt.revert_reason


@pytest.mark.parametrize("variant_id", ["request-response", "offchain-history"])
def test_trigger_while_a_query_is_in_flight_reverts(variant_id):
    """A trigger in the block that sent a query reverts before it changes
    any state, so its message is not recorded; the next block's callback
    still ranks. The choice waits on ``d_w >= 1``, which holds from step 1."""
    events = (EventSpec(0, Conditional(parse("d_w >= 1"))), EventSpec(1, Message()))
    rigs = []
    for _ in range(2):
        chain = Chain()
        oracle = make_oracle_contract(OracleVariant.parse(variant_id), "d_w")
        chain.deploy(oracle)
        provider = OracleProvider(chain, oracle)
        contract = make_choice_contract(events, oracle.variant, {0: oracle})
        chain.deploy(contract)
        provider.on_external_update(1, 1)
        chain.submit(Transaction("sim", contract.address, "activate", encode_activate(None)))
        rigs.append((chain, provider, contract))
    (chain, provider, contract), (alone, _, activated) = rigs
    chain.submit(Transaction("sim", contract.address, "try_trigger", encode_trigger(None, 1)))
    receipts = chain.step()
    alone.step()
    assert [(r.tx.function, r.status, r.revert_reason) for r in receipts] == [
        ("activate", "ok", None), ("try_trigger", "reverted", "evaluation in progress")
    ]
    assert (contract.storage, contract._pending) == (activated.storage, activated._pending)
    provider.after_block(receipts)
    callbacks = chain.step()
    assert [(r.tx.function, r.status, r.mined_at) for r in callbacks] == [
        ("oracle_callback", "ok", 2)
    ]
    assert (contract.storage["winner"], contract.storage["winner_detection_ts"]) == (0, 1)
    assert [log.topic for log in callbacks[0].logs] == ["winner"]  # finalized at block 2
    assert 1 not in contract.detected


def test_callback_after_winner_is_ignored():
    scenario = table1_scenario("offchain-history")
    # trigger at 78 resolves via callback at 79; a second trigger at 80
    # issues nothing new, and a forged late callback is swallowed
    report = run(scenario)
    assert report.outcomes[0].winner == E_D
    chain = Chain()
    oracle = make_oracle_contract(scenario.variant, "d_w")
    chain.deploy(oracle)
    contract = make_choice_contract(
        scenario.choices[0].events, scenario.variant, {E_W: oracle}
    )
    chain.deploy(contract)
    contract.storage["winner"] = E_D
    chain.submit(
        Transaction("sim", contract.address, "oracle_callback", wc.encode_words(42, 0))
    )
    receipt = chain.step()[0]
    assert receipt.status == "ok"


# --- pub/sub pushes ----------------------------------------------------------------


def test_pubsub_signal_racing_timer_loses():
    report = run(table1_scenario("pubsub"))
    outcome = report.outcomes[0]
    assert outcome.winner == E_D
    assert outcome.finalized_at == 77  # decided in the push transaction
    assert outcome.observed_ts == 77
    assert outcome.winner_detection_ts == 76


def test_pubsub_conditional_variant_same_outcome():
    report = run(table1_scenario("pubsub-cond"))
    outcome = report.outcomes[0]
    assert outcome.winner == E_D
    assert outcome.finalized_at == 77


def test_push_defers_to_same_block_message_tie():
    # a condition turning true and a message arriving in the same block tie
    # on the detection timestamp; the message is the preferred event, so the
    # earlier push transaction must not lock in the condition
    obj = {
        "id": "same-block-tie",
        "variant": "pubsub",
        "semantics": "transaction-driven",
        "oracles": [{"variable": "x"}],
        "choices": [
            {
                "events": [
                    {"kind": "conditional", "expr": "x >= 1", "oracle": 0},
                    {"kind": "message"},
                ]
            }
        ],
        "timeline": [
            {"step": 1, "action": "update", "oracle": 0, "value": 0},
            {"step": 2, "action": "activate", "choice": 0},
            {"step": 9, "action": "update", "oracle": 0, "value": 3},
            {"step": 9, "action": "message", "choice": 0, "event": 1},
            {"step": 12, "action": "trigger", "choice": 0},
        ],
    }
    for variant_id in ("pubsub", "pubsub-cond", "onchain-history", "offchain-history"):
        scenario = Scenario.from_obj(obj).with_variant(OracleVariant.parse(variant_id))
        outcome = run(scenario).outcomes[0]
        assert outcome.winner == outcome.truth == 1, variant_id


def test_pubsub_unsubscribes_after_winner():
    report = run(table1_scenario("pubsub"))
    unsubscribes = [
        log
        for receipt in report.receipts
        for log in receipt.logs
        if log.topic == "unsubscribe"
    ]
    assert len(unsubscribes) == 1
    # no pushes arrive after the finalizing one
    final = report.outcomes[0].finalized_at
    late_pushes = [
        r for r in report.receipts if r.tx.function == "push" and r.mined_at > final
    ]
    assert late_pushes == []


@pytest.mark.parametrize("variant_id", ["pubsub", "pubsub-cond"])
def test_a_push_is_decoded_once(variant_id):
    """A contract reads each push it handles, header and change, with one
    ``leading_words`` call: d_w is 0 when the choice activates at block 1
    and 2 from block 3, so a regular subscriber takes a catch-up push at
    block 2 and both take the push of the change at block 3."""
    variant = OracleVariant.parse(variant_id)
    chain = Chain()
    oracle = make_oracle_contract(variant, "d_w")
    chain.deploy(oracle)
    provider = OracleProvider(chain, oracle)
    contract = make_choice_contract(table1_scenario().choices[0].events, variant, {E_W: oracle})
    chain.deploy(contract)
    provider.on_external_update(0, 0)
    chain.submit(Transaction("sim", contract.address, "activate", encode_activate(None)))
    provider.after_block(chain.step())
    with (
        mock.patch.object(choice, "leading_words", wraps=choice.leading_words) as in_choice,
        mock.patch.object(oracles, "leading_words", wraps=oracles.leading_words) as in_oracles,
    ):
        pushes = []
        for block in (2, 3):
            if block == 3:
                provider.on_external_update(2, 3)
            receipts = chain.step()
            provider.after_block(receipts)
            pushes += [r for r in receipts if r.tx.function == "push" and r.status == "ok"]
    assert len(pushes) == (1 if variant.conditional else 2)
    assert in_choice.call_count + in_oracles.call_count == len(pushes)
    assert contract.detected == {E_W: 3}


# --- entry points per delivery -------------------------------------------------------


def _replay_with_stray_call(variant, function, payload):
    """Table1's events with d_w held at 0 from block 1 and the choice
    activated at block 2; at block 4 a ``function`` call with ``payload``,
    then a trigger. Returns the contract and every receipt."""
    chain = Chain()
    oracle = make_oracle_contract(variant, "d_w")
    chain.deploy(oracle)
    provider = OracleProvider(chain, oracle)
    contract = make_choice_contract(table1_scenario().choices[0].events, variant, {E_W: oracle})
    chain.deploy(contract)
    provider.on_external_update(0, 1)
    receipts = []
    for block in range(1, 7):
        if block == 2:
            chain.submit(Transaction("sim", contract.address, "activate", encode_activate(None)))
        if block == 4:
            chain.submit(Transaction("sim", contract.address, function, payload(oracle)))
            chain.submit(
                Transaction("sim", contract.address, "try_trigger", encode_trigger(None, None))
            )
        mined = chain.step()
        if variant.architecture.delivery is not Delivery.SYNC:
            provider.after_block(mined)
        receipts += mined
    return contract, receipts


@pytest.mark.parametrize(
    "variant",
    [v for v in ALL_VARIANTS if v.architecture.delivery is not Delivery.PUSH],
    ids=lambda v: v.id,
)
def test_push_exists_only_for_push_delivery(variant):
    # a stray push of the value 0 naming the bound oracle: a contract that
    # took it could finalize event 1 (d_w >= 2), which never held
    contract, receipts = _replay_with_stray_call(
        variant, "push", lambda oracle: wc.encode_words(oracle.address, 4, 0)
    )
    pushes = [(r.status, r.revert_reason) for r in receipts if r.tx.function == "push"]
    assert pushes == [("reverted", "unknown function 'push'")]
    assert "winner" not in contract.storage
    assert all(r.status == "ok" for r in receipts if r.tx.function != "push")


@pytest.mark.parametrize(
    "variant",
    [v for v in ALL_VARIANTS if v.architecture.delivery is not Delivery.CALLBACK],
    ids=lambda v: v.id,
)
def test_oracle_callback_exists_only_for_callback_delivery(variant):
    contract, receipts = _replay_with_stray_call(
        variant, "oracle_callback", lambda oracle: wc.encode_words(1, 0)
    )
    callbacks = [
        (r.status, r.revert_reason) for r in receipts if r.tx.function == "oracle_callback"
    ]
    assert callbacks == [("reverted", "unknown function 'oracle_callback'")]
    assert "winner" not in contract.storage


# --- construction guards ------------------------------------------------------------


def test_winner_write_once():
    for variant_id in ("onchain-history", "pubsub", "offchain-history", "storage"):
        scenario = table1_scenario(variant_id)
        extra = Scenario(
            scenario_id="write-once",
            variant=scenario.variant,
            semantics=scenario.semantics,
            oracles=scenario.oracles,
            choices=scenario.choices,
            timeline=scenario.timeline
            + (
                Action(step=79, kind="trigger", choice=0),
                Action(step=80, kind="message", choice=0, event=E_T),
            ),
        )
        report = run(extra)
        winner_logs = [
            log
            for receipt in report.receipts
            for log in receipt.logs
            if log.topic == "winner"
        ]
        assert len(winner_logs) == 1


def test_conditional_event_requires_binding():
    events = (EventSpec(0, Conditional(parse("x >= 1"))),)
    with pytest.raises(ContractViolation):
        make_choice_contract(
            events,
            OracleVariant.parse("onchain-history"),
            {},
        )


def test_expression_variables_must_match_oracle():
    oracle = make_oracle_contract(OracleVariant.parse("onchain-history"), "y")
    events = (EventSpec(0, Conditional(parse("x >= 1"))),)
    with pytest.raises(ContractViolation):
        make_choice_contract(
            events,
            OracleVariant.parse("onchain-history"),
            {0: oracle},
        )


def test_timer_only_choice_finalizes_in_trigger_transaction():
    for variant_id in ("offchain-history", "pubsub", "request-response"):
        variant = OracleVariant.parse(variant_id)
        scenario = Scenario(
            scenario_id="timer-only",
            variant=variant,
            semantics=variant.semantics,
            oracles=(),
            choices=(
                ChoiceDecl(
                    (EventSpec(0, RelativeTimer(4)), EventSpec(1, Message())),
                    {},
                ),
            ),
            timeline=(
                Action(step=2, kind="activate", choice=0),
                Action(step=8, kind="trigger", choice=0),
            ),
        )
        report = run(scenario)
        outcome = report.outcomes[0]
        assert outcome.winner == 0
        assert outcome.finalized_at == 8
        if not variant.baseline:
            # ranking reconstructs the actual expiry; the baseline only
            # sees the timer in the waking transaction's state
            assert outcome.winner_detection_ts == 6


# --- tie-break preferences -------------------------------------------------------

X0_AT_LEAST_1 = Conditional(parse("x0 >= 1"))
X1_AT_LEAST_1 = Conditional(parse("x1 >= 1"))

# name -> (variables, events, oracle bindings, timeline, truth, baseline
# winner): a choice transaction's preference breaks only a tie at its own
# timestamp, and the baselines, which decide at the waking transaction, take
# that transaction's preference instead
PREFERENCE_CASES = {
    # the timers tie at 7 and the trigger at 10 names 1: no preference at 7
    "trigger-names-event-after-tie": (
        (),
        (EventSpec(0, RelativeTimer(3)), EventSpec(1, AbsoluteTimer(7))),
        {},
        (Action(4, "activate", choice=0), Action(10, "trigger", choice=0, preferred=1)),
        0,
        1,
    ),
    # the message ties with the timer at 6 and names the timer, not itself
    "message-names-another-event": (
        (),
        (EventSpec(0, Message()), EventSpec(1, AbsoluteTimer(6))),
        {},
        (
            Action(2, "activate", choice=0),
            Action(6, "message", choice=0, event=0, preferred=1),
            Action(9, "trigger", choice=0),
        ),
        1,
        1,
    ),
    # both conditions hold at activation; the first catch-up push of the next
    # block must not certify the other condition unsatisfied at activation
    "conditions-hold-at-activation": (
        ("x0", "x1"),
        (EventSpec(0, X1_AT_LEAST_1), EventSpec(1, X0_AT_LEAST_1)),
        {0: 1, 1: 0},
        (
            Action(1, "update", oracle=0, value=5),
            Action(1, "update", oracle=1, value=5),
            Action(3, "activate", choice=0),
            Action(6, "trigger", choice=0),
        ),
        0,
        0,
    ),
    # the condition and the deadline tie at activation, which names 1; a
    # catch-up push settles the tie
    "activation-names-tie-settled-by-push": (
        ("x0",),
        (EventSpec(0, Conditional(parse("x0 <= 2 && x0 >= 0"))), EventSpec(1, AbsoluteTimer(3))),
        {0: 0},
        (
            Action(1, "update", oracle=0, value=5),
            Action(3, "update", oracle=0, value=0),
            Action(3, "activate", choice=0, preferred=1),
            Action(4, "update", oracle=0, value=5),
            Action(12, "trigger", choice=0),
        ),
        1,
        1,
    ),
    # the condition turns true at the deadline; the push of that change comes
    # first in the block, and the trigger after it names 1
    "trigger-names-tie-in-push-block": (
        ("x0",),
        (EventSpec(0, X0_AT_LEAST_1), EventSpec(1, AbsoluteTimer(6))),
        {0: 0},
        (
            Action(1, "update", oracle=0, value=0),
            Action(3, "activate", choice=0),
            Action(6, "update", oracle=0, value=5),
            Action(6, "trigger", choice=0, preferred=1),
        ),
        1,
        1,
    ),
}


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.id)
@pytest.mark.parametrize("case", sorted(PREFERENCE_CASES))
def test_preference_breaks_only_a_tie_at_its_own_timestamp(case, variant):
    names, events, bindings, timeline, truth, baseline_winner = PREFERENCE_CASES[case]
    scenario = Scenario(
        scenario_id=case,
        variant=variant,
        semantics=variant.semantics,
        oracles=tuple(OracleDecl(name) for name in names),
        choices=(ChoiceDecl(events, bindings),),
        timeline=timeline,
    )
    outcome = run(scenario).outcomes[0]
    assert outcome.truth == truth
    assert outcome.winner == (baseline_winner if variant.baseline else truth)
