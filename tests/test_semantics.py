"""Tests of the reference executors in ``reference``, anchored on one
worked environment trace:

timestamps 73..78 with variable d_w at 0,1,1,1,2,2; event 0 is a timer
expiring at 76, event 1 a condition "d_w >= 2", events 2 and 3 messages.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deferred_choice.expr import parse
from deferred_choice.semantics import (
    NEVER,
    AbsoluteTimer,
    Conditional,
    ContractViolation,
    EventSpec,
    Message,
    RelativeTimer,
    decide,
)
from reference import (
    ChoiceState,
    EnvironmentState,
    EnvironmentTrace,
    TimestampOverflow,
    continual_step,
    detect,
    detected_set,
    earliest_any_detection,
    earliest_detection,
    initial_state,
    pick_winner,
    run_continual,
    successor,
    transaction_step,
)

E_D, E_W, E_C, E_T = 0, 1, 2, 3

EVENTS = (
    EventSpec(E_D, AbsoluteTimer(76)),
    EventSpec(E_W, Conditional(parse("d_w >= 2"))),
    EventSpec(E_C, Message()),
    EventSpec(E_T, Message()),
)

LEVELS = {73: 0, 74: 1, 75: 1, 76: 1, 77: 2, 78: 2}


def state(t):
    return EnvironmentState(t, {"d_w": LEVELS[t]})


def trace(start, end):
    return EnvironmentTrace([state(t) for t in range(start, end + 1)])


S1, S2, S3, S4, S5, S6 = (state(t) for t in range(73, 79))


# --- successor ---------------------------------------------------------------


def test_successor_advances_one_unit():
    assert successor(S1, {"d_w": 1}) == EnvironmentState(74, {"d_w": 1})


def test_successor_identity_valuation():
    start = EnvironmentState(0, {"d_w": 0})
    assert successor(start, start.nu) == EnvironmentState(1, {"d_w": 0})


def test_successor_keeps_unchanged_value():
    s5 = EnvironmentState(77, {"d_w": 2})
    assert successor(s5, {"d_w": 2}) == EnvironmentState(78, {"d_w": 2})


def test_successor_overflow_is_fatal():
    nearly = EnvironmentState(NEVER - 1, {})
    with pytest.raises(TimestampOverflow):
        successor(nearly, {})


def test_trace_requires_chained_states():
    with pytest.raises(ContractViolation):
        EnvironmentTrace([S1, S3])


# --- detection ---------------------------------------------------------------


def test_detect_timer_first_true_at_deadline():
    assert detect(EVENTS[E_D], S1, S4, set()) is True
    assert detect(EVENTS[E_D], S1, S3, set()) is False


def test_detect_condition_false_below_threshold():
    assert detect(EVENTS[E_W], S1, S4, set()) is False
    assert detect(EVENTS[E_W], S1, S5, set()) is True


def test_detect_message_needs_explicit_action():
    assert detect(EVENTS[E_C], S1, S4, set()) is False
    assert detect(EVENTS[E_C], S1, S4, {E_C}) is True


def test_detect_relative_timer():
    event = EventSpec(0, RelativeTimer(3))
    assert detect(event, S1, S3, set()) is False
    assert detect(event, S1, S4, set()) is True


def test_detected_set_at_s5():
    assert detected_set(EVENTS, S1, S5, set()) == {E_D, E_W}


def test_detected_set_at_activation_state():
    assert detected_set(EVENTS, S1, S1, set()) == set()


def test_detected_set_empty_events():
    assert detected_set((), S1, S5, set()) == set()


# --- initial states -----------------------------------------------------------


def test_initial_state_picks_lowest_id():
    assert initial_state(EVENTS, S5, set()) == ChoiceState(S5, S5, E_D)


def test_initial_state_honors_preference():
    assert initial_state(EVENTS, S5, set(), preferred=E_W) == ChoiceState(S5, S5, E_W)


def test_initial_state_undecided():
    assert initial_state(EVENTS, S1, set()) == ChoiceState(S1, S1, None)


# --- continual steps ------------------------------------------------------------


def test_continual_step_detects_timer():
    chosen = continual_step(ChoiceState(S1, S3, None), EVENTS, S4, set())
    assert chosen == ChoiceState(S1, S4, E_D)


def test_continual_step_stays_undecided():
    chosen = continual_step(ChoiceState(S1, S1, None), EVENTS, S2, set())
    assert chosen == ChoiceState(S1, S2, None)


def test_continual_step_rejects_gaps():
    with pytest.raises(ContractViolation):
        continual_step(ChoiceState(S1, S1, None), EVENTS, S3, set())


def test_continual_step_rejects_decided_state():
    with pytest.raises(ContractViolation):
        continual_step(ChoiceState(S1, S4, E_D), EVENTS, S5, set())


# --- earliest detection -----------------------------------------------------------


def test_earliest_detection_timer():
    assert earliest_detection(EVENTS[E_D], S1, trace(73, 78), ()) == 76


def test_earliest_detection_condition():
    assert earliest_detection(EVENTS[E_W], S1, trace(73, 78), ()) == 77


def test_earliest_detection_not_yet():
    assert earliest_detection(EVENTS[E_W], S1, trace(73, 76), ()) == NEVER


def test_earliest_detection_message_from_log():
    assert earliest_detection(EVENTS[E_C], S1, trace(73, 78), [(E_C, 78)]) == 78
    assert earliest_detection(EVENTS[E_C], S1, trace(73, 78), ()) == NEVER


def test_earliest_detection_rejects_pre_activation_message():
    with pytest.raises(ContractViolation):
        earliest_detection(EVENTS[E_C], S1, trace(73, 78), [(E_C, 70)])


def test_earliest_any_detection():
    assert earliest_any_detection(EVENTS, S1, trace(73, 78), [(E_C, 78)]) == 76
    assert earliest_any_detection(EVENTS, S1, trace(73, 75), ()) == NEVER
    single = (EventSpec(0, Message()),)
    assert earliest_any_detection(single, S1, trace(73, 78), [(0, 78)]) == 78


# --- transaction steps --------------------------------------------------------------


def test_transaction_step_full_gap():
    stepped = transaction_step(
        ChoiceState(S1, S1, None), EVENTS, S6, trace(73, 78), [(E_C, 78)]
    )
    assert stepped == ChoiceState(S1, S6, E_D)


def test_transaction_step_partial_gap():
    stepped = transaction_step(
        ChoiceState(S1, S2, None), EVENTS, S5, trace(73, 77), ()
    )
    assert stepped == ChoiceState(S1, S5, E_D)


def test_transaction_step_tie_break_prefers_named_event():
    events = (EventSpec(0, AbsoluteTimer(76)), EventSpec(1, AbsoluteTimer(76)))
    stepped = transaction_step(
        ChoiceState(S1, S1, None), events, S6, trace(73, 78), (), preferred=1
    )
    assert stepped.winner == 1


def test_transaction_step_requires_progress():
    with pytest.raises(ContractViolation):
        transaction_step(ChoiceState(S1, S6, None), EVENTS, S6, trace(73, 78), ())


def test_transaction_step_rejects_decided_state():
    with pytest.raises(ContractViolation):
        transaction_step(ChoiceState(S1, S4, E_D), EVENTS, S6, trace(73, 78), ())


# --- reference executor ----------------------------------------------------------------


def test_run_continual_table_trace():
    final = run_continual(EVENTS, trace(73, 78), [(E_C, 78)], {78: E_C})
    assert final == ChoiceState(S1, S4, E_D)


# --- decision rule -------------------------------------------------------------------


def test_decide_earliest_detection_wins():
    assert decide({0: 76, 1: 77, 2: 78}, {}) == (0, 76, False)
    # a preference breaks only a tie at its own timestamp
    assert decide({3: 5, 1: 9}, {9: 1}) == (3, 5, False)


def test_decide_tie_goes_to_the_preference_at_its_timestamp():
    assert decide({0: 6, 1: 6, 2: 6}, {6: 2}) == (2, 6, True)


def test_decide_tie_goes_to_lowest_id_unless_a_tied_event_is_preferred():
    assert decide({2: 6, 1: 6}, {}) == (1, 6, True)
    assert decide({2: 6, 1: 6}, {5: 2}) == (1, 6, True)  # preferred at another time
    assert decide({2: 6, 1: 6, 0: 9}, {6: 0}) == (1, 6, True)  # preferred, not tied


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.integers(0, 5), st.integers(0, 4), min_size=1),
    st.dictionaries(st.integers(0, 4), st.integers(0, 6)),
)
def test_decide_agrees_with_the_reference_tie_break(detected, preferred_at):
    winner, at, tied = decide(detected, preferred_at)
    pool = {eid for eid, detected_at in detected.items() if detected_at == at}
    assert at == min(detected.values())
    assert tied == (len(pool) > 1)
    assert winner == pick_winner(pool, preferred_at.get(at))


# --- properties --------------------------------------------------------------------


@st.composite
def random_race(draw):
    start = draw(st.integers(1, 50))
    length = draw(st.integers(1, 50))
    variables = ("a", "b")
    states = [
        EnvironmentState(
            start + i, {name: draw(st.integers(0, 4)) for name in variables}
        )
        for i in range(length)
    ]
    race_trace = EnvironmentTrace(states)
    horizon = start + length - 1
    count = draw(st.integers(1, 6))
    events = []
    log = []
    for eid in range(count):
        pick = draw(st.integers(0, 3))
        if pick == 0:
            events.append(EventSpec(eid, Message()))
            if draw(st.booleans()):
                log.append((eid, draw(st.integers(start, horizon))))
        elif pick == 1:
            # a deadline may predate activation; it is detected at activation
            events.append(
                EventSpec(eid, AbsoluteTimer(draw(st.integers(max(start - 5, 0), horizon + 5))))
            )
        elif pick == 2:
            events.append(EventSpec(eid, RelativeTimer(draw(st.integers(0, length + 5)))))
        else:
            name = draw(st.sampled_from(variables))
            op = draw(st.sampled_from([">=", "<", "=="]))
            bound = draw(st.integers(0, 5))
            events.append(EventSpec(eid, Conditional(parse(f"{name} {op} {bound}"))))
    return tuple(events), race_trace, tuple(log)


@settings(max_examples=300, deadline=None)
@given(random_race())
def test_refinement_continual_vs_transaction(case):
    """A single gap-spanning step agrees with stepwise continual execution."""
    events, race_trace, log = case
    final = run_continual(events, race_trace, log)
    by_time = {}
    for eid, at in log:
        by_time.setdefault(at, set()).add(eid)
    init = initial_state(events, race_trace.start, by_time.get(race_trace.start.t, set()))
    if init.winner is not None or len(race_trace) == 1:
        assert final.winner == init.winner
        return
    stepped = transaction_step(init, events, race_trace.end, race_trace, log)
    assert stepped.winner == final.winner


@settings(max_examples=200, deadline=None)
@given(random_race(), st.integers(1, 49))
def test_monotone_detection_under_extension(case, prefix_length):
    events, race_trace, log = case
    prefix = EnvironmentTrace(race_trace.states[: min(prefix_length, len(race_trace))])
    for event in events:
        if isinstance(event.kind, Message):
            continue
        early = earliest_detection(event, race_trace.start, prefix, log)
        if early != NEVER:
            assert earliest_detection(event, race_trace.start, race_trace, log) == early


@settings(max_examples=200, deadline=None)
@given(random_race())
def test_never_means_no_state_detects(case):
    events, race_trace, log = case
    by_time = {}
    for eid, at in log:
        by_time.setdefault(at, set()).add(eid)
    any_detection = any(
        detected_set(events, race_trace.start, s, by_time.get(s.t, set()))
        for s in race_trace
    )
    overall = earliest_any_detection(events, race_trace.start, race_trace, log)
    assert (overall == NEVER) == (not any_detection)
