import csv
import json
from pathlib import Path

import pytest

from deferred_choice import cli
from deferred_choice.cli import main
from deferred_choice.experiments import HeatmapRow, read_correctness_csv, read_report_csv
from deferred_choice.scenario import Scenario, ScenarioError

TABLE1 = Path(__file__).resolve().parent.parent / "scenarios" / "table1.json"


def read_heatmap_csv(path):
    """The rows of a written heatmap.csv; the program never reads one back."""
    with open(path, newline="") as handle:
        return [
            HeatmapRow(row["variant"], int(row["c"]), int(row["u"]), float(row["normalized"]))
            for row in csv.DictReader(handle)
        ]


def test_run_table1(tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(TABLE1), "--out", str(out)]) == 0
    rows = read_report_csv(out / "report.csv")
    assert len(rows) == 1
    assert rows[0].winner == 0
    assert rows[0].truth == 0
    assert rows[0].correct is True
    receipts = (out / "receipts.log").read_text().splitlines()
    assert receipts
    record = json.loads(receipts[0])
    assert {"step", "from", "to", "function", "payload_bytes", "gas_used", "status", "logs"} <= set(record)


def test_run_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) != 0


def test_run_missing_file(tmp_path):
    assert main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) != 0


def test_run_message_before_activation_exits_2(tmp_path, capsys):
    obj = json.loads(TABLE1.read_text())
    obj["timeline"].insert(0, {"step": 72, "action": "message", "choice": 0, "event": 3})
    scenario = tmp_path / "early.json"
    scenario.write_text(json.dumps(obj))
    assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert "before its activation" in capsys.readouterr().err


def _set(path, value):
    """An edit of the table1 JSON: set the item at ``path`` to ``value``."""

    def edit(obj):
        *parents, last = path
        for key in parents:
            obj = obj[key]
        obj[last] = value

    return edit


def _stray(index, **fields):
    """An edit of the table1 JSON: add ``fields`` to action ``index``, or to
    a trigger appended at step 80 if ``index`` is None."""

    def edit(obj):
        if index is None:
            obj["timeline"].append({"step": 80, "action": "trigger", "choice": 0})
        obj["timeline"][-1 if index is None else index].update(fields)

    return edit


def _pubsub_two_events_one_oracle(obj):
    obj["variant"] = "pubsub"
    second = {"kind": "conditional", "expr": "d_w >= 5", "oracle": 0}
    obj["choices"][0]["events"].append(second)


def _add_oracle(variable):
    """An edit of the table1 JSON: add an unbound oracle of ``variable``."""

    def edit(obj):
        obj["oracles"].append({"variable": variable})

    return edit


MALFORMED = {
    "value-2**64": _set(("timeline", 0, "value"), 2**64),
    "value-negative": _set(("timeline", 0, "value"), -1),
    "value-true": _set(("timeline", 0, "value"), True),
    "value-string": _set(("timeline", 2, "value"), "4"),
    "step-float": _set(("timeline", 4, "step"), 78.5),
    "deadline-negative": _set(("choices", 0, "events", 0, "deadline"), -1),
    "preferred-negative": _set(("timeline", 1, "preferred"), -1),
    "message-event-negative": _set(("timeline", 4, "event"), -1),
    "update-oracle-string": _set(("timeline", 0, "oracle"), "0"),
    "choice-string": _set(("timeline", 1, "choice"), "0"),
    "no-events": _set(("choices", 0, "events"), []),
    "unknown-variant": _set(("variant",), "carrier-pigeon"),
    "variant-number": _set(("variant",), 5),
    "pubsub-two-events-one-oracle": _pubsub_two_events_one_oracle,
    # the binding rule: a condition names exactly its oracle's variable, and
    # a binding names an oracle of the scenario
    "condition-names-another-variable": _set(("choices", 0, "events", 1, "expr"), "y >= 2"),
    "oracle-index-out-of-range": _set(("choices", 0, "events", 1, "oracle"), 5),
    "variable-twice": _set(("oracles",), [{"variable": "d_w"}, {"variable": "d_w"}]),
    "variable-list": _set(("oracles", 0, "variable"), ["d_w"]),
    "variable-non-ascii": _add_oracle("\u00c0"),
    "variable-with-space": _add_oracle("x y"),
    "seed-float": _set(("seed",), 1.9),
    "seed-true": _set(("seed",), True),
    "seed-string": _set(("seed",), "7"),
    "id-number": _set(("id",), 5),
    "preferred-misspelt": _set(("timeline", 4, "prefered"), 3),
    "deadline-misspelt": _set(("choices", 0, "events", 0, "dealine"), 5),
    "unknown-top-level-key": _set(("bogus",), 1),
    # the lists of a scenario file are JSON arrays of objects
    "timeline-object": _set(("timeline",), {}),
    "timeline-string": _set(("timeline",), ""),
    "oracles-string": _set(("oracles",), "ab"),
    "action-not-object": _set(("timeline", 0), "update"),
    # fields the action's kind does not take
    "trigger-with-event": _stray(None, event=3),
    "activate-with-event": _stray(1, event=3),
    "update-with-choice-and-preferred": _stray(0, choice=5, preferred=9),
    "message-with-oracle-and-value": _stray(4, oracle=7, value=-3),
    # NEVER, 2**64-1, is the "not detected" sentinel
    "step-never": _set(("timeline", 4, "step"), 2**64 - 1),
    "condition-nested-5000-deep": _set(
        ("choices", 0, "events", 1, "expr"), "(" * 5000 + "d_w >= 2" + ")" * 5000
    ),
    "condition-negated-5000-times": _set(("choices", 0, "events", 1, "expr"), "!" * 5000 + "d_w >= 2"),
    "condition-chained-5000-terms": _set(
        ("choices", 0, "events", 1, "expr"), " && ".join(["d_w >= 2"] * 5000)
    ),
}

# scenario files that fail before they decode to JSON objects
MALFORMED_FILES = {
    "not-utf8": b'{"id": "\xff"}',
    "integer-5000-digits": b'{"seed": ' + b"7" * 5000 + b"}",
    "nested-past-recursion-limit": b"[" * 100_000 + b"]" * 100_000,
}


# the exact message of each malformed case, as the CLI reports it after "error: "
MALFORMED_MESSAGES = {
    "value-2**64": "bad value 18446744073709551616: values are 64-bit words",
    "value-negative": "bad value -1: values are 64-bit words",
    "value-true": "bad value True: values are 64-bit words",
    "value-string": "bad value '4': values are 64-bit words",
    "step-float": "bad step 78.5: steps are integers from 1 to 2**64-2",
    "deadline-negative": "event 0: bad deadline -1",
    "preferred-negative": "unknown preferred event -1",
    "message-event-negative": "message action needs a valid event id",
    "update-oracle-string": "unknown oracle '0'",
    "choice-string": "unknown choice '0'",
    "no-events": "a deferred choice needs at least one event",
    "unknown-variant": "malformed scenario: unknown oracle variant 'carrier-pigeon'",
    "variant-number": "malformed scenario: 'int' object has no attribute 'strip'",
    "pubsub-two-events-one-oracle": (
        "push delivery allows one subscription per oracle, but the oracle of 'd_w' binds two events"
    ),
    "condition-names-another-variable": (
        "event 1 references ['y'] but the bound oracle provides ['d_w']"
    ),
    "oracle-index-out-of-range": "oracle index 5 out of range",
    "variable-twice": "oracle variables must be distinct names",
    "variable-list": "bad variable ['d_w']: variables are identifiers",
    "variable-non-ascii": "bad variable '\u00c0': variables are identifiers",
    "variable-with-space": "bad variable 'x y': variables are identifiers",
    "seed-float": "bad seed 1.9: seeds are integers",
    "seed-true": "bad seed True: seeds are integers",
    "seed-string": "bad seed '7': seeds are integers",
    "id-number": "bad id 5: ids are strings",
    "preferred-misspelt": "action has unknown keys 'prefered'",
    "deadline-misspelt": "event 0 has unknown keys 'dealine'",
    "unknown-top-level-key": "scenario has unknown keys 'bogus'",
    "timeline-object": "timeline is not an array",
    "timeline-string": "timeline is not an array",
    "oracles-string": "oracles is not an array",
    "action-not-object": "action is not an object",
    "trigger-with-event": "trigger action at step 80 takes no 'event'",
    "activate-with-event": "activate action at step 73 takes no 'event'",
    "update-with-choice-and-preferred": "update action at step 73 takes no 'choice'",
    "message-with-oracle-and-value": "message action at step 78 takes no 'oracle'",
    "step-never": "bad step 18446744073709551615: steps are integers from 1 to 2**64-2",
    "condition-nested-5000-deep": "malformed scenario: nested deeper than 100 at position 100",
    "condition-negated-5000-times": "malformed scenario: nested deeper than 100 at position 100",
    "condition-chained-5000-terms": "malformed scenario: nested deeper than 100 at position 1209",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_scenario_rejected_and_run_exits_2(tmp_path, capsys, case):
    obj = json.loads(TABLE1.read_text())
    MALFORMED[case](obj)
    with pytest.raises(ScenarioError) as raised:
        Scenario.from_obj(obj)
    assert str(raised.value) == MALFORMED_MESSAGES[case]
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(obj))
    assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {MALFORMED_MESSAGES[case]}\n"


def test_condition_naming_another_variable_is_reported(tmp_path, capsys):
    obj = json.loads(TABLE1.read_text())
    MALFORMED["condition-names-another-variable"](obj)
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(obj))
    assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: event 1 references ['y'] but the bound oracle provides ['d_w']\n"
    )


@pytest.mark.parametrize(
    "case, error",
    [
        ("timeline-object", "timeline is not an array"),
        ("timeline-string", "timeline is not an array"),
        ("oracles-string", "oracles is not an array"),
        ("action-not-object", "action is not an object"),
    ],
)
def test_non_array_or_non_object_is_reported_by_name(tmp_path, capsys, case, error):
    obj = json.loads(TABLE1.read_text())
    MALFORMED[case](obj)
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(obj))
    assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_file_rejected_and_run_exits_2(tmp_path, capsys, case):
    with pytest.raises(ScenarioError):
        Scenario.from_json(MALFORMED_FILES[case])
    scenario = tmp_path / "bad.json"
    scenario.write_bytes(MALFORMED_FILES[case])
    assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: not valid JSON: ")


def test_run_empty_timeline(tmp_path):
    scenario = tmp_path / "empty.json"
    scenario.write_text(
        json.dumps(
            {
                "id": "empty",
                "variant": "pubsub",
                "semantics": "transaction-driven",
                "oracles": [],
                "choices": [{"events": [{"kind": "message"}]}],
                "timeline": [],
            }
        )
    )
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out)]) == 0
    rows = read_report_csv(out / "report.csv")
    assert rows[0].winner is None


def test_correctness_smoke(tmp_path):
    out = tmp_path / "corr"
    assert (
        main(
            [
                "correctness",
                "--n",
                "2",
                "--k",
                "5",
                "--variants",
                "onchain-history,storage",
                "--seed",
                "4",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    rows = read_correctness_csv(out / "report.csv")
    by_arch = {row.architecture: row for row in rows}
    assert by_arch["onchain-history"].regular_correct == 2
    assert by_arch["onchain-history"].regular_total == 2


def test_correctness_single_scenario_smoke_is_fast(tmp_path):
    import time

    started = time.monotonic()
    assert (
        main(
            [
                "correctness",
                "--n",
                "1",
                "--k",
                "5",
                "--variants",
                "all",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "smoke"),
            ]
        )
        == 0
    )
    assert time.monotonic() - started < 1.0


def test_correctness_with_fewer_scenarios_than_event_counts(tmp_path):
    # n = 1 split across two k values: k=5 gets the scenario, k=10 none
    out = tmp_path / "corr"
    assert main(["correctness", "--n", "1", "--k", "5,10", "--out", str(out)]) == 0
    rows = read_correctness_csv(out / "report.csv")
    assert len(rows) == 5
    assert all(row.regular_total == row.conditional_total == 1 for row in rows)


def test_cost_smoke_and_parse_back(tmp_path):
    out = tmp_path / "cost"
    assert (
        main(
            [
                "cost",
                "--c",
                "2,3",
                "--u",
                "1,5",
                "--variants",
                "storage,pubsub-cond",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    rows = read_report_csv(out / "report.csv")
    assert len(rows) == 8  # 2 variants x 2 c values x 2 u values
    heat = read_heatmap_csv(out / "heatmap.csv")
    assert len(heat) == 8
    values = [row.normalized for row in heat]
    assert min(values) == 0.0 and max(values) == 1.0


def test_report_csv_round_trip(tmp_path):
    from deferred_choice.experiments import report_rows, write_report_csv
    from deferred_choice.oracles import OracleVariant
    from deferred_choice.scenario import Scenario, run

    scenario = Scenario.from_json(TABLE1.read_text())
    reports = [
        run(scenario.with_variant(OracleVariant.parse(v)))
        for v in ("onchain-history", "storage")
    ]
    rows = report_rows(reports)
    path = tmp_path / "report.csv"
    write_report_csv(path, rows)
    assert read_report_csv(path) == rows


def test_correctness_and_heatmap_csv_round_trip(tmp_path):
    from deferred_choice.experiments import (
        correctness_rows,
        heatmap_rows,
        run_correctness_experiment,
        run_cost_experiment,
        write_correctness_csv,
        write_heatmap_csv,
    )
    from deferred_choice.oracles import OracleVariant

    variants = [OracleVariant.parse("storage"), OracleVariant.parse("pubsub")]
    rows = correctness_rows(run_correctness_experiment(2, (5,), variants, seed=6))
    path = tmp_path / "correctness.csv"
    write_correctness_csv(path, rows)
    assert read_correctness_csv(path) == rows

    heat = heatmap_rows(run_cost_experiment([2], [1, 5], variants))
    heat_path = tmp_path / "heatmap.csv"
    write_heatmap_csv(heat_path, heat)
    assert read_heatmap_csv(heat_path) == heat


BAD_ARGUMENTS = {
    "k-empty-list": ["correctness", "--k", ","],
    "k-one-event": ["correctness", "--k", "1"],
    "n-zero": ["correctness", "--n", "0"],
    "variants-empty-list": ["correctness", "--variants", ","],
    "c-not-a-number": ["cost", "--c", "abc"],
    "c-zero": ["cost", "--c", "0"],
    "u-empty-list": ["cost", "--u", ","],
    "variants-unknown": ["cost", "--variants", "bogus"],
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_bad_experiment_argument_exits_2_with_usage(tmp_path, capsys, case):
    out = tmp_path / "out"
    assert main([*BAD_ARGUMENTS[case], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: deferred-choice ")
    assert f"error: argument {BAD_ARGUMENTS[case][1]}: " in err
    assert not out.exists()


REPEATED_VALUES = {
    "k": (["correctness", "--n", "4", "--k", "5,5", "--variants", "storage"], "5 is repeated"),
    "c": (["cost", "--c", "5,5", "--u", "1", "--variants", "pubsub"], "5 is repeated"),
    "u": (["cost", "--c", "5", "--u", "1,10,1", "--variants", "pubsub"], "1 is repeated"),
    "variants": (["cost", "--c", "1", "--u", "1", "--variants", "storage, storage"],
                 "storage is repeated"),
}


@pytest.mark.parametrize("flag", sorted(REPEATED_VALUES))
def test_repeated_list_value_exits_2_naming_it(tmp_path, capsys, flag):
    """A value a list flag repeats would be counted twice: replayed or
    written twice, or counted as another variant."""
    command, named = REPEATED_VALUES[flag]
    out = tmp_path / "out"
    assert main([*command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: deferred-choice ")
    assert f"error: argument --{flag}: {named} in " in err
    assert not out.exists()


MALFORMED_SCHEDULES = {
    "bool-value": '{"tx_base": true}',
    "float-value": '{"tx_base": 1.9}',
    "negative-value": '{"tx_base": -5}',
    "float-deploy-cost": '{"deploy_per_contract": {"storage-oracle": 2.5}}',
    "unknown-key": '{"tx_bse": 5}',
    "not-an-object": "[1, 2]",
    "deploy-costs-not-an-object": '{"deploy_per_contract": 7}',
    "deploy-cost-of-no-contract-kind": '{"deploy_per_contract": {"storage-orcale": 1}}',
    "invalid-json": '{"tx_base": ',
    "not-utf8": b'{"tx_base": "\xff"}',
    "integer-5000-digits": '{"tx_base": ' + "9" * 5000 + "}",
    "nested-past-recursion-limit": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SCHEDULES))
def test_malformed_gas_schedule_exits_2(tmp_path, capsys, case):
    schedule = tmp_path / "schedule.json"
    content = MALFORMED_SCHEDULES[case]
    schedule.write_bytes(content if isinstance(content, bytes) else content.encode())
    out = tmp_path / "out"
    for command in (
        ["run", str(TABLE1)],
        ["correctness", "--n", "1", "--k", "2"],
        ["cost", "--c", "1", "--u", "1"],
    ):
        assert main(["--gas-schedule", str(schedule), *command, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: gas schedule {schedule}: ")
    assert not out.exists()


def test_gas_schedule_names_the_kind_nothing_deploys(tmp_path, capsys):
    schedule = tmp_path / "schedule.json"
    schedule.write_text(MALFORMED_SCHEDULES["deploy-cost-of-no-contract-kind"])
    out = tmp_path / "out"
    assert main(["--gas-schedule", str(schedule), "run", str(TABLE1), "--out", str(out)]) == 2
    assert "'storage-orcale'" in capsys.readouterr().err


COMMANDS = pytest.mark.parametrize(
    "command",
    [["run", str(TABLE1)], ["correctness", "--n", "1", "--k", "2"], ["cost", "--c", "1", "--u", "1"]],
    ids=lambda command: command[0],
)


@COMMANDS
def test_out_naming_a_file_exits_2(tmp_path, capsys, monkeypatch, command):
    """An unusable output directory fails before the replay or experiment
    runs."""
    ran = []
    for work in ("run", "run_correctness_experiment", "run_cost_experiment"):
        monkeypatch.setattr(cli, work, lambda *args, work=work: ran.append(work))
    out = tmp_path / "taken"
    out.write_text("kept")
    assert main([*command, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: output directory {out}: ")
    assert out.read_text() == "kept"
    assert ran == []


@COMMANDS
def test_report_file_that_cannot_be_written_exits_2(tmp_path, capsys, command):
    blocked = tmp_path / "out" / "report.csv"
    blocked.mkdir(parents=True)
    assert main([*command, "--out", str(blocked.parent)]) == 2
    assert capsys.readouterr().err.startswith(f"error: output file {blocked}: ")


def test_gas_schedule_override(tmp_path):
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps({"tx_base": 50_000}))
    out_default = tmp_path / "a"
    out_heavy = tmp_path / "b"
    assert main(["run", str(TABLE1), "--out", str(out_default)]) == 0
    assert main(["--gas-schedule", str(schedule), "run", str(TABLE1), "--out", str(out_heavy)]) == 0
    default_rows = read_report_csv(out_default / "report.csv")
    heavy_rows = read_report_csv(out_heavy / "report.csv")
    assert heavy_rows[0].gas_total > default_rows[0].gas_total
