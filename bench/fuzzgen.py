"""Seeded generator for the ``fuzz`` workload.

The scenarios are write-heavy, the counterpart to the read-heavy cost grid:
one to three oracles updated densely, one to four choices sharing them,
conditions that may already hold at activation, all six comparison
operators, and ``preferred`` on activate, trigger and message transactions.

Each scenario draws its shape (oracle and choice counts) from a fixed cycle,
so every pass replays the same mix of shapes whatever the seed; the seed
only moves values, conditions and timing. That keeps the work per pass, and
therefore the timings, steady across seeds.

The generator emits only scenarios that ``Scenario.validate`` accepts and
never looks at outcomes, so scenarios a variant gets wrong stay in.
"""

from __future__ import annotations

import itertools
import random

SHAPES = tuple(itertools.product((1, 2, 3), (1, 2, 3, 4)))  # (oracles, choices)
LAST_STEP = 20  # last step that carries updates and choice transactions
VALUE_MAX = 9
OPERATORS = ("<", "<=", "==", "!=", ">=", ">")


class GeneratorBug(Exception):
    """The generator emitted a scenario the package rejects."""


def _condition(rng: random.Random, variable: str) -> str:
    def comparison() -> str:
        return f"{variable} {rng.choice(OPERATORS)} {rng.randint(0, VALUE_MAX)}"

    form = rng.random()
    if form < 0.6:
        return comparison()
    if form < 0.75:
        return f"{comparison()} && {comparison()}"
    if form < 0.9:
        return f"{comparison()} || {comparison()}"
    return f"!({comparison()})"


def generate(pkg, count: int, seed: int) -> list:
    """``count`` valid scenarios carrying the ``onchain-history`` variant;
    re-target them with ``Scenario.with_variant``."""
    expr = pkg.expr
    sem = pkg.semantics
    sc = pkg.scenario
    rng = random.Random(seed)
    variant = pkg.oracles.OracleVariant.parse("onchain-history")
    scenarios = []
    for index in range(count):
        n_oracles, n_choices = SHAPES[index % len(SHAPES)]
        oracles = tuple(sc.OracleDecl(f"x{o}") for o in range(n_oracles))
        actions = []
        for o in range(n_oracles):
            actions.append(sc.Action(step=1, kind="update", oracle=o, value=rng.randint(0, VALUE_MAX)))
            for step in sorted(rng.sample(range(2, LAST_STEP + 1), 11)):
                actions.append(
                    sc.Action(step=step, kind="update", oracle=o, value=rng.randint(0, VALUE_MAX))
                )
        choices = []
        for c in range(n_choices):
            activation = rng.randint(2, 8)
            free = list(range(activation + 1, LAST_STEP + 1))
            rng.shuffle(free)
            unbound = list(range(n_oracles))
            rng.shuffle(unbound)
            events = []
            bindings = {}
            messages = []
            for eid in range(rng.randint(2, 4)):
                kind = rng.choice(("message", "absolute-timer", "relative-timer", "conditional"))
                if kind == "conditional" and not unbound:
                    kind = "message"  # pub/sub allows one subscription per oracle
                if kind == "message":
                    events.append(sem.EventSpec(eid, sem.Message()))
                    if rng.random() < 0.8:
                        messages.append(eid)
                elif kind == "absolute-timer":
                    events.append(
                        sem.EventSpec(eid, sem.AbsoluteTimer(rng.randint(activation, LAST_STEP)))
                    )
                elif kind == "relative-timer":
                    events.append(
                        sem.EventSpec(eid, sem.RelativeTimer(rng.randint(0, LAST_STEP - activation)))
                    )
                else:
                    oracle = unbound.pop()
                    events.append(
                        sem.EventSpec(eid, sem.Conditional(expr.parse(_condition(rng, f"x{oracle}"))))
                    )
                    bindings[eid] = oracle

            def preferred() -> int | None:
                return rng.randrange(len(events)) if rng.random() < 0.3 else None

            actions.append(
                sc.Action(step=activation, kind="activate", choice=c, preferred=preferred())
            )
            for eid in messages:
                actions.append(
                    sc.Action(step=free.pop(), kind="message", choice=c, event=eid, preferred=preferred())
                )
            for _ in range(rng.randint(0, 2)):
                actions.append(
                    sc.Action(step=free.pop(), kind="trigger", choice=c, preferred=preferred())
                )
            # a last wake after every possible occurrence lets ranking contracts decide
            actions.append(sc.Action(step=LAST_STEP + 1, kind="trigger", choice=c))
            choices.append(sc.ChoiceDecl(tuple(events), bindings))
        actions.sort(key=lambda a: (a.step, 0 if a.kind == "update" else 1))
        scenario = sc.Scenario(
            scenario_id=f"fuzz-{seed}-{index:04d}",
            variant=variant,
            semantics=pkg.choice.SemanticsKind.TRANSACTION_DRIVEN,
            oracles=oracles,
            choices=tuple(choices),
            timeline=tuple(actions),
            seed=seed,
        )
        try:
            scenario.validate()
        except sc.ScenarioError as error:
            raise GeneratorBug(f"{scenario.scenario_id}: {error}") from error
        scenarios.append(scenario)
    return scenarios
