"""Mutation check of the decision path: would the tests catch a wrong rule?

Each row of ``MUTANTS`` seeds one small fault: it replaces one text in one
file of the package by another. For each row this script copies ``src/`` to
a temporary directory, applies the row and runs the tier-1 tests against the
copy with ``-x``. A mutant is killed when a test fails. It survives when the
suite passes, which is a gap in the tests unless the row is marked
equivalent: a change that no valid scenario can tell apart, because a rule
of ``Scenario.validate`` rules it out. An equivalent mark names that rule.

Run from anywhere, after the tier-1 tests pass::

    python tests/mutants.py

It exits 1 if a mutant that is not marked equivalent survives, and 2 if a
row's old text is not found exactly once in its file. pytest does not
collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str  # relative to ``src/``
    old: str
    new: str
    why: str
    equivalent: str | None = None  # the ``validate`` rule that hides it


MUTANTS = {
    "signalled-subscription-kept": Mutant(
        "deferred_choice/oracles.py",
        "            provider.subscriptions.pop(subscriber, None)",
        "            pass",
        "a conditional subscription that signalled would be pushed again on a later change",
    ),
    "catch-up-dated-next-block": Mutant(
        "deferred_choice/oracles.py",
        "self.history.values[-1], self.chain.height)",
        "self.history.values[-1], self.chain.height + 1)",
        "a catch-up would date the value in force after the block that logged the subscription",
    ),
    "current-value-one-before-update": Mutant(
        "deferred_choice/oracles.py",
        "value = history.values[-1] if history.values else 0",
        "value = history.values[-1] if history.values else 1",
        "a current-value oracle would answer a value nobody set",
    ),
    "double-set-accepted": Mutant(
        "deferred_choice/oracles.py",
        '            raise Revert(f"set: {error}") from None',
        "            raise",
        "a second set in one block would raise out of the block and lose its later transactions",
    ),
    "trigger-during-evaluation-accepted": Mutant(
        "deferred_choice/choice.py",
        '        if self._pending:\n            raise Revert("evaluation in progress")\n',
        "",
        "a trigger would record its message and query again while a query is in flight",
    ),
    "storage-written-on-change-only": Mutant(
        "deferred_choice/oracles.py",
        "        if not self._windowed:\n",
        "        if not self._windowed and changed:\n",
        "a storage oracle would not pay for a set that repeats its value",
    ),
}


def run_tests(src: Path) -> bool:
    """Whether the tier-1 tests pass against the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True)
    return done.returncode == 0


def main() -> int:
    survivors = []
    for name, mutant in MUTANTS.items():
        text = (ROOT / "src" / mutant.file).read_text()
        if text.count(mutant.old) != 1:
            print(f"{name}: the old text is not found exactly once in {mutant.file}")
            return 2
        with tempfile.TemporaryDirectory() as workdir:
            src = Path(workdir) / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            (src / mutant.file).write_text(text.replace(mutant.old, mutant.new))
            start = time.perf_counter()
            survived = run_tests(src)
        verdict = "survived" if survived else "killed"
        if survived and mutant.equivalent:
            verdict += f" (equivalent: {mutant.equivalent})"
        elif survived:
            survivors.append(name)
        print(f"{name}: {verdict} in {time.perf_counter() - start:.1f} s")
    print(f"{len(MUTANTS)} mutants, surviving and not equivalent: {survivors or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
