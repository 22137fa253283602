"""Benchmark of the deferred-choice simulator.

    python3 bench/run.py --workload {correctness,cost,fuzz} [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from the
checkout's ``src`` directory. One process on one thread replays the
workload's inputs back to back (a closed loop) in passes until ``--seconds``
have elapsed, at least two passes. Every number is host time: how long the
simulator takes. Simulated gas and winners are outputs, written with the
package writers under ``.bench_out/<workload>/`` and digested with sha256.

The run fails (exit 1, ``"correct": false``) if two passes write different
bytes, or if the workload's own claim does not hold (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics:

* ``wall_s`` — median host seconds of a pass: replays, ground truth and
  writing the outputs;
* ``replay_ms.p50``/``replay_ms.p90`` — host milliseconds of one
  scenario x variant replay, pooled over all passes (``fuzz`` includes
  ``Scenario.from_json``);
* ``setup_s`` — median of several set-ups, each a fresh import of the
  package plus generating the workload's inputs (and serialising them to
  JSON for ``fuzz``);
* ``peak_rss_mb`` — peak resident memory of the process;
* ``ok_ratio`` — share of replays that did not fail. A replay fails if it
  raises or if a ranking variant's winner differs from the reference for
  any choice; baselines disagreeing with the reference is the paper's
  point and counts under ``outcomes.baseline_wrong`` instead.

``failed`` in the result line counts replays that raised. The
wrong-winner share is printed as ``failed_ratio`` with its counts.

``--trace 1`` first runs untraced passes, then traced passes that wrap the
package's layer boundaries (``tracing.py``), and prints the per-layer
metrics plus the tracing overhead. Timings are medians over traced passes;
counts must repeat exactly across passes. The spans of the first traced
pass are written to ``.bench_out/<workload>/spans.bin``.

The last line of standard output is the result as one JSON object; the
digests, per-variant outcomes and counters of the run are also written to
``.bench_out/<workload>/result-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("expr", "semantics", "wordcodec", "ledger", "oracles", "choice", "scenario", "experiments")
MIN_SETUPS = 5
SETUP_SECONDS = 3.0
MIN_PASSES = 2
PACKAGE = "deferred_choice"


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_package():
    """A fresh import of the package from the checkout's ``src``."""
    src = ROOT / "src"
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        root_module = importlib.import_module(PACKAGE)
    except ImportError as error:
        raise BenchmarkError(f"cannot import {PACKAGE} from {src}: {error}") from None
    if not Path(root_module.__file__).resolve().is_relative_to(src):
        raise BenchmarkError(f"{PACKAGE} was imported from outside {src}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    )


def set_up(workload, seed):
    """Import and generate at least ``MIN_SETUPS`` times and for at least
    ``SETUP_SECONDS``; keep the last set-up."""
    totals, generates = [], []
    began = perf_counter()
    while len(totals) < MIN_SETUPS or perf_counter() - began < SETUP_SECONDS:
        pkg = inputs = None
        gc.collect()
        start = perf_counter()
        pkg = import_package()
        imported = perf_counter()
        inputs = workload.generate(pkg, seed)
        end = perf_counter()
        totals.append(end - start)
        generates.append(end - imported)
    return pkg, inputs, totals, generates


class Pass:
    """One pass over the inputs: timings, outcomes and output digest."""

    def __init__(self, workload, pkg, inputs, out: Path):
        self.samples: list[float] = []
        self.errors: list[str] = []
        done = []
        start = perf_counter()
        for item in inputs:
            began = perf_counter()
            try:
                report = workload.replay(pkg, item)
            except Exception as error:  # a replay that raises is a failed operation
                self.errors.append(f"{type(error).__name__}: {error}")
            else:
                done.append((item, report))
            self.samples.append(perf_counter() - began)
        paths = workload.write(pkg, done, out)
        self.wall_s = perf_counter() - start
        self.attempted = len(inputs)
        digest = hashlib.sha256()
        self.bytes_written = 0
        self.digests = {}
        for path in paths:
            data = path.read_bytes()
            self.bytes_written += len(data)
            self.digests[path.name] = hashlib.sha256(data).hexdigest()
            digest.update(data)
        self.digest = digest.hexdigest()
        self._count_outcomes([report for _, report in done])

    def _count_outcomes(self, reports) -> None:
        self.by_variant: dict[str, dict[str, int]] = {}
        self.wrong_replays = 0
        ranking_wrong = baseline_wrong = undecided = decided = 0
        for report in reports:
            tally = self.by_variant.setdefault(
                report.variant.id, {"replays": 0, "choices": 0, "wrong": 0, "undecided": 0}
            )
            tally["replays"] += 1
            for outcome in report.outcomes:
                tally["choices"] += 1
                decided += outcome.winner is not None
                if outcome.winner is None and outcome.truth is not None:
                    tally["undecided"] += 1
                    undecided += 1
                elif outcome.winner != outcome.truth:
                    tally["wrong"] += 1
                if outcome.winner != outcome.truth:
                    if report.variant.baseline:
                        baseline_wrong += 1
                    else:
                        ranking_wrong += 1
            if not report.variant.baseline and not report.correct:
                self.wrong_replays += 1
        self.outcomes = {
            "choice.decided": decided,
            "outcomes.ranking_wrong": ranking_wrong,
            "outcomes.baseline_wrong": baseline_wrong,
            "outcomes.undecided": undecided,
        }

    @property
    def failed(self) -> int:
        return len(self.errors) + self.wrong_replays


def run_passes(workload, pkg, inputs, out: Path, seconds: float, tracer=None) -> list[Pass]:
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        gc.collect()
        if tracer is not None:
            tracer.reset()
            tracer.recording = not passes
        current = Pass(workload, pkg, inputs, out)
        if tracer is not None:
            current.layers = {
                **tracer.layer_metrics(),
                **current.outcomes,
                "experiments.write.bytes": current.bytes_written,
            }
        passes.append(current)
    return passes


def load_spec(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def emit(spec: list[dict], values: dict, samples: dict) -> dict:
    """Print one line per metric and return the result's ``metrics``."""
    names = [m["name"] for m in spec]
    if set(names) != set(values):
        raise BenchmarkError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(names) - set(values))}, "
            f"extra {sorted(set(values) - set(names))}"
        )
    metrics = {}
    for metric in spec:
        name, unit = metric["name"], metric["unit"]
        value = values[name]
        print(f"  {name:30s} {value:>16.6f} {unit:6s} n={samples.get(name, 1)}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    spec = load_spec(bool(args.trace))
    out = ROOT / ".bench_out" / workload.name
    pkg, inputs, setups, generates = set_up(workload, seed)
    out.mkdir(parents=True, exist_ok=True)

    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = run_passes(workload, pkg, inputs, out, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced = []
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(pkg)
        try:
            traced = run_passes(workload, pkg, inputs, out, seconds, tracer)
        finally:
            tracer.uninstall()
        spans = tracer.write_spans(out / "spans.bin")

    all_passes = untraced + traced
    first = all_passes[0]
    problems = [f"pass {i} wrote different outputs" for i, p in enumerate(all_passes)
                if p.digest != first.digest]
    problems += workload.check(pkg, out)
    attempted = sum(p.attempted for p in all_passes)
    raised = sum(len(p.errors) for p in all_passes)
    failed_ratio = sum(p.failed for p in all_passes) / attempted
    wall = statistics.median(p.wall_s for p in untraced)

    details = {
        "workload": workload.name,
        "seed": seed,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "replays_per_pass": first.attempted,
        "sha256": first.digests,
        "failed_ratio": failed_ratio,
        "outcomes_by_variant": first.by_variant,
    }
    print(f"workload={workload.name} seed={seed} trace={args.trace} "
          f"passes={len(untraced)}+{len(traced)} replays/pass={first.attempted}")
    print("  pass wall_s " + " ".join(f"{p.wall_s:.3f}" for p in all_passes))
    for name, digest in first.digests.items():
        print(f"  sha256 {name} {digest}")
    print(f"  failed_ratio {failed_ratio:.6f} ({sum(p.failed for p in all_passes)} failed of "
          f"{attempted} replays; {raised} raised)")
    for variant, tally in first.by_variant.items():
        print(f"  outcomes {variant:24s} " + " ".join(f"{k}={v}" for k, v in tally.items()))
    for error in sorted(set(e for p in all_passes for e in p.errors))[:10]:
        print(f"  raised: {error}")

    if args.trace:
        # counts are machine-independent: they must repeat exactly
        counters = {k: v for k, v in traced[0].layers.items() if isinstance(v, int)}
        for index, current in enumerate(traced[1:], 1):
            changed = sorted(k for k in counters if current.layers[k] != counters[k])
            if changed:
                problems.append(f"traced pass {index} counted differently: {changed}")
        values = {
            name: counters[name] if name in counters
            else statistics.median(p.layers[name] for p in traced)
            for name in traced[0].layers
        }
        values["experiments.generate.s"] = statistics.median(generates)
        values["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - wall
        values["trace.spans"] = spans
        samples = {name: len(traced) for name in values}
        samples.update({"experiments.generate.s": len(generates), "trace.spans": 1})
        details["counters"] = counters
        details["counters_sha256"] = hashlib.sha256(
            json.dumps(counters, sort_keys=True).encode()
        ).hexdigest()
        print(f"  counters sha256 {details['counters_sha256']}")
    else:
        replay_samples = [s for p in untraced for s in p.samples]
        values = {
            "wall_s": wall,
            "replay_ms.p50": statistics.median(replay_samples) * 1e3,
            "replay_ms.p90": statistics.quantiles(replay_samples, n=10)[8] * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": 1.0 - failed_ratio,
        }
        samples = {
            "wall_s": len(untraced),
            "replay_ms.p50": len(replay_samples),
            "replay_ms.p90": len(replay_samples),
            "setup_s": len(setups),
            "ok_ratio": attempted,
        }
    metrics = emit(spec, values, samples)
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    result = {"correct": not problems, "attempted": attempted, "failed": raised, "metrics": metrics}
    details.update(problems=problems, result=result)
    (out / f"result-trace{args.trace}.json").write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(2)
