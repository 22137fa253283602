"""Spans and counters around the package's layer boundaries.

The tracer wraps, from outside the package, the public functions and
methods that the package modules call into each other through. Each call
becomes a span (name, start, end, parent). Self time is the span's duration
minus the time its wrapped children took, and is accumulated online per
name; the spans themselves are kept in compact arrays and written out when
the benchmark ends.

Functions imported by name (``from .semantics import run_continual``) are
patched in the importing module, because that is the binding the caller
looks up; functions reached as ``module.function`` are patched on their own
module, which also catches the module's internal calls through its globals.
A boundary the package no longer has is skipped and its metrics read 0, so
refactoring the package does not break the traced run.
"""

from __future__ import annotations

import inspect
import json
import math
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns


def _public_functions(module, prefix: str = "") -> list[str]:
    """Names of the public functions defined in ``module``."""
    return [
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_") and name.startswith(prefix)
    ]


# Words are counted where they are converted: every other codec function
# reaches the per-word functions through the module globals, so counting
# there counts each word once. Text bodies are converted as raw bytes.
def _count_word_encoded(counters, args, result):
    counters["wordcodec.words_encoded"] += 1


def _count_word_decoded(counters, args, result):
    counters["wordcodec.words_decoded"] += 1


def _count_text_encoded(counters, args, result):
    counters["wordcodec.words_encoded"] += len(result) // 32 - 1


def _count_text_decoded(counters, args, text):
    counters["wordcodec.words_decoded"] += math.ceil(len(text.encode("utf-8")) / 32)


CODEC_COUNTERS = {
    "encode_word": _count_word_encoded,
    "decode_word": _count_word_decoded,
    "encode_text": _count_text_encoded,
    "decode_text": _count_text_decoded,
}


def _count_trace_states(counters, args, trace):
    counters["scenario.trace_states"] += len(trace)


def _count_slice_entries(counters, args, window):
    counters["oracles.slice_entries"] += len(window)


def _count_satisfied_visited(counters, args, found):
    counters["oracles.satisfied_visited"] += found[1]


def _count_receipts(counters, args, receipts):
    counters["ledger.txs"] += len(receipts)
    for receipt in receipts:
        counters[f"ledger.tx.{receipt.tx.function}"] += 1
        counters["ledger.gas_total"] += receipt.gas_used
        counters["ledger.calldata_bytes"] += len(receipt.tx.payload)
        if receipt.status != "ok":
            counters["ledger.reverted"] += 1


class Tracer:
    """Records spans and per-name call counts, total and self time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # per name: [calls, total ns of outermost calls, self ns, open calls]
        self.stats: dict[str, list[int]] = {}
        self.counters: dict[str, int] = defaultdict(int)
        # per open span: [span index, time covered by children]
        self._stack: list[list[int]] = []
        self.recording = True
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Start a new pass: clear the aggregates, keep the recorded spans."""
        for stat in self.stats.values():
            stat[:] = [0, 0, 0, 0]
        self.counters.clear()

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until ``uninstall``."""
        namespace = owner.__dict__ if isinstance(owner, type) else vars(owner)
        if attr not in namespace:
            return
        original = namespace[attr]
        fn = original.__func__ if isinstance(original, classmethod) else original
        if name not in self.stats:
            self.stats[name] = [0, 0, 0, 0]
            self.names.append(name)
        stat = self.stats[name]
        name_id = self.names.index(name)
        stack, counters = self._stack, self.counters
        span_name, span_start, span_end, span_parent = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )

        def traced(*args, **kwargs):
            index = -1
            if self.recording:
                index = len(span_name)
                span_name.append(name_id)
                span_parent.append(stack[-1][0] if stack else -1)
                span_start.append(0)
                span_end.append(0)
            frame = [index, 0]
            stack.append(frame)
            stat[3] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[2] += duration - frame[1]
                stat[3] -= 1
                if not stat[3]:
                    stat[1] += duration
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    span_start[index] = start
                    span_end[index] = end
            if on_result is not None:
                on_result(counters, args, result)
            return result

        traced.__wrapped__ = fn
        replacement = classmethod(traced) if isinstance(original, classmethod) else traced
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def install(self, pkg) -> None:
        """Wrap the layer boundaries of the package modules in ``pkg``."""
        sc, orc, ch = pkg.scenario, pkg.oracles, pkg.choice
        self.wrap(sc, "run", "scenario.run")
        self.wrap(sc.Scenario, "validate", "scenario.validate")
        self.wrap(sc.Scenario, "from_json", "scenario.from_json")
        self.wrap(sc, "ground_truth_winner", "scenario.ground_truth")
        self.wrap(sc, "induced_trace", "scenario.induced_trace", _count_trace_states)
        self.wrap(sc, "run_continual", "semantics.run_continual")
        for function in ("parse", "evaluate", "render"):
            self.wrap(pkg.expr, function, f"expr.{function}")
        self.wrap(pkg.ledger.Chain, "step", "ledger.step", _count_receipts)
        for function in _public_functions(pkg.wordcodec):
            self.wrap(pkg.wordcodec, function, f"wordcodec.{function}", CODEC_COUNTERS.get(function))
        self.wrap(orc.OracleProvider, "on_external_update", "oracles.update")
        self.wrap(orc.OracleProvider, "after_block", "oracles.after_block")
        self.wrap(orc.OracleProvider, "respond", "oracles.respond")
        self.wrap(orc.SyncOracle, "query", "oracles.query")
        self.wrap(orc.SyncOracle, "set", "oracles.set")
        self.wrap(orc, "history_slice", "oracles.history_slice", _count_slice_entries)
        self.wrap(orc, "earliest_satisfied", "oracles.earliest_satisfied", _count_satisfied_visited)
        self.wrap(ch, "slice_first_satisfied", "oracles.slice_first_satisfied")
        self.wrap(ch.DeferredChoiceContract, "handle", "choice.handle")
        for writer in _public_functions(pkg.experiments, "write_"):
            self.wrap(pkg.experiments, writer, f"experiments.{writer}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_metrics(self) -> dict[str, float]:
        """The pass's per-layer metrics, named as in ``BENCHMARK.json``."""
        counters = self.counters
        calls = defaultdict(int, {name: stat[0] for name, stat in self.stats.items()})
        total = defaultdict(int, {name: stat[1] for name, stat in self.stats.items()})
        self_ns = defaultdict(int, {name: stat[2] for name, stat in self.stats.items()})

        def s(ns: int) -> float:
            return ns / 1e9

        codec = [name for name in self.stats if name.startswith("wordcodec.")]
        writers = [name for name in self.stats if name.startswith("experiments.write_")]
        metrics = {
            "scenario.run.calls": calls["scenario.run"],
            "scenario.run.self_s": s(self_ns["scenario.run"]),
            "scenario.validate.calls": calls["scenario.validate"],
            "scenario.validate.s": s(total["scenario.validate"]),
            "scenario.from_json.s": s(total["scenario.from_json"]),
            "scenario.ground_truth.calls": calls["scenario.ground_truth"],
            "scenario.ground_truth.s": s(total["scenario.ground_truth"]),
            "scenario.trace_states": counters["scenario.trace_states"],
            "semantics.run_continual.calls": calls["semantics.run_continual"],
            "semantics.run_continual.s": s(total["semantics.run_continual"]),
            "expr.parse.calls": calls["expr.parse"],
            "expr.parse.s": s(total["expr.parse"]),
            "expr.evaluate.calls": calls["expr.evaluate"],
            "expr.evaluate.s": s(total["expr.evaluate"]),
            "expr.render.calls": calls["expr.render"],
            "ledger.blocks": calls["ledger.step"],
            "ledger.step.self_s": s(self_ns["ledger.step"]),
            "ledger.txs": counters["ledger.txs"],
            "ledger.reverted": counters["ledger.reverted"],
        }
        for function in ("set", "activate", "try_trigger", "oracle_callback", "push"):
            metrics[f"ledger.tx.{function}"] = counters[f"ledger.tx.{function}"]
        metrics.update({
            "ledger.gas_total": counters["ledger.gas_total"],
            "ledger.calldata_bytes": counters["ledger.calldata_bytes"],
            "wordcodec.calls": sum(calls[n] for n in codec),
            "wordcodec.self_s": s(sum(self_ns[n] for n in codec)),
            "wordcodec.words_encoded": counters["wordcodec.words_encoded"],
            "wordcodec.words_decoded": counters["wordcodec.words_decoded"],
            "oracles.update.calls": calls["oracles.update"],
            "oracles.update.self_s": s(self_ns["oracles.update"]),
            "oracles.after_block.self_s": s(self_ns["oracles.after_block"]),
            "oracles.respond.calls": calls["oracles.respond"],
            "oracles.query.calls": calls["oracles.query"],
            "oracles.query.self_s": s(self_ns["oracles.query"]),
            "oracles.slice_entries": counters["oracles.slice_entries"],
            "oracles.satisfied_visited": counters["oracles.satisfied_visited"],
            "choice.handle.calls": calls["choice.handle"],
            "choice.handle.self_s": s(self_ns["choice.handle"]),
            "experiments.write.s": s(sum(total[n] for n in writers)),
        })
        return metrics

    def write_spans(self, path: Path) -> int:
        """Write the recorded spans: a JSON header, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "arrays": [
                {"field": "name", "typecode": "H"},
                {"field": "start_ns", "typecode": "q"},
                {"field": "end_ns", "typecode": "q"},
                {"field": "parent", "typecode": "i"},
            ],
            "note": "parent is a span index, -1 for a root; arrays follow in native byte order",
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_start, self.span_end, self.span_parent):
                column.tofile(handle)
        return len(self.span_name)
