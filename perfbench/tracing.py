"""In-memory span tracer wrapped around geoprobe's public functions.

Spans are recorded from outside the package: each traced function is
replaced, where its caller looks it up, by a wrapper that times the call.
Every workload runs its episodes on the calling thread (one worker), so one
span stack serves the whole run. A span's self time is its duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from geoprobe import bench, engine, executor, geo, live_tools, recorder, state, synthworld

#: Spans whose thread CPU time is also taken, to split wall time into busy
#: time and waiting (file writes, network and server time).
BUSY_SPANS = ("engine.run_episode", "live_tools.live_adapter_request")

COUNTERS = (
    "recorder.events",
    "executor.tool_calls",
    "executor.tool_failures",
    "executor.evidence_items",
    "state.backtracks",
)


def _count_batch(counters: dict, args, result) -> None:
    counters["executor.tool_calls"] += len(result)
    counters["executor.tool_failures"] += sum(1 for r in result if not r.ok)


def _count_evidence(counters: dict, args, result) -> None:
    counters["executor.evidence_items"] += len(result)


def _count_backtracks(counters: dict, args, result) -> None:
    counters["state.backtracks"] += len(result.backtracks)


def _count_recorded(counters: dict, args, result) -> None:
    counters["recorder.events"] += 1


#: (owner, attribute, span name, counter callback). Each function is patched
#: in the namespace its caller reads it from: engine imports its helpers by
#: name, methods are patched on their class.
PATCHES: tuple[tuple[object, str, str, Callable | None], ...] = (
    (engine, "run_episode", "engine.run_episode", None),
    (engine, "decide_next", "planner.decide_next", None),
    (engine, "compress", "recorder.compress", None),
    (recorder.TraceRecorder, "record", "recorder.TraceRecorder.record", _count_recorded),
    (engine, "apply_evidence_report", "state.apply_evidence_report", _count_backtracks),
    (engine, "finalize", "state.finalize", None),
    (engine, "reverse_geocode", "geo.reverse_geocode", None),
    (bench, "reverse_geocode", "geo.reverse_geocode", None),
    (state, "reverse_geocode", "geo.reverse_geocode", None),
    (bench, "compute_report", "bench.compute_report", None),
    (engine, "derive_poi_hint", "engine.derive_poi_hint", None),
    (geo.Gazetteer, "content_hash", "geo.Gazetteer.content_hash", None),
    (synthworld.SynthWorld, "tag_table", "synthworld.SynthWorld.tag_table", None),
    (synthworld, "match_candidates", "synthworld.match_candidates", None),
    (executor, "find_region_names", "executor.find_region_names", None),
    (engine, "extract_evidence", "executor.extract_evidence", _count_evidence),
    (engine, "execute_batch", "executor.execute_batch", _count_batch),
    (live_tools, "live_adapter_request", "live_tools.live_adapter_request", None),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for _, _, name, _ in PATCHES))


@dataclass
class SpanTotals:
    calls: int = 0
    self_s: float = 0.0
    wall_s: float = 0.0
    busy_s: float = 0.0


class Tracer:
    """Installs the span wrappers for the duration of a ``with`` block."""

    def __init__(self):
        self._stack: list[list] = []  # [span index, child duration] per open span
        self._spans: list[tuple] = []
        self._counters = dict.fromkeys(COUNTERS, 0)
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        stack, spans, counters = self._stack, self._spans, self._counters
        busy = name in BUSY_SPANS
        perf_counter = time.perf_counter
        thread_time = time.thread_time

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            c0 = thread_time() if busy else 0.0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                c1 = thread_time() if busy else 0.0
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                spans[index] = (name, parent, t0, t1, duration - frame[1], c1 - c0)
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name, count in PATCHES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, SpanTotals]:
        out = {name: SpanTotals() for name in SPAN_NAMES}
        for name, _, t0, t1, self_s, busy_s in self._spans:
            agg = out[name]
            agg.calls += 1
            agg.self_s += self_s
            agg.wall_s += t1 - t0
            agg.busy_s += busy_s
        return out

    def counters(self) -> dict[str, int]:
        return dict(self._counters)

    def write_spans(self, path) -> int:
        """Write every span as one tab-separated line; returns the count.

        Columns: span index, parent index (-1 for a root), name, start and
        end (``perf_counter`` seconds), self seconds, busy seconds.
        """
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, parent, t0, t1, self_s, busy_s) in enumerate(self._spans):
                fh.write(f"{index}\t{parent}\t{name}\t"
                         f"{t0:.9f}\t{t1:.9f}\t{self_s:.9f}\t{busy_s:.9f}\n")
        return len(self._spans)
