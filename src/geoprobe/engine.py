"""The episode loop: decide, execute, extract, project, record, conclude.

One loop per episode, single-writer over its state. Every step appends a
Decision event, then (for probes) Execution, Projection, and — when the
projection had to discard evidence — a Backtrack event. Each event carries
the hash of the post-event state and each tool result the hash of its
payload. Every event derived from the state is built by ``_project``
(Projection, Backtrack) or ``_conclude`` (Finalize, InsufficientEvidence
Error). ``replay`` is the same loop fed from a trace: it runs
``run_episode`` on the recorded decisions and tool results and requires it
to record exactly the trace's events. The events are not hash-chained
(ROADMAP open item 3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .actions import Action, Decision, Tool, parse_decision
from .canonical import canonical_compose, canonical_json, json_get
from .errors import (
    BackendUnavailableError,
    ConfigError,
    GeoprobeError,
    HashMismatchError,
    InsufficientEvidenceError,
)
from .executor import EpisodeSettings, ToolResult, ToolStatus, execute_batch, extract_evidence
from .geo import Gazetteer, reverse_geocode
from .planner import PlannerContext, decide_next
from .recorder import (
    EventKind,
    Trace,
    TraceHeader,
    TraceRecorder,
    TrajectoryEvent,
    compress,  # not called here: kept because perfbench/tracing.py patches engine.compress
)
from .state import (
    EpisodeState,
    EpisodeStatus,
    Evidence,
    PoiHint,
    Prediction,
    apply_evidence_report,
    finalize,
)
from .synthworld import SceneDescriptor


@dataclass(frozen=True)
class EpisodeResult:
    state: EpisodeState
    prediction: Prediction | None
    trace: Trace

    @property
    def finalized(self) -> bool:
        return self.state.status is EpisodeStatus.FINALIZED


def derive_poi_hint(state: EpisodeState, g: Gazetteer) -> PoiHint | None:
    """Best exact-point candidate among active evidence.

    An evidence point qualifies when it reverse-geocodes to a city that is
    still compatible with the frontier; the highest-confidence (then
    lowest-id) point wins. The frontier's leaf cover is built only once
    such a city needs it.
    """
    best_key: tuple[float, int] | None = None
    best: PoiHint | None = None
    space_cover = None
    for e in state.active_evidence():
        if e.point is None:
            continue
        city = reverse_geocode(g, e.point)
        if city is None:
            continue
        if not state.space.is_global:
            if space_cover is None:
                space_cover = state.space.leaf_cover(g)
            if not (g.leaf_cover(city.id) & space_cover):
                continue
        key = (e.confidence, -e.id)
        if best_key is None or key > best_key:
            best_key = key
            best = PoiHint(e.point, city.name)
    return best


#: One event as ``TraceRecorder.record`` takes it: the kind, the state whose
#: hash the event carries, the payload and, where the payload is composed
#: from parts already encoded, the function that composes its canonical JSON
#: (else ``None``).
_Event = tuple[EventKind, EpisodeState, dict, Callable[[], str] | None]


def _project(
    state: EpisodeState, evidence: list[Evidence], g: Gazetteer
) -> tuple[EpisodeState, list[_Event]]:
    """Apply one step's evidence: the new state, its Projection event and,
    when evidence had to be discarded, a Backtrack event. The Projection's
    JSON, composed only for a recorder that writes it, reuses each
    evidence's and the space's cached encoding, which the new state's hash
    reads too."""
    report = apply_evidence_report(state, evidence, g)
    new = report.state
    inactive_ids = sorted(new.inactive_ids)
    events: list[_Event] = [(EventKind.PROJECTION, new, {
        "evidence": [e.to_json() for e in evidence],
        "space": new.space.to_json(),
        "inactive_ids": inactive_ids,
    }, lambda: canonical_compose({"evidence": [e.canonical for e in evidence],
                                  "space": new.space.canonical,
                                  "inactive_ids": inactive_ids}))]
    if report.backtracks:
        events.append((EventKind.BACKTRACK, new,
                       {"discards": [b.to_json() for b in report.backtracks]}, None))
    return new, events


def _conclude(
    state: EpisodeState, g: Gazetteer, hint: PoiHint | None
) -> tuple[EpisodeState, Prediction | None, _Event]:
    """Finalize on ``hint``: the new state, the prediction and the event.

    A space too wide to finalize ends the episode Exhausted, with no
    prediction and an InsufficientEvidence Error recorded against the
    unchanged state.
    """
    try:
        new, prediction = finalize(state, g, poi_hint=hint)
    except InsufficientEvidenceError as e:
        return replace(state, status=EpisodeStatus.EXHAUSTED), None, (
            EventKind.ERROR, state, {"error": "InsufficientEvidence", "detail": str(e)}, None)
    return new, prediction, (EventKind.FINALIZE, new, {
        "prediction": prediction.to_json(),
        "poi_hint": hint.to_json() if hint is not None else None,
    }, None)


def _with_wire(backend, payload: dict) -> dict:
    """``payload`` plus the backend's undrained wire entries as ``llm_wire``."""
    wire = backend.drain_wire_log() if hasattr(backend, "drain_wire_log") else None
    return {**payload, "llm_wire": wire} if wire else payload


def run_episode(
    backend,
    adapters,
    g: Gazetteer,
    recorder: TraceRecorder,
    *,
    image_ref: str = "scene/0",
    descriptor: SceneDescriptor | None = None,
    tag_table=None,
    settings: EpisodeSettings = EpisodeSettings(),
) -> EpisodeResult:
    """Run one episode to Finalized or Exhausted within ``settings.max_steps``.

    Each step hands the backend a ``PlannerContext`` of the state, the
    events recorded so far and the settings; only a backend that sends a
    prompt renders one from it (``planner.build_prompt``).
    """
    state = EpisodeState()
    prediction: Prediction | None = None
    next_evidence_id = 1
    next_action_id = 1

    for _ in range(settings.max_steps):
        hint = derive_poi_hint(state, g)
        ctx = PlannerContext(state, tuple(recorder.events), g, settings, image_ref,
                             descriptor=descriptor, poi_hint=hint, next_action_id=next_action_id)
        try:
            decision = decide_next(backend, ctx)
        except BackendUnavailableError as e:
            if not state.space.is_global and not state.space.is_empty:
                decision = Decision(
                    thought=f"backend unavailable ({e}); concluding from gathered evidence",
                    finalize=True,
                )
            else:
                recorder.record(EventKind.ERROR, state, _with_wire(
                    backend, {"error": "BackendUnavailable", "detail": str(e)}))
                state = replace(state, status=EpisodeStatus.EXHAUSTED)
                break

        recorder.record(EventKind.DECISION, state,
                        _with_wire(backend, {"decision": decision.to_json()}))

        if decision.finalize:
            state, prediction, event = _conclude(state, g, hint)
            recorder.record(*event)
            break

        results = execute_batch(decision.actions, adapters, settings.ablation,
                                max_workers=settings.max_parallel)
        recorder.record(EventKind.EXECUTION, state,
                        {"results": [r.to_json() for r in results]},
                        lambda: canonical_compose({"results": [r.canonical for r in results]}))

        evidence = []
        for result in results:
            evs = extract_evidence(result, g, tag_table=tag_table,
                                   start_id=next_evidence_id)
            next_evidence_id += len(evs)
            evidence.extend(evs)
        next_action_id = max(
            next_action_id, max((a.id for a in decision.actions), default=0) + 1
        )

        state, events = _project(state, evidence, g)
        for event in events:
            recorder.record(*event)

    return EpisodeResult(state=state, prediction=prediction, trace=recorder.trace())


def record_episode(
    backend,
    adapters,
    g: Gazetteer,
    *,
    image_ref: str,
    config_hash: str,
    trace_path: str | None = None,
    meta: dict | None = None,
    settings: EpisodeSettings = EpisodeSettings(),
    **episode,
) -> EpisodeResult:
    """Run one episode under its own trace header and recorder.

    The header ties the trace to the gazetteer, the config, the episode
    ``settings`` and ``image_ref`` plus ``meta``. Given ``trace_path``, the
    trace is also written there as JSONL. ``settings`` and ``episode``
    (the planner's ``descriptor``, the ``tag_table``) go to ``run_episode``.
    """
    header = TraceHeader(
        gazetteer_hash=g.content_hash(),
        config_hash=config_hash,
        meta={"image_ref": image_ref, **(meta or {})},
        episode=settings.to_json(),
    )
    with TraceRecorder(header, trace_path) as recorder:
        return run_episode(backend, adapters, g, recorder,
                           image_ref=image_ref, settings=settings, **episode)


@dataclass(frozen=True)
class ReplayReport:
    final_state: EpisodeState
    prediction: Prediction | None
    events_verified: int


class TraceBackend:
    """A trace's recorded inputs, fed back to ``run_episode``: as its backend,
    the Decision recorded at the seq being decided, parsed again (where none
    is, an unavailable backend); as every tool's adapter, the result the next
    event records for the action's id, rebuilt with the action's id and tool."""

    def __init__(self, events: tuple[TrajectoryEvent, ...]):
        self._events = events
        self._seq = 0
        self._wire = None

    def decide(self, ctx: PlannerContext) -> Decision:
        self._seq = len(ctx.events)
        payload = self._events[self._seq].payload if self._seq < len(self._events) else {}
        self._wire = payload.get("llm_wire")
        if "decision" not in payload:
            raise BackendUnavailableError(payload.get("detail"))
        return parse_decision(canonical_json(payload["decision"]), start_id=ctx.next_action_id,
                              max_parallel=ctx.settings.max_parallel)

    def drain_wire_log(self):
        wire, self._wire = self._wire, None
        return wire

    def execute(self, action: Action) -> ToolResult:
        results = json_get(self._events[self._seq + 1].payload, "results", list)
        r = {json_get(r, "action_id", int): r for r in results}[action.id]
        return ToolResult(action.id, action.tool, ToolStatus(json_get(r, "status", str)),
                          json_get(r, "payload", (dict, None)), json_get(r, "error", (str, None)),
                          json_get(r, "detail", (str, None)), json_get(r, "latency_ms", float))


#: What recorded inputs that no run could have produced make the run raise.
_UNREPLAYABLE = (GeoprobeError, LookupError, TypeError, ValueError)


def _compared(event: TrajectoryEvent) -> str:
    """Kind, step, payload and state hash as JSON, where ``true`` and ``1``
    differ. A NaN or an infinity, which no trace line holds, raises
    ``ValueError``."""
    return canonical_json([event.kind.value, event.step, event.payload, event.state_hash])


def replay(trace: Trace, g: Gazetteer, tag_table=None) -> ReplayReport:
    """Run the episode again on the trace's inputs and require it to record
    the trace's events, ``wall_time`` aside.

    ``run_episode`` runs under the header's episode settings (the defaults
    if it has none), fed by a ``TraceBackend`` and extracting evidence with
    the run's ``tag_table``, so all but the inputs is derived again (ROADMAP
    open item 3). The first seq that differs is named: for a trace that ends
    early its first missing seq, for an input that cannot be replayed the
    seq being recorded, for the gazetteer or the settings -1.
    """
    if g.content_hash() != trace.header.gazetteer_hash:
        raise HashMismatchError(-1, "gazetteer hash does not match trace header")
    try:
        settings = EpisodeSettings.from_json(
            {} if trace.header.episode is None else trace.header.episode)
    except ConfigError as exc:
        raise HashMismatchError(-1, f"bad episode settings: {exc}") from None

    recorded = trace.events
    backend = TraceBackend(recorded)
    recorder = TraceRecorder(trace.header)
    failure = None
    try:
        result = run_episode(backend, dict.fromkeys(Tool, backend), g, recorder,
                             tag_table=tag_table, settings=settings)
    except _UNREPLAYABLE as exc:
        failure = exc

    emitted = recorder.events
    for seq, (mine, theirs) in enumerate(zip(emitted, recorded)):
        try:
            same = _compared(mine) == _compared(theirs)
        except ValueError:
            same = False
        if not same:
            raise HashMismatchError(
                seq, f"recorded {theirs.kind.value} diverges from the replayed one")
    if len(emitted) > len(recorded):
        raise HashMismatchError(len(recorded), "trace ends before the episode does")
    if failure is not None:
        raise HashMismatchError(len(emitted), f"recorded input cannot be replayed "
                                              f"({type(failure).__name__}: {failure})")
    if len(emitted) < len(recorded):
        raise HashMismatchError(len(emitted), "event after the episode ended")
    return ReplayReport(result.state, result.prediction, len(recorded))
