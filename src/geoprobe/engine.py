"""The episode loop: decide, execute, extract, project, record, conclude.

One loop per episode, single-writer over its state. Every step appends a
Decision event, then (for probes) Execution, Projection, and — when the
projection had to discard evidence — a Backtrack event. Each event carries
the hash of the post-event state and each tool result the hash of its
payload. Every event derived from the state is built by ``_project``
(Projection, Backtrack) or ``_conclude`` (Finalize, InsufficientEvidence
Error): ``run_episode`` records the events they return, and ``replay``
re-runs them on a trace and requires each recorded event to equal the one
they emit. The events are not hash-chained (ROADMAP open item 2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .actions import Decision, render_action_schema
from .canonical import canonical_hash
from .defaults import DEFAULT_CONTEXT_BUDGET, DEFAULT_MAX_PARALLEL, DEFAULT_MAX_STEPS
from .errors import (
    BackendUnavailableError,
    GeoprobeError,
    HashMismatchError,
    InsufficientEvidenceError,
)
from .executor import AblationConfig, execute_batch, extract_evidence
from .geo import Gazetteer, reverse_geocode
from .planner import PlannerContext, decide_next, describe_scene, summarize_space
from .recorder import (
    EventKind,
    Trace,
    TraceHeader,
    TraceRecorder,
    TrajectoryEvent,
    compress,
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
from .synthworld import SceneDescriptor, SynthWorld, SyntheticToolbox


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
    lowest-id) point wins.
    """
    best_key: tuple[float, int] | None = None
    best: PoiHint | None = None
    space_cover = None if state.space.is_global else state.space.leaf_cover(g)
    for e in state.active_evidence():
        if e.point is None:
            continue
        city = reverse_geocode(g, e.point)
        if city is None:
            continue
        if space_cover is not None and not (g.leaf_cover(city.id) & space_cover):
            continue
        key = (e.confidence, -e.id)
        if best_key is None or key > best_key:
            best_key = key
            best = PoiHint(e.point, city.name)
    return best


#: One event as ``TraceRecorder.record`` takes it: the kind, the state whose
#: hash the event carries, and the payload.
_Event = tuple[EventKind, EpisodeState, dict]


def _project(
    state: EpisodeState, evidence: list[Evidence], g: Gazetteer
) -> tuple[EpisodeState, list[_Event]]:
    """Apply one step's evidence: the new state, its Projection event and,
    when evidence had to be discarded, a Backtrack event."""
    report = apply_evidence_report(state, evidence, g)
    new = report.state
    events = [(EventKind.PROJECTION, new, {
        "evidence": [e.to_json() for e in evidence],
        "space": new.space.to_json(),
        "inactive_ids": sorted(new.inactive_ids),
    })]
    if report.backtracks:
        events.append((EventKind.BACKTRACK, new,
                       {"discards": [b.to_json() for b in report.backtracks]}))
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
            EventKind.ERROR, state, {"error": "InsufficientEvidence", "detail": str(e)})
    return new, prediction, (EventKind.FINALIZE, new, {
        "prediction": prediction.to_json(),
        "poi_hint": hint.to_json() if hint is not None else None,
    })


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
    max_steps: int = DEFAULT_MAX_STEPS,
    max_parallel: int = DEFAULT_MAX_PARALLEL,
    context_budget: int = DEFAULT_CONTEXT_BUDGET,
    ablation: AblationConfig = AblationConfig(),
) -> EpisodeResult:
    """Run one episode to Finalized or Exhausted within ``max_steps``."""
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    schema = render_action_schema()
    scene_text = describe_scene(descriptor, image_ref)
    state = EpisodeState()
    prediction: Prediction | None = None
    next_evidence_id = 1
    next_action_id = 1

    for step_no in range(1, max_steps + 1):
        hint = derive_poi_hint(state, g)
        ctx = PlannerContext(
            image_descriptor=scene_text,
            compressed_history=compress(state, recorder.events, g, budget=context_budget),
            candidate_summary=summarize_space(state.space, g),
            schema_text=schema,
            step=step_no,
            remaining_steps=max_steps - step_no,
            image_ref=image_ref,
            descriptor=descriptor,
            space=state.space,
            gazetteer=g,
            poi_hint=hint,
            active_evidence_ids=tuple(e.id for e in state.active_evidence()),
            events=tuple(recorder.events),
            next_action_id=next_action_id,
            max_parallel=max_parallel,
        )
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

        results = execute_batch(decision.actions, adapters, ablation,
                                max_workers=max_parallel)
        recorder.record(EventKind.EXECUTION, state,
                        {"results": [r.to_json() for r in results]})

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
    **episode,
) -> EpisodeResult:
    """Run one episode under its own trace header and recorder.

    The header ties the trace to the gazetteer, the config and ``image_ref``
    plus ``meta``. Given ``trace_path``, the trace is also written there as
    JSONL. ``episode`` goes to ``run_episode``.
    """
    header = TraceHeader(
        gazetteer_hash=g.content_hash(),
        config_hash=config_hash,
        meta={"image_ref": image_ref, **(meta or {})},
    )
    with TraceRecorder(header, trace_path) as recorder:
        return run_episode(backend, adapters, g, recorder,
                           image_ref=image_ref, **episode)


def run_synthetic_episode(
    world: SynthWorld,
    desc: SceneDescriptor,
    backend,
    *,
    image_ref: str = "scene/0",
    config_hash: str = "synthetic",
    adapters=None,
    **episode,
) -> EpisodeResult:
    """Wire a descriptor into the synthetic toolbox and record one episode.

    ``adapters``, when given, serve the tool calls instead and must resolve
    ``image_ref``. The rest goes to ``record_episode``.
    """
    if adapters is None:
        toolbox = SyntheticToolbox(world)
        toolbox.register(image_ref, desc)
        adapters = toolbox.adapters()
    return record_episode(
        backend, adapters, world.gazetteer,
        image_ref=image_ref, config_hash=config_hash,
        descriptor=desc, tag_table=world.tag_table(), **episode,
    )


@dataclass(frozen=True)
class ReplayReport:
    final_state: EpisodeState
    prediction: Prediction | None
    events_verified: int


def _expect(
    events: tuple[TrajectoryEvent, ...],
    seq: int,
    kind: EventKind,
    state: EpisodeState | None = None,
    payload: dict | None = None,
) -> TrajectoryEvent:
    """The event at ``seq``, which must be a ``kind`` recorded for ``state``
    and with ``payload``, each when given. A Decision's, Execution's or
    BackendUnavailable Error's payload is an input, not derived."""
    if seq >= len(events):
        raise HashMismatchError(seq, f"trace ends where {kind.value} is expected")
    event = events[seq]
    if event.kind is not kind:
        raise HashMismatchError(seq, f"expected {kind.value}, found {event.kind.value}")
    if payload is not None and event.payload != payload:
        raise HashMismatchError(seq, f"recorded {kind.value} diverges from the recomputed one")
    if state is not None and (event.step != state.step
                              or event.state_hash != state.snapshot_hash()):
        raise HashMismatchError(seq, "state hash mismatch")
    return event


def replay(trace: Trace, g: Gazetteer) -> ReplayReport:
    """Re-run the episode's transitions on the trace and verify every event.

    A step opens with a Decision, or with the BackendUnavailable Error of a
    backend that could not decide. A probe Decision is followed by the
    Execution answering exactly its actions, then by what ``_project`` emits
    for the recorded evidence; a finalize Decision by what ``_conclude``
    emits for the POI hint derived from the replayed state. The step budget
    makes the last step conclude, so a trace ends with its episode, at a
    Finalize or an Error. Decision ``thought`` and ``args``, result fields
    other than the tool and the payload and its hash, and the evidence
    itself are accepted as recorded (ROADMAP open item 2). A gazetteer
    mismatch is reported as seq -1.
    """
    if g.content_hash() != trace.header.gazetteer_hash:
        raise HashMismatchError(-1, "gazetteer hash does not match trace header")

    events = trace.events
    state = EpisodeState()
    prediction: Prediction | None = None
    seq = 0
    try:
        while state.status is EpisodeStatus.RUNNING:
            if seq < len(events) and events[seq].kind is EventKind.ERROR:
                error = _expect(events, seq, EventKind.ERROR, state)
                if error.payload["error"] != "BackendUnavailable":
                    raise HashMismatchError(seq, "only a BackendUnavailable Error may open a step")
                state = replace(state, status=EpisodeStatus.EXHAUSTED)
                seq += 1
                continue

            decision = _expect(events, seq, EventKind.DECISION, state).payload["decision"]
            seq += 1
            if decision["finalize"] is True:
                state, prediction, event = _conclude(state, g, derive_poi_hint(state, g))
                _expect(events, seq, *event)
                seq += 1
                continue

            results = _expect(events, seq, EventKind.EXECUTION, state).payload["results"]
            for res in results:
                if canonical_hash(res["payload"]) != res["payload_sha256"]:
                    raise HashMismatchError(
                        seq, f"result payload hash mismatch for action {res['action_id']}")
            if (sorted((r["action_id"], r["tool"]) for r in results)
                    != sorted((a["id"], a["tool"]) for a in decision["actions"])):
                raise HashMismatchError(seq, "results do not answer the decided actions")
            seq += 1

            recorded = _expect(events, seq, EventKind.PROJECTION).payload["evidence"]
            state, step_events = _project(state, [Evidence.from_json(e) for e in recorded], g)
            for event in step_events:
                _expect(events, seq, *event)
                seq += 1
    except HashMismatchError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError,
            GeoprobeError) as exc:
        raise HashMismatchError(
            seq, f"malformed event payload ({type(exc).__name__}: {exc})"
        ) from None

    if seq < len(events):
        raise HashMismatchError(seq, "event after the episode ended")
    return ReplayReport(state, prediction, len(events))
