"""The episode loop: decide, execute, extract, project, record, conclude.

One loop per episode, single-writer over its state. Every step appends a
Decision event, then (for probes) Execution, Projection, and — when the
projection had to discard evidence — a Backtrack event. Each event carries
the hash of the post-event state and each tool result the hash of its
payload, so replay can recompute projection, backtracking and finalize
offline. The events themselves are not hash-chained (ROADMAP open item 2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .actions import Decision, render_action_schema
from .defaults import DEFAULT_CONTEXT_BUDGET, DEFAULT_MAX_PARALLEL, DEFAULT_MAX_STEPS
from .errors import BackendUnavailableError, InsufficientEvidenceError
from .executor import AblationConfig, execute_batch, extract_evidence
from .geo import Gazetteer, reverse_geocode
from .planner import PlannerContext, decide_next, describe_scene, summarize_space
from .recorder import (
    EventKind,
    Trace,
    TraceHeader,
    TraceRecorder,
    compress,
)
from .state import (
    EpisodeState,
    EpisodeStatus,
    PoiHint,
    Prediction,
    apply_evidence_report,
    finalize,
)
from .synthworld import SceneDescriptor, SynthWorld, synthetic_adapters


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
                recorder.record(EventKind.ERROR, state,
                                {"error": "BackendUnavailable", "detail": str(e)})
                state = replace(state, status=EpisodeStatus.EXHAUSTED)
                break

        payload = {"decision": decision.to_json()}
        drain = getattr(backend, "drain_wire_log", None)
        if drain is not None:
            wire = drain()
            if wire:
                payload["llm_wire"] = wire
        recorder.record(EventKind.DECISION, state, payload)

        if decision.finalize:
            try:
                state, prediction = finalize(state, g, poi_hint=hint)
            except InsufficientEvidenceError as e:
                recorder.record(EventKind.ERROR, state,
                                {"error": "InsufficientEvidence", "detail": str(e)})
                state = replace(state, status=EpisodeStatus.EXHAUSTED)
                break
            recorder.record(EventKind.FINALIZE, state, {
                "prediction": prediction.to_json(),
                "poi_hint": hint.to_json() if hint is not None else None,
            })
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

        report = apply_evidence_report(state, evidence, g)
        state = report.state
        recorder.record(EventKind.PROJECTION, state, {
            "evidence": [e.to_json() for e in evidence],
            "space": state.space.to_json(),
            "inactive_ids": sorted(state.inactive_ids),
        })
        if report.backtracks:
            recorder.record(EventKind.BACKTRACK, state,
                            {"discards": [b.to_json() for b in report.backtracks]})

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
        toolbox = synthetic_adapters(world)
        toolbox.register(image_ref, desc)
        adapters = toolbox.adapters()
    return record_episode(
        backend, adapters, world.gazetteer,
        image_ref=image_ref, config_hash=config_hash,
        descriptor=desc, tag_table=world.tag_table(), **episode,
    )
