"""Decision policies: a deterministic scripted policy and a live LLM backend.

Both backend families answer one question — given the current context, what
is the next decision? — and both emit the same strict envelope, so the
episode loop treats them identically. The scripted backend is one pure
function of the structured scene descriptor and the episode; the LLM backend
speaks a chat-completions wire format with bounded parse retries and a
deterministic fallback.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from .actions import (
    Action,
    ActionIssue,
    CapabilityModule,
    Decision,
    Tool,
    parse_decision,
    render_action_schema,
    validate_action,
)
from .canonical import parse_json
from .errors import BackendUnavailableError, DecisionParseError, TransportError
from .executor import EpisodeSettings
from .geo import Gazetteer
from .live_tools import (
    DEFAULT_BACKOFF_S,
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT_S,
    HttpTransport,
    _encode_json,
    auth_headers,
    post_with_retries,
)
from .recorder import TrajectoryEvent, compress, frontier_unchanged_steps, is_repetition
from .state import CandidateSpace, EpisodeState, PoiHint
from .synthworld import ClueKind, SceneDescriptor

#: Prompt size beyond the compressed history stays under this many chars
#: (role text, schema, scene and candidate sections are all bounded).
PROMPT_OVERHEAD_BUDGET = 3500

_MACRO_CLUES = (ClueKind.VEGETATION, ClueKind.TERRAIN, ClueKind.VEHICLE)
_MICRO_CLUES = (ClueKind.SIGN_TEXT, ClueKind.POI)

_CANDIDATE_ROW_CAP = 40


@dataclass(frozen=True)
class PlannerContext:
    """Everything a backend may look at when deciding the next step: the
    episode so far (its ``state`` and recorded ``events``), the gazetteer,
    the ``settings`` it runs under and the image it is asked about.

    Nothing here is rendered text. A backend that sends a prompt renders it
    with ``build_prompt``; the scripted policy reads the structures.
    """

    state: EpisodeState
    events: tuple[TrajectoryEvent, ...]
    gazetteer: Gazetteer
    settings: EpisodeSettings
    image_ref: str
    descriptor: SceneDescriptor | None = None
    poi_hint: PoiHint | None = None
    next_action_id: int = 1
    feedback: str | None = None

    def __post_init__(self):
        if self.remaining_steps < 0:
            raise ValueError("remaining_steps must be non-negative")

    @property
    def step(self) -> int:
        """The step being decided; every probe step applies evidence once."""
        return self.state.step + 1

    @property
    def remaining_steps(self) -> int:
        return self.settings.max_steps - self.step


def describe_scene(desc: SceneDescriptor | None, media_ref: str = "") -> str:
    """Deterministic clue-only scene text; never exposes ground truth."""
    if desc is None:
        return f"An image (ref {media_ref!r}). No pre-extracted clues."
    lines = ["Observed clues:"]
    for clue in desc.clues:
        lines.append(f"- {clue.kind.value}: {clue.value!r} (salience {clue.salience:.2f})")
    return "\n".join(lines)


def summarize_space(space: CandidateSpace, g: Gazetteer) -> str:
    """Human-readable frontier listing, capped to a bounded row count."""
    if space.is_global:
        return "(global: no constraints applied yet)"
    rows = []
    for rid in sorted(space.frontier):
        r = g.get(rid)
        rows.append(f"- {rid} ({r.level.value}) {r.name}")
    if len(rows) > _CANDIDATE_ROW_CAP:
        hidden = len(rows) - _CANDIDATE_ROW_CAP
        rows = rows[:_CANDIDATE_ROW_CAP] + [f"- (+{hidden} more)"]
    return "\n".join(rows)


#: The planning prompt around its rendered sections.
PROMPT_TEMPLATE = (
    "You are a geolocation agent. Work out where the scene is by probing "
    "with tools and narrowing a candidate set of administrative regions.\n"
    "\n"
    "Strategy: reason from macro environment (vegetation, terrain, climate) "
    "through meso context (architecture, infrastructure) down to micro "
    "symbols (signs, storefronts, landmark names). When a salient micro "
    "clue is already visible, skip the coarser levels and chase it "
    "directly.\n"
    "\n"
    "Grounding rules: every claim must come from tool evidence gathered "
    "in this episode. A finalize decision must rest on the evidence ids "
    "listed in the working state below; if the candidates do not support "
    "a conclusion, probe further instead of guessing.\n"
    "\n"
    "Decision envelope: v1. {schema}\n"
    "## Scene\n{scene}\n\n"
    "## Working state\n{history}\n\n"
    "## Candidate regions\n{candidates}\n\n"
    "## Budget\nThis is step {step}; {remaining} more "
    "decision(s) remain after this one. Reply with one decision envelope "
    "now.\n"
)


def build_prompt(ctx: PlannerContext) -> str:
    """Deterministic planning prompt; golden-file stable.

    The only place a prompt's sections are rendered: the action schema, the
    scene, the episode history compressed to ``settings.context_budget``
    characters (``BudgetTooSmallError`` when even its floor does not fit)
    and the candidate regions.
    """
    history = compress(ctx.state, ctx.events, ctx.gazetteer,
                       budget=ctx.settings.context_budget)
    return PROMPT_TEMPLATE.format(
        schema=render_action_schema(),
        scene=describe_scene(ctx.descriptor, ctx.image_ref),
        history=history.render(),
        candidates=summarize_space(ctx.state.space, ctx.gazetteer),
        step=ctx.step,
        remaining=ctx.remaining_steps,
    )


# ---------------------------------------------------------------------------
# Scripted backend


class ScriptedBackend:
    """Pure, deterministic policy over the scene descriptor's clues.

    ``decide`` reads in the policy's order: conclude when a POI hint or a
    single-city frontier exists; break a stalled mid-level frontier with
    visual matching; otherwise take the next untried probe of the most
    salient clue family — micro symbols, then architecture, then
    environment. Once every chain is exhausted, visual matching is the last
    probe; after that the policy concludes on whatever frontier remains.
    """

    def decide(self, ctx: PlannerContext) -> Decision:
        if ctx.poi_hint is not None:
            return _finalize_decision(ctx, "POI hint pins the location")
        if _at_city_level(ctx):
            return _finalize_decision(ctx, "single city remains")
        image, space = {"image": ctx.image_ref}, ctx.state.space
        can_match = not (space.is_global or space.is_empty or is_repetition(
            ctx.events, CapabilityModule.IMAGE_MATCHING.value, Tool.IMAGE_SEARCH.value, image))
        match = Decision(
            thought="frontier stalled between province and city; trying visual match",
            actions=(Action(ctx.next_action_id, CapabilityModule.IMAGE_MATCHING,
                            Tool.IMAGE_SEARCH, image),))
        if can_match and frontier_unchanged_steps(ctx.events) >= 2:
            return match

        clues = ctx.descriptor.clues if ctx.descriptor is not None else ()
        micro = [c.value for c in clues if c.kind in _MICRO_CLUES]
        arch = [c.value for c in clues if c.kind is ClueKind.ARCHITECTURE]
        chains = []
        if micro:
            ocr = [(Tool.OCR, image)] if any(c.kind is ClueKind.SIGN_TEXT for c in clues) else []
            chains.append((CapabilityModule.SEMANTIC_SYMBOL, "micro clue", ocr + _lookups(micro)))
        if arch:
            chains.append((CapabilityModule.INFRASTRUCTURE, "architecture clue",
                           [(Tool.CAPTION, image)] + _lookups(arch)))
        chains.append((CapabilityModule.ENVIRONMENTAL, "environment scan",
                       [(Tool.CAPTION, image)] + [(Tool.TEXT_SEARCH, {"query": c.value})
                                                   for c in clues if c.kind in _MACRO_CLUES]))
        for module, why, chain in chains:
            for tool, args in chain:
                if not is_repetition(ctx.events, module.value, tool.value, args):
                    return Decision(
                        thought=f"{why}: probing {module.value}/{tool.value}",
                        actions=(Action(ctx.next_action_id, module, tool, dict(args)),),
                    )
        return match if can_match else _finalize_decision(ctx, "no probes left")


def _lookups(values: list[str]) -> list[tuple[Tool, dict]]:
    """Knowledge-base probes of every value, then text searches of every value."""
    return [(tool, {"query": v}) for tool in (Tool.KNOWLEDGE_BASE, Tool.TEXT_SEARCH)
            for v in values]


def _finalize_decision(ctx: PlannerContext, why: str) -> Decision:
    ids = ", ".join(f"e{e.id}" for e in ctx.state.active_evidence()) or "none"
    return Decision(thought=f"finalize ({why}); supporting evidence: {ids}", finalize=True)


def _at_city_level(ctx: PlannerContext) -> bool:
    """All frontier regions sit at or under one single city."""
    space, g = ctx.state.space, ctx.gazetteer
    if space.is_global or space.is_empty:
        return False
    cities = set()
    for rid in space.frontier:
        city = g.city_ancestor(rid)
        if city is None:
            return False
        cities.add(city.id)
    return len(cities) == 1


def scripted_salience_policy() -> ScriptedBackend:
    """The reference deterministic policy over descriptor clues."""
    return ScriptedBackend()


# ---------------------------------------------------------------------------
# LLM backend


def _validate_decision(decision: Decision) -> list[ActionIssue]:
    return [issue for a in decision.actions for issue in validate_action(a)]


#: Every chat request samples at temperature 0, and a reply that is not a
#: valid decision envelope gets up to two corrective re-asks.
TEMPERATURE = 0.0
PARSE_RETRIES = 2


class _WireLog(threading.local):
    """Wire entries of the calling thread; an episode runs on one thread."""

    def __init__(self):
        self.entries: list[dict] = []


@dataclass
class LlmBackend:
    """Chat-completions client with bounded parse retries and fallback.

    The auth token is read from ``auth_env`` and travels only in the
    request header; logged wire bodies never contain it. Requests go through
    ``transport``, built for ``endpoint`` and closed by its owner, under the
    tool adapters' ``post_with_retries``, so a timeout is not retried and a
    3xx is not followed.
    """

    endpoint: str
    model: str
    transport: HttpTransport
    auth_env: str = "GEOPROBE_API_TOKEN"
    timeout_s: float = DEFAULT_TIMEOUT_S
    transport_retries: int = DEFAULT_RETRIES
    backoff_s: float = DEFAULT_BACKOFF_S

    def __post_init__(self):
        self._wire = _WireLog()

    def drain_wire_log(self) -> list[dict]:
        """The calling thread's wire entries since its last drain."""
        out, self._wire.entries = self._wire.entries, []
        return out

    def _chat(self, step: int, messages: list[dict]) -> str:
        body = {"model": self.model, "messages": messages, "temperature": TEMPERATURE}

        def post(url, **kwargs):
            # One wire entry per attempt, so retried requests reach the trace.
            self._wire.entries.append(
                {"step": step, "kind": "request", "authorization": "redacted", "body": body}
            )
            return self.transport.post(url, **kwargs)

        try:
            resp = post_with_retries(
                post, self.endpoint,
                retries=self.transport_retries, backoff_s=self.backoff_s,
                body=_encode_json(body), headers=auth_headers(self.auth_env),
                timeout=self.timeout_s)
        except (TransportError, ValueError) as e:
            raise BackendUnavailableError(f"LLM endpoint unreachable: {e!r}")
        if resp.status_code != 200:
            raise BackendUnavailableError(f"LLM endpoint returned HTTP {resp.status_code}")
        try:
            content = parse_json(resp.content)["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError):
            raise BackendUnavailableError("LLM response is not chat-completions shaped")
        self._wire.entries.append({"step": step, "kind": "response", "body": {"content": content}})
        return str(content)

    def decide(self, ctx: PlannerContext) -> Decision:
        messages = [{"role": "user", "content": build_prompt(ctx)}]
        if ctx.feedback:
            messages.append({"role": "user", "content": ctx.feedback})
        for _ in range(PARSE_RETRIES + 1):
            content = self._chat(ctx.step, messages)
            try:
                decision = parse_decision(
                    content, start_id=ctx.next_action_id,
                    max_parallel=ctx.settings.max_parallel
                )
                issues = _validate_decision(decision)
                if issues:
                    raise DecisionParseError(
                        "invalid actions: "
                        + "; ".join(f"{i.code.value}: {i.message}" for i in issues)
                    )
                return decision
            except DecisionParseError as e:
                messages.append({"role": "assistant", "content": content})
                messages.append({
                    "role": "user",
                    "content": (
                        f"That reply was not a valid decision envelope: {e}. "
                        "Answer again with exactly one JSON object in envelope "
                        "version \"1\", nothing else."
                    ),
                })
        if not ctx.state.space.is_global and not ctx.state.space.is_empty:
            return _finalize_decision(ctx, "unparseable replies; concluding from evidence")
        return Decision(
            thought="unparseable replies; falling back to a default probe",
            actions=(Action(ctx.next_action_id, CapabilityModule.ENVIRONMENTAL,
                            Tool.CAPTION, {"image": ctx.image_ref}),),
        )


# ---------------------------------------------------------------------------
# Backend-independent decision gate


def decide_next(backend, ctx: PlannerContext) -> Decision:
    """One validated decision: forced finalize at zero budget, repetition
    guard (one re-ask, then forced finalize), and an action-validity gate
    so invalid output never reaches the executor."""
    if ctx.remaining_steps == 0:
        return _finalize_decision(ctx, "step budget exhausted")

    decision = backend.decide(ctx)
    _require_valid(decision)
    if not _all_repeats(ctx, decision):
        return decision

    retry_ctx = replace(
        ctx,
        feedback=(
            "Every action in that decision repeats an earlier probe of this "
            "episode. Pick a probe you have not tried, or finalize."
        ),
    )
    decision = backend.decide(retry_ctx)
    _require_valid(decision)
    if not _all_repeats(ctx, decision):
        return decision
    return _finalize_decision(ctx, "backend kept repeating probes")


def _all_repeats(ctx: PlannerContext, decision: Decision) -> bool:
    if not decision.actions:
        return False
    return all(
        is_repetition(ctx.events, a.module.value, a.tool.value, a.args)
        for a in decision.actions
    )


def _require_valid(decision: Decision) -> None:
    issues = _validate_decision(decision)
    if issues:
        raise DecisionParseError(
            "backend produced invalid actions: "
            + "; ".join(f"{i.code.value}: {i.message}" for i in issues)
        )
