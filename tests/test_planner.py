"""Planning policies: prompt building, scripted rules, LLM backend (over the
stub server's chat route), gate."""

import json
import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoprobe.actions import (
    Action,
    CapabilityModule,
    Decision,
    Tool,
)
from geoprobe.bench import make_benchmark, run_benchmark
from geoprobe.canonical import canonical_hash
from geoprobe.engine import replay
from geoprobe.errors import BackendUnavailableError, BudgetTooSmallError, DecisionParseError
from geoprobe.executor import EpisodeSettings
from geoprobe.geo import GeoPoint
from geoprobe.live_tools import HttpTransport
from geoprobe.planner import (
    PROMPT_OVERHEAD_BUDGET,
    LlmBackend,
    PlannerContext,
    build_prompt,
    decide_next,
    describe_scene,
    scripted_salience_policy,
    summarize_space,
)
from geoprobe.recorder import EventKind, TrajectoryEvent, load_trace
from geoprobe.state import (
    CandidateSpace,
    EpisodeState,
    EpisodeStatus,
    Evidence,
    PoiHint,
    Provenance,
)
from geoprobe.stub_server import CHAT_PATH, Fault, StubToolServer
from geoprobe.synthworld import (
    Clue,
    ClueKind,
    Difficulty,
    SceneDescriptor,
    Truth,
    generate_world,
    sample_episode,
)

from conftest import (
    FAULT_TIMEOUT_S,
    FAULT_WORLD,
    FAULTS,
    assert_canonical_lines,
    client_calls,
    dead_port,
    small_gazetteer,
    synthetic_episode,
)

M = CapabilityModule
DATA = Path(__file__).parent / "data"
GAZ = small_gazetteer()
WORLD = generate_world(2026, 3, 5)


def make_desc(*clues, city="cn-a-1", point=GeoPoint(30.5, 114.3),
              difficulty=Difficulty.EASY):
    return SceneDescriptor(tuple(clues), Truth(point, city), difficulty)


SIGN = Clue(ClueKind.SIGN_TEXT, "Rivertown bakery", 0.9)
POI = Clue(ClueKind.POI, "Rivertown lighthouse", 0.9)
ARCH = Clue(ClueKind.ARCHITECTURE, "brick-rowhouses", 0.6)
VEG = Clue(ClueKind.VEGETATION, "palm-groves", 0.5)
TERRAIN = Clue(ClueKind.TERRAIN, "karst-hills", 0.4)


def make_ctx(desc=None, space=None, events=(), poi_hint=None, step=1,
             remaining=9, feedback=None, next_action_id=1, evidence_ids=()):
    """The context of deciding ``step`` with ``remaining`` decisions left."""
    chain = tuple(Evidence(i, i, f"claim {i}", frozenset({"cn"}), 0.5, Provenance(i, "h"))
                  for i in evidence_ids)
    state = EpisodeState(step=step - 1, space=space if space is not None else CandidateSpace(),
                         chain=chain)
    return PlannerContext(state, tuple(events), GAZ, EpisodeSettings(max_steps=step + remaining),
                          "scene/0", descriptor=desc, poi_hint=poi_hint,
                          next_action_id=next_action_id, feedback=feedback)


def decision_event(*actions, seq=0, step=1):
    """A Decision event as the engine would have recorded it."""
    payload = {"decision": {
        "version": "1", "thought": "t", "finalize": False,
        "actions": [a.to_json() for a in actions],
    }}
    return TrajectoryEvent(seq, EventKind.DECISION, step, 0.0, payload, "h")


def projection_event(space, seq, step):
    return TrajectoryEvent(
        seq, EventKind.PROJECTION, step, 0.0,
        {"evidence": [], "space": space.to_json(), "inactive_ids": []}, "h",
    )


def stalled_events(space, n_stalled):
    """A probe history whose last ``n_stalled`` projections changed nothing."""
    events = [
        decision_event(Action(1, M.ENVIRONMENTAL, Tool.CAPTION, {"image": "scene/0"})),
        projection_event(space, 1, 1),  # the narrowing step itself
    ]
    extra_tools = [(Tool.TEXT_SEARCH, {"query": f"q{i}"}) for i in range(n_stalled)]
    seq = 2
    for i, (tool, args) in enumerate(extra_tools):
        events.append(decision_event(Action(2 + i, M.ENVIRONMENTAL, tool, args),
                                     seq=seq, step=2 + i))
        seq += 1
        events.append(projection_event(space, seq, 2 + i))
        seq += 1
    return tuple(events)


# ---------------------------------------------------------------------------
# Context and rendering


class TestContext:
    def test_negative_remaining_rejected(self):
        with pytest.raises(ValueError):
            make_ctx(step=3, remaining=-1)

    def test_describe_scene_lists_clues_only(self):
        desc = make_desc(SIGN, TERRAIN)
        text = describe_scene(desc, "scene/0")
        assert "Rivertown bakery" in text and "karst-hills" in text
        assert "cn-a-1" not in text  # ground truth never leaks
        assert "30.5" not in text

    def test_describe_scene_without_descriptor(self):
        assert "scene/9" in describe_scene(None, "scene/9")

    def test_summarize_global(self):
        assert "global" in summarize_space(CandidateSpace(), GAZ)

    def test_summarize_lists_regions(self):
        text = summarize_space(CandidateSpace(frozenset({"cn-a-1", "cn-b"}), False), GAZ)
        assert "- cn-a-1 (city) Rivertown" in text
        assert "- cn-b (province) Bprov" in text

    def test_summarize_caps_rows(self):
        big = generate_world(31, 6, 8)
        frontier = frozenset(big.city_ids())
        text = summarize_space(CandidateSpace(frontier, False), big.gazetteer)
        assert len(text.splitlines()) == 41
        assert "more)" in text.splitlines()[-1]


class TestPrompt:
    def ctx(self):
        space = CandidateSpace(frozenset({"cn-a-1", "cn-b"}), False)
        return make_ctx(make_desc(SIGN, TERRAIN), space=space, step=3, remaining=9)

    def test_matches_golden_file(self):
        """The first prompt of the probe-then-finalize episode that
        ``test_mid_episode_prompt_matches_golden_file`` sends."""
        ctx = PlannerContext(EpisodeState(), (), WORLD.gazetteer, EpisodeSettings(), "scene/0",
                             descriptor=sample_episode(WORLD, 1, Difficulty.MEDIUM))
        assert build_prompt(ctx) == (DATA / "prompt.txt").read_text()

    def test_contains_envelope_version_tag(self):
        assert "v1" in build_prompt(self.ctx())

    def test_equal_contexts_build_identical_prompts(self):
        assert build_prompt(self.ctx()) == build_prompt(self.ctx())

    def test_prompt_overhead_bounded_over_recorded_contexts(self):
        """Whatever got recorded, the prompt stays within history budget
        plus a fixed overhead — measured over 100 real episode contexts."""
        from geoprobe.planner import scripted_salience_policy as policy

        world = generate_world(13, 3, 5)
        checked = 0
        for seed in range(34):
            for difficulty in Difficulty:
                desc = sample_episode(world, seed, difficulty)
                res = synthetic_episode(world, desc, policy())
                settings = EpisodeSettings(max_steps=res.state.step + 1, context_budget=4000)
                ctx = PlannerContext(res.state, res.trace.events, world.gazetteer, settings,
                                     "scene/0", descriptor=desc)
                prompt = build_prompt(ctx)
                assert len(prompt) <= 4000 + PROMPT_OVERHEAD_BUDGET
                checked += 1
        assert checked >= 100


# ---------------------------------------------------------------------------
# Scripted policy


class TestScriptedPolicy:
    def setup_method(self):
        self.backend = scripted_salience_policy()

    def test_sign_clue_starts_with_ocr(self):
        d = self.backend.decide(make_ctx(make_desc(SIGN, TERRAIN)))
        [a] = d.actions
        assert (a.module, a.tool) == (M.SEMANTIC_SYMBOL, Tool.OCR)
        assert a.args == {"image": "scene/0"}
        assert not d.finalize

    def test_poi_clue_skips_environmental(self):
        d = self.backend.decide(make_ctx(make_desc(POI, VEG)))
        [a] = d.actions
        assert (a.module, a.tool) == (M.SEMANTIC_SYMBOL, Tool.KNOWLEDGE_BASE)
        assert a.args == {"query": "Rivertown lighthouse"}

    def test_vegetation_only_targets_environmental(self):
        d = self.backend.decide(make_ctx(make_desc(VEG)))
        [a] = d.actions
        assert (a.module, a.tool) == (M.ENVIRONMENTAL, Tool.CAPTION)

    def test_architecture_clue_targets_infrastructure(self):
        d = self.backend.decide(make_ctx(make_desc(ARCH, VEG, difficulty=Difficulty.MEDIUM)))
        [a] = d.actions
        assert (a.module, a.tool) == (M.INFRASTRUCTURE, Tool.CAPTION)

    def test_no_descriptor_still_probes_caption(self):
        d = self.backend.decide(make_ctx(None))
        [a] = d.actions
        assert (a.module, a.tool) == (M.ENVIRONMENTAL, Tool.CAPTION)

    def test_micro_chain_advances_across_steps(self):
        desc = make_desc(SIGN, TERRAIN)
        events = [decision_event(
            Action(1, M.SEMANTIC_SYMBOL, Tool.OCR, {"image": "scene/0"}))]
        d = self.backend.decide(make_ctx(desc, events=tuple(events), step=2))
        [a] = d.actions
        assert (a.tool, a.args) == (Tool.KNOWLEDGE_BASE, {"query": "Rivertown bakery"})
        events.append(decision_event(a, seq=1, step=2))
        d3 = self.backend.decide(make_ctx(desc, events=tuple(events), step=3))
        [a3] = d3.actions
        assert (a3.tool, a3.args) == (Tool.TEXT_SEARCH, {"query": "Rivertown bakery"})

    def test_poi_hint_finalizes(self):
        hint = PoiHint(GeoPoint(30.5, 114.3), "Rivertown")
        d = self.backend.decide(make_ctx(make_desc(SIGN), poi_hint=hint,
                                         evidence_ids=(1, 2)))
        assert d.finalize and not d.actions
        assert "e1" in d.thought and "e2" in d.thought

    def test_city_level_space_finalizes(self):
        space = CandidateSpace(frozenset({"cn-a-1-x", "cn-a-1-y"}), False)
        d = self.backend.decide(make_ctx(make_desc(VEG), space=space))
        assert d.finalize

    def test_multi_city_space_does_not_finalize(self):
        space = CandidateSpace(frozenset({"cn-a-1", "cn-a-2"}), False)
        d = self.backend.decide(make_ctx(make_desc(VEG), space=space))
        assert not d.finalize

    def test_stalled_midlevel_space_triggers_image_matching(self):
        space = CandidateSpace(frozenset({"cn-a", "cn-b"}), False)
        events = stalled_events(space, 2)
        d = self.backend.decide(make_ctx(make_desc(VEG), space=space,
                                         events=events, step=3))
        [a] = d.actions
        assert (a.module, a.tool) == (M.IMAGE_MATCHING, Tool.IMAGE_SEARCH)

    def test_one_stalled_step_is_not_enough(self):
        space = CandidateSpace(frozenset({"cn-a", "cn-b"}), False)
        events = stalled_events(space, 1)
        d = self.backend.decide(make_ctx(make_desc(VEG), space=space,
                                         events=events, step=2))
        assert not d.actions or d.actions[0].tool is not Tool.IMAGE_SEARCH

    def test_exhausted_chains_fall_back_to_image_matching(self):
        desc = make_desc(VEG)
        space = CandidateSpace(frozenset({"cn-a", "cn-b"}), False)
        events = (
            decision_event(Action(1, M.ENVIRONMENTAL, Tool.CAPTION, {"image": "scene/0"})),
            decision_event(Action(2, M.ENVIRONMENTAL, Tool.TEXT_SEARCH,
                                  {"query": "palm-groves"}), seq=1, step=2),
        )
        d = self.backend.decide(make_ctx(desc, space=space, events=events, step=3))
        [a] = d.actions
        assert a.tool is Tool.IMAGE_SEARCH

    def test_everything_exhausted_concludes(self):
        desc = make_desc(VEG)
        space = CandidateSpace(frozenset({"cn-a", "cn-b"}), False)
        events = (
            decision_event(Action(1, M.ENVIRONMENTAL, Tool.CAPTION, {"image": "scene/0"})),
            decision_event(Action(2, M.ENVIRONMENTAL, Tool.TEXT_SEARCH,
                                  {"query": "palm-groves"}), seq=1, step=2),
            decision_event(Action(3, M.IMAGE_MATCHING, Tool.IMAGE_SEARCH,
                                  {"image": "scene/0"}), seq=2, step=3),
        )
        d = self.backend.decide(make_ctx(desc, space=space, events=events, step=4))
        assert d.finalize

    def test_walks_the_whole_policy_in_order(self):
        """Every clue family present, a mid-level frontier that never stalls:
        micro symbols, then architecture, then environment, each chain in
        its order, then the last-resort visual match, then the conclusion."""
        desc = make_desc(SIGN, POI, ARCH, VEG, TERRAIN)
        space = CandidateSpace(frozenset({"cn-a", "cn-b"}), False)
        image = {"image": "scene/0"}
        expected = [
            (M.SEMANTIC_SYMBOL, Tool.OCR, image),
            *[(M.SEMANTIC_SYMBOL, tool, {"query": q})
              for tool in (Tool.KNOWLEDGE_BASE, Tool.TEXT_SEARCH)
              for q in ("Rivertown bakery", "Rivertown lighthouse")],
            (M.INFRASTRUCTURE, Tool.CAPTION, image),
            (M.INFRASTRUCTURE, Tool.KNOWLEDGE_BASE, {"query": "brick-rowhouses"}),
            (M.INFRASTRUCTURE, Tool.TEXT_SEARCH, {"query": "brick-rowhouses"}),
            (M.ENVIRONMENTAL, Tool.CAPTION, image),
            (M.ENVIRONMENTAL, Tool.TEXT_SEARCH, {"query": "palm-groves"}),
            (M.ENVIRONMENTAL, Tool.TEXT_SEARCH, {"query": "karst-hills"}),
            (M.IMAGE_MATCHING, Tool.IMAGE_SEARCH, image),
        ]
        events, probes = [], []
        for step in range(1, len(expected) + 2):
            d = self.backend.decide(make_ctx(desc, space=space, events=tuple(events), step=step,
                                             next_action_id=step))
            if d.finalize:
                break
            [a] = d.actions
            probes.append((a.module, a.tool, a.args))
            events.append(decision_event(a, seq=len(events), step=step))
        assert probes == expected
        assert d.thought == "finalize (no probes left); supporting evidence: none"

    def test_actions_numbered_from_context(self):
        d = self.backend.decide(make_ctx(make_desc(SIGN), next_action_id=17))
        assert d.actions[0].id == 17

    def test_determinism_byte_equal(self):
        ctx = make_ctx(make_desc(SIGN, TERRAIN))
        a = canonical_hash(self.backend.decide(ctx).to_json())
        b = canonical_hash(self.backend.decide(ctx).to_json())
        assert a == b

    def test_pickled_policy_decides_as_the_original(self):
        """Process workers ship the policy by pickle."""
        copy = pickle.loads(pickle.dumps(self.backend))
        world = generate_world(21, 3, 5)
        for seed in range(20):
            for difficulty in Difficulty:
                ctx = make_ctx(sample_episode(world, seed, difficulty))
                assert copy.decide(ctx) == self.backend.decide(ctx)

    def test_outcomes_over_descriptor_corpus(self):
        """Micro clues always route to SemanticSymbol first; pure-macro
        descriptors always route to Environmental first."""
        world = generate_world(21, 3, 5)
        for seed in range(40):
            easy = sample_episode(world, seed, Difficulty.EASY)
            d = self.backend.decide(make_ctx(easy))
            assert d.actions[0].module is M.SEMANTIC_SYMBOL
            hard = sample_episode(world, seed, Difficulty.HARD)
            d = self.backend.decide(make_ctx(hard))
            assert d.actions[0].module is M.ENVIRONMENTAL


# ---------------------------------------------------------------------------
# decide_next gate


class ProbeBackend:
    """Always proposes the same caption probe; counts invocations."""

    def __init__(self, action=None):
        self.calls = []
        self.action = action or Action(1, M.ENVIRONMENTAL, Tool.CAPTION,
                                       {"image": "scene/0"})

    def decide(self, ctx):
        self.calls.append(ctx)
        return Decision(thought="probe", actions=(self.action,))


class TestDecideNext:
    def test_zero_budget_forces_finalize(self):
        backend = ProbeBackend()
        d = decide_next(backend, make_ctx(make_desc(VEG), remaining=0))
        assert d.finalize
        assert backend.calls == []  # backend never consulted

    def test_passthrough_when_fresh(self):
        backend = ProbeBackend()
        d = decide_next(backend, make_ctx(make_desc(VEG)))
        assert d.actions and not d.finalize

    def test_repetition_reasks_once_then_finalizes(self):
        action = Action(1, M.ENVIRONMENTAL, Tool.CAPTION, {"image": "scene/0"})
        backend = ProbeBackend(action)
        events = (decision_event(action),)
        d = decide_next(backend, make_ctx(make_desc(VEG), events=events, step=2))
        assert d.finalize
        assert len(backend.calls) == 2
        assert backend.calls[0].feedback is None
        assert "repeats" in backend.calls[1].feedback

    def test_reask_that_produces_new_probe_is_accepted(self):
        action = Action(1, M.ENVIRONMENTAL, Tool.CAPTION, {"image": "scene/0"})
        fresh = Action(1, M.ENVIRONMENTAL, Tool.TEXT_SEARCH, {"query": "new"})

        class SwitchingBackend:
            def __init__(self):
                self.n = 0

            def decide(self, ctx):
                self.n += 1
                return Decision(thought="p",
                                actions=(action if self.n == 1 else fresh,))

        backend = SwitchingBackend()
        d = decide_next(backend, make_ctx(make_desc(VEG),
                                          events=(decision_event(action),), step=2))
        assert d.actions[0].tool is Tool.TEXT_SEARCH

    def test_invalid_backend_output_rejected(self):
        bad = Action(1, M.ENVIRONMENTAL, Tool.OCR, {"image": "scene/0"})

        class BadBackend:
            def decide(self, ctx):
                return Decision(thought="bad", actions=(bad,))

        with pytest.raises(DecisionParseError, match="invalid actions"):
            decide_next(BadBackend(), make_ctx(make_desc(VEG)))

    def test_scripted_backend_through_gate(self):
        d = decide_next(scripted_salience_policy(), make_ctx(make_desc(SIGN)))
        assert d.actions[0].tool is Tool.OCR


# ---------------------------------------------------------------------------
# LLM backend, over the stub server's chat route


def envelope(actions=(), finalize=False):
    return json.dumps({
        "version": "1", "thought": "let me check", "finalize": finalize,
        "actions": list(actions),
    })


CAPTION_ACT = {"module": "Environmental", "tool": "Caption", "args": {"image": "scene/0"}}


@pytest.fixture()
def chat_stub():
    with StubToolServer() as server:
        yield server


@pytest.fixture()
def llm(chat_stub):
    """Builds backends for the stub's chat route, answering ``replies`` in
    order when given; closes their transports at teardown."""
    built = []

    def make(*replies, endpoint=None, **kw):
        if replies:
            queue = list(replies)
            chat_stub.set_chat(lambda body: queue.pop(0))
        kw.setdefault("backoff_s", 0.0)
        url = endpoint or chat_stub.base_url + CHAT_PATH
        built.append(HttpTransport([url]))
        return LlmBackend(url, "geo-test", built[-1], **kw)

    yield make
    for transport in built:
        transport.close()


def sent(stub) -> list[dict]:
    """Bodies of the chat requests the stub received, in order."""
    return [r.body for r in stub.requests() if r.path == CHAT_PATH]


class TestLlmBackend:
    def test_valid_reply_parses_and_renumbers(self, chat_stub, llm):
        backend = llm(envelope([CAPTION_ACT]))
        d = backend.decide(make_ctx(make_desc(VEG), next_action_id=5))
        [a] = d.actions
        assert a.id == 5 and a.tool is Tool.CAPTION
        [req] = sent(chat_stub)
        assert req["model"] == "geo-test"
        assert req["temperature"] == 0
        assert req["messages"][0]["role"] == "user"

    def test_auth_header_sent_but_never_logged(self, chat_stub, llm, monkeypatch):
        monkeypatch.setenv("GEOPROBE_API_TOKEN", "sk-secret-123")
        backend = llm(envelope(finalize=True))
        backend.decide(make_ctx(make_desc(VEG)))
        [req] = chat_stub.requests()
        assert req.authorization == "Bearer sk-secret-123"
        wire = backend.drain_wire_log()
        assert wire, "wire log must capture the exchange"
        assert "sk-secret-123" not in json.dumps(wire)
        assert any(e.get("authorization") == "redacted" for e in wire)

    def test_parse_retry_with_corrective_reprompt(self, chat_stub, llm):
        backend = llm("no json here at all", envelope([CAPTION_ACT]))
        d = backend.decide(make_ctx(make_desc(VEG)))
        assert d.actions
        second = sent(chat_stub)[1]["messages"]
        assert second[-1]["role"] == "user"
        assert "not a valid decision envelope" in second[-1]["content"]
        assert second[-2]["role"] == "assistant"

    def test_fallback_to_caption_when_global(self, chat_stub, llm):
        backend = llm(*["garbage"] * 3)
        d = backend.decide(make_ctx(make_desc(VEG)))
        [a] = d.actions
        assert a.tool is Tool.CAPTION and a.module is M.ENVIRONMENTAL
        assert len(sent(chat_stub)) == 3  # 1 + 2 retries

    def test_fallback_to_finalize_when_narrowed(self, llm):
        backend = llm(*["garbage"] * 3)
        space = CandidateSpace(frozenset({"cn-a"}), False)
        d = backend.decide(make_ctx(make_desc(VEG), space=space))
        assert d.finalize

    def test_invalid_actions_also_retry(self, chat_stub, llm):
        bad = {"module": "Environmental", "tool": "Ocr", "args": {"image": "x"}}
        backend = llm(envelope([bad]), envelope(finalize=True))
        d = backend.decide(make_ctx(make_desc(VEG)))
        assert d.finalize
        assert len(sent(chat_stub)) == 2

    def test_transport_retry_then_success(self, chat_stub, llm):
        chat_stub.schedule(CHAT_PATH, *[Fault(status=503)] * 2)
        backend = llm(envelope(finalize=True))
        d = backend.decide(make_ctx(make_desc(VEG)))
        assert d.finalize
        assert len(sent(chat_stub)) == 3

    def test_wire_log_records_every_transport_attempt(self, chat_stub, llm):
        chat_stub.schedule(CHAT_PATH, *[Fault(status=503)] * 2)
        backend = llm(envelope(finalize=True))
        backend.decide(make_ctx(make_desc(VEG)))
        wire = backend.drain_wire_log()
        assert [e["kind"] for e in wire] == ["request", "request", "request", "response"]
        assert all(e["authorization"] == "redacted" for e in wire if e["kind"] == "request")

    def test_transport_exhaustion_raises_unavailable(self, llm):
        backend = llm(endpoint=f"http://127.0.0.1:{dead_port()}{CHAT_PATH}")
        with pytest.raises(BackendUnavailableError, match="LLM endpoint unreachable"):
            backend.decide(make_ctx(make_desc(VEG)))
        assert [e["kind"] for e in backend.drain_wire_log()] == ["request"] * 3

    def test_5xx_exhaustion_names_the_status(self, chat_stub, llm):
        chat_stub.schedule(CHAT_PATH, *[Fault(status=503)] * 3)
        backend = llm(envelope(finalize=True))
        with pytest.raises(BackendUnavailableError, match="LLM endpoint returned HTTP 503"):
            backend.decide(make_ctx(make_desc(VEG)))
        assert len(sent(chat_stub)) == 3

    def test_hard_4xx_is_unavailable_without_retry(self, chat_stub, llm):
        chat_stub.schedule(CHAT_PATH, Fault(status=401))
        backend = llm(envelope(finalize=True))
        with pytest.raises(BackendUnavailableError, match="LLM endpoint returned HTTP 401"):
            backend.decide(make_ctx(make_desc(VEG)))
        assert len(sent(chat_stub)) == 1

    def test_redirect_is_not_followed(self, chat_stub, llm):
        chat_stub.schedule(CHAT_PATH, Fault(status=302))
        backend = llm(envelope(finalize=True))
        with pytest.raises(BackendUnavailableError, match="LLM endpoint returned HTTP 302"):
            backend.decide(make_ctx(make_desc(VEG)))
        assert len(chat_stub.requests()) == 1

    def test_malformed_response_body_is_unavailable(self, chat_stub, llm):
        chat_stub.schedule(CHAT_PATH, Fault(body=b'{"unexpected": true}'))
        backend = llm(envelope(finalize=True))
        with pytest.raises(BackendUnavailableError, match="not chat-completions shaped"):
            backend.decide(make_ctx(make_desc(VEG)))

    def test_deeply_nested_reply_is_asked_again(self, chat_stub, llm):
        """A reply nested past the recursion limit is a parse failure, so
        the corrective re-ask runs."""
        backend = llm('{"thought": ' + "[" * 5000, envelope([CAPTION_ACT]))
        d = backend.decide(make_ctx(make_desc(VEG)))
        assert d.actions and len(sent(chat_stub)) == 2

    def test_envelope_after_a_too_deeply_nested_prefix_is_asked_again(self, chat_stub, llm):
        """The nested prefix ends the search, so the envelope after it is
        not found and the reply is asked again."""
        backend = llm('{"a":' * 5000 + envelope(finalize=True), envelope([CAPTION_ACT]))
        d = backend.decide(make_ctx(make_desc(VEG)))
        assert d.actions and len(sent(chat_stub)) == 2

    def test_deeply_nested_response_body_is_unavailable(self, chat_stub, llm):
        chat_stub.schedule(CHAT_PATH, Fault(body=b"[" * 5000))
        backend = llm(envelope(finalize=True))
        with pytest.raises(BackendUnavailableError, match="not chat-completions shaped"):
            backend.decide(make_ctx(make_desc(VEG)))

    def test_feedback_appended_as_extra_message(self, chat_stub, llm):
        backend = llm(envelope(finalize=True))
        backend.decide(make_ctx(make_desc(VEG), feedback="do better"))
        [req] = sent(chat_stub)
        assert req["messages"][-1]["content"] == "do better"

    def test_timeout_is_not_retried(self, chat_stub, llm):
        chat_stub.schedule(CHAT_PATH, Fault(delay_s=0.3))
        backend = llm(envelope(finalize=True), envelope(finalize=True), timeout_s=0.05)
        with pytest.raises(BackendUnavailableError, match="unreachable"):
            backend.decide(make_ctx(make_desc(VEG)))
        assert len(sent(chat_stub)) == 1

    def test_sequential_decisions_share_one_connection(self, chat_stub, llm, accepted):
        backend = llm(*[envelope(finalize=True)] * 5)
        for step in range(1, 6):
            assert backend.decide(make_ctx(make_desc(VEG), step=step)).finalize
        assert len(sent(chat_stub)) == 5
        assert accepted[0] == 1

    def test_chat_requests_leave_tool_counters_alone(self, chat_stub, llm):
        before = chat_stub.counts()
        llm(envelope(finalize=True)).decide(make_ctx(make_desc(VEG)))
        assert chat_stub.counts() == before
        assert chat_stub.total_requests() == 0
        assert [r.path for r in chat_stub.requests()] == [CHAT_PATH]


# ---------------------------------------------------------------------------
# LLM backend driving whole episodes


def caption_then_finalize(body: dict) -> str:
    """Probe with a caption while the frontier is global, then finalize."""
    if "(global: no constraints applied yet)" in body["messages"][0]["content"]:
        return envelope([CAPTION_ACT])
    return envelope(finalize=True)


def wire_kinds(event) -> list[str]:
    return [e["kind"] for e in event.payload.get("llm_wire", [])]


class TestLlmEpisodes:
    def test_failed_episode_keeps_its_wire_log(self, chat_stub, llm):
        chat_stub.set_chat(caption_then_finalize)
        chat_stub.schedule(CHAT_PATH, *[Fault(status=503)] * 3)
        backend = llm()
        failed, ok = (
            synthetic_episode(WORLD, sample_episode(WORLD, seed, Difficulty.EASY),
                              backend, settings=EpisodeSettings(max_steps=3))
            for seed in (1, 2))
        [error] = failed.trace.events
        assert error.payload["error"] == "BackendUnavailable"
        assert wire_kinds(error) == ["request"] * 3
        first = ok.trace.events[0]
        assert first.kind is EventKind.DECISION
        assert wire_kinds(first) == ["request", "response"]
        for res in (failed, ok):
            assert replay(res.trace, WORLD.gazetteer, WORLD.tag_table()).final_state == res.state

    def test_deeply_nested_response_body_ends_the_episode(self, chat_stub, llm):
        """The episode records the backend's failure as its terminal event."""
        chat_stub.schedule(CHAT_PATH, Fault(body=b"[" * 5000))
        res = synthetic_episode(WORLD, sample_episode(WORLD, 1, Difficulty.EASY), llm())
        [error] = res.trace.events
        assert error.kind is EventKind.ERROR
        assert error.payload["error"] == "BackendUnavailable"

    def test_llm_trace_lines_are_canonical(self, chat_stub, llm, tmp_path):
        """Decisions carrying ``llm_wire`` are written as the canonical JSON
        of the in-memory events."""
        chat_stub.set_chat(caption_then_finalize)
        path = tmp_path / "llm.trace.jsonl"
        res = synthetic_episode(WORLD, sample_episode(WORLD, 1, Difficulty.EASY), llm(),
                                trace_path=str(path))
        assert res.finalized
        assert wire_kinds(res.trace.events[0]) == ["request", "response"]
        assert_canonical_lines(path, res.trace)

    def test_nan_reply_ends_the_episode_on_a_canonical_line(self, chat_stub, llm, tmp_path):
        """A reply whose content is ``NaN`` is no JSON: the backend is
        unavailable, and the Error event's line holds only the request."""
        chat_stub.schedule(CHAT_PATH, Fault(body=b'{"choices": [{"message": {"content": NaN}}]}'))
        path = tmp_path / "nan.trace.jsonl"
        res = synthetic_episode(WORLD, sample_episode(WORLD, 1, Difficulty.EASY), llm(),
                                trace_path=str(path))
        [error] = res.trace.events
        assert error.kind is EventKind.ERROR
        assert error.payload["error"] == "BackendUnavailable"
        assert "not chat-completions shaped" in error.payload["detail"]
        assert wire_kinds(error) == ["request"]
        assert_canonical_lines(path, res.trace)

    def test_parallel_episodes_keep_their_own_wire_logs(self, chat_stub, llm, tmp_path):
        chat_stub.set_chat(caption_then_finalize)
        samples = make_benchmark(WORLD, 20, seed=5)
        run_benchmark(samples, llm(), WORLD, workers=2, settings=EpisodeSettings(max_steps=3),
                      trace_dir=tmp_path)
        decisions = 0
        for sample in samples:
            trace = load_trace(tmp_path / f"{sample.id}.trace.jsonl")
            for event in trace.events:
                if event.kind is not EventKind.DECISION:
                    continue
                decisions += 1
                kinds = wire_kinds(event)
                assert kinds and kinds == ["request", "response"] * (len(kinds) // 2)
                # A Decision carries the state it was made in, one step behind.
                assert {e["step"] for e in event.payload["llm_wire"]} == {event.step + 1}
        assert decisions >= 2 * len(samples)

    def test_mid_episode_prompt_matches_golden_file(self, chat_stub, llm):
        """The first prompt of an episode has an empty history; the second
        lists the recorded probe, its evidence and the narrowed candidates."""
        backend = llm(envelope([CAPTION_ACT]), envelope(finalize=True))
        res = synthetic_episode(WORLD, sample_episode(WORLD, 1, Difficulty.MEDIUM), backend)
        assert res.finalized
        first, second = sent(chat_stub)
        assert first["messages"][0]["content"] == (DATA / "prompt.txt").read_text()
        assert second["messages"][0]["content"] == (DATA / "prompt_step2.txt").read_text()

    def test_budget_below_the_floor_fails_a_prompting_backend(self, chat_stub, llm):
        backend = llm(envelope(finalize=True))
        with pytest.raises(BudgetTooSmallError):
            synthetic_episode(WORLD, sample_episode(WORLD, 1, Difficulty.MEDIUM), backend,
                              settings=EpisodeSettings(context_budget=10))
        assert sent(chat_stub) == []


FAULT_SAMPLES = make_benchmark(FAULT_WORLD, 3, seed=5)


def ended_unavailable(trace) -> bool:
    """Whether the episode ended on the backend-unavailable fallback: a
    BackendUnavailable Error, or the finalize decision made in its place."""
    return any(
        event.payload.get("error") == "BackendUnavailable"
        or event.payload.get("decision", {}).get("thought", "").startswith("backend unavailable")
        for event in trace.events)


@settings(max_examples=20)
@given(schedule=st.lists(st.sampled_from(FAULTS), max_size=3))
def test_drawn_chat_faults_follow_the_client_policy(schedule):
    with StubToolServer() as server, tempfile.TemporaryDirectory() as trace_dir:
        server.set_chat(caption_then_finalize)
        server.schedule(CHAT_PATH, *schedule)
        transport = HttpTransport([server.base_url + CHAT_PATH])
        backend = LlmBackend(server.base_url + CHAT_PATH, "geo-test", transport,
                             timeout_s=FAULT_TIMEOUT_S, transport_retries=2, backoff_s=0.0)
        try:
            run = run_benchmark(FAULT_SAMPLES, backend, FAULT_WORLD, trace_dir=trace_dir,
                                settings=EpisodeSettings(max_steps=3))
        finally:
            transport.close()
        traces = [load_trace(Path(trace_dir) / f"{s.id}.trace.jsonl") for s in FAULT_SAMPLES]
        chat_requests = len(sent(server))
    assert {e.status for e in run.entries} <= {EpisodeStatus.FINALIZED, EpisodeStatus.EXHAUSTED}
    assert {e.error for e in run.entries} <= {None, "episode exhausted"}
    # The episodes run in order, so the model walks one schedule through them:
    # each answered chat call must end healthy, and a call that ends on a
    # fault must end its episode through the fallback.
    calls = client_calls(schedule, retries=2)
    expected = 0
    for trace in traces:
        replay(trace, FAULT_WORLD.gazetteer, FAULT_WORLD.tag_table())
        answered = sum(entry["kind"] == "response" for event in trace.events
                       for entry in event.payload.get("llm_wire", []))
        outcomes = [next(calls) for _ in range(answered + ended_unavailable(trace))]
        expected += sum(n for n, _ in outcomes)
        assert [fault == Fault() for _, fault in outcomes] == \
            [True] * answered + [False] * ended_unavailable(trace)
    assert chat_requests == expected


#: Renderers of a prompt's sections that cost time per call.
PROMPT_SECTIONS = ("compress", "summarize_space", "describe_scene")


def test_scripted_benchmark_renders_no_prompt(monkeypatch):
    """The scripted policy reads structures; no prompt section is rendered
    for it, wherever a module of the package binds the renderer."""
    from geoprobe import engine, planner

    counts = dict.fromkeys(PROMPT_SECTIONS, 0)
    for module in (engine, planner):
        for name in PROMPT_SECTIONS:
            if hasattr(module, name):
                def counting(*args, _name=name, _inner=getattr(module, name), **kwargs):
                    counts[_name] += 1
                    return _inner(*args, **kwargs)
                monkeypatch.setattr(module, name, counting)
    report = run_benchmark(make_benchmark(WORLD, 12, seed=5), scripted_salience_policy(), WORLD)
    assert len(report.entries) == 12
    assert counts == dict.fromkeys(PROMPT_SECTIONS, 0)
