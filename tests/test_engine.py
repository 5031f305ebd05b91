"""Episode loop: end-to-end runs, termination, fault handling, determinism."""

import ast
import re
from dataclasses import replace
from pathlib import Path

import pytest

from geoprobe.actions import Action, CapabilityModule, Decision, Tool
from geoprobe.engine import (
    EpisodeResult,
    derive_poi_hint,
    replay,
    run_episode,
)
from geoprobe.errors import BackendUnavailableError, ConfigError, HashMismatchError
from geoprobe.executor import AblationConfig, EpisodeSettings
from geoprobe.geo import GeoPoint, reverse_geocode
from geoprobe.planner import scripted_salience_policy
from geoprobe.recorder import (
    EventKind,
    Trace,
    TraceHeader,
    TraceRecorder,
    load_trace,
)
from geoprobe.state import (
    CandidateSpace,
    EpisodeState,
    EpisodeStatus,
    Evidence,
    Provenance,
)
from geoprobe.synthworld import Difficulty, generate_world, sample_episode

from conftest import small_gazetteer, synthetic_episode

M = CapabilityModule
WORLD = generate_world(2026, 3, 5)
TAGS = WORLD.tag_table()
GAZ = small_gazetteer()


def run_seeded(seed, difficulty, **kw):
    desc = sample_episode(WORLD, seed, difficulty)
    return desc, synthetic_episode(WORLD, desc, scripted_salience_policy(), **kw)


def kinds(trace):
    return [e.kind for e in trace.events]


class TestEndToEnd:
    def test_easy_episode_finalizes_on_truth_city(self):
        desc, res = run_seeded(3, Difficulty.EASY)
        assert res.finalized
        truth_city = WORLD.gazetteer.get(desc.truth.city_id)
        assert res.prediction.city_name == truth_city.name

    def test_event_shape_of_simple_episode(self):
        _, res = run_seeded(3, Difficulty.EASY)
        ks = kinds(res.trace)
        assert ks[0] is EventKind.DECISION
        assert ks[-1] is EventKind.FINALIZE
        assert EventKind.EXECUTION in ks and EventKind.PROJECTION in ks
        # every execution is directly preceded by its decision and followed
        # by its projection
        for i, k in enumerate(ks):
            if k is EventKind.EXECUTION:
                assert ks[i - 1] is EventKind.DECISION
                assert ks[i + 1] is EventKind.PROJECTION

    def test_traces_replay_cleanly_across_difficulties(self):
        for difficulty in Difficulty:
            for seed in (0, 7, 23):
                _, res = run_seeded(seed, difficulty)
                report = replay(res.trace, WORLD.gazetteer, TAGS)
                assert report.events_verified == len(res.trace.events)
                if res.prediction is not None:
                    assert report.prediction.point == res.prediction.point

    def test_hard_episode_lands_in_truth_province(self):
        desc, res = run_seeded(11, Difficulty.HARD)
        assert res.finalized
        city = reverse_geocode(WORLD.gazetteer, res.prediction.point)
        truth_province = WORLD.province_of(desc.truth.city_id)
        assert WORLD.gazetteer.get(city.id).parent_id == truth_province

    def test_deterministic_across_runs(self):
        _, a = run_seeded(9, Difficulty.MEDIUM)
        _, b = run_seeded(9, Difficulty.MEDIUM)
        sa = [(e.seq, e.kind, e.step, e.payload, e.state_hash) for e in a.trace.events]
        sb = [(e.seq, e.kind, e.step, e.payload, e.state_hash) for e in b.trace.events]
        assert sa == sb
        assert a.prediction == b.prediction

    def test_trace_file_written_and_loadable(self, tmp_path):
        path = tmp_path / "episode.trace.jsonl"
        _, res = run_seeded(4, Difficulty.EASY, trace_path=str(path))
        loaded = load_trace(str(path))
        assert [e.kind for e in loaded.events] == kinds(res.trace)
        assert replay(loaded, WORLD.gazetteer, TAGS).prediction is not None

    def test_poi_variant_predicts_exact_point(self):
        from geoprobe.synthworld import ClueKind
        for seed in range(40):
            desc = sample_episode(WORLD, seed, Difficulty.EASY)
            if not desc.clues_of(ClueKind.POI):
                continue
            res = synthetic_episode(WORLD, desc, scripted_salience_policy())
            assert res.finalized
            assert res.prediction.point == desc.truth.point
            return
        pytest.fail("no POI-variant Easy scene found in seed range")


class TestTermination:
    def test_max_steps_one_with_no_evidence_exhausts(self):
        desc = sample_episode(WORLD, 0, Difficulty.HARD)
        res = synthetic_episode(WORLD, desc, scripted_salience_policy(),
                                settings=EpisodeSettings(max_steps=1))
        assert res.state.status is EpisodeStatus.EXHAUSTED
        assert res.prediction is None
        ks = kinds(res.trace)
        assert ks == [EventKind.DECISION, EventKind.ERROR]

    def test_max_steps_two_forces_early_conclusion(self):
        desc = sample_episode(WORLD, 0, Difficulty.HARD)
        res = synthetic_episode(WORLD, desc, scripted_salience_policy(),
                                settings=EpisodeSettings(max_steps=2))
        # one probe, then forced finalize on whatever frontier exists
        assert res.state.status in (EpisodeStatus.FINALIZED, EpisodeStatus.EXHAUSTED)
        decisions = [e for e in res.trace.events if e.kind is EventKind.DECISION]
        assert len(decisions) <= 2

    def test_invalid_max_steps(self):
        with pytest.raises(ConfigError, match="max_steps must be >= 1"):
            EpisodeSettings(max_steps=0)

    def test_every_episode_terminates_within_budget(self):
        for difficulty in Difficulty:
            for seed in range(15):
                _, res = run_seeded(seed, difficulty)
                decisions = sum(1 for e in res.trace.events
                                if e.kind is EventKind.DECISION)
                assert decisions <= 12
                assert res.state.status is not EpisodeStatus.RUNNING


class FailingBackend:
    def decide(self, ctx):
        raise BackendUnavailableError("llm down")


class FailAfterFirst:
    def __init__(self):
        self.inner = scripted_salience_policy()
        self.calls = 0

    def decide(self, ctx):
        self.calls += 1
        if self.calls > 1:
            raise BackendUnavailableError("llm down")
        return self.inner.decide(ctx)


class TestFaults:
    def test_backend_down_with_no_evidence_exhausts(self):
        desc = sample_episode(WORLD, 0, Difficulty.EASY)
        res = synthetic_episode(WORLD, desc, FailingBackend())
        assert res.state.status is EpisodeStatus.EXHAUSTED
        [decision_or_error] = kinds(res.trace)
        assert decision_or_error is EventKind.ERROR
        error = res.trace.events[0]
        assert error.payload["error"] == "BackendUnavailable"
        report = replay(res.trace, WORLD.gazetteer, TAGS)
        assert report.final_state.status is EpisodeStatus.EXHAUSTED
        with pytest.raises(HashMismatchError):  # an episode always records its end
            replay(Trace(res.trace.header, ()), WORLD.gazetteer, TAGS)

    def test_backend_down_after_evidence_concludes(self):
        desc = sample_episode(WORLD, 5, Difficulty.MEDIUM)
        res = synthetic_episode(WORLD, desc, FailAfterFirst())
        assert res.finalized
        assert res.prediction is not None
        last_decision = [e for e in res.trace.events
                         if e.kind is EventKind.DECISION][-1]
        assert "backend unavailable" in last_decision.payload["decision"]["thought"]
        replay(res.trace, WORLD.gazetteer, TAGS)

    def test_all_tools_disabled_exhausts(self):
        desc = sample_episode(WORLD, 2, Difficulty.EASY)
        res = synthetic_episode(WORLD, desc, scripted_salience_policy(),
                                settings=EpisodeSettings(ablation=AblationConfig(frozenset())))
        assert res.state.status is EpisodeStatus.EXHAUSTED
        for event in res.trace.events:
            if event.kind is EventKind.EXECUTION:
                for r in event.payload["results"]:
                    assert r["error"] == "ToolDisabled"
        report = replay(res.trace, WORLD.gazetteer, TAGS)
        assert report.final_state.status is EpisodeStatus.EXHAUSTED

    def test_stubborn_repeating_backend_is_cut_off(self):
        action = Action(1, M.ENVIRONMENTAL, Tool.CAPTION, {"image": "scene/0"})

        class Stubborn:
            def decide(self, ctx):
                return Decision(thought="again",
                                actions=(Action(ctx.next_action_id, M.ENVIRONMENTAL,
                                                Tool.CAPTION, {"image": "scene/0"}),))

        desc = sample_episode(WORLD, 5, Difficulty.MEDIUM)
        res = synthetic_episode(WORLD, desc, Stubborn())
        decisions = [e for e in res.trace.events if e.kind is EventKind.DECISION]
        # first probe runs; second attempt repeats, is re-asked, then forced out
        assert len(decisions) == 2
        assert decisions[1].payload["decision"]["finalize"] is True
        assert res.state.status in (EpisodeStatus.FINALIZED, EpisodeStatus.EXHAUSTED)
        replay(res.trace, WORLD.gazetteer, TAGS)


class MultiProbeBackend:
    """First turn: parallel OCR + caption; then defer to the scripted rules."""

    def __init__(self):
        self.inner = scripted_salience_policy()

    def decide(self, ctx):
        if ctx.step == 1:
            return Decision(
                thought="parallel probes",
                actions=(
                    Action(ctx.next_action_id, M.SEMANTIC_SYMBOL, Tool.OCR,
                           {"image": "scene/0"}),
                    Action(ctx.next_action_id + 1, M.ENVIRONMENTAL, Tool.CAPTION,
                           {"image": "scene/0"}),
                ),
            )
        return self.inner.decide(ctx)


class TestBatchBookkeeping:
    def test_parallel_batch_keeps_ids_sequential(self):
        desc = sample_episode(WORLD, 3, Difficulty.EASY)
        res = synthetic_episode(WORLD, desc, MultiProbeBackend())
        assert res.finalized
        exec_event = next(e for e in res.trace.events
                          if e.kind is EventKind.EXECUTION)
        assert [r["action_id"] for r in exec_event.payload["results"]] == [1, 2]
        proj = next(e for e in res.trace.events if e.kind is EventKind.PROJECTION)
        ids = [ev["id"] for ev in proj.payload["evidence"]]
        assert ids == sorted(ids) and len(ids) == len(set(ids))
        replay(res.trace, WORLD.gazetteer, TAGS)

    def test_action_ids_monotone_across_steps(self):
        _, res = run_seeded(9, Difficulty.MEDIUM)
        seen = []
        for event in res.trace.events:
            if event.kind is EventKind.DECISION:
                seen.extend(a["id"] for a in event.payload["decision"]["actions"])
        assert seen == sorted(seen) and len(seen) == len(set(seen))


class FiveProbeBackend:
    """First turn: five parallel probes; then defer to the scripted rules."""

    def __init__(self):
        self.inner = scripted_salience_policy()

    def decide(self, ctx):
        if ctx.step > 1:
            return self.inner.decide(ctx)
        probes = [(M.SEMANTIC_SYMBOL, Tool.OCR, {"image": "scene/0"}),
                  (M.ENVIRONMENTAL, Tool.CAPTION, {"image": "scene/0"}),
                  (M.IMAGE_MATCHING, Tool.IMAGE_SEARCH, {"image": "scene/0"}),
                  (M.INFRASTRUCTURE, Tool.KNOWLEDGE_BASE, {"query": "harbor"}),
                  (M.ENVIRONMENTAL, Tool.TEXT_SEARCH, {"query": "harbor"})]
        return Decision(thought="five probes", actions=tuple(
            Action(ctx.next_action_id + i, module, tool, args)
            for i, (module, tool, args) in enumerate(probes)))


def with_episode(trace, **changes):
    """``trace`` with its header's episode settings changed."""
    header = replace(trace.header, episode={**trace.header.episode, **changes})
    return Trace(header, trace.events)


class TestReplayUnderRecordedSettings:
    """Replay runs under the episode settings the trace header records."""

    def replays(self, res):
        report = replay(res.trace, WORLD.gazetteer, TAGS)
        assert report.final_state == res.state
        return report

    def test_five_action_decision(self):
        desc = sample_episode(WORLD, 3, Difficulty.EASY)
        res = synthetic_episode(WORLD, desc, FiveProbeBackend(),
                                settings=EpisodeSettings(max_parallel=5))
        assert len(res.trace.events[0].payload["decision"]["actions"]) == 5
        self.replays(res)
        with pytest.raises(HashMismatchError) as ei:  # a Decision parsed under 4
            replay(with_episode(res.trace, max_parallel=4), WORLD.gazetteer, TAGS)
        assert ei.value.seq == 0

    def test_larger_context_budget(self):
        desc = sample_episode(WORLD, 5, Difficulty.MEDIUM)
        self.replays(synthetic_episode(WORLD, desc, scripted_salience_policy(),
                                       settings=EpisodeSettings(context_budget=50_000)))

    def test_without_text_search(self):
        from geoprobe.executor import ALL_TOOLS, LABEL_NO_TEXT_SEARCH

        ablation = AblationConfig(ALL_TOOLS - {Tool.TEXT_SEARCH})
        assert ablation.label() == LABEL_NO_TEXT_SEARCH
        desc = sample_episode(WORLD, 9, Difficulty.MEDIUM)
        res = synthetic_episode(WORLD, desc, scripted_salience_policy(),
                                settings=EpisodeSettings(ablation=ablation))
        results = [r for e in res.trace.events if e.kind is EventKind.EXECUTION
                   for r in e.payload["results"]]
        assert any(r["error"] == "ToolDisabled" for r in results)
        self.replays(res)

    def test_max_steps_below_the_recorded_turns_is_rejected(self):
        desc = sample_episode(WORLD, 0, Difficulty.HARD)
        res = synthetic_episode(WORLD, desc, scripted_salience_policy())
        decisions = [e.seq for e in res.trace.events if e.kind is EventKind.DECISION]
        assert len(decisions) > 2
        with pytest.raises(HashMismatchError) as ei:  # the second step must conclude
            replay(with_episode(res.trace, max_steps=2), WORLD.gazetteer, TAGS)
        assert ei.value.seq == decisions[1]


class TestPoiHintDerivation:
    def ev(self, eid, conf, point, constraint=("cn-a-1",)):
        return Evidence(
            id=eid, source_action_id=eid, claim=f"e{eid}",
            constraint=frozenset(constraint), confidence=conf,
            provenance=Provenance(eid, "h" * 64), point=point,
        )

    def test_no_points_no_hint(self):
        state = EpisodeState(chain=(self.ev(1, 0.9, None),))
        assert derive_poi_hint(state, GAZ) is None

    def test_highest_confidence_point_wins(self):
        state = EpisodeState(chain=(
            self.ev(1, 0.5, GeoPoint(30.5, 114.3)),          # Rivertown
            self.ev(2, 0.9, GeoPoint(39.1, 117.2), ("cn-b-1",)),  # Harborville
        ))
        hint = derive_poi_hint(state, GAZ)
        assert hint.city == "Harborville"
        assert hint.point == GeoPoint(39.1, 117.2)

    def test_tie_broken_by_lowest_id(self):
        state = EpisodeState(chain=(
            self.ev(1, 0.9, GeoPoint(30.5, 114.3)),
            self.ev(2, 0.9, GeoPoint(39.1, 117.2), ("cn-b-1",)),
        ))
        assert derive_poi_hint(state, GAZ).city == "Rivertown"

    def test_inactive_evidence_ignored(self):
        state = EpisodeState(
            chain=(self.ev(1, 0.9, GeoPoint(30.5, 114.3)),),
            inactive_ids=frozenset({1}),
        )
        assert derive_poi_hint(state, GAZ) is None

    def test_point_outside_frontier_cover_ignored(self):
        state = EpisodeState(
            space=CandidateSpace(frozenset({"cn-b"}), False),
            chain=(self.ev(1, 0.9, GeoPoint(30.5, 114.3)),),  # in cn-a-1
        )
        assert derive_poi_hint(state, GAZ) is None

    def test_unmappable_point_ignored(self):
        state = EpisodeState(chain=(self.ev(1, 0.9, GeoPoint(-60.0, 0.0)),))
        assert derive_poi_hint(state, GAZ) is None


class TestRunEpisodeDirect:
    def test_custom_recorder_and_empty_adapters(self):
        header = TraceHeader(gazetteer_hash=GAZ.content_hash(), config_hash="t")
        recorder = TraceRecorder(header)
        res = run_episode(scripted_salience_policy(), {}, GAZ, recorder,
                          image_ref="img/1", descriptor=None,
                          settings=EpisodeSettings(max_steps=3))
        assert isinstance(res, EpisodeResult)
        # caption probe fails (no adapter), nothing to conclude from
        assert res.state.status is EpisodeStatus.EXHAUSTED
        assert kinds(res.trace)[-1] is EventKind.ERROR
        assert replay(res.trace, GAZ).final_state.snapshot_hash == res.state.snapshot_hash


#: The helpers ``perfbench/tracing.py`` times by patching them on the engine
#: module, where the episode loop looks them up. It patches ``compress`` there
#: too, but only ``planner.build_prompt`` calls it, so a scripted episode
#: does not.
PATCHED_BY_PERFBENCH = ("apply_evidence_report", "finalize", "derive_poi_hint",
                        "extract_evidence", "execute_batch", "decide_next",
                        "reverse_geocode")


def test_episode_reaches_every_helper_perfbench_patches(monkeypatch):
    """A refactor that stops calling one of them through the engine module
    would leave that layer untimed in the benchmark."""
    from geoprobe import engine

    counts = dict.fromkeys(PATCHED_BY_PERFBENCH, 0)
    for name in PATCHED_BY_PERFBENCH:
        def counting(*args, _name=name, _inner=getattr(engine, name), **kwargs):
            counts[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(engine, name, counting)
    _, res = run_seeded(3, Difficulty.EASY)  # a POI clue: derive_poi_hint geocodes it
    assert res.finalized
    assert all(counts.values()), counts


# -- one episode path ---------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "geoprobe"


def holders(matches, sources: dict[str, str]) -> set[str]:
    """Where ``sources`` (module name to text) hold a syntax node that
    ``matches``: ``module.function``, ``module.Class.method``, or
    ``module.<statement>`` outside any function; a nested function counts
    as the one it is nested in."""
    found = set()

    def scan(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                scan(node.body, f"{prefix}{node.name}.")
            elif any(matches(n) for n in ast.walk(node)):
                found.add(prefix + getattr(node, "name", "<statement>"))

    for module, text in sources.items():
        scan(ast.parse(text).body, f"{module}.")
    return found


def referrers(name: str, sources: dict[str, str]) -> set[str]:
    """Where ``sources`` name ``name``, as a plain name or an attribute."""
    return holders(lambda n: isinstance(n, ast.Name) and n.id == name
                   or isinstance(n, ast.Attribute) and n.attr == name, sources)


SOURCES = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def test_every_episode_goes_through_record_episode_or_replay():
    """No third episode path: the loop runs only under ``record_episode``
    (the benchmark and ``geoprobe run``) and ``replay``."""
    assert referrers("run_episode", SOURCES) == {"engine.record_episode", "engine.replay"}
    assert referrers("record_episode", SOURCES) == {"bench.run_benchmark", "cli.cmd_run"}


def test_episode_path_guard_sees_a_new_caller():
    extra = {"extra": "class Runner:\n    def go(self, b):\n"
                      "        def inner():\n            return engine.run_episode(b)\n"
                      "        return inner()\n"
                      "RUN = run_episode\n"}
    assert referrers("run_episode", {**SOURCES, **extra}) == {
        "engine.record_episode", "engine.replay", "extra.Runner.go", "extra.<statement>"}


# -- one place renders a prompt -----------------------------------------------

PROMPT_RENDERERS = ("compress", "summarize_space", "describe_scene", "render_action_schema")


def test_prompt_sections_are_rendered_only_by_build_prompt():
    """The episode loop hands backends structures; a prompt's text sections
    are rendered where the prompt is built. Imports do not count."""
    for name in PROMPT_RENDERERS:
        assert referrers(name, SOURCES) == {"planner.build_prompt"}, name


def test_prompt_guard_sees_a_new_caller():
    extra = {"extra": "def step(state, events, g):\n"
                      "    return recorder.compress(state, events, g)\n"}
    assert referrers("compress", {**SOURCES, **extra}) == {
        "planner.build_prompt", "extra.step"}


# -- one JSON form on the trace and hash path ---------------------------------

#: The modules that write trace lines and build what the hashes cover, and
#: the one that replays traces and compares their events.
TRACE_AND_HASH_MODULES = ("recorder", "state", "executor", "engine")


def test_trace_and_hash_path_encode_only_through_canonical_json():
    """Trace lines, hashed bytes and replay's comparison of events have one
    JSON form, ``canonical_json``; no second encoder is called or built on
    their path."""
    sources = {name: SOURCES[name] for name in TRACE_AND_HASH_MODULES}
    for name in ("dumps", "JSONEncoder"):
        assert referrers(name, sources) == set(), name


def test_json_form_guard_sees_a_new_caller():
    extra = {"recorder": SOURCES["recorder"] + "\n\ndef line(obj):\n    return json.dumps(obj)\n"}
    assert referrers("dumps", extra) == {"recorder.line"}


#: JSON object text as a canonical line spells it: a member name after
#: ``{`` or ``,``, with no space after its colon. (Prose that shows a JSON
#: example, as ``load_tag_table``'s docstring does, spaces it.)
OBJECT_TEXT = re.compile(r'[{,]"[^"\\]*":(?! )')


def holds_object_text(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is str \
        and OBJECT_TEXT.search(node.value) is not None


def test_no_json_object_text_is_built_by_hand():
    """An encoded fragment gets into a line as a ``canonical.Raw`` value
    that ``canonical_compose`` writes in; no string constant on the trace
    and hash path, docstrings included, holds object text to splice at."""
    sources = {name: SOURCES[name] for name in TRACE_AND_HASH_MODULES}
    assert holders(holds_object_text, sources) == set()


def test_object_text_guard_sees_a_new_caller():
    extra = {"engine": SOURCES["engine"] + (
        "\n\ndef results(parts):\n    return '{\"results\":[' + ','.join(parts) + ']}'\n"
        "\n\nclass Event:\n    def line(self, rest, at):\n"
        "        return rest[:at] + ',\"payload\":' + self.payload + rest[at:]\n")}
    assert holders(holds_object_text, extra) == {"engine.results", "engine.Event.line"}
