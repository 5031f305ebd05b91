"""Batch execution semantics and per-tool evidence extraction rules."""

import random
import threading
import time

import pytest

from geoprobe.actions import Action, CapabilityModule, Tool
from geoprobe.errors import ConfigError, UnknownRegionError
from geoprobe.executor import (
    ALL_TOOLS,
    CONF_COORD_MATCH,
    CONF_NAME_MATCH,
    CONF_TAG_MATCH,
    LABEL_FULL,
    LABEL_NO_IMAGE_SEARCH,
    LABEL_NO_TEXT_SEARCH,
    LABEL_NO_TOOLS,
    AblationConfig,
    EpisodeSettings,
    ToolResult,
    ToolStatus,
    execute_batch,
    extract_evidence,
    find_region_names,
)
from geoprobe.geo import AdminRegion, Gazetteer, GeoPoint, RegionLevel

from conftest import small_gazetteer

M = CapabilityModule


def act(i, tool=Tool.CAPTION, module=M.ENVIRONMENTAL, **args):
    if not args:
        args = {"image": "scene/0"}
    return Action(i, module, tool, args)


def ok(action, payload):
    return ToolResult.succeed(action, payload)


# ---------------------------------------------------------------------------
# ToolResult invariants


class TestToolResult:
    def test_ok_requires_payload(self):
        with pytest.raises(ValueError):
            ToolResult(1, Tool.CAPTION, ToolStatus.OK)

    def test_ok_forbids_error(self):
        with pytest.raises(ValueError):
            ToolResult(1, Tool.CAPTION, ToolStatus.OK, {"a": 1}, error="boom")

    def test_failure_forbids_payload(self):
        with pytest.raises(ValueError):
            ToolResult(1, Tool.CAPTION, ToolStatus.TOOL_ERROR, {"a": 1}, error="boom")

    def test_failure_requires_error(self):
        with pytest.raises(ValueError):
            ToolResult(1, Tool.CAPTION, ToolStatus.TOOL_ERROR)

    def test_succeed_constructor(self):
        r = ToolResult.succeed(act(3), {"caption": "hi"}, latency_ms=4.5)
        assert r.ok and r.action_id == 3 and r.tool is Tool.CAPTION
        assert r.payload == {"caption": "hi"} and r.latency_ms == 4.5

    def test_fail_constructor(self):
        r = ToolResult.fail(act(2), "BadResponse", detail="raw body")
        assert not r.ok and r.status is ToolStatus.TOOL_ERROR
        assert r.error == "BadResponse" and r.detail == "raw body"

    def test_timed_out_constructor(self):
        r = ToolResult.timed_out(act(9), latency_ms=20000.0)
        assert r.status is ToolStatus.TIMEOUT and r.error == "Timeout"

    def test_payload_hash_tracks_content(self):
        a, b = ok(act(1), {"x": 1}), ok(act(1), {"x": 2})
        assert a.payload_sha256 != b.payload_sha256
        assert a.payload_sha256 == ok(act(2), {"x": 1}).payload_sha256

    def test_to_json_includes_hash(self):
        j = ok(act(1), {"x": 1}).to_json()
        assert j["status"] == "Ok" and j["payload_sha256"]
        assert j["tool"] == "Caption"

    def test_payload_hashed_once_per_episode_step(self, monkeypatch, tmp_path):
        # The Execution event, its trace line and the provenance of every
        # evidence extracted from a result share one encoding of its payload.
        from geoprobe import executor
        from conftest import synthetic_episode
        from geoprobe.planner import scripted_salience_policy
        from geoprobe.recorder import EventKind
        from geoprobe.synthworld import Difficulty, generate_world, sample_episode

        encoded = []
        real_encode = executor.canonical_json
        monkeypatch.setattr(executor, "canonical_json",
                            lambda obj: encoded.append(obj) or real_encode(obj))
        world = generate_world(11, 3, 5)
        desc = sample_episode(world, 4, Difficulty.MEDIUM)
        trace = synthetic_episode(world, desc, scripted_salience_policy(),
                                  trace_path=str(tmp_path / "t.jsonl")).trace
        results = [r for e in trace.events if e.kind is EventKind.EXECUTION
                   for r in e.payload["results"]]
        evidence = [ev for e in trace.events if e.kind is EventKind.PROJECTION
                    for ev in e.payload["evidence"]]
        assert evidence and any(r["status"] == "Ok" for r in results)
        payloads = {id(r["payload"]) for r in results}
        hashed = [obj for obj in encoded if id(obj) in payloads]
        assert sorted(map(id, hashed)) == sorted(id(r["payload"]) for r in results)


# ---------------------------------------------------------------------------
# Ablation config


class TestAblation:
    def test_default_allows_everything(self):
        cfg = AblationConfig()
        assert all(cfg.allows(t) for t in Tool)
        assert cfg.label() == LABEL_FULL

    def test_named_labels(self):
        assert AblationConfig(ALL_TOOLS - {Tool.IMAGE_SEARCH}).label() == LABEL_NO_IMAGE_SEARCH
        assert AblationConfig(ALL_TOOLS - {Tool.TEXT_SEARCH}).label() == LABEL_NO_TEXT_SEARCH
        assert AblationConfig(frozenset()).label() == LABEL_NO_TOOLS

    def test_custom_label_lists_tools(self):
        label = AblationConfig(frozenset({Tool.OCR, Tool.CAPTION})).label()
        assert label == "custom: Caption, Ocr"

    def test_settings_json_roundtrip(self):
        """A trace header records the ablation as a tool list, which reads
        back as the same condition."""
        for enabled in (ALL_TOOLS, ALL_TOOLS - {Tool.IMAGE_SEARCH},
                        ALL_TOOLS - {Tool.TEXT_SEARCH}, frozenset()):
            settings = EpisodeSettings(max_steps=3, ablation=AblationConfig(enabled))
            assert EpisodeSettings.from_json(settings.to_json()) == settings
        assert EpisodeSettings.from_json({}) == EpisodeSettings()

    def test_settings_unknown_tool(self):
        with pytest.raises(ConfigError, match="Teleport"):
            EpisodeSettings.from_json({"ablation": ["Teleport"]})

    def test_empty_config_disables_everything(self):
        cfg = AblationConfig(frozenset())
        assert not any(cfg.allows(t) for t in Tool)


# ---------------------------------------------------------------------------
# Batch execution


class CountingAdapter:
    """Echo adapter with optional latency jitter and call counting."""

    def __init__(self, tool, delay_range=(0.0, 0.0), rng=None, crash=False):
        self.tool = tool
        self.calls = 0
        self.lock = threading.Lock()
        self.delay_range = delay_range
        self.rng = rng or random.Random(0)
        self.crash = crash

    def execute(self, action):
        with self.lock:
            self.calls += 1
            delay = self.rng.uniform(*self.delay_range)
        if delay:
            time.sleep(delay)
        if self.crash:
            raise RuntimeError("adapter exploded")
        return ToolResult.succeed(action, {"echo": action.id})


def adapter_map(overrides=None):
    ads = {t: CountingAdapter(t) for t in Tool}
    ads.update(overrides or {})
    return ads


class TestExecuteBatch:
    def test_empty_batch(self):
        assert execute_batch([], adapter_map()) == []

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            execute_batch([act(1), act(1, Tool.OCR, M.SEMANTIC_SYMBOL)], adapter_map())

    def test_results_sorted_by_action_id_under_jitter(self):
        rng = random.Random(42)
        ads = {
            t: CountingAdapter(t, delay_range=(0.0, 0.02), rng=rng) for t in Tool
        }
        for trial in range(3):
            actions = [act(i) for i in (5, 1, 9, 3, 7, 2, 8, 4)]
            results = execute_batch(actions, ads, max_workers=8)
            assert [r.action_id for r in results] == [1, 2, 3, 4, 5, 7, 8, 9]
            assert all(r.ok and r.payload == {"echo": r.action_id} for r in results)

    def test_cardinality_preserved(self):
        actions = [act(i) for i in range(1, 12)]
        assert len(execute_batch(actions, adapter_map())) == len(actions)

    def test_disabled_tool_never_touches_adapter(self):
        image_search = CountingAdapter(Tool.IMAGE_SEARCH)
        ads = adapter_map({Tool.IMAGE_SEARCH: image_search})
        cfg = AblationConfig(ALL_TOOLS - {Tool.IMAGE_SEARCH})
        actions = [
            act(1),
            act(2, Tool.IMAGE_SEARCH, M.IMAGE_MATCHING, image="scene/0"),
        ]
        results = execute_batch(actions, ads, cfg)
        assert results[0].ok
        assert results[1].status is ToolStatus.TOOL_ERROR
        assert results[1].error == "ToolDisabled"
        assert image_search.calls == 0

    def test_all_tools_disabled(self):
        ads = adapter_map()
        results = execute_batch([act(1), act(2, Tool.OCR, M.SEMANTIC_SYMBOL)],
                                ads, AblationConfig(frozenset()))
        assert all(r.error == "ToolDisabled" for r in results)
        assert all(a.calls == 0 for a in ads.values())

    def test_missing_adapter(self):
        ads = {Tool.CAPTION: CountingAdapter(Tool.CAPTION)}
        results = execute_batch(
            [act(1), act(2, Tool.GEOCODE, M.SEMANTIC_SYMBOL, query="x")], ads
        )
        assert results[0].ok
        assert results[1].error == "NoAdapter"

    def test_adapter_crash_contained(self):
        ads = adapter_map({Tool.CAPTION: CountingAdapter(Tool.CAPTION, crash=True)})
        results = execute_batch([act(1), act(2, Tool.OCR, M.SEMANTIC_SYMBOL)], ads)
        assert results[0].error == "AdapterCrash"
        assert "exploded" in results[0].detail
        assert results[1].ok

    def test_single_action_runs_inline(self):
        ads = adapter_map()
        [r] = execute_batch([act(4)], ads)
        assert r.ok and r.action_id == 4


# ---------------------------------------------------------------------------
# Name scanning


class TestFindRegionNames:
    def test_finds_names_case_insensitively(self, gaz):
        ids = find_region_names("Welcome to RIVERTOWN, Aprov", gaz)
        assert ids == frozenset({"cn-a-1", "cn-a"})

    def test_no_match(self, gaz):
        assert find_region_names("nothing to see here", gaz) == frozenset()

    def test_short_names_ignored(self):
        g = Gazetteer([
            AdminRegion("x", RegionLevel.COUNTRY, "A", GeoPoint(0, 0), 1000.0),
        ])
        assert find_region_names("a plain sentence", g) == frozenset()


# ---------------------------------------------------------------------------
# Evidence extraction


def geocode_act(i, query="x"):
    return Action(i, M.SEMANTIC_SYMBOL, Tool.GEOCODE, {"query": query})


class TestExtraction:
    def test_failed_result_yields_nothing(self, gaz):
        r = ToolResult.fail(act(1), "Timeout")
        assert extract_evidence(r, gaz) == []

    def test_ocr_span_with_names(self, gaz):
        r = ok(act(1, Tool.OCR, M.SEMANTIC_SYMBOL),
               {"spans": [{"text": "Rivertown station"}, {"text": "no places"}]})
        [e] = extract_evidence(r, gaz, start_id=5)
        assert e.id == 5 and e.source_action_id == 1
        assert e.constraint == frozenset({"cn-a-1"})
        assert e.confidence == CONF_NAME_MATCH
        assert e.claim == "Rivertown station"
        assert e.provenance.payload_sha256 == r.payload_sha256

    def test_ocr_empty_spans(self, gaz):
        r = ok(act(1, Tool.OCR, M.SEMANTIC_SYMBOL), {"spans": []})
        assert extract_evidence(r, gaz) == []

    def test_kb_record_with_coordinates(self, gaz):
        r = ok(act(2, Tool.KNOWLEDGE_BASE, M.SEMANTIC_SYMBOL),
               {"records": [{"title": "Harborville docks", "body": "In Bprov.",
                             "lat": 39.1, "lon": 117.2}]})
        [e] = extract_evidence(r, gaz)
        assert e.constraint == frozenset({"cn-b-1", "cn-b"})
        assert e.confidence == CONF_NAME_MATCH
        assert e.point == GeoPoint(39.1, 117.2)

    def test_kb_record_without_names(self, gaz):
        r = ok(act(2, Tool.KNOWLEDGE_BASE, M.SEMANTIC_SYMBOL),
               {"records": [{"title": "generic", "body": "nothing located"}]})
        assert extract_evidence(r, gaz) == []

    def test_text_search_pools_hits_into_one_evidence(self, gaz):
        r = ok(act(3, Tool.TEXT_SEARCH, M.ENVIRONMENTAL),
               {"hits": [
                   {"title": "a", "lat": 30.5, "lon": 114.3},   # Rivertown
                   {"title": "b", "lat": 39.1, "lon": 117.2},   # Harborville
                   {"title": "c"},                               # no coords
                   {"title": "d", "lat": 0.0, "lon": 0.0},       # no city
               ]})
        [e] = extract_evidence(r, gaz)
        assert e.constraint == frozenset({"cn-a-1", "cn-b-1"})
        assert e.confidence == CONF_COORD_MATCH
        assert "Harborville" in e.claim and "Rivertown" in e.claim

    def test_text_search_ambiguous_point_ignored(self):
        # Two overlapping city discs: a point inside both pins neither.
        g = Gazetteer([
            AdminRegion("c", RegionLevel.COUNTRY, "Landia", GeoPoint(0, 0), 3000.0),
            AdminRegion("c-p", RegionLevel.PROVINCE, "Provia", GeoPoint(0, 0), 400.0, "c"),
            AdminRegion("c-p-1", RegionLevel.CITY, "Twin East", GeoPoint(0, 0.1), 40.0, "c-p"),
            AdminRegion("c-p-2", RegionLevel.CITY, "Twin West", GeoPoint(0, -0.1), 40.0, "c-p"),
        ])
        r = ok(act(3, Tool.TEXT_SEARCH, M.ENVIRONMENTAL),
               {"hits": [{"title": "midpoint", "lat": 0.0, "lon": 0.0}]})
        assert extract_evidence(r, g) == []

    def test_text_search_no_hits(self, gaz):
        r = ok(act(3, Tool.TEXT_SEARCH, M.ENVIRONMENTAL), {"hits": []})
        assert extract_evidence(r, gaz) == []

    def test_image_search_region_id_candidates(self, gaz):
        r = ok(act(4, Tool.IMAGE_SEARCH, M.IMAGE_MATCHING),
               {"candidates": [
                   {"region_id": "cn-a-1", "score": 0.95},
                   {"region_id": "cn-a-2", "score": 0.6},
               ]})
        evs = extract_evidence(r, gaz, start_id=7)
        assert [e.id for e in evs] == [7, 8]
        assert evs[0].constraint == frozenset({"cn-a-1"}) and evs[0].confidence == 0.95
        assert evs[1].constraint == frozenset({"cn-a-2"}) and evs[1].confidence == 0.6

    def test_image_search_scores_clamped(self, gaz):
        r = ok(act(4, Tool.IMAGE_SEARCH, M.IMAGE_MATCHING),
               {"candidates": [
                   {"region_id": "cn-a-1", "score": 1.7},
                   {"region_id": "cn-a-2", "score": -0.2},
               ]})
        evs = extract_evidence(r, gaz)
        assert [e.confidence for e in evs] == [1.0, 0.0]

    def test_image_search_unknown_region_raises(self, gaz):
        r = ok(act(4, Tool.IMAGE_SEARCH, M.IMAGE_MATCHING),
               {"candidates": [{"region_id": "atlantis", "score": 0.9}]})
        with pytest.raises(UnknownRegionError):
            extract_evidence(r, gaz)

    def test_image_search_coordinate_candidate(self, gaz):
        r = ok(act(4, Tool.IMAGE_SEARCH, M.IMAGE_MATCHING),
               {"candidates": [{"lat": 35.68, "lon": 139.76, "score": 0.8}]})
        [e] = extract_evidence(r, gaz)
        assert e.constraint == frozenset({"jp-a-1"})
        assert e.confidence == 0.8
        assert e.point == GeoPoint(35.68, 139.76)

    def test_image_search_unplaceable_candidate_skipped(self, gaz):
        r = ok(act(4, Tool.IMAGE_SEARCH, M.IMAGE_MATCHING),
               {"candidates": [{"lat": 0.0, "lon": 0.0, "score": 0.8}, {"score": 0.9}]})
        assert extract_evidence(r, gaz) == []

    def test_caption_tags_with_table(self, gaz):
        table = {"rice-paddies": frozenset({"cn-a"}), "neon": frozenset({"jp-a-1"})}
        r = ok(act(5), {"caption": "x", "tags": ["rice-paddies", "surf", "neon"]})
        evs = extract_evidence(r, gaz, tag_table=table)
        assert [(e.claim, e.constraint, e.confidence) for e in evs] == [
            ("scene tag: rice-paddies", frozenset({"cn-a"}), CONF_TAG_MATCH),
            ("scene tag: neon", frozenset({"jp-a-1"}), CONF_TAG_MATCH),
        ]

    def test_caption_without_table(self, gaz):
        r = ok(act(5), {"caption": "x", "tags": ["rice-paddies"]})
        assert extract_evidence(r, gaz) == []

    def test_caption_unknown_table_region_raises(self, gaz):
        table = {"x": frozenset({"nowhere"})}
        r = ok(act(5), {"caption": "x", "tags": ["x"]})
        with pytest.raises(UnknownRegionError):
            extract_evidence(r, gaz, tag_table=table)

    def test_geocode_region_id_match(self, gaz):
        r = ok(geocode_act(6), {"matches": [
            {"name": "Rivertown", "lat": 30.5, "lon": 114.3, "region_id": "cn-a-1"},
        ]})
        [e] = extract_evidence(r, gaz)
        assert e.constraint == frozenset({"cn-a-1"})
        assert e.confidence == CONF_NAME_MATCH
        assert e.point == GeoPoint(30.5, 114.3)
        assert e.claim == "Rivertown"

    def test_geocode_coordinate_only_match(self, gaz):
        r = ok(geocode_act(6), {"matches": [{"name": "some pier", "lat": 39.1, "lon": 117.2}]})
        [e] = extract_evidence(r, gaz)
        assert e.constraint == frozenset({"cn-b-1"})
        assert e.confidence == CONF_COORD_MATCH

    def test_geocode_unknown_region_raises(self, gaz):
        r = ok(geocode_act(6), {"matches": [{"name": "x", "region_id": "nowhere"}]})
        with pytest.raises(UnknownRegionError):
            extract_evidence(r, gaz)

    def test_geocode_no_matches(self, gaz):
        r = ok(geocode_act(6), {"matches": []})
        assert extract_evidence(r, gaz) == []

    def test_crop_yields_nothing(self, gaz):
        r = ok(Action(7, M.IMAGE_MATCHING, Tool.CROP,
                      {"image": "scene/0", "box": [0.1, 0.1, 0.5, 0.5]}),
               {"image": "scene/0#crop(0.10,0.10,0.50,0.50)", "box": [0.1, 0.1, 0.5, 0.5]})
        assert extract_evidence(r, gaz) == []

    @pytest.mark.parametrize("tool, payload", [
        (Tool.IMAGE_SEARCH, {"candidates": [{"region_id": "cn-a-1", "score": "high"}]}),
        (Tool.TEXT_SEARCH, {"hits": [{"title": "a", "lat": "north", "lon": 114.3}]}),
        (Tool.GEOCODE, {"matches": [{"name": "pier", "lat": 95.0, "lon": 117.2}]}),
        (Tool.KNOWLEDGE_BASE, {"records": [{"title": "Rivertown", "lat": [30.5], "lon": 114.3}]}),
        (Tool.GEOCODE, {"matches": [{"name": "Rivertown", "region_id": ["cn-a-1"]}]}),
        (Tool.IMAGE_SEARCH, {"candidates": [{"region_id": "cn-a-1", "score": 0.9}, "cn-a-2"]}),
        (Tool.CAPTION, {"caption": "x", "tags": 5}),
        (Tool.TEXT_SEARCH, {"hits": [{"title": "a", "lat": "30.5", "lon": 114.3}]}),
        (Tool.IMAGE_SEARCH, {"candidates": [{"region_id": "cn-a-1", "score": "0.9"}]}),
        (Tool.IMAGE_SEARCH, {"candidates": [{"region_id": "cn-a-1", "score": True}]}),
        (Tool.KNOWLEDGE_BASE, {"records": [{"title": ["Rivertown"], "body": ""}]}),
    ], ids=["string score", "string lat", "lat 95", "list lat", "list region id",
            "string candidate", "int tags", "numeric string lat", "numeric string score",
            "bool score", "list title"])
    def test_mistyped_payload_yields_nothing(self, gaz, tool, payload):
        table = {"rice-paddies": frozenset({"cn-a"})}
        r = ok(Action(1, M.SEMANTIC_SYMBOL, tool, {}), payload)
        assert extract_evidence(r, gaz, tag_table=table) == []

    def test_ids_sequential_from_start(self, gaz):
        r = ok(act(1, Tool.OCR, M.SEMANTIC_SYMBOL),
               {"spans": [{"text": "Rivertown"}, {"text": "Lakeside"}, {"text": "Edotown"}]})
        evs = extract_evidence(r, gaz, start_id=100)
        assert [e.id for e in evs] == [100, 101, 102]
        assert all(e.source_action_id == 1 for e in evs)
