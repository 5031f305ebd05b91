"""Trace recording, replay verification, tamper detection, compression."""

import json
import os
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geoprobe import engine
from geoprobe import state as state_module
from geoprobe.actions import Action, CapabilityModule, Decision, Tool
from geoprobe.bench import make_benchmark, run_benchmark
from geoprobe.canonical import canonical_hash, sha256_hex
from geoprobe.engine import replay
from geoprobe.executor import (DEFAULT_MAX_STEPS, MAX_PARALLEL_LIMIT, EpisodeSettings,
                               ToolResult)
from geoprobe.errors import (
    BudgetTooSmallError,
    HashMismatchError,
    SeqGapError,
    TraceFormatError,
)
from geoprobe.geo import RegionLevel
from geoprobe.recorder import (
    CompressedContext,
    EventKind,
    Trace,
    TraceHeader,
    TraceRecorder,
    TrajectoryEvent,
    compress,
    frontier_unchanged_steps,
    is_repetition,
    load_trace,
)
from geoprobe.planner import scripted_salience_policy
from geoprobe.state import (
    EpisodeState,
    Evidence,
    PoiHint,
    Prediction,
    Provenance,
    apply_evidence_report,
    finalize,
)
from geoprobe.synthworld import Difficulty, generate_world, sample_episode

from conftest import assert_canonical_lines, synthetic_episode


def ev(eid, constraint, conf=0.9, claim=None):
    return Evidence(
        id=eid,
        source_action_id=eid,
        claim=claim or f"street sign mentions region {eid}",
        constraint=frozenset(constraint),
        confidence=conf,
        provenance=Provenance(eid, "0" * 64),
    )


def result_payload(action_id, payload):
    return {
        "action_id": action_id,
        "tool": "Ocr",
        "status": "ok",
        "payload": payload,
        "payload_sha256": canonical_hash(payload),
    }


def record_episode(gaz, path=None, steps=None, finalize_at_end=True):
    """Drive a recorder through decision/execution/projection rounds.

    The events are written by hand, not by the engine, so replay rejects
    them; ``engine_episode`` records the same steps through ``run_episode``."""
    steps = steps if steps is not None else [[ev(1, ["cn-a"])], [ev(2, ["cn-a-1"])]]
    header = TraceHeader(gazetteer_hash=gaz.content_hash(), config_hash="cfg" * 8)
    rec = TraceRecorder(header, path)
    state = EpisodeState()
    for i, evs in enumerate(steps):
        decision = {
            "version": "1",
            "thought": f"step {i}",
            "actions": [
                {"id": e.id, "module": "SemanticSymbol", "tool": "Ocr",
                 "args": {"image": "scene/0"}}
                for e in evs
            ],
            "finalize": False,
            "poi_hint": None,
        }
        rec.record(EventKind.DECISION, state, {"decision": decision, "backend": "scripted"})
        results = [result_payload(e.id, {"text": e.claim}) for e in evs]
        rec.record(EventKind.EXECUTION, state, {"results": results})
        report = apply_evidence_report(state, list(evs), gaz)
        state = report.state
        rec.record(
            EventKind.PROJECTION,
            state,
            {
                "evidence": [e.to_json() for e in evs],
                "space": state.space.to_json(),
                "inactive_ids": sorted(state.inactive_ids),
            },
        )
        if report.backtracks:
            rec.record(
                EventKind.BACKTRACK,
                state,
                {"discards": [b.to_json() for b in report.backtracks]},
            )
    if finalize_at_end:
        decision = {"version": "1", "thought": "conclude", "actions": [], "finalize": True}
        rec.record(EventKind.DECISION, state, {"decision": decision, "backend": "scripted"})
        state, pred = finalize(state, gaz)
        rec.record(
            EventKind.FINALIZE, state, {"prediction": pred.to_json(), "poi_hint": None}
        )
    rec.close()
    return rec.trace(), state


class EvidenceScript:
    """Backend, and adapter of every tool, that make ``run_episode`` record
    ``steps``: each ``ev(id, [region], conf)`` is one ImageSearch probe
    answered by the candidate ``{"region_id": region, "score": conf}``, and
    the episode finalizes after the last step."""

    def __init__(self, steps):
        self.steps = steps
        self.answers = {f"scene/{e.id}": e for evs in steps for e in evs}

    def decide(self, ctx):
        if ctx.step > len(self.steps):
            return Decision(thought="conclude", finalize=True)
        return Decision(thought=f"step {ctx.step - 1}", actions=tuple(
            Action(ctx.next_action_id + i, CapabilityModule.IMAGE_MATCHING,
                   Tool.IMAGE_SEARCH, {"image": f"scene/{e.id}"})
            for i, e in enumerate(self.steps[ctx.step - 1])))

    def execute(self, action):
        e = self.answers[action.args["image"]]
        [region] = e.constraint
        return ToolResult.succeed(
            action, {"candidates": [{"region_id": region, "score": e.confidence}]})


def engine_episode(gaz, path=None, steps=None):
    """``record_episode``'s steps, recorded by the engine: ``(trace, final state)``."""
    script = EvidenceScript(steps if steps is not None
                            else [[ev(1, ["cn-a"])], [ev(2, ["cn-a-1"])]])
    result = engine.record_episode(script, dict.fromkeys(Tool, script), gaz,
                                   image_ref="scene/0", config_hash="cfg" * 8,
                                   trace_path=path)
    return result.trace, result.state


class TestRecorder:
    def test_seq_contiguous_from_zero(self, gaz):
        trace, _ = record_episode(gaz)
        assert [e.seq for e in trace.events] == list(range(len(trace.events)))

    def test_file_written_line_per_event(self, gaz, tmp_path):
        path = tmp_path / "t.jsonl"
        trace, _ = record_episode(gaz, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(trace.events)
        head = json.loads(lines[0])
        assert head["format_version"] == "1"
        assert head["gazetteer_hash"] == gaz.content_hash()

    def test_events_carry_state_hash(self, gaz):
        trace, final_state = record_episode(gaz)
        assert trace.events[-1].state_hash == final_state.snapshot_hash

    def test_context_manager(self, gaz, tmp_path):
        header = TraceHeader(gaz.content_hash(), "c")
        with TraceRecorder(header, str(tmp_path / "t.jsonl")) as rec:
            rec.record(EventKind.ERROR, EpisodeState(), {"message": "x"})
        assert len(load_trace(str(tmp_path / "t.jsonl")).events) == 1

    def test_in_memory_only(self, gaz):
        header = TraceHeader(gaz.content_hash(), "c")
        rec = TraceRecorder(header)
        rec.record(EventKind.ERROR, EpisodeState(), {"message": "x"})
        assert rec.path is None
        assert len(rec.trace().events) == 1


class TestRerecording:
    """A trace path that holds a file gets a new file, not a truncated one."""

    LONG = [[ev(1, ["cn-a"])], [ev(2, ["cn-a-1"])], [ev(3, ["cn-a-1-x"])]]
    SHORT = [[ev(1, ["cn-b"])]]

    def test_hard_link_to_the_old_trace_keeps_its_bytes(self, gaz, tmp_path):
        path = tmp_path / "t.jsonl"
        snapshot = tmp_path / "snapshot.jsonl"
        record_episode(gaz, str(path), steps=self.LONG)
        old = path.read_bytes()
        os.link(path, snapshot)
        record_episode(gaz, str(path), steps=self.SHORT)
        assert snapshot.read_bytes() == old
        assert path.read_bytes() != old
        assert not path.samefile(snapshot)

    def test_shorter_rerecording_leaves_no_stale_tail(self, gaz, tmp_path):
        path = tmp_path / "t.jsonl"
        engine_episode(gaz, str(path), steps=self.LONG)
        trace, final_state = engine_episode(gaz, str(path), steps=self.SHORT)
        assert len(path.read_text().splitlines()) == 1 + len(trace.events)
        loaded = load_trace(str(path))
        assert loaded.events == trace.events
        report = replay(loaded, gaz)
        assert report.final_state.snapshot_hash == final_state.snapshot_hash

    def test_symlink_at_the_path_is_replaced_not_followed(self, gaz, tmp_path):
        target = tmp_path / "elsewhere.jsonl"
        target.write_text("keep me\n")
        path = tmp_path / "t.jsonl"
        path.symlink_to(target)
        trace, _ = record_episode(gaz, str(path), steps=self.SHORT)
        assert not path.is_symlink()
        assert target.read_text() == "keep me\n"
        assert load_trace(str(path)).events == trace.events


HEADER_LINE = json.dumps(TraceHeader("g", "c").to_json())


def event_line(**fields):
    obj = {"seq": 0, "kind": "Error", "step": 0, "wall_time": 1.5,
           "payload": {}, "state_hash": "h"}
    obj.update(fields)
    return json.dumps(obj)


#: Malformed traces, as lines, each with the 1-based line load_trace must name.
MALFORMED_TRACES = {
    "invalid-utf8": ([HEADER_LINE, event_line(), b'{"seq": 1, "kind": "\xff\xfe"}'], 3),
    "seq-infinity": ([HEADER_LINE, event_line(seq=float("inf"))], 2),
    "seq-fraction": ([HEADER_LINE, event_line(seq=0.5)], 2),
    "seq-bool": ([HEADER_LINE, event_line(seq=False)], 2),
    "step-string": ([HEADER_LINE, event_line(step="0")], 2),
    "wall-time-overflow": ([HEADER_LINE, event_line(wall_time=10 ** 400)], 2),
    "integer-too-long": ([HEADER_LINE, '{"seq": ' + "9" * 5000 + "}"], 2),
    "deep-nesting": ([HEADER_LINE, "[" * 100_000 + "]" * 100_000], 2),
    "deep-header": (["[" * 100_000 + "]" * 100_000], 1),
}


def write_trace(path, lines):
    """Write ``lines`` (str or bytes), each ended by a newline; returns the path."""
    path.write_bytes(b"".join(
        (line.encode("utf-8") if isinstance(line, str) else line) + b"\n" for line in lines))
    return str(path)


class TestLoadTrace:
    @pytest.mark.parametrize("case", sorted(MALFORMED_TRACES))
    def test_malformed_line_is_named(self, tmp_path, case):
        lines, line = MALFORMED_TRACES[case]
        with pytest.raises(TraceFormatError) as ei:
            load_trace(write_trace(tmp_path / "t.jsonl", lines))
        assert ei.value.line == line

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_unicode_line_separators_stay_inside_their_event(self, gaz, tmp_path, separator):
        path = tmp_path / "t.jsonl"
        header = TraceHeader(gaz.content_hash(), "c")
        with TraceRecorder(header, str(path)) as rec:
            rec.record(EventKind.ERROR, EpisodeState(), {"message": f"a{separator}b"})
        assert load_trace(str(path)).events == tuple(rec.events)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(prefix=st.sampled_from([b"", HEADER_LINE.encode() + b"\n"]), data=st.binary())
    def test_arbitrary_bytes_load_or_raise_format_errors(self, tmp_path, prefix, data):
        path = tmp_path / "fuzz.jsonl"
        path.write_bytes(prefix + data)
        try:
            load_trace(str(path))
        except (TraceFormatError, SeqGapError):
            pass

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fields=st.dictionaries(
        st.sampled_from(["seq", "kind", "step", "wall_time", "payload", "state_hash"]),
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
            max_leaves=4),
    ))
    def test_arbitrary_event_fields_load_or_raise_format_errors(self, tmp_path, fields):
        try:
            load_trace(write_trace(tmp_path / "fuzz.jsonl", [HEADER_LINE, event_line(**fields)]))
        except (TraceFormatError, SeqGapError):
            pass

    def test_roundtrip(self, gaz, tmp_path):
        path = tmp_path / "t.jsonl"
        trace, _ = record_episode(gaz, str(path))
        loaded = load_trace(str(path))
        assert loaded.header == trace.header
        assert loaded.events == trace.events

    def test_missing_header(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text("")
        with pytest.raises(TraceFormatError) as ei:
            load_trace(str(p))
        assert ei.value.line == 1

    def test_bad_version(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"format_version": "9", "gazetteer_hash": "x", "config_hash": "y"}\n')
        with pytest.raises(TraceFormatError, match="format_version"):
            load_trace(str(p))

    def test_bad_event_json_line(self, gaz, tmp_path):
        path = tmp_path / "t.jsonl"
        record_episode(gaz, str(path))
        lines = path.read_text().splitlines()
        lines[3] = lines[3][:-5]  # chop the line apart
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError) as ei:
            load_trace(str(path))
        assert ei.value.line == 4

    def test_seq_gap_detected(self, gaz, tmp_path):
        path = tmp_path / "t.jsonl"
        record_episode(gaz, str(path))
        lines = path.read_text().splitlines()
        obj = json.loads(lines[2])
        obj["seq"] = 7
        lines[2] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SeqGapError) as ei:
            load_trace(str(path))
        assert ei.value.expected == 1
        assert ei.value.got == 7

    def test_blank_lines_tolerated(self, gaz, tmp_path):
        path = tmp_path / "t.jsonl"
        trace, _ = record_episode(gaz, str(path))
        with open(path, "a") as f:
            f.write("\n\n")
        assert len(load_trace(str(path)).events) == len(trace.events)


def tamper(path, predicate, mutate):
    """Rewrite the first event line of the trace at ``path`` that matches
    ``predicate`` through ``mutate``; returns the edited event's seq."""
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        obj = json.loads(line)
        if predicate(obj):
            mutate(obj)
            lines[i] = json.dumps(obj, ensure_ascii=False, sort_keys=True)
            path.write_text("\n".join(lines) + "\n")
            return obj["seq"]
    raise AssertionError("no line matched")


class TestReplay:
    def test_clean_trace_verifies(self, gaz, tmp_path):
        path = tmp_path / "t.jsonl"
        trace, final_state = engine_episode(gaz, str(path))
        report = replay(load_trace(str(path)), gaz)
        assert report.events_verified == len(trace.events)
        assert report.final_state.snapshot_hash == final_state.snapshot_hash
        assert report.prediction.city_name == "Rivertown"

    def test_replay_covers_backtracking(self, gaz):
        steps = [
            [ev(1, ["cn-a-1"], conf=0.6)],
            [ev(2, ["cn-b"], conf=0.9), ev(3, ["cn-b-1"], conf=0.8)],
        ]
        trace, final_state = engine_episode(gaz, steps=steps)
        assert any(e.kind is EventKind.BACKTRACK for e in trace.events)
        report = replay(trace, gaz)
        assert report.final_state.inactive_ids == final_state.inactive_ids == {1, 3}

    def test_gazetteer_mismatch(self, gaz):
        trace, _ = engine_episode(gaz)
        regions = gaz.regions()
        from geoprobe.geo import AdminRegion, Gazetteer
        regions[0] = AdminRegion(
            regions[0].id, regions[0].level, "Other", regions[0].centroid, regions[0].radius_km
        )
        with pytest.raises(HashMismatchError) as ei:
            replay(trace, Gazetteer(regions))
        assert ei.value.seq == -1

    def test_single_byte_payload_tamper_pinpointed(self, gaz, tmp_path):
        path = tmp_path / "t.jsonl"
        engine_episode(gaz, str(path))

        def mutate(obj):
            candidate = obj["payload"]["results"][0]["payload"]["candidates"][0]
            candidate["region_id"] = "cn-b"  # was "cn-a"

        seq = tamper(path, lambda o: o.get("kind") == "Execution", mutate)
        with pytest.raises(HashMismatchError) as ei:
            replay(load_trace(str(path)), gaz)
        assert ei.value.seq == seq
        assert "recorded Execution diverges" in str(ei.value)

    def test_doctored_frontier_pinpointed(self, gaz, tmp_path):
        path = tmp_path / "t.jsonl"
        engine_episode(gaz, str(path))

        def mutate(obj):
            obj["payload"]["space"]["frontier"] = ["cn-b"]

        seq = tamper(path, lambda o: o.get("kind") == "Projection", mutate)
        with pytest.raises(HashMismatchError) as ei:
            replay(load_trace(str(path)), gaz)
        assert ei.value.seq == seq

    def test_forged_prediction_pinpointed(self, gaz, tmp_path):
        path = tmp_path / "t.jsonl"
        engine_episode(gaz, str(path))

        def mutate(obj):
            obj["payload"]["prediction"]["lat"] += 1.0

        seq = tamper(path, lambda o: o.get("kind") == "Finalize", mutate)
        with pytest.raises(HashMismatchError) as ei:
            replay(load_trace(str(path)), gaz)
        assert ei.value.seq == seq

    def test_tampered_evidence_confidence_pinpointed(self, gaz, tmp_path):
        path = tmp_path / "t.jsonl"
        engine_episode(gaz, str(path))

        def mutate(obj):
            obj["payload"]["evidence"][0]["confidence"] = 0.11

        seq = tamper(path, lambda o: o.get("kind") == "Projection", mutate)
        with pytest.raises(HashMismatchError) as ei:
            replay(load_trace(str(path)), gaz)
        # The doctored confidence changes the chain, so the state hash breaks
        # at that same projection event.
        assert ei.value.seq == seq

    @pytest.mark.parametrize("field, value", [("confidence", 10 ** 400), ("id", float("inf"))])
    def test_evidence_number_out_of_range_pinpointed(self, gaz, tmp_path, field, value):
        """An out-of-range number diverges at its event. Written to a file,
        an infinity is no JSON number: the trace fails to load at its line."""
        path = tmp_path / "t.jsonl"
        trace, _ = engine_episode(gaz, str(path))

        def mutate(obj):
            obj["payload"]["evidence"][0][field] = value

        seq = tamper(path, lambda o: o.get("kind") == "Projection", mutate)
        payload = json.loads(json.dumps(trace.events[seq].payload))
        mutate({"payload": payload})
        events = list(trace.events)
        events[seq] = replace(events[seq], payload=payload)
        with pytest.raises(HashMismatchError) as ei:
            replay(Trace(trace.header, tuple(events)), gaz)
        assert ei.value.seq == seq
        if value == float("inf"):
            with pytest.raises(TraceFormatError) as fi:
                load_trace(str(path))
            assert fi.value.line == seq + 2
            assert "Infinity is not a finite JSON number" in str(fi.value)
            return
        with pytest.raises(HashMismatchError) as ei:
            replay(load_trace(str(path)), gaz)
        assert ei.value.seq == seq


#: A medium-difficulty synthetic episode (world seed 11, 3x5 provinces x
#: cities; ``sample_episode`` seed 4; scripted salience policy) with four
#: projections and one backtrack, recorded before state hashes were composed
#: from cached evidence serializations, and later re-encoded line by line as
#: canonical JSON (every value and wall time kept). Traces written since
#: must verify against it and reproduce its hashes.
GOLDEN_TRACE = Path(__file__).parent / "data" / "synth_w11_3x5_medium_s4.trace.jsonl"
#: SHA-256 of the golden trace's state hashes joined by newlines.
GOLDEN_STATE_HASHES_SHA256 = "67129e52c606ab5953c64ff8016fd4aec6c67ac9d80b50768995e038e2b9cb5d"
#: The golden trace's world and its tag table.
WORLD_3X5 = generate_world(11, 3, 5)
TAGS_3X5 = WORLD_3X5.tag_table()


def forge_hint(events):
    """Make the Finalize name another city through its POI hint, with the
    state hash recomputed for the forged prediction."""
    honest = replay(load_trace(str(GOLDEN_TRACE)), WORLD_3X5.gazetteer, TAGS_3X5).final_state
    other = next(r for r in WORLD_3X5.gazetteer.regions()
                 if r.level is RegionLevel.CITY and r.name != "Pumadi")
    forged = replace(honest, prediction=Prediction(other.centroid, other.name))
    events[-1]["payload"] = {"prediction": forged.prediction.to_json(),
                             "poi_hint": PoiHint(other.centroid, other.name).to_json()}
    events[-1]["state_hash"] = forged.snapshot_hash


def rewrite_caption(events):
    """Drop the caption's first tag and recompute its payload hash, so that
    only extracting the evidence again shows the edit."""
    result = events[1]["payload"]["results"][0]
    result["payload"]["tags"] = result["payload"]["tags"][1:]
    result["payload_sha256"] = canonical_hash(result["payload"])


#: Edits of the golden trace, each with the seq replay must name. Events are
#: renumbered after a deletion, so only the order of kinds gives it away.
GOLDEN_EDITS = {
    "forged-hint": (forge_hint, 14),
    "caption-rewritten": (rewrite_caption, 2),
    "finalize-dropped": (lambda events: events.pop(14), 14),
    "event-appended": (lambda events: events.append(dict(events[14])), 15),
    "decision-deleted": (lambda events: events.pop(3), 3),
    "execution-deleted": (lambda events: events.pop(4), 4),
    "result-tool-changed": (
        lambda events: events[4]["payload"]["results"][0].update(tool="TextSearch"), 4),
}


def record_golden_episode(path=None):
    desc = sample_episode(WORLD_3X5, 4, Difficulty.MEDIUM)
    return synthetic_episode(WORLD_3X5, desc, scripted_salience_policy(), trace_path=path)


class TestGoldenTrace:
    def test_replays_under_current_code(self):
        trace = load_trace(str(GOLDEN_TRACE))
        report = replay(trace, WORLD_3X5.gazetteer, TAGS_3X5)
        assert report.events_verified == len(trace.events) == 15
        assert report.prediction is not None and report.prediction.city_name == "Pumadi"
        assert [e.kind for e in trace.events].count(EventKind.BACKTRACK) == 1

    def test_state_hashes_pinned(self):
        hashes = [e.state_hash for e in load_trace(str(GOLDEN_TRACE)).events]
        assert sha256_hex("\n".join(hashes)) == GOLDEN_STATE_HASHES_SHA256

    def test_rerecording_matches_apart_from_wall_time(self, tmp_path):
        """The events match byte for byte; the header gains the episode
        settings, the defaults the golden trace was recorded under."""
        path = tmp_path / "again.trace.jsonl"
        record_golden_episode(str(path))

        def without_wall_time(p):
            return re.sub(r'"wall_time":[^,}]+', '"wall_time":0',
                          Path(p).read_text(encoding="utf-8")).splitlines()

        header, *events = without_wall_time(path)
        golden_header, *golden_events = without_wall_time(GOLDEN_TRACE)
        assert events == golden_events
        assert json.loads(header) == {**json.loads(golden_header),
                                      "episode": EpisodeSettings().to_json()}

    def test_every_line_is_the_canonical_json_of_its_record(self, tmp_path):
        path = tmp_path / "again.trace.jsonl"
        result = record_golden_episode(str(path))
        assert_canonical_lines(path, result.trace)
        assert {e.kind for e in result.trace.events} == set(EventKind) - {EventKind.ERROR}

    def test_spaced_golden_trace_still_loads_and_replays(self, tmp_path):
        """Traces written with ``json.dumps``' default separators, as before
        lines were canonical, load to the same events and replay."""
        lines = GOLDEN_TRACE.read_text(encoding="utf-8").splitlines()
        spaced = [json.dumps(json.loads(line), ensure_ascii=False, sort_keys=True)
                  for line in lines]
        assert spaced != lines and all('": ' in line for line in spaced)
        path = tmp_path / "spaced.trace.jsonl"
        path.write_text("\n".join(spaced) + "\n", encoding="utf-8")
        trace = load_trace(str(path))
        assert trace == load_trace(str(GOLDEN_TRACE))
        assert replay(trace, WORLD_3X5.gazetteer, TAGS_3X5).events_verified == 15

    def test_each_state_and_evidence_serialized_once(self, monkeypatch):
        """Events that record the same state object share one serialization,
        each evidence item and each space is serialized once for all states
        and events holding it, and each state takes one encoding of its own
        fields."""
        states = {}
        serializations = []
        record = TraceRecorder.record

        def spying_record(self, kind, state, *rest):
            states[id(state)] = state
            return record(self, kind, state, *rest)

        def counting(encode):
            return lambda obj: serializations.append(obj) or encode(obj)

        monkeypatch.setattr(TraceRecorder, "record", spying_record)
        for name in ("canonical_compose", "canonical_json"):
            monkeypatch.setattr(state_module, name, counting(getattr(state_module, name)))
        result = record_golden_episode()
        events = result.trace.events
        assert len(states) == len({e.state_hash for e in events}) == 6 < len(events)
        spaces = {id(s.space) for s in states.values()}
        assert len(serializations) == len(states) + len(spaces) + len(result.state.chain)

    @pytest.mark.parametrize("keys, value", [
        (("id",), 1.5),
        (("source_action_id",), 1.5),
        (("provenance", "action_id"), 1.5),
        (("id",), True),
    ], ids=["id-float", "source_action_id-float", "provenance.action_id-float", "id-bool"])
    def test_non_integer_evidence_id_pinpointed(self, tmp_path, keys, value):
        """An id that is not a JSON integer is not coerced into one."""
        path = tmp_path / "golden.trace.jsonl"
        path.write_bytes(GOLDEN_TRACE.read_bytes())

        def mutate(obj):
            target = obj["payload"]["evidence"][0]
            for key in keys[:-1]:
                target = target[key]
            assert target[keys[-1]] == 1
            target[keys[-1]] = value

        seq = tamper(path, lambda o: o.get("kind") == "Projection", mutate)
        with pytest.raises(HashMismatchError) as ei:
            replay(load_trace(str(path)), WORLD_3X5.gazetteer, TAGS_3X5)
        assert ei.value.seq == seq == 2
        assert "recorded Projection diverges from the replayed one" in str(ei.value)

    @pytest.mark.parametrize("value", [2.7, True, "3"], ids=["float", "bool", "string"])
    @pytest.mark.parametrize("field", ["max_steps", "max_parallel", "context_budget"])
    def test_episode_counts_must_be_json_integers(self, tmp_path, field, value):
        lines = GOLDEN_TRACE.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["episode"] = {**EpisodeSettings().to_json(), field: value}
        path = tmp_path / "edited.trace.jsonl"
        path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n", encoding="utf-8")
        with pytest.raises(HashMismatchError) as ei:
            replay(load_trace(str(path)), WORLD_3X5.gazetteer, TAGS_3X5)
        assert ei.value.seq == -1
        assert f"{field} must be an integer" in str(ei.value)

    @pytest.mark.parametrize("value, ok", [(5, True), (MAX_PARALLEL_LIMIT, True),
                                           (MAX_PARALLEL_LIMIT + 1, False), (10**6, False)])
    def test_max_parallel_bounded(self, tmp_path, value, ok):
        """A header may not ask for more threads than ``MAX_PARALLEL_LIMIT``;
        the settings are parsed, and refused, before any tool call runs."""
        lines = GOLDEN_TRACE.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["episode"] = {**EpisodeSettings().to_json(), "max_parallel": value}
        path = tmp_path / "edited.trace.jsonl"
        path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n", encoding="utf-8")
        if ok:
            replay(load_trace(str(path)), WORLD_3X5.gazetteer, TAGS_3X5)
            return
        with pytest.raises(HashMismatchError) as ei:
            replay(load_trace(str(path)), WORLD_3X5.gazetteer, TAGS_3X5)
        assert ei.value.seq == -1
        assert f"max_parallel must be <= {MAX_PARALLEL_LIMIT}" in str(ei.value)

    @pytest.mark.parametrize("edit, seq", GOLDEN_EDITS.values(), ids=GOLDEN_EDITS)
    def test_edited_trace_pinpointed(self, tmp_path, edit, seq):
        lines = GOLDEN_TRACE.read_text(encoding="utf-8").splitlines()
        events = [json.loads(line) for line in lines[1:]]
        edit(events)
        for i, obj in enumerate(events):
            obj["seq"] = i
        path = tmp_path / "edited.trace.jsonl"
        path.write_text("\n".join(
            [lines[0], *(json.dumps(o, ensure_ascii=False, sort_keys=True) for o in events)]
        ) + "\n", encoding="utf-8")
        with pytest.raises(HashMismatchError) as ei:
            replay(load_trace(str(path)), WORLD_3X5.gazetteer, TAGS_3X5)
        assert ei.value.seq == seq


def test_benchmark_trace_lines_are_canonical(monkeypatch, tmp_path):
    """Over a 3x5 benchmark run, backtracks included, every line written is
    the canonical JSON of the in-memory header or event it records."""
    traces = {}
    record = engine.record_episode

    def keeping(*args, trace_path=None, **kwargs):
        result = record(*args, trace_path=trace_path, **kwargs)
        traces[trace_path] = result.trace
        return result

    monkeypatch.setattr(engine, "record_episode", keeping)
    samples = make_benchmark(WORLD_3X5, 12, seed=5)
    run_benchmark(samples, scripted_salience_policy(), WORLD_3X5, trace_dir=tmp_path)
    assert len(traces) == len(samples)
    for path, trace in traces.items():
        assert_canonical_lines(path, trace)
    assert any(e.kind is EventKind.BACKTRACK for t in traces.values() for e in t.events)


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), difficulty=st.sampled_from(Difficulty),
       max_steps=st.integers(1, 3) | st.just(DEFAULT_MAX_STEPS))
def test_engine_traces_replay_and_every_single_deletion_is_rejected(seed, difficulty, max_steps):
    """Episodes cut short by ``max_steps`` included: the trace replays to the
    engine's final state, and deleting any one event (``seq`` renumbered)
    is caught."""
    g = WORLD_3X5.gazetteer
    result = synthetic_episode(WORLD_3X5, sample_episode(WORLD_3X5, seed, difficulty),
                               scripted_salience_policy(),
                               settings=EpisodeSettings(max_steps=max_steps))
    report = replay(result.trace, g, TAGS_3X5)
    assert report.final_state.snapshot_hash == result.state.snapshot_hash
    assert report.prediction == result.prediction
    events = result.trace.events
    for gone in range(len(events)):
        kept = events[:gone] + events[gone + 1:]
        edited = Trace(result.trace.header, tuple(replace(e, seq=i) for i, e in enumerate(kept)))
        with pytest.raises(HashMismatchError):
            replay(edited, g, TAGS_3X5)


class TestIsRepetition:
    def test_detects_identical_probe(self, gaz):
        trace, _ = record_episode(gaz)
        assert is_repetition(list(trace.events), "SemanticSymbol", "Ocr", {"image": "scene/0"})

    def test_different_args_not_repetition(self, gaz):
        trace, _ = record_episode(gaz)
        assert not is_repetition(list(trace.events), "SemanticSymbol", "Ocr", {"image": "scene/1"})
        assert not is_repetition(list(trace.events), "Environmental", "Caption",
                                 {"image": "scene/0"})

    def test_empty_history(self):
        assert not is_repetition([], "Environmental", "Caption", {"image": "s"})


class TestFrontierStall:
    def test_no_projections(self):
        assert frontier_unchanged_steps([]) == 0

    def test_changing_spaces(self, gaz):
        trace, _ = record_episode(gaz)  # global -> cn-a -> cn-a-1
        assert frontier_unchanged_steps(list(trace.events)) == 0

    def test_stalled_steps_counted(self, gaz):
        # Same evidence twice: the second projection leaves the space as-is.
        steps = [[ev(1, ["cn-a"])], [ev(2, ["cn-a"])], [ev(3, ["cn-a"])]]
        trace, _ = record_episode(gaz, steps=steps, finalize_at_end=False)
        assert frontier_unchanged_steps(list(trace.events)) == 2

    def test_a_first_projection_that_leaves_the_space_global_counts(self, gaz):
        class NoCandidates(EvidenceScript):
            """One ImageSearch probe, answered with no candidate: no evidence."""

            def execute(self, action):
                return ToolResult.succeed(action, {"candidates": []})

        script = NoCandidates([[ev(1, ["cn-a"])]])
        trace = engine.record_episode(script, dict.fromkeys(Tool, script), gaz,
                                      image_ref="scene/0", config_hash="cfg" * 8).trace
        [projection] = [e for e in trace.events if e.kind is EventKind.PROJECTION]
        assert projection.payload["space"] == {"is_global": True, "frontier": []}
        assert frontier_unchanged_steps(list(trace.events)) == 1


class TestCompress:
    def make(self, gaz, nsteps=2, claim_len=40):
        steps = [
            [ev(i + 1, ["cn-a" if i == 0 else "cn-a-1"], claim="c" * claim_len)]
            for i in range(nsteps)
        ]
        trace, state = record_episode(gaz, steps=steps, finalize_at_end=False)
        return state, list(trace.events)

    def test_fits_generous_budget_at_full_detail(self, gaz):
        state, events = self.make(gaz)
        ctx = compress(state, events, gaz, budget=4000)
        assert ctx.level == 0
        assert len(ctx.render()) <= 4000
        assert "cccc" in ctx.render()
        assert "Ocr ok" in ctx.render()

    def test_degrades_to_truncated_claims(self, gaz):
        state, events = self.make(gaz, claim_len=600)
        full = compress(state, events, gaz, budget=4000)
        assert full.level == 0
        tight = compress(state, events, gaz, budget=400)
        assert tight.level >= 1
        assert "…" in "".join(tight.evidence_rows)
        assert len(tight.render()) <= 400

    def test_floor_keeps_ids_and_constraints(self, gaz):
        state, events = self.make(gaz, nsteps=3, claim_len=200)
        ctx = compress(state, events, gaz, budget=170)
        assert ctx.level == 3
        assert any(row.startswith("- e1 {") for row in ctx.evidence_rows)
        assert len(ctx.render()) <= 170

    def test_budget_too_small(self, gaz):
        state, events = self.make(gaz, nsteps=4, claim_len=100)
        with pytest.raises(BudgetTooSmallError):
            compress(state, events, gaz, budget=30)

    def test_global_space_rendered(self, gaz):
        ctx = compress(EpisodeState(), [], gaz, budget=4000)
        assert "- (global)" in ctx.candidate_rows
        assert "frontier unchanged for 0 steps" in ctx.render()

    def test_every_budget_respected_or_error(self, gaz):
        state, events = self.make(gaz, nsteps=3, claim_len=300)
        for budget in range(20, 2000, 37):
            try:
                ctx = compress(state, events, gaz, budget=budget)
            except BudgetTooSmallError:
                continue
            assert len(ctx.render()) <= budget

    def test_inactive_evidence_listed(self, gaz):
        steps = [
            [ev(1, ["cn-a-1"], conf=0.6)],
            [ev(2, ["cn-b"], conf=0.9), ev(3, ["cn-b-1"], conf=0.8)],
        ]
        trace, state = record_episode(gaz, steps=steps, finalize_at_end=False)
        ctx = compress(state, list(trace.events), gaz, budget=4000)
        assert any(row.startswith("- off: ") and "e1" in row for row in ctx.evidence_rows)


class TestEventJson:
    def test_event_roundtrip(self):
        e = TrajectoryEvent(0, EventKind.DECISION, 1, 123.5, {"a": 1}, "h" * 64)
        assert TrajectoryEvent.from_json(e.to_json()) == e

    def test_header_roundtrip(self):
        h = TraceHeader("g" * 8, "c" * 8, meta={"sample_id": "s1"})
        assert TraceHeader.from_json(h.to_json()) == h
