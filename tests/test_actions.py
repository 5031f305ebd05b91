"""Module/tool pairing, action validation, and decision envelope parsing."""

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geoprobe import actions
from geoprobe.actions import (
    ARG_SCHEMAS,
    COMPOSITION,
    Action,
    ActionIssue,
    ArgKind,
    CapabilityModule,
    Decision,
    IssueCode,
    Tool,
    extract_json_object,
    parse_decision,
    render_action_schema,
    validate_action,
)
from geoprobe.errors import DecisionParseError

DATA = Path(__file__).parent / "data"


class TestComposition:
    def test_exact_pairings(self):
        assert COMPOSITION == {
            CapabilityModule.ENVIRONMENTAL: {Tool.CAPTION, Tool.TEXT_SEARCH},
            CapabilityModule.INFRASTRUCTURE: {
                Tool.CAPTION, Tool.CROP, Tool.KNOWLEDGE_BASE, Tool.TEXT_SEARCH,
            },
            CapabilityModule.SEMANTIC_SYMBOL: {
                Tool.CROP, Tool.OCR, Tool.KNOWLEDGE_BASE, Tool.TEXT_SEARCH, Tool.GEOCODE,
            },
            CapabilityModule.IMAGE_MATCHING: {Tool.CROP, Tool.IMAGE_SEARCH},
        }

    def test_every_module_mapped(self):
        assert set(COMPOSITION) == set(CapabilityModule)

    def test_every_tool_reachable(self):
        reachable = set()
        for tools in COMPOSITION.values():
            reachable |= tools
        assert reachable == set(Tool)

    def test_every_tool_has_schema(self):
        assert set(ARG_SCHEMAS) == set(Tool)


class TestValidateAction:
    def test_valid_probe(self):
        a = Action(1, CapabilityModule.ENVIRONMENTAL, Tool.CAPTION, {"image": "scene/0"})
        assert validate_action(a) == []

    def test_valid_with_optional(self):
        a = Action(
            1, CapabilityModule.SEMANTIC_SYMBOL, Tool.OCR,
            {"image": "scene/0", "box": [0.1, 0.1, 0.5, 0.5]},
        )
        assert validate_action(a) == []

    def test_module_tool_mismatch(self):
        a = Action(1, CapabilityModule.ENVIRONMENTAL, Tool.OCR, {"image": "scene/0"})
        codes = [i.code for i in validate_action(a)]
        assert codes == [IssueCode.MODULE_TOOL_MISMATCH]

    def test_missing_arg(self):
        a = Action(1, CapabilityModule.SEMANTIC_SYMBOL, Tool.KNOWLEDGE_BASE, {})
        issues = validate_action(a)
        assert [i.code for i in issues] == [IssueCode.MISSING_ARG]
        assert issues[0].arg == "query"

    def test_unknown_arg(self):
        a = Action(1, CapabilityModule.SEMANTIC_SYMBOL, Tool.GEOCODE,
                   {"query": "x", "zoom": "14"})
        issues = validate_action(a)
        assert [(i.code, i.arg) for i in issues] == [(IssueCode.UNKNOWN_ARG, "zoom")]

    def test_bad_text_kind(self):
        a = Action(1, CapabilityModule.SEMANTIC_SYMBOL, Tool.GEOCODE, {"query": 42})
        issues = validate_action(a)
        assert [(i.code, i.arg) for i in issues] == [(IssueCode.BAD_ARG_KIND, "query")]

    def test_empty_string_rejected(self):
        a = Action(1, CapabilityModule.SEMANTIC_SYMBOL, Tool.GEOCODE, {"query": ""})
        assert [i.code for i in validate_action(a)] == [IssueCode.BAD_ARG_KIND]

    @pytest.mark.parametrize("box", [
        [0.1, 0.1, 0.5],                # wrong arity
        [0.5, 0.1, 0.1, 0.5],           # x0 >= x1
        [0.1, 0.5, 0.5, 0.1],           # y0 >= y1
        [-0.1, 0.1, 0.5, 0.5],          # out of range
        [0.1, 0.1, 0.5, 1.5],           # out of range
        [0.1, "a", 0.5, 0.9],           # non-numeric
        [True, 0.1, 0.5, 0.9],          # bool is not a number here
        "0.1,0.1,0.5,0.5",              # not a list
    ])
    def test_bad_boxes(self, box):
        a = Action(1, CapabilityModule.IMAGE_MATCHING, Tool.CROP,
                   {"image": "scene/0", "box": box})
        assert [i.code for i in validate_action(a)] == [IssueCode.BAD_ARG_KIND]

    def test_issue_order_deterministic(self):
        a = Action(1, CapabilityModule.ENVIRONMENTAL, Tool.CROP, {"zoom": "x"})
        issues = validate_action(a)
        assert [i.code for i in issues] == [
            IssueCode.MODULE_TOOL_MISMATCH,
            IssueCode.MISSING_ARG,   # box
            IssueCode.MISSING_ARG,   # image
            IssueCode.UNKNOWN_ARG,   # zoom
        ]
        assert [i.arg for i in issues] == [None, "box", "image", "zoom"]

    def test_issue_json(self):
        issue = ActionIssue(IssueCode.MISSING_ARG, "m", arg="query")
        assert issue.to_json() == {"code": "MissingArg", "message": "m", "arg": "query"}


@pytest.fixture()
def decodes(monkeypatch):
    """Where each decode that ``extract_json_object`` tries starts, in order."""
    starts = []
    parse_json = actions.parse_json
    monkeypatch.setattr(actions, "parse_json",
                        lambda text, start: starts.append(start) or parse_json(text, start))
    return starts


class TestExtractJsonObject:
    def test_bare_object(self):
        obj, span = extract_json_object('{"a": 1}')
        assert obj == {"a": 1}
        assert span == (0, 8)

    def test_prose_around(self):
        text = 'Thinking aloud... {"a": {"b": 2}} trailing words'
        obj, span = extract_json_object(text)
        assert obj == {"a": {"b": 2}}
        assert text[span[0]:span[1]] == '{"a": {"b": 2}}'

    def test_skips_broken_candidates(self):
        obj, _ = extract_json_object('{oops} then {"ok": true}')
        assert obj == {"ok": True}

    def test_skips_non_objects(self):
        obj, _ = extract_json_object('[1, 2] {"ok": 1}')
        assert obj == {"ok": 1}

    def test_braces_inside_strings(self):
        obj, _ = extract_json_object('{"s": "curly } inside"}')
        assert obj == {"s": "curly } inside"}

    def test_nothing_found(self):
        with pytest.raises(DecisionParseError) as ei:
            extract_json_object("no json here")
        assert ei.value.span is None

    def test_nesting_past_the_recursion_limit_ends_the_search(self, decodes):
        """One decode, not one per ``{``: the 25,000-character reply used to
        take 5,000, each running to the recursion limit."""
        text = '{"a":' * 5000
        assert len(text) == 25_000
        with pytest.raises(DecisionParseError):
            extract_json_object(text)
        assert decodes == [0]

    def test_search_resumes_where_the_decode_failed(self, decodes):
        text = '{"a": {"b": 1}, oops} {"ok": 1}'
        obj, span = extract_json_object(text)
        assert obj == {"ok": 1} and text[span[0]:span[1]] == '{"ok": 1}'
        assert decodes == [0, text.index('{"ok"')]


def envelope(**overrides):
    base = {
        "version": "1",
        "thought": "looks coastal",
        "actions": [
            {"module": "Environmental", "tool": "Caption", "args": {"image": "scene/0"}},
        ],
        "finalize": False,
    }
    base.update(overrides)
    return json.dumps(base)


class TestParseDecision:
    def test_basic(self):
        d = parse_decision(envelope(), start_id=1, max_parallel=4)
        assert d.thought == "looks coastal"
        assert not d.finalize
        (a,) = d.actions
        assert a.id == 1
        assert a.module is CapabilityModule.ENVIRONMENTAL
        assert a.tool is Tool.CAPTION
        assert a.args == {"image": "scene/0"}

    def test_ids_assigned_from_start_id(self):
        acts = [
            {"module": "SemanticSymbol", "tool": "Ocr", "args": {"image": "scene/0"}},
            {"module": "SemanticSymbol", "tool": "KnowledgeBase", "args": {"query": "q"}},
            {"module": "Environmental", "tool": "Caption", "args": {"image": "scene/0"}},
        ]
        d = parse_decision(envelope(actions=acts), start_id=7, max_parallel=4)
        assert [a.id for a in d.actions] == [7, 8, 9]

    def test_prose_tolerant(self):
        text = "Let me think.\n\n" + envelope() + "\n\nDone."
        d = parse_decision(text, 1, 4)
        assert len(d.actions) == 1

    def test_max_parallel_enforced(self):
        acts = [{"module": "Environmental", "tool": "Caption", "args": {"image": "s"}}] * 3
        with pytest.raises(DecisionParseError, match="at most 2"):
            parse_decision(envelope(actions=acts), 1, 2)

    def test_version_required(self):
        with pytest.raises(DecisionParseError, match="version"):
            parse_decision(envelope(version="2"), 1, 4)
        with pytest.raises(DecisionParseError, match="version"):
            parse_decision('{"actions": []}', 1, 4)

    def test_unknown_envelope_key(self):
        with pytest.raises(DecisionParseError, match="unknown envelope keys"):
            parse_decision(envelope(confidence=0.9), 1, 4)

    def test_unknown_module_or_tool(self):
        acts = [{"module": "Weather", "tool": "Caption", "args": {}}]
        with pytest.raises(DecisionParseError, match="unknown module"):
            parse_decision(envelope(actions=acts), 1, 4)
        acts = [{"module": "Environmental", "tool": "Sonar", "args": {}}]
        with pytest.raises(DecisionParseError, match="unknown tool"):
            parse_decision(envelope(actions=acts), 1, 4)

    def test_finalize_with_actions_rejected(self):
        with pytest.raises(DecisionParseError, match="must not carry actions"):
            parse_decision(envelope(finalize=True), 1, 4)

    def test_probe_without_actions_rejected(self):
        with pytest.raises(DecisionParseError, match="at least one action"):
            parse_decision(envelope(actions=[]), 1, 4)

    def test_poi_hint_is_unknown_envelope_key(self):
        # The engine derives the hint from gathered evidence; a reasoner's
        # own coordinate is not part of the envelope.
        text = envelope(
            finalize=True, actions=[], poi_hint={"lat": 30.5, "lon": 114.3, "city": "Rivertown"}
        )
        with pytest.raises(DecisionParseError, match=r"unknown envelope keys: \['poi_hint'\]"):
            parse_decision(text, 1, 4)

    def test_span_reported(self):
        text = "prefix " + envelope(version="9")
        with pytest.raises(DecisionParseError) as ei:
            parse_decision(text, 1, 4)
        start, end = ei.value.span
        assert text[start] == "{" and text[end - 1] == "}"

    def test_defaults(self):
        text = json.dumps({
            "version": "1",
            "actions": [{"module": "ImageMatching", "tool": "ImageSearch",
                         "args": {"image": "scene/0"}}],
        })
        d = parse_decision(text, 1, 4)
        assert d.thought == ""
        assert not d.finalize

    def test_action_extra_key_rejected(self):
        acts = [{"module": "Environmental", "tool": "Caption", "args": {}, "note": "x"}]
        with pytest.raises(DecisionParseError, match="unknown keys"):
            parse_decision(envelope(actions=acts), 1, 4)

    def test_action_id_key_ignored(self):
        acts = [{"module": "Environmental", "tool": "Caption",
                 "args": {"image": "s"}, "id": 99}]
        d = parse_decision(envelope(actions=acts), start_id=4, max_parallel=4)
        assert d.actions[0].id == 4

    def test_bad_arg_caller_side(self):
        with pytest.raises(ValueError):
            parse_decision(envelope(), 0, 4)
        with pytest.raises(ValueError):
            parse_decision(envelope(), 1, 0)

    @given(
        st.integers(min_value=1, max_value=50),
        st.lists(
            st.sampled_from([
                ("Environmental", "Caption"), ("Environmental", "TextSearch"),
                ("SemanticSymbol", "Ocr"), ("ImageMatching", "ImageSearch"),
            ]),
            min_size=1, max_size=4,
        ),
        st.sampled_from(["", "noise before ", "{broken "]),
        st.sampled_from(["", " trailing"]),
    )
    def test_roundtrip_with_noise(self, start_id, pairs, prefix, suffix):
        acts = [
            {"module": m, "tool": t, "args": {"image": "scene/0"}
             if t != "TextSearch" else {"query": "q"}}
            for m, t in pairs
        ]
        text = prefix + envelope(actions=acts) + suffix
        d = parse_decision(text, start_id, 4)
        assert [a.id for a in d.actions] == list(range(start_id, start_id + len(pairs)))
        assert [(a.module.value, a.tool.value) for a in d.actions] == pairs


class TestDecisionJson:
    def test_to_json_roundtrips_through_parse(self):
        d = parse_decision(envelope(), 1, 4)
        d2 = parse_decision(json.dumps(d.to_json()), 1, 4)
        assert d2 == d

    def test_action_json_roundtrip(self):
        a = Action(3, CapabilityModule.IMAGE_MATCHING, Tool.CROP,
                   {"image": "scene/0", "box": [0.0, 0.0, 0.5, 0.5]})
        assert a.to_json() == {"id": 3, "module": "ImageMatching", "tool": "Crop",
                               "args": {"image": "scene/0", "box": [0.0, 0.0, 0.5, 0.5]}}


class TestSchemaRender:
    def test_matches_golden(self):
        golden = (DATA / "action_schema.txt").read_text(encoding="utf-8")
        assert render_action_schema() == golden

    def test_stable(self):
        assert render_action_schema() == render_action_schema()

    def test_mentions_every_module_and_tool(self):
        text = render_action_schema()
        for m in CapabilityModule:
            assert m.value in text
        for t in Tool:
            assert t.value in text

    def test_arg_kinds_enumerated(self):
        text = render_action_schema()
        for kind in ArgKind:
            assert kind.value in text
