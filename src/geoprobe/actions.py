"""Action space: capability modules, atomic tools, decisions, validation.

A probing action is a capability module paired with one of the atomic tools
that module is allowed to drive, plus tool arguments. The pairing table and
per-tool argument schemas are fixed data; validation reports structured
issues instead of raising so a reasoner can be re-prompted with them.

The reasoner communicates in a versioned JSON envelope. Parsing tolerates
surrounding prose (the first decodable JSON object wins) but is strict about
the envelope contents.
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import dataclass, field

from .canonical import json_get, parse_json
from .errors import DecisionParseError


class CapabilityModule(enum.Enum):
    ENVIRONMENTAL = "Environmental"
    INFRASTRUCTURE = "Infrastructure"
    SEMANTIC_SYMBOL = "SemanticSymbol"
    IMAGE_MATCHING = "ImageMatching"


class Tool(enum.Enum):
    CAPTION = "Caption"
    CROP = "Crop"
    OCR = "Ocr"
    KNOWLEDGE_BASE = "KnowledgeBase"
    TEXT_SEARCH = "TextSearch"
    IMAGE_SEARCH = "ImageSearch"
    GEOCODE = "Geocode"


#: Which tools each capability module may drive. Fixed; not configuration.
COMPOSITION: dict[CapabilityModule, frozenset[Tool]] = {
    CapabilityModule.ENVIRONMENTAL: frozenset({Tool.CAPTION, Tool.TEXT_SEARCH}),
    CapabilityModule.INFRASTRUCTURE: frozenset(
        {Tool.CAPTION, Tool.CROP, Tool.KNOWLEDGE_BASE, Tool.TEXT_SEARCH}
    ),
    CapabilityModule.SEMANTIC_SYMBOL: frozenset(
        {Tool.CROP, Tool.OCR, Tool.KNOWLEDGE_BASE, Tool.TEXT_SEARCH, Tool.GEOCODE}
    ),
    CapabilityModule.IMAGE_MATCHING: frozenset({Tool.CROP, Tool.IMAGE_SEARCH}),
}


class ArgKind(enum.Enum):
    TEXT = "text"
    REGION_ID = "region-id"
    IMAGE_REF = "image-ref"
    BOUNDING_BOX = "bounding-box"


@dataclass(frozen=True)
class ArgSpec:
    kind: ArgKind
    required: bool


ARG_SCHEMAS: dict[Tool, dict[str, ArgSpec]] = {
    Tool.CAPTION: {
        "image": ArgSpec(ArgKind.IMAGE_REF, True),
        "focus": ArgSpec(ArgKind.TEXT, False),
    },
    Tool.CROP: {
        "image": ArgSpec(ArgKind.IMAGE_REF, True),
        "box": ArgSpec(ArgKind.BOUNDING_BOX, True),
    },
    Tool.OCR: {
        "image": ArgSpec(ArgKind.IMAGE_REF, True),
        "box": ArgSpec(ArgKind.BOUNDING_BOX, False),
    },
    Tool.KNOWLEDGE_BASE: {"query": ArgSpec(ArgKind.TEXT, True)},
    Tool.TEXT_SEARCH: {
        "query": ArgSpec(ArgKind.TEXT, True),
        "region": ArgSpec(ArgKind.REGION_ID, False),
    },
    Tool.IMAGE_SEARCH: {"image": ArgSpec(ArgKind.IMAGE_REF, True)},
    Tool.GEOCODE: {"query": ArgSpec(ArgKind.TEXT, True)},
}


class IssueCode(enum.Enum):
    MODULE_TOOL_MISMATCH = "ModuleToolMismatch"
    MISSING_ARG = "MissingArg"
    UNKNOWN_ARG = "UnknownArg"
    BAD_ARG_KIND = "BadArgKind"


@dataclass(frozen=True)
class ActionIssue:
    code: IssueCode
    message: str
    arg: str | None = None

    def to_json(self) -> dict:
        return {"code": self.code.value, "message": self.message, "arg": self.arg}


@dataclass(frozen=True)
class Action:
    """One probe: a module driving a tool with concrete arguments."""

    id: int
    module: CapabilityModule
    tool: Tool
    args: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "module": self.module.value,
            "tool": self.tool.value,
            "args": dict(self.args),
        }


def base_image_ref(ref: str) -> str:
    """The image a reference names, without any crop suffix."""
    return ref.split("#", 1)[0]


def crop_payload(ref: str, box) -> dict:
    """Crop result: the base image's ref with the box appended as a crop
    suffix (two decimals each), plus the box itself."""
    box = list(box)
    suffix = ",".join(f"{v:.2f}" for v in box)
    return {"image": f"{base_image_ref(ref)}#crop({suffix})", "box": box}


def _valid_box(value) -> bool:
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        return False
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        return False
    x0, y0, x1, y1 = (float(v) for v in value)
    if not all(0.0 <= v <= 1.0 for v in (x0, y0, x1, y1)):
        return False
    return x0 < x1 and y0 < y1


def _kind_ok(kind: ArgKind, value) -> bool:
    if kind is ArgKind.BOUNDING_BOX:
        return _valid_box(value)
    return isinstance(value, str) and bool(value)


def validate_action(action: Action) -> list[ActionIssue]:
    """Check module/tool pairing and the argument schema; [] means valid.

    Issue order is deterministic: pairing first, then missing required args,
    then unknown or badly typed args, each group sorted by arg name.
    """
    issues: list[ActionIssue] = []
    if action.tool not in COMPOSITION[action.module]:
        issues.append(
            ActionIssue(
                IssueCode.MODULE_TOOL_MISMATCH,
                f"module {action.module.value} cannot drive tool {action.tool.value}",
            )
        )
    schema = ARG_SCHEMAS[action.tool]
    for name in sorted(schema):
        if schema[name].required and name not in action.args:
            issues.append(
                ActionIssue(
                    IssueCode.MISSING_ARG,
                    f"tool {action.tool.value} requires arg {name!r}",
                    arg=name,
                )
            )
    for name in sorted(action.args):
        spec = schema.get(name)
        if spec is None:
            issues.append(
                ActionIssue(
                    IssueCode.UNKNOWN_ARG,
                    f"tool {action.tool.value} does not accept arg {name!r}",
                    arg=name,
                )
            )
        elif not _kind_ok(spec.kind, action.args[name]):
            issues.append(
                ActionIssue(
                    IssueCode.BAD_ARG_KIND,
                    f"arg {name!r} must be a {spec.kind.value}",
                    arg=name,
                )
            )
    return issues


DECISION_VERSION = "1"

_ENVELOPE_KEYS = {"version", "thought", "actions", "finalize"}


@dataclass(frozen=True)
class Decision:
    """A parsed reasoner turn: either probe actions or a finalize request."""

    thought: str
    actions: tuple[Action, ...] = ()
    finalize: bool = False

    def to_json(self) -> dict:
        return {
            "version": DECISION_VERSION,
            "thought": self.thought,
            "actions": [a.to_json() for a in self.actions],
            "finalize": self.finalize,
        }


def extract_json_object(text: str) -> tuple[dict, tuple[int, int]]:
    """Return the first decodable JSON object in ``text`` and its span.

    Candidates start at a ``{``; prose around them is ignored. A failed
    decode resumes the search at the decoder's error position, so decode
    work is linear in ``len(text)``; a candidate nested past the recursion
    limit, which has no error position, ends the search.
    """
    idx = text.find("{")
    while idx != -1:
        try:
            value, end = parse_json(text, idx)
        except json.JSONDecodeError as e:
            if isinstance(e.__context__, RecursionError):
                break
            idx = text.find("{", max(e.pos, idx + 1))
            continue
        return value, (idx, end)
    raise DecisionParseError("no JSON object found in reasoner output")


def parse_decision(text: str, start_id: int, max_parallel: int) -> Decision:
    """Parse reasoner output into a Decision, assigning action ids.

    Actions receive ids ``start_id``, ``start_id + 1``, ... in listed order,
    which keeps ids monotone across an episode when the caller threads the
    counter through. Envelope violations raise DecisionParseError carrying
    the character span of the offending JSON object.
    """
    if start_id < 1:
        raise ValueError("start_id must be >= 1")
    if max_parallel < 1:
        raise ValueError("max_parallel must be >= 1")
    obj, span = extract_json_object(text)

    def bad(message: str) -> DecisionParseError:
        return DecisionParseError(message, span)

    unknown = set(obj) - _ENVELOPE_KEYS
    if unknown:
        raise bad(f"unknown envelope keys: {sorted(unknown)}")
    if obj.get("version") != DECISION_VERSION:
        raise bad(f"unsupported envelope version: {obj.get('version')!r}")

    try:
        thought = json_get(obj, "thought", str, "")
        finalize = json_get(obj, "finalize", bool, False)
        raw_actions = json_get(obj, "actions", list, [])
    except TypeError as exc:
        raise bad(str(exc)) from None
    if len(raw_actions) > max_parallel:
        raise bad(f"at most {max_parallel} actions per step, got {len(raw_actions)}")
    if finalize and raw_actions:
        raise bad("a finalize decision must not carry actions")
    if not finalize and not raw_actions:
        raise bad("a probe decision must carry at least one action")

    actions: list[Action] = []
    for i, item in enumerate(raw_actions):
        if not isinstance(item, dict):
            raise bad(f"actions[{i}] must be an object")
        # "id" is tolerated but ignored: ids are always assigned here.
        extra = set(item) - {"module", "tool", "args", "id"}
        if extra:
            raise bad(f"actions[{i}]: unknown keys {sorted(extra)}")
        try:
            module = CapabilityModule(item.get("module"))
        except ValueError:
            raise bad(f"actions[{i}]: unknown module {item.get('module')!r}") from None
        try:
            tool = Tool(item.get("tool"))
        except ValueError:
            raise bad(f"actions[{i}]: unknown tool {item.get('tool')!r}") from None
        args = item.get("args", {})
        if not isinstance(args, dict):
            raise bad(f"actions[{i}]: args must be an object")
        actions.append(Action(id=start_id + i, module=module, tool=tool, args=dict(args)))

    return Decision(thought=thought, actions=tuple(actions), finalize=finalize)


@functools.cache
def render_action_schema() -> str:
    """Stable plain-text description of the envelope, modules, and tools.

    Fed verbatim into reasoner prompts and pinned by a golden test, so the
    wording and ordering must not drift casually. It depends only on
    module constants, so it is built once per process.
    """
    lines = [
        'Reply with exactly one JSON object (prose around it is ignored):',
        '{"version": "1", "thought": "<reasoning>", "actions": [...], '
        '"finalize": false}',
        "",
        'Each action is {"module": "<module>", "tool": "<tool>", "args": {...}}.',
        'To finalize instead of probing, send "finalize": true with no actions.',
        "",
        "Modules and the tools they may drive:",
    ]
    for module in CapabilityModule:
        tools = [t.value for t in Tool if t in COMPOSITION[module]]
        lines.append(f"- {module.value}: {', '.join(tools)}")
    lines.append("")
    lines.append("Tool arguments (kind, required or optional):")
    for tool in Tool:
        parts = []
        for name, spec in sorted(ARG_SCHEMAS[tool].items()):
            req = "required" if spec.required else "optional"
            parts.append(f"{name} ({spec.kind.value}, {req})")
        lines.append(f"- {tool.value}: {'; '.join(parts)}")
    return "\n".join(lines) + "\n"
