"""Batch execution of probes over tool adapters, and evidence extraction.

Tool failures never raise across this boundary: disabled tools, missing
adapters, crashes, and timeouts all come back as in-band ToolResult values
so the episode loop keeps deciding under partial failure. Extraction turns
Ok payloads into Evidence under fixed per-tool rules with fixed confidence
tiers; payloads that match nothing yield nothing.
"""

from __future__ import annotations

import enum
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Protocol

from .actions import Action, Tool, crop_payload
from .canonical import (Raw, canonical_compose, canonical_json, json_get, json_strs, parse_json,
                        sha256_hex)
from .errors import ConfigError, UnknownRegionError
from .geo import Gazetteer, GeoPoint, region_contains
from .state import Evidence, Provenance

#: Confidence tiers by extraction rule. Ordered so that backtracking has a
#: deterministic preference: named regions beat coordinate matches beat
#: scene-tag hints.
CONF_NAME_MATCH = 0.9
CONF_COORD_MATCH = 0.7
CONF_TAG_MATCH = 0.5


class ToolStatus(enum.Enum):
    OK = "Ok"
    TOOL_ERROR = "ToolError"
    TIMEOUT = "Timeout"


@dataclass(frozen=True)
class ToolResult:
    """Outcome of one probe. ``payload`` is present exactly when Ok."""

    action_id: int
    tool: Tool
    status: ToolStatus
    payload: dict | None = None
    error: str | None = None
    detail: str | None = None
    latency_ms: float = 0.0

    def __post_init__(self):
        if self.status is ToolStatus.OK:
            if self.payload is None or self.error is not None:
                raise ValueError("Ok result must carry a payload and no error")
        elif self.payload is not None or self.error is None:
            raise ValueError("failed result must carry an error and no payload")

    @property
    def ok(self) -> bool:
        return self.status is ToolStatus.OK

    @cached_property
    def payload_canonical(self) -> Raw:
        """``canonical_json(self.payload)``, serialized once per result.

        The payload hash and the result's Execution-event JSON both read it.
        The cache, like ``Evidence.canonical``'s, is sound because nothing
        mutates a result's payload after construction.
        """
        return Raw(canonical_json(self.payload))

    @cached_property
    def payload_sha256(self) -> str:
        """SHA-256 of ``payload_canonical``, computed once per result; the
        Execution event and each evidence's provenance both read it."""
        return sha256_hex(self.payload_canonical)

    @classmethod
    def succeed(cls, action: Action, payload: dict, latency_ms: float = 0.0) -> "ToolResult":
        return cls(action.id, action.tool, ToolStatus.OK, payload, latency_ms=latency_ms)

    @classmethod
    def fail(cls, action: Action, error: str, detail: str | None = None,
             latency_ms: float = 0.0) -> "ToolResult":
        return cls(action.id, action.tool, ToolStatus.TOOL_ERROR, None, error, detail, latency_ms)

    @classmethod
    def timed_out(cls, action: Action, detail: str | None = None,
                  latency_ms: float = 0.0) -> "ToolResult":
        return cls(action.id, action.tool, ToolStatus.TIMEOUT, None, "Timeout", detail, latency_ms)

    def to_json(self) -> dict:
        return {
            "action_id": self.action_id,
            "tool": self.tool.value,
            "status": self.status.value,
            "payload": self.payload,
            "error": self.error,
            "detail": self.detail,
            "latency_ms": self.latency_ms,
            "payload_sha256": self.payload_sha256,
        }

    @property
    def canonical(self) -> Raw:
        """``canonical_json(self.to_json())``, with ``payload_canonical``
        written in rather than serialized again."""
        return canonical_compose({**self.to_json(), "payload": self.payload_canonical})


class ToolAdapter(Protocol):
    tool: Tool

    def execute(self, action: Action) -> ToolResult: ...


class LocalCropAdapter:
    """Crop without a network round trip: rewrites the image reference.

    Downstream tools accept crop-derived references, so cropping is pure
    bookkeeping — the derived ref names the base image plus the box. The
    ref is not checked: a tool asked about a crop of an unknown image
    rejects it. Every adapter map, live or synthetic, crops with this one.
    """

    tool = Tool.CROP

    def execute(self, action: Action) -> ToolResult:
        try:
            payload = crop_payload(str(action.args["image"]), action.args["box"])
            return ToolResult.succeed(action, payload)
        except Exception as exc:  # defensive: adapter boundary must not throw
            return ToolResult.fail(action, "InternalError", detail=repr(exc))


ALL_TOOLS: frozenset[Tool] = frozenset(Tool)

#: Ablation condition labels, matching the benchmark report rows.
LABEL_FULL = "full"
LABEL_NO_IMAGE_SEARCH = "w/o image search"
LABEL_NO_TEXT_SEARCH = "w/o text search"
LABEL_NO_TOOLS = "w/o all tools"


@dataclass(frozen=True)
class AblationConfig:
    enabled_tools: frozenset[Tool] = ALL_TOOLS

    def allows(self, tool: Tool) -> bool:
        return tool in self.enabled_tools

    def label(self) -> str:
        if self.enabled_tools == ALL_TOOLS:
            return LABEL_FULL
        if self.enabled_tools == ALL_TOOLS - {Tool.IMAGE_SEARCH}:
            return LABEL_NO_IMAGE_SEARCH
        if self.enabled_tools == ALL_TOOLS - {Tool.TEXT_SEARCH}:
            return LABEL_NO_TEXT_SEARCH
        if not self.enabled_tools:
            return LABEL_NO_TOOLS
        return "custom: " + ", ".join(sorted(t.value for t in self.enabled_tools))


DEFAULT_MAX_STEPS = 12
DEFAULT_MAX_PARALLEL = 4
DEFAULT_CONTEXT_BUDGET = 4000

#: The most tool calls one step may run at once. ``execute_batch`` starts a
#: thread per call, so a config or a replayed trace header may ask for no more.
MAX_PARALLEL_LIMIT = 32

#: The settings that count something; each must be at least 1.
_COUNTS = ("max_steps", "max_parallel", "context_budget")


@dataclass(frozen=True)
class EpisodeSettings:
    """What one episode runs under. A trace header records it, and replay
    runs under what the header recorded."""

    max_steps: int = DEFAULT_MAX_STEPS
    max_parallel: int = DEFAULT_MAX_PARALLEL
    context_budget: int = DEFAULT_CONTEXT_BUDGET
    ablation: AblationConfig = AblationConfig()

    def __post_init__(self):
        for name in _COUNTS:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.max_parallel > MAX_PARALLEL_LIMIT:
            raise ConfigError(f"max_parallel must be <= {MAX_PARALLEL_LIMIT}")

    def to_json(self) -> dict:
        return {**{name: getattr(self, name) for name in _COUNTS},
                "ablation": sorted(t.value for t in self.ablation.enabled_tools)}

    @classmethod
    def from_json(cls, obj) -> "EpisodeSettings":
        """Missing keys take their defaults; ``ablation`` lists the enabled
        tools. A bad value raises ConfigError naming its key or tool."""
        if not isinstance(obj, dict):
            raise ConfigError("episode settings must be an object")
        try:
            counts = {name: json_get(obj, name, int) for name in _COUNTS if name in obj}
            names = json_strs(obj, "ablation", None)
            enabled = ALL_TOOLS if names is None else frozenset(map(Tool, names))
        except TypeError as exc:
            raise ConfigError(str(exc)) from None
        except ValueError as exc:
            raise ConfigError(f"unknown tool in ablation list: {exc}") from None
        return cls(**counts, ablation=AblationConfig(enabled))


def execute_batch(
    actions: list[Action],
    adapters: Mapping[Tool, ToolAdapter],
    cfg: AblationConfig = AblationConfig(),
    max_workers: int = DEFAULT_MAX_PARALLEL,
) -> list[ToolResult]:
    """Run a validated batch, possibly concurrently; results by action id.

    Disabled tools are answered locally without touching their adapter, so
    an ablated tool generates zero requests. The merge sorts by action id,
    making output order independent of completion order.
    """
    ids = [a.id for a in actions]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate action ids in batch")
    if not actions:
        return []

    results: list[ToolResult] = []
    to_run: list[Action] = []
    for action in actions:
        if not cfg.allows(action.tool):
            results.append(ToolResult.fail(action, "ToolDisabled"))
        elif action.tool not in adapters:
            results.append(ToolResult.fail(action, "NoAdapter"))
        else:
            to_run.append(action)

    def run_one(action: Action) -> ToolResult:
        try:
            return adapters[action.tool].execute(action)
        except Exception as e:  # adapters must not throw; contain it anyway
            return ToolResult.fail(action, "AdapterCrash", detail=repr(e))

    if len(to_run) == 1:
        results.append(run_one(to_run[0]))
    elif to_run:
        with ThreadPoolExecutor(max_workers=min(max_workers, len(to_run))) as pool:
            results.extend(pool.map(run_one, to_run))

    results.sort(key=lambda r: r.action_id)
    return results


def find_region_names(text: str, g: Gazetteer) -> frozenset[str]:
    """Region ids whose normalized name occurs in the case-folded text.

    Single-character names are ignored: substring matching would light them
    up everywhere.
    """
    haystack = text.casefold()
    found: set[str] = set()
    for name, ids in g.normalized_names():
        if len(name) >= 2 and name in haystack:
            found.update(ids)
    return frozenset(found)


def _cities_containing(g: Gazetteer, p: GeoPoint) -> list[str]:
    """Ids of the city discs holding ``p``; only the latitude band that the
    largest city radius allows is scanned."""
    return [c.id for c in g.cities_near(p, g.max_city_radius_km) if region_contains(c, p)]


def _coord(obj: dict) -> GeoPoint | None:
    lat = json_get(obj, "lat", (float, None), None)
    lon = json_get(obj, "lon", (float, None), None)
    return None if lat is None or lon is None else GeoPoint(lat, lon)


def extract_evidence(
    result: ToolResult,
    g: Gazetteer,
    tag_table: Mapping[str, frozenset[str]] | None = None,
    start_id: int = 1,
) -> list[Evidence]:
    """Turn an Ok payload into zero or more Evidence values.

    Rules by tool:
      - Ocr: one evidence per span whose text names known regions (0.9).
      - KnowledgeBase: one per record naming known regions (0.9); records
        carrying coordinates pin an exact point.
      - TextSearch: hits with coordinates inside exactly one city disc are
        pooled into a single evidence listing those cities (0.7).
      - ImageSearch: one per candidate, by region id or by point landing in
        exactly one city disc; confidence is the clamped score.
      - Caption: one per scene tag with an entry in the tag table (0.5).
      - Geocode: one per match, by region id (0.9) or by point (0.7).
      - Crop produces imagery, not evidence.

    A payload with a field of the wrong type or range yields nothing.
    Region ids returned by adapters must exist in the gazetteer; anything
    else is adapter misconfiguration and raises UnknownRegionError.
    """
    if not result.ok:
        return []
    assert result.payload is not None
    prov = Provenance(result.action_id, result.payload_sha256)
    drafts: list[tuple[str, frozenset[str], float, GeoPoint | None]] = []
    payload = result.payload

    try:
        if result.tool is Tool.OCR:
            for span in json_get(payload, "spans", list, []):
                text = json_get(span, "text", str, "")
                ids = find_region_names(text, g)
                if ids:
                    drafts.append((text, ids, CONF_NAME_MATCH, None))

        elif result.tool is Tool.KNOWLEDGE_BASE:
            for rec in json_get(payload, "records", list, []):
                title = json_get(rec, "title", str, "")
                ids = find_region_names(f"{title} {json_get(rec, 'body', str, '')}", g)
                if ids:
                    drafts.append((title, ids, CONF_NAME_MATCH, _coord(rec)))

        elif result.tool is Tool.TEXT_SEARCH:
            cities: set[str] = set()
            for hit in json_get(payload, "hits", list, []):
                p = _coord(hit)
                if p is not None:
                    containing = _cities_containing(g, p)
                    if len(containing) == 1:
                        cities.add(containing[0])
            if cities:
                claim = "search hits near " + ", ".join(sorted(g.get(c).name for c in cities))
                drafts.append((claim, frozenset(cities), CONF_COORD_MATCH, None))

        elif result.tool is Tool.IMAGE_SEARCH:
            for cand in json_get(payload, "candidates", list, []):
                score = max(0.0, min(json_get(cand, "score", float, 0.0), 1.0))
                rid = json_get(cand, "region_id", (str, None), None)
                if rid is not None:
                    if rid not in g:
                        raise UnknownRegionError(rid)
                    drafts.append((f"visual match: {g.get(rid).name}", frozenset({rid}), score, None))
                else:
                    p = _coord(cand)
                    if p is None:
                        continue
                    containing = _cities_containing(g, p)
                    if len(containing) == 1:
                        name = g.get(containing[0]).name
                        drafts.append(
                            (f"visual match near {name}", frozenset(containing), score, p)
                        )

        elif result.tool is Tool.CAPTION:
            table = tag_table or {}
            for tag in json_strs(payload, "tags", ()):
                rids = table.get(tag)
                if not rids:
                    continue
                if (unknown := g.closure(frozenset(rids)).unknown) is not None:
                    raise UnknownRegionError(unknown)
                drafts.append((f"scene tag: {tag}", frozenset(rids), CONF_TAG_MATCH, None))

        elif result.tool is Tool.GEOCODE:
            for match in json_get(payload, "matches", list, []):
                name = json_get(match, "name", str, "")
                p = _coord(match)
                rid = json_get(match, "region_id", (str, None), None)
                if rid is not None:
                    if rid not in g:
                        raise UnknownRegionError(rid)
                    drafts.append((name, frozenset({rid}), CONF_NAME_MATCH, p))
                elif p is not None:
                    containing = _cities_containing(g, p)
                    if len(containing) == 1:
                        drafts.append((name, frozenset(containing), CONF_COORD_MATCH, p))
    except (TypeError, ValueError):
        return []

    return [
        Evidence(
            id=start_id + i,
            source_action_id=result.action_id,
            claim=claim,
            constraint=constraint,
            confidence=conf,
            provenance=prov,
            point=point,
        )
        for i, (claim, constraint, conf, point) in enumerate(drafts)
    ]


def load_tag_table(path, g: Gazetteer) -> dict[str, frozenset[str]]:
    """Load the scene-tag to region-ids mapping from a JSON file.

    The mapping is data, not code: deployments ship their own file of
    ``{"tag": ["region-id", ...]}`` entries. Every region id must exist in
    the gazetteer; an unknown id raises UnknownRegionError naming the file
    and tag, so a stale table fails loudly instead of silently dropping
    constraints. A file that is not a JSON object raises ConfigError naming it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = parse_json(fh.read())
    except ValueError as exc:
        raise ConfigError(f"bad tag table {path}: {type(exc).__name__}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(
            f"bad tag table {path}: must be a JSON object, got {type(raw).__name__}")
    table: dict[str, frozenset[str]] = {}
    for tag in raw:
        try:
            region_ids = json_strs(raw, tag)
        except TypeError as exc:
            raise ConfigError(f"bad tag table {path}: {exc}") from None
        for rid in region_ids:
            if rid not in g:
                raise UnknownRegionError(rid, f"tag table {path}, tag {tag!r}")
        table[tag] = frozenset(region_ids)
    return table


def save_tag_table(path, table: Mapping[str, frozenset[str]]) -> None:
    """Write a tag table as stable, diffable JSON."""
    obj = {tag: sorted(rids) for tag, rids in sorted(table.items())}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
