"""Trajectory recording, trace loading, and context compression.

Every episode writes a JSONL trace: one header line, then one event per
line, each flushed to the operating system as it is written, so a process
crash loses at most the event being written. Nothing is fsynced, so a
machine crash can lose what the kernel had not yet written back.

A trace path that already holds a file is replaced, not rewritten in place:
the old file is unlinked and a new one created. A hard link to the old trace
keeps its bytes, a symlink at the path is replaced rather than followed, the
new file gets the default mode, not the old file's, and the directory must
be writable. Truncating a file that holds data would make ext4
(``auto_da_alloc``) force a writeback when it is closed; a new file is
written back on the kernel's normal schedule. This only matters when a run
re-writes traces that already exist, e.g. a second run into one directory.

Every line is the canonical JSON of its header or event
(``canonical.canonical_json``: sorted keys, compact separators, UTF-8, no
NaN), the same form the hashes cover. A line is composed
(``canonical.canonical_compose``) from the ``canonical.Raw`` parts its
objects have already encoded (``Evidence.canonical``,
``CandidateSpace.canonical``, ``ToolResult.payload_canonical``), so no
part is encoded twice. Traces written with spaced separators before lines
were canonical load and replay all the same.

Events carry a hash of the post-event episode state; execution results
carry a hash of their own payload. ``geoprobe.engine.replay`` runs the
episode again from a loaded trace's recorded inputs and names the first
event that diverges from what it records. The events are not hash-chained
(ROADMAP open item 3).
"""

from __future__ import annotations

import enum
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .canonical import Raw, canonical_compose, canonical_json, decode_text, json_get, parse_json
from .errors import BudgetTooSmallError, SeqGapError, TraceFormatError
from .geo import Gazetteer
from .state import EpisodeState

TRACE_FORMAT_VERSION = "1"


class EventKind(enum.Enum):
    DECISION = "Decision"
    EXECUTION = "Execution"
    PROJECTION = "Projection"
    BACKTRACK = "Backtrack"
    FINALIZE = "Finalize"
    ERROR = "Error"


@dataclass(frozen=True)
class TrajectoryEvent:
    seq: int
    kind: EventKind
    step: int
    wall_time: float
    payload: dict
    state_hash: str

    def to_json(self) -> dict:
        return {
            "seq": self.seq,
            "kind": self.kind.value,
            "step": self.step,
            "wall_time": self.wall_time,
            "payload": self.payload,
            "state_hash": self.state_hash,
        }

    def canonical(self, payload_json: str | None = None) -> str:
        """``canonical_json(self.to_json())``: the event's trace line.

        ``payload_json``, when given, must be ``canonical_json(self.payload)``,
        which a caller can compose from fragments it has already encoded.
        """
        if payload_json is None:
            return canonical_json(self.to_json())
        return canonical_compose({**self.to_json(), "payload": Raw(payload_json)})

    @classmethod
    def from_json(cls, obj: dict) -> "TrajectoryEvent":
        return cls(
            seq=json_get(obj, "seq", int),
            kind=EventKind(json_get(obj, "kind", str)),
            step=json_get(obj, "step", int),
            wall_time=json_get(obj, "wall_time", float),
            payload=json_get(obj, "payload", dict),
            state_hash=json_get(obj, "state_hash", str),
        )


@dataclass(frozen=True)
class TraceHeader:
    """What a trace was recorded against. ``episode`` is the episode
    settings' JSON; ``None`` stands for the defaults."""

    gazetteer_hash: str
    config_hash: str
    format_version: str = TRACE_FORMAT_VERSION
    meta: dict = field(default_factory=dict)
    episode: dict | None = None

    def to_json(self) -> dict:
        return {
            "format_version": self.format_version,
            "gazetteer_hash": self.gazetteer_hash,
            "config_hash": self.config_hash,
            "meta": dict(self.meta),
            "episode": self.episode,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TraceHeader":
        meta = json_get(obj, "meta", dict, {})
        for key in meta:
            json_get(meta, key, str)
        return cls(
            gazetteer_hash=json_get(obj, "gazetteer_hash", str),
            config_hash=json_get(obj, "config_hash", str),
            format_version=json_get(obj, "format_version", str),
            meta=meta,
            episode=json_get(obj, "episode", (dict, None), None),
        )


@dataclass(frozen=True)
class Trace:
    header: TraceHeader
    events: tuple[TrajectoryEvent, ...]


class TraceRecorder:
    """Appends events to an in-memory list and, optionally, a JSONL file.

    Sequence numbers are assigned contiguously from 0. When a path is given
    a new file replaces whatever is there, the header is written on
    construction and every event is flushed as soon as it is recorded.
    Every line is the canonical JSON of its header or event.
    """

    def __init__(self, header: TraceHeader, path: str | None = None):
        self.header = header
        self.events: list[TrajectoryEvent] = []
        self._path = path
        self._fh = None
        if path is not None:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
            self._fh = open(path, "w", encoding="utf-8")
            self._write_line(canonical_json(header.to_json()))

    def _write_line(self, line: str) -> None:
        assert self._fh is not None
        self._fh.write(line + "\n")
        self._fh.flush()

    @property
    def path(self) -> str | None:
        return self._path

    def record(self, kind: EventKind, state: EpisodeState, payload: dict,
               compose_payload: Callable[[], str] | None = None) -> TrajectoryEvent:
        """Append one event; the state hash is taken after the event's effect.

        ``compose_payload``, when given, must return ``canonical_json(payload)``:
        a caller that holds the payload's parts already encoded passes it, so
        the line does not encode them again. It is called only when the
        recorder writes the line, so a recorder without a path composes none.
        """
        event = TrajectoryEvent(
            seq=len(self.events),
            kind=kind,
            step=state.step,
            wall_time=time.time(),
            payload=payload,
            state_hash=state.snapshot_hash,
        )
        self.events.append(event)
        if self._fh is not None:
            self._write_line(event.canonical(
                None if compose_payload is None else compose_payload()))
        return event

    def trace(self) -> Trace:
        return Trace(self.header, tuple(self.events))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: What converting a parsed line into a header or event can raise: a missing
#: key, a value of the wrong JSON type, or an unknown event kind.
_BAD_FIELDS = (KeyError, TypeError, ValueError)


def _json_line(line: str, lineno: int, what: str):
    try:
        return parse_json(line)
    except json.JSONDecodeError as e:
        raise TraceFormatError(lineno, f"bad {what} JSON: {e.msg}") from None


def load_trace(path: str) -> Trace:
    """Parse a JSONL trace file, enforcing format and seq contiguity.

    Any malformed line, including bytes that are not UTF-8, raises
    ``TraceFormatError`` with its 1-based line number. Lines end at
    ``\\n`` only, so a U+2028 or U+0085 written raw inside a JSON string
    stays within its line.
    """
    with open(path, "rb") as f:
        data = f.read()
    try:
        lines = decode_text(data).split("\n")
    except json.JSONDecodeError as e:
        raise TraceFormatError(e.lineno, e.msg) from None
    if not lines[0].strip():
        raise TraceFormatError(1, "missing trace header")
    head_obj = _json_line(lines[0], 1, "header")
    if not isinstance(head_obj, dict) or "format_version" not in head_obj:
        raise TraceFormatError(1, "header must be an object with format_version")
    if head_obj["format_version"] != TRACE_FORMAT_VERSION:
        raise TraceFormatError(1, f"unsupported format_version {head_obj['format_version']!r}")
    try:
        header = TraceHeader.from_json(head_obj)
    except _BAD_FIELDS as e:
        raise TraceFormatError(1, f"bad header: {e}") from None

    events: list[TrajectoryEvent] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        obj = _json_line(line, lineno, "event")
        try:
            event = TrajectoryEvent.from_json(obj)
        except _BAD_FIELDS as e:
            raise TraceFormatError(lineno, f"bad event: {e}") from None
        if event.seq != len(events):
            raise SeqGapError(expected=len(events), got=event.seq)
        events.append(event)
    return Trace(header, tuple(events))


def is_repetition(events: Sequence[TrajectoryEvent], module: str, tool: str,
                  args: dict) -> bool:
    """Whether an identical probe was already decided earlier in the episode."""
    for event in events:
        if event.kind is not EventKind.DECISION:
            continue
        for act in event.payload["decision"]["actions"]:
            if act["module"] == module and act["tool"] == tool and act["args"] == args:
                return True
    return False


# ---------------------------------------------------------------------------
# Context compression

#: Claim truncation lengths per compression level; None marks the floor
#: rendering (ids and constraints only).
_CLAIM_WIDTHS: tuple[int | None, ...] = (0, 80, 24, None)


@dataclass(frozen=True)
class CompressedContext:
    """Bounded text digest of an episode for feeding back to a reasoner."""

    step: int
    frontier_unchanged_steps: int
    candidate_rows: tuple[str, ...]
    evidence_rows: tuple[str, ...]
    action_rows: tuple[str, ...]
    level: int

    def render(self) -> str:
        lines = [f"step {self.step}; frontier unchanged for {self.frontier_unchanged_steps} steps"]
        lines.append(f"candidates ({len(self.candidate_rows)}):")
        lines.extend(self.candidate_rows)
        lines.append(f"evidence ({len(self.evidence_rows)}):")
        lines.extend(self.evidence_rows)
        lines.append(f"actions ({len(self.action_rows)}):")
        lines.extend(self.action_rows)
        return "\n".join(lines) + "\n"


def _truncate(text: str, width: int) -> str:
    if width <= 0 or len(text) <= width:
        return text
    return text[: width - 1] + "…"


def frontier_unchanged_steps(events: Sequence[TrajectoryEvent]) -> int:
    """Length of the trailing run of projections that left the space as-is."""
    spaces = [{"is_global": True, "frontier": []}]
    spaces += [e.payload["space"] for e in events if e.kind is EventKind.PROJECTION]
    count = 0
    i = len(spaces) - 1
    while i >= 1 and spaces[i] == spaces[i - 1]:
        count += 1
        i -= 1
    return count


def compress(
    state: EpisodeState,
    events: Sequence[TrajectoryEvent],
    g: Gazetteer,
    budget: int = 4000,
) -> CompressedContext:
    """Digest the episode into at most ``budget`` characters.

    Detail degrades in fixed stages (full claims, clipped claims, then the
    id-and-constraint floor). If even the floor rendering does not fit, the
    budget is genuinely too small and that is an error.
    """
    statuses: dict[int, str] = {}
    probes: list[tuple[int, str, str]] = []
    for event in events:
        if event.kind is EventKind.DECISION:
            for act in event.payload["decision"]["actions"]:
                probes.append((act["id"], act["module"], act["tool"]))
        elif event.kind is EventKind.EXECUTION:
            for res in event.payload["results"]:
                statuses[res["action_id"]] = res["status"]

    stall = frontier_unchanged_steps(events)
    active = state.active_evidence()
    inactive = sorted(state.inactive_ids)

    for level, width in enumerate(_CLAIM_WIDTHS):
        if state.space.is_global:
            cand_rows = ["- (global)"]
        elif width is None:
            cand_rows = [f"- {rid}" for rid in sorted(state.space.frontier)]
        else:
            cand_rows = []
            for rid in sorted(state.space.frontier):
                r = g.get(rid)
                cand_rows.append(f"- {rid} {r.level.value} {r.name}")

        ev_rows = []
        for e in active:
            ids = ",".join(sorted(e.constraint))
            if width is None:
                ev_rows.append(f"- e{e.id} {{{ids}}}")
            else:
                claim = _truncate(e.claim, width)
                ev_rows.append(f"- e{e.id} [{e.confidence:.2f}] {{{ids}}} {claim}".rstrip())
        if inactive:
            ev_rows.append("- off: " + ",".join(f"e{i}" for i in inactive))

        act_rows = []
        for aid, module, tool in probes:
            status = statuses.get(aid, "pending")
            if width is None:
                act_rows.append(f"- a{aid} {tool} {status}")
            else:
                act_rows.append(f"- a{aid} {module}/{tool} {status}")

        ctx = CompressedContext(
            step=state.step,
            frontier_unchanged_steps=stall,
            candidate_rows=tuple(cand_rows),
            evidence_rows=tuple(ev_rows),
            action_rows=tuple(act_rows),
            level=level,
        )
        if len(ctx.render()) <= budget:
            return ctx
    raise BudgetTooSmallError(
        f"floor rendering exceeds budget of {budget} characters"
    )
