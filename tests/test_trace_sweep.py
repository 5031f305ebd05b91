"""Aim 3's number: one edit per JSON value of engine traces, and the classes
of edits that replay still accepts.

The leaf sweep edits each leaf within its type: it flips a bool, adds 1 to a
number, appends "x" to a string or turns null into 0. The type sweep gives
each value below a line's top object another JSON type (``retyped``). An
edit is caught when ``load_trace`` or ``replay`` raises
``TraceFormatError``, ``SeqGapError`` or ``HashMismatchError``. An accepted
edit is classed by its line (``"header"`` or the event kind) and its key
path, list indices left out. The allow-lists are exactly the accepted
classes: a test fails when a class outside its list is accepted, and when a
listed class no longer is, so the lists shrink as replay checks more.
"""

import json
from collections import Counter
from pathlib import Path

from geoprobe.engine import replay
from geoprobe.errors import HashMismatchError, SeqGapError, TraceFormatError
from geoprobe.executor import AblationConfig, EpisodeSettings
from geoprobe.planner import scripted_salience_policy
from geoprobe.recorder import load_trace
from geoprobe.synthworld import Difficulty, generate_world, sample_episode

from conftest import synthetic_episode

GOLDEN_TRACE = Path(__file__).parent / "data" / "synth_w11_3x5_medium_s4.trace.jsonl"
WORLD = generate_world(11, 3, 5)
TAGS = WORLD.tag_table()

#: What replay takes as recorded: the inputs no re-execution can check (a
#: Decision's thought and action args, a result's latency, the header's
#: config hash and meta; ROADMAP open item 3) and ``wall_time``, which it
#: does not compare. A result's ``detail`` is such an input too, but every
#: golden ``detail`` is null, and null edited to 0 is not a string.
GOLDEN_ALLOWED = {
    ("header", "config_hash"),
    ("header", "meta.image_ref"),
    ("Decision", "payload.decision.thought"),
    ("Decision", "payload.decision.actions.args.image"),
    ("Decision", "payload.decision.actions.args.query"),
    ("Execution", "payload.results.latency_ms"),
    ("Decision", "wall_time"),
    ("Execution", "wall_time"),
    ("Projection", "wall_time"),
    ("Backtrack", "wall_time"),
    ("Finalize", "wall_time"),
}
#: Accepted edits of the golden trace, and all its edits.
GOLDEN_COUNTS = (30, 267)
#: Edits of the type sweep of the golden trace; it accepts none of them.
GOLDEN_TYPE_EDITS = 372

#: Traces recorded now also carry the episode settings in their header. A
#: count one higher changes nothing these episodes did, so it is accepted;
#: an edited tool name in the ablation is not.
FRESH_ALLOWED = GOLDEN_ALLOWED | {
    ("header", "episode.max_steps"),
    ("header", "episode.max_parallel"),
    ("header", "episode.context_budget"),
    ("Error", "wall_time"),
}

#: Scripted 3x5 episodes: one that backtracks, and one that runs out of
#: steps with every tool disabled and ends in an InsufficientEvidence Error.
FRESH_EPISODES = [
    (Difficulty.HARD, 0, EpisodeSettings()),
    (Difficulty.EASY, 0, EpisodeSettings(max_steps=3, ablation=AblationConfig(frozenset()))),
]


def edited(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    assert value is None
    return 0


def retyped(value):
    """``value`` as another JSON type: a number as its string, a string in
    an array, a bool as 0 or 1, null as [], an object as its [key, value]
    pairs and an array as an object keyed by index."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return json.dumps(value)
    if isinstance(value, str):
        return [value]
    if value is None:
        return []
    if isinstance(value, dict):
        return [[key, item] for key, item in value.items()]
    return {str(i): item for i, item in enumerate(value)}


def paths(obj, keys=(), containers=False):
    """The key path of every JSON leaf under ``obj`` and, with
    ``containers``, of every object and array below it as well."""
    if isinstance(obj, (dict, list)):
        if containers and keys:
            yield keys
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from paths(value, keys + (key,), containers)
    else:
        yield keys


def sweep(lines, tmp_path, edit=edited, containers=False) -> tuple[Counter, int]:
    """Accepted edits per class, and the number of edits, of the trace whose
    lines are ``lines``: ``edit`` is applied to each leaf in turn and, with
    ``containers``, to each object and array below a line's object too."""
    path = tmp_path / "edited.trace.jsonl"
    accepted, total = Counter(), 0
    for i, line in enumerate(lines):
        for keys in paths(json.loads(line), containers=containers):
            total += 1
            obj = json.loads(line)
            target = obj
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = edit(target[keys[-1]])
            path.write_text("\n".join([*lines[:i], json.dumps(obj), *lines[i + 1:]]) + "\n")
            try:
                replay(load_trace(str(path)), WORLD.gazetteer, TAGS)
            except (TraceFormatError, SeqGapError, HashMismatchError):
                continue
            kind = "header" if i == 0 else obj["kind"]
            accepted[kind, ".".join(k for k in keys if isinstance(k, str))] += 1
    return accepted, total


def test_golden_trace_sweep(tmp_path):
    accepted, total = sweep(GOLDEN_TRACE.read_text(encoding="utf-8").splitlines(), tmp_path)
    assert set(accepted) == GOLDEN_ALLOWED
    assert (sum(accepted.values()), total) == GOLDEN_COUNTS


def test_golden_trace_type_sweep(tmp_path):
    """No value of the golden trace can change its JSON type unnoticed."""
    accepted, total = sweep(GOLDEN_TRACE.read_text(encoding="utf-8").splitlines(), tmp_path,
                            retyped, containers=True)
    assert (dict(accepted), total) == ({}, GOLDEN_TYPE_EDITS)


def test_fresh_traces_sweep(tmp_path):
    accepted = Counter()
    for difficulty, seed, settings in FRESH_EPISODES:
        path = tmp_path / "fresh.trace.jsonl"
        synthetic_episode(WORLD, sample_episode(WORLD, seed, difficulty),
                          scripted_salience_policy(), settings=settings,
                          trace_path=str(path))
        accepted += sweep(path.read_text(encoding="utf-8").splitlines(), tmp_path)[0]
    assert set(accepted) == FRESH_ALLOWED
