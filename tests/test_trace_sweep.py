"""Aim 3's number: one edit per JSON leaf of engine traces, and the classes
of edits that replay still accepts.

An edit flips a bool, adds 1 to a number, appends "x" to a string or turns
null into 0. It is caught when ``load_trace`` or ``replay`` raises
``TraceFormatError``, ``SeqGapError`` or ``HashMismatchError``. An accepted
edit is classed by its line (``"header"`` or the event kind) and its key
path, list indices left out. The allow-lists are exactly the accepted
classes: a test fails when a class outside its list is accepted, and when a
listed class no longer is, so the lists shrink as replay checks more.
"""

import json
from collections import Counter
from pathlib import Path

from geoprobe.engine import replay, run_synthetic_episode
from geoprobe.errors import HashMismatchError, SeqGapError, TraceFormatError
from geoprobe.executor import AblationConfig, EpisodeSettings
from geoprobe.planner import scripted_salience_policy
from geoprobe.recorder import load_trace
from geoprobe.synthworld import Difficulty, generate_world, sample_episode

GOLDEN_TRACE = Path(__file__).parent / "data" / "synth_w11_3x5_medium_s4.trace.jsonl"
WORLD = generate_world(11, 3, 5)
TAGS = WORLD.tag_table()

#: What replay takes as recorded: the inputs no re-execution can check (a
#: Decision's thought and action args, a result's detail and latency, the
#: header's config hash and meta; ROADMAP open item 3) and ``wall_time``,
#: which it does not compare.
GOLDEN_ALLOWED = {
    ("header", "config_hash"),
    ("header", "meta.image_ref"),
    ("Decision", "payload.decision.thought"),
    ("Decision", "payload.decision.actions.args.image"),
    ("Decision", "payload.decision.actions.args.query"),
    ("Execution", "payload.results.detail"),
    ("Execution", "payload.results.latency_ms"),
    ("Decision", "wall_time"),
    ("Execution", "wall_time"),
    ("Projection", "wall_time"),
    ("Backtrack", "wall_time"),
    ("Finalize", "wall_time"),
}
#: Accepted edits of the golden trace, and all its edits.
GOLDEN_COUNTS = (34, 267)

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


def leaves(obj, keys=()):
    """The key path of every JSON leaf under ``obj``."""
    if isinstance(obj, (dict, list)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from leaves(value, keys + (key,))
    else:
        yield keys


def sweep(lines, tmp_path) -> tuple[Counter, int]:
    """Accepted edits per class, and the number of edits, of the trace whose
    lines are ``lines``."""
    path = tmp_path / "edited.trace.jsonl"
    accepted, total = Counter(), 0
    for i, line in enumerate(lines):
        for keys in leaves(json.loads(line)):
            total += 1
            obj = json.loads(line)
            target = obj
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = edited(target[keys[-1]])
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


def test_fresh_traces_sweep(tmp_path):
    accepted = Counter()
    for difficulty, seed, settings in FRESH_EPISODES:
        path = tmp_path / "fresh.trace.jsonl"
        run_synthetic_episode(WORLD, sample_episode(WORLD, seed, difficulty),
                              scripted_salience_policy(), settings=settings,
                              trace_path=str(path))
        accepted += sweep(path.read_text(encoding="utf-8").splitlines(), tmp_path)[0]
    assert set(accepted) == FRESH_ALLOWED
