"""One strict reader for every input document.

``canonical.json_get`` and ``json_strs`` decide what JSON type each field
must be; the loaders read through them and never coerce. Each loader keeps
its own error: a config raises ``ConfigError``, a dataset line
``DatasetError`` (with its line and field), a world file ``ConfigError``, a
gazetteer record ``GazetteerFileError`` and a tag table ``ConfigError``.
"""

from __future__ import annotations

import ast
import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geoprobe.actions import CapabilityModule, Tool, parse_decision
from geoprobe.bench import DATASET_SUFFIX, BenchmarkSample, classify_scene, load_dataset
from geoprobe.canonical import json_get, json_strs
from geoprobe.cli import EXIT_CONFIG, _load_descriptor, main
from geoprobe.config import RunConfig, load_config
from geoprobe.errors import (
    ConfigError,
    DatasetError,
    DecisionParseError,
    EmptyDatasetError,
    GazetteerFileError,
    SeqGapError,
    TraceFormatError,
    UnknownRegionError,
)
from geoprobe.executor import load_tag_table
from geoprobe.geo import load_gazetteer
from geoprobe.recorder import load_trace
from geoprobe.synthworld import (
    Difficulty,
    SceneDescriptor,
    generate_world,
    load_world,
    sample_episode,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "geoprobe"
WORLD = generate_world(11, 3, 5)


# -- the reader ---------------------------------------------------------------

def test_json_get_reads_each_type_as_written():
    obj = {"i": 3, "f": 2.5, "n": 4, "s": "x", "b": True, "d": {}, "l": [], "z": None}
    assert json_get(obj, "i", int) == 3
    assert json_get(obj, "f", float) == 2.5
    got = json_get(obj, "n", float)
    assert got == 4.0 and type(got) is float
    assert [json_get(obj, k, t) for k, t in
            [("s", str), ("b", bool), ("d", dict), ("l", list)]] == ["x", True, {}, []]
    assert json_get(obj, "z", (str, None)) is None
    assert json_get(obj, "absent", int, 7) == 7
    with pytest.raises(KeyError):
        json_get(obj, "absent", int)


@pytest.mark.parametrize("value, kind", [
    (True, int), (2.0, int), ("3", int),
    (True, float), ("0.5", float), (math.nan, float), (math.inf, float), (10**400, float),
    (5, str), (["a"], str), (None, str),
    (0, bool), ("true", bool),
    ([["k", 1]], dict), ({"0": 1}, list),
])
def test_json_get_rejects_every_other_type(value, kind):
    with pytest.raises(TypeError, match="^field must be"):
        json_get({"field": value}, "field", kind)


def test_json_get_message_never_holds_the_value():
    deep = []
    for _ in range(100_000):
        deep = [deep]
    with pytest.raises(TypeError) as ei:
        json_get({"field": deep}, "field", str)
    assert str(ei.value) == "field must be a string, got an array"


def test_json_get_needs_an_object():
    with pytest.raises(TypeError, match="lat must be read from an object"):
        json_get("flat", "lat", float)


def test_json_strs():
    assert json_strs({"t": ["a", "b"]}, "t") == ("a", "b")
    assert json_strs({}, "t", ()) == ()
    for bad in ("ab", ["a", 5], [["a"]], None):
        with pytest.raises(TypeError, match="^t must be"):
            json_strs({"t": bad}, "t")


# -- tooling guard: no casts inside the readers -------------------------------

#: The functions that read outside documents, and bench's table of field readers.
READERS = {"from_json", "_sample_from_line", "extract_evidence", "_coord",
           "load_tag_table", "execute", "_FIELDS"}
CASTS = {"bool", "dict", "float", "frozenset", "int", "list", "str", "tuple"}


def _is_read(node: ast.AST) -> bool:
    """``x[...]`` or ``x.get(...)``."""
    return isinstance(node, ast.Subscript) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get")


def casts_in_readers(source: str, module: str) -> list[str]:
    """Each builtin cast applied to a read, inside a reader of ``source``.
    ``execute`` counts only in ``engine`` (``TraceBackend.execute``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            name = next((t.id for t in targets if isinstance(t, ast.Name)), None)
        else:
            continue
        if name not in READERS or (name == "execute" and module != "engine"):
            continue
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                    and sub.func.id in CASTS and sub.args and _is_read(sub.args[0])):
                found.append(f"{module}.{name}: {ast.unparse(sub)}")
    return found


def test_readers_cast_nothing():
    """Field types are decided by the reader, not by a cast at each site."""
    found = [cast for path in sorted(SRC.glob("*.py"))
             for cast in casts_in_readers(path.read_text(encoding="utf-8"), path.stem)]
    assert found == []


@pytest.mark.parametrize("source", [
    'def from_json(obj):\n    return float(obj["lat"])\n',
    'def _coord(obj):\n    return str(obj.get("name", ""))\n',
    '_FIELDS = ((\"id\", lambda o, k: str(o[k])),)\n',
])
def test_guard_finds_a_cast(source):
    assert len(casts_in_readers(source, "geo")) == 1


# -- wrong JSON types, one field at a time ------------------------------------

def edited(doc, path, value):
    """A deep copy of ``doc`` with the value at ``path`` replaced."""
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


CONFIG = {
    "gazetteer": "g.json",
    "backend": {"kind": "llm", "endpoint": "http://llm.local/chat", "model": "m",
                "auth_env": "TOKEN"},
    "tools": {"mode": "live", "world": None, "base_url": "http://tools.local",
              "auth_env": "TOOLS", "timeout_s": 3, "retries": 2, "backoff_s": 0.5, "top_k": 5},
    "tag_table": "tags.json",
    "ablation": ["Caption", "Ocr"],
    "max_steps": 6, "max_parallel": 2, "context_budget": 900,
    "out_dir": "out",
}

CONFIG_EDITS = [
    (("gazetteer",), 5), (("tag_table",), ["t.json"]), (("out_dir",), None),
    (("backend",), "llm"), (("backend", "kind"), 5), (("backend", "endpoint"), 5),
    (("backend", "model"), ["m"]), (("backend", "auth_env"), None),
    (("tools",), []), (("tools", "mode"), 5), (("tools", "world"), 5),
    (("tools", "base_url"), 5), (("tools", "auth_env"), 5),
    (("tools", "timeout_s"), "3"), (("tools", "retries"), 2.7),
    (("tools", "backoff_s"), True), (("tools", "top_k"), True),
    (("ablation",), "Caption"), (("ablation", 0), 5),
    (("max_steps",), 6.0), (("max_parallel",), "2"), (("context_budget",), None),
]


def test_config_base_loads():
    cfg = RunConfig.from_json(CONFIG)
    assert cfg.tools.timeout_s == 3.0 and cfg.tools.top_k == 5


@pytest.mark.parametrize("path, value", CONFIG_EDITS, ids=[
    ".".join(map(str, p)) for p, _ in CONFIG_EDITS])
def test_config_wrong_type_rejected(path, value):
    name = next(k for k in reversed(path) if isinstance(k, str))
    with pytest.raises(ConfigError, match=name):
        RunConfig.from_json(edited(CONFIG, path, value))


def _sample_line() -> dict:
    desc = sample_episode(WORLD, 4, Difficulty.MEDIUM)
    city = WORLD.gazetteer.get(desc.truth.city_id)
    return BenchmarkSample(
        id="s1", truth_point=desc.truth.point, truth_city=city.name,
        truth_province=WORLD.gazetteer.get(city.parent_id).name,
        scene_category=classify_scene(desc), difficulty=desc.difficulty,
        descriptor=desc, clue_tags=tuple(c.value for c in desc.clues)).to_json()


SAMPLE = _sample_line()

DATASET_EDITS = [
    (("id",), 12), (("truth",), "x"), (("truth", "lat"), "31.5"),
    (("truth_city",), 5), (("truth_province",), None),
    (("scene_category",), 5), (("difficulty",), ["Medium"]),
    (("descriptor",), "x"), (("descriptor", "clues"), {}),
    (("descriptor", "clues", 0, "kind"), 5), (("descriptor", "clues", 0, "value"), 7),
    (("descriptor", "clues", 0, "salience"), "0.5"),
    (("descriptor", "clues", 0, "salience"), True),
    (("descriptor", "clues", 0, "salience"), 5),
    (("descriptor", "clues", 0, "salience"), math.nan),
    (("descriptor", "truth", "lat"), "31.5"), (("descriptor", "truth", "city_id"), 5),
    (("descriptor", "difficulty"), 5),
    (("clue_tags",), "karst-hills"), (("clue_tags", 0), 5),
]


@pytest.mark.parametrize("path, value", DATASET_EDITS, ids=[
    f"{'.'.join(map(str, p))}={v!r}" for p, v in DATASET_EDITS])
def test_dataset_wrong_type_rejected(tmp_path, path, value):
    file = tmp_path / f"d{DATASET_SUFFIX}"
    file.write_text(json.dumps({**SAMPLE, "id": "s0"}) + "\n"
                    + json.dumps(edited(SAMPLE, path, value)) + "\n")
    with pytest.raises(DatasetError) as ei:
        load_dataset(file)
    assert (ei.value.line, ei.value.field) == (2, path[0])
    assert next(k for k in reversed(path) if isinstance(k, str)) in str(ei.value)


def test_dataset_image_must_be_a_string(tmp_path):
    obj = {k: v for k, v in SAMPLE.items() if k != "descriptor"}
    file = tmp_path / f"d{DATASET_SUFFIX}"
    file.write_text(json.dumps({**obj, "image": 5}) + "\n")
    with pytest.raises(DatasetError) as ei:
        load_dataset(file)
    assert (ei.value.line, ei.value.field) == (1, "image")


CITY = WORLD.city_ids()[0]
WORLD_EDITS = [
    (("format",), 5), (("seed",), "11"), (("seed",), 11.9), (("regions",), {}),
    (("regions", 0, "id"), 5), (("regions", 0, "level"), 5), (("regions", 0, "name"), 5),
    (("regions", 1, "parent_id"), 5), (("regions", 1, "lat"), "1"),
    (("regions", 1, "lon"), None), (("regions", 1, "radius_km"), "350"),
    (("attributes",), []), (("attributes", "r0"), "river-delta"),
    (("attributes", "r0", 0), 5), (("signs",), []), (("signs", CITY), "x"),
    (("pois",), []), (("pois", CITY), {}), (("pois", CITY, 0, "name"), 5),
    (("pois", CITY, 0, "lat"), "1"),
]


@pytest.mark.parametrize("path, value", WORLD_EDITS, ids=[
    f"{'.'.join(map(str, p))}={v!r}" for p, v in WORLD_EDITS])
def test_world_wrong_type_rejected(tmp_path, path, value):
    file = tmp_path / "world.json"
    file.write_text(json.dumps(edited(WORLD.to_json(), path, value)))
    name = next(k for k in reversed(path) if isinstance(k, str))
    with pytest.raises(ConfigError, match=f"bad world file .*: {name} must be"):
        load_world(str(file))


@pytest.mark.parametrize("field, value", [
    ("id", 5), ("level", ["province"]), ("name", 5), ("parent_id", 5),
    ("lat", "1"), ("lon", True), ("radius_km", "350"),
])
def test_gazetteer_wrong_type_rejected(tmp_path, field, value):
    records = WORLD.gazetteer.to_json()
    records[1][field] = value
    file = tmp_path / "gazetteer.json"
    file.write_text(json.dumps(records, indent=1))
    with pytest.raises(GazetteerFileError, match=field) as ei:
        load_gazetteer(str(file))
    # "[" on line 1, then the first record, then the edited one.
    assert ei.value.line == 2 + len(json.dumps(records[0], indent=1).splitlines())


@pytest.mark.parametrize("entry", ["r0", ["r0", 5], None, {"r0": 1}])
def test_tag_table_wrong_type_rejected(tmp_path, entry):
    file = tmp_path / "tags.json"
    file.write_text(json.dumps({"karst": entry}))
    with pytest.raises(ConfigError, match=f"bad tag table {file}: karst must be"):
        load_tag_table(str(file), WORLD.gazetteer)


# -- no NaN or infinity in any document --------------------------------------

GOLDEN_TRACE = Path(__file__).parent / "data" / "synth_w11_3x5_medium_s4.trace.jsonl"


def _with_token(doc, path, token: str, indent=None) -> str:
    """``doc`` as JSON text with the value at ``path`` written as ``token``."""
    return json.dumps(edited(doc, path, "@token@"), indent=indent).replace('"@token@"', token)


def _trace_text(token: str) -> str:
    lines = GOLDEN_TRACE.read_text(encoding="utf-8").splitlines()
    lines[3] = _with_token(json.loads(lines[3]), ("payload", "evidence", 0, "confidence"), token)
    return "\n".join(lines) + "\n"


#: Each reader, with a document holding ``token`` on one line: (file name,
#: the document, the line its reader must name, how the error names it).
NON_FINITE_DOCS = {
    "dataset": (f"d{DATASET_SUFFIX}", lambda token: json.dumps({**SAMPLE, "id": "s0"}) + "\n"
                + _with_token(SAMPLE, ("descriptor", "clues", 0, "salience"), token) + "\n",
                2, lambda e: (e.line, e.field)),
    "config": ("c.json", lambda token: _with_token(CONFIG, ("tools", "timeout_s"), token, 1),
               json.dumps(CONFIG, indent=1).splitlines().index('  "timeout_s": 3,') + 1,
               lambda e: int(str(e).split("line ")[-1].split()[0])),
    "gazetteer": ("g.json", lambda token: _with_token(WORLD.gazetteer.to_json(), (1, "lat"),
                                                       token, 1),
                  2 + len(json.dumps(WORLD.gazetteer.to_json()[0], indent=1).splitlines()),
                  lambda e: e.line),
    "trace": ("r.trace.jsonl", _trace_text, 4, lambda e: e.line),
}


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("reader", NON_FINITE_DOCS)
def test_a_non_finite_number_fails_at_its_line(tmp_path, reader, token):
    """Each reader rejects what ``parse_json`` rejects with its own error,
    naming the line that holds the number (a gazetteer, its record's)."""
    name, document, line, where = NON_FINITE_DOCS[reader]
    _, read, errors = FILE_READERS[reader]
    path = tmp_path / name
    path.write_text(document(token), encoding="utf-8")
    with pytest.raises(errors[0]) as ei:
        read(str(path))
    assert f"{token} is not a finite JSON number" in str(ei.value)
    assert where(ei.value) == ((line, "descriptor") if reader == "dataset" else line)


# -- any JSON value loads or raises the loader's error ------------------------

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8)


def objects(fields: dict) -> st.SearchStrategy:
    """Objects holding any subset of ``fields``: each a value its strategy
    draws, or any JSON value at all."""
    return st.fixed_dictionaries({}, optional={k: s | JSON for k, s in fields.items()})


TEXT = st.text(max_size=6)
NUMBER = st.integers(-3, 40) | st.floats(-1, 40)
CONFIG_DOCS = JSON | objects({
    "gazetteer": TEXT, "tag_table": TEXT, "out_dir": TEXT,
    "backend": objects({"kind": st.sampled_from(["scripted", "llm"]), "endpoint": TEXT,
                        "model": TEXT, "auth_env": TEXT}),
    "tools": objects({"mode": st.sampled_from(["synthetic", "live"]), "world": TEXT,
                      "base_url": TEXT, "auth_env": TEXT, "timeout_s": NUMBER,
                      "retries": NUMBER, "backoff_s": NUMBER, "top_k": NUMBER}),
    "ablation": st.lists(st.sampled_from([t.value for t in Tool]) | TEXT, max_size=3),
    "max_steps": NUMBER, "max_parallel": NUMBER, "context_budget": NUMBER,
})
CLUES = st.lists(objects({"kind": st.sampled_from(["Terrain", "Poi"]), "value": TEXT,
                          "salience": NUMBER}), max_size=2)
DESCRIPTORS = JSON | objects({
    "clues": CLUES, "difficulty": st.sampled_from([d.value for d in Difficulty]),
    "truth": objects({"lat": NUMBER, "lon": NUMBER, "city_id": TEXT}),
})
SAMPLE_DOCS = JSON | objects({
    "id": TEXT, "truth": objects({"lat": NUMBER, "lon": NUMBER}), "truth_city": TEXT,
    "truth_province": TEXT, "scene_category": st.sampled_from(["Rural", "Urban"]),
    "difficulty": st.sampled_from(["Easy", "Hard"]), "image": TEXT,
    "descriptor": DESCRIPTORS, "clue_tags": st.lists(TEXT, max_size=2),
})
DECISIONS = JSON | objects({
    "version": st.just("1"), "thought": TEXT, "finalize": st.booleans(),
    "actions": st.lists(objects({
        "module": st.sampled_from([m.value for m in CapabilityModule]),
        "tool": st.sampled_from([t.value for t in Tool]),
        "args": st.dictionaries(st.sampled_from(["image", "query", "box"]), JSON, max_size=2),
    }), max_size=3),
})

BOUNDED = settings(max_examples=150, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


@BOUNDED
@given(CONFIG_DOCS)
def test_any_config_loads_or_raises_config_error(doc):
    try:
        RunConfig.from_json(doc)
    except ConfigError:
        pass


@BOUNDED
@given(SAMPLE_DOCS)
def test_any_dataset_line_loads_or_raises_dataset_error(tmp_path_factory, doc):
    file = tmp_path_factory.mktemp("d") / f"d{DATASET_SUFFIX}"
    file.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    try:
        load_dataset(file)
    except DatasetError as exc:
        assert exc.line == 1


@BOUNDED
@given(DESCRIPTORS)
def test_any_descriptor_loads_or_raises_what_its_loaders_translate(doc):
    """The dataset loader and the CLI's descriptor file turn exactly these
    three into their ``DatasetError`` and ``ConfigError``."""
    try:
        SceneDescriptor.from_json(doc)
    except (KeyError, TypeError, ValueError):
        pass


@BOUNDED
@given(DECISIONS)
def test_any_decision_parses_or_raises_decision_parse_error(doc):
    try:
        parse_decision(json.dumps(doc), start_id=1, max_parallel=4)
    except DecisionParseError:
        pass


# -- any bytes at all: each file reader returns or raises its own error -------

#: Not UTF-8, and nested past the recursion limit.
MALFORMED = {"not-utf8": b"\xff", "deep": b"[" * 5000}

#: Each file reader: (file name, reader, the errors it documents). The
#: first error is the one a malformed file raises.
FILE_READERS = {
    "dataset": (f"d{DATASET_SUFFIX}", load_dataset, (DatasetError, EmptyDatasetError)),
    "gazetteer": ("g.json", load_gazetteer, (GazetteerFileError,)),
    "config": ("c.json", load_config, (ConfigError,)),
    "world": ("w.json", load_world, (ConfigError,)),
    "tag-table": ("t.json", lambda path: load_tag_table(path, WORLD.gazetteer),
                  (ConfigError, UnknownRegionError)),
    "descriptor": ("s.json", _load_descriptor, (ConfigError,)),
    "trace": ("r.trace.jsonl", load_trace, (TraceFormatError, SeqGapError)),
}


@pytest.mark.parametrize("data", MALFORMED.values(), ids=MALFORMED.keys())
@pytest.mark.parametrize("reader", FILE_READERS)
def test_malformed_file_raises_the_readers_error(tmp_path, reader, data):
    name, read, errors = FILE_READERS[reader]
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(errors[0]) as ei:
        read(str(path))
    if hasattr(ei.value, "line"):
        assert ei.value.line == 1
    else:
        assert str(path) in str(ei.value)


#: Arbitrary bytes, deep nesting (open or closed), a bad byte after some
#: JSON, and JSON values as text.
DOCUMENTS = st.one_of(
    st.binary(max_size=24),
    st.builds(lambda opener, n: opener * n, st.sampled_from([b"[", b'{"k":', b'{"k": [']),
              st.integers(1, 4000)),
    st.integers(1, 3000).map(lambda n: b"[" * n + b"]" * n),
    st.builds(lambda doc, bad, tail: doc + bad + tail,
              JSON.map(lambda v: json.dumps(v).encode()),
              st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\n\xfe"]),
              st.binary(max_size=4)),
    JSON.map(lambda v: json.dumps(v).encode()),
)


@pytest.mark.parametrize("reader", FILE_READERS)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=DOCUMENTS)
def test_any_file_reads_or_raises_the_readers_errors(tmp_path_factory, reader, data):
    name, read, errors = FILE_READERS[reader]
    path = tmp_path_factory.getbasetemp() / f"any-{name}"
    path.write_bytes(data)
    try:
        read(str(path))
    except errors:
        pass


#: A malformed file for each CLI input: the argv that reads it, by role.
CLI_INPUTS = {
    "config": lambda paths: ["bench", "--config", paths["bad"], "--dataset", paths["dataset"]],
    "dataset": lambda paths: ["bench", "--config", paths["config"], "--dataset", paths["bad"]],
    "gazetteer": lambda paths: ["replay", "--trace", paths["trace"], "--gazetteer", paths["bad"]],
    "world": lambda paths: ["replay", "--trace", paths["trace"], "--world", paths["bad"]],
    "tag-table": lambda paths: ["replay", "--trace", paths["trace"], "--gazetteer",
                                paths["gazetteer"], "--tag-table", paths["bad"]],
    "descriptor": lambda paths: ["run", "--config", paths["config"], "--descriptor", paths["bad"],
                                 "--out", paths["out"]],
    "trace": lambda paths: ["replay", "--trace", paths["bad"], "--world", paths["world"]],
}


@pytest.mark.parametrize("data", MALFORMED.values(), ids=MALFORMED.keys())
@pytest.mark.parametrize("role", CLI_INPUTS)
def test_cli_exits_2_on_a_malformed_file(tmp_path, capsys, role, data):
    from geoprobe.geo import save_gazetteer
    from geoprobe.synthworld import save_world

    bad = tmp_path / FILE_READERS[role][0]
    bad.write_bytes(data)
    save_world(WORLD, str(tmp_path / "world.json"))
    save_gazetteer(WORLD.gazetteer, str(tmp_path / "gazetteer.json"))
    (tmp_path / "config.json").write_text(
        json.dumps({"tools": {"mode": "synthetic", "world": "world.json"}}))
    (tmp_path / f"ok{DATASET_SUFFIX}").write_text(json.dumps(SAMPLE) + "\n")
    paths = {"bad": str(bad), "config": str(tmp_path / "config.json"),
             "dataset": str(tmp_path / f"ok{DATASET_SUFFIX}"), "world": str(tmp_path / "world.json"),
             "gazetteer": str(tmp_path / "gazetteer.json"), "out": str(tmp_path / "out"),
             "trace": str(Path(__file__).parent / "data" / "synth_w11_3x5_medium_s4.trace.jsonl")}
    assert main(CLI_INPUTS[role](paths)) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
