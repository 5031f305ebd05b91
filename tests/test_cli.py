"""Command-line interface: subcommands, exit codes, and output files."""

from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest

from geoprobe.bench import DATASET_SUFFIX, load_dataset, save_dataset
from geoprobe.cli import EXIT_CONFIG, EXIT_EXHAUSTED, EXIT_MISMATCH, EXIT_OK, main
from geoprobe.synthworld import load_world, sample_episode
from geoprobe.synthworld import Difficulty, SceneDescriptor


def synth(out_dir, *, seed=11, provinces=3, cities=4, samples=12, mix=None):
    argv = ["synth", "--seed", str(seed), "--provinces", str(provinces),
            "--cities", str(cities), "--samples", str(samples),
            "--out", str(out_dir)]
    if mix is not None:
        argv += ["--mix", mix]
    return main(argv)


def write_config(path, world_path, **extra):
    obj = {"tools": {"mode": "synthetic", "world": str(world_path)}}
    obj.update(extra)
    path.write_text(json.dumps(obj))
    return path


@pytest.fixture()
def workspace(tmp_path):
    work = tmp_path / "work"
    assert synth(work) == EXIT_OK
    config = write_config(tmp_path / "config.json", work / "world.json")
    return {
        "root": tmp_path,
        "config": config,
        "world": work / "world.json",
        "dataset": work / f"synthetic{DATASET_SUFFIX}",
    }


# -- synth --------------------------------------------------------------------


def test_synth_writes_world_and_dataset(workspace, capsys):
    assert workspace["world"].exists()
    assert workspace["dataset"].exists()
    samples = load_dataset(workspace["dataset"])
    assert len(samples) == 12
    world = load_world(str(workspace["world"]))
    assert world.seed == 11


def test_synth_is_deterministic(tmp_path):
    assert synth(tmp_path / "a") == EXIT_OK
    assert synth(tmp_path / "b") == EXIT_OK
    for name in ("world.json", f"synthetic{DATASET_SUFFIX}"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_synth_default_mix(tmp_path):
    assert synth(tmp_path / "m", samples=60) == EXIT_OK
    samples = load_dataset(tmp_path / "m" / f"synthetic{DATASET_SUFFIX}")
    counts = {}
    for s in samples:
        counts[s.difficulty.value] = counts.get(s.difficulty.value, 0) + 1
    assert counts == {"Easy": 13, "Medium": 34, "Hard": 13}


def test_synth_custom_mix(tmp_path):
    assert synth(tmp_path / "m", samples=10, mix="0.5,0.5,0.0") == EXIT_OK
    samples = load_dataset(tmp_path / "m" / f"synthetic{DATASET_SUFFIX}")
    assert all(s.difficulty is not Difficulty.HARD for s in samples)


@pytest.mark.parametrize("mix", ["1,0", "0.5,0.4,0.2", "a,b,c", "1,-0.5,0.5",
                                 "nan,0.5,0.5"])
def test_synth_bad_mix(tmp_path, capsys, mix):
    assert synth(tmp_path / "m", mix=mix) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_synth_bad_sizes(tmp_path, capsys):
    assert synth(tmp_path / "m", samples=0) == EXIT_CONFIG
    assert synth(tmp_path / "m", provinces=0) == EXIT_CONFIG


def test_synth_unplaceable_sizes_exit_config(tmp_path, capsys):
    assert synth(tmp_path / "m", provinces=60, cities=2) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "60 provinces of 2 cities" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m").exists()


def _break_world(world_path, how):
    text = world_path.read_text()
    if how == "missing-level":
        obj = json.loads(text)
        del obj["regions"][1]["level"]
        text = json.dumps(obj)
    elif how == "array":
        text = "[]"
    else:  # truncated
        text = text[: len(text) // 2]
    world_path.write_text(text)


@pytest.mark.parametrize("how", ["missing-level", "array", "truncated"])
@pytest.mark.parametrize("command", ["replay", "run", "bench"])
def test_malformed_world_exits_config(workspace, capsys, command, how):
    _break_world(workspace["world"], how)
    out = str(workspace["root"] / "out")
    argv = {
        "replay": ["replay", "--trace", str(workspace["root"] / "unread.jsonl"),
                   "--world", str(workspace["world"])],
        "run": ["run", "--config", str(workspace["config"]), "--out", out],
        "bench": ["bench", "--config", str(workspace["config"]),
                  "--dataset", str(workspace["dataset"]), "--out", out],
    }[command]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad world file {workspace['world']}")


# -- run ----------------------------------------------------------------------


def descriptor_file(workspace, *, difficulty=Difficulty.EASY, seed=4):
    world = load_world(str(workspace["world"]))
    desc = sample_episode(world, seed, difficulty)
    path = workspace["root"] / "scene.json"
    path.write_text(json.dumps(desc.to_json()))
    return path, world


def test_run_finalizes_and_writes_prediction(workspace, capsys):
    scene, world = descriptor_file(workspace)
    out = workspace["root"] / "run-out"
    code = main(["run", "--config", str(workspace["config"]),
                 "--descriptor", str(scene), "--out", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    prediction = json.loads((out / "prediction.json").read_text())
    assert set(prediction) == {"lat", "lon", "city"}
    assert prediction["city"] in printed
    assert (out / "run.trace.jsonl").exists()
    desc = sample_episode(world, 4, Difficulty.EASY)
    truth_city = world.gazetteer.get(desc.truth.city_id).name
    assert prediction["city"] == truth_city


def test_run_exhausted_exit_code(workspace, capsys):
    scene, _ = descriptor_file(workspace, difficulty=Difficulty.HARD)
    config = write_config(workspace["root"] / "short.json",
                          workspace["world"], max_steps=1)
    out = workspace["root"] / "short-out"
    code = main(["run", "--config", str(config),
                 "--descriptor", str(scene), "--out", str(out)])
    assert code == EXIT_EXHAUSTED
    assert "exhausted" in capsys.readouterr().out
    assert (out / "run.trace.jsonl").exists()
    assert not (out / "prediction.json").exists()


def test_run_requires_descriptor_in_synthetic_mode(workspace, capsys):
    code = main(["run", "--config", str(workspace["config"]),
                 "--out", str(workspace["root"] / "x")])
    assert code == EXIT_CONFIG
    assert "descriptor" in capsys.readouterr().err


def test_run_missing_config_file(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "ghost.json"),
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_run_missing_world_file(tmp_path, capsys):
    config = write_config(tmp_path / "c.json", tmp_path / "no-world.json")
    code = main(["run", "--config", str(config),
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("setting, name", [
    ({"timeout_s": 0}, "timeout_s"),
    ({"retries": -1}, "retries"),
    ({"timeout_s": float("nan")}, "timeout_s"),
    ({"backoff_s": -1}, "backoff_s"),
    ({"top_k": 0}, "top_k"),
], ids=["timeout-0", "retries-neg", "timeout-nan", "backoff-neg", "top_k-0"])
def test_run_bad_tool_setting_exits_config(tmp_path, capsys, setting, name):
    """Each tool setting is checked at the config, before any endpoint or
    trace exists; nothing listens on the discard port it names."""
    config = tmp_path / "live.json"
    config.write_text(json.dumps({
        "gazetteer": "gazetteer.json",
        "tools": {"mode": "live", "base_url": "http://127.0.0.1:9", **setting}}))
    code = main(["run", "--config", str(config), "--image", "photos/a.jpg",
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and name in err
    assert "Traceback" not in err


# -- bench --------------------------------------------------------------------


def run_bench(workspace, out_name, *, workers=1, config=None):
    out = workspace["root"] / out_name
    code = main(["bench", "--config", str(config or workspace["config"]),
                 "--dataset", str(workspace["dataset"]),
                 "--workers", str(workers), "--out", str(out)])
    return code, out


def test_bench_outputs(workspace, capsys):
    code, out = run_bench(workspace, "bench-out")
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "12/12 episodes finalized" in printed
    assert "condition: full" in printed
    report = json.loads((out / "report.json").read_text())
    assert report["label"] == "full"
    assert report["n"] == 12
    assert (out / "report.txt").read_text().startswith("condition: full")
    lines = (out / "predictions.jsonl").read_text().splitlines()
    assert len(lines) == 12
    traces = sorted((out / "traces").glob("*.trace.jsonl"))
    assert len(traces) == 12


def strip_trace_paths(predictions_path):
    rows = []
    for line in predictions_path.read_text().splitlines():
        row = json.loads(line)
        row.pop("trace_path", None)
        if row.get("prediction"):
            row["prediction"].pop("trace_ref", None)
        rows.append(row)
    return rows


def test_bench_reports_reproducible(workspace, capsys):
    _, first = run_bench(workspace, "bench-a")
    _, second = run_bench(workspace, "bench-b", workers=4)
    for name in ("report.json", "report.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert strip_trace_paths(first / "predictions.jsonl") == \
        strip_trace_paths(second / "predictions.jsonl")


def test_bench_ablation_label(workspace, capsys):
    config = write_config(
        workspace["root"] / "ablate.json", workspace["world"],
        ablation=["Caption", "Crop", "Ocr", "KnowledgeBase", "TextSearch",
                  "Geocode"])
    code, out = run_bench(workspace, "bench-ablate", config=config)
    assert code == EXIT_OK
    assert "condition: w/o image search" in capsys.readouterr().out
    assert "w/o image search" in (out / "report.txt").read_text()


def test_bench_missing_dataset(workspace, capsys):
    code = main(["bench", "--config", str(workspace["config"]),
                 "--dataset", str(workspace["root"] / f"no{DATASET_SUFFIX}"),
                 "--out", str(workspace["root"] / "x")])
    assert code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_bench_rejects_wrong_suffix(workspace, capsys):
    bad = workspace["root"] / "data.jsonl"
    bad.write_text("{}\n")
    code = main(["bench", "--config", str(workspace["config"]),
                 "--dataset", str(bad), "--out", str(workspace["root"] / "x")])
    assert code == EXIT_CONFIG


def test_bench_corrupt_dataset_reports_line(workspace, capsys):
    lines = workspace["dataset"].read_text().splitlines()
    lines[3] = "{not json"
    bad = workspace["root"] / f"corrupt{DATASET_SUFFIX}"
    bad.write_text("\n".join(lines) + "\n")
    code = main(["bench", "--config", str(workspace["config"]),
                 "--dataset", str(bad), "--out", str(workspace["root"] / "x")])
    assert code == EXIT_CONFIG
    assert "line 4" in capsys.readouterr().err


# -- replay -------------------------------------------------------------------


def trace_from_run(workspace):
    scene, _ = descriptor_file(workspace)
    out = workspace["root"] / "replay-src"
    assert main(["run", "--config", str(workspace["config"]),
                 "--descriptor", str(scene), "--out", str(out)]) == EXIT_OK
    return out / "run.trace.jsonl"


def test_replay_verifies_clean_trace(workspace, capsys):
    trace = trace_from_run(workspace)
    code = main(["replay", "--trace", str(trace),
                 "--world", str(workspace["world"])])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "verified" in printed
    assert "OK:" in printed


def test_replay_detects_tampered_trace(workspace, capsys):
    trace = trace_from_run(workspace)
    lines = trace.read_text().splitlines()
    target = next(i for i, line in enumerate(lines) if '"claim"' in line)
    lines[target] = lines[target].replace('"claim"', '"cla1m"', 1)
    tampered = workspace["root"] / "tampered.trace.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    code = main(["replay", "--trace", str(tampered),
                 "--world", str(workspace["world"])])
    assert code == EXIT_MISMATCH
    last = capsys.readouterr().out.splitlines()[-1]
    assert re.fullmatch(r"HashMismatch at seq \d+: recorded Projection diverges from the "
                        r"replayed one", last)
    assert last.count("seq") == 1


def test_replay_requires_exactly_one_source(workspace, capsys):
    trace = trace_from_run(workspace)
    assert main(["replay", "--trace", str(trace)]) == EXIT_CONFIG
    assert main(["replay", "--trace", str(trace),
                 "--world", str(workspace["world"]),
                 "--gazetteer", str(workspace["world"])]) == EXIT_CONFIG


def test_replay_malformed_trace(workspace, capsys):
    bad = workspace["root"] / "bad.trace.jsonl"
    bad.write_text("this is not jsonl\n")
    code = main(["replay", "--trace", str(bad),
                 "--world", str(workspace["world"])])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("how", [
    "invalid-utf8", "seq-infinity", "seq-fraction", "deep-nesting"])
def test_replay_malformed_event_exits_config_naming_the_line(workspace, capsys, how):
    trace = trace_from_run(workspace)
    lines = trace.read_bytes().split(b"\n")
    assert b'"seq":0,' in lines[1]
    lines[1] = {
        "invalid-utf8": lines[1].replace(b'"kind"', b'"k\xffind"'),
        "seq-infinity": lines[1].replace(b'"seq":0,', b'"seq":Infinity,'),
        "seq-fraction": lines[1].replace(b'"seq":0,', b'"seq":0.5,'),
        "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
    }[how]
    trace.write_bytes(b"\n".join(lines))
    code = main(["replay", "--trace", str(trace), "--world", str(workspace["world"])])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ")
    assert err.count("\n") == 1


def test_replay_bad_gazetteer_names_the_file(workspace, capsys):
    trace = trace_from_run(workspace)
    bad = workspace["root"] / "bad.json"
    bad.write_text('{"a": 1}')
    code = main(["replay", "--trace", str(trace), "--gazetteer", str(bad)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{bad}: line 1: expected a JSON array" in err


def test_replay_wrong_world_detected(workspace, tmp_path, capsys):
    trace = trace_from_run(workspace)
    assert synth(tmp_path / "other", seed=99) == EXIT_OK
    code = main(["replay", "--trace", str(trace),
                 "--world", str(tmp_path / "other" / "world.json")])
    assert code == EXIT_MISMATCH


# -- parser -------------------------------------------------------------------


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        main(["teleport"])


def test_missing_required_argument_rejected():
    with pytest.raises(SystemExit):
        main(["bench"])


# -- live mode ----------------------------------------------------------------


@pytest.fixture()
def live_workspace(workspace):
    from geoprobe.executor import save_tag_table
    from geoprobe.geo import save_gazetteer
    from geoprobe.stub_server import StubToolServer

    root = workspace["root"]
    world = load_world(str(workspace["world"]))
    save_gazetteer(world.gazetteer, str(root / "gazetteer.json"))
    save_tag_table(root / "tags.json", world.tag_table())
    originals = load_dataset(workspace["dataset"])[:4]
    samples = [replace(s, image=f"photos/{s.id}.jpg", descriptor=None)
               for s in originals]
    save_dataset(root / f"photos{DATASET_SUFFIX}", samples)
    with StubToolServer(world) as server:
        for s, original in zip(samples, originals):
            server.register(s.image, original.descriptor)
        config = root / "live.json"
        config.write_text(json.dumps({
            "gazetteer": "gazetteer.json",
            "tag_table": "tags.json",
            "tools": {"mode": "live", "base_url": server.base_url,
                      "backoff_s": 0.001},
        }))
        yield {**workspace, "config": config, "samples": samples,
               "dataset": root / f"photos{DATASET_SUFFIX}",
               "gazetteer": root / "gazetteer.json", "tags": root / "tags.json",
               "server": server}


def replay_live(trace, workspace, *extra) -> int:
    """Exit code of replaying ``trace`` against the live workspace's
    gazetteer, with ``extra`` arguments."""
    return main(["replay", "--trace", str(trace),
                 "--gazetteer", str(workspace["gazetteer"]), *map(str, extra)])


def replays_clean(trace, workspace) -> bool:
    """Whether ``trace`` replays against the gazetteer and tag table the
    live run used."""
    return replay_live(trace, workspace, "--tag-table", workspace["tags"]) == EXIT_OK


def test_live_run_writes_replayable_trace(live_workspace, capsys):
    out = live_workspace["root"] / "live-run"
    code = main(["run", "--config", str(live_workspace["config"]),
                 "--image", live_workspace["samples"][0].image,
                 "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "prediction.json").exists()
    trace = out / "run.trace.jsonl"
    assert replays_clean(trace, live_workspace)
    # The caption's evidence comes from the tag table, so replay needs it.
    assert replay_live(trace, live_workspace) == EXIT_MISMATCH
    assert main(["replay", "--trace", str(trace), "--world", str(live_workspace["world"]),
                 "--tag-table", str(live_workspace["tags"])]) == EXIT_CONFIG


def test_live_bench_writes_replayable_traces(live_workspace, capsys):
    code, out = run_bench(live_workspace, "live-bench")
    assert code == EXIT_OK
    assert "4/4 episodes finalized" in capsys.readouterr().out
    traces = sorted((out / "traces").glob("*.trace.jsonl"))
    assert len(traces) == 4
    for trace in traces:
        assert replays_clean(trace, live_workspace)


def comparable_trace(path) -> list:
    """A trace's lines as JSON without what differs between tool sources:
    event and tool-call times, and the header's config hash."""
    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items()
                    if k not in ("wall_time", "latency_ms")}
        return [strip(v) for v in obj] if isinstance(obj, list) else obj

    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    del lines[0]["config_hash"]
    return [strip(line) for line in lines]


def test_descriptor_bench_is_the_same_over_either_tool_source(workspace, live_workspace):
    """The world's tools in process, or served by the stub server with each
    sample's scene under ``scene/<id>``: one report, the same traces."""
    samples = load_dataset(workspace["dataset"])
    for s in samples:
        live_workspace["server"].register(s.image_ref, s.descriptor)
    outs = {}
    for config in (workspace["config"], live_workspace["config"]):
        outs[config] = workspace["root"] / f"bench-{config.stem}"
        assert main(["bench", "--config", str(config), "--dataset", str(workspace["dataset"]),
                     "--out", str(outs[config])]) == EXIT_OK
    synthetic, live = outs.values()
    assert (live / "report.json").read_bytes() == (synthetic / "report.json").read_bytes()
    for s in samples:
        name = f"traces/{s.id}.trace.jsonl"
        assert comparable_trace(live / name) == comparable_trace(synthetic / name)


def test_descriptor_run_is_the_same_over_either_tool_source(workspace, live_workspace):
    scene, _ = descriptor_file(workspace)
    desc = SceneDescriptor.from_json(json.loads(scene.read_text(encoding="utf-8")))
    live_workspace["server"].register("scene/0", desc)
    outs = {}
    for config in (workspace["config"], live_workspace["config"]):
        outs[config] = workspace["root"] / f"run-{config.stem}"
        assert main(["run", "--config", str(config), "--descriptor", str(scene),
                     "--image", "scene/0", "--out", str(outs[config])]) == EXIT_OK
    synthetic, live = outs.values()
    assert (live / "prediction.json").read_bytes() == \
        (synthetic / "prediction.json").read_bytes()
    assert comparable_trace(live / "run.trace.jsonl") == \
        comparable_trace(synthetic / "run.trace.jsonl")


@pytest.mark.parametrize("answer", ["non-finite number", "mistyped tags"])
@pytest.mark.parametrize("command", ["run", "bench"])
def test_live_commands_survive_a_malformed_caption(live_workspace, capsys, command, answer):
    from geoprobe.actions import Tool
    from geoprobe.stub_server import Fault

    server = live_workspace["server"]
    if answer == "non-finite number":
        # One caption per episode: the samples carry no descriptor.
        nan = Fault(body=b'{"caption": "x", "tags": [], "score": NaN}')
        server.schedule(Tool.CAPTION, *[nan] * len(live_workspace["samples"]))
    else:
        server.set_canned(Tool.CAPTION, {"caption": "x", "tags": 5})
    # Without its caption's tags, the first sample's episode cannot finalize.
    expected = EXIT_EXHAUSTED if command == "run" else EXIT_OK
    assert run_live(live_workspace, command) == expected
    assert server.count(Tool.CAPTION) > 0
    out = live_workspace["root"] / ("live-run" if command == "run" else "live-bench")
    traces = sorted(out.rglob("*.trace.jsonl"))
    assert len(traces) == (1 if command == "run" else 4)
    for trace in traces:
        assert replays_clean(trace, live_workspace)


@pytest.fixture()
def closed_transports(monkeypatch):
    """Every ``HttpTransport`` closed during the test, in order."""
    from geoprobe.live_tools import HttpTransport

    closed = []
    close = HttpTransport.close

    def recording_close(transport):
        closed.append(transport)
        close(transport)

    monkeypatch.setattr(HttpTransport, "close", recording_close)
    return closed


def run_live(workspace, command):
    if command == "run":
        return main(["run", "--config", str(workspace["config"]),
                     "--image", workspace["samples"][0].image,
                     "--out", str(workspace["root"] / "live-run")])
    return run_bench(workspace, "live-bench")[0]


@pytest.mark.parametrize("command", ["run", "bench"])
def test_live_commands_close_their_connections(live_workspace, closed_transports, command):
    assert run_live(live_workspace, command) == EXIT_OK
    assert len(closed_transports) == 1  # the adapters' one shared transport


@pytest.mark.parametrize("command", ["run", "bench"])
def test_llm_backend_connections_close_with_the_tools(live_workspace, closed_transports,
                                                      command):
    from geoprobe.stub_server import CHAT_PATH

    server = live_workspace["server"]
    server.set_chat(lambda body: json.dumps(
        {"version": "1", "thought": "done", "finalize": True, "actions": []}))
    config = json.loads(live_workspace["config"].read_text())
    config["backend"] = {"kind": "llm", "endpoint": server.base_url + CHAT_PATH, "model": "m"}
    live_workspace["config"].write_text(json.dumps(config))
    # Finalizing before any probe exhausts the episode.
    expected = EXIT_EXHAUSTED if command == "run" else EXIT_OK
    assert run_live(live_workspace, command) == expected
    assert CHAT_PATH in {r.path for r in server.requests()}
    assert len(closed_transports) == 1  # one transport, lent to the adapters and the backend


def llm_envelope(*actions, finalize=False) -> str:
    return json.dumps({"version": "1", "thought": "t", "finalize": finalize,
                       "actions": [{"module": m, "tool": t, "args": a} for m, t, a in actions]})


def test_an_llm_episode_over_live_tools_opens_one_connection(workspace, live_workspace,
                                                              monkeypatch, capsys):
    """The chat calls and the tool calls of a run go to one stub through one
    transport, so a sequential episode keeps one connection alive."""
    import socket

    from geoprobe.stub_server import CHAT_PATH

    scene, world = descriptor_file(workspace)
    desc = SceneDescriptor.from_json(json.loads(scene.read_text(encoding="utf-8")))
    server = live_workspace["server"]
    server.register("scene/0", desc)
    replies = [
        llm_envelope(("SemanticSymbol", "KnowledgeBase", {"query": desc.clues[0].value})),
        llm_envelope(("Environmental", "Caption", {"image": "scene/0"})),
        llm_envelope(finalize=True),
    ]
    server.set_chat(lambda body: replies.pop(0))
    config = json.loads(live_workspace["config"].read_text())
    config["backend"] = {"kind": "llm", "endpoint": server.base_url + CHAT_PATH, "model": "m"}
    live_workspace["config"].write_text(json.dumps(config))
    connections = []
    create_connection = socket.create_connection

    def counting_create_connection(address, *args, **kwargs):
        connections.append(address)
        return create_connection(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counting_create_connection)
    out = workspace["root"] / "llm-run"
    assert main(["run", "--config", str(live_workspace["config"]), "--image", "scene/0",
                 "--out", str(out)]) == EXIT_OK
    assert len(connections) == 1
    assert len(server.requests()) == 5 and replies == []
    prediction = json.loads((out / "prediction.json").read_text())
    assert prediction["city"] == world.gazetteer.get(desc.truth.city_id).name


def https_config(workspace, base_url="https://tools.invalid", gazetteer_text=None) -> str:
    """A config path: live tools under ``base_url`` and an https LLM
    endpoint, over a gazetteer file holding ``gazetteer_text`` (else the
    world's)."""
    from geoprobe.geo import save_gazetteer

    root = workspace["root"]
    if gazetteer_text is None:
        save_gazetteer(load_world(str(workspace["world"])).gazetteer, str(root / "g.json"))
    else:
        (root / "g.json").write_text(gazetteer_text)
    config = root / "https.json"
    config.write_text(json.dumps({
        "gazetteer": "g.json",
        "backend": {"kind": "llm", "endpoint": "https://llm.invalid/v1/chat", "model": "m"},
        "tools": {"mode": "live", "base_url": base_url}}))
    return str(config)


def test_one_tls_context_serves_the_llm_and_the_tools(workspace, monkeypatch):
    import ssl

    from geoprobe.cli import _tools
    from geoprobe.config import load_config

    contexts = []
    create_default_context = ssl.create_default_context

    def counting_create_default_context(*args, **kwargs):
        contexts.append(kwargs)
        return create_default_context(*args, **kwargs)

    monkeypatch.setattr(ssl, "create_default_context", counting_create_default_context)
    with _tools(load_config(https_config(workspace)), {}):
        assert len(contexts) == 1  # one transport for the LLM and the tools


def test_a_bad_url_is_reported_before_a_malformed_gazetteer(workspace, capsys):
    config = https_config(workspace, "ftp://tools.invalid", gazetteer_text='{"a": 1}')
    assert main(["run", "--config", config, "--image", "scene/0",
                 "--out", str(workspace["root"] / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: unsupported URL for HTTP endpoints: 'ftp://tools.invalid/caption'\n")


def live_argv_with_tag_table(workspace, command, text):
    """``(argv, tag table path)``: ``command`` over a live config whose tag
    table file holds ``text``."""
    from geoprobe.geo import save_gazetteer

    root = workspace["root"]
    world = load_world(str(workspace["world"]))
    save_gazetteer(world.gazetteer, str(root / "gazetteer.json"))
    tags = root / "tags.json"
    tags.write_text(text)
    config = root / "live.json"
    # Nothing listens on the discard port; the tag table fails before any call.
    config.write_text(json.dumps({
        "gazetteer": "gazetteer.json", "tag_table": "tags.json",
        "tools": {"mode": "live", "base_url": "http://127.0.0.1:9"}}))
    out = str(root / "out")
    argv = {
        "run": ["run", "--config", str(config), "--image", "photos/a.jpg", "--out", out],
        "bench": ["bench", "--config", str(config),
                  "--dataset", str(workspace["dataset"]), "--out", out],
    }[command]
    return argv, tags


@pytest.mark.parametrize("text, problem", [
    ('{"a": [', "JSONDecodeError"),
    ('["karst"]', "must be a JSON object, got list"),
])
@pytest.mark.parametrize("command", ["run", "bench"])
def test_malformed_tag_table_exits_config(workspace, capsys, command, text, problem):
    argv, tags = live_argv_with_tag_table(workspace, command, text)
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad tag table {tags}: ")
    assert problem in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "bench"])
def test_tag_table_unknown_region_names_the_file(workspace, capsys, command):
    argv, tags = live_argv_with_tag_table(
        workspace, command, '{"karst": ["no-such-region"]}')
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == (f"error: UnknownRegionError: tag table {tags}, tag 'karst': "
                   "unknown region id: 'no-such-region'\n")
