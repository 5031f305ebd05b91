"""Command-line interface: subcommands, exit codes, and output files."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from geoprobe.bench import DATASET_SUFFIX, load_dataset, save_dataset
from geoprobe.cli import EXIT_CONFIG, EXIT_EXHAUSTED, EXIT_MISMATCH, EXIT_OK, main
from geoprobe.synthworld import load_world, sample_episode
from geoprobe.synthworld import Difficulty


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


@pytest.mark.parametrize("mix", ["1,0", "0.5,0.4,0.2", "a,b,c", "1,-0.5,0.5"])
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
    assert "HashMismatch at seq" in capsys.readouterr().out


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
               "gazetteer": root / "gazetteer.json"}


def replays_clean(trace, gazetteer) -> bool:
    return main(["replay", "--trace", str(trace),
                 "--gazetteer", str(gazetteer)]) == EXIT_OK


def test_live_run_writes_replayable_trace(live_workspace, capsys):
    out = live_workspace["root"] / "live-run"
    code = main(["run", "--config", str(live_workspace["config"]),
                 "--image", live_workspace["samples"][0].image,
                 "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "prediction.json").exists()
    assert replays_clean(out / "run.trace.jsonl", live_workspace["gazetteer"])


def test_live_bench_writes_replayable_traces(live_workspace, capsys):
    code, out = run_bench(live_workspace, "live-bench")
    assert code == EXIT_OK
    assert "4/4 episodes finalized" in capsys.readouterr().out
    traces = sorted((out / "traces").glob("*.trace.jsonl"))
    assert len(traces) == 4
    for trace in traces:
        assert replays_clean(trace, live_workspace["gazetteer"])


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
