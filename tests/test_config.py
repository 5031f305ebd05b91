"""Run-configuration parsing, validation, and hashing."""

from __future__ import annotations

import json

import pytest

from geoprobe.actions import Tool
from geoprobe.config import (
    BackendSpec,
    RunConfig,
    ToolsSpec,
    build_backend,
    load_config,
    validate_files,
)
from geoprobe.errors import ConfigError
from geoprobe.executor import ALL_TOOLS, MAX_PARALLEL_LIMIT
from geoprobe.live_tools import HttpTransport
from geoprobe.planner import LlmBackend, ScriptedBackend
from geoprobe.synthworld import generate_world, save_world


@pytest.fixture()
def workspace(tmp_path):
    world = generate_world(7, 2, 3)
    save_world(world, str(tmp_path / "world.json"))
    return tmp_path


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def test_load_minimal_synthetic_config(workspace):
    path = write_config(workspace, {
        "tools": {"mode": "synthetic", "world": "world.json"},
    })
    cfg = load_config(path)
    assert cfg.backend.kind == "scripted"
    assert cfg.tools.world == str(workspace / "world.json")
    assert cfg.episode.max_steps == 12
    assert cfg.episode.ablation.enabled_tools == ALL_TOOLS


def test_relative_paths_resolve_against_config_dir(workspace):
    nested = workspace / "configs"
    nested.mkdir()
    save_world(generate_world(7, 2, 3), str(nested / "inner.json"))
    path = write_config(nested, {
        "tools": {"mode": "synthetic", "world": "inner.json"},
    }, name="c.json")
    cfg = load_config(path)
    assert cfg.tools.world == str(nested / "inner.json")


def test_absolute_paths_kept(workspace):
    path = write_config(workspace, {
        "tools": {"mode": "synthetic", "world": str(workspace / "world.json")},
    })
    assert load_config(path).tools.world == str(workspace / "world.json")


def test_config_hash_tracks_content(workspace):
    a = load_config(write_config(workspace, {
        "tools": {"mode": "synthetic", "world": "world.json"}, "max_steps": 5}))
    b = load_config(write_config(workspace, {
        "tools": {"mode": "synthetic", "world": "world.json"}, "max_steps": 5},
        name="other.json"))
    c = load_config(write_config(workspace, {
        "tools": {"mode": "synthetic", "world": "world.json"}, "max_steps": 6},
        name="third.json"))
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_config_roundtrips_through_json(workspace):
    cfg = load_config(write_config(workspace, {
        "tools": {"mode": "synthetic", "world": "world.json"},
        "max_steps": 7, "context_budget": 900,
    }))
    again = RunConfig.from_json(cfg.to_json())
    assert again == cfg


def test_unknown_keys_rejected(workspace):
    for key in ("max_stepz", "seed"):
        path = write_config(workspace, {
            "tools": {"mode": "synthetic", "world": "world.json"},
            key: 5,
        })
        with pytest.raises(ConfigError, match=key):
            load_config(path)


@pytest.mark.parametrize("obj, message", [
    ({"gazetteer": "g.json", "tools": {"mode": "live", "base_url": "http://x",
                                       "timeout": 3, "retry": 0}},
     "unknown tools keys: ['retry', 'timeout']"),
    ({"backend": {"kind": "llm", "endpoint": "http://x", "modle": "m"}},
     "unknown backend keys: ['modle']"),
])
def test_unknown_nested_keys_rejected(obj, message):
    """A misspelt setting is an error, not silently its default."""
    with pytest.raises(ConfigError) as err:
        RunConfig.from_json(obj)
    assert str(err.value) == message


def test_absent_keys_take_the_dataclass_defaults():
    assert BackendSpec.from_json({}) == BackendSpec()
    assert ToolsSpec.from_json({"mode": "synthetic", "world": "w.json"}) == ToolsSpec(
        mode="synthetic", world="w.json")
    assert ToolsSpec.from_json({"mode": "live", "base_url": "http://x"}) == ToolsSpec(
        mode="live", base_url="http://x")


def test_absent_tools_take_the_field_default():
    default = RunConfig().tools.to_json()
    assert default == {"mode": "synthetic", "world": "world.json"}
    assert RunConfig.from_json({}) == RunConfig.from_json({"tools": default}) == RunConfig()


@pytest.mark.parametrize("spec", [BackendSpec, ToolsSpec])
def test_spec_must_be_an_object(spec):
    with pytest.raises(ConfigError, match="settings must be an object"):
        spec.from_json("xyz")


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "ghost.json")


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_world_file_rejected(tmp_path):
    path = write_config(tmp_path, {
        "tools": {"mode": "synthetic", "world": "absent.json"},
    })
    with pytest.raises(ConfigError, match="world file not found"):
        load_config(path)


def test_missing_gazetteer_file_rejected(tmp_path):
    path = write_config(tmp_path, {
        "gazetteer": "absent-gazetteer.json",
        "tools": {"mode": "live", "base_url": "http://tools.local"},
    })
    with pytest.raises(ConfigError, match="gazetteer file not found"):
        load_config(path)


def test_live_mode_requires_gazetteer_path():
    with pytest.raises(ConfigError, match="gazetteer"):
        RunConfig(tools=ToolsSpec(mode="live", base_url="http://x"))


def test_missing_tag_table_rejected(workspace):
    cfg = RunConfig(
        tools=ToolsSpec(world=str(workspace / "world.json")),
        tag_table=str(workspace / "missing-tags.json"),
    )
    with pytest.raises(ConfigError, match="tag table"):
        validate_files(cfg)


@pytest.mark.parametrize("field, value", [
    ("max_steps", 0),
    ("max_parallel", 0),
    ("context_budget", 0),
])
def test_bounds_validated(workspace, field, value):
    path = write_config(workspace, {
        "tools": {"mode": "synthetic", "world": "world.json"},
        field: value,
    })
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("value", [2.7, True, "3"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("field", ["max_steps", "max_parallel", "context_budget"])
def test_episode_counts_must_be_json_integers(workspace, field, value):
    """Read as they are, not coerced: 2.7 is not 2, true is not 1."""
    path = write_config(workspace, {
        "tools": {"mode": "synthetic", "world": "world.json"},
        field: value,
    })
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        load_config(path)


@pytest.mark.parametrize("value, ok", [(5, True), (MAX_PARALLEL_LIMIT, True),
                                       (MAX_PARALLEL_LIMIT + 1, False), (10**6, False)])
def test_max_parallel_bounded(workspace, value, ok):
    """Parsing only: no episode runs, so no thread is started."""
    path = write_config(workspace, {
        "tools": {"mode": "synthetic", "world": "world.json"},
        "max_parallel": value,
    })
    if ok:
        assert load_config(path).episode.max_parallel == value
        return
    with pytest.raises(ConfigError, match=f"max_parallel must be <= {MAX_PARALLEL_LIMIT}"):
        load_config(path)


def test_backend_spec_validation():
    with pytest.raises(ConfigError):
        BackendSpec(kind="psychic")
    with pytest.raises(ConfigError):
        BackendSpec(kind="llm", endpoint="", model="m")
    with pytest.raises(ConfigError):
        BackendSpec(kind="llm", endpoint="http://x", model="")
    spec = BackendSpec(kind="llm", endpoint="http://x/chat", model="m-1")
    assert spec.to_json()["model"] == "m-1"


def test_tools_spec_validation():
    with pytest.raises(ConfigError):
        ToolsSpec(mode="imaginary")
    with pytest.raises(ConfigError):
        ToolsSpec(mode="live", base_url="")
    with pytest.raises(ConfigError):
        ToolsSpec(mode="synthetic", world=None)


@pytest.mark.parametrize("kwargs", [
    {"base_url": ""},
    {"timeout_s": 0.0},
    {"retries": -1},
    {"timeout_s": float("nan")},
    {"backoff_s": -1.0},
    {"top_k": 0},
])
def test_tools_spec_rejects_bad_values(kwargs):
    """The tool settings' ranges are checked once, at the config."""
    with pytest.raises(ConfigError):
        ToolsSpec(**{"mode": "live", "base_url": "http://x", **kwargs})


@pytest.mark.parametrize("tools", [
    {"mode": "live", "base_url": "http://x", "timeout_s": 0},
    {"mode": "synthetic", "world": "world.json", "top_k": 0},
], ids=["live", "synthetic"])
def test_tool_setting_range_rejected_at_load(tools):
    with pytest.raises(ConfigError, match="must be"):
        RunConfig.from_json({"gazetteer": "g.json", "tools": tools})


def test_live_endpoints_built_from_spec():
    spec = ToolsSpec(mode="live", base_url="http://tools.local",
                     auth_env="TOOL_TOKEN", timeout_s=3.0, retries=1)
    eps = spec.endpoints()
    assert eps[Tool.OCR].url == "http://tools.local/ocr"
    assert eps[Tool.OCR].auth_env == "TOOL_TOKEN"
    assert eps[Tool.OCR].timeout_s == 3.0
    assert eps[Tool.OCR].retries == 1


def test_synthetic_spec_has_no_endpoints():
    with pytest.raises(ConfigError):
        ToolsSpec(world="w.json").endpoints()


def test_ablation_list_parsed(workspace):
    path = write_config(workspace, {
        "tools": {"mode": "synthetic", "world": "world.json"},
        "ablation": [t.value for t in ALL_TOOLS if t is not Tool.IMAGE_SEARCH],
    })
    cfg = load_config(path)
    assert cfg.episode.ablation.label() == "w/o image search"


def test_ablation_unknown_tool_rejected(workspace):
    path = write_config(workspace, {
        "tools": {"mode": "synthetic", "world": "world.json"},
        "ablation": ["Teleport"],
    })
    with pytest.raises(ConfigError, match="Teleport"):
        load_config(path)


def test_build_backend_scripted(workspace):
    cfg = load_config(write_config(workspace, {
        "tools": {"mode": "synthetic", "world": "world.json"},
    }))
    assert isinstance(build_backend(cfg, None), ScriptedBackend)


def test_build_backend_llm(workspace):
    cfg = load_config(write_config(workspace, {
        "tools": {"mode": "synthetic", "world": "world.json",
                  "timeout_s": 7.5, "retries": 5, "backoff_s": 0.125},
        "backend": {"kind": "llm", "endpoint": "http://llm.local/chat",
                    "model": "m-9", "auth_env": "MY_TOKEN"},
    }))
    transport = HttpTransport([cfg.backend.endpoint])
    backend = build_backend(cfg, transport)
    transport.close()
    assert isinstance(backend, LlmBackend)
    assert backend.transport is transport
    assert backend.endpoint == "http://llm.local/chat"
    assert backend.model == "m-9"
    assert backend.auth_env == "MY_TOKEN"
    assert backend.timeout_s == 7.5
    assert backend.transport_retries == 5
    assert backend.backoff_s == 0.125


def test_no_secrets_in_config_json(workspace, monkeypatch):
    monkeypatch.setenv("MY_TOKEN", "super-secret-token")
    cfg = load_config(write_config(workspace, {
        "tools": {"mode": "synthetic", "world": "world.json"},
        "backend": {"kind": "llm", "endpoint": "http://llm.local/chat",
                    "model": "m-9", "auth_env": "MY_TOKEN"},
    }))
    assert "super-secret-token" not in json.dumps(cfg.to_json())
