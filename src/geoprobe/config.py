"""Run configuration: one JSON document, validated before any network use.

Secrets never live in the file. The config names environment variables
(``auth_env`` fields); tokens are read from the environment at request
time by the backends and adapters. That keeps the document safe to hash —
its canonical hash goes into every trace header so a replayed trace can
be tied back to the exact configuration that produced it.

Relative paths inside the document resolve against the config file's own
directory, so a config directory can be moved as a unit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from .actions import Tool
from .canonical import canonical_hash, json_get, parse_json
from .errors import ConfigError
from .executor import EpisodeSettings
from .live_tools import (
    DEFAULT_BACKOFF_S,
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT_S,
    DEFAULT_TOP_K,
    EndpointConfig,
    HttpTransport,
    endpoints_for_base,
)

BACKEND_SCRIPTED = "scripted"
BACKEND_LLM = "llm"

TOOLS_SYNTHETIC = "synthetic"
TOOLS_LIVE = "live"


def _reject_unknown(obj, known, what: str) -> None:
    """``ConfigError`` unless ``obj`` is an object whose keys are all in ``known``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} settings must be an object")
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")


#: The JSON type each annotation of a spec field admits.
_KINDS = {"str": str, "str | None": (str, None), "float": float, "int": int}


def _spec_from_json(cls, obj, what: str):
    """A ``cls`` from the keys ``obj`` holds; every other field keeps its default."""
    kinds = {f.name: _KINDS[f.type] for f in dataclasses.fields(cls)}
    _reject_unknown(obj, kinds, what)
    try:
        return cls(**{key: json_get(obj, key, kind) for key, kind in kinds.items() if key in obj})
    except TypeError as exc:
        raise ConfigError(f"bad {what} settings: {exc}") from None


@dataclass(frozen=True)
class BackendSpec:
    """Which planner produces decisions: the scripted policy or a chat API."""

    kind: str = BACKEND_SCRIPTED
    endpoint: str = ""
    model: str = ""
    auth_env: str = "GEOPROBE_API_TOKEN"

    def __post_init__(self):
        if self.kind not in (BACKEND_SCRIPTED, BACKEND_LLM):
            raise ConfigError(f"unknown backend kind: {self.kind!r}")
        if self.kind == BACKEND_LLM and (not self.endpoint or not self.model):
            raise ConfigError("llm backend needs both endpoint and model")

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == BACKEND_LLM:
            out.update(endpoint=self.endpoint, model=self.model,
                       auth_env=self.auth_env)
        return out

    @classmethod
    def from_json(cls, obj) -> "BackendSpec":
        return _spec_from_json(cls, obj, "backend")


@dataclass(frozen=True)
class ToolsSpec:
    """Where tool calls go: a synthetic world file or live HTTP endpoints."""

    mode: str = TOOLS_SYNTHETIC
    world: str | None = None
    base_url: str = ""
    auth_env: str = ""
    timeout_s: float = DEFAULT_TIMEOUT_S
    retries: int = DEFAULT_RETRIES
    backoff_s: float = DEFAULT_BACKOFF_S
    top_k: int = DEFAULT_TOP_K

    def __post_init__(self):
        if self.mode not in (TOOLS_SYNTHETIC, TOOLS_LIVE):
            raise ConfigError(f"unknown tools mode: {self.mode!r}")
        if self.mode == TOOLS_LIVE and not self.base_url:
            raise ConfigError("live tools need a base_url")
        if self.mode == TOOLS_SYNTHETIC and not self.world:
            raise ConfigError("synthetic tools need a world file")
        if not self.timeout_s > 0:
            raise ConfigError("timeout_s must be > 0")
        for name, low in (("retries", 0), ("backoff_s", 0), ("top_k", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")

    def endpoints(self) -> dict[Tool, EndpointConfig]:
        if self.mode != TOOLS_LIVE:
            raise ConfigError("endpoints are only defined for live tools")
        return endpoints_for_base(
            self.base_url, self.auth_env, timeout_s=self.timeout_s,
            retries=self.retries, backoff_s=self.backoff_s, top_k=self.top_k)

    def to_json(self) -> dict:
        if self.mode == TOOLS_SYNTHETIC:
            return {"mode": self.mode, "world": self.world}
        return {
            "mode": self.mode,
            "base_url": self.base_url,
            "auth_env": self.auth_env,
            "timeout_s": self.timeout_s,
            "retries": self.retries,
            "backoff_s": self.backoff_s,
            "top_k": self.top_k,
        }

    @classmethod
    def from_json(cls, obj) -> "ToolsSpec":
        return _spec_from_json(cls, obj, "tools")


@dataclass(frozen=True)
class RunConfig:
    """Everything one run or benchmark needs, minus the secrets."""

    gazetteer: str | None = None
    backend: BackendSpec = field(default_factory=BackendSpec)
    tools: ToolsSpec = field(default_factory=lambda: ToolsSpec(world="world.json"))
    tag_table: str | None = None
    episode: EpisodeSettings = EpisodeSettings()
    out_dir: str = "out"

    def __post_init__(self):
        if self.gazetteer is None and self.tools.mode != TOOLS_SYNTHETIC:
            raise ConfigError("a gazetteer path is required outside synthetic mode")

    def to_json(self) -> dict:
        """One flat object: the episode settings sit beside the other keys."""
        return {
            "gazetteer": self.gazetteer,
            "backend": self.backend.to_json(),
            "tools": self.tools.to_json(),
            "tag_table": self.tag_table,
            **self.episode.to_json(),
            "out_dir": self.out_dir,
        }

    def config_hash(self) -> str:
        return canonical_hash(self.to_json())

    @classmethod
    def from_json(cls, obj, base_dir: Path | None = None) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        _reject_unknown(obj, ("gazetteer", "backend", "tools", "ablation", "tag_table",
                              "max_steps", "max_parallel", "context_budget", "out_dir"),
                        "config")

        def path_of(value):
            if base_dir is not None and value is not None and not Path(value).is_absolute():
                return str(base_dir / value)
            return value

        try:
            tools = ToolsSpec.from_json(json_get(obj, "tools", dict, cls().tools.to_json()))
            return cls(
                gazetteer=path_of(json_get(obj, "gazetteer", (str, None), None)),
                backend=BackendSpec.from_json(json_get(obj, "backend", dict, {})),
                tools=dataclasses.replace(tools, world=path_of(tools.world)),
                tag_table=path_of(json_get(obj, "tag_table", (str, None), None)),
                episode=EpisodeSettings.from_json(obj),
                out_dir=path_of(json_get(obj, "out_dir", str, "out")),
            )
        except TypeError as exc:
            raise ConfigError(f"bad config value: {exc}") from None


def load_config(path) -> RunConfig:
    """Parse and validate a config file. Referenced files must exist."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        obj = parse_json(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    cfg = RunConfig.from_json(obj, base_dir=path.parent)
    validate_files(cfg)
    return cfg


def validate_files(cfg: RunConfig) -> None:
    """Check referenced files before anything touches the network."""
    if cfg.gazetteer is not None and not Path(cfg.gazetteer).exists():
        raise ConfigError(f"gazetteer file not found: {cfg.gazetteer}")
    if cfg.tools.mode == TOOLS_SYNTHETIC:
        assert cfg.tools.world is not None
        if not Path(cfg.tools.world).exists():
            raise ConfigError(f"world file not found: {cfg.tools.world}")
    if cfg.tag_table is not None and not Path(cfg.tag_table).exists():
        raise ConfigError(f"tag table file not found: {cfg.tag_table}")


def build_backend(cfg: RunConfig, transport: HttpTransport | None):
    """Instantiate the planner backend named by the config; an LLM backend
    posts through ``transport``, built for its endpoint."""
    if cfg.backend.kind == BACKEND_SCRIPTED:
        from .planner import scripted_salience_policy
        return scripted_salience_policy()
    from .planner import LlmBackend
    return LlmBackend(
        endpoint=cfg.backend.endpoint,
        model=cfg.backend.model,
        transport=transport,
        auth_env=cfg.backend.auth_env,
        timeout_s=cfg.tools.timeout_s,
        transport_retries=cfg.tools.retries,
        backoff_s=cfg.tools.backoff_s,
    )
