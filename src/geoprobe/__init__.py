"""Agentic image geolocation: evidence-driven probing over pluggable tools.

The package is organized in layers:

- :mod:`geoprobe.geo` — geographic primitives (points, distances, the
  admin-region gazetteer, reverse geocoding, city-name normalization).
- :mod:`geoprobe.state` — the candidate space over the region tree,
  evidence projection, two-stage backtracking, finalization.
- :mod:`geoprobe.actions` — capability modules, tools, action argument
  schemas, and the decision envelope a planning backend must emit.
- :mod:`geoprobe.planner` — the scripted salience policy and the
  HTTP-backed planning backend, plus prompt/context assembly.
- :mod:`geoprobe.executor` — bounded-parallel tool execution, the
  evidence extractors, and ablation gating.
- :mod:`geoprobe.recorder` — append-only episode traces (a state hash per
  event, a payload hash per tool result), trace loading, and bounded
  context compression.
- :mod:`geoprobe.engine` — the decision/execution/projection loop, and
  replay verification, which runs the loop again on a trace's inputs.
- :mod:`geoprobe.synthworld` — deterministic synthetic worlds and
  in-process tool adapters for offline testing.
- :mod:`geoprobe.live_tools` / :mod:`geoprobe.stub_server` — HTTP tool
  adapters with retries/backoff and a loopback stub server.
- :mod:`geoprobe.bench` — benchmark datasets, the metric suite, report
  rendering, and the benchmark runner.
- :mod:`geoprobe.config` / :mod:`geoprobe.cli` — run configuration and
  the command-line entry points.
"""

import importlib

#: Each public name and the submodule that defines it. ``import geoprobe``
#: loads no submodule; a name's module is imported on its first access.
_EXPORTS = {
    "ARG_SCHEMAS": "actions",
    "COMPOSITION": "actions",
    "Action": "actions",
    "ActionIssue": "actions",
    "CapabilityModule": "actions",
    "Decision": "actions",
    "Tool": "actions",
    "parse_decision": "actions",
    "render_action_schema": "actions",
    "validate_action": "actions",
    "DATASET_SUFFIX": "bench",
    "DEFAULT_MIX": "bench",
    "DEFAULT_THRESHOLDS_KM": "bench",
    "BenchEntry": "bench",
    "BenchmarkRun": "bench",
    "BenchmarkSample": "bench",
    "MetricBlock": "bench",
    "MetricsReport": "bench",
    "SceneCategory": "bench",
    "acc_city": "bench",
    "acc_loglat": "bench",
    "classify_scene": "bench",
    "compute_report": "bench",
    "difficulty_counts": "bench",
    "load_dataset": "bench",
    "location_compliance": "bench",
    "make_benchmark": "bench",
    "render_text_table": "bench",
    "round2": "bench",
    "run_benchmark": "bench",
    "save_dataset": "bench",
    "stratify": "bench",
    "threshold_accuracy": "bench",
    "canonical_hash": "canonical",
    "canonical_json": "canonical",
    "sha256_hex": "canonical",
    "BackendSpec": "config",
    "RunConfig": "config",
    "ToolsSpec": "config",
    "build_backend": "config",
    "load_config": "config",
    "validate_files": "config",
    "EpisodeResult": "engine",
    "ReplayReport": "engine",
    "derive_poi_hint": "engine",
    "record_episode": "engine",
    "replay": "engine",
    "run_episode": "engine",
    "BackendUnavailableError": "errors",
    "BudgetTooSmallError": "errors",
    "ConfigError": "errors",
    "DatasetError": "errors",
    "DecisionParseError": "errors",
    "EmptyDatasetError": "errors",
    "EmptyPredictionsError": "errors",
    "GazetteerFileError": "errors",
    "GeoprobeError": "errors",
    "HashMismatchError": "errors",
    "InsufficientEvidenceError": "errors",
    "SeqGapError": "errors",
    "TraceFormatError": "errors",
    "UnknownRegionError": "errors",
    "UnmatchedPredictionError": "errors",
    "ALL_TOOLS": "executor",
    "DEFAULT_CONTEXT_BUDGET": "executor",
    "DEFAULT_MAX_STEPS": "executor",
    "LABEL_FULL": "executor",
    "LABEL_NO_IMAGE_SEARCH": "executor",
    "LABEL_NO_TEXT_SEARCH": "executor",
    "LABEL_NO_TOOLS": "executor",
    "AblationConfig": "executor",
    "EpisodeSettings": "executor",
    "LocalCropAdapter": "executor",
    "ToolResult": "executor",
    "execute_batch": "executor",
    "extract_evidence": "executor",
    "load_tag_table": "executor",
    "save_tag_table": "executor",
    "EARTH_RADIUS_KM": "geo",
    "AdminRegion": "geo",
    "Gazetteer": "geo",
    "GeoPoint": "geo",
    "RegionLevel": "geo",
    "haversine_km": "geo",
    "load_gazetteer": "geo",
    "normalize_city_name": "geo",
    "region_contains": "geo",
    "reverse_geocode": "geo",
    "save_gazetteer": "geo",
    "EndpointConfig": "live_tools",
    "LiveAdapter": "live_tools",
    "endpoints_for_base": "live_tools",
    "live_adapters": "live_tools",
    "LlmBackend": "planner",
    "PlannerContext": "planner",
    "ScriptedBackend": "planner",
    "scripted_salience_policy": "planner",
    "CompressedContext": "recorder",
    "EventKind": "recorder",
    "Trace": "recorder",
    "TraceHeader": "recorder",
    "TraceRecorder": "recorder",
    "TrajectoryEvent": "recorder",
    "compress": "recorder",
    "load_trace": "recorder",
    "ApplyReport": "state",
    "CandidateSpace": "state",
    "EpisodeState": "state",
    "EpisodeStatus": "state",
    "Evidence": "state",
    "PoiHint": "state",
    "Prediction": "state",
    "Provenance": "state",
    "apply_evidence_report": "state",
    "finalize": "state",
    "project": "state",
    "StubToolServer": "stub_server",
    "Clue": "synthworld",
    "ClueKind": "synthworld",
    "Difficulty": "synthworld",
    "SceneDescriptor": "synthworld",
    "SynthWorld": "synthworld",
    "SyntheticToolbox": "synthworld",
    "Truth": "synthworld",
    "compatible_cities": "synthworld",
    "generate_world": "synthworld",
    "load_world": "synthworld",
    "sample_episode": "synthworld",
    "save_world": "synthworld",
}

__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return __all__
