"""Self-check of the benchmark at tiny size.

Run from the root of a geoprobe checkout:

    python3 -m pytest -q perfbench

Each workload runs in a subprocess exactly as the benchmark is invoked,
with ``--size tiny`` so a run takes a few seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

WORKLOADS = ("synth-large", "http-loopback")
EXACT = ("items", "recorder.events", "executor.tool_calls",
         "executor.evidence_items", "state.backtracks", "live_tools.http_requests")


@lru_cache(maxsize=None)
def bench(workload: str, seed: int, trace: int, attempt: int = 0) -> dict:
    """Last stdout line of one tiny run; ``attempt`` distinguishes reruns."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def values(result: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_reported(workload):
    result = bench(workload, 1, 0)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v > 0 for v in values(result).values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counters_repeat_per_seed(workload):
    first, again, other = (bench(workload, 1, 1), bench(workload, 1, 1, attempt=1),
                           bench(workload, 2, 1))
    assert {n: m["unit"] for n, m in first["metrics"].items()} == run.per_layer_units()
    exact = [tuple(values(r)[k] for k in EXACT) for r in (first, again, other)]
    assert exact[0] == exact[1]
    assert exact[0] != exact[2]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_separates_layers(workload):
    layer = values(bench(workload, 1, 1))
    http = workload == "http-loopback"
    assert (layer["live_tools.live_adapter_request.calls"] > 0) == http
    assert (layer["live_tools.http_requests"] > 0) == http
    # Candidate matching runs in the stub server on http-loopback.
    assert (layer["synthworld.match_candidates.calls"] > 0) != http
    assert layer["engine.run_episode.calls"] > 0
    if http:
        assert layer["live_tools.requests_per_call"] == 1.0


def test_missing_sources_fail_without_a_result(tmp_path):
    """A directory holding only BENCHMARK.json and perfbench/ has no program."""
    (tmp_path / "perfbench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
