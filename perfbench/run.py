"""geoprobe benchmark: one workload, one seed, one measured run.

Run from the root of a geoprobe checkout:

    python3 perfbench/run.py --workload synth-large --seed 3 --seconds 10 --trace 0

The package is imported from ``src/`` of that checkout. Set-up is repeated
several times, before and during the timed phase, and its median reported
as ``setup_s``. With ``--trace 0``
the timed phase runs untraced and the end-to-end metrics are printed. With
``--trace 1`` the timed phase is split in two halves, untraced then traced,
and the per-layer metrics are printed; per-layer figures are per pass over
the workload's inputs, so counters are exact. Every pass checks its report
digest against the value pinned in ``pins.json``; a mismatch, an episode
that does not finalize or any other error exits non-zero without a result,
so a printed result has no failed item.

The last line of standard output is the result object; the line before it
describes the environment and the sample counts behind the percentiles.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"
PINS_PATH = HERE / "pins.json"

#: Set-up runs at least this many times and until SETUP_MIN_S have passed,
#: at most SETUP_MAX_REPS times, before the timed phase. An untraced run sets
#: up once more after a pass each time another 1/SETUP_SPREAD of the timed
#: phase has passed: the host's speed changes within seconds, so set-ups
#: spread over the run give a median that moves less from run to run. The
#: median of every set-up is reported.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 15
SETUP_MIN_S = 2.0
SETUP_SPREAD = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer counters besides the span metrics, with their units.
LAYER_COUNTER_UNITS = {
    "items": "count",
    "recorder.events": "count",
    "recorder.trace_bytes": "bytes",
    "executor.tool_calls": "count",
    "executor.tool_failures": "count",
    "executor.evidence_items": "count",
    "state.backtracks": "count",
    "live_tools.http_requests": "count",
    "live_tools.requests_per_call": "ratio",
    "trace_overhead": "ratio",
    "traced_wall_ms": "ms",
}


class BenchmarkError(Exception):
    """An output check failed; the run has no valid result."""


def per_layer_units() -> dict[str, str]:
    import tracing

    units = {}
    for name in tracing.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
        if name in tracing.BUSY_SPANS:
            units[f"{name}.busy_ms"] = "ms"
            units[f"{name}.wait_ms"] = "ms"
    units.update(LAYER_COUNTER_UNITS)
    return units


def git_sha(root: Path) -> str:
    """HEAD of the checkout, or "unknown" outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            # Never take the HEAD of a repository that encloses the checkout.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    import requests

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "requests": requests.__version__,
        "git_sha": git_sha(ROOT),
    }


class Phase:
    """Passes over the fixture's inputs, repeated for a set wall time.

    Latency percentiles are taken per pass and averaged over the passes.
    The machine's speed can change within a run; an average over passes
    then moves in proportion, where a percentile over the whole run would
    jump from one speed's cluster to the other's.
    """

    def __init__(self):
        self.passes = 0
        self.items = 0
        self.wall_s = 0.0
        self.pass_s: list[float] = []
        self.p50_ms: list[float] = []
        self.p95_ms: list[float] = []

    @property
    def throughput(self) -> float:
        return self.items / self.wall_s

    def run(self, fixture, seconds: float, pinned: str, after_pass=None) -> "Phase":
        """Passes until ``seconds``; ``after_pass(elapsed)`` runs between passes."""
        while True:
            latencies: list[float] = []
            t0 = time.perf_counter()
            result = fixture.run_pass(latencies)
            dt = time.perf_counter() - t0
            if result.digest != pinned:
                raise BenchmarkError(
                    f"report digest {result.digest} differs from pinned {pinned}")
            if result.failed:
                raise BenchmarkError(
                    f"{result.failed} of {result.items} episodes not finalized")
            self.passes += 1
            self.items += result.items
            self.wall_s += dt
            self.pass_s.append(dt)
            self.p50_ms.append(percentile(latencies, 50))
            self.p95_ms.append(percentile(latencies, 95))
            # Stop at the pass boundary nearest to the requested time.
            if self.wall_s + dt / 2 >= seconds:
                return self
            if after_pass is not None:
                after_pass(self.wall_s)


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def set_up_once(workload, seed: int, n: int, work_dir: Path, times: list[float]):
    import workloads

    t0 = time.perf_counter()
    fixture = workloads.set_up(workload, seed, n, work_dir)
    times.append(time.perf_counter() - t0)
    return fixture


def timed_set_up(workload, seed: int, n: int):
    """The set-up repeated as SETUP_* say; returns the last fixture and every time."""
    times: list[float] = []
    fixture = None
    while len(times) < SETUP_MIN_REPS or (
            sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS):
        if fixture is not None:
            fixture.close()
        fixture = set_up_once(workload, seed, n, WORK_ROOT / workload.name, times)
    return fixture, times


def spread_set_up(workload, seed: int, n: int, seconds: float, times: list[float]):
    """An ``after_pass`` hook that times one more set-up per SETUP_SPREAD-th
    of ``seconds``, in a directory of its own so the run's traces stay."""
    work_dir = WORK_ROOT / workload.name / "spread"
    step = seconds / SETUP_SPREAD
    due = step

    def after_pass(elapsed: float) -> None:
        nonlocal due
        if elapsed < due:
            return
        due += step
        fixture = set_up_once(workload, seed, n, work_dir, times)
        fixture.close()
        shutil.rmtree(fixture.trace_dir, ignore_errors=True)
        del fixture
        # Free the spare world's cycles now, not during the next timed pass.
        gc.collect()

    return after_pass


def end_to_end(setup_times: list[float], phase: Phase) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": phase.throughput,
        "latency_p50_ms": statistics.fmean(phase.p50_ms),
        "latency_p95_ms": statistics.fmean(phase.p95_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, untraced: Phase, traced: Phase, trace_bytes: int,
              http_requests: int) -> dict:
    import tracing

    passes = traced.passes
    out = {}
    for name, agg in tracer.totals().items():
        out[f"{name}.calls"] = agg.calls / passes
        out[f"{name}.self_ms"] = agg.self_s * 1000.0 / passes
        if name in tracing.BUSY_SPANS:
            out[f"{name}.busy_ms"] = agg.busy_s * 1000.0 / passes
            out[f"{name}.wait_ms"] = (agg.wall_s - agg.busy_s) * 1000.0 / passes
    counters = {k: v / passes for k, v in tracer.counters().items()}
    out.update(counters)
    tool_calls = counters["executor.tool_calls"]
    requests_per_pass = http_requests / passes
    out.update({
        "items": traced.items / passes,
        "recorder.trace_bytes": trace_bytes,
        "live_tools.http_requests": requests_per_pass,
        "live_tools.requests_per_call": requests_per_pass / tool_calls if tool_calls else 0.0,
        "trace_overhead": traced.throughput / untraced.throughput,
        "traced_wall_ms": traced.wall_s * 1000.0 / passes,
    })
    return out


def run(args) -> tuple[dict, dict]:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    n = workloads.pass_size(workload, args.size)
    pins = json.loads(PINS_PATH.read_text())
    pinned = pins[args.size][workload.name][workloads.dataset_seed(args.seed)]

    fixture, setup_times = timed_set_up(workload, args.seed, n)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "dataset_seed": workloads.dataset_seed(args.seed),
        "samples_per_pass": n,
        "size": args.size,
        "setup_s": setup_times,
        **environment(),
    }
    try:
        if not args.trace:
            phase = Phase().run(fixture, args.seconds, pinned, spread_set_up(
                workload, args.seed, n, args.seconds, setup_times))
            metrics = end_to_end(setup_times, phase)
            phases = [phase]
        else:
            untraced = Phase().run(fixture, args.seconds / 2, pinned)
            fixture.reset_requests()
            with tracing.Tracer() as tracer:
                traced = Phase().run(fixture, args.seconds / 2, pinned)
            metrics = per_layer(tracer, untraced, traced,
                                workloads.trace_bytes(fixture.trace_dir), fixture.requests())
            spans_path = WORK_ROOT / workload.name / "spans.tsv"
            detail["spans"] = tracer.write_spans(spans_path)
            detail["spans_file"] = str(spans_path.relative_to(ROOT))
            phases = [untraced, traced]
    finally:
        fixture.close()
        shutil.rmtree(fixture.trace_dir, ignore_errors=True)

    detail.update({
        "passes": [p.passes for p in phases],
        "pass_s": [p.pass_s for p in phases],
        "pass_p50_ms": [p.p50_ms for p in phases],
        "pass_p95_ms": [p.p95_ms for p in phases],
        "latency_samples": [p.items for p in phases],
    })
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    result = {
        "correct": True,
        "attempted": sum(p.items for p in phases),
        "failed": 0,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return detail, result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="wall time of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every pass for the self-check")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "geoprobe" / "__init__.py").is_file():
        print(f"perfbench: no geoprobe package under {src}; "
              "run from the root of a geoprobe checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # Loopback requests must never be routed through a proxy.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        detail, result = run(args)
    except Exception as exc:
        traceback.print_exc()
        print(f"perfbench: workload {args.workload} failed: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
