"""Pinned digests of whole benchmark runs' traces (ROADMAP item 20).

A run's digest is SHA-256 over the normal form of every trace line, header
lines included, trace after trace in sample order. The normal form drops
what a run cannot reproduce: each event's ``wall_time`` and each Execution
result's ``latency_ms``. Then each line is ``canonical_json`` plus a line
end. State hashes, payload hashes, claims and evidence order are all
inside it, so a change that moves any of them moves a pin even when the
report stays the same. Each pin holds at ``workers`` 1 and 2.

A pin changes only with a deliberate change of behaviour or trace format,
which says so, with the old and new digests. Stdlib only: run as a script
(``python tests/test_trace_digests.py``), it prints every run's digest.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from geoprobe.bench import make_benchmark, run_benchmark
from geoprobe.canonical import canonical_json
from geoprobe.live_tools import HttpTransport, live_adapters
from geoprobe.planner import scripted_salience_policy
from geoprobe.stub_server import StubToolServer
from geoprobe.synthworld import generate_world

#: (world seed, provinces, cities, samples, dataset seed) -> run digest.
PINS = {
    (11, 3, 5, 30, 5): "989960629a31e004ec8da463a48db1f13406f9ace6b39aafaa9ee40e5cff0056",
    (11, 10, 20, 60, 3): "0e970678f974e82bc52d3ad51253cfaad11ab8055bd37db00ced5a6b714e22ce",
    (11, 20, 40, 240, 3): "0be5bd8005b053de86d34178cc8b56c36e8be0d2b7f2a10801ef694bc1a58665",
    # The golden-report run (``tests/data/report.json``).
    (2026, 3, 5, 30, 5): "3f9b68ba13005755ca42a89c0b42efa66abc481b6e6ddba94b09a9111151a0b7",
}


def normal_form(line: str) -> str:
    """A trace line without its ``wall_time`` and result ``latency_ms``."""
    record = json.loads(line)
    record.pop("wall_time", None)
    if record.get("kind") == "Execution":
        for result in record["payload"]["results"]:
            result.pop("latency_ms", None)
    return canonical_json(record)


def run_digest(trace_paths) -> str:
    """SHA-256 over the normal-form lines of the traces, in the order given."""
    digest = hashlib.sha256()
    for path in trace_paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                digest.update((normal_form(line) + "\n").encode("utf-8"))
    return digest.hexdigest()


@lru_cache(maxsize=None)
def world_and_samples(key):
    world_seed, provinces, cities, n, seed = key
    world = generate_world(world_seed, provinces, cities)
    return world, make_benchmark(world, n, seed=seed)


def pinned_run(key, workers: int = 1, over_stub: bool = False) -> str:
    """The digest of one pinned run: the scripted policy over the world's
    synthetic tools, or over the live adapters and a ``StubToolServer``."""
    world, samples = world_and_samples(key)
    with tempfile.TemporaryDirectory() as out:
        if over_stub:
            with StubToolServer(world) as server:
                for sample in samples:
                    server.register(sample.image_ref, sample.descriptor)
                endpoints = server.endpoints(timeout_s=5.0)
                transport = HttpTransport(ep.url for ep in endpoints.values())
                try:
                    run = run_benchmark(samples, scripted_salience_policy(), g=world.gazetteer,
                                        tag_table=world.tag_table(), workers=workers,
                                        adapters=live_adapters(endpoints, transport),
                                        trace_dir=out)
                finally:
                    transport.close()
        else:
            run = run_benchmark(samples, scripted_salience_policy(), world, workers=workers,
                                trace_dir=out)
        return run_digest(entry.trace_path for entry in run.entries)


def check(key, **run) -> None:
    for workers in (1, 2):
        digest = pinned_run(key, workers, **run)
        assert digest == PINS[key], (key, workers)


def test_world_11_3x5_digest():
    check((11, 3, 5, 30, 5))


def test_world_11_3x5_digest_over_the_stub_server():
    check((11, 3, 5, 30, 5), over_stub=True)


def test_world_11_10x20_digest():
    check((11, 10, 20, 60, 3))


def test_world_11_20x40_digest():
    check((11, 20, 40, 240, 3))


def test_golden_report_run_digest():
    check((2026, 3, 5, 30, 5))


if __name__ == "__main__":
    print(f"python {sys.version.split()[0]}")
    for key in PINS:
        print(*key, pinned_run(key), sep="\t")
    print(*next(iter(PINS)), pinned_run(next(iter(PINS)), over_stub=True), "stub", sep="\t")
