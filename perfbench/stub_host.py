"""Stub tool server process for the http-loopback workload.

    python3 perfbench/stub_host.py <world seed> <provinces> <cities> <dataset seed> <samples>

Serves a ``StubToolServer`` over the generated world with every sample's
scene registered under ``scene/<sample id>``, and prints its base URL. Then
answers one command per input line: ``counts`` prints the per-route request
counts as JSON, ``reset`` zeroes them and prints ``ok``. End of input stops
the server. Running the server in its own process keeps it off the
client's interpreter lock.

The client keeps one connection in flight, so each connection is served
on the server's own thread instead of a new thread per connection. Thread
start-up is harness cost and noisy on a loaded host: on a shared 2-vCPU
machine, serving in place raised http-loopback throughput by about 12% and
cut its pass-to-pass spread from 14% to 10% (coefficient of variation).
"""

from __future__ import annotations

import json
import socketserver
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from geoprobe import stub_server  # noqa: E402
from geoprobe.bench import make_benchmark  # noqa: E402
from geoprobe.stub_server import StubToolServer  # noqa: E402
from geoprobe.synthworld import generate_world  # noqa: E402


def main(argv: list[str]) -> int:
    world_seed, provinces, cities, seed, n = map(int, argv)
    stub_server._StubHTTPServer.process_request = socketserver.BaseServer.process_request
    world = generate_world(world_seed, provinces, cities)
    server = StubToolServer(world)
    for sample in make_benchmark(world, n, seed=seed):
        server.register(f"scene/{sample.id}", sample.descriptor)
    with server:
        print(server.base_url, flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "counts":
                print(json.dumps(server.counts()), flush=True)
            elif command == "reset":
                server.reset_counters()
                print("ok", flush=True)
            else:
                print(f"unknown command {command!r}", file=sys.stderr, flush=True)
                return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
