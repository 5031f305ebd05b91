"""Regenerate ``pins.json``: the report digest of every workload input set.

Run from the root of a geoprobe checkout whose outputs are known good:

    python3 perfbench/pin.py

Each digest is the SHA-256 of the report JSON that ``geoprobe bench`` would
write for that workload, size and dataset seed. The whole table (every
size, workload and dataset seed) is rewritten.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import PINS_PATH, ROOT, WORK_ROOT

sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def pin(workload: workloads.Workload, size: str, seed: int, work_dir: Path) -> str:
    n = workloads.pass_size(workload, size)
    fixture = workloads.set_up(workload, seed, n, work_dir)
    try:
        return fixture.run_pass([]).digest
    finally:
        fixture.close()
        shutil.rmtree(fixture.trace_dir, ignore_errors=True)


def main() -> int:
    pins: dict = {}
    for size in ("full", "tiny"):
        for name, workload in workloads.WORKLOADS.items():
            pins.setdefault(size, {})[name] = [
                pin(workload, size, seed, WORK_ROOT / "pin" / name)
                for seed in range(workloads.PINNED_SEEDS)]
            print(f"pinned {size} {name}", flush=True)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
