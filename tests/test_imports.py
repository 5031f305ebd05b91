"""The HTTP client stack (``requests``, ``urllib3``) loads only where a live
tool or LLM call is made.

Each check runs in a fresh interpreter, because the test process itself
has long since imported both libraries.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import requests.adapters

from geoprobe import live_tools
from geoprobe.defaults import DEFAULT_MAX_PARALLEL

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN_TRACE = Path(__file__).parent / "data" / "synth_w11_3x5_medium_s4.trace.jsonl"

HTTP_STACK = ("requests", "urllib3")

#: Prints the HTTP-stack modules loaded so far, one top-level name per line.
REPORT_LOADED = textwrap.dedent(f"""
    import sys
    for name in sorted({{m.split(".")[0] for m in sys.modules}}):
        if name in {HTTP_STACK!r}:
            print(name)
""")


def loaded_after(code: str, cwd: Path) -> set[str]:
    """Top-level HTTP-stack modules in ``sys.modules`` once ``code`` has run
    in a fresh interpreter."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + REPORT_LOADED],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_importing_the_package_loads_no_http_client(tmp_path):
    assert loaded_after("""
        import geoprobe
        import geoprobe.cli
        from geoprobe import stub_server
    """, tmp_path) == set()


def test_offline_commands_load_no_http_client(tmp_path):
    assert loaded_after(f"""
        import contextlib, io
        from geoprobe import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["synth", "--seed", "11", "--provinces", "3", "--cities", "5",
                             "--samples", "4", "--out", "w"]) == 0
            assert cli.main(["replay", "--trace", {str(GOLDEN_TRACE)!r},
                             "--world", "w/world.json"]) == 0
    """, tmp_path) == set()


def test_live_adapters_load_the_http_client(tmp_path):
    assert loaded_after("""
        from geoprobe.live_tools import endpoints_for_base, live_adapters
        live_adapters(endpoints_for_base("http://127.0.0.1:9"))
    """, tmp_path) == set(HTTP_STACK)


def test_llm_backend_loads_the_http_client(tmp_path):
    assert loaded_after("""
        from geoprobe.planner import LlmBackend
        LlmBackend(endpoint="http://127.0.0.1:9/v1/chat/completions", model="m")
    """, tmp_path) == set(HTTP_STACK)


def test_pool_size_matches_requests():
    assert live_tools.DEFAULT_POOLSIZE == requests.adapters.DEFAULT_POOLSIZE
    assert live_tools.POOL_MAXSIZE == max(DEFAULT_MAX_PARALLEL,
                                          requests.adapters.DEFAULT_POOLSIZE)
