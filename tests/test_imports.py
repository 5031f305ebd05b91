"""What each import loads: ``import geoprobe`` loads no submodule, no HTTP
stack (``http.client``, ``requests``, ``urllib3``) loads, not even for a
live tool or LLM call or for the stub server. And every ``geoprobe`` name the
benchmark in ``perfbench/`` uses still exists, and every module-level
import in ``src/geoprobe`` is read.

The load checks run in a fresh interpreter, because the test process itself
has long since imported all of them.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import geoprobe
from geoprobe.bench import make_benchmark, sample_scenes
from geoprobe.stub_server import CHAT_PATH, StubToolServer
from geoprobe.synthworld import generate_world

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_TRACE = Path(__file__).parent / "data" / "synth_w11_3x5_medium_s4.trace.jsonl"

HTTP_STACKS = ("http.client", "requests", "urllib3")

#: Prints the names in ``sys.modules``, one per line.
REPORT_LOADED = textwrap.dedent("""
    import sys
    print("\\n".join(sys.modules))
""")


def run_fresh(code: str, cwd: Path) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports from
    ``src``, with no proxy variable set (a proxy loads ``urllib.request``)."""
    env = {name: value for name, value in os.environ.items()
           if not name.lower().endswith("_proxy")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def modules_after(code: str, cwd: Path) -> set[str]:
    """Names in ``sys.modules`` once ``code`` has run in a fresh interpreter."""
    return set(run_fresh(textwrap.dedent(code) + REPORT_LOADED, cwd).split())


def loaded_after(code: str, cwd: Path) -> set[str]:
    """Modules of ``HTTP_STACKS`` loaded once ``code`` has run."""
    return modules_after(code, cwd) & set(HTTP_STACKS)


def submodules_after(code: str, cwd: Path) -> set[str]:
    """``geoprobe`` submodules (without the prefix) loaded once ``code`` has run."""
    return {name.removeprefix("geoprobe.") for name in modules_after(code, cwd)
            if name.startswith("geoprobe.")}


def test_importing_the_package_loads_no_http_client(tmp_path):
    assert loaded_after("""
        import geoprobe
        import geoprobe.cli
    """, tmp_path) == set()
    assert loaded_after("from geoprobe import stub_server", tmp_path) == set()


def test_the_stub_server_loads_no_http_parser(tmp_path):
    """It reads requests with the client's framing: no ``http.server``, no
    ``email`` header parser and, as it serves plain HTTP, no TLS."""
    assert modules_after("from geoprobe import stub_server", tmp_path) & {
        "http.server", "email", "ssl"} == set()


def test_offline_commands_load_no_http_client(tmp_path):
    """Nor the socket and TLS modules, which only ``HttpTransport`` imports:
    a run with no URL builds no transport."""
    import json

    (tmp_path / "config.json").write_text(
        json.dumps({"tools": {"mode": "synthetic", "world": "w/world.json"}}))
    assert modules_after(f"""
        import contextlib, io
        from geoprobe import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["synth", "--seed", "11", "--provinces", "3", "--cities", "5",
                             "--samples", "4", "--out", "w"]) == 0
            assert cli.main(["replay", "--trace", {str(GOLDEN_TRACE)!r},
                             "--world", "w/world.json"]) == 0
            assert cli.main(["bench", "--config", "config.json",
                             "--dataset", "w/synthetic.bench.jsonl", "--out", "b"]) == 0
    """, tmp_path) & {*HTTP_STACKS, "socket", "ssl"} == set()


def test_replay_and_run_load_no_bench(tmp_path):
    """``geoprobe.bench`` (metrics, datasets) is imported by ``bench`` and
    ``synth`` only."""
    import json

    from geoprobe.synthworld import Difficulty, generate_world, sample_episode, save_world

    world = generate_world(11, 3, 5)
    save_world(world, str(tmp_path / "world.json"))
    (tmp_path / "scene.json").write_text(
        json.dumps(sample_episode(world, 4, Difficulty.MEDIUM).to_json()))
    (tmp_path / "config.json").write_text(
        json.dumps({"tools": {"mode": "synthetic", "world": "world.json"}}))
    loaded = submodules_after(f"""
        import contextlib, io
        from geoprobe import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", "--config", "config.json", "--descriptor", "scene.json",
                             "--out", "out"]) == 0
            assert cli.main(["replay", "--trace", "out/run.trace.jsonl",
                             "--world", "world.json"]) == 0
            assert cli.main(["replay", "--trace", {str(GOLDEN_TRACE)!r},
                             "--world", "world.json"]) == 0
    """, tmp_path)
    assert "engine" in loaded
    assert "bench" not in loaded


def test_a_live_episode_loads_no_http_stack(tmp_path):
    """A live episode over the stub, run in its own interpreter while the
    stub serves from this one, loads none of ``HTTP_STACKS``: the client
    side speaks HTTP/1.1 over plain sockets."""
    world = generate_world(11, 3, 5)
    with StubToolServer(world) as server:
        for ref, desc in sample_scenes(make_benchmark(world, 1, seed=5)).items():
            server.register(ref, desc)
        assert loaded_after(f"""
            from geoprobe.bench import make_benchmark, run_benchmark
            from geoprobe.live_tools import endpoints_for_base, live_adapters
            from geoprobe.planner import scripted_salience_policy
            from geoprobe.synthworld import generate_world
            world = generate_world(11, 3, 5)
            run = run_benchmark(make_benchmark(world, 1, seed=5), scripted_salience_policy(),
                                world, adapters=live_adapters(endpoints_for_base({server.base_url!r})))
            assert run.entries[0].error is None, run.entries[0].error
        """, tmp_path) == set()
        assert server.total_requests() > 0


def test_an_llm_chat_loads_no_http_stack(tmp_path):
    """An ``LlmBackend`` chat with the stub, run in its own interpreter while
    the stub serves from this one, loads none of ``HTTP_STACKS``."""
    with StubToolServer() as server:
        server.set_chat(lambda body: "ok")
        assert loaded_after(f"""
            from geoprobe.live_tools import HttpTransport
            from geoprobe.planner import LlmBackend
            transport = HttpTransport([{server.base_url + CHAT_PATH!r}])
            llm = LlmBackend({server.base_url + CHAT_PATH!r}, "m", transport)
            assert llm._chat(0, [{{"role": "user", "content": "hi"}}]) == "ok"
            transport.close()
        """, tmp_path) == set()


def transports_built() -> set[tuple[str, str]]:
    """``(module file, enclosing function)`` of each ``HttpTransport(...)``
    call in ``src/geoprobe``."""
    built = set()
    for path in sorted((SRC / "geoprobe").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                            and node.func.id == "HttpTransport"):
                        built.add((path.name, func.name))
    return built


def test_only_live_tools_builds_an_http_client():
    """Tools and the LLM share ``live_tools.HttpTransport``; no other module
    opens connections of its own. A run builds its one transport in
    ``cli._tools``; ``live_adapters`` builds one only when given none."""
    constructors = ("http.client.HTTPConnection(", "http.client.HTTPSConnection(",
                    "socket.create_connection(")
    offenders = [
        f"{path.name}: {ctor}"
        for path in sorted((SRC / "geoprobe").glob("*.py")) if path.name != "live_tools.py"
        for ctor in constructors if ctor in path.read_text(encoding="utf-8")
    ]
    assert offenders == []
    assert "socket.create_connection(" in (SRC / "geoprobe" / "live_tools.py").read_text(
        encoding="utf-8")
    assert transports_built() == {("cli.py", "_tools"), ("live_tools.py", "live_adapters")}
    source = "".join(path.read_text(encoding="utf-8")
                     for path in sorted((SRC / "geoprobe").glob("*.py")))
    assert source.count("or HttpTransport(") == 1  # live_adapters' default


def test_importing_the_package_loads_no_submodule(tmp_path):
    assert submodules_after("import geoprobe", tmp_path) == set()


def test_stub_server_loads_no_episode_machinery(tmp_path):
    loaded = submodules_after("from geoprobe.stub_server import StubToolServer", tmp_path)
    assert "stub_server" in loaded
    assert loaded.isdisjoint({"engine", "planner", "recorder", "config", "bench"})


def defined_names(module) -> set[str]:
    """Names bound at the top level of ``module``'s source by a def, a class
    or an assignment (not by an import)."""
    names = set()
    for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_every_export_comes_from_the_module_that_defines_it():
    for name, module in geoprobe._EXPORTS.items():
        owner = importlib.import_module(f"geoprobe.{module}")
        assert getattr(geoprobe, name) is getattr(owner, name), name
        assert name in defined_names(owner), f"{name} is not defined in {owner.__name__}"


def test_star_import_dir_and_unknown_names(tmp_path):
    assert run_fresh("""
        import geoprobe
        namespace = {}
        exec("from geoprobe import *", namespace)
        assert set(geoprobe.__all__) <= set(namespace), set(geoprobe.__all__) - set(namespace)
        assert set(geoprobe.__all__) <= set(dir(geoprobe))
        assert not hasattr(geoprobe, "no_such_name")
        print(len(geoprobe.__all__))
    """, tmp_path).strip() == str(len(geoprobe.__all__))


def test_readme_library_use_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None
    run_fresh(block.group(1), tmp_path)


def load_read_only(path: Path, monkeypatch) -> types.ModuleType:
    """The module at ``path``, run without writing a bytecode cache beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"_read_only_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["tracing", "workloads", "stub_host"])
def test_benchmark_finds_every_name_it_uses(name, monkeypatch):
    """The benchmark in ``perfbench/`` imports names from ``geoprobe``,
    patches functions on its modules and classes (``tracing.PATCHES``),
    calls module attributes (``engine.record_episode``) and serves in place
    (``stub_server._StubHTTPServer``). A change that deletes one of them
    fails here rather than in a benchmark run."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # stub_host prepends src/
    path = ROOT / "perfbench" / f"{name}.py"
    module = load_read_only(path, monkeypatch)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in getattr(module, "PATCHES", ())
               if not hasattr(owner, attr)]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = getattr(module, node.value.id, None)
            if (isinstance(owner, types.ModuleType) and owner.__name__.startswith("geoprobe")
                    and not hasattr(owner, node.attr)):
                missing.append(f"{owner.__name__}.{node.attr}")
    assert missing == []


# -- every import is read -------------------------------------------------------

#: Imported but not read in its module: ``perfbench/tracing.py`` patches
#: ``engine.compress`` (ROADMAP item 11).
UNREAD_IMPORTS_ALLOWED = {"engine.compress"}


def unread_imports(sources: dict[str, str]) -> set[str]:
    """``module.name`` of each name that a module-level import in
    ``sources`` (module name to text) binds and its module never reads."""
    unread = set()
    for module, text in sources.items():
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unread |= {f"{module}.{name}" for name in bound if name not in read}
    return unread


SOURCES = {path.stem: path.read_text(encoding="utf-8")
           for path in sorted((SRC / "geoprobe").glob("*.py"))}


def test_every_module_level_import_is_read():
    assert unread_imports(SOURCES) == UNREAD_IMPORTS_ALLOWED


def test_import_guard_sees_a_new_unread_import():
    extra = {"bench": SOURCES["bench"]
             + "\nimport socket\nfrom typing import Sequence as S, Mapping\n"}
    assert unread_imports({**SOURCES, **extra}) == {
        *UNREAD_IMPORTS_ALLOWED, "bench.socket", "bench.S"}
