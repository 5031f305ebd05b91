"""Local HTTP stub implementing all six network tool endpoints.

Integration tests and offline demos point the live adapter family at this
server instead of real services. Answers come from a synthetic world (the
same logic the in-process synthetic adapters use), so a full episode can
run over real HTTP without leaving the machine.

It speaks HTTP/1.1 and keeps connections open, as real tool services do,
so the live adapters' pool reuses them; ``stop()`` ends idle ones first.

Every route keeps a request counter, which is how ablation soundness is
asserted: a disabled tool must show a count of zero after a run. Routes
can also be told to misbehave — fail the next N requests with a chosen
status, delay before answering, or return a fixed raw body — to exercise
the retry, timeout, and malformed-response paths of the HTTP clients.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .actions import Action, CapabilityModule, Tool
from .live_tools import TOOL_PATHS, EndpointConfig, endpoints_for_base
from .synthworld import SceneDescriptor, SynthWorld, SyntheticToolbox

_PATH_TOOLS = {path: tool for tool, path in TOOL_PATHS.items()}

#: Module used when reconstructing an Action from a wire body. Any module
#: that composes the tool works; extraction only looks at the tool.
_MODULE_FOR: dict[Tool, CapabilityModule] = {
    Tool.CAPTION: CapabilityModule.ENVIRONMENTAL,
    Tool.OCR: CapabilityModule.SEMANTIC_SYMBOL,
    Tool.KNOWLEDGE_BASE: CapabilityModule.SEMANTIC_SYMBOL,
    Tool.TEXT_SEARCH: CapabilityModule.ENVIRONMENTAL,
    Tool.IMAGE_SEARCH: CapabilityModule.IMAGE_MATCHING,
    Tool.GEOCODE: CapabilityModule.SEMANTIC_SYMBOL,
}

_EMPTY_PAYLOADS: dict[Tool, dict] = {
    Tool.CAPTION: {"caption": "", "tags": []},
    Tool.OCR: {"spans": []},
    Tool.KNOWLEDGE_BASE: {"records": []},
    Tool.TEXT_SEARCH: {"hits": []},
    Tool.IMAGE_SEARCH: {"candidates": [], "count": 0},
    Tool.GEOCODE: {"matches": []},
}


def _wire_args(tool: Tool, body: dict) -> dict:
    """Invert the wire body back into internal action args."""
    if tool is Tool.CAPTION:
        args = {"image": body["image"]}
        if "focus" in body:
            args["focus"] = body["focus"]
        return args
    if tool is Tool.OCR:
        args = {"image": body["image"]}
        if "bbox" in body:
            args["box"] = tuple(body["bbox"])
        return args
    if tool is Tool.KNOWLEDGE_BASE:
        return {"query": body["query"]}
    if tool is Tool.TEXT_SEARCH:
        args = {"query": body["query"]}
        if "region_scope" in body:
            args["region"] = body["region_scope"]
        return args
    if tool is Tool.IMAGE_SEARCH:
        return {"image": body["image"]}
    if tool is Tool.GEOCODE:
        return {"query": body["name"]}
    raise KeyError(tool)


@dataclass
class RouteBehavior:
    """Fault injection knobs for one route."""

    fail_times: int = 0
    fail_status: int = 500
    delay_s: float = 0.0
    raw_body: bytes | None = None


@dataclass(frozen=True)
class RecordedRequest:
    path: str
    body: dict
    authorization: str | None


class _StubHandler(BaseHTTPRequestHandler):
    # Keep-alive works as every answer carries Content-Length. The buffered
    # wfile sends headers and body in one write at handle_one_request's flush.
    protocol_version = "HTTP/1.1"
    wbufsize = -1
    disable_nagle_algorithm = True

    def log_message(self, *args):  # keep test output clean
        pass

    def _send(self, status: int, body: bytes, content_type: str = "application/json"):
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            pass  # client gave up (timeout tests); nothing to do

    def do_POST(self):  # noqa: N802 (http.server naming)
        owner: StubToolServer = self.server.owner  # type: ignore[attr-defined]
        try:
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(max(length, 0))
            if len(raw) != length or "Transfer-Encoding" in self.headers:
                raise ValueError("body not read to its end")
            body = json.loads(raw or b"{}")
        except (ValueError, OSError):
            # Bytes left unread would be parsed as the next request.
            self.close_connection = True
            self._send(400, b'{"error": "unreadable body"}')
            return
        behavior = owner._observe(self.path, body, self.headers.get("Authorization"))
        if behavior.delay_s > 0:
            time.sleep(behavior.delay_s)
        if behavior.fail_times != 0:
            self._send(behavior.fail_status, b'{"error": "injected failure"}')
            return
        if behavior.raw_body is not None:
            self._send(200, behavior.raw_body, content_type="text/plain")
            return
        tool = _PATH_TOOLS.get(self.path)
        if tool is None:
            self._send(404, b'{"error": "no such endpoint"}')
            return
        status, payload = owner._answer(tool, body)
        self._send(status, json.dumps(payload).encode())


class _StubHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    owner: "StubToolServer"

    def __init__(self, *args):
        super().__init__(*args)
        self._conn_lock = threading.Lock()
        self._open: set[socket.socket] = set()
        self._closing = False

    def finish_request(self, request, client_address):
        with self._conn_lock:
            if self._closing:
                return  # stopping: serve no new connection
            self._open.add(request)
        try:
            super().finish_request(request, client_address)
        finally:
            with self._conn_lock:
                self._open.discard(request)

    def close_connections(self) -> None:
        """End every open connection's wait for its next request. Only the
        read side is shut, so an answer being written still goes out."""
        with self._conn_lock:
            self._closing = True
            for conn in self._open:
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # the client hung up already

    def handle_error(self, request, client_address):
        pass  # broken pipes from timed-out clients are expected in tests


class StubToolServer:
    """All six tool services on one local port.

    With a world attached, answers mirror the synthetic adapters; scenes
    must be registered under their image references first. Without one,
    every route answers the tool's empty payload shape (still countable).
    Canned payloads override both.
    """

    def __init__(self, world: SynthWorld | None = None, host: str = "127.0.0.1"):
        self._toolbox = SyntheticToolbox(world) if world is not None else None
        self._adapters = self._toolbox.adapters() if self._toolbox else {}
        self._host = host
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {path: 0 for path in _PATH_TOOLS}
        self._behaviors: dict[str, RouteBehavior] = {}
        self._canned: dict[Tool, dict] = {}
        self._requests: list[RecordedRequest] = []
        self._server: _StubHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "StubToolServer":
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = _StubHTTPServer((self._host, 0), _StubHandler)
        self._server.owner = self
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},  # shutdown() waits one poll
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            # An idle connection served in place would hold shutdown() up.
            self._server.close_connections()
            self._server.shutdown()
            self._server.server_close()
            self._server = None
            self._thread = None

    def __enter__(self) -> "StubToolServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def endpoints(self, auth_env: str = "", **kwargs) -> dict[Tool, EndpointConfig]:
        """Endpoint configs pointing the live adapters at this server."""
        return endpoints_for_base(self.base_url, auth_env, **kwargs)

    # -- scene and behavior configuration ----------------------------------

    def register(self, ref: str, desc: SceneDescriptor) -> None:
        if self._toolbox is None:
            raise RuntimeError("no world attached; cannot register scenes")
        self._toolbox.register(ref, desc)

    def set_behavior(self, tool: Tool, **kwargs) -> None:
        self._behaviors[TOOL_PATHS[tool]] = RouteBehavior(**kwargs)

    def set_canned(self, tool: Tool, payload: dict) -> None:
        self._canned[tool] = payload

    # -- observation -------------------------------------------------------

    def count(self, tool: Tool) -> int:
        with self._lock:
            return self._counters[TOOL_PATHS[tool]]

    def counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def total_requests(self) -> int:
        with self._lock:
            return sum(self._counters.values())

    def reset_counters(self) -> None:
        with self._lock:
            self._counters = {path: 0 for path in _PATH_TOOLS}
            self._requests.clear()

    def requests(self) -> list[RecordedRequest]:
        with self._lock:
            return list(self._requests)

    # -- handler callbacks -------------------------------------------------

    def _observe(self, path: str, body: dict, authorization: str | None) -> RouteBehavior:
        """Count the request and decide how this one request behaves."""
        with self._lock:
            if path in self._counters:
                self._counters[path] += 1
            self._requests.append(RecordedRequest(path, body, authorization))
            behavior = self._behaviors.get(path)
            if behavior is None:
                return RouteBehavior()
            this = RouteBehavior(0, behavior.fail_status, behavior.delay_s, None)
            if behavior.fail_times > 0:
                behavior.fail_times -= 1
                this.fail_times = 1
            else:
                this.raw_body = behavior.raw_body
            return this

    def _answer(self, tool: Tool, body: dict) -> tuple[int, dict]:
        if tool in self._canned:
            return 200, self._canned[tool]
        try:
            args = _wire_args(tool, body)
        except (KeyError, TypeError):
            return 400, {"error": f"malformed {tool.value} request"}
        if not self._adapters:
            return 200, _EMPTY_PAYLOADS[tool]
        action = Action(id=0, module=_MODULE_FOR[tool], tool=tool, args=args)
        result = self._adapters[tool].execute(action)
        if result.ok:
            assert result.payload is not None
            return 200, result.payload
        return 404, {"error": result.error, "detail": result.detail}
