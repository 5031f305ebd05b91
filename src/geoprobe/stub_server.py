"""Local HTTP stub implementing all six network tool endpoints.

Integration tests and offline demos point the live adapter family at this
server instead of real services. It reads bodies by ``live_tools.WIRE_FIELDS``
and answers through ``SyntheticToolbox.answer``, as the in-process adapters
do, so a full episode can run over real HTTP without leaving the machine.

It speaks HTTP/1.1 and keeps connections open, as real tool services do,
so the live adapters' pool reuses them; ``stop()`` ends idle ones first.

Every tool route keeps a request counter, which is how ablation soundness
is asserted: a disabled tool must show a count of zero after a run. The
chat route ``CHAT_PATH`` (``POST /v1/chat/completions``) answers the LLM
backend from a responder set with ``set_chat``; its requests show in
``requests()``, not in the counters. Any route's next requests can be
given one ``Fault`` each (``schedule``) — a delay, a status or a raw body
— to exercise the retry, timeout, and malformed-response paths of the
HTTP clients; once its schedule runs out, the route answers healthily.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from .actions import ARG_SCHEMAS, Tool
from .live_tools import TOOL_PATHS, WIRE_FIELDS, EndpointConfig, endpoints_for_base
from .synthworld import SceneDescriptor, SynthWorld, SyntheticToolbox

_PATH_TOOLS = {path: tool for tool, path in TOOL_PATHS.items()}
CHAT_PATH = "/v1/chat/completions"


def _wire_args(tool: Tool, body: dict) -> dict:
    """Invert the wire body back into action args. A body missing a
    required field raises KeyError; one that is not an object, TypeError."""
    args = {}
    for arg, wire in WIRE_FIELDS[tool].items():
        if wire in body:
            args[arg] = body[wire]
        elif ARG_SCHEMAS[tool][arg].required:
            raise KeyError(wire)
    return args


@dataclass(frozen=True)
class Fault:
    """How one request to a route misbehaves: wait ``delay_s``, then answer
    a non-200 ``status`` with the injected-failure body, else ``body`` raw
    at 200, else as a healthy route (``Fault()``)."""

    status: int = 200
    body: bytes | None = None
    delay_s: float = 0.0


_HEALTHY = Fault()


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
        fault = owner._observe(self.path, body, self.headers.get("Authorization"))
        if fault.delay_s > 0:
            time.sleep(fault.delay_s)
        if fault.status != 200:
            self._send(fault.status, b'{"error": "injected failure"}')
            return
        if fault.body is not None:
            self._send(200, fault.body, content_type="text/plain")
            return
        if self.path == CHAT_PATH and owner._chat is not None:
            reply = {"choices": [{"message": {"content": owner._chat(body)}}]}
            self._send(200, json.dumps(reply).encode())
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
    tool routes answer 404 (still countable). Canned payloads override both.
    """

    def __init__(self, world: SynthWorld | None = None, host: str = "127.0.0.1"):
        self._toolbox = SyntheticToolbox(world) if world is not None else None
        self._host = host
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {path: 0 for path in _PATH_TOOLS}
        self._schedules: dict[str, deque[Fault]] = {}
        self._canned: dict[Tool, dict] = {}
        self._chat: Callable[[dict], str] | None = None
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

    # -- scenes, answers and faults ----------------------------------------

    def register(self, ref: str, desc: SceneDescriptor) -> None:
        if self._toolbox is None:
            raise RuntimeError("no world attached; cannot register scenes")
        self._toolbox.register(ref, desc)

    def schedule(self, route: Tool | str, *faults: Fault) -> None:
        """The next ``len(faults)`` requests to ``route`` take ``faults`` in
        order; this replaces what is left of the route's schedule."""
        path = TOOL_PATHS[route] if isinstance(route, Tool) else route
        self._schedules[path] = deque(faults)

    def set_canned(self, tool: Tool, payload: dict) -> None:
        self._canned[tool] = payload

    def set_chat(self, responder: Callable[[dict], str]) -> None:
        """Answer each chat request with ``responder(request body)``."""
        self._chat = responder

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

    def _observe(self, path: str, body: dict, authorization: str | None) -> Fault:
        """Count the request and take the route's next scheduled fault."""
        with self._lock:
            if path in self._counters:
                self._counters[path] += 1
            self._requests.append(RecordedRequest(path, body, authorization))
            faults = self._schedules.get(path)
            return faults.popleft() if faults else _HEALTHY

    def _answer(self, tool: Tool, body: dict) -> tuple[int, dict]:
        if tool in self._canned:
            return 200, self._canned[tool]
        if self._toolbox is None:
            return 404, {"error": "no world attached"}
        try:
            args = _wire_args(tool, body)
        except (KeyError, TypeError):
            return 400, {"error": f"malformed {tool.value} request"}
        try:
            return 200, self._toolbox.answer(tool, args)
        except KeyError as e:
            return 404, {"error": "UnknownImage", "detail": str(e)}
