"""HTTP adapters for driving real tool services.

Each network tool gets its own endpoint, auth-token environment variable,
and timeout/retry budget. Failures never propagate as exceptions: network
errors, server errors, malformed bodies, and timeouts all come back as
in-band ToolResult values, so an episode keeps running under partial
outages. Crop stays local — it only rewrites image references and never
touches the network.

Wire format: each tool POSTs its action args as a JSON object, renamed by
``WIRE_FIELDS``, plus the endpoint's ``top_k`` for ``TOP_K_TOOLS``; the
bundled stub server inverts the same table. An image may be a crop reference.

The response body of a 200 is used verbatim as the result payload, so a
conformant server answers with the same shapes the evidence extractor
reads (caption/tags, spans, records, hits, candidates, matches). A body
holding NaN or an infinite number, which a trace cannot record, is a
BadResponse.

Transport: a run builds one ``HttpTransport`` over every URL it calls, the
tool endpoints and an LLM backend's chat endpoint (``cli._tools``), lends
it to the adapters and ``planner.LlmBackend``, and closes it at the end.
The environment it reads is described there. Redirects are not followed: a
3xx answer is a RequestRejected result. A NetworkError detail is the
``repr`` of the ``TransportError``, which names its cause. A 200 body is
parsed as JSON from its bytes by ``canonical.parse_json`` (UTF-8, or
UTF-16/32 as ``json.loads`` detects them).

``HttpTransport`` speaks HTTP/1.1 (RFC 9112) over its own sockets, with no
``http.client``. A request is one write: the request line, ``Host``,
``Accept-Encoding: identity``, ``Content-Length``, the caller's headers,
an empty line and the body. An answer's body may be chunked, sized by
``Content-Length``, or run to the end of the connection; 1xx answers are
skipped, and a header line may hold 65,536 bytes and a block 100 lines.
The bundled stub server reads requests with the same ``Connection``.
Sockets, TLS and the proxy helpers of ``urllib.request`` are imported by
``HttpTransport``, the last only when a proxy variable is set, so
importing ``geoprobe`` (the CLI, offline runs) loads none of them.
"""

from __future__ import annotations

import base64
import json
import os
import re
import select
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .actions import Action, Tool
from .canonical import parse_json
from .errors import ConfigError, TransportError, TransportTimeout
from .executor import LocalCropAdapter, ToolAdapter, ToolResult

DEFAULT_TIMEOUT_S = 20.0
DEFAULT_RETRIES = 2
DEFAULT_BACKOFF_S = 0.5
DEFAULT_TOP_K = 5

#: How long an error body may get inside a result detail. BadResponse is
#: exempt: its raw body is preserved in full so traces show exactly what
#: the server sent.
_ERROR_DETAIL_CAP = 500

#: URL path for each network tool, shared with the bundled stub server.
TOOL_PATHS: dict[Tool, str] = {
    Tool.CAPTION: "/caption",
    Tool.OCR: "/ocr",
    Tool.KNOWLEDGE_BASE: "/kb",
    Tool.TEXT_SEARCH: "/text_search",
    Tool.IMAGE_SEARCH: "/image_search",
    Tool.GEOCODE: "/geocode",
}

NETWORK_TOOLS: frozenset[Tool] = frozenset(TOOL_PATHS)

#: Wire field for each action arg, per network tool; the one definition of
#: the request bodies, read by ``request_body`` and by the stub server.
WIRE_FIELDS: dict[Tool, dict[str, str]] = {
    Tool.CAPTION: {"image": "image", "focus": "focus"},
    Tool.OCR: {"image": "image", "box": "bbox"},
    Tool.KNOWLEDGE_BASE: {"query": "query"},
    Tool.TEXT_SEARCH: {"query": "query", "region": "region_scope"},
    Tool.IMAGE_SEARCH: {"image": "image"},
    Tool.GEOCODE: {"query": "name"},
}

#: Tools whose body also carries the endpoint's ``top_k``.
TOP_K_TOOLS: frozenset[Tool] = frozenset({Tool.TEXT_SEARCH, Tool.IMAGE_SEARCH})


@dataclass(frozen=True)
class EndpointConfig:
    """Where one tool's service lives and how patiently to call it. The
    values are not checked here: ``config.ToolsSpec`` checks their ranges."""

    url: str
    auth_env: str = ""
    timeout_s: float = DEFAULT_TIMEOUT_S
    retries: int = DEFAULT_RETRIES
    backoff_s: float = DEFAULT_BACKOFF_S
    top_k: int = DEFAULT_TOP_K


def endpoints_for_base(base_url: str, auth_env: str = "",
                       **budget) -> dict[Tool, EndpointConfig]:
    """Endpoint set for a server exposing every tool under one base URL;
    ``budget`` sets the other ``EndpointConfig`` fields of every endpoint."""
    base = base_url.rstrip("/")
    return {tool: EndpointConfig(base + path, auth_env, **budget)
            for tool, path in TOOL_PATHS.items()}


def request_body(tool: Tool, action: Action, top_k: int = DEFAULT_TOP_K) -> dict:
    """``action``'s wire body, its args renamed by ``WIRE_FIELDS``. An arg
    the action lacks is left out: the server rejects a missing required one."""
    if tool not in WIRE_FIELDS:
        raise ValueError(f"{tool.value} has no network wire format")
    args = action.args
    # A tuple box goes into the body as the JSON array it is sent as.
    body = {wire: list(args[arg]) if isinstance(args[arg], tuple) else args[arg]
            for arg, wire in WIRE_FIELDS[tool].items() if arg in args}
    if tool in TOP_K_TOOLS:
        body["top_k"] = top_k
    return body


def auth_headers(auth_env: str) -> dict[str, str]:
    """JSON headers plus a bearer token read from ``auth_env``, if set."""
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(auth_env, "") if auth_env else ""
    if token:
        headers["Authorization"] = f"Bearer {token}"
    return headers


def _elapsed_ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


class HttpReply(NamedTuple):
    """A fully read HTTP answer. ``headers`` maps lower-case field names to
    their values, a repeated field's values joined by ", "."""

    status_code: int
    content: bytes
    headers: Mapping[str, str]

    @property
    def text(self) -> str:
        """The body decoded by the ``charset`` of its ``content-type``, else
        as UTF-8; undecodable bytes are replaced."""
        charset = _CHARSET.search(self.headers.get("content-type", ""))
        try:
            return self.content.decode(charset[1] if charset else "utf-8", "replace")
        except LookupError:
            return self.content.decode("utf-8", "replace")


_CHARSET = re.compile(r';\s*charset="?([^";\s]+)', re.IGNORECASE)
_STATUS_LINE = re.compile(rb"HTTP/1\.(?P<minor>\d) (?P<status>[1-9]\d\d)(?: [^\r\n]*)?\r?\n")
#: A request line: a token method, a target of visible ASCII and the version.
REQUEST_LINE = re.compile(
    rb"(?P<method>[-!#$%&'*+.^_`|~0-9A-Za-z]+) (?P<target>[!-~]+) HTTP/1\.(?P<minor>\d)\r?\n")
_CHUNK_SIZE_LINE = re.compile(rb"([0-9A-Fa-f]{1,16})[ \t]*(?:;[^\r\n]*)?\r?\n")
_LINE_ENDS = (b"\r\n", b"\n")
_OWS = " \t\r\n"
#: ``http.client``'s limits: the longest header line, with its line end,
#: and the most lines in one header block.
_MAX_LINE, _MAX_HEADERS = 65536, 100
_RECV_SIZE = 65536


class Connection:
    """One HTTP/1.1 connection, at either end: its socket and the bytes read
    from it that no message has used yet (RFC 9112). A framing fault raises
    ``ValueError``, a message cut short ``ConnectionError``."""

    def __init__(self, sock):
        self.sock, self._buf, self._pos = sock, b"", 0

    def _line(self) -> bytes:
        """The next line, with its line end."""
        while ((end := self._buf.find(b"\n", self._pos)) < 0
               and len(self._buf) - self._pos < _MAX_LINE):
            if not (data := self.sock.recv(_RECV_SIZE)):
                raise ConnectionError("connection closed before the answer ended")
            self._buf, self._pos = self._buf[self._pos:] + data, 0
        if end < 0 or end - self._pos >= _MAX_LINE:
            raise ValueError(f"line longer than {_MAX_LINE} bytes")
        line, self._pos = self._buf[self._pos:end + 1], end + 1
        return line

    def _read(self, n: int) -> bytes:
        """The next ``n`` bytes."""
        parts = [self._buf[self._pos:self._pos + n]]
        got = len(parts[0])
        self._pos += got
        while got < n:
            if not (data := self.sock.recv(min(n - got, _RECV_SIZE))):
                raise ConnectionError(f"connection closed {n - got} bytes short of the body")
            parts.append(data)
            got += len(data)
        return b"".join(parts)

    def _read_to_end(self) -> bytes:
        parts = [self._buf[self._pos:]]
        while data := self.sock.recv(_RECV_SIZE):
            parts.append(data)
        self._buf, self._pos = b"", 0
        return b"".join(parts)

    def head(self, start: re.Pattern = _STATUS_LINE) -> tuple[re.Match, dict[str, str]]:
        """The next start line, a status line or (for a server) a request
        line as ``start`` matches it, and its header fields."""
        line = self._line()
        if not (start_line := start.fullmatch(line)):
            raise ValueError(f"bad {'status' if start is _STATUS_LINE else 'request'} line "
                             f"{line[:80]!r}")
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            if (line := self._line()) in _LINE_ENDS:
                return start_line, headers
            # A folded line (RFC 9112, section 5.2) starts with white space: rejected.
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon or not name or name != name.strip(_OWS):
                raise ValueError(f"bad header line {line[:80]!r}")
            name, value = name.lower(), value.strip(_OWS)
            headers[name] = f"{headers[name]}, {value}" if name in headers else value
        raise ValueError(f"more than {_MAX_HEADERS} header lines")

    def sized_body(self, length: str) -> bytes:
        """The body that a ``Content-Length`` field of value ``length`` announces."""
        if not (length.isascii() and length.isdigit()):
            raise ValueError(f"bad Content-Length {length!r}")
        return self._read(int(length))

    def _chunked(self) -> bytes:
        parts = []
        while True:
            line = self._line()
            if not (size := _CHUNK_SIZE_LINE.fullmatch(line)):
                raise ValueError(f"bad chunk size line {line[:80]!r}")
            if not (n := int(size[1], 16)):
                break
            parts.append(self._read(n))
            if self._line() not in _LINE_ENDS:
                raise ValueError("chunk longer than its size")
        while self._line() not in _LINE_ENDS:  # the trailer, unused
            pass
        return b"".join(parts)

    def answer(self) -> tuple[HttpReply, bool]:
        """The next final answer, any 1xx before it skipped, and whether the
        connection may carry another request: the answer keeps it alive, its
        body had a known length, and no byte beyond it has been read."""
        status_line, headers = self.head()
        while (status := int(status_line["status"])) < 200:
            status_line, headers = self.head()
        keep = keeps_alive(status_line, headers)
        coding, length = headers.get("transfer-encoding"), headers.get("content-length")
        if status in (204, 304):
            body = b""
        elif coding is not None:
            if coding.lower() != "chunked":
                raise ValueError(f"unsupported transfer coding {coding!r}")
            body = self._chunked()
        elif length is not None:
            body = self.sized_body(length)
        else:  # the body runs to the end of the connection
            body, keep = self._read_to_end(), False
        return HttpReply(status, body, headers), keep and self._pos == len(self._buf)

    def open_tunnel(self, authority: str, proxy_auth: str | None) -> None:
        """Asks the proxy at the other end for a tunnel to ``authority``."""
        auth = f"Proxy-Authorization: {proxy_auth}\r\n" if proxy_auth else ""
        self.sock.sendall(f"CONNECT {authority} HTTP/1.1\r\nHost: {authority}\r\n"
                          f"{auth}\r\n".encode("latin-1"))
        status_line, _ = self.head()
        if not status_line["status"].startswith(b"2"):
            raise ConnectionError("tunnel connection failed: "
                                  + status_line[0].decode("latin-1").strip(_OWS))


def keeps_alive(start_line: re.Match, headers: Mapping[str, str]) -> bool:
    """Whether the sender of a message lets its connection carry another
    (RFC 9112, section 9.3): at HTTP/1.1 unless its ``Connection`` field
    holds ``close``, at HTTP/1.0 only if it holds ``keep-alive``."""
    options = {token.strip(_OWS) for token in headers.get("connection", "").lower().split(",")}
    return "keep-alive" in options if start_line["minor"] == b"0" else "close" not in options


def _basic_auth(user: str | None, password: str | None) -> str | None:
    """A Basic credentials header value, or None without user or password."""
    if not (user or password):
        return None
    return "Basic " + base64.b64encode(f"{user or ''}:{password or ''}".encode()).decode()


def _proxy_address(proxy: str) -> tuple[str, int, str | None]:
    """Host, port and ``Proxy-Authorization`` value of an ``http://`` proxy."""
    from urllib.parse import unquote, urlsplit

    parts = urlsplit(proxy if "://" in proxy else "http://" + proxy)
    if parts.scheme.lower() != "http" or not parts.hostname:
        raise ConfigError(f"unsupported proxy for HTTP endpoints: {proxy!r}")
    user, password = (unquote(s or "") for s in (parts.username, parts.password))
    return parts.hostname, parts.port or 80, _basic_auth(user, password)


def _dropped(sock) -> bool:
    """Whether the server closed an idle connection: its socket reads EOF, or
    bytes no request asked for. ``poll``, unlike ``select``, takes any fd."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _close_idle(idle: dict[tuple, list]) -> None:
    for conns in idle.values():
        for conn in conns:
            conn.sock.close()
    idle.clear()


class HttpTransport:
    """JSON POSTs over kept-alive HTTP/1.1 connections to a fixed set of
    URLs; safe to share across threads. The environment is read here,
    once: the proxy (``HTTP_PROXY``/``HTTPS_PROXY``/``ALL_PROXY``, and
    ``NO_PROXY`` by ``urllib.request``'s rules), the CA bundle
    (``REQUESTS_CA_BUNDLE``/``CURL_CA_BUNDLE``, else the system's store) and
    ``.netrc`` credentials, which replace the bearer header for their host.
    A URL that is not http(s), or whose path or query holds a space, a
    control or a non-ASCII character, or a proxy that is not ``http://``,
    is a ``ConfigError``. Idle connections wait in one LIFO list per
    (scheme, host, port, proxy); one the server has closed is dropped.
    ``post`` raises ``TransportTimeout`` for a connect or read timeout,
    else ``TransportError``, chained to the socket error or to the
    ``ValueError`` that names a framing fault.
    """

    def __init__(self, urls: Iterable[str]):
        import netrc
        import ssl
        from urllib.parse import unquote, urlsplit, urlunsplit

        proxies = {}
        if any(name.lower().endswith("_proxy") for name in os.environ):
            # ``urllib.request`` loads ``http.client``: only a proxy needs it.
            from urllib.request import getproxies_environment, proxy_bypass_environment
            proxies = getproxies_environment()
        try:
            logins = netrc.netrc(os.path.expanduser(os.environ.get("NETRC", "~/.netrc")))
        except (OSError, netrc.NetrcParseError):
            logins = None
        #: url -> (pool key, request head up to its Content-Length, headers
        #: added to each request)
        self._routes: dict[str, tuple[tuple, bytes, dict]] = {}
        for url in urls:
            parts = urlsplit(url)
            scheme = parts.scheme.lower()
            if scheme not in ("http", "https") or not parts.hostname:
                raise ConfigError(f"unsupported URL for HTTP endpoints: {url!r}")
            netloc = parts.netloc.rpartition("@")[2]
            target = urlunsplit(("", "", parts.path or "/", parts.query, ""))
            default_port = 443 if scheme == "https" else 80
            port = parts.port or default_port
            host = f"[{parts.hostname}]" if ":" in parts.hostname else parts.hostname
            host = host if port == default_port else f"{host}:{port}"
            login = logins and logins.authenticators(parts.hostname)
            user, password = ((login[0] or login[1], login[2]) if login else
                              (unquote(s or "") for s in (parts.username, parts.password)))
            headers = {"Authorization": _basic_auth(user, password)}
            proxy = proxies.get(scheme) or proxies.get("all")
            if proxy and not proxy_bypass_environment(netloc, proxies):
                proxy = _proxy_address(proxy)
                if scheme == "http":  # no tunnel: the proxy reads the request
                    target = urlunsplit((scheme, netloc, parts.path or "/", parts.query, ""))
                    host = netloc
                    headers["Proxy-Authorization"] = proxy[2]
            else:
                proxy = None
            # ``http.client``'s rule, and ASCII only: no space and no control.
            if not (target.isascii() and target.isprintable()) or " " in target:
                raise ConfigError(f"unsupported URL for HTTP endpoints: {url!r}")
            head = b"POST %s HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\n" % (
                target.encode(), host.encode("ascii" if host.isascii() else "idna"))
            key = (scheme, parts.hostname, port, proxy)
            self._routes[url] = (key, head, {k: v for k, v in headers.items() if v})
        bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
        where = "capath" if bundle and os.path.isdir(bundle) else "cafile"
        # Loading a CA store costs memory; a plain-HTTP transport never does.
        self._tls = (ssl.create_default_context(**{where: bundle or None})
                     if any(key[0] == "https" for key, _, _ in self._routes.values()) else None)
        self._lock = threading.Lock()
        self._idle: dict[tuple, list[Connection]] = {}
        weakref.finalize(self, _close_idle, self._idle)

    def _connect(self, key: tuple, timeout: float) -> Connection:
        """A new connection for a pool key, with ``TCP_NODELAY`` set; for
        https, TLS over it, through a ``CONNECT`` tunnel behind a proxy."""
        import socket

        scheme, host, port, proxy = key
        sock = socket.create_connection(proxy[:2] if proxy else (host, port), timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if scheme == "https":
                if proxy:  # credentials go in the CONNECT only, never to the host
                    authority = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
                    Connection(sock).open_tunnel(authority, proxy[2])
                sock = self._tls.wrap_socket(sock, server_hostname=host)
        except BaseException:
            sock.close()
            raise
        return Connection(sock)

    def post(self, url: str, *, body: bytes, headers: Mapping[str, str],
             timeout: float) -> HttpReply:
        """POST ``body`` to a URL given at construction, as one write;
        ``timeout`` bounds both the connect and each read. Redirects are
        returned, not followed. A header name or value holding a control
        character raises ``ValueError`` before anything is sent."""
        key, head, route_headers = self._routes[url]
        fields = {**headers, **route_headers}
        if not all(f"{name}{value}".isprintable() for name, value in fields.items()):
            raise ValueError("a header name or value holds a control character")
        request = b"%sContent-Length: %d\r\n%s\r\n%s" % (
            head, len(body),
            "".join(f"{name}: {value}\r\n" for name, value in fields.items()).encode("latin-1"),
            body)
        with self._lock:
            idle = self._idle.setdefault(key, [])
            while idle and _dropped(idle[-1].sock):
                idle.pop().sock.close()
            conn = idle.pop() if idle else None
        try:
            if conn is None:
                conn = self._connect(key, timeout)
            else:
                conn.sock.settimeout(timeout)
            conn.sock.sendall(request)
            reply, reusable = conn.answer()
        except BaseException as exc:
            if conn is not None:
                conn.sock.close()
            if isinstance(exc, TimeoutError):
                raise TransportTimeout(repr(exc)) from exc
            if isinstance(exc, (OSError, ValueError)):
                raise TransportError(repr(exc)) from exc
            raise
        if not reusable:
            conn.sock.close()
            return reply
        with self._lock:
            self._idle.setdefault(key, []).append(conn)
        return reply

    def close(self) -> None:
        """Close every idle connection; a later ``post`` opens new ones."""
        with self._lock:
            _close_idle(self._idle)


def _encode_json(body) -> bytes:
    """``body`` as UTF-8 JSON; a NaN or an infinity raises ``ValueError``."""
    return json.dumps(body, allow_nan=False).encode("utf-8")


def post_with_retries(post, url: str, *, retries: int, backoff_s: float,
                      **kwargs):
    """``post(url, **kwargs)`` under the shared HTTP retry policy.

    Transport errors and 5xx answers are retried ``retries`` times, after
    ``backoff_s * 2**attempt`` seconds each. A timeout is never retried:
    ``TransportTimeout`` propagates at once. Once retries run out, the last
    5xx response is returned or the last ``TransportError`` raised. ``post``
    returns anything with a ``status_code``, such as an ``HttpReply``.
    """
    attempt = 0
    while True:
        try:
            resp = post(url, **kwargs)
            if resp.status_code < 500 or attempt == retries:
                return resp
        except TransportTimeout:
            raise
        except TransportError:
            if attempt == retries:
                raise
        time.sleep(backoff_s * (2 ** attempt))
        attempt += 1


def live_adapter_request(tool: Tool, action: Action, cfg: EndpointConfig,
                         transport: HttpTransport) -> ToolResult:
    """One tool call over HTTP, with the full failure policy applied.

    Server errors (5xx) and transport failures are retried ``cfg.retries``
    times with exponential backoff (``post_with_retries``). Timeouts are
    not retried: the caller already paid the full timeout budget, and the
    in-band Timeout result lets the planner move on instead of tripling the
    stall. Client errors (4xx) and redirects (3xx) fail immediately. A 200
    whose body is not a JSON object, or holds NaN or an infinity, becomes
    BadResponse with the raw body preserved. An args body that cannot be
    JSON-encoded is a NetworkError, not retried. ``transport`` must have
    been built for ``cfg.url``.
    """
    t0 = time.perf_counter()
    try:
        body = _encode_json(request_body(tool, action, top_k=cfg.top_k))
        resp = post_with_retries(
            transport.post, cfg.url,
            retries=cfg.retries, backoff_s=cfg.backoff_s,
            body=body, headers=auth_headers(cfg.auth_env), timeout=cfg.timeout_s)
    except TransportTimeout:
        latency = max(_elapsed_ms(t0), cfg.timeout_s * 1000.0)
        return ToolResult.timed_out(
            action, detail=f"no response within {cfg.timeout_s}s from {cfg.url}",
            latency_ms=latency)
    except (TransportError, ValueError) as exc:
        return ToolResult.fail(action, "NetworkError", detail=repr(exc),
                               latency_ms=_elapsed_ms(t0))
    if resp.status_code != 200:
        error = "ServerError" if resp.status_code >= 500 else "RequestRejected"
        return ToolResult.fail(
            action, error,
            detail=f"HTTP {resp.status_code}: {resp.text[:_ERROR_DETAIL_CAP]}",
            latency_ms=_elapsed_ms(t0))
    try:
        payload = parse_json(resp.content)  # rejects NaN and infinities
        if not isinstance(payload, dict):
            raise ValueError("payload is not an object")
    except ValueError:
        return ToolResult.fail(action, "BadResponse", detail=resp.text,
                               latency_ms=_elapsed_ms(t0))
    return ToolResult.succeed(action, payload, latency_ms=_elapsed_ms(t0))


class LiveAdapter:
    """Adapter for one network tool over ``transport``, which must have been
    built for ``cfg.url``. Never raises past execute()."""

    def __init__(self, tool: Tool, cfg: EndpointConfig, transport: HttpTransport):
        if tool not in NETWORK_TOOLS:
            raise ValueError(f"{tool.value} is not a network tool")
        self.tool = tool
        self.cfg = cfg
        self._transport = transport

    def execute(self, action: Action) -> ToolResult:
        try:
            return live_adapter_request(self.tool, action, self.cfg, self._transport)
        except Exception as exc:  # defensive: adapter boundary must not throw
            return ToolResult.fail(action, "InternalError", detail=repr(exc))


def live_adapters(endpoints: Mapping[Tool, EndpointConfig],
                  transport: HttpTransport | None = None) -> dict[Tool, ToolAdapter]:
    """Adapter map over HTTP endpoints, sharing one ``HttpTransport``, plus
    the local crop adapter. A ``transport`` passed in must have been built
    for the endpoints' URLs; without one (as ``perfbench/workloads.py``
    calls it), one is built and left to the garbage collector."""
    if Tool.CROP in endpoints:
        raise ValueError("Crop is local; it takes no endpoint")
    transport = transport or HttpTransport(cfg.url for cfg in endpoints.values())
    adapters: dict[Tool, ToolAdapter] = {
        tool: LiveAdapter(tool, cfg, transport) for tool, cfg in endpoints.items()}
    adapters[Tool.CROP] = LocalCropAdapter()
    return adapters
