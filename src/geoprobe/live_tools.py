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

Transport: each ``live_adapters()`` call builds one ``HttpTransport``, a
thread-safe urllib3 pool shared by all of its adapters, unless the caller
passes one in and so owns its ``close()``; ``planner.LlmBackend`` builds
one for its endpoint. The environment is read once, when the transport is
built, through ``requests``' own helpers: the proxy
(``HTTP_PROXY``/``HTTPS_PROXY``/``ALL_PROXY``, ``NO_PROXY``), the CA bundle
(``REQUESTS_CA_BUNDLE``/``CURL_CA_BUNDLE``) and ``.netrc`` credentials,
which, as under ``requests``, replace the bearer header for their host.
Changing them later does not affect built adapters; the bearer token named
by ``auth_env`` is still read on every call. Redirects are not followed
(``requests`` re-sent a 301/302/303 POST as a GET): a 3xx answer is a
RequestRejected result. A NetworkError detail is the ``repr`` of a
``requests.ConnectionError`` around the urllib3 error itself, such as
``ConnectionError(NewConnectionError(...))``, without the "Max retries
exceeded" wrapper ``requests`` added. A 200 body is parsed as JSON from its
bytes (UTF-8, or UTF-16/32 detected by ``json.loads``).

``requests`` and ``urllib3`` are imported inside the functions that make or
handle an HTTP call, not by this module, so importing ``geoprobe`` (the CLI,
the stub server, offline runs) does not load the HTTP client stack.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .actions import Action, Tool
from .defaults import DEFAULT_MAX_PARALLEL
from .errors import ConfigError
from .executor import LocalCropAdapter, ToolAdapter, ToolResult

if TYPE_CHECKING:
    import urllib3

DEFAULT_TIMEOUT_S = 20.0
DEFAULT_RETRIES = 2
DEFAULT_BACKOFF_S = 0.5
DEFAULT_TOP_K = 5

#: How long an error body may get inside a result detail. BadResponse is
#: exempt: its raw body is preserved in full so traces show exactly what
#: the server sent.
_ERROR_DETAIL_CAP = 500

#: ``requests.adapters.DEFAULT_POOLSIZE``, copied so that this module need
#: not import ``requests``; a test pins the two together.
DEFAULT_POOLSIZE = 10

#: Connections kept per host: a whole parallel batch fits, and never fewer
#: than a ``requests`` adapter keeps.
POOL_MAXSIZE = max(DEFAULT_MAX_PARALLEL, DEFAULT_POOLSIZE)

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


def endpoints_for_base(
    base_url: str,
    auth_env: str = "",
    *,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    retries: int = DEFAULT_RETRIES,
    backoff_s: float = DEFAULT_BACKOFF_S,
    top_k: int = DEFAULT_TOP_K,
) -> dict[Tool, EndpointConfig]:
    """Endpoint set for a server exposing every tool under one base URL."""
    base = base_url.rstrip("/")
    return {
        tool: EndpointConfig(
            url=base + path,
            auth_env=auth_env,
            timeout_s=timeout_s,
            retries=retries,
            backoff_s=backoff_s,
            top_k=top_k,
        )
        for tool, path in TOOL_PATHS.items()
    }


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
    """A fully read HTTP answer."""

    status_code: int
    content: bytes
    headers: Mapping[str, str]

    @property
    def text(self) -> str:
        """The body decoded by its declared charset (``requests``' rule),
        else as UTF-8; undecodable bytes are replaced."""
        from requests.utils import get_encoding_from_headers

        encoding = get_encoding_from_headers(self.headers) or "utf-8"
        try:
            return self.content.decode(encoding, errors="replace")
        except LookupError:
            return self.content.decode("utf-8", errors="replace")


def _tls_settings(verify) -> dict:
    """Pool arguments for ``requests``' ``verify`` value (True, False or a
    CA bundle path); urllib3 ignores them for plain-HTTP pools."""
    from requests.utils import DEFAULT_CA_BUNDLE_PATH

    if not verify:
        return {"cert_reqs": "CERT_NONE"}
    bundle = DEFAULT_CA_BUNDLE_PATH if verify is True else verify
    where = "ca_cert_dir" if os.path.isdir(bundle) else "ca_certs"
    return {"cert_reqs": "CERT_REQUIRED", where: bundle}


def _pool_manager(proxy: str | None, verify) -> urllib3.PoolManager:
    import urllib3
    from requests.utils import get_auth_from_url, prepend_scheme_if_needed

    pool = dict(num_pools=DEFAULT_POOLSIZE, maxsize=POOL_MAXSIZE, **_tls_settings(verify))
    if proxy is None:
        return urllib3.PoolManager(**pool)
    proxy = prepend_scheme_if_needed(proxy, "http")
    if not proxy.lower().startswith(("http://", "https://")):
        raise ConfigError(f"unsupported proxy for HTTP endpoints: {proxy!r}")
    user, password = get_auth_from_url(proxy)
    headers = urllib3.make_headers(proxy_basic_auth=f"{user}:{password}") if user else None
    return urllib3.ProxyManager(proxy, proxy_headers=headers, **pool)


class HttpTransport:
    """Pooled JSON POSTs to a fixed set of URLs; safe to share across threads.

    Each URL's proxy, CA bundle and credentials are resolved here, once, by
    ``requests``' own environment rules, and URLs with the same settings
    share one connection pool per host. ``post`` raises ``requests.Timeout``
    for a connect or read timeout and ``requests.ConnectionError`` for any
    other transport failure, chained to the urllib3 error.
    """

    def __init__(self, urls: Iterable[str]):
        import requests
        import urllib3
        from requests.utils import (
            get_auth_from_url,
            get_netrc_auth,
            select_proxy,
            urldefragauth,
        )

        #: url -> (pool manager, request target, default headers, credentials)
        self._routes: dict[str, tuple[urllib3.PoolManager, str, dict, dict]] = {}
        managers: dict[tuple, urllib3.PoolManager] = {}
        with requests.Session() as session:
            defaults = dict(session.headers)
            for url in urls:
                settings = session.merge_environment_settings(url, {}, None, None, None)
                key = (select_proxy(url, settings["proxies"]), settings["verify"])
                if key not in managers:
                    managers[key] = _pool_manager(*key)
                user, password = get_netrc_auth(url) or get_auth_from_url(url)
                credentials = {}
                if user or password:
                    basic = urllib3.make_headers(basic_auth=f"{user}:{password}")
                    credentials["Authorization"] = basic["authorization"]
                self._routes[url] = (managers[key], urldefragauth(url), defaults, credentials)

    def post(self, url: str, *, body: bytes, headers: Mapping[str, str],
             timeout: float) -> HttpReply:
        """POST ``body`` to a URL given at construction; ``timeout`` bounds
        both the connect and each read. Redirects are returned, not followed."""
        import requests
        import urllib3

        manager, target, defaults, credentials = self._routes[url]
        headers = {**defaults, **headers, **credentials}
        try:
            resp = manager.urlopen("POST", target, body=body, headers=headers,
                                   timeout=timeout, retries=False, redirect=False)
        except urllib3.exceptions.NewConnectionError as exc:
            # A subclass of ConnectTimeoutError, but a refused or unresolvable
            # connection is not a timeout (``requests`` draws the same line).
            raise requests.ConnectionError(exc) from exc
        except urllib3.exceptions.TimeoutError as exc:
            raise requests.Timeout(exc) from exc
        except urllib3.exceptions.HTTPError as exc:
            raise requests.ConnectionError(exc) from exc
        return HttpReply(resp.status, resp.data, resp.headers)

    def close(self) -> None:
        """Close every pooled connection; a later ``post`` opens new ones."""
        for manager, *_ in self._routes.values():
            manager.clear()


def _encode_json(body) -> bytes:
    """``body`` as ``requests`` sends ``json=body``: no NaN or infinity,
    UTF-8. Unencodable bodies raise ``requests.exceptions.InvalidJSONError``."""
    import requests

    try:
        return json.dumps(body, allow_nan=False).encode("utf-8")
    except (ValueError, TypeError) as exc:
        raise requests.exceptions.InvalidJSONError(exc) from exc


def post_with_retries(post, url: str, *, retries: int, backoff_s: float,
                      **kwargs):
    """``post(url, **kwargs)`` under the shared HTTP retry policy.

    Transport errors and 5xx answers are retried ``retries`` times, after
    ``backoff_s * 2**attempt`` seconds each. A timeout is never retried:
    ``requests.Timeout`` propagates at once. Once retries run out, the last
    5xx response is returned or the last transport error raised. ``post``
    returns anything with a ``status_code`` (a ``requests.Response`` or an
    ``HttpReply``) and raises ``requests`` exceptions.
    """
    import requests

    attempt = 0
    while True:
        try:
            resp = post(url, **kwargs)
            if resp.status_code < 500 or attempt == retries:
                return resp
        except requests.Timeout:
            raise
        except requests.RequestException:
            if attempt == retries:
                raise
        time.sleep(backoff_s * (2 ** attempt))
        attempt += 1


def live_adapter_request(
    tool: Tool,
    action: Action,
    cfg: EndpointConfig,
    transport: HttpTransport | None = None,
) -> ToolResult:
    """One tool call over HTTP, with the full failure policy applied.

    Server errors (5xx) and transport failures are retried ``cfg.retries``
    times with exponential backoff (``post_with_retries``). Timeouts are
    not retried: the caller already paid the full timeout budget, and the
    in-band Timeout result lets the planner move on instead of tripling the
    stall. Client errors (4xx) and redirects (3xx) fail immediately. A 200
    whose body is not a JSON object, or holds NaN or an infinity, becomes
    BadResponse with the raw body preserved. An args body that cannot be
    JSON-encoded is a NetworkError, not retried. Without a ``transport``,
    one is built for ``cfg.url``.
    """
    import requests

    if transport is None:
        transport = HttpTransport([cfg.url])
    t0 = time.perf_counter()
    try:
        body = _encode_json(request_body(tool, action, top_k=cfg.top_k))
        resp = post_with_retries(
            transport.post, cfg.url,
            retries=cfg.retries, backoff_s=cfg.backoff_s,
            body=body, headers=auth_headers(cfg.auth_env), timeout=cfg.timeout_s)
    except requests.Timeout:
        latency = max(_elapsed_ms(t0), cfg.timeout_s * 1000.0)
        return ToolResult.timed_out(
            action, detail=f"no response within {cfg.timeout_s}s from {cfg.url}",
            latency_ms=latency)
    except requests.RequestException as exc:
        return ToolResult.fail(action, "NetworkError", detail=repr(exc),
                               latency_ms=_elapsed_ms(t0))
    if resp.status_code != 200:
        error = "ServerError" if resp.status_code >= 500 else "RequestRejected"
        return ToolResult.fail(
            action, error,
            detail=f"HTTP {resp.status_code}: {resp.text[:_ERROR_DETAIL_CAP]}",
            latency_ms=_elapsed_ms(t0))
    try:
        payload = json.loads(resp.content)
        if not isinstance(payload, dict):
            raise ValueError("payload is not an object")
        result = ToolResult.succeed(action, payload, latency_ms=_elapsed_ms(t0))
        result.payload_sha256  # hash now: a NaN or an infinity raises ValueError
    except ValueError:
        return ToolResult.fail(action, "BadResponse", detail=resp.text,
                               latency_ms=_elapsed_ms(t0))
    return result


class LiveAdapter:
    """Adapter for one network tool. Never raises past execute().

    Without a ``transport``, the adapter builds its own for ``cfg.url``.
    """

    def __init__(self, tool: Tool, cfg: EndpointConfig,
                 transport: HttpTransport | None = None):
        if tool not in NETWORK_TOOLS:
            raise ValueError(f"{tool.value} is not a network tool")
        self.tool = tool
        self.cfg = cfg
        self._transport = transport or HttpTransport([cfg.url])

    def execute(self, action: Action) -> ToolResult:
        try:
            return live_adapter_request(self.tool, action, self.cfg, self._transport)
        except Exception as exc:  # defensive: adapter boundary must not throw
            return ToolResult.fail(action, "InternalError", detail=repr(exc))


def live_adapters(endpoints: Mapping[Tool, EndpointConfig],
                  transport: HttpTransport | None = None) -> dict[Tool, ToolAdapter]:
    """Adapter map over HTTP endpoints, sharing one ``HttpTransport``, plus
    the local crop adapter. A ``transport`` passed in must have been built
    for the endpoints' URLs; without one, one is built."""
    if Tool.CROP in endpoints:
        raise ValueError("Crop is local; it takes no endpoint")
    transport = transport or HttpTransport(cfg.url for cfg in endpoints.values())
    adapters: dict[Tool, ToolAdapter] = {
        tool: LiveAdapter(tool, cfg, transport) for tool, cfg in endpoints.items()}
    adapters[Tool.CROP] = LocalCropAdapter()
    return adapters
