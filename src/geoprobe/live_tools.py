"""HTTP adapters for driving real tool services.

Each network tool gets its own endpoint, auth-token environment variable,
and timeout/retry budget. Failures never propagate as exceptions: network
errors, server errors, malformed bodies, and timeouts all come back as
in-band ToolResult values, so an episode keeps running under partial
outages. Crop stays local — it only rewrites image references and never
touches the network.

Wire format (all JSON over POST):

    caption       {"image", "focus"?}
    ocr           {"image", "bbox"?}
    kb            {"query"}
    text_search   {"query", "top_k", "region_scope"?}
    image_search  {"image", "top_k"}     # image may be a crop reference
    geocode       {"name"}

The response body of a 200 is used verbatim as the result payload, so a
conformant server answers with the same shapes the evidence extractor
reads (caption/tags, spans, records, hits, candidates, matches).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Mapping

import requests

from .actions import Action, Tool, crop_payload
from .executor import ToolAdapter, ToolResult

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


@dataclass(frozen=True)
class EndpointConfig:
    """Where one tool's service lives and how patiently to call it."""

    url: str
    auth_env: str = ""
    timeout_s: float = DEFAULT_TIMEOUT_S
    retries: int = DEFAULT_RETRIES
    backoff_s: float = DEFAULT_BACKOFF_S
    top_k: int = DEFAULT_TOP_K

    def __post_init__(self):
        if not self.url:
            raise ValueError("endpoint url must be non-empty")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


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
    """Translate an action's args into the documented wire body."""
    args = action.args
    if tool is Tool.CAPTION:
        body = {"image": args["image"]}
        if "focus" in args:
            body["focus"] = args["focus"]
        return body
    if tool is Tool.OCR:
        body = {"image": args["image"]}
        if "box" in args:
            body["bbox"] = list(args["box"])
        return body
    if tool is Tool.KNOWLEDGE_BASE:
        return {"query": args["query"]}
    if tool is Tool.TEXT_SEARCH:
        body = {"query": args["query"], "top_k": top_k}
        if "region" in args:
            body["region_scope"] = args["region"]
        return body
    if tool is Tool.IMAGE_SEARCH:
        return {"image": args["image"], "top_k": top_k}
    if tool is Tool.GEOCODE:
        return {"name": args["query"]}
    raise ValueError(f"{tool.value} has no network wire format")


def auth_headers(auth_env: str) -> dict[str, str]:
    """JSON headers plus a bearer token read from ``auth_env``, if set."""
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(auth_env, "") if auth_env else ""
    if token:
        headers["Authorization"] = f"Bearer {token}"
    return headers


def _elapsed_ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def post_with_retries(post, url: str, *, retries: int, backoff_s: float,
                      **kwargs) -> requests.Response:
    """``post(url, **kwargs)`` under the shared HTTP retry policy.

    Transport errors and 5xx answers are retried ``retries`` times, after
    ``backoff_s * 2**attempt`` seconds each. A timeout is never retried:
    ``requests.Timeout`` propagates at once. Once retries run out, the last
    5xx response is returned or the last transport error raised.
    """
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
    session: requests.Session | None = None,
) -> ToolResult:
    """One tool call over HTTP, with the full failure policy applied.

    Server errors (5xx) and transport failures are retried ``cfg.retries``
    times with exponential backoff (``post_with_retries``). Timeouts are
    not retried: the caller already paid the full timeout budget, and the
    in-band Timeout result lets the planner move on instead of tripling the
    stall. Client errors (4xx) fail immediately. A 200 whose body is not a
    JSON object becomes BadResponse with the raw body preserved.
    """
    t0 = time.perf_counter()
    try:
        resp = post_with_retries(
            (session or requests).post, cfg.url,
            retries=cfg.retries, backoff_s=cfg.backoff_s,
            json=request_body(tool, action, top_k=cfg.top_k),
            headers=auth_headers(cfg.auth_env), timeout=cfg.timeout_s)
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
        payload = resp.json()
        if not isinstance(payload, dict):
            raise ValueError("payload is not an object")
    except ValueError:
        return ToolResult.fail(action, "BadResponse", detail=resp.text,
                               latency_ms=_elapsed_ms(t0))
    return ToolResult.succeed(action, payload, latency_ms=_elapsed_ms(t0))


class LiveAdapter:
    """Adapter for one network tool. Never raises past execute()."""

    def __init__(self, tool: Tool, cfg: EndpointConfig,
                 session: requests.Session | None = None):
        if tool not in NETWORK_TOOLS:
            raise ValueError(f"{tool.value} is not a network tool")
        self.tool = tool
        self.cfg = cfg
        self._session = session

    def execute(self, action: Action) -> ToolResult:
        try:
            return live_adapter_request(self.tool, action, self.cfg, self._session)
        except Exception as exc:  # defensive: adapter boundary must not throw
            return ToolResult.fail(action, "InternalError", detail=repr(exc))


class LocalCropAdapter:
    """Crop without a network round trip: rewrites the image reference.

    Downstream tools accept crop-derived references, so cropping is pure
    bookkeeping — the derived ref names the base image plus the box.
    """

    tool = Tool.CROP

    def execute(self, action: Action) -> ToolResult:
        try:
            payload = crop_payload(str(action.args["image"]), action.args["box"])
            return ToolResult.succeed(action, payload)
        except Exception as exc:  # defensive: adapter boundary must not throw
            return ToolResult.fail(action, "InternalError", detail=repr(exc))


def live_adapters(
    endpoints: Mapping[Tool, EndpointConfig],
    session: requests.Session | None = None,
) -> dict[Tool, ToolAdapter]:
    """Adapter map over HTTP endpoints, plus the local crop adapter."""
    adapters: dict[Tool, ToolAdapter] = {}
    for tool, cfg in endpoints.items():
        if tool is Tool.CROP:
            raise ValueError("Crop is local; it takes no endpoint")
        adapters[tool] = LiveAdapter(tool, cfg, session)
    adapters[Tool.CROP] = LocalCropAdapter()
    return adapters
