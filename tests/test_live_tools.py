"""HTTP adapter family against the bundled stub server.

Covers the wire bodies, the timeout/retry/backoff policy, in-band failure
results, request counting for ablation soundness, and a full episode run
over real localhost HTTP.
"""

from __future__ import annotations

import base64
import http.client
import logging
import socket
import socketserver
import threading
import time

import pytest
import requests
import urllib3

from geoprobe.actions import Action, CapabilityModule, Tool
from geoprobe.bench import make_benchmark, run_benchmark
from geoprobe.defaults import DEFAULT_MAX_PARALLEL
from geoprobe.errors import ConfigError
from geoprobe.engine import run_synthetic_episode
from geoprobe.executor import (
    ALL_TOOLS,
    AblationConfig,
    ToolStatus,
    execute_batch,
    extract_evidence,
)
from geoprobe.live_tools import (
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT_S,
    EndpointConfig,
    HttpTransport,
    LiveAdapter,
    LocalCropAdapter,
    TOOL_PATHS,
    endpoints_for_base,
    live_adapter_request,
    live_adapters,
    request_body,
)
from geoprobe.planner import scripted_salience_policy
from geoprobe.recorder import replay
from geoprobe.state import EpisodeStatus
from geoprobe import stub_server
from geoprobe.stub_server import StubToolServer
from geoprobe.synthworld import Difficulty, generate_world, sample_episode


@pytest.fixture(scope="module")
def world():
    return generate_world(2026, 3, 5)


@pytest.fixture()
def stub(world):
    server = StubToolServer(world).start()
    yield server
    server.stop()


def dead_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def fast_endpoints(stub, **kwargs):
    kwargs.setdefault("timeout_s", 5.0)
    kwargs.setdefault("backoff_s", 0.001)
    return stub.endpoints(**kwargs)


def probe(tool, args, action_id=1):
    module = {
        Tool.CAPTION: CapabilityModule.ENVIRONMENTAL,
        Tool.OCR: CapabilityModule.SEMANTIC_SYMBOL,
        Tool.KNOWLEDGE_BASE: CapabilityModule.SEMANTIC_SYMBOL,
        Tool.TEXT_SEARCH: CapabilityModule.ENVIRONMENTAL,
        Tool.IMAGE_SEARCH: CapabilityModule.IMAGE_MATCHING,
        Tool.GEOCODE: CapabilityModule.SEMANTIC_SYMBOL,
        Tool.CROP: CapabilityModule.INFRASTRUCTURE,
    }[tool]
    return Action(action_id, module, tool, args)


def sign_scene(world, difficulty=Difficulty.EASY):
    from geoprobe.synthworld import ClueKind
    for seed in range(80):
        desc = sample_episode(world, seed, difficulty)
        if desc.clues_of(ClueKind.SIGN_TEXT):
            return desc
    raise AssertionError("no sign-bearing scene found")


# -- wire bodies ------------------------------------------------------------


def test_caption_body_minimal():
    act = probe(Tool.CAPTION, {"image": "scene/0"})
    assert request_body(Tool.CAPTION, act) == {"image": "scene/0"}


def test_caption_body_with_focus():
    act = probe(Tool.CAPTION, {"image": "scene/0", "focus": "storefront"})
    assert request_body(Tool.CAPTION, act) == {
        "image": "scene/0", "focus": "storefront"}


def test_ocr_body_box_becomes_bbox():
    act = probe(Tool.OCR, {"image": "scene/0", "box": (0.1, 0.2, 0.5, 0.6)})
    assert request_body(Tool.OCR, act) == {
        "image": "scene/0", "bbox": [0.1, 0.2, 0.5, 0.6]}


def test_ocr_body_box_optional():
    act = probe(Tool.OCR, {"image": "scene/0"})
    assert request_body(Tool.OCR, act) == {"image": "scene/0"}


def test_kb_body():
    act = probe(Tool.KNOWLEDGE_BASE, {"query": "Kunalo bakery"})
    assert request_body(Tool.KNOWLEDGE_BASE, act) == {"query": "Kunalo bakery"}


def test_text_search_body_has_top_k():
    act = probe(Tool.TEXT_SEARCH, {"query": "karst hills"})
    assert request_body(Tool.TEXT_SEARCH, act, top_k=7) == {
        "query": "karst hills", "top_k": 7}


def test_text_search_body_region_scope():
    act = probe(Tool.TEXT_SEARCH, {"query": "karst hills", "region": "r0-p1"})
    body = request_body(Tool.TEXT_SEARCH, act)
    assert body["region_scope"] == "r0-p1"


def test_image_search_body():
    act = probe(Tool.IMAGE_SEARCH, {"image": "scene/0#crop(0.10,0.10,0.50,0.50)"})
    assert request_body(Tool.IMAGE_SEARCH, act, top_k=3) == {
        "image": "scene/0#crop(0.10,0.10,0.50,0.50)", "top_k": 3}


def test_geocode_body_uses_name_field():
    act = probe(Tool.GEOCODE, {"query": "Kunalo bakery"})
    assert request_body(Tool.GEOCODE, act) == {"name": "Kunalo bakery"}


def test_crop_has_no_wire_format():
    act = probe(Tool.CROP, {"image": "scene/0", "box": (0.1, 0.1, 0.5, 0.5)})
    with pytest.raises(ValueError):
        request_body(Tool.CROP, act)


# -- endpoint configuration -------------------------------------------------


def test_endpoint_config_defaults():
    cfg = EndpointConfig(url="http://tools.local/ocr")
    assert cfg.timeout_s == DEFAULT_TIMEOUT_S == 20.0
    assert cfg.retries == DEFAULT_RETRIES == 2


@pytest.mark.parametrize("kwargs", [
    {"url": ""},
    {"url": "http://x", "timeout_s": 0.0},
    {"url": "http://x", "retries": -1},
])
def test_endpoint_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        EndpointConfig(**kwargs)


def test_endpoints_for_base_covers_all_network_tools():
    eps = endpoints_for_base("http://tools.local/", auth_env="TOK")
    assert set(eps) == set(TOOL_PATHS)
    assert eps[Tool.OCR].url == "http://tools.local/ocr"
    assert eps[Tool.TEXT_SEARCH].url == "http://tools.local/text_search"
    assert all(cfg.auth_env == "TOK" for cfg in eps.values())


def test_live_adapters_rejects_crop_endpoint():
    with pytest.raises(ValueError):
        live_adapters({Tool.CROP: EndpointConfig(url="http://x/crop")})


def test_live_adapter_rejects_non_network_tool():
    with pytest.raises(ValueError):
        LiveAdapter(Tool.CROP, EndpointConfig(url="http://x"))


# -- happy path over HTTP ---------------------------------------------------


def test_canned_ocr_roundtrip(stub):
    canned = {"spans": [{"text": "Main Street 5", "box": [0, 0, 1, 1]}]}
    stub.set_canned(Tool.OCR, canned)
    eps = fast_endpoints(stub)
    result = LiveAdapter(Tool.OCR, eps[Tool.OCR]).execute(
        probe(Tool.OCR, {"image": "scene/0"}))
    assert result.status is ToolStatus.OK
    assert result.payload == canned
    assert result.latency_ms > 0
    assert stub.count(Tool.OCR) == 1


def test_world_backed_ocr_matches_in_process_adapter(world, stub):
    desc = sign_scene(world)
    stub.register("scene/0", desc)
    eps = fast_endpoints(stub)
    act = probe(Tool.OCR, {"image": "scene/0"})
    over_http = LiveAdapter(Tool.OCR, eps[Tool.OCR]).execute(act)
    from geoprobe.synthworld import synthetic_adapters
    toolbox = synthetic_adapters(world)
    toolbox.register("scene/0", desc)
    in_process = toolbox.adapters()[Tool.OCR].execute(act)
    assert over_http.ok and over_http.payload == in_process.payload


def test_http_result_feeds_evidence_extraction(world, stub):
    desc = sign_scene(world)
    stub.register("scene/0", desc)
    eps = fast_endpoints(stub)
    result = LiveAdapter(Tool.OCR, eps[Tool.OCR]).execute(
        probe(Tool.OCR, {"image": "scene/0"}))
    evidence = extract_evidence(result, world.gazetteer)
    truth_city = world.gazetteer.get(desc.truth.city_id)
    assert any(truth_city.id in e.constraint for e in evidence)


def test_request_records_wire_body(world, stub):
    stub.set_canned(Tool.TEXT_SEARCH, {"hits": []})
    eps = fast_endpoints(stub)
    LiveAdapter(Tool.TEXT_SEARCH, eps[Tool.TEXT_SEARCH]).execute(
        probe(Tool.TEXT_SEARCH, {"query": "karst"}))
    [req] = stub.requests()
    assert req.path == "/text_search"
    assert req.body == {"query": "karst", "top_k": 5}


# -- auth -------------------------------------------------------------------


def test_auth_token_sent_as_bearer_header(stub, monkeypatch):
    monkeypatch.setenv("STUB_TOOL_TOKEN", "s3cret-token")
    stub.set_canned(Tool.KNOWLEDGE_BASE, {"records": []})
    eps = fast_endpoints(stub, auth_env="STUB_TOOL_TOKEN")
    LiveAdapter(Tool.KNOWLEDGE_BASE, eps[Tool.KNOWLEDGE_BASE]).execute(
        probe(Tool.KNOWLEDGE_BASE, {"query": "x"}))
    [req] = stub.requests()
    assert req.authorization == "Bearer s3cret-token"


def test_no_auth_header_without_token(stub, monkeypatch):
    monkeypatch.delenv("STUB_TOOL_TOKEN", raising=False)
    stub.set_canned(Tool.KNOWLEDGE_BASE, {"records": []})
    eps = fast_endpoints(stub, auth_env="STUB_TOOL_TOKEN")
    LiveAdapter(Tool.KNOWLEDGE_BASE, eps[Tool.KNOWLEDGE_BASE]).execute(
        probe(Tool.KNOWLEDGE_BASE, {"query": "x"}))
    [req] = stub.requests()
    assert req.authorization is None


def test_token_never_appears_in_result(stub, monkeypatch):
    monkeypatch.setenv("STUB_TOOL_TOKEN", "hunter2-secret")
    stub.set_canned(Tool.GEOCODE, {"matches": []})
    eps = fast_endpoints(stub, auth_env="STUB_TOOL_TOKEN")
    result = LiveAdapter(Tool.GEOCODE, eps[Tool.GEOCODE]).execute(
        probe(Tool.GEOCODE, {"query": "place"}))
    import json
    assert "hunter2-secret" not in json.dumps(result.to_json())


# -- failure policy ---------------------------------------------------------


def test_server_error_thrice_fails_after_two_retries(stub):
    stub.set_behavior(Tool.KNOWLEDGE_BASE, fail_times=3)
    eps = fast_endpoints(stub)
    result = LiveAdapter(Tool.KNOWLEDGE_BASE, eps[Tool.KNOWLEDGE_BASE]).execute(
        probe(Tool.KNOWLEDGE_BASE, {"query": "x"}))
    assert result.status is ToolStatus.TOOL_ERROR
    assert result.error == "ServerError"
    assert stub.count(Tool.KNOWLEDGE_BASE) == 3  # initial try + 2 retries


def test_server_error_twice_then_recovers(stub):
    stub.set_behavior(Tool.KNOWLEDGE_BASE, fail_times=2)
    stub.set_canned(Tool.KNOWLEDGE_BASE, {"records": []})
    eps = fast_endpoints(stub)
    result = LiveAdapter(Tool.KNOWLEDGE_BASE, eps[Tool.KNOWLEDGE_BASE]).execute(
        probe(Tool.KNOWLEDGE_BASE, {"query": "x"}))
    assert result.ok
    assert stub.count(Tool.KNOWLEDGE_BASE) == 3


def test_client_error_fails_immediately_without_retry(stub):
    stub.set_behavior(Tool.KNOWLEDGE_BASE, fail_times=5, fail_status=403)
    eps = fast_endpoints(stub)
    result = LiveAdapter(Tool.KNOWLEDGE_BASE, eps[Tool.KNOWLEDGE_BASE]).execute(
        probe(Tool.KNOWLEDGE_BASE, {"query": "x"}))
    assert result.status is ToolStatus.TOOL_ERROR
    assert result.error == "RequestRejected"
    assert "403" in result.detail
    assert stub.count(Tool.KNOWLEDGE_BASE) == 1


def test_slow_server_yields_timeout_with_latency_at_least_budget(stub):
    stub.set_behavior(Tool.CAPTION, delay_s=0.5)
    cfg = stub.endpoints(timeout_s=0.05)[Tool.CAPTION]
    result = LiveAdapter(Tool.CAPTION, cfg).execute(
        probe(Tool.CAPTION, {"image": "scene/0"}))
    assert result.status is ToolStatus.TIMEOUT
    assert result.latency_ms >= 50.0
    assert stub.count(Tool.CAPTION) == 1  # timeouts are not retried


def test_non_json_body_is_bad_response_with_raw_body(stub):
    stub.set_behavior(Tool.GEOCODE, raw_body=b"<html>gateway mishap</html>")
    eps = fast_endpoints(stub)
    result = LiveAdapter(Tool.GEOCODE, eps[Tool.GEOCODE]).execute(
        probe(Tool.GEOCODE, {"query": "x"}))
    assert result.status is ToolStatus.TOOL_ERROR
    assert result.error == "BadResponse"
    assert result.detail == "<html>gateway mishap</html>"


def test_json_array_body_is_bad_response(stub):
    stub.set_behavior(Tool.GEOCODE, raw_body=b"[1, 2, 3]")
    eps = fast_endpoints(stub)
    result = LiveAdapter(Tool.GEOCODE, eps[Tool.GEOCODE]).execute(
        probe(Tool.GEOCODE, {"query": "x"}))
    assert result.error == "BadResponse"
    assert result.detail == "[1, 2, 3]"


def test_connection_refused_becomes_network_error():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        dead_port = s.getsockname()[1]
    cfg = EndpointConfig(url=f"http://127.0.0.1:{dead_port}/ocr",
                         timeout_s=0.5, backoff_s=0.001)
    result = live_adapter_request(
        Tool.OCR, probe(Tool.OCR, {"image": "scene/0"}), cfg)
    assert result.status is ToolStatus.TOOL_ERROR
    assert result.error == "NetworkError"


def test_unregistered_scene_is_rejected_in_band(world, stub):
    eps = fast_endpoints(stub)
    result = LiveAdapter(Tool.OCR, eps[Tool.OCR]).execute(
        probe(Tool.OCR, {"image": "scene/nowhere"}))
    assert result.status is ToolStatus.TOOL_ERROR
    assert result.error == "RequestRejected"
    assert "UnknownImage" in result.detail


def test_malformed_request_body_is_rejected_in_band(world, stub):
    eps = fast_endpoints(stub)
    # OCR without the required image arg: wire body lacks "image"
    act = Action(1, CapabilityModule.SEMANTIC_SYMBOL, Tool.OCR, {})
    result = LiveAdapter(Tool.OCR, eps[Tool.OCR]).execute(act)
    assert result.status is ToolStatus.TOOL_ERROR


def test_redirect_is_rejected_not_followed(stub):
    stub.set_behavior(Tool.OCR, fail_times=1, fail_status=303)
    eps = fast_endpoints(stub)
    result = LiveAdapter(Tool.OCR, eps[Tool.OCR]).execute(
        probe(Tool.OCR, {"image": "scene/0"}))
    assert result.error == "RequestRejected"
    assert result.detail.startswith("HTTP 303: ")
    assert stub.count(Tool.OCR) == 1


# -- pooled transport -------------------------------------------------------


def test_transport_chains_connection_error_to_urllib3():
    url = f"http://127.0.0.1:{dead_port()}/ocr"
    with pytest.raises(requests.ConnectionError) as info:
        HttpTransport([url]).post(url, body=b"{}", headers={}, timeout=0.5)
    assert isinstance(info.value.__cause__, urllib3.exceptions.NewConnectionError)


def test_transport_chains_timeout_to_urllib3(stub):
    stub.set_behavior(Tool.CAPTION, delay_s=0.5)
    url = stub.endpoints()[Tool.CAPTION].url
    with pytest.raises(requests.Timeout) as info:
        HttpTransport([url]).post(url, body=b"{}", headers={}, timeout=0.05)
    assert isinstance(info.value.__cause__, urllib3.exceptions.ReadTimeoutError)


def test_unencodable_body_is_network_error_without_retry(stub):
    eps = fast_endpoints(stub)
    result = LiveAdapter(Tool.KNOWLEDGE_BASE, eps[Tool.KNOWLEDGE_BASE]).execute(
        probe(Tool.KNOWLEDGE_BASE, {"query": float("nan")}))
    assert result.error == "NetworkError"
    assert "InvalidJSONError" in result.detail
    assert stub.total_requests() == 0


def test_parallel_batch_shares_one_pool_without_overflow(stub, caplog):
    tools = (Tool.CAPTION, Tool.OCR, Tool.KNOWLEDGE_BASE, Tool.GEOCODE)
    for tool in tools:
        stub.set_canned(tool, {"n": tool.value})
        stub.set_behavior(tool, delay_s=0.05)  # keep the four calls in flight together
    adapters = live_adapters(stub.endpoints())
    args = {Tool.CAPTION: {"image": "scene/0"}, Tool.OCR: {"image": "scene/0"},
            Tool.KNOWLEDGE_BASE: {"query": "x"}, Tool.GEOCODE: {"query": "x"}}
    with caplog.at_level(logging.WARNING, logger="urllib3"):
        for batch in range(3):
            stub.reset_counters()
            actions = [probe(tool, args[tool], action_id=10 * batch + 4 - i)
                       for i, tool in enumerate(tools)]
            results = execute_batch(actions, adapters, max_workers=DEFAULT_MAX_PARALLEL)
            assert [r.action_id for r in results] == sorted(a.id for a in actions)
            assert all(r.ok for r in results)
            assert [r.payload["n"] for r in results] == [t.value for t in reversed(tools)]
            assert stub.total_requests() == 4
    assert not [r for r in caplog.records if "Connection pool is full" in r.getMessage()]


def test_sequential_calls_reuse_one_connection(stub, monkeypatch):
    # The stub answers HTTP/1.1 and keeps the connection open, so the shared
    # pool must send all ten calls over one connection.
    monkeypatch.setattr(stub_server._StubHandler, "protocol_version", "HTTP/1.1")
    accepted = 0
    get_request = stub_server._StubHTTPServer.get_request

    def counting_get_request(server):
        nonlocal accepted
        accepted += 1
        return get_request(server)

    monkeypatch.setattr(stub_server._StubHTTPServer, "get_request", counting_get_request)
    stub.set_canned(Tool.GEOCODE, {"matches": []})
    adapters = live_adapters(fast_endpoints(stub))
    for i in range(10):
        result = adapters[Tool.GEOCODE].execute(probe(Tool.GEOCODE, {"query": "x"}, i + 1))
        assert result.ok
    assert stub.total_requests() == 10
    assert accepted == 1


# -- keep-alive: fault paths on a reused connection, prompt shutdown ---------


@pytest.fixture()
def accepted(monkeypatch):
    """Counts the connections the stub server accepts, in ``accepted[0]``."""
    count = [0]
    get_request = stub_server._StubHTTPServer.get_request

    def counting_get_request(server):
        count[0] += 1
        return get_request(server)

    monkeypatch.setattr(stub_server._StubHTTPServer, "get_request", counting_get_request)
    return count


def geocode(adapters, name, action_id=1):
    return adapters[Tool.GEOCODE].execute(probe(Tool.GEOCODE, {"query": name}, action_id))


def test_injected_503_is_retried_on_the_kept_connection(stub, accepted):
    stub.set_behavior(Tool.KNOWLEDGE_BASE, fail_times=1, fail_status=503)
    stub.set_canned(Tool.KNOWLEDGE_BASE, {"records": []})
    adapters = live_adapters(fast_endpoints(stub))
    for i in range(2):
        result = adapters[Tool.KNOWLEDGE_BASE].execute(
            probe(Tool.KNOWLEDGE_BASE, {"query": "x"}, i + 1))
        assert result.ok
    assert stub.count(Tool.KNOWLEDGE_BASE) == 3  # 503, its retry, the second call
    assert accepted[0] == 1


def test_call_after_a_timeout_gets_its_own_answer(world, stub, accepted):
    first, second = (c.name for c in world.gazetteer.cities()[:2])
    stub.set_behavior(Tool.GEOCODE, delay_s=0.3)
    adapters = live_adapters(fast_endpoints(stub, timeout_s=0.05))
    assert geocode(adapters, first).status is ToolStatus.TIMEOUT
    stub.set_behavior(Tool.GEOCODE)
    result = geocode(adapters, second, action_id=2)
    assert result.ok
    assert result.payload["query"] == second  # not the late answer to the first
    assert accepted[0] == 2  # the timed-out connection is not reused


def test_raw_body_is_bad_response_and_keeps_the_connection(world, stub, accepted):
    name = world.gazetteer.cities()[0].name
    stub.set_behavior(Tool.GEOCODE, raw_body=b"<html>gateway mishap</html>")
    adapters = live_adapters(fast_endpoints(stub))
    assert geocode(adapters, name).error == "BadResponse"
    stub.set_behavior(Tool.GEOCODE)
    assert geocode(adapters, name, action_id=2).payload["query"] == name
    assert accepted[0] == 1


@pytest.mark.parametrize("framing", [
    b"Content-Length: abc\r\n\r\n{}",
    b"Content-Length: -2\r\n\r\n{}",
    b"Content-Length: 10\r\n\r\n{}",  # the client stops sending after 2 bytes
    b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
], ids=["bad-length", "negative-length", "short-body", "chunked"])
def test_unread_body_gets_400_then_eof(stub, framing):
    with socket.create_connection(("127.0.0.1", stub.port), timeout=5) as sock:
        sock.sendall(b"POST /geocode HTTP/1.1\r\nHost: stub\r\n" + framing)
        sock.shutdown(socket.SHUT_WR)
        answer = b""
        while chunk := sock.recv(4096):
            answer += chunk
    head, _, body = answer.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in head.split(b"\r\n")
    assert body == b'{"error": "unreadable body"}'  # one answer, then EOF
    assert stub.total_requests() == 0


def test_sequential_benchmark_uses_one_connection(world, stub, accepted):
    samples = make_benchmark(world, 6, seed=5)
    for sample in samples:
        stub.register(f"scene/{sample.id}", sample.descriptor)
    run = run_benchmark(samples, scripted_salience_policy(), world,
                        adapters=live_adapters(fast_endpoints(stub)), workers=1)
    assert all(e.status is EpisodeStatus.FINALIZED for e in run.entries)
    assert stub.total_requests() > len(samples)
    assert accepted[0] == 1


@pytest.mark.parametrize("in_place", [False, True], ids=["threaded", "in-place"])
def test_stop_is_prompt_with_an_idle_kept_connection(world, monkeypatch, in_place):
    if in_place:  # as perfbench/stub_host.py serves
        monkeypatch.setattr(stub_server._StubHTTPServer, "process_request",
                            socketserver.BaseServer.process_request)
    with StubToolServer(world) as server:
        client = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        stopper = threading.Thread(target=server.stop)
        try:
            client.request("POST", "/geocode", body=b'{"name": "x"}')
            assert client.getresponse().read()  # the connection stays open, idle
            t0 = time.perf_counter()
            stopper.start()
            stopper.join(1.0)
            elapsed = time.perf_counter() - t0
            assert not stopper.is_alive(), "stop() waits on the idle connection"
            assert client.sock.recv(1) == b""  # the server closed it
        finally:
            client.close()  # ends a stop() that waits on this connection
            if stopper.ident is not None:
                stopper.join(5.0)
    assert elapsed < 1.0


# -- environment: proxies and .netrc, read when the adapters are built -------


@pytest.fixture()
def proxy_env(monkeypatch):
    """Clears every proxy variable; the returned setter sets both cases."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)

    def set_env(**values):
        for name, value in values.items():
            monkeypatch.setenv(name.upper(), value)
            monkeypatch.setenv(name.lower(), value)
    return set_env


def test_http_proxy_routes_call_through_proxy(stub, proxy_env):
    proxy_env(http_proxy=stub.base_url)
    cfg = EndpointConfig(url="http://tools.invalid/caption", timeout_s=5.0, backoff_s=0.001)
    result = live_adapters({Tool.CAPTION: cfg})[Tool.CAPTION].execute(
        probe(Tool.CAPTION, {"image": "scene/0"}))
    assert result.error == "RequestRejected"
    assert result.detail.startswith("HTTP 404: ")
    [req] = stub.requests()
    assert req.path == "http://tools.invalid/caption"


def test_no_proxy_bypasses_dead_proxy(stub, proxy_env):
    stub.set_canned(Tool.OCR, {"spans": []})
    act = probe(Tool.OCR, {"image": "scene/0"})
    proxy_env(http_proxy=f"http://127.0.0.1:{dead_port()}")
    proxied = live_adapters(fast_endpoints(stub, retries=0))[Tool.OCR].execute(act)
    assert proxied.error == "NetworkError"
    proxy_env(no_proxy="127.0.0.1")
    assert live_adapters(fast_endpoints(stub))[Tool.OCR].execute(act).ok
    assert stub.count(Tool.OCR) == 1


def test_proxy_change_after_build_has_no_effect(stub, proxy_env):
    stub.set_canned(Tool.OCR, {"spans": []})
    adapters = live_adapters(fast_endpoints(stub))
    proxy_env(http_proxy=f"http://127.0.0.1:{dead_port()}")
    assert adapters[Tool.OCR].execute(probe(Tool.OCR, {"image": "scene/0"})).ok
    assert stub.count(Tool.OCR) == 1


def test_socks_proxy_is_rejected_when_built(proxy_env):
    proxy_env(all_proxy="socks5://127.0.0.1:1080")
    with pytest.raises(ConfigError):
        live_adapters(endpoints_for_base("http://tools.example"))


def test_netrc_credentials_sent_as_basic_auth(stub, tmp_path, monkeypatch):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login alice password s3cret\n")
    netrc.chmod(0o600)
    monkeypatch.setenv("NETRC", str(netrc))
    stub.set_canned(Tool.GEOCODE, {"matches": []})
    adapters = live_adapters(fast_endpoints(stub))
    assert adapters[Tool.GEOCODE].execute(probe(Tool.GEOCODE, {"query": "x"})).ok
    [req] = stub.requests()
    assert req.authorization == "Basic " + base64.b64encode(b"alice:s3cret").decode()


# -- crop stays local -------------------------------------------------------


def test_local_crop_derives_reference_without_network(stub):
    adapters = live_adapters(fast_endpoints(stub))
    act = probe(Tool.CROP, {"image": "scene/0", "box": (0.1, 0.2, 0.5, 0.6)})
    result = adapters[Tool.CROP].execute(act)
    assert result.ok
    assert result.payload["image"] == "scene/0#crop(0.10,0.20,0.50,0.60)"
    assert stub.total_requests() == 0


def test_local_crop_contains_bad_args():
    result = LocalCropAdapter().execute(
        Action(1, CapabilityModule.INFRASTRUCTURE, Tool.CROP, {"image": "x"}))
    assert result.status is ToolStatus.TOOL_ERROR
    assert result.error == "InternalError"


# -- ablation soundness over the wire ---------------------------------------


def test_disabled_tool_issues_zero_requests(world, stub):
    desc = sign_scene(world)
    stub.register("scene/0", desc)
    adapters = live_adapters(fast_endpoints(stub))
    cfg = AblationConfig(frozenset(ALL_TOOLS - {Tool.IMAGE_SEARCH}))
    actions = (
        probe(Tool.IMAGE_SEARCH, {"image": "scene/0"}, action_id=1),
        probe(Tool.OCR, {"image": "scene/0"}, action_id=2),
    )
    results = execute_batch(actions, adapters, cfg)
    assert stub.count(Tool.IMAGE_SEARCH) == 0
    assert stub.count(Tool.OCR) == 1
    assert results[0].error == "ToolDisabled"
    assert results[1].ok


# -- full episode over HTTP -------------------------------------------------


def test_full_episode_over_http_finds_truth_city(world, stub):
    backend = scripted_salience_policy()
    desc = sample_episode(world, 7, Difficulty.EASY)
    stub.register("scene/e", desc)
    adapters = live_adapters(fast_endpoints(stub))
    result = run_synthetic_episode(
        world, desc, backend, image_ref="scene/e", adapters=adapters)
    assert result.state.status is EpisodeStatus.FINALIZED
    assert result.prediction.city_name == world.gazetteer.get(desc.truth.city_id).name
    report = replay(result.trace, world.gazetteer)
    assert report.events_verified == len(result.trace.events)


def test_ablated_episode_over_http_never_calls_disabled_endpoint(world, stub):
    backend = scripted_salience_policy()
    desc = sample_episode(world, 11, Difficulty.HARD)
    stub.register("scene/h", desc)
    adapters = live_adapters(fast_endpoints(stub))
    ablation = AblationConfig(frozenset(ALL_TOOLS - {Tool.IMAGE_SEARCH}))
    result = run_synthetic_episode(
        world, desc, backend, image_ref="scene/h", adapters=adapters,
        ablation=ablation)
    assert result.state.status is EpisodeStatus.FINALIZED
    assert stub.count(Tool.IMAGE_SEARCH) == 0
    assert stub.total_requests() > 0


# -- tag table file loading -------------------------------------------------


def test_tag_table_roundtrip(tmp_path, world):
    from geoprobe.executor import load_tag_table, save_tag_table
    table = world.tag_table()
    path = tmp_path / "tags.json"
    save_tag_table(path, table)
    loaded = load_tag_table(path, world.gazetteer)
    assert loaded == dict(table)


def test_tag_table_rejects_unknown_region(tmp_path, world):
    from geoprobe.errors import UnknownRegionError
    path = tmp_path / "tags.json"
    path.write_text('{"karst": ["no-such-region"]}')
    with pytest.raises(UnknownRegionError) as info:
        from geoprobe.executor import load_tag_table
        load_tag_table(path, world.gazetteer)
    assert info.value.region_id == "no-such-region"
    assert str(info.value) == (
        f"tag table {path}, tag 'karst': unknown region id: 'no-such-region'")


def test_tag_table_rejects_non_object(tmp_path, world):
    from geoprobe.errors import ConfigError
    from geoprobe.executor import load_tag_table
    path = tmp_path / "tags.json"
    path.write_text('["karst"]')
    with pytest.raises(ConfigError):
        load_tag_table(path, world.gazetteer)
