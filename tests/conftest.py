import socket
import time
from collections import deque
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import settings

from geoprobe import stub_server
from geoprobe.canonical import canonical_json
from geoprobe.engine import EpisodeResult, record_episode
from geoprobe.geo import AdminRegion, Gazetteer, GeoPoint, RegionLevel
from geoprobe.recorder import Trace
from geoprobe.stub_server import Fault
from geoprobe.synthworld import SceneDescriptor, SynthWorld, SyntheticToolbox, generate_world

SESSION_START = time.monotonic()

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


def pytest_collection_modifyitems(config, items):
    # The gate checks in test_acceptance.py run last so their whole-suite
    # runtime measurement covers everything else.
    items.sort(key=lambda item: "test_acceptance" in item.nodeid)


def small_gazetteer() -> Gazetteer:
    """Hand-built two-country tree used across the unit tests.

    Layout (radii chosen so children sit inside parents and city discs
    do not overlap):

        cn (country, 30N 110E, r=3000)
          cn-a (province, 30N 114E, r=400)
            cn-a-1 (city, 30.5N 114.3E, r=50)
              cn-a-1-x (district, 30.6N 114.25E, r=10)
              cn-a-1-y (district, 30.4N 114.35E, r=10)
            cn-a-2 (city, 29.0N 113.0E, r=40)
          cn-b (province, 39N 117E, r=300)
            cn-b-1 (city, 39.1N 117.2E, r=45)
        jp (country, 36N 138E, r=1500)
          jp-a (province, 35.5N 139.5E, r=200)
            jp-a-1 (city, 35.68N 139.76E, r=35)
    """
    regions = [
        AdminRegion("cn", RegionLevel.COUNTRY, "Chinaland", GeoPoint(30.0, 110.0), 3000.0),
        AdminRegion("cn-a", RegionLevel.PROVINCE, "Aprov", GeoPoint(30.0, 114.0), 400.0, "cn"),
        AdminRegion("cn-a-1", RegionLevel.CITY, "Rivertown", GeoPoint(30.5, 114.3), 50.0, "cn-a"),
        AdminRegion(
            "cn-a-1-x", RegionLevel.DISTRICT, "North Ward", GeoPoint(30.6, 114.25), 10.0, "cn-a-1"
        ),
        AdminRegion(
            "cn-a-1-y", RegionLevel.DISTRICT, "South Ward", GeoPoint(30.4, 114.35), 10.0, "cn-a-1"
        ),
        AdminRegion("cn-a-2", RegionLevel.CITY, "Lakeside", GeoPoint(29.0, 113.0), 40.0, "cn-a"),
        AdminRegion("cn-b", RegionLevel.PROVINCE, "Bprov", GeoPoint(39.0, 117.0), 300.0, "cn"),
        AdminRegion("cn-b-1", RegionLevel.CITY, "Harborville", GeoPoint(39.1, 117.2), 45.0, "cn-b"),
        AdminRegion("jp", RegionLevel.COUNTRY, "Nihonia", GeoPoint(36.0, 138.0), 1500.0),
        AdminRegion("jp-a", RegionLevel.PROVINCE, "Kanto", GeoPoint(35.5, 139.5), 200.0, "jp"),
        AdminRegion("jp-a-1", RegionLevel.CITY, "Edotown", GeoPoint(35.68, 139.76), 35.0, "jp-a"),
    ]
    return Gazetteer(regions)


@pytest.fixture
def gaz() -> Gazetteer:
    return small_gazetteer()


def synthetic_episode(
    world: SynthWorld,
    desc: SceneDescriptor,
    backend,
    *,
    image_ref: str = "scene/0",
    config_hash: str = "synthetic",
    adapters=None,
    **episode,
) -> EpisodeResult:
    """One recorded episode on ``desc`` under ``image_ref``, over the
    world's synthetic tools unless ``adapters`` is given, with the world's
    gazetteer and tag table. The rest goes to ``record_episode``."""
    if adapters is None:
        adapters = SyntheticToolbox(world, {image_ref: desc}).adapters()
    return record_episode(
        backend, adapters, world.gazetteer, image_ref=image_ref, config_hash=config_hash,
        descriptor=desc, tag_table=world.tag_table(), **episode)


def assert_canonical_lines(path, trace: Trace) -> None:
    """The file at ``path`` is, line for line, ``canonical_json`` of the
    in-memory ``trace``'s header and each of its events."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    assert lines.pop() == ""
    assert lines == [canonical_json(trace.header.to_json()),
                     *(canonical_json(event.to_json()) for event in trace.events)]


def dead_port() -> int:
    """A local port with nothing listening on it."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


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


#: The world and the client timeout of the fault-schedule properties.
FAULT_WORLD = generate_world(11, 3, 5)
FAULT_TIMEOUT_S = 0.05

#: What one request may meet in those properties: a retryable 5xx, a 4xx,
#: a redirect, a raw non-JSON body, a stall past the timeout, or health.
FAULTS = (Fault(status=503), Fault(status=404), Fault(status=302),
          Fault(body=b"<html>gateway mishap</html>"), Fault(delay_s=2 * FAULT_TIMEOUT_S),
          Fault())


def client_calls(schedule, retries: int) -> Iterator[tuple[int, Fault]]:
    """A model of ``live_tools.post_with_retries`` over a stub route that
    takes ``schedule`` in order: for each call, the requests it sends and
    the fault its last request met (``Fault()`` once the schedule has run
    out). A call takes entries until one is not a 5xx, or until its retries
    run out; a stall is no 5xx, so a timeout ends the call at once."""
    queue = deque(schedule)
    while True:
        for attempt in range(retries + 1):
            fault = queue.popleft() if queue else Fault()
            if fault.status < 500:
                break
        yield attempt + 1, fault
