"""Release gate: one test per acceptance property, each printing a verdict line.

Every check here either reruns a core guarantee at scale (soundness,
determinism, replay fidelity) or pins an output contract (report rows,
condition labels, context budgets). Tolerances and sample counts are part
of the contract and are not meant to be loosened casually.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
import time

import pytest

from conftest import SESSION_START, small_gazetteer, synthetic_episode
from test_recorder import ev as trace_ev, record_episode
from test_state import ALL_IDS, ev as state_ev, leafsim, space_cover

from geoprobe.bench import (
    BenchmarkSample,
    MetricBlock,
    MetricsReport,
    SceneCategory,
    make_benchmark,
    render_text_table,
    run_benchmark,
    threshold_accuracy,
)
from geoprobe.actions import Tool
from geoprobe.canonical import canonical_json
from geoprobe.engine import replay
from geoprobe.errors import HashMismatchError
from geoprobe.executor import (
    ALL_TOOLS,
    LABEL_NO_IMAGE_SEARCH,
    AblationConfig,
    EpisodeSettings,
)
from geoprobe.geo import (
    EARTH_RADIUS_KM,
    AdminRegion,
    Gazetteer,
    GeoPoint,
    RegionLevel,
    haversine_km,
    normalize_city_name,
    reverse_geocode,
)
from geoprobe.live_tools import endpoints_for_base, live_adapters
from geoprobe.planner import scripted_salience_policy
from geoprobe.recorder import EventKind, compress, load_trace
from geoprobe.state import EpisodeState, Prediction, apply_evidence_report
from geoprobe.stub_server import StubToolServer
from geoprobe.synthworld import Difficulty, generate_world, sample_episode

KM_PER_DEG_LAT = math.pi * EARTH_RADIUS_KM / 180.0


def verdict(name: str, ok: bool, detail: str = "") -> None:
    """Print the single pass/fail line for a gate check, then enforce it."""
    suffix = f" ({detail})" if detail else ""
    print(f"[gate] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name} failed{suffix}"


def _parents_chain(g: Gazetteer, rid: str) -> set[str]:
    """Ancestors via a raw parent-pointer walk, independent of the indexes."""
    out: set[str] = set()
    cur = g.get(rid).parent_id
    while cur is not None:
        out.add(cur)
        cur = g.get(cur).parent_id
    return out


def _is_antichain(g: Gazetteer, frontier: frozenset[str]) -> bool:
    return all(not (_parents_chain(g, rid) & frontier) for rid in frontier)


# -- 1. projection soundness on 1,000 episodes ------------------------------


def test_01_projection_soundness_1000_episodes():
    world = generate_world(20260823, 4, 6)
    g = world.gazetteer
    backend = scripted_salience_policy()
    cycle = (Difficulty.EASY, Difficulty.MEDIUM, Difficulty.HARD)

    start = time.monotonic()
    shrink_violations = 0
    antichain_violations = 0
    steps_checked = 0
    for i in range(1000):
        desc = sample_episode(world, 9_000 + i, cycle[i % 3])
        result = synthetic_episode(world, desc, backend)

        state = EpisodeState()
        chain = {e.id: e for e in result.state.chain}  # append-only: every item of the episode
        for event in result.trace.events:
            if event.kind is not EventKind.PROJECTION:
                continue
            before = state.space.leaf_cover(g)
            evs = [chain[e["id"]] for e in event.payload["evidence"]]
            report = apply_evidence_report(state, evs, g)
            state = report.state
            if not _is_antichain(g, state.space.frontier):
                antichain_violations += 1
            if not report.backtracks:
                steps_checked += 1
                if not state.space.leaf_cover(g) <= before:
                    shrink_violations += 1
    elapsed = time.monotonic() - start

    verdict(
        "projection soundness",
        shrink_violations == 0 and antichain_violations == 0 and elapsed < 10.0,
        f"1000 episodes, {steps_checked} non-backtracking steps, "
        f"{shrink_violations} cover growths, {antichain_violations} antichain "
        f"breaks, {elapsed:.2f}s",
    )


# -- 2. oracle equivalence ---------------------------------------------------


def _arc_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Independent great-circle distance (atan2 form)."""
    p1, l1, p2, l2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
    dl = l2 - l1
    num = math.hypot(
        math.cos(p2) * math.sin(dl),
        math.cos(p1) * math.sin(p2) - math.sin(p1) * math.cos(p2) * math.cos(dl),
    )
    den = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return EARTH_RADIUS_KM * math.atan2(num, den)


def _twenty_city_gazetteer() -> Gazetteer:
    rng = random.Random(20260820)
    regions = [
        AdminRegion("aa", RegionLevel.COUNTRY, "Aland", GeoPoint(10.0, 10.0), 4000.0),
        AdminRegion("bb", RegionLevel.COUNTRY, "Bland", GeoPoint(-20.0, 120.0), 4000.0),
    ]
    n = 0
    for country, base in (("aa", GeoPoint(10.0, 10.0)), ("bb", GeoPoint(-20.0, 120.0))):
        for p in range(2):
            pid = f"{country}-p{p}"
            centre = GeoPoint(base.lat + (6 * p - 3), base.lon + (8 * p - 4))
            regions.append(
                AdminRegion(pid, RegionLevel.PROVINCE, f"Prov {pid}", centre, 700.0, country)
            )
            for c in range(5):
                spot = GeoPoint(
                    centre.lat + rng.uniform(-2.5, 2.5),
                    centre.lon + rng.uniform(-2.5, 2.5),
                )
                regions.append(
                    AdminRegion(
                        f"{pid}-c{c}", RegionLevel.CITY, f"City{n}", spot,
                        rng.uniform(15.0, 60.0), pid,
                    )
                )
                n += 1
    return Gazetteer(regions)


def _brute_force_city(g: Gazetteer, p: GeoPoint, fallback_km: float = 100.0) -> str | None:
    containing = None
    nearest = None
    for r in g.regions():
        if r.level is not RegionLevel.CITY:
            continue
        d = haversine_km(r.centroid, p)
        if d <= r.radius_km and (containing is None or (d, r.id) < containing):
            containing = (d, r.id)
        if nearest is None or (d, r.id) < nearest:
            nearest = (d, r.id)
    if containing is not None:
        return containing[1]
    if nearest is not None and nearest[0] <= fallback_km:
        return nearest[1]
    return None


def test_02_metric_oracle_equivalence():
    # Distance against an independently derived formula on 1,000 pairs.
    rng = random.Random(20260821)
    worst_rel = 0.0
    for _ in range(1000):
        a = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
        b = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
        got = haversine_km(a, b)
        want = _arc_distance(a, b)
        worst_rel = max(worst_rel, abs(got - want) / max(want, 1e-9))
    distance_ok = worst_rel <= 0.005

    # City lookup against a brute-force scan on 100 points x 20 cities.
    g = _twenty_city_gazetteer()
    cities = [r for r in g.regions() if r.level is RegionLevel.CITY]
    points: list[GeoPoint] = []
    for i in range(60):  # clustered around cities
        c = cities[i % len(cities)].centroid
        points.append(GeoPoint(c.lat + rng.uniform(-1.2, 1.2), c.lon + rng.uniform(-1.2, 1.2)))
    for _ in range(20):  # provincial midfield
        c = cities[rng.randrange(len(cities))].centroid
        points.append(GeoPoint(c.lat + rng.uniform(-5, 5), c.lon + rng.uniform(-5, 5)))
    for _ in range(20):  # anywhere, mostly far from everything
        points.append(GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180)))
    lookup_mismatches = 0
    for p in points:
        got_region = reverse_geocode(g, p)
        got = got_region.id if got_region is not None else None
        if got != _brute_force_city(g, p):
            lookup_mismatches += 1
    lookup_ok = lookup_mismatches == 0

    # Threshold accuracy against direct counting on hand-placed offsets.
    base = GeoPoint(0.0, 20.0)
    offsets = [0.0, 0.5, 0.9, 1.5, 20.0, 30.0, 150.0, 400.0, 900.0, 2600.0]
    samples = []
    preds = []
    for i in range(100):
        sid = f"a{i:03d}"
        samples.append(
            BenchmarkSample(
                id=sid, truth_point=base, truth_city="X", truth_province="P",
                scene_category=SceneCategory.URBAN, difficulty=Difficulty.EASY,
                image=f"img/{sid}",
            )
        )
        shifted = GeoPoint(base.lat + offsets[i % 10] / KM_PER_DEG_LAT, base.lon)
        preds.append(Prediction(point=shifted, city_name="X", sample_id=sid))
    got_acc = threshold_accuracy(preds, samples)
    want_acc = {}
    for tau in (1, 25, 200, 750, 2500):
        hits = sum(
            1 for s, p in zip(samples, preds)
            if haversine_km(p.point, s.truth_point) <= tau
        )
        want_acc[tau] = 100.0 * hits / len(samples)
    counting_ok = got_acc == want_acc

    verdict(
        "metric oracle equivalence",
        distance_ok and lookup_ok and counting_ok,
        f"distance worst rel {worst_rel:.2e}, {lookup_mismatches} lookup "
        f"mismatches, threshold table {'==' if counting_ok else '!='} direct count",
    )


# -- 3. end-to-end synthetic convergence -------------------------------------


def test_03_synthetic_convergence_and_determinism():
    world = generate_world(777, 3, 5)
    g = world.gazetteer
    backend = scripted_salience_policy()
    easy = make_benchmark(world, 100, seed=31, mix={
        Difficulty.EASY: 1.0, Difficulty.MEDIUM: 0.0, Difficulty.HARD: 0.0})
    hard = make_benchmark(world, 100, seed=32, mix={
        Difficulty.EASY: 0.0, Difficulty.MEDIUM: 0.0, Difficulty.HARD: 1.0})

    start = time.monotonic()
    easy_run = run_benchmark(easy, backend, world)
    easy_rerun = run_benchmark(easy, backend, world)
    hard_run = run_benchmark(hard, backend, world)
    hard_rerun = run_benchmark(hard, backend, world)
    elapsed = time.monotonic() - start

    exact_city = 0
    for s, entry in zip(easy, easy_run.entries):
        if entry.prediction is None:
            continue
        if normalize_city_name(entry.prediction.city_name) == normalize_city_name(s.truth_city):
            exact_city += 1

    right_province = 0
    for s, entry in zip(hard, hard_run.entries):
        if entry.prediction is None:
            continue
        city = reverse_geocode(g, entry.prediction.point)
        if city is None or city.parent_id is None:
            continue
        if g.get(city.parent_id).name == s.truth_province:
            right_province += 1

    deterministic = (
        canonical_json(easy_run.report.to_json()) == canonical_json(easy_rerun.report.to_json())
        and canonical_json(hard_run.report.to_json()) == canonical_json(hard_rerun.report.to_json())
        and render_text_table(easy_run.report) == render_text_table(easy_rerun.report)
    )

    verdict(
        "synthetic convergence",
        exact_city >= 95 and right_province >= 70 and deterministic and elapsed < 30.0,
        f"easy exact-city {exact_city}/100, hard right-province "
        f"{right_province}/100, reports byte-identical: {deterministic}, {elapsed:.2f}s",
    )


# -- 4. replay fidelity ------------------------------------------------------


def _first_string_leaf(obj):
    """(container, key, value) of the first non-empty string inside obj."""
    stack = [obj]
    while stack:
        cur = stack.pop(0)
        if isinstance(cur, dict):
            for k in sorted(cur):
                v = cur[k]
                if isinstance(v, str) and v:
                    return cur, k, v
                if isinstance(v, (dict, list)):
                    stack.append(v)
        elif isinstance(cur, list):
            for i, v in enumerate(cur):
                if isinstance(v, str) and v:
                    return cur, i, v
                if isinstance(v, (dict, list)):
                    stack.append(v)
    return None


def _tamper_one_payload_byte(path) -> int:
    """Flip one character inside a recorded result payload; return its seq."""
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        obj = json.loads(line)
        if obj.get("kind") != "Execution":
            continue
        for res in obj.get("payload", {}).get("results", []):
            found = _first_string_leaf(res.get("payload"))
            if found is None:
                continue
            container, key, value = found
            container[key] = chr(ord(value[0]) ^ 1) + value[1:]
            lines[i] = json.dumps(obj, ensure_ascii=False, sort_keys=True)
            path.write_text("\n".join(lines) + "\n")
            return obj["seq"]
    raise AssertionError("no string payload available to tamper")


def test_04_replay_fidelity_100_episodes(tmp_path):
    world = generate_world(555, 3, 5)
    backend = scripted_salience_policy()
    cycle = (Difficulty.EASY, Difficulty.MEDIUM, Difficulty.HARD)

    mismatches = 0
    paths = []
    for i in range(100):
        desc = sample_episode(world, 40_000 + i, cycle[i % 3])
        path = tmp_path / f"ep{i:03d}.trace.jsonl"
        synthetic_episode(world, desc, backend, trace_path=str(path))
        paths.append(path)
        try:
            replay(load_trace(str(path)), world.gazetteer, world.tag_table())
        except HashMismatchError:
            mismatches += 1

    tampered = paths[0]
    seq = _tamper_one_payload_byte(tampered)
    with pytest.raises(HashMismatchError) as caught:
        replay(load_trace(str(tampered)), world.gazetteer, world.tag_table())
    pinpointed = caught.value.seq == seq

    verdict(
        "replay fidelity",
        mismatches == 0 and pinpointed,
        f"100 clean replays, {mismatches} mismatches; tampered byte flagged "
        f"at seq {caught.value.seq} (expected {seq})",
    )


# -- 5. backtracking against the greedy-discard oracle -----------------------


def _toy_tree(spec: dict[str, list[int]], tag: str) -> Gazetteer:
    """Country -> province -> city tree; spec maps country to city counts."""
    regions: list[AdminRegion] = []
    for ci, (cid, city_counts) in enumerate(sorted(spec.items())):
        centre = GeoPoint(0.0, 40.0 * ci)
        regions.append(
            AdminRegion(f"{tag}{cid}", RegionLevel.COUNTRY, f"Country {cid}", centre, 3000.0)
        )
        for pi, ncities in enumerate(city_counts):
            pid = f"{tag}{cid}-p{pi}"
            pc = GeoPoint(centre.lat + 2.0, centre.lon + 3.0 * pi)
            regions.append(
                AdminRegion(pid, RegionLevel.PROVINCE, f"Prov {pid}", pc, 600.0, f"{tag}{cid}")
            )
            for k in range(ncities):
                regions.append(
                    AdminRegion(
                        f"{pid}-c{k}", RegionLevel.CITY, f"Town {pid}{k}",
                        GeoPoint(pc.lat + 0.5, pc.lon + 0.8 * k), 30.0, pid,
                    )
                )
    return Gazetteer(regions)


def _run_scenario(g: Gazetteer, steps) -> tuple[bool, bool]:
    """(space never empty, matches oracle) over one evidence sequence."""
    state = EpisodeState()
    got_backtracks = []
    never_empty = True
    for evs in steps:
        report = apply_evidence_report(state, list(evs), g)
        state = report.state
        got_backtracks.extend((b.evidence_id, b.stage) for b in report.backtracks)
        if state.space.is_empty:
            never_empty = False

    want_space, want_inactive, want_backtracks = leafsim(g, steps)
    if want_space is None:
        matches = state.space.is_global
    else:
        matches = space_cover(g, state.space) == want_space
    matches = (
        matches
        and set(state.inactive_ids) == want_inactive
        and got_backtracks == want_backtracks
    )
    return never_empty, matches


def test_05_backtracking_matches_greedy_discard_oracle():
    # Three shapes: disjoint chains, sibling fan-out, single wide province.
    trees = [
        _toy_tree({"u": [1], "v": [1]}, "q"),
        _toy_tree({"u": [2, 1]}, "r"),
        _toy_tree({"u": [3]}, "s"),
    ]
    scenarios = 0
    empties = 0
    divergences = 0
    for g in trees:
        ids = [r.id for r in g.regions()]
        options = [(rid, conf) for rid in ids for conf in (0.5, 0.9)]

        # Every ordered triple of single-evidence steps.
        for combo in itertools.product(options, repeat=3):
            steps = [
                [state_ev(i + 1, [rid], conf=conf)]
                for i, (rid, conf) in enumerate(combo)
            ]
            ok_empty, ok_match = _run_scenario(g, steps)
            scenarios += 1
            empties += 0 if ok_empty else 1
            divergences += 0 if ok_match else 1

        # Every pair arriving in the same step, then one follow-up.
        for (r1, c1), (r2, c2), (r3, c3) in itertools.product(options, repeat=3):
            if r1 >= r2:
                continue  # unordered pair, skip mirrored duplicates
            steps = [
                [state_ev(1, [r1], conf=c1), state_ev(2, [r2], conf=c2)],
                [state_ev(3, [r3], conf=c3)],
            ]
            ok_empty, ok_match = _run_scenario(g, steps)
            scenarios += 1
            empties += 0 if ok_empty else 1
            divergences += 0 if ok_match else 1

    verdict(
        "backtracking oracle",
        empties == 0 and divergences == 0,
        f"{scenarios} exhaustive scenarios over 3 toy trees, {empties} empty "
        f"spaces, {divergences} oracle divergences",
    )


# -- 6. ablation blocks a tool at the network level --------------------------


def test_06_disabled_image_search_never_reaches_server():
    world = generate_world(2026, 3, 5)
    backend = scripted_salience_policy()
    samples = make_benchmark(world, 24, seed=9)

    with StubToolServer(world) as server:
        for s in samples:
            server.register(f"scene/{s.id}", s.descriptor)
        run = run_benchmark(
            samples,
            backend,
            world,
            adapters=live_adapters(server.endpoints()),
            settings=EpisodeSettings(ablation=AblationConfig(ALL_TOOLS - {Tool.IMAGE_SEARCH})),
        )
        image_search_hits = server.count(Tool.IMAGE_SEARCH)
        total = server.total_requests()
        routes_used = sum(1 for c in server.counts().values() if c)

    labelled = (
        run.report.label == LABEL_NO_IMAGE_SEARCH
        and LABEL_NO_IMAGE_SEARCH in render_text_table(run.report)
    )
    finalized = sum(1 for e in run.entries if e.prediction is not None)

    verdict(
        "ablation soundness",
        image_search_hits == 0 and total > 0 and routes_used >= 3
        and labelled and finalized > 0,
        f"{image_search_hits} image-search requests out of {total} total "
        f"across {routes_used} routes over 24 episodes, {finalized} "
        f"finalized, label {run.report.label!r}",
    )


# -- 7. report rows reproduce reference figures verbatim ---------------------


def test_07_report_renders_reference_rows_verbatim():
    block = MetricBlock(
        n=300,
        threshold_acc={1: 52.33, 25: 82.0, 200: 100.0, 750: 100.0, 2500: 100.0},
        acc_city=84.67,
        acc_loglat=100.0,
        location_compliance=100.0,
    )
    text = render_text_table(MetricsReport(label="Ours", overall=block, strata={}))
    rows_ok = (
        "Method & 1km & 25km & 200km & 750km & 2500km" in text
        and "Ours & 52.33 & 82.00 & 100.00 & 100.00 & 100.00" in text
        and "Method & ACC City & ACC Loglat & Location Compliance" in text
        and "Ours & 84.67 & 100.00 & 100.00" in text
    )
    verdict("report row fidelity", rows_ok, "both reference rows rendered verbatim")


# -- 8. context compression bounds -------------------------------------------


def test_08_context_compression_keeps_active_ids():
    g = small_gazetteer()
    letters = "abcdefghijklmnopqrstuvwxyz "
    over_budget = 0
    dropped_ids = 0
    for t in range(100):
        rng = random.Random(f"ctx|{t}")
        steps = []
        for s in range(50):
            constraint = rng.sample(ALL_IDS, rng.randint(1, 2))
            claim = "".join(rng.choice(letters) for _ in range(rng.randint(20, 160)))
            steps.append(
                [trace_ev(s + 1, constraint, conf=rng.choice([0.5, 0.7, 0.9]), claim=claim)]
            )
        trace, state = record_episode(g, steps=steps, finalize_at_end=False)
        ctx = compress(state, list(trace.events), g, budget=4000)
        rendered = ctx.render()
        if len(rendered) > 4000:
            over_budget += 1
        for e in state.active_evidence():
            if not re.search(rf"\be{e.id}(?!\d)", rendered):
                dropped_ids += 1

    verdict(
        "context compression",
        over_budget == 0 and dropped_ids == 0,
        f"100 fifty-step traces, {over_budget} over budget, "
        f"{dropped_ids} active evidence ids dropped",
    )


# -- 9. whole-suite runtime --------------------------------------------------


def test_09_offline_suite_runtime_budget():
    # This file is ordered to run last (see conftest), so the elapsed session
    # time here covers the entire offline suite.
    elapsed = time.monotonic() - SESSION_START
    verdict("offline suite runtime", elapsed < 60.0, f"{elapsed:.1f}s elapsed")
