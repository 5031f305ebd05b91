"""Metric suite, dataset files, report rendering, and benchmark runs.

Metric values are checked against independent direct-count oracles built
inside the tests, never against the functions under test.
"""

from __future__ import annotations

import json
import math
import pickle
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import small_gazetteer
from geoprobe import bench, engine, executor, geo, state, synthworld
from geoprobe.bench import (
    DATASET_SUFFIX,
    DEFAULT_MIX,
    DEFAULT_THRESHOLDS_KM,
    BenchmarkSample,
    MetricBlock,
    MetricsReport,
    SceneCategory,
    acc_city,
    acc_loglat,
    classify_scene,
    compute_report,
    difficulty_counts,
    load_dataset,
    location_compliance,
    make_benchmark,
    render_text_table,
    round2,
    run_benchmark,
    sample_scenes,
    save_dataset,
    stratify,
    threshold_accuracy,
)
from geoprobe.canonical import canonical_json, sha256_hex
from geoprobe.engine import replay
from geoprobe.executor import ToolResult
from geoprobe.errors import (
    ConfigError,
    DatasetError,
    EmptyDatasetError,
    EmptyPredictionsError,
    UnmatchedPredictionError,
)
from geoprobe.geo import GeoPoint, haversine_km
from geoprobe.planner import scripted_salience_policy
from geoprobe.recorder import EventKind, load_trace
from geoprobe.state import EpisodeStatus, Prediction
from geoprobe.synthworld import Clue, ClueKind, Difficulty, SyntheticToolbox, generate_world

GAZ = small_gazetteer()
EARTH_RADIUS_KM = 6371.0088


def km_north(p: GeoPoint, km: float) -> GeoPoint:
    return GeoPoint(p.lat + km / (EARTH_RADIUS_KM * math.pi / 180.0), p.lon)


def sample(i, point, city, province, category=SceneCategory.URBAN,
           difficulty=Difficulty.EASY):
    return BenchmarkSample(
        id=f"s{i}", truth_point=point, truth_city=city, truth_province=province,
        scene_category=category, difficulty=difficulty, image=f"img/{i}.jpg")


def pred(sample_id, point, city):
    return Prediction(point=point, city_name=city, sample_id=sample_id)


RIVERTOWN = GAZ.get("cn-a-1")
LAKESIDE = GAZ.get("cn-a-2")
HARBORVILLE = GAZ.get("cn-b-1")
EDOTOWN = GAZ.get("jp-a-1")
CITIES = (RIVERTOWN, LAKESIDE, HARBORVILLE, EDOTOWN)
NOWHERE = GeoPoint(0.0, -150.0)  # mid-ocean, far beyond every fallback radius


# -- threshold accuracy -----------------------------------------------------


def test_all_exact_predictions_hit_every_threshold():
    samples = [sample(i, c.centroid, c.name, "P") for i, c in enumerate(CITIES)]
    preds = [pred(s.id, s.truth_point, s.truth_city) for s in samples]
    acc = threshold_accuracy(preds, samples)
    assert acc == {t: 100.0 for t in DEFAULT_THRESHOLDS_KM}


def test_threshold_accuracy_matches_direct_counting():
    base = RIVERTOWN.centroid
    offsets = [0.0, 0.5, 0.9, 1.5, 20.0, 30.0, 150.0, 400.0, 900.0, 2600.0]
    samples = [sample(i, base, "Rivertown", "Aprov") for i in range(len(offsets))]
    preds = [pred(s.id, km_north(base, d), "Rivertown")
             for s, d in zip(samples, offsets)]
    acc = threshold_accuracy(preds, samples)
    for tau in DEFAULT_THRESHOLDS_KM:
        expected = sum(
            1 for p, s in zip(preds, samples)
            if haversine_km(p.point, s.truth_point) <= tau
        ) * 100.0 / len(samples)
        assert acc[tau] == expected
    # the hand-placed set straddles every threshold
    assert len(set(acc.values())) == len(DEFAULT_THRESHOLDS_KM)


def test_threshold_boundary_is_inclusive():
    base = RIVERTOWN.centroid
    target = km_north(base, 10.0)
    distance = haversine_km(target, base)
    samples = [sample(0, base, "Rivertown", "Aprov")]
    preds = [pred("s0", target, "Rivertown")]
    acc = threshold_accuracy(preds, samples, thresholds=[distance])
    assert acc[distance] == 100.0


def test_threshold_monotonicity_on_random_sets():
    rng = random.Random(77)
    base = RIVERTOWN.centroid
    samples = [sample(i, base, "Rivertown", "Aprov") for i in range(40)]
    preds = [pred(s.id, km_north(base, rng.uniform(0, 3000)), "Rivertown")
             for s in samples]
    acc = threshold_accuracy(preds, samples)
    values = [acc[t] for t in sorted(acc)]
    assert values == sorted(values)


def test_missing_prediction_counts_as_miss():
    samples = [sample(i, RIVERTOWN.centroid, "Rivertown", "Aprov") for i in range(4)]
    preds = [pred("s0", RIVERTOWN.centroid, "Rivertown")]
    acc = threshold_accuracy(preds, samples)
    assert acc[2500] == 25.0


def test_unmatched_prediction_rejected():
    samples = [sample(0, RIVERTOWN.centroid, "Rivertown", "Aprov")]
    with pytest.raises(UnmatchedPredictionError):
        threshold_accuracy([pred("ghost", RIVERTOWN.centroid, "X")], samples)


def test_prediction_without_sample_id_rejected():
    samples = [sample(0, RIVERTOWN.centroid, "Rivertown", "Aprov")]
    bad = Prediction(point=RIVERTOWN.centroid, city_name="Rivertown")
    with pytest.raises(UnmatchedPredictionError):
        threshold_accuracy([bad], samples)


def test_duplicate_predictions_rejected():
    samples = [sample(0, RIVERTOWN.centroid, "Rivertown", "Aprov")]
    p = pred("s0", RIVERTOWN.centroid, "Rivertown")
    with pytest.raises(UnmatchedPredictionError):
        threshold_accuracy([p, p], samples)


def test_empty_samples_rejected():
    with pytest.raises(EmptyDatasetError):
        threshold_accuracy([], [])


# -- city-name accuracy -----------------------------------------------------


def test_acc_city_exact_names():
    samples = [sample(i, c.centroid, c.name, "P") for i, c in enumerate(CITIES)]
    preds = [pred(s.id, s.truth_point, s.truth_city.upper()) for s in samples]
    assert acc_city(preds, samples) == 100.0


def test_acc_city_half_matching():
    samples = [sample(i, RIVERTOWN.centroid, "Rivertown", "Aprov") for i in range(4)]
    preds = [
        pred("s0", RIVERTOWN.centroid, "rivertown"),
        pred("s1", RIVERTOWN.centroid, " Rivertown  "),
        pred("s2", RIVERTOWN.centroid, "Lakeside"),
        pred("s3", RIVERTOWN.centroid, "Harborville"),
    ]
    assert acc_city(preds, samples) == 50.0


def test_acc_city_honors_alias_table():
    from geoprobe.geo import normalize_city_name
    aliases = {"Peking": "Beijing"}
    samples = [sample(0, RIVERTOWN.centroid, "Beijing", "Hebei")]
    preds = [pred("s0", RIVERTOWN.centroid, "Peking")]
    assert acc_city(preds, samples) == 0.0
    assert acc_city(preds, samples, aliases) == 100.0
    # oracle: the alias table is exactly what normalization applies
    assert normalize_city_name("Peking", aliases=aliases) == normalize_city_name(
        "Beijing", aliases=aliases)


# -- coordinate-derived city accuracy ---------------------------------------


def test_acc_loglat_at_city_centroids():
    samples = [sample(i, c.centroid, c.name, "P") for i, c in enumerate(CITIES)]
    preds = [pred(s.id, s.truth_point, "") for s in samples]
    assert acc_loglat(preds, samples, GAZ) == 100.0


def test_acc_loglat_point_beyond_fallback_is_miss():
    samples = [sample(0, RIVERTOWN.centroid, "Rivertown", "Aprov")]
    preds = [pred("s0", NOWHERE, "Rivertown")]
    assert acc_loglat(preds, samples, GAZ) == 0.0


def test_acc_loglat_matches_two_stage_oracle():
    from geoprobe.geo import normalize_city_name, reverse_geocode
    rng = random.Random(123)
    samples, preds = [], []
    for i in range(50):
        truth = CITIES[rng.randrange(len(CITIES))]
        samples.append(sample(i, truth.centroid, truth.name, "P"))
        point = km_north(truth.centroid, rng.uniform(0, 300))
        preds.append(pred(f"s{i}", point, truth.name))
    expected = 0
    for p, s in zip(preds, samples):
        city = reverse_geocode(GAZ, p.point)
        if city is not None and normalize_city_name(city.name) == normalize_city_name(
                s.truth_city):
            expected += 1
    assert acc_loglat(preds, samples, GAZ) == 100.0 * expected / 50


# -- location compliance ----------------------------------------------------


def test_compliance_at_own_centroid_is_full():
    preds = [pred(f"s{i}", c.centroid, c.name) for i, c in enumerate(CITIES)]
    assert location_compliance(preds, GAZ) == 100.0


def test_compliance_name_point_disagreement():
    preds = [pred("s0", HARBORVILLE.centroid, "Rivertown")]
    assert location_compliance(preds, GAZ) == 0.0


def test_compliance_unmappable_point_is_non_compliant():
    preds = [pred("s0", NOWHERE, "Rivertown")]
    assert location_compliance(preds, GAZ) == 0.0


def test_compliance_never_consults_truth():
    # a prediction can be compliant while being completely wrong
    preds = [pred("s0", HARBORVILLE.centroid, "Harborville")]
    assert location_compliance(preds, GAZ) == 100.0


def test_compliance_matches_hand_count_on_mixed_set():
    rng = random.Random(9)
    preds = []
    expected = 0
    for i in range(20):
        city = CITIES[rng.randrange(len(CITIES))]
        if i % 3 == 0:
            preds.append(pred(f"s{i}", city.centroid, "Nosuchville"))
        else:
            preds.append(pred(f"s{i}", city.centroid, city.name))
            expected += 1
    assert location_compliance(preds, GAZ) == 100.0 * expected / 20


def test_compliance_requires_predictions():
    with pytest.raises(EmptyPredictionsError):
        location_compliance([], GAZ)


def test_report_renders_slash_without_city_names():
    samples = [sample(i, c.centroid, c.name, "P") for i, c in enumerate(CITIES)]
    preds = [pred(s.id, s.truth_point, "") for s in samples]
    report = compute_report(preds, samples, GAZ)
    assert report.overall.location_compliance is None
    assert " & /" in render_text_table(report)
    assert report.to_json()["overall"]["location_compliance"] is None


# -- stratification ---------------------------------------------------------


def test_single_stratum_equals_global():
    samples = [
        sample(i, RIVERTOWN.centroid, "Rivertown", "Aprov",
               category=SceneCategory.RURAL, difficulty=Difficulty.MEDIUM)
        for i in range(5)
    ]
    preds = [pred(s.id, s.truth_point, "Rivertown") for s in samples]
    strata = stratify(preds, samples, GAZ)
    assert set(strata["scene_category"]) == {"Rural"}
    assert set(strata["difficulty"]) == {"Medium"}
    overall = compute_report(preds, samples, GAZ).overall
    assert strata["scene_category"]["Rural"] == overall
    assert strata["difficulty"]["Medium"] == overall


def test_disjoint_perfect_imperfect_strata():
    perfect = [
        sample(i, RIVERTOWN.centroid, "Rivertown", "Aprov",
               category=SceneCategory.URBAN) for i in range(2)
    ]
    imperfect = [
        sample(i + 2, HARBORVILLE.centroid, "Harborville", "Bprov",
               category=SceneCategory.RURAL) for i in range(2)
    ]
    preds = [pred(s.id, s.truth_point, "Rivertown") for s in perfect]
    preds += [
        pred(imperfect[0].id, imperfect[0].truth_point, "Harborville"),
        pred(imperfect[1].id, RIVERTOWN.centroid, "Rivertown"),
    ]
    strata = stratify(preds, samples := perfect + imperfect, GAZ)["scene_category"]
    assert strata["Urban"].acc_city == 100.0
    assert strata["Rural"].acc_city == 50.0
    assert strata["Urban"].n + strata["Rural"].n == len(samples)


def test_random_strata_match_filtered_recomputation():
    rng = random.Random(31)
    samples, preds = [], []
    for i in range(24):
        city = CITIES[rng.randrange(len(CITIES))]
        category = list(SceneCategory)[rng.randrange(4)]
        difficulty = list(Difficulty)[rng.randrange(3)]
        samples.append(sample(i, city.centroid, city.name, "P",
                              category=category, difficulty=difficulty))
        guess = CITIES[rng.randrange(len(CITIES))]
        preds.append(pred(f"s{i}", guess.centroid, guess.name))
    strata = stratify(preds, samples, GAZ)
    for axis, key in (
        ("scene_category", lambda s: s.scene_category.value),
        ("difficulty", lambda s: s.difficulty.value),
    ):
        assert sum(b.n for b in strata[axis].values()) == len(samples)
        for name, block in strata[axis].items():
            members = [s for s in samples if key(s) == name]
            member_ids = {s.id for s in members}
            member_preds = [p for p in preds if p.sample_id in member_ids]
            again = compute_report(member_preds, members, GAZ).overall
            assert block == again


# -- report invariants ------------------------------------------------------


def test_report_permutation_invariance():
    rng = random.Random(4)
    samples = [sample(i, c.centroid, c.name, "P")
               for i, c in enumerate(CITIES * 3)]
    preds = [pred(s.id, km_north(s.truth_point, rng.uniform(0, 100)),
                  s.truth_city) for s in samples]
    base = compute_report(preds, samples, GAZ).to_json()
    for _ in range(5):
        rng.shuffle(preds)
        assert compute_report(preds, samples, GAZ).to_json() == base


#: Predicted points: city centroids, a district inside Rivertown, a point in
#: Lakeside's fallback ring, and two points that geocode to nothing.
POINT_POOL = (
    *(c.centroid for c in CITIES),
    GAZ.get("cn-a-1-x").centroid,
    km_north(LAKESIDE.centroid, 70.0),
    NOWHERE,
    GeoPoint(-45.0, 20.0),
)
NAME_POOL = ("", "Rivertown", "rivertown city", "Lakeside", "Edo", "Edotown", "Nowhere")


def _reference_block(preds, samples, thresholds, aliases):
    """One report block from the public metric functions alone."""
    ids = {s.id for s in samples}
    present = [p for p in preds if p.sample_id in ids]
    if present and all(p.city_name == "" for p in present):
        compliance = None
    elif present:
        compliance = round2(location_compliance(present, GAZ, aliases))
    else:
        compliance = 0.0
    return {
        "n": len(samples),
        "threshold_acc": {
            str(t): round2(v)
            for t, v in sorted(threshold_accuracy(present, samples, thresholds).items())
        },
        "acc_city": round2(acc_city(present, samples, aliases)),
        "acc_loglat": round2(acc_loglat(present, samples, GAZ, aliases)),
        "location_compliance": compliance,
    }


@st.composite
def scored_sets(draw):
    n = draw(st.integers(1, 12))
    samples, preds = [], []
    for i in range(n):
        truth = draw(st.sampled_from(CITIES))
        samples.append(sample(
            i, truth.centroid, truth.name, "P",
            category=draw(st.sampled_from(list(SceneCategory))),
            difficulty=draw(st.sampled_from(list(Difficulty)))))
        if draw(st.booleans()) or i == 0:
            preds.append(pred(f"s{i}", draw(st.sampled_from(POINT_POOL)),
                              draw(st.sampled_from(NAME_POOL))))
    if draw(st.booleans()):  # a method that emits no city names at all
        preds = [replace(p, city_name="") for p in preds]
    return samples, preds


#: Some of the default thresholds, duplicates allowed, plus one drawn distance.
THRESHOLD_LISTS = st.builds(
    lambda some, extra: [*some, extra],
    st.lists(st.sampled_from(DEFAULT_THRESHOLDS_KM), min_size=1), st.integers(0, 10_000))


@given(scored_sets(), THRESHOLD_LISTS, st.sampled_from([None, {"Edo": "Edotown"}]))
def test_compute_report_equals_block_by_block_reference(scored, thresholds, aliases):
    samples, preds = scored
    reference = {
        "label": "full",
        "n": len(samples),
        "overall": _reference_block(preds, samples, thresholds, aliases),
        "strata": {
            axis: {
                name: _reference_block(
                    preds, [s for s in samples if key(s) == name], thresholds, aliases)
                for name in sorted({key(s) for s in samples})
            }
            for axis, key in (
                ("scene_category", lambda s: s.scene_category.value),
                ("difficulty", lambda s: s.difficulty.value),
            )
        },
    }
    report = compute_report(preds, samples, GAZ, thresholds=thresholds, aliases=aliases)
    assert report.to_json() == reference


def test_compute_report_pairs_predictions_with_samples_once(monkeypatch):
    """One report pairs once, however many blocks and strata it builds."""
    calls = []
    pair = bench._pair

    def counting_pair(preds, samples):
        calls.append(len(samples))
        return pair(preds, samples)

    monkeypatch.setattr(bench, "_pair", counting_pair)
    samples = [sample(i, c.centroid, c.name, "P", category=list(SceneCategory)[i % 4],
                      difficulty=list(Difficulty)[i % 3]) for i, c in enumerate(CITIES * 3)]
    preds = [pred(s.id, s.truth_point, s.truth_city) for s in samples[1:]]
    report = compute_report(preds, samples, GAZ)
    assert calls == [len(samples)]
    assert len(report.strata["scene_category"]) == 4
    assert len(report.strata["difficulty"]) == 3


def test_round2_is_half_up():
    assert round2(52.335) == 52.34
    assert round2(52.334) == 52.33
    assert round2(0.005) == 0.01
    assert round2(100.0) == 100.0


def test_rounding_happens_at_render_time_only():
    samples = [sample(i, RIVERTOWN.centroid, "Rivertown", "Aprov") for i in range(3)]
    preds = [pred("s0", RIVERTOWN.centroid, "Rivertown")]
    report = compute_report(preds, samples, GAZ)
    assert report.overall.acc_city == pytest.approx(100.0 / 3)  # raw value kept
    assert report.to_json()["overall"]["acc_city"] == 33.33


def test_renderer_reproduces_reference_rows():
    block = MetricBlock(
        n=300,
        threshold_acc={1: 52.33, 25: 82.00, 200: 100.00, 750: 100.00, 2500: 100.00},
        acc_city=84.67, acc_loglat=100.00, location_compliance=100.00)
    text = render_text_table(MetricsReport(label="Ours", overall=block, strata={}))
    assert "52.33 & 82.00 & 100.00 & 100.00 & 100.00" in text
    assert "84.67 & 100.00 & 100.00" in text
    assert "Method & 1km & 25km & 200km & 750km & 2500km" in text
    assert "Method & ACC City & ACC Loglat & Location Compliance" in text


def test_renderer_is_pure_function_of_report():
    samples = [sample(i, c.centroid, c.name, "P") for i, c in enumerate(CITIES)]
    preds = [pred(s.id, s.truth_point, s.truth_city) for s in samples]
    report = compute_report(preds, samples, GAZ)
    assert render_text_table(report) == render_text_table(report)


# -- dataset files ----------------------------------------------------------


@pytest.fixture(scope="module")
def world():
    return generate_world(2026, 3, 5)


def test_dataset_roundtrip(tmp_path, world):
    samples = make_benchmark(world, 12, seed=3)
    path = tmp_path / f"synthetic{DATASET_SUFFIX}"
    save_dataset(path, samples)
    assert load_dataset(path) == samples


def test_valid_three_line_file(tmp_path):
    path = tmp_path / f"three{DATASET_SUFFIX}"
    rows = [
        sample(i, RIVERTOWN.centroid, "Rivertown", "Aprov").to_json()
        for i in range(3)
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n\n")
    assert len(load_dataset(path)) == 3


def test_bad_difficulty_names_line_and_field(tmp_path):
    path = tmp_path / f"bad{DATASET_SUFFIX}"
    good = sample(0, RIVERTOWN.centroid, "Rivertown", "Aprov").to_json()
    bad = dict(good, id="s1", difficulty="Impossible")
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(DatasetError) as err:
        load_dataset(path)
    assert err.value.line == 2
    assert err.value.field == "difficulty"


def test_bad_json_names_line(tmp_path):
    path = tmp_path / f"badjson{DATASET_SUFFIX}"
    good = sample(0, RIVERTOWN.centroid, "Rivertown", "Aprov").to_json()
    path.write_text(json.dumps(good) + "\n{not json\n")
    with pytest.raises(DatasetError) as err:
        load_dataset(path)
    assert err.value.line == 2


@pytest.mark.parametrize("mutate, field_name", [
    (lambda o: o.pop("truth_city"), "truth_city"),
    (lambda o: o.update(scene_category="Submarine"), "scene_category"),
    (lambda o: o.update(truth={"lat": 95.0, "lon": 0.0}), "truth"),
    (lambda o: o.update(clue_tags="oops"), "clue_tags"),
    (lambda o: o.update(descriptor={"clues": []}), "image"),
    (lambda o: o.update(imgae="img/0.jpg"), "imgae"),
])
def test_field_validation(tmp_path, mutate, field_name):
    obj = sample(0, RIVERTOWN.centroid, "Rivertown", "Aprov").to_json()
    mutate(obj)
    path = tmp_path / f"field{DATASET_SUFFIX}"
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(DatasetError) as err:
        load_dataset(path)
    assert err.value.line == 1
    assert err.value.field == field_name


def test_media_must_be_present(tmp_path):
    obj = sample(0, RIVERTOWN.centroid, "Rivertown", "Aprov").to_json()
    del obj["image"]
    path = tmp_path / f"media{DATASET_SUFFIX}"
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(DatasetError):
        load_dataset(path)


def test_duplicate_ids_rejected(tmp_path):
    obj = sample(0, RIVERTOWN.centroid, "Rivertown", "Aprov").to_json()
    path = tmp_path / f"dup{DATASET_SUFFIX}"
    path.write_text(json.dumps(obj) + "\n" + json.dumps(obj) + "\n")
    with pytest.raises(DatasetError) as err:
        load_dataset(path)
    assert err.value.line == 2
    assert err.value.field == "id"


def test_empty_dataset_rejected(tmp_path):
    path = tmp_path / f"empty{DATASET_SUFFIX}"
    path.write_text("\n")
    with pytest.raises(EmptyDatasetError):
        load_dataset(path)


def test_wrong_suffix_rejected(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text("{}\n")
    with pytest.raises(DatasetError):
        load_dataset(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(DatasetError):
        load_dataset(tmp_path / f"ghost{DATASET_SUFFIX}")


def test_sample_requires_exactly_one_media():
    with pytest.raises(ValueError):
        BenchmarkSample(
            id="s0", truth_point=RIVERTOWN.centroid, truth_city="X",
            truth_province="Y", scene_category=SceneCategory.URBAN,
            difficulty=Difficulty.EASY)


# -- synthetic benchmark generation -----------------------------------------


def test_default_mix_counts_for_60():
    counts = difficulty_counts(60, DEFAULT_MIX)
    assert counts == {Difficulty.EASY: 13, Difficulty.MEDIUM: 34,
                      Difficulty.HARD: 13}
    assert counts[Difficulty.MEDIUM] / 60 == pytest.approx(0.5667, abs=1e-4)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 30, 59, 100])
def test_mix_counts_sum_to_n(n):
    counts = difficulty_counts(n, DEFAULT_MIX)
    assert sum(counts.values()) == n
    assert all(v >= 0 for v in counts.values())


def test_mix_must_sum_to_one():
    with pytest.raises(ConfigError):
        difficulty_counts(10, {Difficulty.EASY: 0.5, Difficulty.MEDIUM: 0.4})


def test_mix_rejects_negative_entries():
    with pytest.raises(ConfigError):
        difficulty_counts(10, {Difficulty.EASY: 1.5, Difficulty.MEDIUM: -0.5})


def test_mix_rejects_nan_entries():
    """A NaN entry makes no sum check fail (every comparison with NaN is False)."""
    with pytest.raises(ConfigError, match="must be >= 0"):
        difficulty_counts(10, {Difficulty.EASY: math.nan, Difficulty.MEDIUM: 0.5,
                               Difficulty.HARD: 0.5})


def test_make_benchmark_deterministic(world):
    a = make_benchmark(world, 20, seed=8)
    b = make_benchmark(world, 20, seed=8)
    assert [s.to_json() for s in a] == [s.to_json() for s in b]
    c = make_benchmark(world, 20, seed=9)
    assert [s.to_json() for s in a] != [s.to_json() for s in c]


def test_make_benchmark_truth_fields_consistent(world):
    g = world.gazetteer
    for s in make_benchmark(world, 15, seed=2):
        assert s.descriptor is not None
        city = g.get(s.descriptor.truth.city_id)
        assert s.truth_city == city.name
        assert s.truth_province == g.get(city.parent_id).name
        assert s.truth_point == s.descriptor.truth.point
        assert s.difficulty == s.descriptor.difficulty
        assert s.clue_tags == tuple(c.value for c in s.descriptor.clues)


def test_classify_scene_rules():
    from geoprobe.synthworld import Poi, Truth
    truth = Truth(point=RIVERTOWN.centroid, city_id="cn-a-1")

    def desc(*clues):
        from geoprobe.synthworld import SceneDescriptor
        return SceneDescriptor(clues=clues, truth=truth, difficulty=Difficulty.EASY)

    sign = Clue(ClueKind.SIGN_TEXT, "Rivertown bakery", 0.9)
    veg = Clue(ClueKind.VEGETATION, "bamboo-groves", 0.4)
    arch = Clue(ClueKind.ARCHITECTURE, "brick-terraces", 0.6)
    vehicle = Clue(ClueKind.VEHICLE, "tram-cars", 0.3)
    terrain = Clue(ClueKind.TERRAIN, "karst-hills", 0.4)
    assert classify_scene(desc(sign, veg)) is SceneCategory.CLOSE_UP
    assert classify_scene(desc(arch, veg)) is SceneCategory.URBAN
    assert classify_scene(desc(vehicle)) is SceneCategory.URBAN
    assert classify_scene(desc(veg)) is SceneCategory.AERIAL_DISTANT
    assert classify_scene(desc(veg, terrain)) is SceneCategory.RURAL


# -- benchmark runs ---------------------------------------------------------


@pytest.fixture(scope="module")
def bench_samples(world):
    return make_benchmark(world, 20, seed=5)


def test_run_benchmark_produces_aligned_entries(world, bench_samples):
    run = run_benchmark(bench_samples, scripted_salience_policy(), world)
    assert [e.sample_id for e in run.entries] == [s.id for s in bench_samples]
    assert all(e.status is EpisodeStatus.FINALIZED for e in run.entries)
    assert run.report.overall.n == len(bench_samples)
    assert run.report.label == "full"


def test_run_benchmark_identical_across_worker_counts(world, bench_samples):
    backend = scripted_salience_policy()
    serial = run_benchmark(bench_samples, backend, world, workers=1)
    parallel = run_benchmark(bench_samples, backend, world, workers=5)
    assert canonical_json(serial.report.to_json()) == canonical_json(
        parallel.report.to_json())
    assert [e.to_json() for e in serial.entries] == [
        e.to_json() for e in parallel.entries]


def test_run_benchmark_repeat_runs_byte_identical(world, bench_samples):
    backend = scripted_salience_policy()
    a = run_benchmark(bench_samples, backend, world, workers=3)
    b = run_benchmark(bench_samples, backend, world, workers=3)
    assert canonical_json(a.report.to_json()) == canonical_json(b.report.to_json())


def test_run_benchmark_hashes_and_tags_the_world_once(monkeypatch, tmp_path):
    """Per-world work is done once per world, not once per episode."""
    counts = {"hash": 0, "tags": 0}
    hash_regions = geo.canonical_hash
    build_tags = synthworld._build_tag_table

    def counting_hash(obj):
        counts["hash"] += 1
        return hash_regions(obj)

    def counting_tags(attributes):
        counts["tags"] += 1
        return build_tags(attributes)

    monkeypatch.setattr(geo, "canonical_hash", counting_hash)
    monkeypatch.setattr(synthworld, "_build_tag_table", counting_tags)
    big = generate_world(11, 20, 40)
    run = run_benchmark(make_benchmark(big, 20, seed=5), scripted_salience_policy(), big,
                        trace_dir=tmp_path)
    assert all(e.status is EpisodeStatus.FINALIZED for e in run.entries)
    assert len(list(tmp_path.glob("*.trace.jsonl"))) == 20
    assert counts == {"hash": 1, "tags": 1}


def test_run_benchmark_geocodes_each_predicted_point_once(monkeypatch):
    """Scoring reverse-geocodes each distinct predicted point once per report,
    however many blocks and strata read it."""
    looked_up = []
    lookup = bench.reverse_geocode

    def counting_lookup(g, p, *args, **kwargs):
        looked_up.append(p)
        return lookup(g, p, *args, **kwargs)

    monkeypatch.setattr(bench, "reverse_geocode", counting_lookup)
    big = generate_world(11, 20, 40)
    run = run_benchmark(make_benchmark(big, 20, seed=5), scripted_salience_policy(), big)
    points = {p.point for p in run.predictions}
    assert len(run.predictions) == 20
    assert len(looked_up) == len(set(looked_up)) == len(points)


def test_report_measures_each_prediction_distance_once(monkeypatch, world, bench_samples):
    """Scoring computes each present prediction's distance to its truth once
    per report, however many thresholds, blocks and strata read it, and
    gets what measuring once per threshold gives."""
    preds = [Prediction(replace(s.truth_point, lat=s.truth_point.lat + 0.05 * i),
                        s.truth_city, sample_id=s.id)
             for i, s in enumerate(bench_samples) if i % 3]
    truth = {s.id: s.truth_point for s in bench_samples}
    per_threshold = {
        tau: 100.0 * sum(haversine_km(p.point, truth[p.sample_id]) <= tau for p in preds)
        / len(bench_samples) for tau in sorted(DEFAULT_THRESHOLDS_KM)}
    measured = []
    distance = bench.haversine_km

    def counting_distance(a, b):
        measured.append(a)
        return distance(a, b)

    monkeypatch.setattr(bench, "haversine_km", counting_distance)
    report = compute_report(preds, bench_samples, world.gazetteer)
    assert len(measured) == len(preds) < len(bench_samples)
    assert report.overall.threshold_acc == per_threshold
    assert len(set(per_threshold.values())) > 1


def test_report_normalizes_each_row_name_once(monkeypatch):
    """Scoring normalizes each predicted row's three city names (predicted,
    truth, geocoded) once per report, however many blocks read them, and
    the alias table once per report."""
    big = generate_world(11, 20, 40)
    samples = make_benchmark(big, 240, seed=3)
    preds = [Prediction(s.truth_point, s.truth_city if i % 3 else s.truth_province,
                        sample_id=s.id) for i, s in enumerate(samples)]
    aliases = {samples[0].truth_province: samples[0].truth_city, "Peking": "Beijing"}
    expected = [compute_report(preds, samples, big.gazetteer, aliases=table).to_json()
                for table in (None, aliases)]
    names = []
    normalize = bench.normalize_city_name

    def counting(raw, *args, **kwargs):
        names.append(raw)
        return normalize(raw, *args, **kwargs)

    monkeypatch.setattr(bench, "normalize_city_name", counting)
    report = compute_report(preds, samples, big.gazetteer)
    assert report.to_json() == expected[0]
    assert len(names) == 3 * len(preds) == 720  # 18 per row when each block normalized
    names.clear()
    report = compute_report(preds, samples, big.gazetteer, aliases=aliases)
    assert report.to_json() == expected[1] != expected[0]
    assert len(names) == 3 * len(preds) + 2 * len(aliases)


def test_pass_closes_each_constraint_once(monkeypatch):
    """On a fresh 20×40 world, the first 240-sample pass at seed 3 builds
    each distinct evidence constraint's closure once, instead of walking
    ancestor chains at every projection (77,745 ``Gazetteer.ancestors``
    calls then), and its POI hints build the frontier's leaf cover only for
    an evidence point that geocodes to a city (6,689 ``Gazetteer.leaf_cover``
    calls when built at every step). Projections and the report (its
    pinned digest) are unchanged."""
    calls = dict.fromkeys(("ancestors", "leaf_cover", "project", "closure"), 0)
    constraints = set()

    def counting(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    def noting(space, e, g):
        constraints.add(e.constraint)
        return project(space, e, g)

    for name in ("ancestors", "leaf_cover"):
        monkeypatch.setattr(geo.Gazetteer, name, counting(name, getattr(geo.Gazetteer, name)))
    project = state.project
    monkeypatch.setattr(state, "project", counting("project", noting))
    monkeypatch.setattr(geo, "Closure", counting("closure", geo.Closure))
    big = generate_world(11, 20, 40)
    run = run_benchmark(make_benchmark(big, 240, seed=3), scripted_salience_policy(), big)
    assert sha256_hex(canonical_json(run.report.to_json()) + "\n") == (
        "f1245d6d7518b6e32d62644effc3d2dc7ef82b254d1be6178614f2e11a8137df")
    assert calls["project"] == 3428
    assert calls["closure"] == len(constraints) == 361
    assert calls["ancestors"] <= 2000
    assert calls["leaf_cover"] <= 100


def test_untraced_run_and_replay_compose_no_trace_line(monkeypatch, tmp_path):
    """Execution and Projection lines, and the tool results' lines in them,
    are composed only for a recorder that writes them: a run without a
    trace dir and a replay compose none, and reach the same outcomes and
    state hashes as a traced run."""
    small = generate_world(11, 3, 5)
    samples = make_benchmark(small, 10, seed=3)
    composed = {"engine": 0, "executor": 0}

    def counting(name, compose):
        def spy(obj):
            composed[name] += 1
            return compose(obj)
        return spy

    for name, module in (("engine", engine), ("executor", executor)):
        monkeypatch.setattr(module, "canonical_compose",
                            counting(name, module.canonical_compose))
    untraced = run_benchmark(samples, scripted_salience_policy(), small)
    assert composed == {"engine": 0, "executor": 0}
    traced = run_benchmark(samples, scripted_salience_policy(), small, trace_dir=tmp_path)
    assert composed["engine"] > 0 and composed["executor"] > 0
    assert untraced.report == traced.report
    assert [p.point for p in untraced.predictions] == [p.point for p in traced.predictions]
    composed.update(engine=0, executor=0)
    for entry in traced.entries:
        trace = load_trace(entry.trace_path)
        assert replay(trace, small.gazetteer, small.tag_table()).events_verified \
            == len(trace.events)
    assert composed == {"engine": 0, "executor": 0}


def test_run_benchmark_writes_replayable_traces(tmp_path, world, bench_samples):
    run = run_benchmark(bench_samples[:4], scripted_salience_policy(), world,
                        trace_dir=tmp_path / "traces")
    for entry in run.entries:
        assert entry.trace_path is not None
        assert entry.prediction.trace_ref == entry.trace_path
        trace = load_trace(entry.trace_path)
        report = replay(trace, world.gazetteer, world.tag_table())
        assert report.events_verified == len(trace.events)


def test_rerun_into_one_trace_dir_rewrites_equal_traces(tmp_path, world, bench_samples):
    trace_dir = tmp_path / "traces"

    def traces_without_wall_time():
        return {p.name: re.sub(r'"wall_time":[^,}]+', '"wall_time":0',
                               p.read_text(encoding="utf-8"))
                for p in trace_dir.glob("*.trace.jsonl")}

    backend = scripted_salience_policy()
    run_benchmark(bench_samples, backend, world, trace_dir=trace_dir)
    first = traces_without_wall_time()
    run = run_benchmark(bench_samples, backend, world, trace_dir=trace_dir)
    assert len(first) == len(bench_samples)
    assert traces_without_wall_time() == first
    for entry in run.entries:
        trace = load_trace(entry.trace_path)
        report = replay(trace, world.gazetteer, world.tag_table())
        assert report.events_verified == len(trace.events)


class _ExplodingBackend:
    """Raises on one specific scene; delegates everywhere else."""

    def __init__(self, victim_ref):
        self.victim_ref = victim_ref
        self.inner = scripted_salience_policy()

    def decide(self, ctx):
        if ctx.image_ref == self.victim_ref:
            raise RuntimeError("planner blew up")
        return self.inner.decide(ctx)


def test_one_sample_failure_never_aborts_the_run(world, bench_samples):
    victim = bench_samples[3].id
    backend = _ExplodingBackend(f"scene/{victim}")
    run = run_benchmark(bench_samples, backend, world)
    by_id = {e.sample_id: e for e in run.entries}
    assert by_id[victim].status is EpisodeStatus.EXHAUSTED
    assert "RuntimeError" in by_id[victim].error
    others = [e for e in run.entries if e.sample_id != victim]
    assert all(e.status is EpisodeStatus.FINALIZED for e in others)
    assert run.report.overall.n == len(bench_samples)


class _SelfReferencingTool:
    """Delegates to ``inner``, except that an action on ``victim_ref``
    succeeds with a payload that contains itself."""

    def __init__(self, inner, victim_ref):
        self.tool, self.inner, self.victim_ref = inner.tool, inner, victim_ref

    def execute(self, action):
        if action.args.get("image") != self.victim_ref:
            return self.inner.execute(action)
        payload = {"caption": "a loop"}
        payload["self"] = payload
        return ToolResult.succeed(action, payload)


def test_self_referencing_payload_exhausts_only_its_episode(tmp_path, world, bench_samples):
    """The encoder keeps no circular-reference table: a payload holding
    itself raises ``RecursionError`` when its Execution event is encoded,
    which ends that episode Exhausted, and the run goes on."""
    victim = bench_samples[3]
    adapters = {tool: _SelfReferencingTool(adapter, victim.image_ref) for tool, adapter in
                SyntheticToolbox(world, sample_scenes(bench_samples)).adapters().items()}
    run = run_benchmark(bench_samples, scripted_salience_policy(), world, adapters=adapters,
                        trace_dir=tmp_path)
    by_id = {e.sample_id: e for e in run.entries}
    assert by_id[victim.id].status is EpisodeStatus.EXHAUSTED
    assert by_id[victim.id].error.startswith("RecursionError: ")
    assert all(e.status is EpisodeStatus.FINALIZED for e in run.entries if e is not by_id[victim.id])
    [decision] = load_trace(by_id[victim.id].trace_path).events
    assert decision.kind is EventKind.DECISION


def test_image_only_sample_becomes_exhausted_entry(tmp_path, world, bench_samples):
    """An image sample runs over the world's toolbox, which holds no scene
    for its image: every tool call answers UnknownImage."""
    mixed = list(bench_samples[:3])
    mixed.append(sample(99, RIVERTOWN.centroid, "Rivertown", "Aprov"))
    run = run_benchmark(mixed, scripted_salience_policy(), world, trace_dir=tmp_path)
    assert run.entries[-1].status is EpisodeStatus.EXHAUSTED
    results = [r for e in load_trace(run.entries[-1].trace_path).events
               if e.kind is EventKind.EXECUTION for r in e.payload["results"]]
    assert results
    assert {(r["status"], r["error"]) for r in results} == {("ToolError", "UnknownImage")}


def test_run_benchmark_rejects_empty_set(world):
    with pytest.raises(EmptyDatasetError):
        run_benchmark([], scripted_salience_policy(), world)


@pytest.mark.parametrize("tools", ["none", "gazetteer only", "adapters only"])
def test_run_benchmark_without_tools_raises(world, bench_samples, tools):
    given = {"none": {}, "gazetteer only": {"g": world.gazetteer},
             "adapters only": {"adapters": {}}}[tools]
    with pytest.raises(ConfigError):
        run_benchmark(bench_samples, scripted_salience_policy(), **given)


def test_ablation_label_lands_in_report(world, bench_samples):
    from geoprobe.actions import Tool
    from geoprobe.executor import ALL_TOOLS, AblationConfig, EpisodeSettings
    ablation = AblationConfig(frozenset(ALL_TOOLS - {Tool.IMAGE_SEARCH}))
    run = run_benchmark(bench_samples[:5], scripted_salience_policy(), world,
                        settings=EpisodeSettings(ablation=ablation))
    assert run.report.label == "w/o image search"
    assert "w/o image search" in render_text_table(run.report)
    assert run.report.to_json()["label"] == "w/o image search"


def test_descriptor_benchmark_over_explicit_adapters_matches_in_process(
        world, bench_samples):
    from geoprobe.live_tools import live_adapters
    from geoprobe.stub_server import StubToolServer

    backend = scripted_salience_policy()
    in_process = run_benchmark(bench_samples, backend, world)
    with StubToolServer(world) as server:
        for s in bench_samples:
            server.register(f"scene/{s.id}", s.descriptor)
        over_http = run_benchmark(
            bench_samples, backend, world,
            adapters=live_adapters(server.endpoints()))
        assert server.total_requests() > 0
    assert canonical_json(over_http.report.to_json()) == canonical_json(
        in_process.report.to_json())
    assert [
        (e.sample_id, e.status, e.prediction and e.prediction.city_name)
        for e in over_http.entries
    ] == [
        (e.sample_id, e.status, e.prediction and e.prediction.city_name)
        for e in in_process.entries
    ]


# -- golden report ----------------------------------------------------------

GOLDEN_JSON = Path(__file__).parent / "data" / "report.json"
GOLDEN_TEXT = Path(__file__).parent / "data" / "report.txt"


def golden_run():
    world = generate_world(2026, 3, 5)
    samples = make_benchmark(world, 30, seed=5)
    return run_benchmark(samples, scripted_salience_policy(), world)


def test_report_json_matches_golden():
    run = golden_run()
    assert canonical_json(run.report.to_json()) == GOLDEN_JSON.read_text()


def test_pickled_policy_reproduces_the_golden_report():
    world = generate_world(2026, 3, 5)
    policy = pickle.loads(pickle.dumps(scripted_salience_policy()))
    run = run_benchmark(make_benchmark(world, 30, seed=5), policy, world)
    assert canonical_json(run.report.to_json()) == GOLDEN_JSON.read_text()


def test_report_text_matches_golden():
    run = golden_run()
    assert render_text_table(run.report) == GOLDEN_TEXT.read_text()


def test_image_benchmark_over_stub_adapters_records_and_replays(
        tmp_path, world, bench_samples):
    from geoprobe.live_tools import live_adapters
    from geoprobe.stub_server import StubToolServer

    samples = [replace(s, image=f"photos/{s.id}.jpg", descriptor=None)
               for s in bench_samples[:6]]
    with StubToolServer(world) as server:
        for s, original in zip(samples, bench_samples):
            server.register(s.image, original.descriptor)
        run = run_benchmark(
            samples, scripted_salience_policy(),
            g=world.gazetteer, tag_table=world.tag_table(),
            adapters=live_adapters(server.endpoints(backoff_s=0.001)),
            trace_dir=tmp_path / "traces", config_hash="cfg-images")
    assert [e.sample_id for e in run.entries] == [s.id for s in samples]
    for s, entry in zip(samples, run.entries):
        assert entry.status is EpisodeStatus.FINALIZED
        trace = load_trace(entry.trace_path)
        assert trace.header.config_hash == "cfg-images"
        assert trace.header.meta == {
            "image_ref": s.image, "label": "full", "sample_id": s.id}
        report = replay(trace, world.gazetteer, world.tag_table())
        assert report.events_verified == len(trace.events)
        assert report.prediction.city_name == entry.prediction.city_name
