"""Benchmark datasets, the localization metric suite, and report rendering.

Datasets are JSONL files (``*.bench.jsonl``) whose samples carry either a
real image path or an embedded synthetic scene descriptor, so generated
and photographed benchmarks share one format. Metrics are pure functions
of (predictions, samples); rounding to two decimals happens only when a
report is rendered, half-up, so stored values stay exact.

Missing predictions count as misses for every truth-based metric. Location
compliance is different: it never consults the truth and is computed over
the predictions that exist; methods that emit no city names at all get a
"/" placeholder instead of a number.
"""

from __future__ import annotations

import enum
import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .canonical import NonFiniteNumberError, decode_text, json_get, json_strs, parse_json
from .errors import (
    ConfigError,
    DatasetError,
    EmptyDatasetError,
    EmptyPredictionsError,
    UnmatchedPredictionError,
)
from .executor import EpisodeSettings
from .geo import (
    AdminRegion,
    Gazetteer,
    GeoPoint,
    haversine_km,
    normalize_city_name,
    resolve_city_alias,
    reverse_geocode,
)
from .state import EpisodeStatus, Prediction
from .synthworld import (ClueKind, Difficulty, SceneDescriptor, SynthWorld, SyntheticToolbox,
                         sample_episode)

DEFAULT_THRESHOLDS_KM: tuple[int, ...] = (1, 25, 200, 750, 2500)

DATASET_SUFFIX = ".bench.jsonl"

#: Default difficulty mix for generated benchmarks: medium-heavy, with the
#: medium share at 34/60 = 56.67% of samples.
DEFAULT_MIX: dict[Difficulty, float] = {
    Difficulty.EASY: 13 / 60,
    Difficulty.MEDIUM: 34 / 60,
    Difficulty.HARD: 13 / 60,
}


class SceneCategory(enum.Enum):
    RURAL = "Rural"
    URBAN = "Urban"
    AERIAL_DISTANT = "AerialDistant"
    CLOSE_UP = "CloseUp"


def classify_scene(desc: SceneDescriptor) -> SceneCategory:
    """Deterministic category for a synthetic scene from its clue profile.

    Readable signage or a named POI implies close range; built-environment
    clues imply an urban viewpoint; a single coarse clue reads as a distant
    aerial view; remaining macro-only scenes count as rural.
    """
    kinds = {c.kind for c in desc.clues}
    if ClueKind.SIGN_TEXT in kinds or ClueKind.POI in kinds:
        return SceneCategory.CLOSE_UP
    if ClueKind.ARCHITECTURE in kinds or ClueKind.VEHICLE in kinds:
        return SceneCategory.URBAN
    if len(desc.clues) <= 1:
        return SceneCategory.AERIAL_DISTANT
    return SceneCategory.RURAL


# -- samples and dataset files ----------------------------------------------


@dataclass(frozen=True)
class BenchmarkSample:
    """One benchmark item: media plus ground truth and annotations."""

    id: str
    truth_point: GeoPoint
    truth_city: str
    truth_province: str
    scene_category: SceneCategory
    difficulty: Difficulty
    image: str | None = None
    descriptor: SceneDescriptor | None = None
    clue_tags: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.id:
            raise ValueError("sample id must be non-empty")
        if (self.image is None) == (self.descriptor is None):
            raise ValueError("exactly one of image / descriptor must be present")

    @property
    def image_ref(self) -> str:
        """What the tools are asked about: the image, or ``scene/<id>``."""
        return self.image if self.image is not None else f"scene/{self.id}"

    def to_json(self) -> dict:
        out = {
            "id": self.id,
            "truth": self.truth_point.to_json(),
            "truth_city": self.truth_city,
            "truth_province": self.truth_province,
            "scene_category": self.scene_category.value,
            "difficulty": self.difficulty.value,
            "clue_tags": list(self.clue_tags),
        }
        if self.image is not None:
            out["image"] = self.image
        else:
            assert self.descriptor is not None
            out["descriptor"] = self.descriptor.to_json()
        return out


_REQUIRED_FIELDS = ("id", "truth", "truth_city", "truth_province",
                    "scene_category", "difficulty")

#: How each key of a dataset line is read, in ``BenchmarkSample``'s field order.
_FIELDS: tuple[tuple[str, Callable[[dict, str], object]], ...] = (
    ("id", lambda o, k: json_get(o, k, str)),
    ("truth", lambda o, k: GeoPoint.from_json(json_get(o, k, dict))),
    ("truth_city", lambda o, k: json_get(o, k, str)),
    ("truth_province", lambda o, k: json_get(o, k, str)),
    ("scene_category", lambda o, k: SceneCategory(json_get(o, k, str))),
    ("difficulty", lambda o, k: Difficulty(json_get(o, k, str))),
    ("image", lambda o, k: json_get(o, k, str, None)),
    ("descriptor", lambda o, k: (SceneDescriptor.from_json(json_get(o, k, dict))
                                 if k in o else None)),
    ("clue_tags", lambda o, k: json_strs(o, k, ())),
)


def _sample_from_line(line_no: int, obj) -> BenchmarkSample:
    if not isinstance(obj, dict):
        raise DatasetError(line_no, "sample must be a JSON object")
    unknown = sorted(set(obj) - {key for key, _ in _FIELDS})
    if unknown:
        raise DatasetError(line_no, "unknown field", field=unknown[0])
    for name in _REQUIRED_FIELDS:
        if name not in obj:
            raise DatasetError(line_no, "missing required field", field=name)
    if ("image" in obj) == ("descriptor" in obj):
        raise DatasetError(
            line_no, "exactly one of image / descriptor must be present",
            field="image")
    values = []
    for key, read in _FIELDS:
        try:
            values.append(read(obj, key))
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(line_no, f"bad {key}: {exc}", field=key) from None
    try:
        return BenchmarkSample(*values)
    except ValueError as exc:
        raise DatasetError(line_no, str(exc))


def load_dataset(path) -> list[BenchmarkSample]:
    """Parse a ``*.bench.jsonl`` file; every error names its 1-based line."""
    import io
    import json

    path = Path(path)
    if not path.name.endswith(DATASET_SUFFIX):
        raise DatasetError(0, f"dataset file must end with {DATASET_SUFFIX!r}")
    if not path.exists():
        raise DatasetError(0, f"dataset file not found: {path}")
    samples: list[BenchmarkSample] = []
    seen: set[str] = set()
    try:
        text = decode_text(path.read_bytes())
    except json.JSONDecodeError as exc:
        raise DatasetError(exc.lineno, exc.msg) from None
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
        if not line.strip():
            continue
        try:
            obj = parse_json(line)
        except NonFiniteNumberError as exc:
            field = exc.path[0] if exc.path and type(exc.path[0]) is str else None
            raise DatasetError(line_no, f"invalid JSON: {exc}", field=field) from None
        except json.JSONDecodeError as exc:
            raise DatasetError(line_no, f"invalid JSON: {exc}") from None
        sample = _sample_from_line(line_no, obj)
        if sample.id in seen:
            raise DatasetError(line_no, f"duplicate sample id {sample.id!r}", field="id")
        seen.add(sample.id)
        samples.append(sample)
    if not samples:
        raise EmptyDatasetError(f"no samples in {path}")
    return samples


def save_dataset(path, samples: Sequence[BenchmarkSample]) -> None:
    import json

    path = Path(path)
    if not path.name.endswith(DATASET_SUFFIX):
        raise DatasetError(0, f"dataset file must end with {DATASET_SUFFIX!r}")
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(json.dumps(sample.to_json(), sort_keys=True) + "\n")


# -- metric suite -----------------------------------------------------------


def _city_key(aliases: dict[str, str] | None) -> Callable[[str], str]:
    """``normalize_city_name(name, aliases=aliases)`` as a function of
    ``name``, with the alias table normalized once for every name."""
    table = {normalize_city_name(k): normalize_city_name(v) for k, v in (aliases or {}).items()}
    return lambda name: resolve_city_alias(normalize_city_name(name), table)


def _pair(
    preds: Sequence[Prediction], samples: Sequence[BenchmarkSample]
) -> dict[str, Prediction]:
    """Match predictions to samples by id. Samples without a prediction are
    allowed (they count as misses); predictions without a sample are not."""
    if not samples:
        raise EmptyDatasetError("no samples to evaluate")
    known = {s.id for s in samples}
    by_id: dict[str, Prediction] = {}
    for pred in preds:
        sid = pred.sample_id
        if sid is None or sid not in known:
            raise UnmatchedPredictionError(str(sid))
        if sid in by_id:
            raise UnmatchedPredictionError(sid)
        by_id[sid] = pred
    return by_id


def threshold_accuracy(
    preds: Sequence[Prediction],
    samples: Sequence[BenchmarkSample],
    thresholds: Iterable[int] = DEFAULT_THRESHOLDS_KM,
) -> dict[int, float]:
    """Percentage of samples whose prediction lies within each distance of
    the truth (a sample without a prediction is a miss).

    Boundaries are inclusive, which makes accuracy exactly monotone in the
    threshold. Values are raw percentages; rounding happens at render time.
    """
    by_id = _pair(preds, samples)
    n = len(samples)
    km = [haversine_km(by_id[s.id].point, s.truth_point) for s in samples if s.id in by_id]
    return {tau: 100.0 * sum(1 for d in km if d <= tau) / n
            for tau in sorted(set(thresholds))}


def acc_city(
    preds: Sequence[Prediction],
    samples: Sequence[BenchmarkSample],
    aliases: dict[str, str] | None = None,
) -> float:
    """Percentage whose predicted city name equals the truth city name.

    Name comparison goes through city-name normalization, so exonyms listed
    in the alias table count as matches.
    """
    by_id = _pair(preds, samples)
    key = _city_key(aliases)
    hits = 0
    for sample in samples:
        pred = by_id.get(sample.id)
        if pred is None:
            continue
        if key(pred.city_name) == key(sample.truth_city):
            hits += 1
    return 100.0 * hits / len(samples)


def acc_loglat(
    preds: Sequence[Prediction],
    samples: Sequence[BenchmarkSample],
    g: Gazetteer,
    aliases: dict[str, str] | None = None,
) -> float:
    """Percentage whose predicted point reverse-geocodes to the truth city.

    A point that reverse-geocodes to nothing counts as a miss.
    """
    by_id = _pair(preds, samples)
    key = _city_key(aliases)
    hits = 0
    for sample in samples:
        pred = by_id.get(sample.id)
        if pred is None:
            continue
        city = reverse_geocode(g, pred.point)
        if city is None:
            continue
        if key(city.name) == key(sample.truth_city):
            hits += 1
    return 100.0 * hits / len(samples)


def location_compliance(
    preds: Sequence[Prediction],
    g: Gazetteer,
    aliases: dict[str, str] | None = None,
) -> float:
    """Agreement between the stated city name and the coordinate-derived one.

    Truth is never consulted: this measures internal coherence of each
    prediction. A point that reverse-geocodes to nothing is non-compliant.
    """
    if not preds:
        raise EmptyPredictionsError("no predictions to check for compliance")
    key = _city_key(aliases)
    hits = 0
    for pred in preds:
        city = reverse_geocode(g, pred.point)
        if city is None:
            continue
        if key(city.name) == key(pred.city_name):
            hits += 1
    return 100.0 * hits / len(preds)


# -- report assembly --------------------------------------------------------


def round2(value: float) -> float:
    """Half-up rounding to two decimals over the printed decimal value."""
    return float(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _fmt(value: float | None) -> str:
    return "/" if value is None else f"{round2(value):.2f}"


@dataclass(frozen=True)
class MetricBlock:
    """The full metric set over one group of samples."""

    n: int
    threshold_acc: dict[int, float]
    acc_city: float
    acc_loglat: float
    location_compliance: float | None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "threshold_acc": {
                str(t): round2(v) for t, v in sorted(self.threshold_acc.items())
            },
            "acc_city": round2(self.acc_city),
            "acc_loglat": round2(self.acc_loglat),
            "location_compliance": (
                None if self.location_compliance is None
                else round2(self.location_compliance)
            ),
        }


class _Row(NamedTuple):
    """One predicted sample, scored once: the prediction's distance to the
    truth, whether it names a city, and three city names, each normalized
    (``_city_key``): the predicted name, the truth's, and that of the city
    the predicted point reverse-geocodes to (None for no city)."""

    km: float
    named: bool
    pred_city: str
    truth_city: str
    geocoded_city: str | None


def _block(rows: Sequence[_Row], n: int, thresholds: Sequence[int]) -> MetricBlock:
    """The metric set over ``n`` samples whose predicted ones are ``rows``,
    by the formulas of the four public metric functions."""
    if rows and not any(r.named for r in rows):
        compliance = None  # method emits no city names; rendered as "/"
    elif rows:
        compliance = 100.0 * sum(r.geocoded_city == r.pred_city for r in rows) / len(rows)
    else:
        compliance = 0.0
    return MetricBlock(
        n=n,
        threshold_acc={tau: 100.0 * sum(r.km <= tau for r in rows) / n for tau in thresholds},
        acc_city=100.0 * sum(r.pred_city == r.truth_city for r in rows) / n,
        acc_loglat=100.0 * sum(r.geocoded_city == r.truth_city for r in rows) / n,
        location_compliance=compliance,
    )


def stratify(
    preds: Sequence[Prediction],
    samples: Sequence[BenchmarkSample],
    g: Gazetteer,
    thresholds: Iterable[int] = DEFAULT_THRESHOLDS_KM,
    aliases: dict[str, str] | None = None,
) -> dict[str, dict[str, MetricBlock]]:
    """The metric set per scene category and per difficulty: the strata of
    ``compute_report``, scored in its one pass."""
    return compute_report(preds, samples, g, thresholds=thresholds, aliases=aliases).strata


@dataclass(frozen=True)
class MetricsReport:
    """Everything a benchmark run reports, before any rounding."""

    label: str
    overall: MetricBlock
    strata: dict[str, dict[str, MetricBlock]]

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "n": self.overall.n,
            "overall": self.overall.to_json(),
            "strata": {
                axis: {name: block.to_json() for name, block in groups.items()}
                for axis, groups in self.strata.items()
            },
        }


def compute_report(
    preds: Sequence[Prediction],
    samples: Sequence[BenchmarkSample],
    g: Gazetteer,
    *,
    label: str = "full",
    thresholds: Iterable[int] = DEFAULT_THRESHOLDS_KM,
    aliases: dict[str, str] | None = None,
) -> MetricsReport:
    """The metric suite overall and per stratum, scored in one pass.

    Predictions are paired with samples once. Each predicted sample is then
    scored once, in dataset order: its prediction's distance to the truth
    is measured, its point reverse-geocoded (once per distinct point), and
    its three city names normalized, the alias table once per report.
    The overall block and each stratum (scene category, then difficulty,
    names sorted) are built from those rows.
    """
    by_id = _pair(preds, samples)
    key = _city_key(aliases)
    geocoded: dict[GeoPoint, AdminRegion | None] = {}
    rows: dict[str, _Row] = {}
    for sample in samples:
        pred = by_id.get(sample.id)
        if pred is None:
            continue
        if pred.point not in geocoded:
            geocoded[pred.point] = reverse_geocode(g, pred.point)
        city = geocoded[pred.point]
        rows[sample.id] = _Row(
            haversine_km(pred.point, sample.truth_point), pred.city_name != "",
            key(pred.city_name), key(sample.truth_city),
            None if city is None else key(city.name))
    thresholds = sorted(set(thresholds))
    strata: dict[str, dict[str, MetricBlock]] = {}
    for axis, key in (("scene_category", lambda s: s.scene_category.value),
                      ("difficulty", lambda s: s.difficulty.value)):
        members: dict[str, list[BenchmarkSample]] = {}
        for sample in samples:
            members.setdefault(key(sample), []).append(sample)
        strata[axis] = {
            name: _block([rows[s.id] for s in members[name] if s.id in rows],
                         len(members[name]), thresholds)
            for name in sorted(members)}
    return MetricsReport(
        label=label,
        overall=_block(list(rows.values()), len(samples), thresholds),
        strata=strata,
    )


def render_text_table(report: MetricsReport) -> str:
    """Human-readable report. Pure function of the report contents.

    Rows use ``&``-separated cells with one header line per table, matching
    the column sets of the distance-threshold and city-level metric tables.
    """
    thresholds = sorted(report.overall.threshold_acc)
    km_cols = " & ".join(f"{t}km" for t in thresholds)
    city_cols = "ACC City & ACC Loglat & Location Compliance"

    def metric_cells(block: MetricBlock) -> tuple[str, str]:
        km = " & ".join(_fmt(block.threshold_acc[t]) for t in thresholds)
        city = " & ".join((
            _fmt(block.acc_city),
            _fmt(block.acc_loglat),
            _fmt(block.location_compliance),
        ))
        return km, city

    km_row, city_row = metric_cells(report.overall)
    lines = [
        f"condition: {report.label}",
        f"samples: {report.overall.n}",
        "",
        f"Method & {km_cols}",
        f"{report.label} & {km_row}",
        "",
        f"Method & {city_cols}",
        f"{report.label} & {city_row}",
    ]
    axis_titles = {"scene_category": "By scene category", "difficulty": "By difficulty"}
    for axis, groups in report.strata.items():
        if not groups:
            continue
        lines.append("")
        lines.append(axis_titles.get(axis, axis))
        lines.append(f"Stratum & n & {km_cols} & {city_cols}")
        for name, block in groups.items():
            km_row, city_row = metric_cells(block)
            lines.append(f"{name} & {block.n} & {km_row} & {city_row}")
    return "\n".join(lines) + "\n"


# -- synthetic dataset generation -------------------------------------------


def difficulty_counts(n: int, mix: Mapping[Difficulty, float]) -> dict[Difficulty, int]:
    """Integer counts per difficulty via largest-remainder apportionment."""
    if n <= 0:
        raise ConfigError("sample count must be >= 1")
    if not all(0 <= v < math.inf for v in mix.values()):  # NaN compares False
        raise ConfigError("difficulty mix entries must be >= 0")
    total = sum(mix.values())
    if abs(total - 1.0) > 1e-9:
        raise ConfigError(f"difficulty mix must sum to 1, got {total}")
    order = [d for d in Difficulty if d in mix]
    floors = {d: int(n * mix[d]) for d in order}
    short = n - sum(floors.values())
    by_remainder = sorted(
        order, key=lambda d: (-(n * mix[d] - floors[d]), order.index(d)))
    for d in by_remainder[:short]:
        floors[d] += 1
    return floors


def make_benchmark(
    world: SynthWorld,
    n: int,
    seed: int,
    mix: Mapping[Difficulty, float] | None = None,
) -> list[BenchmarkSample]:
    """Generate a descriptor-embedded benchmark with the requested mix."""
    counts = difficulty_counts(n, DEFAULT_MIX if mix is None else mix)
    schedule: list[Difficulty] = []
    for difficulty in Difficulty:
        schedule.extend([difficulty] * counts.get(difficulty, 0))
    rng = random.Random(f"bench|{world.seed}|{seed}|{n}")
    rng.shuffle(schedule)
    g = world.gazetteer
    samples = []
    for i, difficulty in enumerate(schedule, start=1):
        desc = sample_episode(world, seed * 100_003 + i, difficulty)
        city = g.get(desc.truth.city_id)
        province = g.get(city.parent_id)
        samples.append(BenchmarkSample(
            id=f"s{i:04d}",
            truth_point=desc.truth.point,
            truth_city=city.name,
            truth_province=province.name,
            scene_category=classify_scene(desc),
            difficulty=difficulty,
            descriptor=desc,
            clue_tags=tuple(c.value for c in desc.clues),
        ))
    return samples


# -- benchmark execution ----------------------------------------------------


def sample_scenes(samples: Iterable[BenchmarkSample]) -> dict[str, SceneDescriptor]:
    """Each descriptor sample's scene under its ``image_ref``."""
    return {s.image_ref: s.descriptor for s in samples if s.descriptor is not None}


@dataclass(frozen=True)
class BenchEntry:
    """Outcome of one benchmark sample: a prediction or an exhaustion."""

    sample_id: str
    status: EpisodeStatus
    prediction: Prediction | None
    trace_path: str | None = None
    error: str | None = None

    def to_json(self) -> dict:
        out: dict = {"sample_id": self.sample_id, "status": self.status.value}
        if self.prediction is not None:
            out["prediction"] = self.prediction.to_json()
        if self.trace_path is not None:
            out["trace_path"] = self.trace_path
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass(frozen=True)
class BenchmarkRun:
    entries: tuple[BenchEntry, ...]
    report: MetricsReport

    @property
    def predictions(self) -> list[Prediction]:
        return [e.prediction for e in self.entries if e.prediction is not None]


def run_benchmark(
    samples: Sequence[BenchmarkSample],
    backend,
    world: SynthWorld | None = None,
    *,
    g: Gazetteer | None = None,
    adapters=None,
    tag_table=None,
    settings: EpisodeSettings = EpisodeSettings(),
    workers: int = 1,
    trace_dir=None,
    config_hash: str = "bench",
) -> BenchmarkRun:
    """Run every sample as one episode and aggregate the metric suite.

    Every sample is one ``engine.record_episode`` over the same adapters,
    asked about the sample's ``image_ref``, with its descriptor (if any)
    for the planner. ``world`` supplies the gazetteer, the tag table and,
    unless ``adapters`` is given, one ``SyntheticToolbox`` holding every
    descriptor sample's scene (``sample_scenes``). Without a world, ``g``
    and ``adapters`` (and ``tag_table``) must be given, else ``ConfigError``.

    Each trace header carries ``config_hash`` and the meta ``{image_ref,
    label, sample_id}``, and with ``trace_dir`` set the trace is written to
    ``<trace_dir>/<sample id>.trace.jsonl``.

    Episode-level parallelism: each worker owns its episode state and
    recorder, and results are assembled in dataset order, so a scripted
    backend yields byte-identical report JSON across runs regardless of the
    worker count. One sample's failure becomes an Exhausted entry; the run
    continues.
    """
    from .engine import record_episode

    if not samples:
        raise EmptyDatasetError("no samples to run")
    if world is not None:
        g, tag_table = world.gazetteer, world.tag_table()
        if adapters is None:
            adapters = SyntheticToolbox(world, sample_scenes(samples)).adapters()
    if g is None or adapters is None:
        raise ConfigError("run_benchmark needs a world, or a gazetteer and adapters")
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
    label = settings.ablation.label()

    def run_one(sample: BenchmarkSample) -> BenchEntry:
        trace_path = str(trace_dir / f"{sample.id}.trace.jsonl") if trace_dir else None
        try:
            result = record_episode(
                backend, adapters, g, image_ref=sample.image_ref,
                descriptor=sample.descriptor, tag_table=tag_table,
                trace_path=trace_path, config_hash=config_hash,
                meta={"sample_id": sample.id, "label": label}, settings=settings)
        except Exception as exc:  # per-sample isolation: one failure never
            return BenchEntry(  # aborts the benchmark run
                sample.id, EpisodeStatus.EXHAUSTED, None,
                trace_path, error=f"{type(exc).__name__}: {exc}")
        prediction = result.prediction
        if prediction is None:
            return BenchEntry(sample.id, EpisodeStatus.EXHAUSTED, None,
                              trace_path, error="episode exhausted")
        prediction = replace(prediction, sample_id=sample.id, trace_ref=trace_path)
        return BenchEntry(sample.id, result.state.status, prediction, trace_path)

    if workers <= 1:
        entries = tuple(run_one(s) for s in samples)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            entries = tuple(pool.map(run_one, samples))
    preds = [e.prediction for e in entries if e.prediction is not None]
    report = compute_report(preds, samples, g, label=label)
    return BenchmarkRun(entries=entries, report=report)
