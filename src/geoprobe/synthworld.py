"""Deterministic synthetic geography: worlds, scenes, and pure tool answers.

A world is a seeded three-level region tree (country, provinces, cities)
plus clue material: per-region attribute tags, per-city sign texts, and
per-city POIs with exact coordinates. Scene descriptors stand in for
images; ``SyntheticToolbox`` answers every network tool from world content,
in process or behind the stub server, so whole episodes run offline and
reproducibly.

Construction guarantees the properties the clue system leans on: region
names are unique equal-length words (no accidental substring matches), sign
texts and POI names embed their city's name and are globally unique, every
city shares at least one tag with its province, and at least two provinces
share a macro tag whenever the world has two or more provinces.
"""

from __future__ import annotations

import bisect
import enum
import hashlib
import heapq
import json
import math
import random
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping

from .actions import Action, Tool, base_image_ref
from .canonical import json_get, json_strs, parse_json
from .errors import ConfigError
from .executor import LocalCropAdapter, ToolAdapter, ToolResult
from .geo import (
    EARTH_RADIUS_KM,
    AdminRegion,
    Gazetteer,
    GeoPoint,
    RegionLevel,
    _normalize_lon,
    haversine_km,
    lat_band,
)

COUNTRY_RADIUS_KM = 3000.0
PROVINCE_RADIUS_KM = 350.0
CITY_RADIUS_KM = 22.0
PROVINCE_SPREAD_KM = 2500.0     # provinces stay within this of the country centroid
PROVINCE_SEPARATION_KM = 760.0  # pairwise centroid separation between provinces
CITY_SPREAD_KM = 260.0          # cities stay within this of their province centroid
CITY_SEPARATION_KM = 56.0       # pairwise separation inside one province

SIGN_WORDS = ("bakery", "garage", "laundry", "pharmacy", "tavern", "cinema",
              "market", "florist")
POI_WORDS = ("lighthouse", "museum", "stadium", "harbor", "cathedral",
             "observatory", "gardens", "fortress")
VEGETATION_TAGS = ("palm-groves", "pine-forest", "terraced-fields", "mangrove-swamp",
                   "bamboo-thicket", "olive-orchards", "steppe-grass", "mossy-heath")
TERRAIN_TAGS = ("karst-hills", "river-delta", "coastal-cliffs", "high-plateau",
                "dune-fields", "glacial-valley", "volcanic-slopes", "limestone-gorge")
ARCHITECTURE_TAGS = ("brick-rowhouses", "stilt-houses", "whitewashed-domes",
                     "timber-chalets", "tiled-shophouses", "adobe-compounds",
                     "glass-towers", "stone-terraces")
VEHICLE_TAGS = ("tuk-tuks", "cable-trams", "fishing-skiffs", "yellow-cabs", "horse-carts")

_CONSONANTS = "bdfglkmnprstvz"
_VOWELS = "aeiou"
_RESERVED_WORDS = frozenset(SIGN_WORDS + POI_WORDS)


class ClueKind(enum.Enum):
    VEGETATION = "Vegetation"
    TERRAIN = "Terrain"
    ARCHITECTURE = "Architecture"
    SIGN_TEXT = "SignText"
    POI = "Poi"
    VEHICLE = "Vehicle"


class Difficulty(enum.Enum):
    EASY = "Easy"
    MEDIUM = "Medium"
    HARD = "Hard"


@dataclass(frozen=True)
class Clue:
    kind: ClueKind
    value: str
    salience: float

    def __post_init__(self):
        if not 0.0 <= self.salience <= 1.0:
            raise ValueError(f"clue salience out of [0,1]: {self.salience}")

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "value": self.value, "salience": self.salience}

    @classmethod
    def from_json(cls, obj: dict) -> "Clue":
        return cls(ClueKind(json_get(obj, "kind", str)), json_get(obj, "value", str),
                   json_get(obj, "salience", float))


@dataclass(frozen=True)
class Poi:
    name: str
    point: GeoPoint

    def to_json(self) -> dict:
        return {"name": self.name, "lat": self.point.lat, "lon": self.point.lon}

    @classmethod
    def from_json(cls, obj: dict) -> "Poi":
        return cls(json_get(obj, "name", str), GeoPoint.from_json(obj))


@dataclass(frozen=True)
class Truth:
    point: GeoPoint
    city_id: str

    def to_json(self) -> dict:
        return {"lat": self.point.lat, "lon": self.point.lon, "city_id": self.city_id}

    @classmethod
    def from_json(cls, obj: dict) -> "Truth":
        return cls(GeoPoint.from_json(obj), json_get(obj, "city_id", str))


@dataclass(frozen=True)
class SceneDescriptor:
    """Structured clue bundle standing in for an image."""

    clues: tuple[Clue, ...]
    truth: Truth
    difficulty: Difficulty

    def __post_init__(self):
        if not self.clues:
            raise ValueError("a scene descriptor needs at least one clue")

    def clues_of(self, *kinds: ClueKind) -> tuple[Clue, ...]:
        return tuple(c for c in self.clues if c.kind in kinds)

    def to_json(self) -> dict:
        return {
            "clues": [c.to_json() for c in self.clues],
            "truth": self.truth.to_json(),
            "difficulty": self.difficulty.value,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SceneDescriptor":
        return cls(
            clues=tuple(Clue.from_json(c) for c in json_get(obj, "clues", list)),
            truth=Truth.from_json(json_get(obj, "truth", dict)),
            difficulty=Difficulty(json_get(obj, "difficulty", str)),
        )


class SynthWorld:
    """Immutable bundle of gazetteer plus clue material."""

    def __init__(
        self,
        seed: int,
        gazetteer: Gazetteer,
        attributes: dict[str, tuple[str, ...]],
        signs: dict[str, tuple[str, ...]],
        pois: dict[str, tuple[Poi, ...]],
    ):
        self.seed = seed
        self.gazetteer = gazetteer
        self.attributes = attributes
        self.signs = signs
        self.pois = pois
        self._sign_city = {
            text.casefold(): cid for cid, texts in signs.items() for text in texts
        }
        self._poi_city = {
            poi.name.casefold(): (cid, poi) for cid, plist in pois.items() for poi in plist
        }
        self._tag_table = MappingProxyType(_build_tag_table(attributes))

    @property
    def country_id(self) -> str:
        return self.gazetteer.roots()[0].id

    def province_ids(self) -> list[str]:
        return list(self.gazetteer.children(self.country_id))

    def city_ids(self) -> list[str]:
        return [c.id for c in self.gazetteer.cities()]

    def cities_of(self, province_id: str) -> list[str]:
        return list(self.gazetteer.children(province_id))

    def province_of(self, city_id: str) -> str:
        parent = self.gazetteer.get(city_id).parent_id
        assert parent is not None
        return parent

    def tags_of(self, region_id: str) -> tuple[str, ...]:
        return self.attributes.get(region_id, ())

    def regions_with_tag(self, tag: str) -> frozenset[str]:
        return self._tag_table.get(tag, frozenset())

    def tag_table(self) -> Mapping[str, frozenset[str]]:
        """Caption-extraction table: every known tag to its carrier regions.

        Built once with the world and shared, read-only, by every caller.
        """
        return self._tag_table

    def sign_city(self, text: str) -> str | None:
        return self._sign_city.get(text.casefold())

    def find_poi(self, name: str) -> tuple[str, Poi] | None:
        return self._poi_city.get(name.casefold())

    @cached_property
    def _draw_orders(self) -> "_DrawOrders":
        return _DrawOrders(self)

    def to_json(self) -> dict:
        return {
            "format": "synthworld/1",
            "seed": self.seed,
            "regions": self.gazetteer.to_json(),
            "attributes": {rid: list(tags) for rid, tags in sorted(self.attributes.items())},
            "signs": {cid: list(texts) for cid, texts in sorted(self.signs.items())},
            "pois": {
                cid: [p.to_json() for p in plist] for cid, plist in sorted(self.pois.items())
            },
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SynthWorld":
        if json_get(obj, "format", str, None) != "synthworld/1":
            raise ValueError(f"unsupported world format: {obj.get('format')!r}")
        attributes, signs, pois = (json_get(obj, key, dict)
                                   for key in ("attributes", "signs", "pois"))
        return cls(
            seed=json_get(obj, "seed", int),
            gazetteer=Gazetteer([AdminRegion.from_json(r) for r in json_get(obj, "regions", list)]),
            attributes={rid: json_strs(attributes, rid) for rid in attributes},
            signs={cid: json_strs(signs, cid) for cid in signs},
            pois={cid: tuple(map(Poi.from_json, json_get(pois, cid, list))) for cid in pois},
        )


def _build_tag_table(attributes: dict[str, tuple[str, ...]]) -> dict[str, frozenset[str]]:
    table: dict[str, set[str]] = {}
    for rid, tags in attributes.items():
        for tag in tags:
            table.setdefault(tag, set()).add(rid)
    return {tag: frozenset(rids) for tag, rids in table.items()}


class _DrawOrders:
    """The sequences ``sample_episode`` draws from, built once per world.

    Each is the list the draw used to sort or scan out of the world for every
    sample, so the RNG sees the same sequences and makes the same choices.
    """

    def __init__(self, world: SynthWorld):
        provinces = world.province_ids()
        self.city_ids = sorted(world.city_ids())
        self.province_ids = sorted(provinces)
        self.cities_of = {p: sorted(world.cities_of(p)) for p in provinces}
        #: Macro tags carried by two or more provinces, sorted.
        self.shared = _shared_macro_tags(world)
        #: Each shared tag's carrier provinces.
        self.carriers = {
            tag: frozenset(p for p in provinces if tag in world.tags_of(p)[:2])
            for tag in self.shared
        }
        #: Each shared tag's extras: the other shared tags that two or more
        #: of its carriers also carry.
        self.extras = {
            tag: [t for t in self.shared
                  if t != tag and len(self.carriers[tag] & self.carriers[t]) >= 2]
            for tag in self.shared
        }
        self._compatible: dict[frozenset[str], list[str]] = {}

    def compatible(self, provinces: frozenset[str]) -> list[str]:
        """The cities of ``provinces``, sorted; computed once per set."""
        cities = self._compatible.get(provinces)
        if cities is None:
            cities = sorted(c for p in provinces for c in self.cities_of[p])
            self._compatible[provinces] = cities
        return cities


def save_world(world: SynthWorld, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(world.to_json(), f, ensure_ascii=False, indent=2, sort_keys=True)
        f.write("\n")


def load_world(path: str) -> SynthWorld:
    """Load a world file; a malformed one raises ``ConfigError`` naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            return SynthWorld.from_json(parse_json(f.read()))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad world file {path}: {type(exc).__name__}: {exc}") from exc


def _gen_name(rng: random.Random, taken: set[str]) -> str:
    # Equal-length generated words cannot be proper substrings of each
    # other, which keeps name scanning in extraction unambiguous.
    while True:
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(3))
        if word not in taken and word not in _RESERVED_WORDS:
            taken.add(word)
            return word.capitalize()


def _offset(rng: random.Random, center: GeoPoint, max_km: float) -> tuple[float, float]:
    """A random offset of up to ``max_km`` from ``center``, as the
    latitude (clamped to +-89) and the longitude (not yet wrapped) of the
    ``GeoPoint`` it makes."""
    angle = rng.uniform(0.0, 2.0 * math.pi)
    dist = rng.uniform(0.0, max_km)
    dlat = dist * math.cos(angle) / 111.19492664455889
    dlon = dist * math.sin(angle) / (111.19492664455889 * max(0.2, math.cos(math.radians(center.lat))))
    return max(-89.0, min(89.0, center.lat + dlat)), center.lon + dlon


def _offset_point(rng: random.Random, center: GeoPoint, max_km: float) -> GeoPoint:
    return GeoPoint(*_offset(rng, center, max_km))


#: Relative half-width of the band around the separation threshold inside
#: which ``haversine_km`` decides.
_GUARD = 1e-6
#: Absolute widening of that band, so that a tiny or subnormal threshold
#: or haversine term is always decided by ``haversine_km``.
_GUARD_ABS = 1e-300
#: Separations from a quarter circumference up are measured with
#: ``haversine_km`` for every pair.
_QUARTER_KM = math.pi * EARTH_RADIUS_KM / 2.0


class _Centres:
    """Centres placed so far, ascending by latitude, each kept as the row
    the separation test reads: its latitude and longitude in radians, the
    cosine of its latitude, and the point itself."""

    def __init__(self, min_sep_km: float):
        self.min_sep_km = min_sep_km
        self.lats: list[float] = []
        self.rows: list[tuple[float, float, float, GeoPoint]] = []
        if min_sep_km < _QUARTER_KM:
            t = math.sin(min_sep_km / (2.0 * EARTH_RADIUS_KM)) ** 2
            self._near = t * (1.0 - _GUARD) - _GUARD_ABS
            self._far = t * (1.0 + _GUARD) + _GUARD_ABS
        else:
            self._near, self._far = -math.inf, math.inf

    def add(self, p: GeoPoint) -> None:
        i = bisect.bisect_right(self.lats, p.lat)
        lat = math.radians(p.lat)
        self.lats.insert(i, p.lat)
        self.rows.insert(i, (lat, math.radians(p.lon), math.cos(lat), p))

    def clear_of(self, lat: float, raw_lon: float) -> bool:
        """Whether ``GeoPoint(lat, raw_lon)`` is at least ``min_sep_km``
        from every centre, by ``haversine_km``'s measure.

        Only centres in the candidate's ``lat_band`` are measured. For each
        pair the haversine term ``h`` is computed with the float operations
        ``haversine_km`` uses, in the same order, so it is the very float
        ``haversine_km`` would compute. Below a quarter circumference the
        distance, ``2R asin(sqrt(h))``, grows with ``h`` and is at least
        ``min_sep_km`` exactly when ``h >= sin^2(min_sep_km / 2R)``
        (``h > 0.5`` lies beyond a quarter circumference, so above the
        threshold). Rounding in ``sqrt``, ``asin`` and the threshold moves
        that comparison by a few ulps, far less than the guard band of
        ``_GUARD`` relative (plus ``_GUARD_ABS``) around the threshold. So
        outside the band comparing ``h`` gives ``haversine_km``'s verdict,
        and inside it ``haversine_km`` itself decides: verdicts, and so
        worlds, are bit-identical to measuring every pair.
        """
        lo, hi = lat_band(self.lats, lat, self.min_sep_km)
        if lo == hi:
            return True
        lat1 = math.radians(lat)
        lon1 = math.radians(_normalize_lon(raw_lon))
        cos1 = math.cos(lat1)
        sin, near, far = math.sin, self._near, self._far
        for lat2, lon2, cos2, o in self.rows[lo:hi]:
            h = sin((lat2 - lat1) / 2.0) ** 2 + cos1 * cos2 * sin((lon2 - lon1) / 2.0) ** 2
            if h > far:
                continue
            if h < near or haversine_km(GeoPoint(lat, raw_lon), o) < self.min_sep_km:
                return False
        return True


def _place(
    rng: random.Random,
    center: GeoPoint,
    spread_km: float,
    placed: _Centres,
    attempts: int = 4000,
) -> GeoPoint:
    """Draw offsets from ``center`` until one is ``placed.min_sep_km``
    clear of every centre in ``placed``, and add it there.

    Each draw is ``_offset_point``'s; only the accepted one becomes a
    ``GeoPoint``. Only centres within the separation + 1 km of the
    candidate's latitude are measured, with the full scan's verdict:
    great-circle distance is at least ``R * |dlat|``, so a centre outside
    that band cannot reject it.
    """
    for _ in range(attempts):
        lat, lon = _offset(rng, center, spread_km)
        if placed.clear_of(lat, lon):
            p = GeoPoint(lat, lon)
            placed.add(p)
            return p
    raise ValueError("could not place a region; too many for the configured geometry")


def generate_world(seed: int, n_provinces: int, cities_per_province: int) -> SynthWorld:
    """Build a seeded world; identical arguments give identical worlds."""
    if n_provinces < 1 or cities_per_province < 1:
        raise ValueError("need at least one province and one city per province")
    rng = random.Random(f"world|{seed}|{n_provinces}|{cities_per_province}")
    taken: set[str] = set()

    country_center = GeoPoint(rng.uniform(-15.0, 15.0), rng.uniform(-60.0, 60.0))
    country_id = "r0"
    regions = [
        AdminRegion(country_id, RegionLevel.COUNTRY, _gen_name(rng, taken),
                    country_center, COUNTRY_RADIUS_KM)
    ]

    province_centers: list[GeoPoint] = []
    placed = _Centres(PROVINCE_SEPARATION_KM)
    province_ids: list[str] = []
    for i in range(n_provinces):
        center = _place(rng, country_center, PROVINCE_SPREAD_KM, placed)
        province_centers.append(center)
        pid = f"{country_id}-p{i}"
        province_ids.append(pid)
        regions.append(
            AdminRegion(pid, RegionLevel.PROVINCE, _gen_name(rng, taken),
                        center, PROVINCE_RADIUS_KM, country_id)
        )

    city_ids: list[str] = []
    for i, pid in enumerate(province_ids):
        placed = _Centres(CITY_SEPARATION_KM)
        for j in range(cities_per_province):
            center = _place(rng, province_centers[i], CITY_SPREAD_KM, placed)
            cid = f"{pid}-c{j}"
            city_ids.append(cid)
            regions.append(
                AdminRegion(cid, RegionLevel.CITY, _gen_name(rng, taken),
                            center, CITY_RADIUS_KM, pid)
            )

    gaz = Gazetteer(regions)

    # Macro tags: a small pool forces natural sharing between provinces,
    # and the first two provinces are pinned to a common vegetation tag so
    # the shared-macro invariant always holds once the world has two.
    veg_pool = list(VEGETATION_TAGS[: max(2, n_provinces // 2)])
    terrain_pool = list(TERRAIN_TAGS[: max(2, n_provinces // 2)])
    attributes: dict[str, tuple[str, ...]] = {
        country_id: (rng.choice(TERRAIN_TAGS),)
    }
    for i, pid in enumerate(province_ids):
        veg = veg_pool[0] if i < 2 and n_provinces >= 2 else rng.choice(veg_pool)
        terrain = rng.choice(terrain_pool)
        arch = (ARCHITECTURE_TAGS[i] if i < len(ARCHITECTURE_TAGS)
                else f"arch-style-{i:02d}")
        attributes[pid] = (veg, terrain, arch)

    signs: dict[str, tuple[str, ...]] = {}
    pois: dict[str, tuple[Poi, ...]] = {}
    for cid in city_ids:
        city = gaz.get(cid)
        pid = city.parent_id
        assert pid is not None
        macro = rng.choice(attributes[pid][:2])  # inherit vegetation or terrain
        vehicle = rng.choice(VEHICLE_TAGS)
        attributes[cid] = (macro, vehicle)

        words = rng.sample(SIGN_WORDS, 2)
        signs[cid] = tuple(f"{city.name} {w}" for w in words)
        poi_words = rng.sample(POI_WORDS, 2)
        pois[cid] = tuple(
            Poi(f"{city.name} {w}", _offset_point(rng, city.centroid, 0.8 * city.radius_km))
            for w in poi_words
        )

    return SynthWorld(seed, gaz, attributes, signs, pois)


def tag_kind(tag: str) -> ClueKind:
    if tag in VEGETATION_TAGS:
        return ClueKind.VEGETATION
    if tag in ARCHITECTURE_TAGS or tag.startswith("arch-style-"):
        return ClueKind.ARCHITECTURE
    if tag in VEHICLE_TAGS:
        return ClueKind.VEHICLE
    return ClueKind.TERRAIN


def _shared_macro_tags(world: SynthWorld) -> list[str]:
    """Vegetation/terrain tags carried by at least two provinces, sorted."""
    provinces = world.province_ids()
    counts: dict[str, int] = {}
    for pid in provinces:
        for tag in world.tags_of(pid)[:2]:
            counts[tag] = counts.get(tag, 0) + 1
    return sorted(tag for tag, n in counts.items() if n >= 2)


def sample_episode(world: SynthWorld, seed: int, difficulty: Difficulty) -> SceneDescriptor:
    """Draw a deterministic scene of the requested difficulty.

    Easy scenes carry a unique sign or POI clue (solvable to the exact
    city); Medium scenes carry an architecture tag unique to one province
    plus ambiguous within-province clues; Hard scenes carry only macro tags
    shared by two or more provinces. Truth is drawn uniformly among the
    cities compatible with the emitted clues.
    """
    rng = random.Random(f"episode|{world.seed}|{seed}|{difficulty.value}")
    g = world.gazetteer
    orders = world._draw_orders

    if difficulty is Difficulty.EASY:
        cid = rng.choice(orders.city_ids)
        pid = world.province_of(cid)
        macro = rng.choice(world.tags_of(pid)[:2])
        if rng.random() < 0.5:
            text = rng.choice(sorted(world.signs[cid]))
            micro = Clue(ClueKind.SIGN_TEXT, text, 0.9)
            point = _offset_point(rng, g.get(cid).centroid, 0.7 * CITY_RADIUS_KM)
        else:
            poi = rng.choice(sorted(world.pois[cid], key=lambda p: p.name))
            micro = Clue(ClueKind.POI, poi.name, 0.9)
            point = poi.point
        clues = (micro, Clue(tag_kind(macro), macro, 0.4))
        return SceneDescriptor(clues, Truth(point, cid), difficulty)

    if difficulty is Difficulty.MEDIUM:
        pid = rng.choice(orders.province_ids)
        cid = rng.choice(orders.cities_of[pid])
        arch = world.tags_of(pid)[2]
        macro = rng.choice(world.tags_of(pid)[:2])
        vehicle = next(t for t in world.tags_of(cid) if tag_kind(t) is ClueKind.VEHICLE)
        clues = (
            Clue(ClueKind.ARCHITECTURE, arch, 0.6),
            Clue(tag_kind(macro), macro, 0.4),
            Clue(ClueKind.VEHICLE, vehicle, 0.3),
        )
        point = _offset_point(rng, g.get(cid).centroid, 0.7 * CITY_RADIUS_KM)
        return SceneDescriptor(clues, Truth(point, cid), difficulty)

    if orders.shared:
        tag = rng.choice(orders.shared)
        carriers = orders.carriers[tag]
        extra = orders.extras[tag]
        clue_tags = [tag]
        if extra and rng.random() < 0.5:
            second = rng.choice(extra)
            clue_tags.append(second)
            carriers &= orders.carriers[second]
    else:
        # Single-province world: no cross-province ambiguity is possible.
        clue_tags = [rng.choice(world.tags_of(world.province_ids()[0])[:2])]
        carriers = frozenset(world.province_ids())
    cid = rng.choice(orders.compatible(carriers))
    point = _offset_point(rng, g.get(cid).centroid, 0.7 * CITY_RADIUS_KM)
    clues = tuple(Clue(tag_kind(t), t, 0.5) for t in clue_tags)
    return SceneDescriptor(clues, Truth(point, cid), difficulty)


def compatible_cities(world: SynthWorld, desc: SceneDescriptor) -> frozenset[str]:
    """Brute-force the set of cities a descriptor's clues allow.

    Independent of the engine's projection logic on purpose: it re-derives
    compatibility straight from world content, clue by clue.
    """
    g = world.gazetteer
    allowed = set(world.city_ids())
    for clue in desc.clues:
        if clue.kind is ClueKind.SIGN_TEXT:
            cid = world.sign_city(clue.value)
            this = {cid} if cid else set()
        elif clue.kind is ClueKind.POI:
            hit = world.find_poi(clue.value)
            this = {hit[0]} if hit else set()
        else:
            this = set()
            for rid in world.regions_with_tag(clue.value):
                level = g.get(rid).level
                if level is RegionLevel.CITY:
                    this.add(rid)
                else:
                    this.update(c for c in g.descendants(rid) if g.get(c).level is RegionLevel.CITY)
        allowed &= this
    return frozenset(allowed)


# ---------------------------------------------------------------------------
# Synthetic tools

_RANK_WINDOW = {Difficulty.EASY: 1, Difficulty.MEDIUM: 3, Difficulty.HARD: 5}
_MATCH_SCORES = (0.95, 0.87, 0.79, 0.71, 0.63)


def _stable_digest(*parts: str) -> int:
    return int.from_bytes(hashlib.sha256("|".join(parts).encode("utf-8")).digest()[:8], "big")


def match_candidates(world: SynthWorld, desc: SceneDescriptor) -> list[dict]:
    """Ranked image-match candidates: truth within the difficulty window.

    Distractors are the nearest same-province cities first, so even a
    mid-ranked truth keeps the candidate list province-consistent. Only the
    few distractors the list needs are selected, by (distance, id); other
    provinces are searched only when the truth's own has too few cities.
    """
    g = world.gazetteer
    truth_id = desc.truth.city_id
    truth_region = g.get(truth_id)
    same = [
        c for c in world.cities_of(world.province_of(truth_id)) if c != truth_id
    ]
    by_dist = lambda cid: (haversine_km(g.get(cid).centroid, truth_region.centroid), cid)
    need = len(_MATCH_SCORES) - 1
    distractors = heapq.nsmallest(need, same, key=by_dist)
    if len(distractors) < need:
        same_set = set(same)
        other = [c for c in world.city_ids() if c != truth_id and c not in same_set]
        distractors += heapq.nsmallest(need - len(distractors), other, key=by_dist)

    total = 1 + len(distractors)
    window = min(_RANK_WINDOW[desc.difficulty], total)
    digest = _stable_digest(
        "match", str(world.seed), truth_id, desc.difficulty.value,
        *(c.value for c in desc.clues),
    )
    rank = digest % window + 1

    ordered: list[str] = []
    di = iter(distractors)
    for pos in range(1, total + 1):
        ordered.append(truth_id if pos == rank else next(di))
    return [
        {"region_id": cid, "score": _MATCH_SCORES[i]} for i, cid in enumerate(ordered)
    ]


def _caption(toolbox: SyntheticToolbox, args: dict) -> dict:
    desc = toolbox.resolve(str(args["image"]))
    tags = [
        c.value
        for c in desc.clues_of(
            ClueKind.VEGETATION, ClueKind.TERRAIN, ClueKind.ARCHITECTURE, ClueKind.VEHICLE
        )
    ]
    caption = "A scene with " + (", ".join(tags) if tags else "no distinctive features")
    return {"caption": caption, "tags": tags}


def _ocr(toolbox: SyntheticToolbox, args: dict) -> dict:
    desc = toolbox.resolve(str(args["image"]))
    spans = [
        {"text": c.value, "box": [0.1, round(min(0.1 + 0.2 * i, 0.7), 2), 0.6,
                                  round(min(0.25 + 0.2 * i, 0.85), 2)]}
        for i, c in enumerate(desc.clues_of(ClueKind.SIGN_TEXT))
    ]
    return {"spans": spans}


def _knowledge_base(toolbox: SyntheticToolbox, args: dict) -> dict:
    q = str(args["query"]).strip().casefold()
    world = toolbox.world
    g = world.gazetteer
    records = []
    cid = world.sign_city(q)
    if cid is not None:
        records.append({
            "title": q,
            "body": f"Shopfront signage registered in {g.get(cid).name}.",
        })
    poi_hit = world.find_poi(q)
    if poi_hit is not None:
        cid, poi = poi_hit
        records.append({
            "title": poi.name,
            "body": f"{poi.name}, a landmark in {g.get(cid).name}.",
            "lat": poi.point.lat,
            "lon": poi.point.lon,
        })
    for rid in g.lookup_name(q):
        r = g.get(rid)
        parent = g.get(r.parent_id).name if r.parent_id else "no parent"
        records.append({
            "title": r.name,
            "body": f"{r.name} is a {r.level.value} ({parent}).",
        })
    records.sort(key=lambda rec: rec["title"])
    return {"query": str(args["query"]), "records": records}


def _text_search(toolbox: SyntheticToolbox, args: dict) -> dict:
    q = str(args["query"]).strip().casefold()
    world = toolbox.world
    g = world.gazetteer
    hits = []
    cid = world.sign_city(q)
    if cid is not None:
        c = g.get(cid)
        hits.append({
            "title": q,
            "snippet": f"Local directory listing in {c.name}.",
            "lat": c.centroid.lat,
            "lon": c.centroid.lon,
        })
    poi_hit = world.find_poi(q)
    if poi_hit is not None:
        _, poi = poi_hit
        hits.append({
            "title": poi.name,
            "snippet": f"Visitor guide for {poi.name}.",
            "lat": poi.point.lat,
            "lon": poi.point.lon,
        })
    for rid in g.lookup_name(q):
        r = g.get(rid)
        hit = {"title": r.name, "snippet": f"About {r.name}, a {r.level.value}."}
        if r.level is RegionLevel.CITY:
            hit["lat"] = r.centroid.lat
            hit["lon"] = r.centroid.lon
        hits.append(hit)
    carriers = world.regions_with_tag(q)
    for rid in sorted(carriers):
        r = g.get(rid)
        hits.append({
            "title": r.name,
            "snippet": f"{r.name}: known for {q}.",
        })
    hits.sort(key=lambda h: (h["title"], h["snippet"]))
    return {"query": str(args["query"]), "hits": hits}


def _image_search(toolbox: SyntheticToolbox, args: dict) -> dict:
    candidates = match_candidates(toolbox.world, toolbox.resolve(str(args["image"])))
    return {"candidates": candidates, "count": len(candidates)}


def _geocode(toolbox: SyntheticToolbox, args: dict) -> dict:
    q = str(args["query"]).strip().casefold()
    world = toolbox.world
    g = world.gazetteer
    matches = []
    poi_hit = world.find_poi(q)
    if poi_hit is not None:
        cid, poi = poi_hit
        matches.append({
            "name": poi.name,
            "lat": poi.point.lat,
            "lon": poi.point.lon,
            "region_id": cid,
        })
    for rid in g.lookup_name(q):
        r = g.get(rid)
        matches.append({
            "name": r.name,
            "lat": r.centroid.lat,
            "lon": r.centroid.lon,
            "region_id": rid,
        })
    matches.sort(key=lambda m: (m["name"], m["region_id"]))
    return {"query": str(args["query"]), "matches": matches}


#: The synthetic answer of every network tool: ``(toolbox, args) -> payload``.
_ANSWERS: dict[Tool, Callable[[SyntheticToolbox, dict], dict]] = {
    Tool.CAPTION: _caption,
    Tool.OCR: _ocr,
    Tool.KNOWLEDGE_BASE: _knowledge_base,
    Tool.TEXT_SEARCH: _text_search,
    Tool.IMAGE_SEARCH: _image_search,
    Tool.GEOCODE: _geocode,
}


@dataclass(frozen=True)
class _SynthAdapter:
    toolbox: SyntheticToolbox
    tool: Tool

    def execute(self, action: Action) -> ToolResult:
        try:
            payload = self.toolbox.answer(self.tool, action.args)
        except KeyError as e:
            return ToolResult.fail(action, "UnknownImage", detail=str(e))
        return ToolResult.succeed(action, payload)


class SyntheticToolbox:
    """The six network tools answered from one world.

    Scene descriptors are registered under reference strings (the values
    that flow through image args), ``scenes`` at construction or one by one
    with ``register``; crop-derived refs resolve back to their base scene.
    One toolbox serves every episode of a run.
    """

    def __init__(self, world: SynthWorld,
                 scenes: Mapping[str, SceneDescriptor] | None = None):
        self.world = world
        self._scenes: dict[str, SceneDescriptor] = dict(scenes or {})

    def register(self, ref: str, desc: SceneDescriptor) -> None:
        self._scenes[ref] = desc

    def resolve(self, ref: str) -> SceneDescriptor:
        base = base_image_ref(ref)
        if base not in self._scenes:
            raise KeyError(f"unregistered image ref: {base!r}")
        return self._scenes[base]

    def answer(self, tool: Tool, args: dict) -> dict:
        """``tool``'s payload for ``args``; an unknown image raises KeyError."""
        return _ANSWERS[tool](self, args)

    def adapters(self) -> dict[Tool, ToolAdapter]:
        """An adapter for every tool; crop is ``LocalCropAdapter``, as live."""
        return {**{tool: _SynthAdapter(self, tool) for tool in _ANSWERS},
                Tool.CROP: LocalCropAdapter()}
