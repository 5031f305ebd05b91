"""Geographic primitives: points, geodesic distance, administrative regions.

The Earth is modeled as a sphere of mean radius 6371.0 km; region footprints
are discs (centroid + radius). Both are deliberate simplifications: the
evaluation thresholds are coarse (>= 1 km) and discs keep containment checks
exactly testable. Polygons and ellipsoids are out of scope.
"""

from __future__ import annotations

import bisect
import enum
import json
import math
from collections.abc import ItemsView, Mapping, Sequence
from dataclasses import dataclass

from .canonical import canonical_hash, decode_text, json_get, parse_json
from .errors import GazetteerFileError, UnknownRegionError

EARTH_RADIUS_KM = 6371.0

#: Default fallback radius for reverse geocoding: a point outside every city
#: disc still maps to the nearest city if it is within this many km.
DEFAULT_FALLBACK_KM = 100.0


def _normalize_lon(lon: float) -> float:
    """Wrap a longitude into [-180, 180)."""
    lon = math.fmod(lon + 180.0, 360.0)
    if lon < 0:
        lon += 360.0
    return lon - 180.0


@dataclass(frozen=True, order=True)
class GeoPoint:
    """A point on the sphere. lat in [-90, 90], lon normalized to [-180, 180)."""

    lat: float
    lon: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        object.__setattr__(self, "lon", _normalize_lon(float(self.lon)))
        object.__setattr__(self, "lat", float(self.lat))

    def to_json(self) -> dict:
        return {"lat": self.lat, "lon": self.lon}

    @classmethod
    def from_json(cls, obj: dict) -> "GeoPoint":
        return cls(lat=json_get(obj, "lat", float), lon=json_get(obj, "lon", float))


class RegionLevel(enum.Enum):
    COUNTRY = "country"
    PROVINCE = "province"
    CITY = "city"
    DISTRICT = "district"

    @property
    def depth(self) -> int:
        return _LEVEL_DEPTH[self]

    @property
    def child(self) -> "RegionLevel | None":
        return _LEVEL_ORDER[self.depth + 1] if self.depth + 1 < len(_LEVEL_ORDER) else None


_LEVEL_ORDER = [RegionLevel.COUNTRY, RegionLevel.PROVINCE, RegionLevel.CITY, RegionLevel.DISTRICT]
_LEVEL_DEPTH = {lvl: i for i, lvl in enumerate(_LEVEL_ORDER)}


@dataclass(frozen=True)
class AdminRegion:
    """An administrative region approximated as a disc around its centroid."""

    id: str
    level: RegionLevel
    name: str
    centroid: GeoPoint
    radius_km: float
    parent_id: str | None = None

    def __post_init__(self):
        if self.radius_km <= 0:
            raise ValueError(f"region {self.id!r}: radius_km must be positive")
        if (self.parent_id is None) != (self.level is RegionLevel.COUNTRY):
            raise ValueError(f"region {self.id!r}: parent_id must be absent iff level is country")

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "level": self.level.value,
            "name": self.name,
            "parent_id": self.parent_id,
            "lat": self.centroid.lat,
            "lon": self.centroid.lon,
            "radius_km": self.radius_km,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AdminRegion":
        return cls(
            id=json_get(obj, "id", str),
            level=RegionLevel(json_get(obj, "level", str)),
            name=json_get(obj, "name", str),
            parent_id=json_get(obj, "parent_id", (str, None), None),
            centroid=GeoPoint.from_json(obj),
            radius_km=json_get(obj, "radius_km", float),
        )


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in km on the R=6371 sphere.

    Past a quarter circumference (haversine ``h > 0.5``) the ``asin`` form
    loses precision, as ``h`` nears 1; there the distance is the ``atan2``
    of ``sqrt(h)`` and ``sqrt(1 - h)``, with ``1 - h`` summed from two
    non-negative terms, so that nothing cancels and the result stays
    symmetric in ``a`` and ``b``."""
    lat1, lon1, lat2, lon2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    if h > 0.5:
        rest = (math.cos(dlat / 2.0) ** 2 * math.cos(dlon / 2.0) ** 2
                + math.sin((lat1 + lat2) / 2.0) ** 2 * math.sin(dlon / 2.0) ** 2)
        return 2.0 * EARTH_RADIUS_KM * math.atan2(math.sqrt(h), math.sqrt(rest))
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def region_contains(region: AdminRegion, p: GeoPoint) -> bool:
    """Disc containment; the boundary (distance == radius) counts as inside."""
    return haversine_km(region.centroid, p) <= region.radius_km


#: Degrees of latitude per km of great-circle distance on the model sphere.
_DEG_PER_KM = 180.0 / (math.pi * EARTH_RADIUS_KM)

#: Extra km on each side of a latitude band, far above the float error of
#: ``haversine_km``, so rounding never drops a point a scan needs.
_BAND_SLACK_KM = 1.0


def lat_band(items: Sequence, lat: float, km: float, key=None) -> tuple[int, int]:
    """Bounds ``lo, hi`` of the run of ``items`` (ascending by latitude,
    read through ``key``) whose latitude is within ``km`` plus 1 km of slack
    of ``lat``.

    The band is an exact prefilter for distance: the great-circle distance
    between two points is at least ``R * |dlat|`` (``dlat`` in radians), so
    no item outside ``items[lo:hi]`` lies within ``km`` of a point at
    ``lat``. Unlike a lat/lon grid, it needs no longitude wrap and no cos-lat
    scaling.
    """
    half = (km + _BAND_SLACK_KM) * _DEG_PER_KM
    return (bisect.bisect_left(items, lat - half, key=key),
            bisect.bisect_right(items, lat + half, key=key))


# Suffixes stripped by normalize_city_name, checked after case-folding.
DEFAULT_CITY_SUFFIXES = ("市", " city", " shi")


def normalize_city_name(
    raw: str,
    suffixes: tuple[str, ...] = DEFAULT_CITY_SUFFIXES,
    aliases: dict[str, str] | None = None,
) -> str:
    """Canonicalize a city name: trim, case-fold, strip suffixes, apply aliases.

    Suffixes are stripped repeatedly and aliases chased to a fixed point so
    the function is idempotent. Alias keys and values are themselves
    normalized (minus aliasing) before lookup.
    """
    name = raw.strip().casefold()
    stripped = True
    while stripped and name:
        stripped = False
        for suffix in suffixes:
            sfx = suffix.casefold()
            if name.endswith(sfx) and len(name) > len(sfx):
                name = name[: -len(sfx)].strip()
                stripped = True
    if aliases:
        name = resolve_city_alias(name, {
            normalize_city_name(k, suffixes): normalize_city_name(v, suffixes)
            for k, v in aliases.items()
        })
    return name


def resolve_city_alias(name: str, table: Mapping[str, str]) -> str:
    """Chase a normalized ``name`` through ``table`` (an alias table with
    normalized keys and values) to a fixed point, or to the first repeat."""
    seen = set()
    while name in table and name not in seen:
        seen.add(name)
        name = table[name]
    return name


@dataclass(frozen=True, slots=True)
class Closure:
    """A constraint (a set of region ids) placed in one gazetteer's tree.

    ``above`` holds the strict ancestors of its known ids; ``covered`` its
    ids plus every descendant of its known ids, so a known region is in
    ``covered`` exactly when the constraint holds it or one of its
    ancestors. ``top`` is its antichain reduction: the ids without a strict
    ancestor among them. ``unknown`` is its first id, in iteration order,
    that the gazetteer lacks (``None`` when it knows them all); only then
    is ``top`` a set of regions.
    """

    above: frozenset[str]
    covered: frozenset[str]
    top: frozenset[str]
    unknown: str | None


#: Closures a gazetteer keeps; when full, it forgets them all and starts again.
CLOSURE_CACHE_SIZE = 1024


class Gazetteer:
    """Immutable directory of admin regions with hierarchy and name indexes.

    Construction validates all structural invariants (forest rooted at
    countries, level steps, centroid nesting, unique ids) and precomputes
    ancestor chains and subtree closures for O(1) consistency checks.

    Cities are also kept sorted by centroid latitude, so ``cities_near``
    finds their ``lat_band`` by bisection. The id-sorted regions and the
    roots are built once, here; each constraint's ``Closure`` once, when
    first asked for.
    """

    def __init__(self, regions: list[AdminRegion]):
        self._regions: dict[str, AdminRegion] = {}
        for r in regions:
            if r.id in self._regions:
                raise ValueError(f"duplicate region id {r.id!r}")
            self._regions[r.id] = r

        self._children: dict[str, tuple[str, ...]] = {}
        kids: dict[str, list[str]] = {r.id: [] for r in regions}
        for r in regions:
            if r.parent_id is not None:
                parent = self._regions.get(r.parent_id)
                if parent is None:
                    raise ValueError(f"region {r.id!r}: parent {r.parent_id!r} does not exist")
                if parent.level.depth + 1 != r.level.depth:
                    raise ValueError(
                        f"region {r.id!r}: level {r.level.value} is not one step below "
                        f"parent level {parent.level.value}"
                    )
                if haversine_km(r.centroid, parent.centroid) > parent.radius_km:
                    raise ValueError(f"region {r.id!r}: centroid outside parent disc")
                kids[r.parent_id].append(r.id)
        self._children = {rid: tuple(sorted(ids)) for rid, ids in kids.items()}

        # Ancestor chains double as the cycle check: parent levels strictly
        # decrease, so any walk terminates at a country root.
        self._ancestors: dict[str, tuple[str, ...]] = {}
        for r in regions:
            chain = []
            cur = r.parent_id
            while cur is not None:
                chain.append(cur)
                cur = self._regions[cur].parent_id
            self._ancestors[r.id] = tuple(chain)

        self._descendants: dict[str, frozenset[str]] = {}
        self._leaves: dict[str, frozenset[str]] = {}
        for rid in sorted(self._regions, key=lambda i: -self._regions[i].level.depth):
            desc: set[str] = set()
            leaf: set[str] = set()
            for child in self._children[rid]:
                desc.add(child)
                desc |= self._descendants[child]
                leaf |= self._leaves[child]
            self._descendants[rid] = frozenset(desc)
            self._leaves[rid] = frozenset(leaf) if leaf else frozenset({rid})

        self._name_index: dict[str, tuple[str, ...]] = {}
        by_name: dict[str, list[str]] = {}
        for r in regions:
            by_name.setdefault(normalize_city_name(r.name), []).append(r.id)
        self._name_index = {n: tuple(sorted(ids)) for n, ids in by_name.items()}

        self._sorted = tuple(self._regions[rid] for rid in sorted(self._regions))
        self._roots = tuple(r for r in self._sorted if r.parent_id is None)
        self._cities: tuple[AdminRegion, ...] = tuple(
            r for r in self._sorted if r.level is RegionLevel.CITY
        )
        self._cities_by_lat = sorted(self._cities, key=lambda r: (r.centroid.lat, r.id))
        self._city_lats = [c.centroid.lat for c in self._cities_by_lat]
        self._max_city_radius_km = max((c.radius_km for c in self._cities), default=0.0)
        self._content_hash: str | None = None
        self._closures: dict[frozenset[str], Closure] = {}

    def __len__(self) -> int:
        return len(self._regions)

    def __contains__(self, region_id: str) -> bool:
        return region_id in self._regions

    def get(self, region_id: str) -> AdminRegion:
        try:
            return self._regions[region_id]
        except KeyError:
            raise UnknownRegionError(region_id) from None

    def regions(self) -> list[AdminRegion]:
        return list(self._sorted)

    def roots(self) -> list[AdminRegion]:
        return list(self._roots)

    def children(self, region_id: str) -> tuple[str, ...]:
        self.get(region_id)
        return self._children[region_id]

    def ancestors(self, region_id: str) -> tuple[str, ...]:
        """Ancestor ids from parent up to the country root."""
        self.get(region_id)
        return self._ancestors[region_id]

    def descendants(self, region_id: str) -> frozenset[str]:
        self.get(region_id)
        return self._descendants[region_id]

    def leaf_cover(self, region_id: str) -> frozenset[str]:
        """Ids of the leaf regions under ``region_id`` (itself if childless)."""
        self.get(region_id)
        return self._leaves[region_id]

    def closure(self, ids: frozenset[str]) -> Closure:
        """The ``Closure`` of the constraint ``ids``.

        Evidence constraints recur (a tag table's carriers, one city), so
        each is computed once and kept, up to ``CLOSURE_CACHE_SIZE`` of
        them; one naming an unknown region is computed again on every call,
        so that ``unknown`` follows the iteration order of the set passed.
        Threads that race on one constraint may both compute it; each
        gazetteer keeps its own closures.
        """
        hit = self._closures.get(ids)
        if hit is not None:
            return hit
        above: set[str] = set()
        below: set[str] = set()
        unknown = None
        for rid in ids:
            if rid in self._regions:
                above.update(self._ancestors[rid])
                below |= self._descendants[rid]
            elif unknown is None:
                unknown = rid
        # Where nothing is added or dropped (most constraints name one city),
        # the closure shares ``ids`` instead of holding a copy.
        closure = Closure(frozenset(above), ids if below <= ids else ids | below,
                          ids if ids.isdisjoint(below) else ids - below, unknown)
        if unknown is None:
            if len(self._closures) >= CLOSURE_CACHE_SIZE:
                self._closures.clear()
            self._closures[ids] = closure
        return closure

    def cities(self) -> tuple[AdminRegion, ...]:
        return self._cities

    @property
    def max_city_radius_km(self) -> float:
        return self._max_city_radius_km

    def cities_near(self, p: GeoPoint, km: float) -> list[AdminRegion]:
        """Cities whose centroid latitude is within ``km`` (plus 1 km of
        slack) of ``p``'s, in id order: every city within ``km`` of ``p``
        and possibly more."""
        lo, hi = lat_band(self._city_lats, p.lat, km)
        return sorted(self._cities_by_lat[lo:hi], key=lambda c: c.id)

    def lookup_name(self, name: str) -> tuple[str, ...]:
        """Region ids whose normalized name equals the normalized input."""
        return self._name_index.get(normalize_city_name(name), ())

    def normalized_names(self) -> ItemsView[str, tuple[str, ...]]:
        """The name index as ``(normalized name, sorted region ids)`` pairs."""
        return self._name_index.items()

    def city_ancestor(self, region_id: str) -> AdminRegion | None:
        """The city-level region at or above ``region_id``, if any."""
        r = self.get(region_id)
        if r.level is RegionLevel.CITY:
            return r
        for aid in self._ancestors[region_id]:
            a = self._regions[aid]
            if a.level is RegionLevel.CITY:
                return a
        return None

    def content_hash(self) -> str:
        """Canonical hash of every region, computed once per gazetteer."""
        if self._content_hash is None:
            self._content_hash = canonical_hash([r.to_json() for r in self._sorted])
        return self._content_hash

    def to_json(self) -> list[dict]:
        return [r.to_json() for r in self._sorted]


def reverse_geocode(
    g: Gazetteer, p: GeoPoint, fallback_km: float = DEFAULT_FALLBACK_KM
) -> AdminRegion | None:
    """Map a point to a city-level region.

    Preference order: containing city disc with the smallest centroid
    distance; otherwise the nearest city centroid within ``fallback_km``.
    Ties break on lexicographic region id. None when nothing qualifies.

    Only the latitude band ``g.cities_near(p, max(fallback_km, largest city
    radius))`` is scanned, with the same result as a scan of every city: a
    city outside the band is farther from ``p`` than both its own radius and
    ``fallback_km``, because great-circle distance is at least ``R * |dlat|``.
    """
    best: tuple[float, str] | None = None
    nearest: tuple[float, str] | None = None
    for city in g.cities_near(p, max(fallback_km, g.max_city_radius_km)):
        d = haversine_km(city.centroid, p)
        if d <= city.radius_km and (best is None or (d, city.id) < best):
            best = (d, city.id)
        if nearest is None or (d, city.id) < nearest:
            nearest = (d, city.id)
    if best is not None:
        return g.get(best[1])
    if nearest is not None and nearest[0] <= fallback_km:
        return g.get(nearest[1])
    return None


def _iter_json_array(text: str, path: str):
    """Yield (1-based line, element) for each element of a JSON array.

    Elements are decoded one at a time so structural errors can be reported
    with the file's ``path`` and the line the offending record starts on.
    """
    i = 0
    n = len(text)

    def skip_ws(j: int) -> int:
        while j < n and text[j] in " \t\r\n":
            j += 1
        return j

    def line_at(j: int) -> int:
        return text.count("\n", 0, j) + 1

    i = skip_ws(i)
    if i >= n or text[i] != "[":
        raise GazetteerFileError(line_at(min(i, n - 1)) if n else 1, "expected a JSON array",
                                 path)
    i = skip_ws(i + 1)
    if i < n and text[i] == "]":
        return
    while True:
        start = i
        try:
            value, i = parse_json(text, i)
        except json.JSONDecodeError as e:
            raise GazetteerFileError(line_at(start), f"invalid JSON element: {e.msg}",
                                     path) from None
        yield line_at(start), value
        i = skip_ws(i)
        if i < n and text[i] == ",":
            i = skip_ws(i + 1)
            continue
        if i < n and text[i] == "]":
            return
        raise GazetteerFileError(line_at(min(i, n - 1)), "expected ',' or ']' after element",
                                 path)


def load_gazetteer(path: str) -> Gazetteer:
    """Load and validate a gazetteer from a JSON array of region records.

    Record shape: {id, level, name, parent_id, lat, lon, radius_km}.
    Any structural or invariant violation raises GazetteerFileError naming
    the file and the line of the offending record.
    """
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = decode_text(data)
    except json.JSONDecodeError as e:
        raise GazetteerFileError(e.lineno, e.msg, path) from None

    regions: list[AdminRegion] = []
    lines: dict[str, int] = {}
    for line, obj in _iter_json_array(text, path):
        if not isinstance(obj, dict):
            raise GazetteerFileError(line, "region record must be an object", path)
        try:
            region = AdminRegion.from_json(obj)
        except (KeyError, ValueError, TypeError) as e:
            raise GazetteerFileError(line, f"bad region record: {e}", path) from None
        if region.id in lines:
            raise GazetteerFileError(line, f"duplicate region id {region.id!r}", path)
        lines[region.id] = line
        regions.append(region)

    try:
        return Gazetteer(regions)
    except ValueError as e:
        # Attribute cross-record violations to the child record's line.
        msg = str(e)
        for rid, line in lines.items():
            if f"{rid!r}" in msg:
                raise GazetteerFileError(line, msg, path) from None
        raise GazetteerFileError(1, msg, path) from None


def save_gazetteer(g: Gazetteer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(g.to_json(), f, ensure_ascii=False, indent=2)
        f.write("\n")
