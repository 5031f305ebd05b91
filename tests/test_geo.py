"""Geographic primitives: distance oracle, containment, names, gazetteer."""

import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import small_gazetteer
from geoprobe import geo
from geoprobe.errors import GazetteerFileError, UnknownRegionError
from geoprobe.executor import _cities_containing
from geoprobe.geo import (
    EARTH_RADIUS_KM,
    AdminRegion,
    Gazetteer,
    GeoPoint,
    RegionLevel,
    haversine_km,
    load_gazetteer,
    normalize_city_name,
    region_contains,
    reverse_geocode,
    save_gazetteer,
)
from geoprobe.synthworld import generate_world

lats = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
lons = st.floats(min_value=-180.0, max_value=179.999999, allow_nan=False)
points = st.builds(GeoPoint, lats, lons)


def _reverse_geocode_oracle(g: Gazetteer, p: GeoPoint, fallback_km: float = 100.0):
    """Brute-force reverse geocoding: every city, (distance, id) order."""
    containing = [
        (haversine_km(c.centroid, p), c.id)
        for c in g.cities()
        if haversine_km(c.centroid, p) <= c.radius_km
    ]
    if containing:
        return min(containing)[1]
    near = min(((haversine_km(c.centroid, p), c.id) for c in g.cities()), default=None)
    return near[1] if near is not None and near[0] <= fallback_km else None


def _polar_gazetteer() -> Gazetteer:
    """Cities at the poles and astride the antimeridian, where a latitude
    band reaches past +-90 and wraps in longitude."""
    regions = [
        AdminRegion("n", RegionLevel.COUNTRY, "Borealia", GeoPoint(85.0, 175.0), 3000.0),
        AdminRegion("n-p", RegionLevel.PROVINCE, "Cap", GeoPoint(88.0, 179.0), 1000.0, "n"),
        AdminRegion("s", RegionLevel.COUNTRY, "Australis", GeoPoint(-85.0, -175.0), 3000.0),
        AdminRegion("s-p", RegionLevel.PROVINCE, "Floe", GeoPoint(-88.0, -179.0), 1000.0, "s"),
    ]
    cities = [
        ("n-p-a", 89.95, -179.5, 80.0), ("n-p-b", 89.5, 10.0, 60.0),
        ("n-p-c", 87.0, 179.9, 30.0), ("n-p-d", 86.5, -179.9, 50.0),
        ("s-p-a", -89.9, 120.0, 70.0), ("s-p-b", -87.5, 179.95, 25.0),
        ("s-p-c", -87.5, -179.95, 25.0),
    ]
    for cid, lat, lon, radius in cities:
        regions.append(AdminRegion(cid, RegionLevel.CITY, cid.upper(), GeoPoint(lat, lon),
                                   radius, cid[:3]))
    return Gazetteer(regions)


#: Gazetteers the latitude-band lookups are checked on: hand-built, the
#: 821-region synthetic world, and cities at the poles and the antimeridian.
BAND_GAZETTEERS = {
    "small": small_gazetteer(),
    "synth-20x40": generate_world(11, 20, 40).gazetteer,
    "polar": _polar_gazetteer(),
}


def _points_near(g: Gazetteer):
    """Points a few degrees from a city of ``g``, clamped to valid latitudes."""
    return st.builds(
        lambda c, dlat, dlon: GeoPoint(max(-90.0, min(90.0, c.centroid.lat + dlat)),
                                       c.centroid.lon + dlon),
        st.sampled_from(g.cities()),
        st.floats(-3.0, 3.0),
        st.floats(-3.0, 3.0),
    )


_extreme_points = st.builds(
    GeoPoint,
    st.one_of(st.floats(89.0, 90.0), st.floats(-90.0, -89.0), lats),
    st.one_of(st.floats(179.0, 180.0), st.floats(-180.0, -179.0), lons),
)


def _arc_oracle(a: GeoPoint, b: GeoPoint) -> float:
    """Independent great-circle formula (stable atan2 form) for cross-checks."""
    p1, l1, p2, l2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
    dl = l2 - l1
    num = math.hypot(
        math.cos(p2) * math.sin(dl),
        math.cos(p1) * math.sin(p2) - math.sin(p1) * math.cos(p2) * math.cos(dl),
    )
    den = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return EARTH_RADIUS_KM * math.atan2(num, den)


class TestHaversine:
    def test_antipodal_is_half_circumference(self):
        d = haversine_km(GeoPoint(0, 0), GeoPoint(0, 180))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM, abs=1e-9)
        assert d == 20015.086796020572  # frozen from the independent formula

    def test_quarter_circumference(self):
        d = haversine_km(GeoPoint(0, 0), GeoPoint(0, 90))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM / 2, rel=1e-12)

    def test_beijing_shanghai(self):
        bj = GeoPoint(39.9042, 116.4074)
        sh = GeoPoint(31.2304, 121.4737)
        d = haversine_km(bj, sh)
        assert d == 1067.310170927129  # frozen from the independent formula
        # Sanity band against the well-known real-world distance (~1067 km).
        assert abs(d - 1067.0) / 1067.0 < 0.005

    def test_one_degree_latitude(self):
        d = haversine_km(GeoPoint(30, 120), GeoPoint(31, 120))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM / 180.0, rel=1e-12)
        assert d == 111.19492664455889  # frozen

    @given(points, points)
    @example(GeoPoint(0.0, 0.0), GeoPoint(0.0, 179.999999))
    def test_matches_independent_formula(self, a, b):
        # The asin form loses a little precision for near-antipodal pairs
        # (cancellation as the haversine approaches 1), so allow a relative
        # term on top of the absolute one; 1e-8 relative is ~0.2 m at the
        # half-circumference, orders below any tolerance used elsewhere.
        assert haversine_km(a, b) == pytest.approx(
            _arc_oracle(a, b), rel=1e-8, abs=1e-6)

    @given(points, points)
    def test_symmetric(self, a, b):
        assert haversine_km(a, b) == haversine_km(b, a)

    @given(points)
    def test_self_distance_zero(self, p):
        assert haversine_km(p, p) == 0.0

    @given(points, points)
    def test_range(self, a, b):
        d = haversine_km(a, b)
        assert 0.0 <= d <= math.pi * EARTH_RADIUS_KM + 1e-9

    @given(points, points, points)
    @example(GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0), GeoPoint(0.0, 179.999999))
    def test_triangle_inequality(self, a, b, c):
        assert haversine_km(a, c) <= haversine_km(a, b) + haversine_km(b, c) + 1e-6

    @given(points, points)
    def test_asin_form_up_to_a_quarter_circumference(self, a, b):
        """Pairs up to a quarter circumference apart keep the plain ``asin``
        haversine's value bit for bit; farther pairs keep the same distance
        within rounding."""
        p1, l1, p2, l2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
        h = (math.sin((p2 - p1) / 2.0) ** 2
             + math.cos(p1) * math.cos(p2) * math.sin((l2 - l1) / 2.0) ** 2)
        asin_km = 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))
        if h <= 0.5:
            assert haversine_km(a, b) == asin_km
        else:
            assert haversine_km(a, b) == pytest.approx(asin_km, rel=1e-7)


class TestGeoPoint:
    def test_lat_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            GeoPoint(90.0001, 0)
        with pytest.raises(ValueError):
            GeoPoint(-91, 0)

    def test_lon_normalized(self):
        assert GeoPoint(0, 190).lon == -170.0
        assert GeoPoint(0, -190).lon == 170.0
        assert GeoPoint(0, 180).lon == -180.0
        assert GeoPoint(0, 540).lon == -180.0
        assert GeoPoint(0, -180).lon == -180.0
        assert GeoPoint(0, 0).lon == 0.0

    @given(lats, st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_lon_always_in_range(self, lat, lon):
        p = GeoPoint(lat, lon)
        assert -180.0 <= p.lon < 180.0

    def test_normalization_preserves_distance(self):
        a = GeoPoint(10, 350)
        b = GeoPoint(10, -10)
        assert a == b
        assert haversine_km(a, GeoPoint(20, -10)) == haversine_km(b, GeoPoint(20, -10))

    def test_json_roundtrip(self):
        p = GeoPoint(12.5, -33.25)
        assert GeoPoint.from_json(p.to_json()) == p


class TestRegionLevel:
    def test_depth_order(self):
        assert [lvl.depth for lvl in (
            RegionLevel.COUNTRY, RegionLevel.PROVINCE, RegionLevel.CITY, RegionLevel.DISTRICT
        )] == [0, 1, 2, 3]

    def test_child_chain(self):
        assert RegionLevel.COUNTRY.child is RegionLevel.PROVINCE
        assert RegionLevel.PROVINCE.child is RegionLevel.CITY
        assert RegionLevel.CITY.child is RegionLevel.DISTRICT
        assert RegionLevel.DISTRICT.child is None


class TestAdminRegion:
    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            AdminRegion("x", RegionLevel.COUNTRY, "X", GeoPoint(0, 0), 0.0)

    def test_parent_absent_iff_country(self):
        with pytest.raises(ValueError):
            AdminRegion("x", RegionLevel.CITY, "X", GeoPoint(0, 0), 1.0)  # no parent
        with pytest.raises(ValueError):
            AdminRegion("x", RegionLevel.COUNTRY, "X", GeoPoint(0, 0), 1.0, "y")

    def test_json_roundtrip(self):
        r = AdminRegion("cn-a-1", RegionLevel.CITY, "Rivertown", GeoPoint(30.5, 114.3), 50.0, "cn-a")
        assert AdminRegion.from_json(r.to_json()) == r

    def test_boundary_point_inside(self):
        c = GeoPoint(10, 10)
        p = GeoPoint(10.37, 10)
        r = AdminRegion("x", RegionLevel.COUNTRY, "X", c, haversine_km(c, p))
        assert region_contains(r, p)
        assert not region_contains(r, GeoPoint(10.371, 10))


class TestNormalizeCityName:
    def test_basic(self):
        assert normalize_city_name("  Shanghai City ") == "shanghai"
        assert normalize_city_name("武汉市") == "武汉"
        assert normalize_city_name("OSAKA shi") == "osaka"

    def test_repeated_suffixes(self):
        assert normalize_city_name("Foo City City") == "foo"
        assert normalize_city_name("Bar市市") == "bar"

    def test_suffix_only_name_kept(self):
        # Stripping would leave an empty string, so the name stays as-is.
        assert normalize_city_name("市") == "市"
        assert normalize_city_name("City") == "city"

    def test_aliases_chased_to_fixed_point(self):
        aliases = {"Peking": "Beijing City", "beijing": "beijing"}
        assert normalize_city_name("PEKING", aliases=aliases) == "beijing"

    def test_alias_cycle_terminates(self):
        aliases = {"a": "b", "b": "a"}
        assert normalize_city_name("a", aliases=aliases) in {"a", "b"}

    @given(st.text(max_size=40))
    def test_idempotent(self, raw):
        once = normalize_city_name(raw)
        assert normalize_city_name(once) == once

    @given(st.text(max_size=30))
    def test_idempotent_with_aliases(self, raw):
        aliases = {"old town": "newton", "newton": "newton"}
        once = normalize_city_name(raw, aliases=aliases)
        assert normalize_city_name(once, aliases=aliases) == once


class TestGazetteer:
    def test_len_contains_get(self, gaz):
        assert len(gaz) == 11
        assert "cn-a-1" in gaz
        assert "nope" not in gaz
        assert gaz.get("cn-a-1").name == "Rivertown"
        with pytest.raises(UnknownRegionError):
            gaz.get("nope")

    def test_roots_and_children(self, gaz):
        assert [r.id for r in gaz.roots()] == ["cn", "jp"]
        assert gaz.children("cn") == ("cn-a", "cn-b")
        assert gaz.children("cn-a-1") == ("cn-a-1-x", "cn-a-1-y")
        assert gaz.children("jp-a-1") == ()

    def test_regions_and_roots_are_id_sorted_copies(self):
        g = Gazetteer(list(reversed(small_gazetteer().regions())))
        ids = [r.id for r in g.regions()]
        assert ids == sorted(ids)
        g.regions().clear()
        g.roots().clear()
        assert [r.id for r in g.regions()] == ids
        assert [r.id for r in g.roots()] == ["cn", "jp"]

    def test_ancestors(self, gaz):
        assert gaz.ancestors("cn-a-1-x") == ("cn-a-1", "cn-a", "cn")
        assert gaz.ancestors("cn") == ()

    def test_descendants(self, gaz):
        assert gaz.descendants("cn-a") == {"cn-a-1", "cn-a-1-x", "cn-a-1-y", "cn-a-2"}
        assert gaz.descendants("jp-a-1") == frozenset()

    def test_leaf_cover(self, gaz):
        assert gaz.leaf_cover("cn-a") == {"cn-a-1-x", "cn-a-1-y", "cn-a-2"}
        assert gaz.leaf_cover("cn-a-2") == {"cn-a-2"}
        assert gaz.leaf_cover("jp") == {"jp-a-1"}

    def test_cities(self, gaz):
        assert [c.id for c in gaz.cities()] == ["cn-a-1", "cn-a-2", "cn-b-1", "jp-a-1"]

    def test_city_ancestor(self, gaz):
        assert gaz.city_ancestor("cn-a-1-x").id == "cn-a-1"
        assert gaz.city_ancestor("cn-a-1").id == "cn-a-1"
        assert gaz.city_ancestor("cn-a") is None
        assert gaz.city_ancestor("cn") is None

    def test_lookup_name_normalized(self, gaz):
        assert gaz.lookup_name("rivertown") == ("cn-a-1",)
        assert gaz.lookup_name("Rivertown City") == ("cn-a-1",)
        assert gaz.lookup_name("atlantis") == ()

    def test_duplicate_id_rejected(self):
        r = AdminRegion("x", RegionLevel.COUNTRY, "X", GeoPoint(0, 0), 10.0)
        with pytest.raises(ValueError, match="duplicate"):
            Gazetteer([r, r])

    def test_unknown_parent_rejected(self):
        r = AdminRegion("p1", RegionLevel.PROVINCE, "P", GeoPoint(0, 0), 10.0, "ghost")
        with pytest.raises(ValueError, match="does not exist"):
            Gazetteer([r])

    def test_level_step_enforced(self):
        country = AdminRegion("c", RegionLevel.COUNTRY, "C", GeoPoint(0, 0), 100.0)
        skip = AdminRegion("x", RegionLevel.CITY, "X", GeoPoint(0, 0.1), 5.0, "c")
        with pytest.raises(ValueError, match="one step below"):
            Gazetteer([country, skip])

    def test_child_centroid_must_be_inside_parent(self):
        country = AdminRegion("c", RegionLevel.COUNTRY, "C", GeoPoint(0, 0), 100.0)
        far = AdminRegion("p", RegionLevel.PROVINCE, "P", GeoPoint(0, 20), 5.0, "c")
        with pytest.raises(ValueError, match="outside parent"):
            Gazetteer([country, far])

    def test_content_hash_insensitive_to_input_order(self, gaz):
        reshuffled = Gazetteer(list(reversed(gaz.regions())))
        assert reshuffled.content_hash() == gaz.content_hash()

    def test_content_hash_changes_with_content(self, gaz):
        regions = gaz.regions()
        regions[0] = AdminRegion(
            regions[0].id, regions[0].level, "Renamed", regions[0].centroid, regions[0].radius_km
        )
        assert Gazetteer(regions).content_hash() != gaz.content_hash()


class TestReverseGeocode:
    def test_inside_disc(self, gaz):
        assert reverse_geocode(gaz, GeoPoint(30.5, 114.3)).id == "cn-a-1"
        assert reverse_geocode(gaz, GeoPoint(35.7, 139.7)).id == "jp-a-1"

    def test_fallback_nearest_within_default(self, gaz):
        # ~55 km north of Harborville's 45 km disc edge is still within 100.
        p = GeoPoint(39.95, 117.2)
        assert haversine_km(p, GeoPoint(39.1, 117.2)) > 45.0
        assert reverse_geocode(gaz, p).id == "cn-b-1"

    def test_fallback_radius_respected(self, gaz):
        p = GeoPoint(44.0, 117.2)  # ~545 km from the nearest city
        assert reverse_geocode(gaz, p) is None
        assert reverse_geocode(gaz, p, fallback_km=600.0).id == "cn-b-1"

    def test_tie_breaks_on_id(self):
        regs = [
            AdminRegion("c", RegionLevel.COUNTRY, "C", GeoPoint(0, 0), 1000.0),
            AdminRegion("c-p", RegionLevel.PROVINCE, "P", GeoPoint(0, 0), 500.0, "c"),
            AdminRegion("c-p-a", RegionLevel.CITY, "A", GeoPoint(0, 0.1), 50.0, "c-p"),
            AdminRegion("c-p-b", RegionLevel.CITY, "B", GeoPoint(0, -0.1), 50.0, "c-p"),
        ]
        g = Gazetteer(regs)
        # (0, 0) is inside both discs at identical centroid distance.
        assert reverse_geocode(g, GeoPoint(0, 0)).id == "c-p-a"

    def test_brute_force_oracle(self):
        rng = random.Random(20250823)
        regs = [
            AdminRegion("w", RegionLevel.COUNTRY, "W", GeoPoint(5, 15), 5000.0),
            AdminRegion("w-a", RegionLevel.PROVINCE, "PA", GeoPoint(10, 10), 900.0, "w"),
            AdminRegion("w-b", RegionLevel.PROVINCE, "PB", GeoPoint(-5, 20), 900.0, "w"),
        ]
        for i in range(20):
            prov = regs[1 + (i % 2)]
            c = GeoPoint(
                prov.centroid.lat + rng.uniform(-5, 5),
                prov.centroid.lon + rng.uniform(-5, 5),
            )
            regs.append(
                AdminRegion(f"{prov.id}-{i:02d}", RegionLevel.CITY, f"City{i}", c,
                            rng.uniform(10, 80), prov.id)
            )
        g = Gazetteer(regs)

        for _ in range(300):
            p = GeoPoint(rng.uniform(-15, 20), rng.uniform(0, 30))
            got = reverse_geocode(g, p)
            assert (got.id if got else None) == _reverse_geocode_oracle(g, p)


@pytest.mark.parametrize("name", sorted(BAND_GAZETTEERS))
class TestLatitudeBand:
    """The banded lookups must equal scans over every city."""

    @given(data=st.data(), fallback_km=st.one_of(st.floats(0.0, 100.0),
                                                 st.floats(0.0, 3000.0)))
    def test_reverse_geocode_matches_brute_force(self, name, data, fallback_km):
        g = BAND_GAZETTEERS[name]
        p = data.draw(st.one_of(_points_near(g), _extreme_points))
        got = reverse_geocode(g, p, fallback_km=fallback_km)
        assert (got.id if got else None) == _reverse_geocode_oracle(g, p, fallback_km)

    @given(data=st.data())
    def test_cities_containing_matches_brute_force(self, name, data):
        g = BAND_GAZETTEERS[name]
        p = data.draw(st.one_of(_points_near(g), _extreme_points))
        assert _cities_containing(g, p) == [c.id for c in g.cities() if region_contains(c, p)]

    def test_band_holds_every_city_within_reach(self, name):
        g = BAND_GAZETTEERS[name]
        for c in random.Random(name).sample(g.cities(), min(40, len(g.cities()))):
            for km in (0.0, g.max_city_radius_km, 500.0):
                near = g.cities_near(c.centroid, km)
                assert [x.id for x in near] == sorted(x.id for x in near)
                assert {x.id for x in g.cities() if haversine_km(x.centroid, c.centroid) <= km} \
                    <= {x.id for x in near}


def test_reverse_geocode_scans_a_fraction_of_the_cities(monkeypatch):
    g = BAND_GAZETTEERS["synth-20x40"]
    calls = 0
    exact = geo.haversine_km

    def counting(a, b):
        nonlocal calls
        calls += 1
        return exact(a, b)

    monkeypatch.setattr(geo, "haversine_km", counting)
    for c in g.cities()[::40]:
        calls = 0
        assert reverse_geocode(g, c.centroid) is c
        assert calls < len(g.cities()) / 5


class TestGazetteerFiles:
    def test_roundtrip(self, gaz, tmp_path):
        path = tmp_path / "gaz.json"
        save_gazetteer(gaz, str(path))
        loaded = load_gazetteer(str(path))
        assert loaded.content_hash() == gaz.content_hash()
        assert [r.id for r in loaded.regions()] == [r.id for r in gaz.regions()]

    def test_not_an_array(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"id": "x"}\n')
        with pytest.raises(GazetteerFileError) as ei:
            load_gazetteer(str(path))
        assert ei.value.line == 1

    def test_error_names_the_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[\n{"id": "c"}\n]\n')
        with pytest.raises(GazetteerFileError) as ei:
            load_gazetteer(str(path))
        assert ei.value.path == str(path)
        assert ei.value.line == 2
        assert str(ei.value).startswith(f"{path}: line 2: bad region record")

    def test_malformed_element_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[\n{"id": "c", "level": "country", "name": "C", "parent_id": null,'
                        ' "lat": 0, "lon": 0, "radius_km": 10},\n{"id": },\n]\n')
        with pytest.raises(GazetteerFileError) as ei:
            load_gazetteer(str(path))
        assert ei.value.line == 3

    def test_missing_field_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[\n{"id": "c"}\n]\n')
        with pytest.raises(GazetteerFileError, match="bad region record") as ei:
            load_gazetteer(str(path))
        assert ei.value.line == 2

    def test_duplicate_id_line(self, tmp_path):
        rec = ('{"id": "c", "level": "country", "name": "C", "parent_id": null,'
               ' "lat": 0, "lon": 0, "radius_km": 10}')
        path = tmp_path / "bad.json"
        path.write_text(f"[\n{rec},\n{rec}\n]\n")
        with pytest.raises(GazetteerFileError, match="duplicate") as ei:
            load_gazetteer(str(path))
        assert ei.value.line == 3

    def test_unknown_parent_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[\n{"id": "p", "level": "province", "name": "P", "parent_id": "ghost",'
                        ' "lat": 0, "lon": 0, "radius_km": 10}\n]\n')
        with pytest.raises(GazetteerFileError, match="does not exist") as ei:
            load_gazetteer(str(path))
        assert ei.value.line == 2

    def test_nesting_violation_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '[\n'
            '{"id": "c", "level": "country", "name": "C", "parent_id": null,'
            ' "lat": 0, "lon": 0, "radius_km": 100},\n'
            '{"id": "c-p", "level": "province", "name": "P", "parent_id": "c",'
            ' "lat": 0, "lon": 20, "radius_km": 5}\n'
            ']\n'
        )
        with pytest.raises(GazetteerFileError, match="outside parent") as ei:
            load_gazetteer(str(path))
        assert ei.value.line == 3

    def test_empty_array_is_valid(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]\n")
        assert len(load_gazetteer(str(path))) == 0
