import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringalert.errors import InvalidCoordinate
from ringalert.geo import (
    EARTH_RADIUS_KM,
    GeoPoint,
    KmDistance,
    displace,
    enu_offset_km,
    great_circle_km,
    initial_bearing_deg,
    interpolate,
    normalize_lon,
    offset_point,
)

lat_st = st.floats(min_value=-89.0, max_value=89.0)
lon_st = st.floats(min_value=-179.999, max_value=180.0)
points_st = st.builds(GeoPoint, lat_st, lon_st)


class TestGeoPoint:
    def test_rejects_out_of_range_latitude(self):
        with pytest.raises(InvalidCoordinate):
            GeoPoint(90.5, 0.0)
        with pytest.raises(InvalidCoordinate):
            GeoPoint(float("nan"), 0.0)

    def test_longitude_normalization(self):
        assert GeoPoint(0.0, 181.0) == GeoPoint(0.0, -179.0)
        assert GeoPoint(0.0, -180.0).lon_deg == 180.0
        assert GeoPoint(0.0, 180.0).lon_deg == 180.0
        assert GeoPoint(0.0, 540.0).lon_deg == 180.0

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_normalize_lon_range(self, lon):
        folded = normalize_lon(lon)
        assert -180.0 < folded <= 180.0

    def test_serialization_round_trip(self):
        p = GeoPoint(12.5, -33.25)
        assert GeoPoint.from_dict(p.to_dict()) == p


class TestGreatCircle:
    def test_identity_is_zero(self):
        p = GeoPoint(0.0, 0.0)
        assert great_circle_km(p, p).km == 0.0

    def test_one_degree_along_equator(self):
        # closed form: 2 pi R / 360
        expected = 2.0 * math.pi * EARTH_RADIUS_KM / 360.0
        d = great_circle_km(GeoPoint(0, 0), GeoPoint(0, 1)).km
        assert d == pytest.approx(expected, abs=1e-9)
        assert d == pytest.approx(111.19, abs=0.005)

    def test_antipodal_is_half_circumference(self):
        expected = math.pi * EARTH_RADIUS_KM
        d = great_circle_km(GeoPoint(0, 0), GeoPoint(0, 180)).km
        assert d == pytest.approx(expected, abs=1e-6)
        assert d == pytest.approx(20015.1, abs=0.05)

    @given(points_st, points_st)
    def test_symmetric_and_nonnegative(self, a, b):
        d_ab = great_circle_km(a, b).km
        d_ba = great_circle_km(b, a).km
        assert d_ab >= 0.0
        assert d_ab == pytest.approx(d_ba, abs=1e-9)

    @given(points_st, points_st, points_st)
    @settings(max_examples=150)
    # a and c are nearly antipodal, where the arcsin of a haversine loses digits
    @example(GeoPoint(0, 0.00390625), GeoPoint(0, 1), GeoPoint(0, 180))
    def test_triangle_inequality(self, a, b, c):
        d_ac = great_circle_km(a, c).km
        d_ab = great_circle_km(a, b).km
        d_bc = great_circle_km(b, c).km
        assert d_ac <= d_ab + d_bc + 1e-9


class TestDisplace:
    def test_zero_distance_is_identity(self):
        p = GeoPoint(10.0, 10.0)
        assert displace(p, 37.0, 0.0) == p
        assert displace(p, 37.0, KmDistance(0.0)) == p

    def test_eastward_along_equator(self):
        d = 2.0 * math.pi * EARTH_RADIUS_KM / 360.0
        q = displace(GeoPoint(0, 0), 90.0, d)
        assert q.lat_deg == pytest.approx(0.0, abs=1e-9)
        assert q.lon_deg == pytest.approx(1.0, abs=1e-9)

    def test_northward_along_meridian(self):
        d = 2.0 * math.pi * EARTH_RADIUS_KM / 360.0
        q = displace(GeoPoint(0, 0), 0.0, d)
        assert q.lat_deg == pytest.approx(1.0, abs=1e-9)
        assert q.lon_deg == pytest.approx(0.0, abs=1e-9)

    @given(points_st, st.floats(min_value=0, max_value=360),
           st.floats(min_value=0, max_value=100))
    @settings(max_examples=150)
    def test_distance_round_trip(self, p, course, d):
        q = displace(p, course, d)
        assert great_circle_km(p, q).km == pytest.approx(d, abs=1e-6)

    @given(points_st, st.floats(min_value=0, max_value=360),
           st.floats(min_value=1e-3, max_value=100))
    def test_bearing_matches_course(self, p, course, d):
        q = displace(p, course, d)
        back = initial_bearing_deg(p, q)
        diff = (back - course + 180.0) % 360.0 - 180.0
        assert abs(diff) < 1e-6


class TestLocalOffsets:
    @given(points_st, st.floats(min_value=-50, max_value=50),
           st.floats(min_value=-50, max_value=50))
    def test_offset_round_trip(self, origin, east, north):
        east_back, north_back = enu_offset_km(origin, offset_point(origin, east, north))
        assert east_back == pytest.approx(east, abs=1e-9)
        assert north_back == pytest.approx(north, abs=1e-9)

    def test_zero_offset(self):
        origin = GeoPoint(45.0, -120.0)
        assert offset_point(origin, 0.0, 0.0) == origin
        assert enu_offset_km(origin, origin) == (0.0, 0.0)


class TestInterpolate:
    def test_endpoints(self):
        a, b = GeoPoint(10, 20), GeoPoint(-5, 60)
        assert great_circle_km(interpolate(a, b, 0.0), a).km < 1e-9
        assert great_circle_km(interpolate(a, b, 1.0), b).km < 1e-9

    @given(points_st, points_st)
    @settings(max_examples=100)
    def test_midpoint_is_equidistant(self, a, b):
        mid = interpolate(a, b, 0.5)
        d1 = great_circle_km(a, mid).km
        d2 = great_circle_km(mid, b).km
        assert d1 == pytest.approx(d2, abs=1e-6)

    def test_constant_speed_split(self):
        a, b = GeoPoint(0, 0), GeoPoint(0, 10)
        quarter = interpolate(a, b, 0.25)
        assert great_circle_km(a, quarter).km == pytest.approx(
            0.25 * great_circle_km(a, b).km, abs=1e-9
        )


class TestKmDistance:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            KmDistance(-1.0)

    def test_holds_value(self):
        assert KmDistance(12.5).km == 12.5
