import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringalert.errors import InvalidCoordinate
from ringalert.geo import (
    EARTH_RADIUS_KM,
    GeoPoint,
    KmDistance,
    arc_km,
    displace,
    great_circle_km,
    displace_deg,
    interpolate,
    local_offsets_km,
    mod360,
    normalize_lon,
    normalize_lon_array,
    slerp,
    unit_vectors,
)
from tests.conftest import bearing_deg, haversine_km

lat_st = st.floats(min_value=-89.0, max_value=89.0)
lon_st = st.floats(min_value=-179.999, max_value=180.0)
points_st = st.builds(GeoPoint, lat_st, lon_st)


class TestGeoPoint:
    def test_rejects_out_of_range_latitude(self):
        with pytest.raises(InvalidCoordinate):
            GeoPoint(90.5, 0.0)
        with pytest.raises(InvalidCoordinate):
            GeoPoint(float("nan"), 0.0)

    @pytest.mark.parametrize("lat, lon", [("12", True), (" 1e1 ", 0), (0.0, "0"), (True, 0.0),
                                          (None, 0.0), (0.0, [1.0]), (10**400, 0.0),
                                          (0.0, -10**400)])
    def test_rejects_non_numbers(self, lat, lon):
        with pytest.raises(InvalidCoordinate):
            GeoPoint(lat, lon)

    @pytest.mark.parametrize("number", [int, float, np.int64, np.int32, np.float64, np.float32])
    def test_takes_python_and_numpy_numbers_as_floats(self, number):
        point = GeoPoint(number(12), number(-170))
        assert point == GeoPoint(12.0, -170.0)
        assert type(point.lat_deg) is float and type(point.lon_deg) is float

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

    @given(st.lists(st.tuples(points_st, points_st), min_size=1, max_size=40))
    @example([(GeoPoint(0, 0.00390625), GeoPoint(0, 180)), (GeoPoint(10, 20), GeoPoint(10, 20))])
    def test_scalar_equals_the_array_kernel(self, pairs):
        # a distance column and the same distances taken pair by pair agree bit for bit
        lat1, lon1, lat2, lon2 = (np.array(c) for c in zip(*(
            (a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg) for a, b in pairs)))
        column = arc_km(lat1, lon1, lat2, lon2)
        assert column.tolist() == [great_circle_km(a, b).km for a, b in pairs]


class TestDisplace:
    def test_zero_distance_is_identity(self):
        p = GeoPoint(10.0, 10.0)
        assert displace(p, 37.0, 0.0) == p

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
    @example(GeoPoint(89.0, 0.0), 89.0, 1e-3)
    @example(GeoPoint(89.0, 0.0), 235.0, 1e-3)
    def test_bearing_matches_course(self, p, course, d):
        q = displace(p, course, d)
        back = float(bearing_deg(p.lat_deg, p.lon_deg, q.lat_deg, q.lon_deg))
        diff = (back - course + 180.0) % 360.0 - 180.0
        assert abs(diff) < 1e-6


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def normalize_lon_array_by_percent(lon):
    """Reference: the fold written with numpy's float ``%``."""
    lon = np.asarray(lon, dtype=float) % 360.0
    return np.where(lon > 180.0, lon - 360.0, lon)


def displace_deg_unsplit(lat, lon, course_deg, d_km):
    """Reference: the destination formula in one piece, with numpy's float ``%``."""
    phi = np.radians(lat)
    lam = np.radians(lon)
    theta = np.radians(course_deg)
    delta = np.asarray(d_km, dtype=float) / EARTH_RADIUS_KM
    north = np.sin(delta) * np.cos(theta)
    x = np.cos(phi) * np.cos(delta) - np.sin(phi) * north
    y = np.sin(theta) * np.sin(delta)
    sin_phi2 = np.sin(phi) * np.cos(delta) + np.cos(phi) * north
    phi2 = np.arctan2(sin_phi2, np.sqrt(x * x + y * y))
    lam2 = lam + np.arctan2(y, x)
    return np.degrees(phi2), normalize_lon_array_by_percent(np.degrees(lam2))


class TestExactKernel:
    """The fmod remainder and the displacement change no output bit."""

    @given(st.floats(allow_nan=True, allow_infinity=True))
    @example(0.0)
    @example(-0.0)
    @example(360.0)
    @example(-360.0)
    @example(180.0)
    @example(-180.0)
    @example(float(np.nextafter(360.0, 0.0)))
    @example(float(np.nextafter(-360.0, 0.0)))
    @example(1e17)
    @example(-1e17)
    @example(math.inf)
    @example(-math.inf)
    @example(math.nan)
    def test_mod360_is_percent_bit_for_bit(self, x):
        x = np.array([x])
        with np.errstate(invalid="ignore"):  # inf has no remainder: both sides give NaN
            got, want = mod360(x), x % 360.0
        if np.isnan(want[0]):
            assert np.isnan(got[0])
        else:
            assert bits(got)[0] == bits(want)[0]

    def test_normalize_lon_array_unchanged(self):
        rng = np.random.default_rng(5)
        edges = [0.0, -0.0, 180.0, -180.0, 360.0, -360.0, 540.0, -540.0, 1e17, -1e17,
                 np.nextafter(180.0, 0.0), np.nextafter(180.0, 360.0),
                 np.nextafter(360.0, 0.0), np.nextafter(-360.0, 0.0), 5e-324, -5e-324]
        lon = np.concatenate((edges, rng.uniform(-1080.0, 1080.0, 20_000)))
        assert np.array_equal(bits(normalize_lon_array(lon)),
                              bits(normalize_lon_array_by_percent(lon)))

    def test_displace_deg_unchanged(self):
        rng = np.random.default_rng(6)
        n = 20_000
        lat = np.concatenate(([90.0, -90.0, 0.0, -0.0], rng.uniform(-90.0, 90.0, n)))
        lon = np.concatenate(([180.0, -180.0, 0.0, -0.0], rng.uniform(-540.0, 540.0, n)))
        course = np.concatenate(([0.0, 90.0, 180.0, 270.0], rng.uniform(-720.0, 720.0, n)))
        d_km = np.concatenate(([0.0, 1e-9, 20_015.0, 40_000.0], rng.uniform(0.0, 3000.0, n)))
        for args in ((lat, lon, course, d_km), (lat, lon, 57.0, d_km),
                     (lat[5], lon[5], course[5], d_km[5])):
            for got, want in zip(displace_deg(*args), displace_deg_unsplit(*args)):
                assert np.array_equal(bits(got), bits(want))


def stacked_unit_vectors(lat, lon):
    """Reference: unit vectors stacked on a last axis of 3."""
    phi, lam = np.radians(lat), np.radians(lon)
    return np.stack([np.cos(phi) * np.cos(lam), np.cos(phi) * np.sin(lam), np.sin(phi)], axis=-1)


def stacked_slerp(u, v, fraction):
    """Reference: slerp on (..., 3) arrays, with numpy's last-axis sum and norm."""
    omega = np.arccos(np.clip(np.sum(u * v, axis=-1), -1.0, 1.0))
    f = np.asarray(fraction, dtype=float)
    sin_omega = np.sin(omega)
    safe = sin_omega > 1e-12
    w1 = np.where(safe, np.sin((1.0 - f) * omega) / np.where(safe, sin_omega, 1.0), 1.0 - f)
    w2 = np.where(safe, np.sin(f * omega) / np.where(safe, sin_omega, 1.0), f)
    w = u * w1[..., None] + v * w2[..., None]
    return w / np.linalg.norm(w, axis=-1)[..., None]


degrees_st = st.lists(st.tuples(st.floats(-90.0, 90.0), st.floats(-540.0, 540.0),
                                st.floats(-90.0, 90.0), st.floats(-540.0, 540.0),
                                st.floats(-0.5, 1.5)), min_size=1, max_size=30)


class TestColumnTriples:
    """The kernels on (x, y, z) columns give the stacked formulas' bits."""

    @given(degrees_st)
    @example([(10.0, 20.0, 10.0, 20.0, 0.5), (0.0, 0.0, 0.0, 180.0, 0.25),
              (90.0, 0.0, -90.0, 0.0, 0.5), (-0.0, -0.0, 0.0, 0.0, 1.0)])
    @settings(max_examples=200)
    def test_bit_for_bit(self, rows):
        lat1, lon1, lat2, lon2, f = (np.array(c) for c in zip(*rows))
        u, v = unit_vectors(lat1, lon1), unit_vectors(lat2, lon2)
        u_stack, v_stack = stacked_unit_vectors(lat1, lon1), stacked_unit_vectors(lat2, lon2)
        assert np.array_equal(bits(np.stack(u, axis=-1)), bits(u_stack))
        with np.errstate(invalid="ignore", divide="ignore"):
            got, want = np.stack(slerp(u, v, f), axis=-1), stacked_slerp(u_stack, v_stack, f)
        assert np.array_equal(bits(got), bits(want))
        # the offsets of v in u's frame, and the chord that ground speeds take
        assert all(np.array_equal(bits(a), bits(b)) for a, b in zip(
            local_offsets_km(u, v), local_offsets_km(*(np.moveaxis(w, -1, 0)
                                                       for w in (u_stack, v_stack)))))
        dx, dy, dz = (a - b for a, b in zip(u, v))
        assert np.array_equal(bits(np.sqrt(dx * dx + dy * dy + dz * dz)),
                              bits(np.linalg.norm(u_stack - v_stack, axis=-1)))


class TestLocalOffsets:
    def test_matches_the_haversine_and_bearing_oracles(self):
        # seeded pairs within 3,000 km: (d sin θ, d cos θ, d) of the oracles
        rng = np.random.default_rng(2010)
        lat = rng.uniform(-89.9, 89.9, 5000)
        lon = rng.uniform(-180.0, 180.0, 5000)
        lat2, lon2 = displace_deg(lat, lon, rng.uniform(0.0, 360.0, 5000),
                                  rng.uniform(0.0, 3000.0, 5000))
        east, north, d = local_offsets_km(unit_vectors(lat, lon), unit_vectors(lat2, lon2))
        d_ref = haversine_km(lat, lon, lat2, lon2)
        theta = np.radians(bearing_deg(lat, lon, lat2, lon2))
        assert np.max(np.abs(d - d_ref)) < 1e-9
        assert np.max(np.abs(east - d_ref * np.sin(theta))) < 1e-9
        assert np.max(np.abs(north - d_ref * np.cos(theta))) < 1e-9

    @pytest.mark.parametrize("z", [1.0, -1.0])
    def test_finite_at_an_exact_pole(self, z):
        rng = np.random.default_rng(63)
        lat, lon = rng.uniform(-90.0, 90.0, 200), rng.uniform(-180.0, 180.0, 200)
        s = (0.0, 0.0, z)
        b = [np.append(c, pole) for c, pole in zip(unit_vectors(lat, lon), s)]
        east, north, d = local_offsets_km(s, b)
        assert np.all(np.isfinite(east) & np.isfinite(north))
        assert (east[-1], north[-1], d[-1]) == (0.0, 0.0, 0.0)
        assert np.allclose(d[:-1], arc_km(90.0 * z, 0.0, lat, lon), rtol=0.0, atol=1e-9)
        assert np.allclose(np.hypot(east, north), d, rtol=0.0, atol=1e-9)

    def test_point_on_itself_is_within_rounding_of_zero(self):
        u = unit_vectors(np.array([10.0, -45.0, 89.9]), np.array([20.0, 170.0, -3.0]))
        assert np.max(np.abs(local_offsets_km(u, u))) < 1e-12


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
