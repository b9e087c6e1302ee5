import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringalert import analytics
from ringalert.errors import (
    DegenerateInput,
    EmptyInput,
    InsufficientBrackets,
    InsufficientData,
)
from ringalert.geo import GeoPoint, displace_deg
from ringalert.ingest import segment_passes
from ringalert.model import RecordTable
from ringalert.simulator import SimConfig, default_beam_offsets, emit_stream
from tests.conftest import bearing_deg, haversine_km, make_records, overhead_config


class TestHistogramMode:
    def test_bins_center_on_width_multiples(self):
        assert analytics.histogram_mode([0.09, 0.09, 0.09, 0.18], 0.1) == pytest.approx(0.1)

    def test_tie_goes_to_lowest(self):
        assert analytics.histogram_mode([1.0, 2.0], 0.5) == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            analytics.histogram_mode([], 0.1)


class TestGroundSpeeds:
    def test_known_pair(self):
        # two track points 6.89 km apart, 1 s apart: v = 6.89 by definition
        start = GeoPoint(0.0, 0.0)
        lat2, lon2 = displace_deg(0.0, 0.0, 0.0, 6.89)
        records = make_records([0.0, 1.0], [start.lat_deg, float(lat2)],
                               [start.lon_deg, float(lon2)])
        speeds = analytics.ground_speeds(records)
        assert speeds.shape == (1,)
        assert speeds[0] == pytest.approx(6.89, abs=1e-9)

    def test_identical_points_zero_speed(self):
        records = make_records([0.0, 1.0], [10.0, 10.0], [20.0, 20.0])
        assert analytics.ground_speeds(records).tolist() == [0.0]

    def test_fewer_than_two_records_is_empty(self):
        speeds = analytics.ground_speeds(make_records([0.0], [0], [0]))
        assert speeds.dtype == float and speeds.shape == (0,)

    def test_lossless_simulator_mode(self):
        records = emit_stream(overhead_config(duration_s=5810.0))
        speeds = analytics.ground_speeds(records)
        assert speeds.size
        mode = analytics.speed_mode_kms(speeds)
        assert mode == pytest.approx(6.89, abs=0.05)

    def test_pairs_stay_within_the_pass_gap(self):
        # beams bridge the 990 s between the second and third track points, so
        # the pass is not cut there, but that pair spans more than the gap
        records = make_records([0.0, 10.0, 400.0, 800.0, 1000.0, 1001.0], [0.0] * 6, [0.0] * 6,
                               beam_ids=[0, 0, 5, 6, 0, 0])
        assert len(segment_passes(records)) == 1
        assert analytics.ground_speeds(records).tolist() == [0.0, 0.0]
        assert analytics.ground_speeds(records, segment_passes(records, 5.0)).tolist() == [0.0]

    def test_satellites_are_not_paired(self):
        # sat 115's track point is 49.5 s after its first row: a later time
        # than sat 78's last track point, so only the satellite tells them apart
        a = make_records([0.0, 1.0], [0.0, 0.01], [0.0, 0.0], sat_id=78)
        b = make_records([0.5, 50.0], [30.0, 30.0], [30.0, 30.0], sat_id=115, beam_ids=[3, 0])
        records = RecordTable(*(np.concatenate(c) for c in zip(a.columns(), b.columns())))
        speeds = analytics.ground_speeds(records)
        assert speeds.tolist() == analytics.ground_speeds(a).tolist()

    def test_max_dt_knob_bounds_speeds(self):
        records = emit_stream(overhead_config(duration_s=2000.0, per=0.9, seed=5))
        speeds = analytics.ground_speeds(records, max_dt_s=10.0)
        dt = np.diff(records[records.is_track].t_s())  # one satellite, one pass
        assert 0 < speeds.size == np.count_nonzero((dt > 0) & (dt <= 10.0)) < dt.size
        assert np.all(speeds <= 10.0)


class TestInterarrival:
    def test_exact_grid(self):
        records = make_records([0.0, 0.09, 0.18], [0] * 3, [0] * 3)
        stats = analytics.interarrival_stats(records)
        assert stats.durations_s.tolist() == pytest.approx([0.09, 0.09])
        assert np.abs(stats.residuals_s).max() < 1e-12

    def test_lossless_simulator_grid(self):
        records = emit_stream(overhead_config(duration_s=60.0))
        stats = analytics.interarrival_stats(records)
        assert stats.mode_s == pytest.approx(0.09, abs=0.02)
        assert np.abs(stats.residuals_s).max() < 1e-9

    def test_needs_two_records(self):
        with pytest.raises(EmptyInput):
            analytics.interarrival_stats(make_records([0.0], [0], [0]))


class TestPacketDeliveryRatio:
    def test_lossless(self):
        # the span between first and last record is one slot short of the
        # count, so a lossless grid sits just above 1.0
        records = emit_stream(overhead_config(duration_s=90.0))
        assert analytics.packet_delivery_ratio(records) == pytest.approx(1.0, abs=0.01)

    def test_bernoulli_oracle(self, rng):
        # independent construction: thin a perfect 0.09 s grid at keep = 0.5
        keep = rng.random(40_000) < 0.5
        times = np.flatnonzero(keep) * 0.09
        records = make_records(times, np.zeros(times.size), np.zeros(times.size))
        ratio = analytics.packet_delivery_ratio(records)
        # 3 standard errors of a binomial proportion at n = 40k
        assert ratio == pytest.approx(0.5, abs=3 * 0.5 / math.sqrt(40_000) + 1e-3)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            analytics.packet_delivery_ratio(make_records([], [], []))
        with pytest.raises(EmptyInput):
            analytics.packet_delivery_ratio(make_records([0.0], [0], [0]))


class TestCoverage:
    def test_single_record_at_receiver(self):
        receiver = GeoPoint(25.0, 51.0)
        records = make_records([0.0], [25.0], [51.0])
        cov = analytics.coverage_extent(records, receiver)
        assert cov.max_km == 0.0
        assert cov.area_km2 == 0.0

    def test_synthetic_disk(self, rng):
        # oracle: uniform samples on a 1625 km geodesic disk; the hull area in
        # the range-preserving projection approaches pi r^2
        receiver = GeoPoint(10.0, 30.0)
        n = 20_000
        radius = 1625.0 * np.sqrt(rng.random(n))
        course = rng.uniform(0.0, 360.0, n)
        lat, lon = displace_deg(receiver.lat_deg, receiver.lon_deg, course, radius)
        records = make_records(np.arange(n) * 0.09, lat, lon)
        cov = analytics.coverage_extent(records, receiver)
        assert cov.max_km == pytest.approx(1625.0, abs=2.0)
        assert cov.area_km2 == pytest.approx(math.pi * 1625.0 ** 2, rel=0.01)

    @pytest.mark.parametrize("lat, lon", [(90.0, 0.0), (-90.0, 30.0), (0.0, 180.0)])
    def test_matches_the_oracle_at_poles_and_antimeridian(self, lat, lon):
        # the hull of the oracle's (d sin θ, d cos θ) offsets has the same area
        rng = np.random.default_rng(1978)
        receiver = GeoPoint(lat, lon)
        p_lat, p_lon = displace_deg(lat, lon, rng.uniform(0.0, 360.0, 3000),
                                    1625.0 * np.sqrt(rng.random(3000)))
        records = make_records(np.arange(3000) * 0.09, p_lat, p_lon)
        cov = analytics.coverage_extent(records, receiver)
        d = haversine_km(lat, lon, records.lat, records.lon)
        theta = np.radians(bearing_deg(lat, lon, records.lat, records.lon))
        area = analytics._hull_area(d * np.sin(theta), d * np.cos(theta))
        assert cov.area_km2 == pytest.approx(area, rel=1e-12)
        assert np.max(np.abs(cov.distances_km - d)) < 1e-9

    def test_empty_raises(self):
        for records in (make_records([], [], []), make_records([0.0], [1.0], [1.0], beam_ids=[7])):
            with pytest.raises(EmptyInput):
                analytics.coverage_extent(records, GeoPoint(0, 0))

    @pytest.mark.parametrize("seed", range(8))
    def test_hull_area_matches_qhull(self, seed):
        from scipy.spatial import ConvexHull

        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 3000))
        points = rng.normal(size=(n, 2)) * rng.uniform(1.0, 2000.0) + rng.uniform(-3000, 3000, 2)
        if seed % 2:
            points = np.round(points, 1)  # repeated points and ties in x
        expected = ConvexHull(np.unique(points, axis=0)).volume
        assert analytics._hull_area(points[:, 0], points[:, 1]) == \
            pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("x, y", [
        ([1.0, 1.0, 1.0], [2.0, 2.0, 2.0]),
        ([0.0, 5.0], [0.0, 1.0]),
        ([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 4.0, 6.0]),
    ])
    def test_degenerate_hull_area_is_zero(self, x, y):
        assert analytics._hull_area(np.array(x), np.array(y)) == 0.0


def geometric_circle_fit(points):
    """Brute-force oracle: minimize radial residuals directly."""
    from scipy.optimize import least_squares

    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]

    def residuals(params):
        cx, cy, r = params
        return np.hypot(x - cx, y - cy) - r

    x0 = [x.mean(), y.mean(), float(np.hypot(x - x.mean(), y - y.mean()).mean())]
    sol = least_squares(residuals, x0)
    return (float(sol.x[0]), float(sol.x[1])), float(sol.x[2])


def circle_points(cx, cy, r, angles):
    return np.column_stack([cx + r * np.cos(angles), cy + r * np.sin(angles)])


class TestPrattCircleFit:
    def test_exact_four_points(self):
        pts = circle_points(0.0, 0.0, 10.0, np.array([0.0, 1.2, 2.9, 4.4]))
        (cx, cy), r = analytics.pratt_circle_fit(pts)
        assert abs(cx) < 1e-9 and abs(cy) < 1e-9
        assert r == pytest.approx(10.0, abs=1e-9)

    def test_exact_three_points_unit_circle(self):
        pts = circle_points(0.0, 0.0, 1.0, np.array([0.1, 2.0, 4.0]))
        (cx, cy), r = analytics.pratt_circle_fit(pts)
        assert r == pytest.approx(1.0, abs=1e-9)

    @given(
        st.floats(min_value=0.5, max_value=2500.0),
        st.floats(min_value=-1000, max_value=1000),
        st.floats(min_value=-1000, max_value=1000),
        st.floats(min_value=0, max_value=2 * math.pi),
    )
    @settings(max_examples=100)
    def test_equivariance_on_noiseless_circles(self, r, tx, ty, rot):
        angles = np.array([0.0, 0.9, 2.1, 3.3, 4.8, 5.9]) + rot
        pts = circle_points(tx, ty, r, angles)
        (cx, cy), r_fit = analytics.pratt_circle_fit(pts)
        assert r_fit == pytest.approx(r, rel=1e-9, abs=1e-12)
        assert cx == pytest.approx(tx, abs=1e-9 * max(1.0, r, abs(tx)))
        assert cy == pytest.approx(ty, abs=1e-9 * max(1.0, r, abs(ty)))

    def test_noisy_fit_matches_geometric_oracle(self, rng):
        r_true = 2346.0
        angles = rng.uniform(0, 2 * math.pi, 20)
        radii = r_true * (1.0 + 0.01 * rng.standard_normal(20))
        pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        (cx_p, cy_p), r_p = analytics.pratt_circle_fit(pts)
        (cx_g, cy_g), r_g = geometric_circle_fit(pts)
        assert r_p == pytest.approx(r_g, rel=0.01)
        assert math.hypot(cx_p - cx_g, cy_p - cy_g) < 0.01 * r_true
        assert r_p == pytest.approx(r_true, rel=0.02)

    def test_collinear_raises(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(DegenerateInput):
            analytics.pratt_circle_fit(pts)

    def test_too_few_points_raises(self):
        with pytest.raises(DegenerateInput):
            analytics.pratt_circle_fit([[0.0, 0.0], [1.0, 0.0]])


class TestEvd:
    def test_fit_recovers_sampler_parameters(self, rng):
        # oracle: inverse-CDF sampling written out independently of the library
        mu, sigma = 7.28, 1.67
        u = rng.uniform(1e-12, 1 - 1e-12, 10_000)
        samples = mu + sigma * np.log(-np.log(1.0 - u))
        fit = analytics.fit_evd(samples)
        assert fit.mu == pytest.approx(mu, abs=0.1)
        assert fit.sigma == pytest.approx(sigma, abs=0.1)

    def test_fit_matches_reference_mle(self, rng):
        from scipy.stats import gumbel_l

        u = rng.uniform(1e-12, 1 - 1e-12, 4000)
        samples = 5.0 + 2.0 * np.log(-np.log(1.0 - u))
        fit = analytics.fit_evd(samples)
        loc, scale = gumbel_l.fit(samples)
        assert fit.mu == pytest.approx(loc, abs=1e-4)
        assert fit.sigma == pytest.approx(scale, abs=1e-4)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            analytics.fit_evd([1.0] * 9)
        with pytest.raises(InsufficientData):
            analytics.fit_evd([3.0] * 50)  # zero variance


def kmeans_1d_loop(values, k=3):
    """The O(k n^2) Python programme that ``kmeans_1d`` replaced: each split
    taken by a strict ``<`` over ascending starts, so the first minimum wins."""
    values = np.sort(np.asarray(values, dtype=float))
    n = values.size
    s1 = np.concatenate([[0.0], np.cumsum(values)])
    s2 = np.concatenate([[0.0], np.cumsum(values ** 2)])

    def cost(i, j):  # sum of squared deviations of values[i..j] inclusive
        total = s1[j + 1] - s1[i]
        return (s2[j + 1] - s2[i]) - total * total / (j - i + 1)

    best = np.full((k + 1, n + 1), np.inf)
    split = np.zeros((k + 1, n + 1), dtype=int)
    best[0, 0] = 0.0
    for m in range(1, k + 1):
        for j in range(m, n + 1):
            for i in range(m - 1, j):
                candidate = best[m - 1, i] + cost(i, j - 1)
                if candidate < best[m, j]:
                    best[m, j] = candidate
                    split[m, j] = i
    bounds = [n]
    for m in range(k, 0, -1):
        bounds.append(split[m, bounds[-1]])
    bounds.reverse()
    return [float(values[lo:hi].mean()) for lo, hi in zip(bounds[:-1], bounds[1:])]


def optimal_three_splits(values):
    """Means of every contiguous 3-split of the sorted values whose sum of
    squared deviations is least, found by enumerating them all."""
    v = np.sort(np.asarray(values, dtype=float))
    splits = [(v[:a], v[a:b], v[b:]) for a in range(1, v.size - 1) for b in range(a + 1, v.size)]
    costs = [sum(float(((c - c.mean()) ** 2).sum()) for c in split) for split in splits]
    least = min(costs)
    return [[float(c.mean()) for c in split] for split, cost in zip(splits, costs)
            if cost <= least + 1e-9 * (1.0 + least)]


def kmeans_sets():
    rng = np.random.default_rng(1701)
    for _ in range(12):
        n = int(rng.integers(3, 30))
        yield rng.uniform(0.0, 20.0, n)  # distinct values
        yield rng.integers(0, 4, n).astype(float)  # many ties
    yield np.array([3.36] * 8 + [7.98] * 16 + [14.35] * 24)
    yield np.array([0.0, 1.0, 2.0, 3.0])  # three splits of equal cost
    yield np.full(5, 2.5)


class TestKmeans1d:
    @pytest.mark.parametrize("values", list(kmeans_sets()))
    def test_matches_the_loop_bit_for_bit(self, values):
        assert analytics.kmeans_1d(values, 3) == kmeans_1d_loop(values, 3)

    @pytest.mark.parametrize("values", list(kmeans_sets()))
    def test_is_an_optimal_split(self, values):
        means = analytics.kmeans_1d(values, 3)
        assert any(np.allclose(means, best, rtol=0.0, atol=1e-9)
                   for best in optimal_three_splits(values))

    def test_exact_three_rings(self):
        values = [3.36] * 8 + [7.98] * 16 + [14.35] * 24
        assert analytics.kmeans_1d(values, 3) == pytest.approx([3.36, 7.98, 14.35])

    def test_too_few(self):
        with pytest.raises(InsufficientData):
            analytics.kmeans_1d([1.0, 2.0], 3)


class TestBeamConstellation:
    def test_beam_at_subsatellite_point_has_zero_offset(self):
        # track moving north; three beams stamped exactly on interpolated track points
        track_times = [0.0, 10.0, 20.0, 30.0]
        track_lats = [0.0, 0.5, 1.0, 1.5]
        beam_times = [5.0, 15.0, 25.0]
        beam_lats = [0.25, 0.75, 1.25]
        records = make_records(track_times + beam_times, track_lats + beam_lats, [0.0] * 7,
                               beam_ids=[0] * 4 + [1, 2, 3])
        constellation = analytics.beam_constellation(records)
        for beam_id in (1, 2, 3):
            east, north = constellation.centroids[beam_id]
            assert abs(east) < 1e-6 and abs(north) < 1e-6

    def test_wide_bracket_rejected(self):
        records = make_records([0.0, 30.0, 15.0], [0.0, 1.5, 0.75], [0.0] * 3,
                               beam_ids=[0, 0, 5])
        with pytest.raises(InsufficientBrackets):
            analytics.beam_constellation(records)

    def test_closed_loop_with_simulator(self):
        # one northbound and one southbound satellite over the same receiver:
        # recovered centroids must match the configured honeycomb
        config = SimConfig(
            n_sats=2, planes=2, plane_nodes_deg=(0.0, 180.0), inclination_deg=90.0,
            per=0.0, duration_s=5810.0, seed=11,
        )
        records = emit_stream(config)
        constellation = analytics.beam_constellation(records)
        offsets = default_beam_offsets()
        assert set(constellation.centroids) == set(range(1, 49))
        for beam_id, (east, north) in constellation.centroids.items():
            e_ref, n_ref = offsets[beam_id - 1]
            assert math.hypot(east - e_ref, north - n_ref) < 0.1
        assert constellation.ring_radii_km == pytest.approx((3.36, 7.98, 14.35), rel=0.02)

    def test_directions_seen_in_closed_loop(self):
        config = SimConfig(
            n_sats=2, planes=2, plane_nodes_deg=(0.0, 180.0), inclination_deg=90.0,
            per=0.0, duration_s=5810.0, seed=11,
        )
        records = emit_stream(config)
        assert set(segment_passes(records).upward.tolist()) == {True, False}


class TestPassDurations:
    def test_min_record_filter(self):
        # a one-record pass, then a two-record one
        passes = segment_passes(make_records([0.0, 1000.0, 1060.0], [0, 0, 1], [0, 0, 0]))
        assert len(passes) == 2
        assert passes.duration_min.tolist() == [0.0, 1.0]
        assert analytics.pass_durations_min(passes).tolist() == [1.0]
