import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringalert import detector
from ringalert.errors import (
    InsufficientData,
    InsufficientWindows,
    InvalidPer,
    NoBeamRecords,
    NonPositiveValue,
    UnknownThreshold,
)
from ringalert.geo import GeoPoint, displace, great_circle_km
from ringalert.model import DetectorConfig, MotionProfile, PowerLawCoeffs
from ringalert.simulator import SHIP_CLASSES, Scenario, emit_stream
from tests.conftest import corridor_config, make_records, records_of, run_times_s, table_of


def literal_compensation(lat, lon, t_s, motion: MotionProfile, t_ref: float):
    """The compensation expression as published: the start coordinate plus
    cos/sin of speed times elapsed time. It ignores the observed points and
    mixes units, so it serves only for side-by-side comparison with
    ``compensate_arrays``, the kinematic reading."""
    arg = motion.speed_kmh * (t_ref - np.asarray(t_s, dtype=float))
    return (np.full_like(np.asarray(lat, dtype=float), motion.start.lat_deg) + np.cos(arg),
            np.full_like(np.asarray(lon, dtype=float), motion.start.lon_deg) + np.sin(arg))


class TestCompensate:
    def test_stationary_is_identity(self):
        lat, lon, t = np.array([10.0, 11.0]), np.array([20.0, 21.0]), np.array([0.0, 10.0])
        motion = MotionProfile(GeoPoint(0, 0), 90.0, 0.0)
        out_lat, out_lon = detector.compensate_arrays(lat, lon, t, motion, t_ref=10.0)
        assert out_lat.tolist() == lat.tolist() and out_lon.tolist() == lon.tolist()

    def test_known_displacement(self):
        # receiver due east at 40 km/h; a point observed half an hour before
        # the reference instant shifts 20 km east
        motion = MotionProfile(GeoPoint(10, 20), 90.0, 40.0)
        t0 = 1_600_000_000.0
        out_lat, out_lon = detector.compensate_arrays([10.0], [20.0], [t0], motion,
                                                      t_ref=t0 + 1800.0)
        expected = displace(GeoPoint(10.0, 20.0), 90.0, 20.0)
        assert great_circle_km(GeoPoint(float(out_lat[0]), float(out_lon[0])), expected).km < 1e-9

    def test_literal_form_formula(self):
        motion = MotionProfile(GeoPoint(3.0, 4.0), 90.0, 2.0)
        t0 = 1_600_000_000.0
        out_lat, out_lon = literal_compensation([10.0], [20.0], [t0], motion, t_ref=t0 + 1.0)
        assert out_lat[0] == pytest.approx(3.0 + math.cos(2.0), abs=1e-12)
        assert out_lon[0] == pytest.approx(4.0 + math.sin(2.0), abs=1e-12)

    def test_compensation_beats_no_compensation_on_moving_receiver(self):
        # paired comparison over seeded runs: a cross-corridor drift makes the
        # uncompensated centroid lag the receiver by the full displacement,
        # the compensated one by half of it
        config_base = corridor_config(
            n_sats=22, planes=2, plane_nodes_deg=(-0.02, 0.02),
            duration_s=7000.0, per=0.985,
        )
        motion = MotionProfile(GeoPoint(0.0, 0.0), 90.0, 46.0)
        scenario = Scenario(motion)
        wins = 0
        err_with, err_without = [], []
        for seed in range(100):
            config = corridor_config(
                n_sats=22, planes=2, plane_nodes_deg=(-0.02, 0.02),
                duration_s=7000.0, per=0.985, seed=seed,
            )
            stream = emit_stream(config, scenario)
            beams = stream.is_beam
            lat, lon, t = stream.lat[beams], stream.lon[beams], run_times_s(stream, config)[beams]
            t_ref = float(t[-1])
            truth = scenario.truth_position(t_ref)
            est_with = detector.estimate_position_arrays(lat, lon, t, motion)
            est_without = detector.estimate_position_arrays(lat, lon, t)
            e_with = great_circle_km(est_with.i_pos, truth).km
            e_without = great_circle_km(est_without.i_pos, truth).km
            err_with.append(e_with)
            err_without.append(e_without)
            wins += e_with < e_without
        assert np.mean(err_with) < np.mean(err_without)
        assert wins >= 90


class TestEstimatePosition:
    def test_singleton(self):
        records = make_records([0.0], [10.0], [20.0], beam_ids=[1])
        est = detector.estimate_position(records)
        assert est.i_pos == GeoPoint(10.0, 20.0)
        assert est.n_used == 1

    def test_two_point_mean(self):
        records = make_records([0.0, 1.0], [0.0, 2.0], [0.0, 2.0], beam_ids=[1, 2])
        est = detector.estimate_position(records)
        assert est.i_pos.lat_deg == pytest.approx(1.0, abs=1e-9)
        assert est.i_pos.lon_deg == pytest.approx(1.0, abs=1e-9)
        assert est.n_used == 2

    def test_track_records_do_not_count(self):
        records = make_records([0.0, 1.0], [0.0, 50.0], [0.0, 50.0], beam_ids=[0, 3])
        est = detector.estimate_position(records)
        assert est.n_used == 1
        assert est.i_pos == GeoPoint(50.0, 50.0)

    def test_no_beam_records_raises(self):
        records = make_records([0.0], [0.0], [0.0], beam_ids=[0])
        with pytest.raises(NoBeamRecords):
            detector.estimate_position(records)

    @given(
        st.floats(min_value=-60, max_value=60),
        st.floats(min_value=-170, max_value=170),
        st.lists(st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)),
                 min_size=1, max_size=24),
    )
    @settings(max_examples=150)
    def test_centroid_matches_brute_force_mean(self, lat0, lon0, offsets):
        lats = np.array([lat0 + dl for dl, _ in offsets])
        lons = np.array([lon0 + dn for _, dn in offsets])
        est = detector.estimate_position_arrays(lats, lons, np.arange(len(offsets), dtype=float))
        assert est.i_pos.lat_deg == pytest.approx(float(lats.mean()), abs=1e-12)
        assert est.i_pos.lon_deg == pytest.approx(float(lons.mean()), abs=1e-12)

    def test_wrap_aware_across_seam(self):
        est = detector.estimate_position_arrays(
            np.array([0.0, 0.0]), np.array([179.9, -179.9]), np.array([0.0, 1.0])
        )
        assert abs(est.i_pos.lon_deg) == pytest.approx(180.0, abs=1e-9)


class TestDetect:
    def test_zero_deviation_no_alarm(self):
        est = detector.estimate_position(make_records([0.0], [10.0], [20.0], beam_ids=[1]))
        outcome = detector.detect(est, GeoPoint(10.0, 20.0), DetectorConfig(10.0, 1))
        assert not outcome.alarm
        assert outcome.deviation_km == 0.0

    def test_boundary_is_strict(self):
        outcome = detector.DetectionOutcome.from_deviation(20.0, 20.0)
        assert not outcome.alarm
        assert detector.DetectionOutcome.from_deviation(20.0000001, 20.0).alarm

    def test_inconsistent_outcome_rejected(self):
        with pytest.raises(ValueError):
            detector.DetectionOutcome(alarm=True, deviation_km=5.0, threshold_km=10.0)

    def test_clear_exceedance(self):
        est = detector.estimate_position(make_records([0.0], [0.0], [0.0], beam_ids=[1]))
        g_pos = displace(GeoPoint(0.0, 0.0), 90.0, 25.0)
        outcome = detector.detect(est, g_pos, DetectorConfig(20.0, 1))
        assert outcome.alarm
        assert outcome.deviation_km == pytest.approx(25.0, abs=1e-9)

    def test_monotone_in_threshold(self):
        est = detector.estimate_position(make_records([0.0], [0.0], [0.0], beam_ids=[1]))
        g_pos = displace(GeoPoint(0.0, 0.0), 90.0, 15.0)
        alarm_10 = detector.detect(est, g_pos, DetectorConfig(10.0, 1)).alarm
        alarm_20 = detector.detect(est, g_pos, DetectorConfig(20.0, 1)).alarm
        assert alarm_10 and not alarm_20

    @given(
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-150, max_value=150),
        st.floats(min_value=0, max_value=360),
        st.floats(min_value=0, max_value=40),
        st.floats(min_value=0, max_value=360),
        st.floats(min_value=0, max_value=5),
    )
    @settings(max_examples=100)
    def test_translation_equivariance(self, lat, lon, g_course, g_dist, s_course, s_dist):
        # keep the deviation away from the threshold so curvature effects of
        # the shift cannot flip the comparison
        if abs(g_dist - 20.0) < 1.0:
            g_dist += 2.0
        base = GeoPoint(lat, lon)
        g_pos = displace(base, g_course, g_dist)
        config = DetectorConfig(20.0, 1)
        est = detector.estimate_position_arrays(
            np.array([base.lat_deg]), np.array([base.lon_deg]), np.array([0.0])
        )
        before = detector.detect(est, g_pos, config).alarm
        shifted_base = displace(base, s_course, s_dist)
        shifted_g = displace(g_pos, s_course, s_dist)
        est2 = detector.estimate_position_arrays(
            np.array([shifted_base.lat_deg]), np.array([shifted_base.lon_deg]), np.array([0.0])
        )
        after = detector.detect(est2, shifted_g, config).alarm
        assert before == after


class TestFittedModels:
    def test_loc_err_reference_points(self):
        # direct evaluation of the fitted power law
        assert detector.loc_err_model(1) == pytest.approx(10 ** 3.2826, rel=1e-12)
        assert detector.loc_err_model(1) == pytest.approx(1917.0, abs=1.0)
        assert detector.loc_err_model(6100) == pytest.approx(
            6100 ** -0.5974 * 10 ** 3.2826, rel=1e-12
        )
        assert detector.loc_err_model(6100) == pytest.approx(10.5, abs=0.05)
        assert detector.loc_err_model(10_000) == pytest.approx(7.8, abs=0.05)

    def test_loc_err_strictly_decreasing(self):
        values = [detector.loc_err_model(n) for n in (1, 10, 100, 1000, 10_000)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_fp_model_reference_points(self):
        assert detector.fp_model(10_000, 20.0) == pytest.approx(10 ** -1.4, rel=1e-12)
        assert detector.fp_model(10_000, 20.0) == pytest.approx(0.0398, abs=2e-4)
        assert detector.fp_model(10_000, 10.0) == pytest.approx(0.347, abs=5e-4)
        assert detector.fp_model(1, 10.0) == pytest.approx(1.0, abs=1e-3)

    def test_fp_model_unknown_threshold(self):
        with pytest.raises(UnknownThreshold):
            detector.fp_model(100, 12.5)

    def test_fp_model_clipped_to_unit_interval(self):
        coeffs = {5.0: PowerLawCoeffs(m=1e-4, q=0.5)}
        assert detector.fp_model(100_000, 5.0, coeffs) == 1.0

    def test_fp_model_strictly_decreasing_in_n(self):
        for thr in (10.0, 15.0, 20.0):
            values = [detector.fp_model(n, thr) for n in (1, 10, 100, 1000, 10_000)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_waiting_time_reference_points(self):
        assert detector.waiting_time(1, 0.0) == pytest.approx(0.09, rel=1e-12)
        assert detector.waiting_time(6100, 0.99) == pytest.approx(54_900.0, rel=1e-12)
        assert detector.waiting_time(6100, 0.5) == pytest.approx(1098.0, rel=1e-12)

    def test_waiting_time_domain(self):
        with pytest.raises(InvalidPer):
            detector.waiting_time(10, 1.0)
        with pytest.raises(InvalidPer):
            detector.waiting_time(10, -0.1)

    @given(st.integers(min_value=1, max_value=10_000),
           st.floats(min_value=0, max_value=0.99),
           st.floats(min_value=0.001, max_value=0.99))
    def test_waiting_time_monotone_and_linear(self, n, per, bump):
        base = detector.waiting_time(n, per)
        higher = min(per + bump * (1 - per), 0.9999)
        assert detector.waiting_time(n, higher) > base
        assert detector.waiting_time(2 * n, per) == pytest.approx(2 * base, rel=1e-12)


class TestFitPowerLaw:
    def test_exact_power_law(self):
        n = np.array([10.0, 100.0, 1000.0, 10_000.0])
        y = n ** -0.5 * 10 ** 3
        fit = detector.fit_power_law(n, y)
        assert fit.m == pytest.approx(-0.5, abs=1e-9)
        assert fit.q == pytest.approx(3.0, abs=1e-9)

    def test_exact_exponential_decay(self):
        n = np.array([10.0, 100.0, 1000.0, 10_000.0])
        y = 10.0 ** (-1e-4 * n)
        fit = detector.fit_power_law(n, y, log_x=False)
        assert fit.m == pytest.approx(-1e-4, rel=1e-9)
        assert fit.q == pytest.approx(0.0, abs=1e-12)

    def test_errors(self):
        with pytest.raises(InsufficientData):
            detector.fit_power_law([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(NonPositiveValue):
            detector.fit_power_law([1.0, 2.0, 3.0], [1.0, 0.0, 2.0])
        with pytest.raises(NonPositiveValue):
            detector.fit_power_law([0.0, 2.0, 3.0], [1.0, 1.0, 2.0])


class TestEvaluateFp:
    def test_exact_fractions(self):
        deviations = {10: [5.0] * 50 + [25.0] * 50}
        rates = detector.evaluate_fp(deviations, [10.0, 20.0], min_windows=100)
        assert rates[(10, 10.0)] == 0.5
        assert rates[(10, 20.0)] == 0.5
        assert detector.evaluate_fp(deviations, [1e9], min_windows=100)[(10, 1e9)] == 0.0

    def test_insufficient_windows(self):
        with pytest.raises(InsufficientWindows):
            detector.evaluate_fp({10: [1.0] * 99}, [10.0], min_windows=100)

    def test_exponent_fits_recover_decay(self):
        ns = [10, 100, 1000, 10_000]
        rates = {(n, 20.0): 10.0 ** (-2e-4 * n) for n in ns}
        rates.update({(n, 10.0): 10.0 ** (-5e-5 * n) for n in ns})
        fits = detector.fp_exponent_fits(rates)
        assert fits[20.0].m == pytest.approx(-2e-4, rel=1e-6)
        assert fits[10.0].m == pytest.approx(-5e-5, rel=1e-6)
        assert fits[10.0].m > fits[20.0].m


#: Stationary plus each ship class at its top speed, on a course across the seam.
RING_MOTIONS = [None] + [c.motion(GeoPoint(10.0, 179.0), 57.0) for c in SHIP_CLASSES.values()]


class TestEstimateWindows:
    @pytest.mark.parametrize("motion", RING_MOTIONS,
                             ids=["still", *(f"{c}_top" for c in SHIP_CLASSES)])
    @pytest.mark.parametrize("n", [1, 2, 3, 500])
    @given(windows=st.integers(1, 6), lat0=st.floats(-75.0, 75.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_rows_equal_estimate_position_arrays(self, n, motion, windows, lat0, seed):
        # every row of the batched kernel is its window's estimate, bit for
        # bit, as are the compensated and unwrapped rows the detector anchors
        rng = np.random.default_rng(seed)
        shape = (windows, n)
        lat = rng.uniform(lat0 - 5.0, lat0 + 5.0, shape)
        lon = (rng.uniform(175.0, 185.0, shape) + 180.0) % 360.0 - 180.0  # across the seam
        gaps = rng.choice([0.0, 0.09, 0.27, 40.0], size=windows * n)
        t_s = 1.6e9 + np.cumsum(gaps).reshape(shape)
        batch = detector.estimate_windows(lat, lon, t_s, motion)
        assert len(batch[0]) == windows
        for row in range(windows):
            assert batch[0][row] == detector.estimate_position_arrays(lat[row], lon[row], t_s[row],
                                                                      motion)
            alone = detector.estimate_windows(lat[row:row + 1], lon[row:row + 1],
                                              t_s[row:row + 1], motion)
            for got, want in zip(batch[1:], alone[1:]):
                assert got[row].tolist() == want[0].tolist()


def ring_stream(n_beams: int, seed: int):
    """Time-ordered records straddling the antimeridian with ``n_beams`` beam
    records; a sub-satellite (beam 0) record follows every third one, and
    some neighbours share a timestamp."""
    rng = np.random.default_rng(seed)
    beam_ids = np.tile([1, 1, 1, 0], n_beams // 3 + 1)[:n_beams + n_beams // 3]
    beam_ids[beam_ids == 1] = rng.integers(1, 49, n_beams)
    size = beam_ids.size
    times = np.cumsum(rng.choice([0.0, 0.09, 0.27, 40.0], size=size))
    return make_records(times, rng.uniform(5.0, 15.0, size), rng.uniform(175.0, 185.0, size),
                        beam_ids=beam_ids.tolist())


#: How far a sliding estimate may sit from the batch one: degrees of latitude
#: and of longitude for a stationary receiver, km for a moving one.
STILL_BOUND_DEG = 1e-9
MOVING_BOUND_KM = 0.05


def record_exact(det: detector.WindowedDetector) -> list:
    """The list that each estimate of ``det``'s whole-window pass joins."""
    exact = []
    whole_window = det._estimate_window

    def recorded(*args):
        exact.append(whole_window(*args))
        return exact[-1]

    det._estimate_window = recorded
    return exact


def assert_matches_batch(est, ref, motion, exact: bool):
    """A whole-window estimate equals the batch one; a sliding one keeps its
    count and time span and sits within the stated bound."""
    assert (est.n_used, est.window) == (ref.n_used, ref.window)
    if exact:
        assert est == ref
    elif motion is None:
        assert abs(est.i_pos.lat_deg - ref.i_pos.lat_deg) <= STILL_BOUND_DEG
        d_lon = (est.i_pos.lon_deg - ref.i_pos.lon_deg + 180.0) % 360.0 - 180.0
        assert abs(d_lon) <= STILL_BOUND_DEG
    else:
        assert great_circle_km(est.i_pos, ref.i_pos).km <= MOVING_BOUND_KM


@functools.lru_cache(maxsize=None)
def pushed_estimates(window_n: int, motion_index: int):
    """The beam table of a ring stream, the push-by-push estimate after each
    beam, and whether the whole-window pass made it."""
    records = ring_stream(8 * window_n + 7, seed=window_n)
    det = detector.WindowedDetector(DetectorConfig(20.0, window_n), RING_MOTIONS[motion_index])
    exact = record_exact(det)
    estimates, made_exact = [], []
    for record in records_of(records[records.is_beam]):
        estimates.append(det.push(record))
        made_exact.append(bool(exact) and estimates[-1] is exact[-1])
    return records[records.is_beam], estimates, made_exact


def chunk_sizes(window_n: int):
    """Chunk lengths of 0, 1, up to the longest sliding extend, under
    window_n, window_n and over 2 window_n."""
    under = st.integers(1, window_n - 1) if window_n > 1 else st.just(0)
    return st.lists(st.one_of(st.just(0), st.just(1), st.integers(1, max(window_n // 32, 1)),
                              under, st.just(window_n),
                              st.integers(2 * window_n + 1, 3 * window_n)),
                    min_size=1, max_size=30)


class TestWindowedDetector:
    @pytest.mark.parametrize("motion_index", range(len(RING_MOTIONS)),
                             ids=["still", *(f"{c}_top" for c in SHIP_CLASSES)])
    @pytest.mark.parametrize("window_n", [1, 3, 500])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_extend_equals_push_and_batch(self, window_n, motion_index, data):
        beams, pushed, pushed_exact = pushed_estimates(window_n, motion_index)
        motion = RING_MOTIONS[motion_index]
        lat, lon, t_s = beams.lat, beams.lon, beams.t_s(origin=(0, 0))
        det = detector.WindowedDetector(DetectorConfig(20.0, window_n), motion)
        exact = record_exact(det)
        end = 0
        for size in data.draw(chunk_sizes(window_n)):
            chunk = slice(end, min(end + size, len(beams)))
            est = det.extend(lat[chunk], lon[chunk], t_s[chunk])
            end = chunk.stop
            if end < window_n:
                assert est is None
            else:
                batch = detector.estimate_position(beams[end - window_n:end], motion)
                assert_matches_batch(pushed[end - 1], batch, motion, pushed_exact[end - 1])
                assert_matches_batch(est, batch, motion, est is exact[-1])

    @pytest.mark.parametrize("motion", RING_MOTIONS,
                             ids=["still", *(f"{c}_top" for c in SHIP_CLASSES)])
    @pytest.mark.parametrize("window_n", [1, 2, 3, 500, 1000])
    def test_estimates_equal_batch_over_buffer_wraps(self, window_n, motion):
        # the (3, 2n) buffer first wraps at beam push 2n + 1, then every n pushes
        records = ring_stream(5 * window_n, seed=window_n)
        # the stream is time-ordered, so a slice of the sorted beam table is a window
        beams = records[records.is_beam]
        assert len(beams) == 5 * window_n
        det = detector.WindowedDetector(DetectorConfig(20.0, window_n), motion)
        exact = record_exact(det)
        pushed = 0
        for record in records_of(records):
            est = det.push(record)
            pushed += record.beam_id >= 1
            if pushed < window_n:
                assert est is None
            else:
                batch = detector.estimate_position(beams[pushed - window_n:pushed], motion)
                assert_matches_batch(est, batch, motion, est is exact[-1])

    @pytest.mark.parametrize("lengths", [(2, 3, 3), (3, 2, 3), (3, 3, 2), (9, 8, 8)])
    def test_extend_rejects_columns_of_unequal_length(self, lengths):
        det = detector.WindowedDetector(DetectorConfig(20.0, 3))
        with pytest.raises(ValueError, match="equal length"):
            det.extend(*(np.zeros(k) for k in lengths))
        assert det.extend([1.0], [2.0], [3.0]) is None

    @pytest.mark.parametrize("motion", [RING_MOTIONS[0], RING_MOTIONS[-1]], ids=["still", "S5_top"])
    def test_shuffled_pushes_match_sorted_window(self, motion):
        window_n = 40
        records = records_of(ring_stream(6 * window_n, seed=11))
        order = np.random.default_rng(12).permutation(len(records))
        det = detector.WindowedDetector(DetectorConfig(20.0, window_n), motion)
        beams = []
        for i in order:
            est = det.push(records[i])
            if records[i].beam_id >= 1:
                beams.append(records[i])
            if len(beams) >= window_n:
                # the table sorts the window; the buffer keeps push order
                ref = detector.estimate_position(table_of(beams[-window_n:]), motion)
                assert (est.n_used, est.window) == (ref.n_used, ref.window)
                if motion is not None:
                    assert great_circle_km(est.i_pos, ref.i_pos).km <= MOVING_BOUND_KM
                    continue
                assert est.i_pos.lat_deg == pytest.approx(ref.i_pos.lat_deg, abs=1e-9)
                d_lon = (est.i_pos.lon_deg - ref.i_pos.lon_deg + 180.0) % 360.0 - 180.0
                assert abs(d_lon) <= 1e-9

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", range(3))
    def test_extend_rejects_non_finite_columns_first(self, column, bad):
        beams, _, _ = pushed_estimates(3, len(RING_MOTIONS) - 1)
        lat, lon, t_s = beams.lat, beams.lon, beams.t_s(origin=(0, 0))
        det, twin = (detector.WindowedDetector(DetectorConfig(20.0, 3), RING_MOTIONS[-1])
                     for _ in range(2))
        for d in (det, twin):
            d.extend(lat[:4], lon[:4], t_s[:4])
        cols = [lat[4:6].copy(), lon[4:6].copy(), t_s[4:6].copy()]
        cols[column][1] = bad
        with pytest.raises(ValueError, match="finite"):
            det.extend(*cols)
        assert det.latest_estimate == twin.latest_estimate
        for i in range(4, 12):  # the detector goes on as if the bad call never came
            w = slice(i, i + 1)
            assert det.extend(lat[w], lon[w], t_s[w]) == twin.extend(lat[w], lon[w], t_s[w])

    @pytest.mark.parametrize("moving", [False, True], ids=["still", "S5_top"])
    def test_push_makes_amortized_whole_window_passes(self, moving):
        # one beam a second: the whole-window pass runs when the window fills,
        # after every window_n sliding beams and after every REANCHOR_KM of
        # travel, never once per push
        window_n, pushes = 1000, 20 * 1000
        motion = SHIP_CLASSES["S5"].motion(GeoPoint(10.0, 179.0), 57.0) if moving else None
        rng = np.random.default_rng(5)
        size = window_n + pushes
        lat, lon = rng.uniform(5.0, 15.0, size), rng.uniform(-180.0, 180.0, size)
        lon = np.where(lon > 0, 175.0 + lon / 36.0, -175.0 + lon / 36.0)  # across the seam
        t_s = np.arange(size, dtype=float)
        det = detector.WindowedDetector(DetectorConfig(20.0, window_n), motion)
        exact = record_exact(det)
        det.extend(lat[:window_n - 1], lon[:window_n - 1], t_s[:window_n - 1])
        for i in range(window_n - 1, size):
            det.extend(lat[i:i + 1], lon[i:i + 1], t_s[i:i + 1])
        if not moving:
            assert len(exact) == pushes // window_n + 1
            return
        travel_km = motion.speed_kmh * (t_s[-1] - t_s[window_n - 1]) / 3600.0
        assert (travel_km // detector.REANCHOR_KM <= len(exact)
                <= travel_km / detector.REANCHOR_KM + pushes / window_n + 2)

    @pytest.mark.parametrize("motion_index", range(len(RING_MOTIONS)),
                             ids=["still", *(f"{c}_top" for c in SHIP_CLASSES)])
    @pytest.mark.parametrize("window_n", [1, 3, 500])
    @given(course=st.floats(0.0, 360.0), lat0=st.floats(-75.0, 75.0),
           seed=st.integers(0, 2**32 - 1), fills=st.lists(st.floats(0.0, 3.0), max_size=4))
    # mid latitudes off the meridians, where moving the anchor centroid without
    # the points' own rates misses the bound after a few km of travel
    @example(course=45.0, lat0=60.0, seed=1, fills=[])
    @example(course=135.0, lat0=-60.0, seed=2, fills=[0.5, 1.0])
    @example(course=90.0, lat0=70.0, seed=3, fills=[])
    @settings(max_examples=6, deadline=None)
    def test_sliding_estimates_hold_the_bound(self, window_n, motion_index, course, lat0,
                                              seed, fills):
        speed = RING_MOTIONS[motion_index]
        motion = None if speed is None else MotionProfile(speed.start, course, speed.speed_kmh)
        rng = np.random.default_rng(seed)
        size = 2 * window_n + 40
        lat = rng.uniform(lat0 - 5.0, lat0 + 5.0, size)  # |lat| <= 80
        lon = (rng.uniform(175.0, 185.0, size) + 180.0) % 360.0 - 180.0
        t_s = np.cumsum(rng.choice([0.0, 0.09, 0.27, 40.0], size=size))
        det = detector.WindowedDetector(DetectorConfig(20.0, window_n), motion)
        exact = record_exact(det)
        # chunks of the drawn fractions of a window first, then one beam at a
        # time to the end of the stream
        chunks = [*(round(f * window_n) for f in fills), *[1] * size]
        end = 0
        for chunk in chunks:
            if end == size:
                break
            w = slice(end, min(end + chunk, size))
            est = det.extend(lat[w], lon[w], t_s[w])
            end = w.stop
            if end >= window_n:
                w = slice(end - window_n, end)
                batch = detector.estimate_position_arrays(lat[w], lon[w], t_s[w], motion)
                assert_matches_batch(est, batch, motion, est is exact[-1])

    @pytest.mark.parametrize("motion", [RING_MOTIONS[0], RING_MOTIONS[-1]], ids=["still", "S5_top"])
    def test_wide_window_takes_the_whole_window_pass(self, motion):
        # a window within 5 degrees of lon 0, then beams at lon 100 and 190
        window_n = 50
        rng = np.random.default_rng(8)
        lon = np.concatenate([rng.uniform(-5.0, 5.0, window_n), rng.uniform(95.0, 105.0, 30),
                              rng.uniform(-175.0, -165.0, 40)])
        lat, t_s = rng.uniform(-20.0, 20.0, lon.size), np.arange(lon.size, dtype=float)
        det = detector.WindowedDetector(DetectorConfig(20.0, window_n), motion)
        exact = record_exact(det)
        for end in range(1, lon.size + 1):
            est = det.extend(lat[end - 1:end], lon[end - 1:end], t_s[end - 1:end])
            if end >= window_n:
                w = slice(end - window_n, end)
                batch = detector.estimate_position_arrays(lat[w], lon[w], t_s[w], motion)
                assert_matches_batch(est, batch, motion, est is exact[-1])
            if end in (window_n, window_n + 1):
                # the first fill, then a beam 90 degrees or more from its branch
                assert est is exact[-1]

    @pytest.mark.parametrize("course", [0.0, 57.0, 135.0, 270.0, 333.0])
    @pytest.mark.parametrize("motion_index", range(len(RING_MOTIONS)),
                             ids=["still", *(f"{c}_top" for c in SHIP_CLASSES)])
    def test_sliding_point_rows_equal_the_whole_window_rows(self, motion_index, course):
        # _anchor computes a sliding point's rows 3-7 in scalar math, the
        # whole-window pass in numpy: for the same points, anchor and branch
        # they agree to a few ulp of each row's scale (90, 180 degrees; 1)
        window_n = 200
        speed = RING_MOTIONS[motion_index]
        motion = None if speed is None else MotionProfile(speed.start, course, speed.speed_kmh)
        rng = np.random.default_rng(12)
        lat = rng.uniform(-79.0, 79.0, window_n)
        lon = (rng.uniform(170.0, 190.0, window_n) + 180.0) % 360.0 - 180.0
        t_s = np.sort(rng.uniform(0.0, 3600.0, window_n))
        det = detector.WindowedDetector(DetectorConfig(20.0, window_n), motion)
        det.extend(lat[:-1], lon[:-1], t_s[:-1])
        det.extend(lat[-1:], lon[-1:], t_s[-1:])  # the first fill anchors the window
        window = det._columns[:, det._end - window_n:det._end]
        rows = np.array([det._anchor(*point) for point in window[:3].T]).T
        scale = np.maximum(np.maximum(abs(rows), abs(window[3:8])),
                           np.array([90.0, 180.0, 1.0, 1.0, 1.0])[:, None])
        assert (abs(rows - window[3:8]) <= 32 * np.spacing(scale)).all()

    def test_polar_beam_takes_the_whole_window_pass(self):
        # a beam on the pole: any travel swings its longitude, which no rate
        # follows, so the whole-window pass takes every window that holds it
        window_n, motion = 20, RING_MOTIONS[-1]
        rng = np.random.default_rng(9)
        lat, lon = rng.uniform(60.0, 70.0, 3 * window_n), rng.uniform(-5.0, 5.0, 3 * window_n)
        lat[window_n - 1] = 90.0
        t_s = np.arange(3 * window_n, dtype=float)
        det = detector.WindowedDetector(DetectorConfig(20.0, window_n), motion)
        exact = record_exact(det)
        for end in range(1, 3 * window_n + 1):
            est = det.extend(lat[end - 1:end], lon[end - 1:end], t_s[end - 1:end])
            if end >= window_n:
                w = slice(end - window_n, end)
                batch = detector.estimate_position_arrays(lat[w], lon[w], t_s[w], motion)
                assert_matches_batch(est, batch, motion, est is exact[-1])

    def test_estimates_appear_after_window_fills(self):
        config = DetectorConfig(threshold_km=10.0, window_n=3)
        det = detector.WindowedDetector(config)
        records = records_of(make_records([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 30.0],
                                          [0.0] * 4, beam_ids=[1, 1, 1, 1]))
        assert det.push(records[0]) is None
        assert det.push(records[1]) is None
        est = det.push(records[2])
        assert est is not None and est.n_used == 3
        assert est.i_pos.lat_deg == pytest.approx(1.0)
        est = det.push(records[3])  # window slides forward
        assert est.i_pos.lat_deg == pytest.approx(11.0)

    def test_check_against_reported_position(self):
        config = DetectorConfig(threshold_km=10.0, window_n=1)
        det = detector.WindowedDetector(config)
        assert det.check(GeoPoint(0, 0)) is None
        det.push(records_of(make_records([0.0], [0.0], [0.0], beam_ids=[1]))[0])
        outcome = det.check(displace(GeoPoint(0, 0), 90.0, 25.0))
        assert outcome.alarm

    def test_track_records_ignored(self):
        config = DetectorConfig(threshold_km=10.0, window_n=1)
        det = detector.WindowedDetector(config)
        assert det.push(records_of(make_records([0.0], [5.0], [5.0], beam_ids=[0]))[0]) is None
