import math

import numpy as np
import pytest
from hypothesis import given, settings
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
from ringalert.model import DetectorConfig, MotionProfile, PowerLawCoeffs, RecordTable
from ringalert.simulator import SHIP_CLASSES, Scenario, emit_stream
from tests.conftest import corridor_config, make_records


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
            stream = emit_stream(config, scenario, return_arrays=True)
            beams = stream.beam_id >= 1
            lat, lon, t = stream.lat[beams], stream.lon[beams], stream.t_s[beams]
            t_ref = float(t[-1])
            truth = scenario.truth_position(t_ref)
            est_with = detector.estimate_position_arrays(lat, lon, t, motion, t_ref)
            est_without = detector.estimate_position_arrays(lat, lon, t, None, t_ref)
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

    def test_window_cap_uses_latest(self):
        records = make_records([0.0, 1.0, 2.0], [0.0, 10.0, 20.0], [0.0] * 3,
                               beam_ids=[1, 1, 1])
        config = DetectorConfig(threshold_km=10.0, window_n=2)
        est = detector.estimate_position(records, config=config)
        assert est.n_used == 2
        assert est.i_pos.lat_deg == pytest.approx(15.0)

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


class TestWindowedDetector:
    @pytest.mark.parametrize("motion", RING_MOTIONS,
                             ids=["still", *(f"{c}_top" for c in SHIP_CLASSES)])
    @pytest.mark.parametrize("window_n", [1, 2, 3, 500, 1000])
    def test_estimates_equal_batch_over_buffer_wraps(self, window_n, motion):
        # the (3, 2n) buffer first wraps at beam push 2n + 1, then every n pushes
        records = ring_stream(5 * window_n, seed=window_n)
        # the stream is time-ordered, so a slice of the sorted beam table is a window
        beams = RecordTable.from_records([r for r in records if r.beam_id >= 1])
        assert len(beams) == 5 * window_n
        det = detector.WindowedDetector(DetectorConfig(20.0, window_n), motion)
        pushed = 0
        for record in records:
            est = det.push(record)
            pushed += record.beam_id >= 1
            if pushed < window_n:
                assert est is None
            else:
                assert est == detector.estimate_position(beams[pushed - window_n:pushed], motion)

    @pytest.mark.parametrize("motion", [RING_MOTIONS[0], RING_MOTIONS[-1]], ids=["still", "S5_top"])
    def test_shuffled_pushes_match_sorted_window(self, motion):
        window_n = 40
        records = ring_stream(6 * window_n, seed=11)
        order = np.random.default_rng(12).permutation(len(records))
        det = detector.WindowedDetector(DetectorConfig(20.0, window_n), motion)
        beams = []
        for i in order:
            est = det.push(records[i])
            if records[i].beam_id >= 1:
                beams.append(records[i])
            if len(beams) >= window_n:
                # estimate_position sorts the window; the buffer keeps push order
                ref = detector.estimate_position(beams[-window_n:], motion)
                assert (est.n_used, est.window) == (ref.n_used, ref.window)
                assert est.i_pos.lat_deg == pytest.approx(ref.i_pos.lat_deg, abs=1e-9)
                d_lon = (est.i_pos.lon_deg - ref.i_pos.lon_deg + 180.0) % 360.0 - 180.0
                assert abs(d_lon) <= 1e-9

    def test_estimates_appear_after_window_fills(self):
        config = DetectorConfig(threshold_km=10.0, window_n=3)
        det = detector.WindowedDetector(config)
        records = make_records([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 30.0],
                               [0.0] * 4, beam_ids=[1, 1, 1, 1])
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
        det.push(make_records([0.0], [0.0], [0.0], beam_ids=[1])[0])
        outcome = det.check(displace(GeoPoint(0, 0), 90.0, 25.0))
        assert outcome.alarm

    def test_track_records_ignored(self):
        config = DetectorConfig(threshold_km=10.0, window_n=1)
        det = detector.WindowedDetector(config)
        assert det.push(make_records([0.0], [5.0], [5.0], beam_ids=[0])[0]) is None
