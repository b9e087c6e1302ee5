"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Criteria that reference the public measurement
dataset run their real-data arm only when ``RINGALERT_REAL_DATASET`` points
at a log file; the synthetic arms always run.
"""

import math
import os

import numpy as np
import pytest

from ringalert import analytics, detector, ingest
from ringalert.geo import GeoPoint, arc_km, great_circle_km
from ringalert.model import DetectorConfig
from ringalert.simulator import (
    SHIP_CLASSES,
    Scenario,
    SpoofProfile,
    default_beam_offsets,
    emit_stream,
    sample_windows,
)
from ringalert.cli import main as cli_main
from tests.conftest import (
    SAMPLE_LOG_FIELDS,
    SAMPLE_LOG_ROWS,
    corridor_config,
    log_file,
    overhead_config,
    run_times_s,
)

REAL_DATASET = os.environ.get("RINGALERT_REAL_DATASET")


def _report(criterion: int, name: str):
    print(f"ACCEPTANCE {criterion} ({name}): PASS")


def test_01_parser_fidelity(tmp_path):
    # every reference row parses to its exact field values
    for row, (epoch, frac, sat, beam, lat, lon) in zip(SAMPLE_LOG_ROWS, SAMPLE_LOG_FIELDS):
        record = ingest.parse_line(row)
        assert record.epoch_s == epoch
        assert record.frac == frac
        assert record.sat_id == sat
        assert record.beam_id == beam
        assert record.ground.lat_deg == lat
        assert record.ground.lon_deg == lon
    # corrupted lines are quarantined and the counters reconcile with totals
    rows = list(SAMPLE_LOG_ROWS) + [
        "not a record",
        "1580712040 000000739 115 49 +29.81 +046.10",
        "1580712040 000000739 116 0 +29.81 +046.10",
    ]
    records, report = ingest.parse_stream(log_file(tmp_path, rows))
    assert len(records) == 7
    assert report.quarantined == 3
    assert report.reconciles()
    _report(1, "parser fidelity")


def test_02_speed_statistic():
    config = overhead_config(duration_s=5810.0)
    records = emit_stream(config)
    samples = analytics.ground_speeds(records)
    mode = analytics.speed_mode_kms(samples)
    assert mode == pytest.approx(6.89, abs=0.05)
    if REAL_DATASET:
        real_records, _ = ingest.parse_table(REAL_DATASET)
        real_mode = analytics.speed_mode_kms(
            analytics.ground_speeds(real_records, max_dt_s=10.0)
        )
        assert real_mode == pytest.approx(6.89, abs=0.2)
    _report(2, "speed statistic")


def test_03_interarrival_grid():
    # lossless: every interarrival is an exact multiple of the 90 ms slot
    lossless = emit_stream(overhead_config(duration_s=600.0))
    stats = analytics.interarrival_stats(lossless)
    assert np.abs(stats.residuals_s).max() < 1e-9
    assert stats.mode_s == pytest.approx(0.09, abs=0.02)
    # heavy loss: the iid channel has memoryless gaps whose histogram peaks at
    # the first bin, so the peaked modal gap seen on air is reproduced by the
    # bursty outage channel at the same delivery ratio
    bursty = emit_stream(overhead_config(
        per=0.985, loss_model="burst", duration_s=1_296_000.0, seed=23,
    ))
    stats = analytics.interarrival_stats(bursty, bin_width_s=0.5)
    assert 4.3 <= stats.mode_s <= 5.4
    assert analytics.packet_delivery_ratio(bursty) == pytest.approx(0.015, rel=0.05)
    _report(3, "interarrival grid")


def test_04_evd_fit_recovery():
    # oracle: inverse-CDF sampling of the pass-duration density, written out
    # here independently of the library implementation
    mu, sigma = 7.28, 1.67
    rng = np.random.default_rng(404)
    u = rng.uniform(1e-12, 1 - 1e-12, 10_000)
    samples = mu + sigma * np.log(-np.log(1.0 - u))
    fit = analytics.fit_evd(samples)
    assert fit.mu == pytest.approx(mu, abs=0.1)
    assert fit.sigma == pytest.approx(sigma, abs=0.1)
    if REAL_DATASET:
        records, _ = ingest.parse_table(REAL_DATASET)
        real_fit = analytics.fit_evd(analytics.pass_durations_min(ingest.segment_passes(records)))
        assert real_fit.mu == pytest.approx(mu, abs=0.5)
        assert real_fit.sigma == pytest.approx(sigma, abs=0.5)
    _report(4, "EVD fit recovery")


def test_05_pratt_fit_exactness():
    rng = np.random.default_rng(505)
    # noiseless circles of arbitrary radius/placement recover to 1e-9 relative
    for _ in range(25):
        r = float(rng.uniform(0.5, 3000.0))
        cx, cy = rng.uniform(-2000.0, 2000.0, 2)
        angles = rng.uniform(0.0, 2 * math.pi, int(rng.integers(3, 20)))
        pts = np.column_stack([cx + r * np.cos(angles), cy + r * np.sin(angles)])
        (fx, fy), fr = analytics.pratt_circle_fit(pts)
        assert abs(fr - r) <= 1e-9 * r
        assert math.hypot(fx - cx, fy - cy) <= 1e-9 * max(r, abs(cx), abs(cy))
    # 1% radial noise: agree with a brute-force geometric fit to 1%
    from scipy.optimize import least_squares

    for _ in range(10):
        r = float(rng.uniform(100.0, 2500.0))
        angles = rng.uniform(0.0, 2 * math.pi, 20)
        radii = r * (1.0 + 0.01 * rng.standard_normal(20))
        pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        (px, py), pr = analytics.pratt_circle_fit(pts)

        def residuals(params, x=pts[:, 0], y=pts[:, 1]):
            return np.hypot(x - params[0], y - params[1]) - params[2]

        gx, gy, gr = least_squares(residuals, [0.0, 0.0, r]).x
        assert pr == pytest.approx(gr, rel=0.01)
        assert math.hypot(px - gx, py - gy) <= 0.01 * r
    _report(5, "Pratt fit exactness")


def test_06_beam_constellation_closed_loop():
    # one northbound plane and one southbound plane over the receiver exercise
    # the direction mirroring; lossless stream recovers the configured layout
    from ringalert.simulator import SimConfig

    config = SimConfig(
        n_sats=2, planes=2, plane_nodes_deg=(0.0, 180.0), inclination_deg=90.0,
        per=0.0, duration_s=5810.0, seed=606,
    )
    records = emit_stream(config)
    constellation = analytics.beam_constellation(records)
    offsets = default_beam_offsets()
    assert set(constellation.centroids) == set(range(1, 49))
    worst = max(
        math.hypot(east - offsets[beam - 1][0], north - offsets[beam - 1][1])
        for beam, (east, north) in constellation.centroids.items()
    )
    assert worst < 0.1
    for fitted, expected in zip(constellation.ring_radii_km, (3.36, 7.98, 14.35)):
        assert fitted == pytest.approx(expected, rel=0.02)
    _report(6, "beam constellation closed loop")


def _deviations_km(windows, receiver: GeoPoint) -> np.ndarray:
    """Each window's centroid deviation from the receiver, as ``evaluate`` finds
    it: the block estimator on the windows' rows, then ``arc_km``."""
    lat, lon = detector.estimate_windows(windows.lat, windows.lon, windows.t_s)[:2]
    return arc_km(lat, lon, receiver.lat_deg, receiver.lon_deg)


def test_07_centroid_error_power_law():
    receiver = GeoPoint(0.0, 0.0)
    config = corridor_config(seed=101)
    n_grid = [10, 22, 46, 100, 215, 464, 1000, 2154, 4642, 10_000]
    mean_err = []
    for n in n_grid:
        rng = np.random.default_rng([config.seed, n])
        windows = sample_windows(config, receiver, window_messages=n,
                                 n_windows=40, rng=rng)
        mean_err.append(float(np.mean(_deviations_km(windows, receiver))))
    fit = detector.fit_power_law(n_grid, mean_err)
    assert -0.65 <= fit.m <= -0.45
    predicted_6100 = 10.0 ** fit.q * 6100 ** fit.m
    assert 5.0 <= predicted_6100 <= 20.0
    _report(7, "centroid error power law")


def test_08_waiting_time_model():
    # Under the adopted collection-time model, 6100 messages at 99% loss take
    # 6100 * 0.09 / 0.01 = 54,900 s (~15.25 h). Published narrative for this
    # regime says about 10 hours; the two disagree and no exact waiting-time
    # model was given, so the geometric model above is the contract here and
    # the discrepancy is documented rather than absorbed into the test.
    assert detector.waiting_time(6100, 0.99) == pytest.approx(54_900.0, rel=1e-12)
    assert detector.waiting_time(1, 0.0) == pytest.approx(0.09, rel=1e-12)
    assert detector.waiting_time(6100, 0.5) == pytest.approx(1098.0, rel=1e-12)
    _report(8, "waiting time model")


def test_09_detection_end_to_end():
    # detection arm: cruise-class receiver sailing the corridor, reported
    # track spoofed eastward until the detour reaches 50 km
    motion = SHIP_CLASSES["S5"].motion(GeoPoint(0.0, 0.0), 0.0, 46.0)
    scenario = Scenario(motion, SpoofProfile(0.0, 90.0, 50.0))
    det_config = DetectorConfig(threshold_km=20.0, window_n=6100)
    alarms = 0
    for seed in range(100):
        config = corridor_config(
            n_sats=22, planes=2, plane_nodes_deg=(-0.02, 0.02),
            per=0.1, duration_s=3600.0, seed=seed,
        )
        stream = emit_stream(config, scenario)
        beams = stream.is_beam
        lat = stream.lat[beams][-det_config.window_n:]
        lon = stream.lon[beams][-det_config.window_n:]
        t = run_times_s(stream, config)[beams][-det_config.window_n:]
        assert lat.size == det_config.window_n
        t_ref = float(t[-1])
        estimate = detector.estimate_position_arrays(lat, lon, t, motion)
        g_pos = scenario.reported_position(t_ref)
        assert great_circle_km(g_pos, scenario.truth_position(t_ref)).km == \
            pytest.approx(50.0, abs=0.1)
        alarms += detector.detect(estimate, g_pos, det_config).alarm
    assert alarms >= 99

    # false-positive arm: no spoof, stationary receiver, empirical rates drop
    # with n and the fitted exponents order like the published per-threshold fits
    receiver = GeoPoint(0.0, 0.0)
    fp_config = corridor_config(seed=202)
    n_grid = [10, 46, 215, 1000, 4642, 10_000]
    deviations = {}
    for n in n_grid:
        rng = np.random.default_rng([fp_config.seed, n])
        windows = sample_windows(fp_config, receiver, window_messages=n,
                                 n_windows=100, rng=rng)
        deviations[n] = _deviations_km(windows, receiver)
    rates = detector.evaluate_fp(deviations, [10.0, 15.0, 20.0], min_windows=100)
    assert rates[(10_000, 20.0)] < rates[(10, 20.0)]
    fits = detector.fp_exponent_fits(rates)
    assert fits[10.0].m < 0 and fits[15.0].m < 0 and fits[20.0].m < 0
    assert fits[10.0].m > fits[15.0].m > fits[20.0].m
    _report(9, "detection end to end")


def test_10_determinism(tmp_path):
    sim_args = ["simulate", "--per", "0.9", "--duration", "600", "--seed", "11",
                "--n-sats", "22", "--planes", "2", "--plane-nodes=-0.02,0.02",
                "--inclination", "90"]
    out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
    track_a, track_b = tmp_path / "a_track.txt", tmp_path / "b_track.txt"
    assert cli_main(sim_args + ["--output", str(out_a), "--track-out", str(track_a)]) == 0
    assert cli_main(sim_args + ["--output", str(out_b), "--track-out", str(track_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert track_a.read_bytes() == track_b.read_bytes()

    rep_a, rep_b = tmp_path / "ra", tmp_path / "rb"
    for rep in (rep_a, rep_b):
        assert cli_main(["analyze", "--input", str(out_a), "--receiver", "0,0",
                         "--report", str(rep)]) == 0
    files_a = {p.name: p.read_bytes() for p in rep_a.iterdir()}
    files_b = {p.name: p.read_bytes() for p in rep_b.iterdir()}
    assert files_a == files_b

    ev_a, ev_b = tmp_path / "ea", tmp_path / "eb"
    ev_args = ["evaluate", "--windows", "30", "--n-grid", "10,100,1000",
               "--thresholds", "10,20", "--per", "0.9", "--seed", "3",
               "--n-sats", "22", "--planes", "2", "--plane-nodes=-0.02,0.02",
               "--inclination", "90", "--receiver", "0,0"]
    for rep in (ev_a, ev_b):
        assert cli_main(ev_args + ["--report", str(rep)]) == 0
    assert {p.name: p.read_bytes() for p in ev_a.iterdir()} == \
        {p.name: p.read_bytes() for p in ev_b.iterdir()}

    det_a, det_b = tmp_path / "da", tmp_path / "db"
    for rep in (det_a, det_b):
        assert cli_main(["detect", "--input", str(out_a), "--gnss-track", str(track_a),
                         "--threshold-km", "20", "--window-n", "3", "--report", str(rep)]) == 0
    files_a = {p.name: p.read_bytes() for p in det_a.iterdir()}
    assert set(files_a) == {"detect_windows.tsv", "detect_summary.json"}
    assert files_a == {p.name: p.read_bytes() for p in det_b.iterdir()}
    _report(10, "determinism")
