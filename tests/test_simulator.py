import json
import math

import numpy as np
import pytest

from ringalert import simulator
from ringalert.errors import InsufficientWindows, InvalidPer
from ringalert.geo import GeoPoint, great_circle_km
from ringalert.ingest import parse_line
from ringalert.model import MAX_SPEED_KMH, MotionProfile, valid_sat_ids
from ringalert.simulator import (
    SHIP_CLASSES,
    Scenario,
    SimConfig,
    SpoofProfile,
    default_beam_offsets,
    emit_stream,
    orbital_period_s,
    _FIRST_WINDOW_CHUNK_SLOTS,
    _MAX_WINDOW_SLOTS,
    _WINDOW_CHUNK_SLOTS,
    sample_windows,
)
from tests.conftest import corridor_config, format_line, overhead_config, records_of, run_times_s


class TestSimConfig:
    def test_defaults_give_90ms_slot(self):
        config = SimConfig()
        assert config.slot_us == 90_000
        assert config.slot_s == pytest.approx(0.09)
        assert config.beam_period_s / config.n_beams == pytest.approx(config.slot_s)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(per=1.5)
        with pytest.raises(ValueError):
            SimConfig(n_sats=67)
        with pytest.raises(ValueError):
            SimConfig(n_sats=10, planes=3)
        with pytest.raises(ValueError):
            SimConfig(plane_nodes_deg=(0.0,), planes=2, n_sats=22)
        with pytest.raises(ValueError):
            SimConfig(loss_model="sometimes")

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3", True, None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(seed=seed)

    def test_numpy_integer_seed_is_stored_as_int(self):
        config = SimConfig(seed=np.int64(4))
        assert type(config.seed) is int and config.seed == 4

    @pytest.mark.parametrize("duration_s", [1e13, 1e300])
    def test_duration_whose_slot_times_overflow_int64_is_rejected(self, duration_s):
        with pytest.raises(ValueError, match="int64"):
            SimConfig(duration_s=duration_s)

    def test_longest_duration_that_fits_int64(self):
        # the last whole slot below 2**63 - 1 microseconds
        slots = np.iinfo(np.int64).max // 90_000
        assert SimConfig(duration_s=slots * 0.09).duration_s == slots * 0.09
        with pytest.raises(ValueError, match="int64"):
            SimConfig(duration_s=(slots + 1) * 0.09)

    def test_sat_ids_are_valid(self):
        config = SimConfig(n_sats=66)
        assert set(config.sat_ids) <= valid_sat_ids()
        assert len(config.sat_ids) == 66

    def test_round_trip(self):
        config = corridor_config()
        assert SimConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


class TestDefaultBeamOffsets:
    def test_ring_structure(self):
        offsets = default_beam_offsets()
        assert len(offsets) == 48
        radii = [math.hypot(e, n) for e, n in offsets]
        assert radii[:8] == pytest.approx([3.36] * 8)
        assert radii[8:24] == pytest.approx([7.98] * 16)
        assert radii[24:] == pytest.approx([14.35] * 24)


def propagate(config: SimConfig, t_s: float) -> list[GeoPoint]:
    """Ground position of every satellite at time ``t_s`` (seconds into the run)."""
    basis = simulator._orbit_basis(config)
    points = []
    for j in range(config.n_sats):
        lat, lon, _ = simulator._sat_positions(config, basis, j, np.array([float(t_s)]))
        points.append(GeoPoint(float(lat[0]), float(lon[0])))
    return points


class TestPropagate:
    def test_initial_position_at_node(self):
        config = overhead_config()
        points = propagate(config, 0.0)
        assert len(points) == 1
        assert points[0].lat_deg == pytest.approx(0.0, abs=1e-9)
        assert points[0].lon_deg == pytest.approx(0.0, abs=1e-9)

    def test_ground_speed(self):
        config = overhead_config()
        p0 = propagate(config, 100.0)[0]
        p1 = propagate(config, 101.0)[0]
        assert great_circle_km(p0, p1).km == pytest.approx(6.89, abs=1e-6)

    def test_full_period_returns_to_start(self):
        config = overhead_config()
        period = orbital_period_s(config)
        assert period == pytest.approx(2 * math.pi * 6371.0 / 6.89, abs=1e-6)
        p0 = propagate(config, 0.0)[0]
        p1 = propagate(config, period)[0]
        assert great_circle_km(p0, p1).km < 1e-3

    def test_constellation_size(self):
        points = propagate(SimConfig(), 123.0)
        assert len(points) == 66


class TestEmitStream:
    def test_degenerate_full_loss_is_empty(self):
        records = emit_stream(overhead_config(per=1.0, duration_s=10.0))
        assert len(records) == 0

    def test_lossless_slot_spacing(self):
        records = emit_stream(overhead_config(duration_s=0.9))
        assert len(records) == 10
        times = records.t_s().tolist()
        assert times == pytest.approx([0.09 * i for i in range(10)], abs=1e-9)

    def test_determinism(self):
        config = corridor_config(duration_s=120.0, seed=42)
        a = emit_stream(config)
        b = emit_stream(config)
        assert a == b

    def test_seed_changes_stream(self):
        a = emit_stream(corridor_config(duration_s=120.0, seed=1))
        b = emit_stream(corridor_config(duration_s=120.0, seed=2))
        assert a != b

    def test_delivery_ratio_within_three_sigma(self):
        # 100k slots, one always-in-view satellite
        per = 0.5
        config = overhead_config(per=per, duration_s=9000.0, seed=17)
        records = emit_stream(config)
        slots = 100_000
        expected = slots * (1 - per)
        sigma = math.sqrt(slots * per * (1 - per))
        assert abs(len(records) - expected) <= 3 * sigma

    def test_records_survive_ingest_round_trip(self):
        # every emitted record must pass ingest validation; coordinates agree
        # at the 1e-6 degree precision of the file format
        records = emit_stream(corridor_config(duration_s=30.0))
        assert len(records)
        for record in records_of(records[:200]):
            back = parse_line(format_line(record))
            assert (back.epoch_s, back.frac, back.sat_id, back.beam_id) == \
                (record.epoch_s, record.frac, record.sat_id, record.beam_id)
            assert back.ground.lat_deg == pytest.approx(record.ground.lat_deg, abs=5e-7)
            assert back.ground.lon_deg == pytest.approx(record.ground.lon_deg, abs=5e-7)

    def test_beam_zero_cadence(self):
        records = emit_stream(overhead_config(duration_s=30.0))
        gaps = np.diff(records.t_s()[records.is_track])
        assert np.allclose(gaps, 4.32, atol=1e-9)

    def test_all_beams_emitted(self):
        records = emit_stream(overhead_config(duration_s=300.0))
        assert set(records.beam_id.tolist()) == set(range(49))

    def test_spoof_start_outside_run_rejected(self):
        scenario = Scenario(
            MotionProfile(GeoPoint(0, 0), 0.0, 0.0),
            SpoofProfile(1000.0, 90.0, 10.0),
        )
        with pytest.raises(ValueError, match="start 1000.0 s falls outside the simulated 500.0 s"):
            emit_stream(overhead_config(duration_s=500.0), scenario)

    def test_spoof_speed_limit(self):
        assert SpoofProfile(0.0, 90.0, MAX_SPEED_KMH).offset_speed_kmh == MAX_SPEED_KMH
        for speed in (-1.0, MAX_SPEED_KMH * (1 + 1e-15), 1e308, math.nan):
            with pytest.raises(ValueError, match="speed"):
                SpoofProfile(0.0, 90.0, speed)

    def test_burst_channel_keeps_grid_and_ratio(self):
        config = overhead_config(per=0.985, loss_model="burst", duration_s=30_000.0, seed=23)
        records = emit_stream(config)
        gaps = np.diff(records.t_s())
        on_grid = np.abs(gaps - np.round(gaps / 0.09) * 0.09)
        assert np.max(on_grid) < 1e-9
        ratio = len(records) / (30_000.0 / 0.09)
        assert ratio == pytest.approx(0.015, rel=0.15)

    @pytest.mark.parametrize("loss_model", simulator.LOSS_MODELS)
    def test_channel_keeps_only_in_view_slots(self, loss_model):
        # corridor coverage is partial: every kept slot falls in one of its
        # satellite's in-view slot ranges, and those ranges deliver 1 - per
        config = corridor_config(loss_model=loss_model, duration_s=12_000.0, seed=11)
        slot_count = simulator._slot_count(config)
        ranges_per_sat = simulator._view_slot_ranges(
            config, simulator._orbit_basis(config), GeoPoint(0, 0),
            config.coverage_radius_km, 0, slot_count)
        stream = emit_stream(config)
        slots = (stream.epoch_s - config.start_epoch_s) * 1_000_000 + stream.frac
        assert np.all(slots % config.slot_us == 0)
        slots //= config.slot_us
        in_view_slots = 0
        for sat_id, ranges in zip(config.sat_ids, ranges_per_sat):
            kept = slots[stream.sat_id == sat_id]
            inside = np.zeros(kept.size, dtype=bool)
            for k0, k1 in ranges:
                inside |= (k0 <= kept) & (kept <= k1)
                in_view_slots += k1 - k0 + 1
            assert np.all(inside), sat_id
        assert 0 < in_view_slots < config.n_sats * slot_count
        assert len(stream) / in_view_slots == pytest.approx(1.0 - config.per, rel=0.15)


class TestPerSatelliteDraw:
    # each satellite's in-view ranges are laid end to end for one loss draw,
    # and the drawn offsets are mapped back to slots

    RANGES = {  # satellite index -> inclusive slot ranges inside [40, 100)
        0: [(40, 40), (41, 45), (50, 50), (52, 99)],  # chunk-edge cuts, length 1, adjacent
        1: [],
        2: [(60, 60)],
        3: [(40, 99)],
        4: [(45, 47), (48, 48), (49, 49), (99, 99)],
    }

    def _emit_ranges(self, monkeypatch, ranges, per=0.0, seed=5):
        monkeypatch.setattr(simulator, "_view_slot_ranges",
                            lambda *args: [ranges.get(j, []) for j in range(5)])
        # whole-sphere coverage, so the exact in-view check keeps every slot
        config = overhead_config(n_sats=5, per=per, seed=seed)
        receiver = MotionProfile(GeoPoint(0, 0), 0.0, 0.0)
        return simulator._emit(config, simulator._orbit_basis(config), receiver, 40, 100,
                               np.random.default_rng(seed)), config

    @staticmethod
    def _slots_by_sat(table, config):
        slots = ((table.epoch_s - config.start_epoch_s) * 1_000_000 + table.frac) // config.slot_us
        return {j: slots[table.sat_id == sat_id].tolist()
                for j, sat_id in enumerate(config.sat_ids)}

    def test_lossless_keeps_every_in_view_slot(self, monkeypatch):
        table, config = self._emit_ranges(monkeypatch, self.RANGES)
        expected = {j: [k for k0, k1 in self.RANGES[j] for k in range(k0, k1 + 1)]
                    for j in self.RANGES}
        assert self._slots_by_sat(table, config) == expected

    @pytest.mark.parametrize("loss_model", simulator.LOSS_MODELS)
    def test_lossy_draw_stays_in_its_ranges(self, monkeypatch, loss_model):
        ranges = {j: [(k, k) for k in range(40, 100, 2)] for j in range(5)}
        table, config = self._emit_ranges(monkeypatch, ranges, per=0.5)
        for j, kept in self._slots_by_sat(table, config).items():
            assert kept and all(k % 2 == 0 for k in kept), j

    def test_lossless_chunks_concatenate_to_the_stream(self):
        # passes cut at a chunk edge keep every slot on both sides of the cut
        config = corridor_config(per=0.0, duration_s=1800.0)
        whole = emit_stream(config)
        basis = simulator._orbit_basis(config)
        receiver = MotionProfile(GeoPoint(0, 0), 0.0, 0.0)
        cut = simulator._slot_count(config) // 3 + 7
        parts = [simulator._emit(config, basis, receiver, lo, hi, np.random.default_rng(0))
                 for lo, hi in ((0, cut), (cut, simulator._slot_count(config)))]
        assert all(len(part) for part in parts)
        for name in ("epoch_s", "frac", "sat_id", "beam_id", "lat", "lon"):
            joined = np.concatenate([getattr(part, name) for part in parts])
            assert np.array_equal(joined, getattr(whole, name)), name


class TestScenario:
    def test_no_spoof_reported_equals_truth(self):
        scenario = Scenario(MotionProfile(GeoPoint(10, 20), 45.0, 30.0))
        for t in (0.0, 100.0, 5000.0):
            assert scenario.reported_position(t) == scenario.truth_position(t)

    def test_spoof_drift_rate(self):
        scenario = Scenario(
            MotionProfile(GeoPoint(0, 0), 0.0, 0.0),
            SpoofProfile(0.0, 90.0, 10.0),
        )
        drift = great_circle_km(scenario.reported_position(3600.0),
                                scenario.truth_position(3600.0))
        assert drift.km == pytest.approx(10.0, abs=1e-9)

    def test_cruise_ship_six_minute_drift(self):
        # fastest-ship sanity: 41 km/h over 6 minutes moves the ship 4.1 km
        motion = SHIP_CLASSES["S5"].motion(GeoPoint(0, 0), 0.0, 41.0)
        displaced = great_circle_km(motion.position_at(360.0), motion.start)
        assert displaced.km == pytest.approx(4.1, abs=1e-9)


class TestShipClasses:
    def test_speed_envelopes(self):
        expected = {
            "S1": (24.0, 28.0),
            "S2": (30.0, 44.0),
            "S3": (24.0, 31.0),
            "S4": (30.0, 41.0),
            "S5": (37.0, 46.0),
        }
        for class_id, (lo, hi) in expected.items():
            preset = SHIP_CLASSES[class_id]
            assert (preset.speed_min_kmh, preset.speed_max_kmh) == (lo, hi)

    def test_out_of_envelope_speed_rejected(self):
        with pytest.raises(ValueError):
            SHIP_CLASSES["S1"].motion(GeoPoint(0, 0), 0.0, 50.0)


class TestSampleWindows:
    def test_window_shapes_and_order(self):
        config = corridor_config(per=0.9, seed=7)
        windows = sample_windows(config, GeoPoint(0, 0), window_messages=500, n_windows=3)
        assert len(windows) == 3
        for w in windows:
            assert w.lat.size == 500
            assert np.all(np.diff(w.t_s) >= 0)
            assert np.all(w.beam_id >= 1)

    def test_windows_are_disjoint_in_time(self):
        config = corridor_config(per=0.9, seed=7)
        windows = sample_windows(config, GeoPoint(0, 0), window_messages=200, n_windows=4)
        for first, second in zip(windows, windows[1:]):
            assert first.t_s[-1] <= second.t_s[0]

    def test_deterministic_given_rng_seed(self):
        config = corridor_config(per=0.9)
        a = sample_windows(config, GeoPoint(0, 0), window_messages=300, n_windows=2,
                           rng=np.random.default_rng(5))
        b = sample_windows(config, GeoPoint(0, 0), window_messages=300, n_windows=2,
                           rng=np.random.default_rng(5))
        assert all(np.array_equal(x.lat, y.lat) for x, y in zip(a, b))

    def test_total_loss_is_rejected_before_emitting(self, monkeypatch):
        monkeypatch.setattr(simulator, "_emit", None)  # calling it would raise TypeError
        with pytest.raises(InvalidPer):
            sample_windows(corridor_config(per=1.0), GeoPoint(0, 0), window_messages=10,
                           n_windows=1)

    def test_unreachable_receiver_runs_out_of_chunks(self, monkeypatch):
        # a 10 km footprint on six satellites of one polar plane never reaches (0, 90)
        config = SimConfig(n_sats=6, planes=1, plane_nodes_deg=(0.0,), inclination_deg=90.0,
                           coverage_radius_km=10.0)
        chunks = _record_chunks(monkeypatch)
        with pytest.raises(InsufficientWindows, match=f"0/3 windows in {_MAX_WINDOW_SLOTS} slots"):
            sample_windows(config, GeoPoint(0, 90), window_messages=10, n_windows=3)
        # the last chunk stops at the horizon
        _assert_contiguous(chunks[:-1])
        assert chunks[-1] == (chunks[-2][1], _MAX_WINDOW_SLOTS)
        # no beam seen: each chunk is four times the last, up to the cap
        sizes = [hi - lo for lo, hi in chunks]
        assert sizes[:4] == [_FIRST_WINDOW_CHUNK_SLOTS * 4 ** k for k in range(4)]
        assert max(sizes) == _WINDOW_CHUNK_SLOTS

    @pytest.mark.parametrize("loss_model", simulator.LOSS_MODELS)
    def test_windows_match_emit_stream(self, loss_model):
        # over the first chunk of slots, the windows are the beam records of the
        # stream emit_stream gives for the same seed and a stationary receiver
        base = corridor_config(per=0.9, seed=7, loss_model=loss_model)
        config = SimConfig(**{**base.to_dict(),
                              "duration_s": _FIRST_WINDOW_CHUNK_SLOTS * base.slot_us / 1e6})
        windows = sample_windows(config, GeoPoint(0, 0), window_messages=700, n_windows=30)
        stream = emit_stream(config)
        emitted_columns = {"t_s": run_times_s(stream, config), "lat": stream.lat,
                           "lon": stream.lon, "sat_id": stream.sat_id, "beam_id": stream.beam_id}
        for name, column in emitted_columns.items():
            emitted = column[stream.is_beam]
            sampled = np.concatenate([getattr(w, name) for w in windows])
            assert sampled.size > emitted.size > 0  # the windows run past the first chunk
            assert sampled.dtype == emitted.dtype
            assert np.array_equal(sampled[:emitted.size], emitted), name


def _record_chunks(monkeypatch) -> list[tuple[int, int]]:
    """Wrap the emitter; the returned list fills with each (slot_lo, slot_hi) it is asked for."""
    chunks = []
    emit = simulator._emit

    def recording_emit(config, basis, receiver, slot_lo, slot_hi, rng):
        chunks.append((slot_lo, slot_hi))
        return emit(config, basis, receiver, slot_lo, slot_hi, rng)

    monkeypatch.setattr(simulator, "_emit", recording_emit)
    return chunks


def _assert_contiguous(chunks):
    assert chunks[0] == (0, _FIRST_WINDOW_CHUNK_SLOTS)
    assert all(prev[1] == nxt[0] for prev, nxt in zip(chunks, chunks[1:]))
    sizes = [hi - lo for lo, hi in chunks]
    assert sizes == sorted(sizes) and max(sizes) <= _WINDOW_CHUNK_SLOTS


class TestWindowSchedule:
    @pytest.mark.parametrize("window_messages", [10, 1000])
    def test_chunks_are_contiguous_and_rerun_identically(self, monkeypatch, window_messages):
        config = corridor_config()
        chunks = _record_chunks(monkeypatch)
        schedules = []
        for _ in range(2):
            chunks.clear()
            sample_windows(config, GeoPoint(0, 0), window_messages=window_messages,
                           n_windows=100, rng=np.random.default_rng([config.seed, window_messages]))
            _assert_contiguous(chunks)
            schedules.append(list(chunks))
        assert schedules[0] == schedules[1]

    @pytest.mark.parametrize("window_messages", [10, 100, 1000])
    def test_cell_emits_about_what_it_needs(self, monkeypatch, window_messages):
        # the n x 100 cells of the false-positive grid at per 0.985
        config = corridor_config()
        chunks = _record_chunks(monkeypatch)
        windows = sample_windows(config, GeoPoint(0, 0), window_messages=window_messages,
                                 n_windows=100,
                                 rng=np.random.default_rng([config.seed, window_messages]))
        needed_slots = round(windows[-1].t_s[-1] / config.slot_s) + 1
        assert chunks[-1][1] <= _FIRST_WINDOW_CHUNK_SLOTS + 2 * needed_slots


class TestOrbitAxisReceiver:
    # a receiver on a polar orbit's axis sits at a constant quarter
    # circumference from the satellite: in view only with whole-quadrant coverage

    def test_never_in_view_with_default_coverage(self):
        config = overhead_config(duration_s=60.0)
        scenario = Scenario(MotionProfile(GeoPoint(0.0, 90.0), 0.0, 0.0))
        assert len(emit_stream(
            SimConfig(**{**config.to_dict(), "coverage_radius_km": 1625.0}), scenario
        )) == 0

    def test_always_in_view_with_quadrant_coverage(self):
        config = overhead_config(duration_s=9.0, coverage_radius_km=10_008.0)
        scenario = Scenario(MotionProfile(GeoPoint(0.0, 90.0), 0.0, 0.0))
        assert len(emit_stream(config, scenario)) == 100
