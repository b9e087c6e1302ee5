import contextlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ringalert import simulator
from ringalert.errors import InsufficientWindows, InvalidPer, RingAlertError
from ringalert.geo import EARTH_RADIUS_KM, GeoPoint, displace_deg, great_circle_km, unit_vectors
from ringalert.ingest import parse_line
from ringalert.model import MAX_SPEED_KMH, MotionProfile, valid_sat_ids
from ringalert.simulator import (
    MAX_EMIT_DURATION_S,
    MAX_GROUND_SPEED_KMS,
    SHIP_CLASSES,
    Scenario,
    SimConfig,
    SpoofProfile,
    default_beam_offsets,
    emit_stream,
    orbital_period_s,
    _MAX_WINDOW_SLOTS,
    sample_windows,
)
from tests.conftest import (corridor_config, format_line, haversine_km, overhead_config, records_of,
                            run_times_s)


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

    @pytest.mark.parametrize("field", ["duration_s", "beam_period_s"])
    @pytest.mark.parametrize("value", [math.nextafter(MAX_EMIT_DURATION_S, math.inf), 1e13,
                                       1e300, 1e303, 1e308])
    def test_time_past_the_emission_limit_is_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be <= {MAX_EMIT_DURATION_S}"):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("field", ["duration_s", "beam_period_s"])
    def test_longest_time_is_the_emission_limit(self, field):
        # at the limit every microsecond slot time fits int64 with room to spare
        config = SimConfig(**{field: MAX_EMIT_DURATION_S})
        assert getattr(config, field) == MAX_EMIT_DURATION_S
        assert simulator._slot_count(config) * config.slot_us < 1e14

    @pytest.mark.parametrize("speed", [MAX_GROUND_SPEED_KMS * (1 + 1e-15), 1e308, 0.0, -1.0,
                                       1e-310, 1e-300, 4e-9])
    def test_ground_speed_outside_its_range_is_rejected(self, speed):
        with pytest.raises(ValueError, match="ground_speed_kms"):
            SimConfig(ground_speed_kms=speed)

    def test_ground_speed_range(self):
        # at most the circular speed at the surface; at least a period of 2**63 - 1 us
        assert math.sqrt(398600.4418 / EARTH_RADIUS_KM) == pytest.approx(MAX_GROUND_SPEED_KMS,
                                                                          abs=0.005)
        assert SimConfig(ground_speed_kms=MAX_GROUND_SPEED_KMS).ground_speed_kms == 7.91
        slowest = 2.0 * math.pi * EARTH_RADIUS_KM / (np.iinfo(np.int64).max * 1e-6)
        assert SimConfig(ground_speed_kms=slowest * 1.001).ground_speed_kms == slowest * 1.001
        with pytest.raises(ValueError, match="too slow"):
            SimConfig(ground_speed_kms=slowest * 0.999)

    def test_start_epoch_range(self):
        # every emitted epoch fits int64: a run covers less than MAX_EMIT_DURATION_S
        latest = np.iinfo(np.int64).max - int(MAX_EMIT_DURATION_S)
        for epoch in (0, latest):
            config = SimConfig(start_epoch_s=epoch, duration_s=60.0)
            assert emit_stream(config).epoch_s.min() >= epoch
        for epoch in (-1, latest + 1, 10**19):
            with pytest.raises(ValueError, match="start_epoch_s"):
                SimConfig(start_epoch_s=epoch)

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
        (x, y, z), _ = simulator._sat_positions(config, basis, j, np.array([float(t_s)]))
        points.append(GeoPoint(math.degrees(math.atan2(z[0], math.hypot(x[0], y[0]))),
                               math.degrees(math.atan2(y[0], x[0]))))
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
        sat, first, last = simulator._view_slot_ranges(
            config, simulator._orbit_basis(config), GeoPoint(0, 0),
            config.coverage_radius_km, 0, slot_count)
        stream = emit_stream(config)
        slots = (stream.epoch_s - config.start_epoch_s) * 1_000_000 + stream.frac
        assert np.all(slots % config.slot_us == 0)
        slots //= config.slot_us
        in_view_slots = 0
        for j, sat_id in enumerate(config.sat_ids):
            kept = slots[stream.sat_id == sat_id]
            inside = np.zeros(kept.size, dtype=bool)
            for k0, k1 in zip(first[sat == j], last[sat == j]):
                inside |= (k0 <= kept) & (kept <= k1)
                in_view_slots += k1 - k0 + 1
            assert np.all(inside), sat_id
        assert 0 < in_view_slots < config.n_sats * slot_count
        assert len(stream) / in_view_slots == pytest.approx(1.0 - config.per, rel=0.15)


def emit_haversine_reference(config: SimConfig, scenario: Scenario) -> dict[str, np.ndarray]:
    """Reference: the stream with each satellite's whole run drawn at once from its own
    generator, each satellite taken to latitude and longitude, a haversine
    visibility test, and each beam offset applied by ``displace_deg``."""
    receiver = scenario.receiver
    basis = simulator._orbit_basis(config)
    a_all, t_all, phases = basis
    omega = config.ground_speed_kms / EARTH_RADIUS_KM
    offsets = np.array(config.beam_offsets)
    streams = np.random.default_rng(config.seed).spawn(config.n_sats)
    margin_km = receiver.speed_kmh * config.duration_s / 3600.0
    sat, first_all, last_all = simulator._view_slot_ranges(
        config, basis, receiver.start, config.coverage_radius_km + margin_km, 0,
        simulator._slot_count(config))
    rows = []
    for j in range(config.n_sats):
        if not np.any(sat == j):
            continue
        first, last = first_all[sat == j], last_all[sat == j]
        laid_end = np.cumsum(last - first + 1)
        drawn, _ = simulator._kept_offsets(int(laid_end[-1]), config, streams[j],
                                           np.array([-1]))
        kept = drawn + (last + 1 - laid_end)[np.searchsorted(laid_end, drawn, side="right")]
        t = (kept * config.slot_us).astype(float) * 1e-6
        theta = omega * t + phases[j]
        u = np.outer(np.cos(theta), a_all[j]) + np.outer(np.sin(theta), t_all[j])
        lat = np.degrees(np.arcsin(np.clip(u[:, 2], -1.0, 1.0)))
        lon = np.degrees(np.arctan2(u[:, 1], u[:, 0]))
        northbound = t_all[j][2] * np.cos(theta) - a_all[j][2] * np.sin(theta) >= 0.0
        if receiver.speed_kmh > 0:
            r_lat, r_lon = displace_deg(receiver.start.lat_deg, receiver.start.lon_deg,
                                        receiver.course_deg, receiver.speed_kmh * t / 3600.0)
        else:
            r_lat, r_lon = receiver.start.lat_deg, receiver.start.lon_deg
        visible = haversine_km(lat, lon, r_lat, r_lon) <= config.coverage_radius_km
        kept, lat, lon, northbound = kept[visible], lat[visible], lon[visible], northbound[visible]
        beam_id = beam_ids_reference(config, kept, j)
        east, north = np.where(beam_id > 0, offsets[beam_id - 1].T, 0.0)
        north = np.where(northbound, north, -north)
        beam_lat, beam_lon = displace_deg(lat, lon, np.degrees(np.arctan2(east, north)),
                                          np.hypot(east, north))
        rows.append((kept, np.full(kept.size, config.sat_ids[j]), beam_id,
                     np.where(beam_id > 0, beam_lat, lat), np.where(beam_id > 0, beam_lon, lon)))
    slot, sat_id, beam_id, lat, lon = (np.concatenate(column) for column in zip(*rows))
    order = np.lexsort((sat_id, slot))
    total_us = slot[order] * config.slot_us
    return {"epoch_s": config.start_epoch_s + total_us // 1_000_000,
            "frac": total_us % 1_000_000, "sat_id": sat_id[order], "beam_id": beam_id[order],
            "lat": lat[order], "lon": lon[order]}


def _still(lat, lon) -> Scenario:
    return Scenario(MotionProfile(GeoPoint(lat, lon), 0.0, 0.0))


class TestVectorGeometry:
    # the unit-vector emitter against the latitude/longitude reference: the
    # same records, at positions within 1e-9 degrees
    @pytest.mark.parametrize("config, scenario", [
        (SimConfig(duration_s=600.0, per=0.5, seed=1), _still(60, 10)),
        (corridor_config(duration_s=900.0, per=0.5, seed=2),
         Scenario(MotionProfile(GeoPoint(0, 0), 0.0, 46.0), SpoofProfile(450.0, 90.0, 50.0))),
        (SimConfig(duration_s=1200.0, per=0.8, seed=3), _still(89.9, 10)),
        (SimConfig(duration_s=1200.0, per=0.8, seed=4), _still(-89.9, -100)),
        (SimConfig(duration_s=600.0, per=0.5, seed=5), _still(0, 180)),
        (overhead_config(duration_s=600.0), _still(0, 0)),
    ], ids=["still", "corridor-moving-spoofed", "north-polar", "south-polar", "antimeridian",
            "coverage-25000km"])
    def test_matches_the_haversine_reference(self, config, scenario):
        stream = emit_stream(config, scenario)
        reference = emit_haversine_reference(config, scenario)
        assert len(stream) > 1000
        for name in ("epoch_s", "frac", "sat_id", "beam_id"):
            assert np.array_equal(getattr(stream, name), reference[name]), name
        assert np.max(np.abs(stream.lat - reference["lat"])) < 1e-9
        # 180 and -180 are one meridian
        assert np.max(np.abs((stream.lon - reference["lon"] + 180.0) % 360.0 - 180.0)) < 1e-9

    def test_longitudes_fold_into_the_half_open_range(self):
        # on the far side of a polar orbit through longitude 0, the sub-satellite
        # records lie on the antimeridian: +180, never -180
        stream = emit_stream(overhead_config(duration_s=4000.0, per=0.9))
        on_antimeridian = np.abs(stream.lon) == 180.0
        assert on_antimeridian.sum() > 10 and np.all(stream.lon > -180.0)


def view_slot_ranges_reference(config: SimConfig, basis, receiver: GeoPoint, radius_km: float,
                               slot_lo: int, slot_hi: int) -> list[list[tuple[int, int]]]:
    """Reference: each satellite's inclusive in-view slot ranges, one orbital
    revolution at a time, in Python floats and integers."""
    a_all, t_all, phases = basis
    r_hat = unit_vectors(receiver.lat_deg, receiver.lon_deg)
    omega = config.ground_speed_kms / EARTH_RADIUS_KM
    slot_s = config.slot_s
    cos_delta = math.cos(min(radius_km / EARTH_RADIUS_KM, math.pi))
    out = []
    for j in range(config.n_sats):
        a_dot, t_dot = float(a_all[j] @ r_hat), float(t_all[j] @ r_hat)
        c = math.hypot(a_dot, t_dot)
        whole = [(slot_lo, slot_hi - 1)] if slot_hi > slot_lo else []
        if c < 1e-15:
            out.append(whole if cos_delta <= 0.0 else [])
            continue
        if cos_delta / c >= 1.0:
            out.append([])
            continue
        if cos_delta / c <= -1.0:
            out.append(whole)
            continue
        psi = math.atan2(t_dot, a_dot)
        alpha = math.acos(cos_delta / c)
        t_center0 = (psi - phases[j]) / omega
        half_t = alpha / omega
        period = 2.0 * math.pi / omega
        m_lo = math.floor((slot_lo * slot_s - t_center0 - half_t) / period)
        m_hi = math.ceil((slot_hi * slot_s - t_center0 + half_t) / period)
        ranges = []
        for m in range(m_lo, m_hi + 1):
            t0 = t_center0 - half_t + m * period
            t1 = t_center0 + half_t + m * period
            k0 = max(slot_lo, math.ceil(t0 / slot_s))
            k1 = min(slot_hi - 1, math.floor(t1 / slot_s))
            if k0 <= k1:
                ranges.append((k0, k1))
        out.append(ranges)
    return out


class TestViewSlotRanges:
    # the numpy pass over satellites x revolutions gives the per-revolution loop's
    # ranges, row for row, as (sat, first, last) columns by satellite, then slot

    @pytest.mark.parametrize("config, receiver, extra_km, slot_lo, slot_hi", [
        (corridor_config(duration_s=12_000.0), (0, 0), 0.0, 0, 133_334),
        (SimConfig(), (0, 0), 0.0, 0, 1 << 14),
        (SimConfig(), (60, 10), 0.0, 0, 4_000_000),
        (SimConfig(), (89.9, 10), 0.0, 0, 80_000),
        (SimConfig(), (-89.9, -100), 0.0, 0, 80_000),
        # chunks that start late, as later window chunks do
        (SimConfig(), (45, 10), 0.0, 40_000, 56_384),
        (corridor_config(), (0, 0), 0.0, 10**9 + 7, 10**9 + 4_000_007),
        # a moving receiver's radius, widened by its travel
        (corridor_config(), (0, 0), 46.0 * 6.0, 0, 240_000),
        # the receiver on a polar orbit's axis, out of view and in view all along
        (overhead_config(coverage_radius_km=1625.0), (0, 90), 0.0, 0, 50_000),
        (overhead_config(coverage_radius_km=10_008.0), (0, 90), 0.0, 3, 50_000),
        # whole-sphere coverage, and an empty chunk
        (overhead_config(), (0, 0), 0.0, 0, 50_000),
        (overhead_config(), (0, 0), 0.0, 7, 7),
        # a slot longer than a revolution: thousands of revolutions a satellite
        (SimConfig(beam_period_s=1e7), (80, 0), 0.0, 0, 64),
    ], ids=["corridor", "default", "default-60-10", "north-polar", "south-polar",
            "late-chunk", "late-window-chunk", "moving", "axis-out", "axis-in", "whole-sphere",
            "empty-chunk", "many-revolutions"])
    def test_matches_the_per_revolution_loop(self, config, receiver, extra_km, slot_lo, slot_hi):
        basis = simulator._orbit_basis(config)
        receiver = GeoPoint(*receiver)
        radius_km = config.coverage_radius_km + extra_km
        reference = view_slot_ranges_reference(config, basis, receiver, radius_km,
                                                slot_lo, slot_hi)
        columns = simulator._view_slot_ranges(config, basis, receiver, radius_km,
                                              slot_lo, slot_hi)
        rows = [(j, k0, k1) for j, ranges in enumerate(reference) for k0, k1 in ranges]
        expected = np.array(rows, dtype=np.int64).reshape(-1, 3).T
        assert all(column.dtype == np.int64 for column in columns)
        assert np.array_equal(np.array(columns), expected)

    def test_blocks_cut_the_grid_anywhere(self, monkeypatch):
        # blocks of 7 cells end inside satellites' revolutions and between satellites
        config, receiver = SimConfig(), GeoPoint(30, -20)
        basis = simulator._orbit_basis(config)
        args = config, basis, receiver, config.coverage_radius_km, 5, 700_000
        whole = simulator._view_slot_ranges(*args)
        monkeypatch.setattr(simulator, "_GEOMETRY_ROWS", 7)
        assert np.array_equal(np.array(simulator._view_slot_ranges(*args)), np.array(whole))


def _emit_columns(config, basis, receiver, horizon, rng) -> tuple[np.ndarray, ...]:
    """The records of the emitter's blocks joined into five columns, as ``emit_stream``
    joins them."""
    blocks = simulator._emit(config, basis, receiver, horizon, rng)
    return tuple(np.concatenate(column) for column in zip(
        *(simulator._in_view_records(config, basis, receiver, *keys) for keys in blocks)))


class TestPerSatelliteDraw:
    # each satellite's in-view ranges are laid end to end for one loss draw,
    # and the drawn offsets are mapped back to slots

    RANGES = {  # satellite index -> inclusive slot ranges inside [40, 100), one chunk's
        0: [(40, 40), (41, 45), (50, 50), (52, 99)],  # chunk-edge cuts, length 1, adjacent
        1: [],
        2: [(60, 60)],
        3: [(40, 99)],
        4: [(45, 47), (48, 48), (49, 49), (99, 99)],
    }

    @staticmethod
    def _emit_ranges(monkeypatch, ranges, per=0.0, seed=5, n_sats=5):
        rows = [(j, k0, k1) for j in range(n_sats) for k0, k1 in ranges.get(j, [])]
        columns = tuple(np.array(rows, dtype=np.int64).reshape(-1, 3).T)
        monkeypatch.setattr(simulator, "_view_slot_ranges", lambda *args: columns)
        # whole-sphere coverage, so the exact in-view check keeps every slot
        config = overhead_config(n_sats=n_sats, per=per, seed=seed)
        receiver = MotionProfile(GeoPoint(0, 0), 0.0, 0.0)
        return _emit_columns(config, simulator._orbit_basis(config), receiver, 100,
                             np.random.default_rng(seed)), config

    @staticmethod
    def _slots_by_sat(columns, config):
        slot, sat_idx = columns[:2]
        return {j: slot[sat_idx == j].tolist() for j in range(config.n_sats)}

    def test_lossless_keeps_every_in_view_slot(self, monkeypatch):
        columns, config = self._emit_ranges(monkeypatch, self.RANGES)
        expected = {j: [k for k0, k1 in self.RANGES[j] for k in range(k0, k1 + 1)]
                    for j in self.RANGES}
        assert self._slots_by_sat(columns, config) == expected

    @pytest.mark.parametrize("loss_model", simulator.LOSS_MODELS)
    def test_lossy_draw_stays_in_its_ranges(self, monkeypatch, loss_model):
        ranges = {j: [(k, k) for k in range(40, 100, 2)] for j in range(5)}
        columns, config = self._emit_ranges(monkeypatch, ranges, per=0.5)
        for j, kept in self._slots_by_sat(columns, config).items():
            assert kept and all(k % 2 == 0 for k in kept), j

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.lists(st.integers(40, 99), unique=True), min_size=1, max_size=6))
    def test_key_sort_is_the_stable_argsort_order(self, monkeypatch, runs):
        # one sorted run of distinct in-view slots per satellite, laid satellite by
        # satellite: sorting the distinct (slot, satellite) keys and splitting them
        # back gives the order a stable argsort of the keys gives
        ranges = {j: [(k, k) for k in sorted(run)] for j, run in enumerate(runs)}
        (slot, sat_idx, *_), config = self._emit_ranges(monkeypatch, ranges, n_sats=len(runs))
        laid_slot = np.array([k for run in runs for k in sorted(run)], dtype=np.int64)
        laid_sat = np.array([j for j, run in enumerate(runs) for _ in run], dtype=np.int64)
        order = np.argsort(laid_slot * config.n_sats + laid_sat, kind="stable")
        assert slot.dtype == sat_idx.dtype == np.int64
        assert np.array_equal(slot, laid_slot[order]) and np.array_equal(sat_idx, laid_sat[order])

    @pytest.mark.parametrize("loss_model", simulator.LOSS_MODELS)
    def test_keys_decoded_a_block_at_a_time(self, monkeypatch, loss_model):
        # blocks of 7 keys, split into (slot, satellite) as each is taken, give the
        # columns that one split of the whole chunk gives
        config = corridor_config(per=0.5, duration_s=300.0, loss_model=loss_model)
        receiver = MotionProfile(GeoPoint(0, 0), 0.0, 0.0)
        args = (config, simulator._orbit_basis(config), receiver, simulator._slot_count(config))
        monkeypatch.setattr(simulator, "_GEOMETRY_ROWS", 1 << 30)
        whole = _emit_columns(*args, np.random.default_rng(3))
        monkeypatch.setattr(simulator, "_GEOMETRY_ROWS", 7)
        blocked = _emit_columns(*args, np.random.default_rng(3))
        assert whole[0].size > 700
        for got, want in zip(blocked, whole):
            assert got.dtype == want.dtype and np.array_equal(got, want)


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


#: any value a JSON file can hold, infinities and NaN included (Python's json
#: reads and writes them)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


def _paths(tree, path=()):
    """The path of ``tree`` and of every level and leaf under it."""
    yield path
    if isinstance(tree, (dict, list)):
        for key, child in (tree.items() if isinstance(tree, dict) else enumerate(tree)):
            yield from _paths(child, (*path, key))


def _any_path(tree):
    """A path of ``tree``: a top-level one as often as any one of all its paths,
    so the 48 beam offsets do not crowd out the other fields."""
    return st.sampled_from([(key,) for key in tree]) | st.sampled_from(list(_paths(tree)))


def _put(tree, path, value):
    """A deep copy of ``tree`` with ``value`` at ``path``."""
    if not path:
        return value
    copy = json.loads(json.dumps(tree))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return copy


# the exceptions that cli.main turns into one line: RingAlertError itself, and the
# other three through cli._load_json
FILE_ERRORS = (KeyError, TypeError, ValueError, RingAlertError)
_CONFIG = json.loads(json.dumps(corridor_config().to_dict()))
_SCENARIO = {"receiver": {"start": {"lat_deg": 10.0, "lon_deg": 20.0}, "course_deg": 90.0,
                          "speed_kmh": 30.0},
             "spoof": {"start_s": 60.0, "offset_course_deg": 45.0, "offset_speed_kmh": 50.0}}


class TestFileForms:
    """Any JSON value at any one field, level or leaf of a valid ``--config`` or
    ``--scenario`` form either builds the object or raises an error that the
    CLI reports in one line; nothing is emitted, so no case can hang."""

    def test_valid_forms_build(self):
        assert SimConfig.from_dict(_CONFIG) == corridor_config()
        assert Scenario.from_dict(_SCENARIO).spoof == SpoofProfile(60.0, 45.0, 50.0)

    @settings(max_examples=200, deadline=None)
    @given(_any_path(_CONFIG), JSON_VALUES)
    # an infinite microsecond count; a JSON integer past every float
    @example(("duration_s",), 1e303)
    @example(("beam_period_s",), 1e308)
    @example(("altitude_km",), 10**400)
    def test_sim_config(self, path, value):
        with contextlib.suppress(*FILE_ERRORS):
            SimConfig.from_dict(_put(_CONFIG, path, value))

    @settings(max_examples=200, deadline=None)
    @given(_any_path(_SCENARIO), JSON_VALUES)
    @example(("receiver", "course_deg"), 10**400)
    @example(("receiver", "start", "lon_deg"), -10**400)
    def test_scenario(self, path, value):
        with contextlib.suppress(*FILE_ERRORS):
            Scenario.from_dict(_put(_SCENARIO, path, value))


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

    @pytest.mark.parametrize("speed", ["25", " 2.5e1 ", True, np.str_("25")])
    def test_speed_must_be_a_number(self, speed):
        # the profile's field rule sees the speed before the envelope check
        with pytest.raises((TypeError, ValueError), match="speed_kmh must be a finite number"):
            SHIP_CLASSES["S1"].motion(GeoPoint(0, 0), 0.0, speed)

    @pytest.mark.parametrize("speed", [25, 25.0, np.float64(25.0), None])
    def test_numbers_inside_the_envelope_are_kept(self, speed):
        motion = SHIP_CLASSES["S1"].motion(GeoPoint(0, 0), 0.0, speed)
        assert motion.speed_kmh == (28.0 if speed is None else 25.0)


class TestSampleWindows:
    def test_window_shapes_and_order(self):
        config = corridor_config(per=0.9, seed=7)
        windows = sample_windows(config, GeoPoint(0, 0), window_messages=500, n_windows=3)
        assert len(windows) == 3
        for w in windows:
            assert w.lat.size == 500
            assert np.all(np.diff(w.t_s) >= 0)

    def test_window_sample_contract(self):
        config = corridor_config(per=0.9, seed=7)
        windows = sample_windows(config, GeoPoint(0, 0), window_messages=50, n_windows=7)
        assert len(windows) == 7
        for name in ("t_s", "lat", "lon"):
            column = getattr(windows, name)
            assert column.shape == (7, 50) and column.dtype == np.float64, name
            assert column.flags.c_contiguous, name
        # an int index gives one window's rows as 1-D views
        one = windows[3]
        for name in ("t_s", "lat", "lon"):
            row = getattr(one, name)
            assert row.shape == (50,) and np.shares_memory(row, getattr(windows, name)), name
            assert np.array_equal(row, getattr(windows, name)[3]), name
        assert windows[-1].t_s[-1] == windows.t_s[-1, -1]
        # a slice gives a block of windows, still C-contiguous
        block = windows[2:5]
        assert len(block) == 3 and block.lat.flags.c_contiguous
        assert np.array_equal(block.lon, windows.lon[2:5])
        with pytest.raises(IndexError):
            windows[7]
        # iteration ends after the last window, as bench/spans.py counts them
        rows = list(windows)
        assert len(rows) == 7
        assert all(np.array_equal(w.t_s, windows.t_s[k]) for k, w in enumerate(rows))

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

    def test_one_beam_is_rejected_before_emitting(self, monkeypatch):
        # one beam: every emission is the sub-satellite record, never a window's beam
        monkeypatch.setattr(simulator, "_emit", None)  # calling it would raise TypeError
        with pytest.raises(InsufficientWindows, match="n_beams 1"):
            sample_windows(corridor_config(n_beams=1, beam_offsets=((1.0, 0.0),)),
                           GeoPoint(0, 0), window_messages=10, n_windows=1)

    def test_unreachable_receiver_runs_out_of_chunks(self, monkeypatch):
        # a 10 km footprint on six satellites of one polar plane never reaches (0, 90)
        config = SimConfig(n_sats=6, planes=1, plane_nodes_deg=(0.0,), inclination_deg=90.0,
                           coverage_radius_km=10.0)
        chunks = _record_chunks(monkeypatch)
        with pytest.raises(InsufficientWindows, match=f"0/3 windows in {_MAX_WINDOW_SLOTS} slots"):
            sample_windows(config, GeoPoint(0, 90), window_messages=10, n_windows=3)
        # the chunks tile the slots up to the horizon
        assert chunks[0][0] == 0 and chunks[-1][1] == _MAX_WINDOW_SLOTS
        assert all(prev[1] == nxt[0] for prev, nxt in zip(chunks, chunks[1:]))

    @pytest.mark.parametrize("loss_model", simulator.LOSS_MODELS)
    def test_windows_match_emit_stream(self, monkeypatch, loss_model):
        # over a run of several chunks, the windows are the beam records of the
        # stream emit_stream gives for the same seed and a stationary receiver
        config = corridor_config(per=0.9, seed=7, loss_model=loss_model, duration_s=9000.0)
        chunks = _record_chunks(monkeypatch)
        stream = emit_stream(config)
        assert len(chunks) >= 3
        windows = sample_windows(config, GeoPoint(0, 0), window_messages=700, n_windows=90)
        emitted_columns = {"t_s": run_times_s(stream, config), "lat": stream.lat,
                           "lon": stream.lon}
        for name, column in emitted_columns.items():
            emitted = column[stream.is_beam]
            sampled = getattr(windows, name).ravel()
            assert sampled.size > emitted.size > 0  # the windows run past the stream's end
            assert sampled.dtype == emitted.dtype
            assert np.array_equal(sampled[:emitted.size], emitted), name


def _record_chunks(monkeypatch) -> list[tuple[int, int]]:
    """Wrap the emitter's in-view ranges; the returned list fills with each chunk's
    (slot_lo, slot_hi)."""
    chunks = []
    ranges = simulator._view_slot_ranges

    def recording_ranges(*args):
        chunks.append(args[-2:])
        return ranges(*args)

    monkeypatch.setattr(simulator, "_view_slot_ranges", recording_ranges)
    return chunks


class TestChunking:
    # each satellite's loss renewal resumes where the last chunk left it, so how a
    # run is cut into chunks does not change its rows

    @pytest.mark.parametrize("loss_model", simulator.LOSS_MODELS)
    @pytest.mark.parametrize("length", [1, 7, 300, 5000])
    def test_renewal_resumes_across_pieces(self, loss_model, length):
        # one satellite's renewal over 3 * length in-view slots, at once and in three
        # pieces: the same kept slots, and positions drawn past the end that agree
        # as far as both go (the batches differ, the stream does not)
        config = overhead_config(per=0.8, loss_model=loss_model)
        start = np.array([-1])
        whole, rest = simulator._kept_offsets(3 * length, config, np.random.default_rng(4),
                                              start)
        rng, drawn, pieces = np.random.default_rng(4), start, []
        for k in range(3):
            kept, drawn = simulator._kept_offsets(length, config, rng, drawn)
            pieces.append(kept + k * length)
        assert np.array_equal(np.concatenate(pieces), whole)
        common = min(drawn.size, rest.size)
        assert np.array_equal(drawn[:common], rest[:common])

    @pytest.mark.parametrize("loss_model", simulator.LOSS_MODELS)
    @pytest.mark.parametrize("scenario", [
        _still(0, 0),
        Scenario(MotionProfile(GeoPoint(0, 0), 30.0, 46.0)),
    ], ids=["still", "moving"])
    def test_two_chunkings_give_equal_tables(self, monkeypatch, loss_model, scenario):
        config = corridor_config(per=0.9, seed=5, loss_model=loss_model, duration_s=3600.0)
        chunks = _record_chunks(monkeypatch)
        whole = emit_stream(config, scenario)
        default_chunks = list(chunks)
        # chunks of at most 1,000 slots after the first: cuts inside passes and outages
        monkeypatch.setattr(simulator, "_CHUNK_SLOTS", 1000)
        chunks.clear()
        cut = emit_stream(config, scenario)
        assert len(default_chunks) == 2 and len(chunks) == 25
        assert len(whole) > 10_000 and cut == whole

    @pytest.mark.parametrize("loss_model", simulator.LOSS_MODELS)
    def test_shorter_run_is_a_prefix(self, loss_model):
        # a still receiver's in-view slots do not depend on the duration, so a run's
        # records are the first ones of any longer run
        config = corridor_config(per=0.9, seed=3, loss_model=loss_model, duration_s=60.0)
        short = emit_stream(config)
        long = emit_stream(SimConfig(**{**config.to_dict(), "duration_s": 7200.0}))
        assert 0 < len(short) < len(long)
        assert long[:len(short)] == short

    def test_memory_is_flat_in_duration(self):
        # one always-in-view satellite, lossless: one record a slot. A run holds one
        # chunk's keys and one block, so four times the duration peaks alike
        def peak_bytes(duration_s: float) -> tuple[int, int]:
            config = overhead_config(duration_s=duration_s)
            tracemalloc.start()
            try:
                records = sum(len(block) for block in simulator.emit_blocks(config))
                return tracemalloc.get_traced_memory()[1], records
            finally:
                tracemalloc.stop()

        (short, _), (long, long_records) = peak_bytes(24_000.0), peak_bytes(96_000.0)
        assert long_records > 1_000_000
        assert long <= 1.2 * short


def beam_ids_reference(config: SimConfig, slots: np.ndarray, sat_index) -> np.ndarray:
    """Reference: the deficit round-robin schedule in integer arithmetic, row by row."""
    nb = config.n_beams
    frame, s = np.divmod(slots + (sat_index % nb), nb)
    return np.where(s == 0, 0, ((nb - 1) * frame + s - 1) % nb + 1).astype(np.int64)


class TestBeamSchedule:
    @pytest.mark.parametrize("n_beams", [1, 2, 47, 48])
    def test_table_lookup_is_the_arithmetic_form(self, n_beams):
        config = SimConfig(n_beams=n_beams, beam_offsets=[(1.0, 0.0)] * n_beams)
        rng = np.random.default_rng(n_beams)
        slots = np.concatenate([np.arange(3 * n_beams * n_beams + 5),
                                rng.integers(0, 10**13, size=20_000),
                                10**13 - np.arange(200)])
        sat_idx = rng.integers(0, 66, size=slots.size)
        for sat_index in (sat_idx, 0, 65):
            beam_id = simulator._beam_ids_for_slots(config, slots, sat_index)
            assert beam_id.dtype == np.int64
            assert np.array_equal(beam_id, beam_ids_reference(config, slots, sat_index))


class TestGeometryBlocks:
    def test_last_chunk_stops_at_the_block_that_fills_the_windows(self, monkeypatch):
        # the n = 1000 x 100 cell of the false-positive grid, in blocks of 2^10 rows
        monkeypatch.setattr(simulator, "_GEOMETRY_ROWS", 1 << 10)
        config = corridor_config()
        chunks = _record_chunks(monkeypatch)
        drawn, blocks = [], []  # (chunk count, rows) of each loss draw; (chunk count, rows, beams)
        draw, in_view = simulator._kept_offsets, simulator._in_view_records

        def recording_draw(*args):
            kept, rest = draw(*args)
            drawn.append((len(chunks), kept.size))
            return kept, rest

        def recording_in_view(*args):
            columns = in_view(*args)
            blocks.append((len(chunks), args[3].size, np.count_nonzero(columns[2])))
            return columns

        monkeypatch.setattr(simulator, "_kept_offsets", recording_draw)
        monkeypatch.setattr(simulator, "_in_view_records", recording_in_view)
        sample_windows(config, GeoPoint(0, 0), window_messages=1000, n_windows=100,
                       rng=np.random.default_rng([config.seed, 1000]))
        # the block that completes the 100,000 beams is the last one run, and the
        # geometry of its rows stops near the last beam needed, well short of the block...
        beams = np.cumsum([n for _, _, n in blocks])
        assert beams[-2] < 100_000 <= beams[-1] < 100_000 + 100
        # ...although the last chunk drew more rows than its blocks turned into geometry
        last = len(chunks)
        assert (sum(rows for chunk, rows, _ in blocks if chunk == last)
                < sum(rows for chunk, rows in drawn if chunk == last))


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
