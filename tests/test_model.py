import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringalert.errors import InvalidBeamId, InvalidSatId
from ringalert.geo import GeoPoint
from ringalert.ingest import segment_passes
from ringalert.model import (
    MAX_SPEED_KMH,
    BeamConstellation,
    DetectorConfig,
    Direction,
    EvdParams,
    IraRecord,
    MotionProfile,
    Pass,
    PowerLawCoeffs,
    RecordTable,
    valid_sat_ids,
)
from tests.conftest import make_records


class TestValidSatIds:
    def test_size_is_66(self):
        assert len(valid_sat_ids()) == 66

    def test_membership(self):
        ids = valid_sat_ids()
        assert 115 in ids
        assert 2 in ids
        assert 1 not in ids
        assert 116 not in ids

    def test_exact_set(self):
        assert valid_sat_ids() == frozenset({
            2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 17, 18, 22, 23, 24, 25, 26, 28,
            29, 30, 33, 36, 38, 39, 40, 42, 43, 44, 46, 48, 49, 50, 51, 57,
            65, 67, 68, 69, 71, 72, 73, 74, 77, 78, 79, 81, 82, 85, 87, 88,
            89, 90, 92, 93, 94, 96, 99, 103, 104, 107, 109, 110, 111, 112,
            114, 115,
        })


class TestIraRecord:
    def test_validation(self):
        ground = GeoPoint(0, 0)
        with pytest.raises(InvalidSatId):
            IraRecord(0, 0, 1, 0, ground)
        with pytest.raises(InvalidBeamId):
            IraRecord(0, 0, 115, 49, ground)
        with pytest.raises(InvalidBeamId):
            IraRecord(0, 0, 115, -1, ground)
        with pytest.raises(ValueError):
            IraRecord(0, -5, 115, 0, ground)

    def test_timestamp_units(self):
        r = IraRecord(100, 500_000, 115, 0, GeoPoint(0, 0))
        assert r.timestamp(1e-6) == pytest.approx(100.5)
        assert r.timestamp(1e-5) == pytest.approx(105.0)

    def test_is_track(self):
        assert IraRecord(0, 0, 115, 0, GeoPoint(0, 0)).is_track
        assert not IraRecord(0, 0, 115, 7, GeoPoint(0, 0)).is_track

    @given(
        st.integers(min_value=0, max_value=2_000_000_000),
        st.integers(min_value=0, max_value=999_999_999),
        st.sampled_from(sorted(valid_sat_ids())),
        st.integers(min_value=0, max_value=48),
        st.floats(min_value=-90, max_value=90),
        st.floats(min_value=-179.999, max_value=180),
    )
    def test_json_round_trip(self, epoch, frac, sat, beam, lat, lon):
        record = IraRecord(epoch, frac, sat, beam, GeoPoint(lat, lon))
        assert IraRecord.from_dict(json.loads(json.dumps(record.to_dict()))) == record


class TestRecordTimes:
    def test_relative_times_are_exact(self):
        records = make_records([0.0, 0.09, 0.18, 1.0], [0, 0, 0, 0], [0, 0, 0, 0])
        times = records.t_s()
        assert times.tolist() == [0.0, 0.09, 0.18, 1.0]


def shuffled_records(seed: int = 5, n: int = 60):
    """Records of three satellites in shuffled order, with ties in time."""
    rng = np.random.default_rng(seed)
    times = np.round(np.cumsum(rng.choice([0.0, 0.09, 1.0], size=n)), 2)
    records = []
    for sat in (78, 115, 2):
        records += make_records(times + rng.choice([0.0, 0.09], size=n), rng.uniform(-80, 80, n),
                                rng.uniform(-180, 180, n), sat_id=sat,
                                beam_ids=rng.integers(0, 49, n).tolist())
    return [records[i] for i in rng.permutation(len(records))]


class TestRecordTable:
    def test_rows_are_the_stable_time_sort(self):
        records = shuffled_records()
        table = RecordTable.from_records(records)
        assert table.rows() == sorted(records, key=IraRecord.sort_key)
        assert RecordTable.from_records(table) == table

    @pytest.mark.parametrize("unit", [1e-6, 1e-5, 1e-9])
    @pytest.mark.parametrize("origin", [None, (0, 0), (1_600_000_003, 250_000)])
    def test_t_s_is_the_record_arithmetic(self, unit, origin):
        records = sorted(shuffled_records(), key=IraRecord.sort_key)
        e0, f0 = origin or (records[0].epoch_s, records[0].frac)
        expected = [(r.epoch_s - e0) + (r.frac - f0) * unit for r in records]
        assert RecordTable.from_records(records, unit).t_s(origin).tolist() == expected

    def test_sequence_interface(self):
        records = sorted(shuffled_records(), key=IraRecord.sort_key)
        table = RecordTable.from_records(records)
        assert len(table) == len(records) and list(table) == records
        assert (table[0], table[-1]) == (records[0], records[-1])
        assert table[3:9] == RecordTable.from_records(records[3:9])
        assert table[3:9] != table[3:10]
        assert table[table.is_track].rows() == [r for r in records if r.is_track]
        assert table[table.is_beam].rows() == [r for r in records if r.beam_id >= 1]
        with pytest.raises(IndexError):
            table[len(records)]
        with pytest.raises(ValueError):
            table.lat[0] = 1.0

    def test_by_satellite_matches_grouping(self):
        records = sorted(shuffled_records(), key=IraRecord.sort_key)
        grouped = RecordTable.from_records(records).by_satellite()
        assert list(grouped) == [2, 78, 115]
        for sat, part in grouped.items():
            assert part.rows() == [r for r in records if r.sat_id == sat]
        assert RecordTable.from_records([]).by_satellite() == {}


class TestFracUnit:
    def test_every_part_keeps_the_unit(self):
        records = sorted(shuffled_records(), key=IraRecord.sort_key)
        table = RecordTable.from_records(records, 1e-9)
        parts = [table[3:9], table[::-1], table[table.is_track], table[np.array([4, 1, 7])],
                 *table.by_satellite().values()]
        one_sat = RecordTable(*make_records([0, 1, 700, 701], [0, 1, 2, 3], [0] * 4).columns(),
                              1e-9)
        passes = segment_passes(one_sat)
        assert len(passes) == 2
        parts += [p.records for p in passes] + [p.track_records() for p in passes]
        assert {part.frac_unit_s for part in parts} == {1e-9}
        part = table[3:9]
        assert part.t_s().tolist() == [(r.epoch_s - part.epoch_s[0]) + (r.frac - part.frac[0]) * 1e-9
                                       for r in part]

    def test_tables_differing_only_in_unit_are_unequal(self):
        records = make_records([0.0, 1.0], [0, 1], [0, 0])
        assert RecordTable(*records.columns(), 1e-6) == records
        assert RecordTable(*records.columns(), 1e-9) != records

    @pytest.mark.parametrize("unit", [0.0, -1e-6, float("nan"), float("inf")])
    def test_unit_must_be_finite_and_positive(self, unit):
        with pytest.raises(ValueError, match="frac_unit_s"):
            RecordTable(*make_records([0.0], [0], [0]).columns(), unit)

    @pytest.mark.parametrize("unit", [1e-6, 1e-5, 1e-9])
    def test_pass_round_trip_keeps_the_unit(self, unit):
        table = RecordTable(*make_records([0, 60], [1, 2], [3, 4]).columns(), unit)
        p = segment_passes(table)[0]
        back = Pass.from_dict(json.loads(json.dumps(p.to_dict())))
        assert back == p and back.records.frac_unit_s == unit


class TestPass:
    def test_rejects_unsorted_and_mixed(self):
        # a table sorts its rows, so the out-of-order pass left is one with a tie
        records = make_records([0, 10], [0, 1], [0, 0])
        other = make_records([20], [2], [0], sat_id=115)
        with pytest.raises(ValueError):
            Pass(78, RecordTable.from_records([*records, *other]), Direction.UPWARD, 20 / 60)
        tie = make_records([0, 0], [0, 1], [0, 0])
        with pytest.raises(ValueError):
            Pass(78, RecordTable.from_records(tie), Direction.UPWARD, 0.0)

    def test_direction_antisymmetry(self):
        times = [0, 60, 120, 180]
        lats = [1.0, 2.0, 3.0, 4.0]
        lons = [0.0] * 4
        up = segment_passes(make_records(times, lats, lons))
        down = segment_passes(make_records(times, list(reversed(lats)), lons))
        assert up[0].direction is Direction.UPWARD
        assert down[0].direction is Direction.DOWNWARD

    def test_round_trip(self):
        p = segment_passes(make_records([0, 60], [1, 2], [3, 4]))[0]
        assert Pass.from_dict(json.loads(json.dumps(p.to_dict()))) == p


class TestBeamConstellation:
    def test_validation(self):
        with pytest.raises(InvalidBeamId):
            BeamConstellation({0: (0.0, 0.0)}, (1, 2, 3))
        with pytest.raises(ValueError):
            BeamConstellation({1: (0.0, 0.0)}, (3, 2, 1))
        with pytest.raises(ValueError):
            BeamConstellation({1: (float("inf"), 0.0)}, (1, 2, 3))

    def test_round_trip(self):
        c = BeamConstellation({1: (0.5, -1.5), 48: (2.0, 3.0)}, (3.36, 7.98, 14.35))
        assert BeamConstellation.from_dict(json.loads(json.dumps(c.to_dict()))) == c


class TestSmallValueTypes:
    def test_evd_params(self):
        with pytest.raises(ValueError):
            EvdParams(1.0, 0.0)
        p = EvdParams(7.28, 1.67)
        assert EvdParams.from_dict(json.loads(json.dumps(p.to_dict()))) == p

    def test_power_law(self):
        with pytest.raises(ValueError):
            PowerLawCoeffs(float("nan"), 0.0)
        c = PowerLawCoeffs(-0.5974, 3.2826)
        assert PowerLawCoeffs.from_dict(json.loads(json.dumps(c.to_dict()))) == c

    def test_motion_profile(self):
        for speed in (-1.0, MAX_SPEED_KMH * (1 + 1e-15), 1e308, float("inf")):
            with pytest.raises(ValueError, match="speed"):
                MotionProfile(GeoPoint(0, 0), 0.0, speed)
        assert MotionProfile(GeoPoint(0, 0), 0.0, MAX_SPEED_KMH).speed_kmh == MAX_SPEED_KMH
        m = MotionProfile(GeoPoint(10, 20), 90.0, 40.0)
        assert MotionProfile.from_dict(json.loads(json.dumps(m.to_dict()))) == m
        # half an hour east at 40 km/h is 20 km
        from ringalert.geo import great_circle_km
        assert great_circle_km(m.position_at(1800.0), m.start).km == pytest.approx(20.0, abs=1e-9)

    def test_detector_config(self):
        with pytest.raises(ValueError):
            DetectorConfig(0.0, 10)
        with pytest.raises(ValueError):
            DetectorConfig(10.0, 0)
        c = DetectorConfig(20.0, 6100)
        assert DetectorConfig.from_dict(json.loads(json.dumps(c.to_dict()))) == c
