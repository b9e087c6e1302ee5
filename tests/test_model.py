import numpy as np
import pytest

from ringalert.errors import InvalidBeamId
from ringalert.geo import GeoPoint
from ringalert.ingest import group_by_satellite, segment_passes
from ringalert.model import (
    MAX_SPEED_KMH,
    BeamConstellation,
    DetectorConfig,
    EvdParams,
    IraRecord,
    MotionProfile,
    PowerLawCoeffs,
    RecordTable,
    valid_sat_ids,
)
from tests.conftest import make_records, records_of, table_of


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
    def test_timestamp_is_in_microseconds(self):
        assert IraRecord(100, 500_000, 115, 0, GeoPoint(0, 0)).timestamp() == 100.5


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
        records += records_of(make_records(times + rng.choice([0.0, 0.09], size=n),
                                           rng.uniform(-80, 80, n), rng.uniform(-180, 180, n),
                                           sat_id=sat,
                                           beam_ids=rng.integers(0, 49, n).tolist()))
    return [records[i] for i in rng.permutation(len(records))]


def by_time(records):
    return sorted(records, key=lambda r: (r.epoch_s, r.frac))


class TestRecordTable:
    def test_rows_are_the_stable_time_sort(self):
        records = shuffled_records()
        table = table_of(records)
        assert records_of(table) == by_time(records)
        assert table_of(records_of(table)) == table

    @pytest.mark.parametrize("unit", [1e-6, 1e-5, 1e-9])
    @pytest.mark.parametrize("origin", [None, (0, 0), (1_600_000_003, 250_000)])
    def test_t_s_is_the_record_arithmetic(self, unit, origin):
        records = by_time(shuffled_records())
        e0, f0 = origin or (records[0].epoch_s, records[0].frac)
        expected = [(r.epoch_s - e0) + (r.frac - f0) * unit for r in records]
        assert table_of(records, unit).t_s(origin).tolist() == expected

    def test_slices_and_masks(self):
        records = by_time(shuffled_records())
        table = table_of(records)
        assert len(table) == len(records)
        assert table[3:9] == table_of(records[3:9])
        assert table[3:9] != table[3:10]
        assert records_of(table[table.is_track]) == [r for r in records if r.beam_id == 0]
        assert records_of(table[table.is_beam]) == [r for r in records if r.beam_id >= 1]
        with pytest.raises(ValueError):
            table.lat[0] = 1.0

    @pytest.mark.parametrize("index", [0, -1, np.int64(3)])
    def test_integer_index_is_a_type_error(self, index):
        table = make_records([0.0, 1.0, 2.0, 3.0], [0] * 4, [0] * 4)
        with pytest.raises(TypeError, match="slice, a mask or an index array"):
            table[index]
        with pytest.raises(TypeError):
            list(table)

    def test_by_satellite_matches_grouping(self):
        records = by_time(shuffled_records())
        grouped = group_by_satellite(table_of(records))
        assert list(grouped) == [2, 78, 115]
        for sat, part in grouped.items():
            assert records_of(part) == [r for r in records if r.sat_id == sat]
        assert group_by_satellite(table_of([])) == {}


class TestFracUnit:
    def test_every_part_keeps_the_unit(self):
        table = table_of(shuffled_records(), 1e-9)
        parts = [table[3:9], table[::-1], table[table.is_track], table[np.array([4, 1, 7])],
                 *group_by_satellite(table).values()]
        one_sat = RecordTable(*make_records([0, 1, 700, 701], [0, 1, 2, 3], [0] * 4).columns(),
                              1e-9)
        passes = segment_passes(one_sat)
        assert len(passes) == 2
        assert passes.t_s.tolist() == one_sat.t_s().tolist()
        assert {part.frac_unit_s for part in parts} == {1e-9}
        part = table[3:9]
        assert part.t_s().tolist() == [(r.epoch_s - part.epoch_s[0]) + (r.frac - part.frac[0]) * 1e-9
                                       for r in records_of(part)]

    def test_tables_differing_only_in_unit_are_unequal(self):
        records = make_records([0.0, 1.0], [0, 1], [0, 0])
        assert RecordTable(*records.columns(), 1e-6) == records
        assert RecordTable(*records.columns(), 1e-9) != records

    @pytest.mark.parametrize("unit", [0.0, -1e-6, float("nan"), float("inf")])
    def test_unit_must_be_finite_and_positive(self, unit):
        with pytest.raises(ValueError, match="frac_unit_s"):
            RecordTable(*make_records([0.0], [0], [0]).columns(), unit)


class TestBeamConstellation:
    def test_validation(self):
        with pytest.raises(InvalidBeamId):
            BeamConstellation({0: (0.0, 0.0)}, (1, 2, 3))
        with pytest.raises(ValueError):
            BeamConstellation({1: (0.0, 0.0)}, (3, 2, 1))
        with pytest.raises(ValueError):
            BeamConstellation({1: (float("inf"), 0.0)}, (1, 2, 3))


class TestSmallValueTypes:
    def test_evd_params(self):
        with pytest.raises(ValueError):
            EvdParams(1.0, 0.0)

    def test_power_law(self):
        with pytest.raises(ValueError):
            PowerLawCoeffs(float("nan"), 0.0)

    def test_motion_profile(self):
        for speed in (-1.0, MAX_SPEED_KMH * (1 + 1e-15), 1e308, float("inf")):
            with pytest.raises(ValueError, match="speed"):
                MotionProfile(GeoPoint(0, 0), 0.0, speed)
        assert MotionProfile(GeoPoint(0, 0), 0.0, MAX_SPEED_KMH).speed_kmh == MAX_SPEED_KMH
        m = MotionProfile(GeoPoint(10, 20), 90.0, 40.0)
        # half an hour east at 40 km/h is 20 km
        from ringalert.geo import great_circle_km
        assert great_circle_km(m.position_at(1800.0), m.start).km == pytest.approx(20.0, abs=1e-9)

    def test_detector_config(self):
        with pytest.raises(ValueError):
            DetectorConfig(0.0, 10)
        with pytest.raises(ValueError):
            DetectorConfig(10.0, 0)

    @pytest.mark.parametrize("threshold_km, window_n, field", [
        (True, 3, "threshold_km"), ("20", 3, "threshold_km"), (None, 3, "threshold_km"),
        (20.0, 2.7, "window_n"), (20.0, 5.0, "window_n"), (20.0, "5", "window_n"),
        (20.0, True, "window_n"), (True, 2.7, "threshold_km"),
    ])
    def test_detector_config_fields_keep_their_types(self, threshold_km, window_n, field):
        # the typed field check SimConfig uses: numbers and integers, never bools
        with pytest.raises(ValueError, match=field):
            DetectorConfig(threshold_km, window_n)

    def test_detector_config_takes_numpy_numbers(self):
        config = DetectorConfig(np.float64(20.0), np.int64(6))
        assert config.threshold_km == 20.0
        assert type(config.window_n) is int and config.window_n == 6


class TestFieldBounds:
    @pytest.mark.parametrize("build, message", [
        (lambda: DetectorConfig(20.0, 0), "window_n must be >= 1, got 0"),
        (lambda: DetectorConfig(-0.0, 3), "threshold_km must be > 0, got -0.0"),
        (lambda: DetectorConfig(float("inf"), 3), "threshold_km must be a finite number, got inf"),
        (lambda: DetectorConfig(10**400, 3), "threshold_km must be a finite number, got 1"),
        (lambda: DetectorConfig(20.0, np.int64(-2)), "window_n must be >= 1, got -2"),
        (lambda: MotionProfile(GeoPoint(0, 0), 0.0, MAX_SPEED_KMH + 1),
         f"speed_kmh must be <= {MAX_SPEED_KMH}, got {MAX_SPEED_KMH + 1}"),
        (lambda: MotionProfile(GeoPoint(0, 0), float("nan"), 1.0),
         "course_deg must be a finite number, got nan"),
    ])
    def test_one_message_form(self, build, message):
        # "<field> must be ..., got <value>", from the one field check
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value).startswith(message)
