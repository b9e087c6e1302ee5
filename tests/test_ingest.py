import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringalert.errors import (
    EmptyInput,
    InvalidBeamId,
    InvalidCoordinate,
    InvalidSatId,
    IoFailure,
    MalformedLine,
)
from ringalert.geo import GeoPoint
from ringalert.ingest import (
    format_line,
    group_by_satellite,
    parse_line,
    parse_stream,
    segment_passes,
    write_records,
)
from ringalert.model import Direction, IraRecord, valid_sat_ids
from ringalert.simulator import SimConfig, emit_stream
from tests.conftest import SAMPLE_LOG_FIELDS, SAMPLE_LOG_ROWS, make_records


class TestParseLine:
    @pytest.mark.parametrize("row,fields", list(zip(SAMPLE_LOG_ROWS, SAMPLE_LOG_FIELDS)))
    def test_reference_rows_parse_exactly(self, row, fields):
        epoch, frac, sat, beam, lat, lon = fields
        record = parse_line(row)
        assert record.epoch_s == epoch
        assert record.frac == frac
        assert record.sat_id == sat
        assert record.beam_id == beam
        assert record.ground.lat_deg == lat
        assert record.ground.lon_deg == lon

    def test_comma_delimited(self):
        record = parse_line("1580712040,000000739,115,0,+29.81,+046.10")
        assert record == parse_line(SAMPLE_LOG_ROWS[0])

    def test_beam_out_of_range(self):
        with pytest.raises(InvalidBeamId):
            parse_line("1580712040 000000739 115 49 +29.81 +046.10")

    def test_unknown_satellite(self):
        with pytest.raises(InvalidSatId):
            parse_line("1580712040 000000739 1 0 +29.81 +046.10")

    def test_bad_latitude(self):
        with pytest.raises(InvalidCoordinate):
            parse_line("1580712040 000000739 115 0 +91.00 +046.10")

    def test_longitude_wraps_instead_of_failing(self):
        a = parse_line("1580712040 000000739 115 0 +29.81 +181.00")
        b = parse_line("1580712040 000000739 115 0 +29.81 -179.00")
        assert a.ground == b.ground

    @pytest.mark.parametrize("line", [
        "1580712040 000000739 115 0 +29.81",
        "1580712040 000000739 115 0 +29.81 +046.10 junk",
        "epoch 000000739 115 0 +29.81 +046.10",
        "1580712040 000000739 115 zero +29.81 +046.10",
        "",
    ])
    def test_malformed(self, line):
        with pytest.raises(MalformedLine):
            parse_line(line)

    @given(
        st.integers(min_value=0, max_value=2_000_000_000),
        st.integers(min_value=0, max_value=999_999_999),
        st.sampled_from(sorted(valid_sat_ids())),
        st.integers(min_value=0, max_value=48),
        st.integers(min_value=-90_000_000, max_value=90_000_000),
        st.integers(min_value=-179_999_999, max_value=180_000_000),
    )
    def test_format_parse_round_trip(self, epoch, frac, sat, beam, lat_u, lon_u):
        # coordinates on the microdegree grid survive the canonical format exactly
        record = IraRecord(epoch, frac, sat, beam, GeoPoint(lat_u / 1e6, lon_u / 1e6))
        assert parse_line(format_line(record)) == record


class TestParseStream:
    def test_empty(self):
        records, report = parse_stream(io.StringIO(""))
        assert records == []
        assert report.total_lines == 0
        assert report.accepted == 0
        assert report.quarantined == 0

    def test_reference_rows(self):
        records, report = parse_stream(io.StringIO("\n".join(SAMPLE_LOG_ROWS)))
        assert len(records) == 7
        assert report.accepted == 7
        assert report.quarantined == 0
        assert report.reconciles()

    def test_quarantine_counts_reconcile(self):
        rows = SAMPLE_LOG_ROWS[:6] + ["1580712040 000013699 116 46 +26.46 +051.72"]
        records, report = parse_stream(io.StringIO("\n".join(rows)))
        assert len(records) == 6
        assert report.invalid_sat_id == 1
        assert report.quarantined == 1
        assert report.reconciles()

    def test_mixed_error_classes(self):
        rows = [
            SAMPLE_LOG_ROWS[0],
            "garbage line",
            "",
            "1580712040 000000739 115 49 +29.81 +046.10",
            "1580712040 000000739 1 0 +29.81 +046.10",
            "1580712040 000000739 115 0 +99.00 +046.10",
        ]
        records, report = parse_stream(io.StringIO("\n".join(rows)))
        assert len(records) == 1
        assert report.malformed == 1
        assert report.invalid_beam_id == 1
        assert report.invalid_sat_id == 1
        assert report.invalid_coordinate == 1
        assert report.blank == 1
        assert report.reconciles()

    def test_duplicate_decode_quarantined(self):
        rows = SAMPLE_LOG_ROWS + [
            SAMPLE_LOG_ROWS[3],                              # repeated line
            "1580712040 000005599 115 12 +20.00 +040.00",  # same satellite and instant
            "1580712040 000005599 78 12 +20.00 +040.00",   # another satellite: kept
        ]
        records, report = parse_stream(io.StringIO("\n".join(rows)))
        assert (report.accepted, report.duplicate, report.quarantined) == (8, 2, 2)
        assert report.quarantined_lines == [8, 9]
        assert report.reconciles()
        first = [r for r in records if (r.epoch_s, r.frac, r.sat_id) == (1580712040, 5599, 115)]
        assert [r.beam_id for r in first] == [47]

    def test_output_sorted_by_time(self):
        rows = list(reversed(SAMPLE_LOG_ROWS))
        records, _ = parse_stream(io.StringIO("\n".join(rows)))
        keys = [r.sort_key() for r in records]
        assert keys == sorted(keys)

    def test_missing_file_raises_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            parse_stream(tmp_path / "does_not_exist.txt")

    def test_file_round_trip(self, tmp_path):
        records, _ = parse_stream(io.StringIO("\n".join(SAMPLE_LOG_ROWS)))
        path = tmp_path / "stream.txt"
        write_records(records, path)
        back, report = parse_stream(path)
        assert back == records
        assert report.quarantined == 0


class TestSegmentPasses:
    def test_single_record(self):
        passes = segment_passes(make_records([0.0], [10.0], [20.0]))
        assert len(passes) == 1
        assert passes[0].duration_min == 0.0

    def test_gap_splits(self):
        passes = segment_passes(make_records([0.0, 700.0], [0, 1], [0, 0]))
        assert len(passes) == 2

    def test_gap_within_threshold_joins(self):
        passes = segment_passes(make_records([0.0, 599.0], [0, 1], [0, 0]))
        assert len(passes) == 1
        assert passes[0].duration_min == pytest.approx(599.0 / 60.0)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            segment_passes([])

    def test_multiple_satellites_rejected(self):
        records = make_records([0.0], [0], [0], sat_id=78) + \
            make_records([1.0], [0], [0], sat_id=115)
        with pytest.raises(ValueError):
            segment_passes(records)

    def test_record_count_conserved(self):
        times = [0, 1, 2, 1000, 1001, 5000]
        records = make_records(times, [0] * 6, [0] * 6)
        passes = segment_passes(records)
        assert sum(len(p.records) for p in passes) == len(records)
        assert len(passes) == 3

    def test_upward_pass_latitudes_increase(self):
        for seed in range(5):
            times = list(range(0, 300, 30))
            lats = [(-1) ** seed * (i - 5) * 0.5 for i in range(10)]
            passes = segment_passes(make_records(times, lats, [0] * 10))
            for p in passes:
                track = [r.ground.lat_deg for r in p.records if r.is_track]
                if p.direction is Direction.UPWARD:
                    assert track[-1] >= track[0]
                else:
                    assert track[-1] < track[0]

    def test_overhead_pass_duration_matches_geometry(self):
        # a satellite passing straight overhead stays in view for
        # 2 * coverage_radius / ground_speed seconds; pick the radius that
        # makes that 7.59 minutes and check segmentation recovers it
        target_min = 7.59
        radius = 6.89 * target_min * 60.0 / 2.0
        config = SimConfig(
            n_sats=1, planes=1, plane_nodes_deg=(0.0,), inclination_deg=90.0,
            per=0.0, coverage_radius_km=radius, duration_s=6200.0, seed=9,
        )
        records = emit_stream(config)
        passes = segment_passes(records)
        # the run starts mid-pass (phase 0 sits over the receiver), so the
        # first chunk is a half pass; the complete one is the longest
        full = max(passes, key=lambda p: p.duration_min)
        assert full.duration_min == pytest.approx(target_min, abs=0.01)


class TestGroupBySatellite:
    def test_groups_and_sorts(self):
        r1 = make_records([1.0], [0], [0], sat_id=115)
        r2 = make_records([0.0], [0], [0], sat_id=78)
        grouped = group_by_satellite(r1 + r2)
        assert list(grouped) == [78, 115]
