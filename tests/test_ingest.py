import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ringalert.errors import (
    EmptyInput,
    InvalidBeamId,
    InvalidCoordinate,
    InvalidSatId,
    IoFailure,
    MalformedLine,
)
from ringalert import ingest
from ringalert.geo import GeoPoint
from ringalert.ingest import (
    group_by_satellite,
    parse_line,
    parse_stream,
    parse_table,
    segment_passes,
    write_records,
)
from ringalert.model import FRAC_UNITS_S, Direction, IraRecord, valid_sat_ids
from ringalert.simulator import SimConfig, emit_stream
from tests.conftest import (
    SAMPLE_LOG_FIELDS,
    SAMPLE_LOG_ROWS,
    format_line,
    make_records,
    records_of,
    reference_parse,
    table_of,
)


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
        # coordinates on the microdegree grid survive the writer's format exactly
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
        keys = [(r.epoch_s, r.frac) for r in records]
        assert keys == sorted(keys)

    def test_missing_file_raises_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            parse_stream(tmp_path / "does_not_exist.txt")

    def test_undecodable_text_file_object_raises_io_failure(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_bytes(SAMPLE_LOG_ROWS[0].encode() + b"\n\xff\xfe\n")
        with open(path, encoding="utf-8") as fh, pytest.raises(IoFailure, match="read failure"):
            parse_table(fh)

    def test_time_field_beyond_64_bits_is_malformed(self):
        rows = ["9" * 25 + " 000000739 115 0 +29.81 +046.10",
                "1580712040 " + "9" * 25 + " 115 0 +29.81 +046.10"]
        records, report = parse_stream(io.StringIO("\n".join(rows)))
        assert (records, report.malformed, report.quarantined_lines) == ([], 2, [1, 2])

    def test_file_round_trip(self, tmp_path):
        table, _ = parse_table(io.StringIO("\n".join(SAMPLE_LOG_ROWS)))
        path = tmp_path / "stream.txt"
        write_records(table, path)
        back, report = parse_table(path)
        assert back == table
        assert report.quarantined == 0


def mixed_log_lines() -> list[str]:
    """A small simulated log holding every quarantine class, repeats, and
    valid lines the fixed layouts do not cover."""
    config = SimConfig(n_sats=11, planes=1, plane_nodes_deg=(0.0,), inclination_deg=90.0,
                       per=0.5, duration_s=60.0, seed=4)
    lines = [format_line(r) for r in records_of(emit_stream(config))]
    e, f, s, b, lat, lon = lines[3].split()
    fields = [line.split() for line in lines]
    fullwidth = str.maketrans("0123456789", "０１２３４５６７８９")
    # valid lines outside the fixed layouts replace their originals
    lines[10] = " ".join(fields[10][:2] + ["00" + fields[10][2]] + fields[10][3:])
    lines[11] = " ".join(fields[11][:3] + ["+" + fields[11][3]] + fields[11][4:])
    lines[12] = " ".join(fields[12][:4] + ["1e1", fields[12][5]])
    lines[13] = ",".join(fields[13])
    lines[14] = "\t".join(fields[14])
    lines[15] = "  " + lines[15] + "  "
    lines[16] = " ".join(fields[16][:5] + ["-180.000000"])
    lines[17] = " ".join(fields[17][:4] + ["-0.000000", "+359.999999"])
    lines[18] = " ".join(fields[18][:2] + [fields[18][2].translate(fullwidth)] + fields[18][3:])
    lines[19] = " ".join(fields[19][:4] + ["+29.8100000000000001", fields[19][5]])
    lines[20] = " ".join(fields[20][:4] + ["-0.1", "-0.1"])
    lines[21] = " ".join(fields[21][:5] + ["99.99999999999999"])  # mantissa above 2**53
    other_sat = next(x for x in ("78", "115") if x != s)
    bad = [
        "", "   \t",
        " ".join([e, f, s, b, lat]),
        lines[4] + " junk",
        " ".join([e, f, s, "x", lat, lon]),
        " ".join([e, f, s, "1e1", lat, lon]),
        " ".join([e, f, "1", b, lat, lon]),
        " ".join([e, f, "9" * 25, b, lat, lon]),
        " ".join([e, f, s, "49", lat, lon]),
        " ".join([e, f, s, "-1", lat, lon]),
        " ".join([e, f, s, b, "+91.000000", lon]),
        " ".join([e, f, s, b, "nan", lon]),
        " ".join([e, f, s, b, lat, "inf"]),
        " ".join(["9" * 25, f, s, b, lat, lon]),
        " ".join([e, "1000000", s, b, lat, lon]),
        " ".join([e, "9" * 19, s, b, lat, lon]),
        lines[5],
        " ".join([e, f, s, str(int(b) % 48 + 1), lat, lon]),
        ",".join(lines[3].split()),
        " ".join(["+" + e, f, s, b, lat, lon]),
        " ".join([e, f, s, b, "+" + lat.lstrip("+-") + "0", lon]),
        " ".join([e, f, other_sat, b, lat, lon]),  # same instant, another satellite
    ]
    for k, line in enumerate(bad):
        lines.insert(7 + 5 * k, line)
    return lines


class TestParseTable:
    """parse_table against the per-line reference, every class and source kind."""

    @pytest.mark.parametrize("kind", ["path", "file", "lines"])
    def test_matches_per_line_reference(self, tmp_path, kind):
        lines = mixed_log_lines()
        text = "\n".join(lines) + "\n"
        path = tmp_path / "mixed.log"
        path.write_text(text, encoding="utf-8")
        if kind == "path":
            table, report = parse_table(path)
            with open(path, encoding="utf-8") as fh:
                expected = reference_parse(fh)
        elif kind == "file":
            table, report = parse_table(io.StringIO(text))
            expected = reference_parse(io.StringIO(text))
        else:
            table, report = parse_table(lines)
            expected = reference_parse(lines)
        accepted, counts, quarantined = expected
        assert {k: v for k, v in report.to_dict().items() if v} == {k: v for k, v in {
            "total_lines": len(lines), "accepted": len(accepted), **counts,
            "quarantined": sum(counts.values()) - counts["blank"]}.items() if v}
        assert report.quarantined_lines == quarantined
        assert report.reconciles()
        assert table == table_of(accepted)
        assert records_of(table) == accepted
        # every class and the non-canonical numerals are present
        assert min(report.to_dict().values()) > 0
        assert len(accepted) > 100

    @pytest.mark.parametrize("layout", [
        lambda f: f,
        lambda f: f[:4] + [f"{float(f[4]):+06.2f}", f"{float(f[5]):+07.2f}"],
    ], ids=["writer", "two-decimal-degrees"])
    def test_canonical_lines_skip_the_per_line_parser(self, monkeypatch, tmp_path, layout):
        # the writer's layout and the receiver's, which SAMPLE_LOG_ROWS uses
        lines = [" ".join(layout(format_line(r).split(" ")))
                 for r in records_of(emit_stream(SimConfig(per=0.5, duration_s=60.0, seed=8)))]
        path = tmp_path / "log.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        def refuse(line, lineno=None):
            raise AssertionError(f"line {lineno} left the column-wise path")

        monkeypatch.setattr(ingest, "parse_line", refuse)
        for source in (lines, path):
            table, report = parse_table(source)
            assert report.accepted == len(table) == len(lines) > 300

    def test_writer_lines_take_the_fixed_offsets(self, monkeypatch, tmp_path):
        # write_records writes every line at the widths the writer's layout reads
        path = tmp_path / "sim.log"
        write_records(emit_stream(SimConfig(per=0.5, duration_s=60.0, seed=8)), path)

        def refuse(line, lineno=None):
            raise AssertionError(f"line {lineno} left the fixed offsets")

        monkeypatch.setattr(ingest, "parse_line", refuse)
        table, report = parse_table(path)
        assert report.accepted == len(table) > 300

    @pytest.mark.parametrize("layout", [
        lambda f: [str(int(f[0]) - 10**9)] + f[1:],
        lambda f: [str(int(f[0]) + 9 * 10**9)] + f[1:],
        lambda f: f[:1] + [str(int(f[1]))] + f[2:],
    ], ids=["9-digit-time", "11-digit-time", "unpadded-frac"])
    def test_other_layouts_match_the_per_line_parser(self, monkeypatch, tmp_path, layout):
        # valid lines outside both fixed layouts go through parse_line and
        # give the records the per-line reference gives
        lines = [" ".join(layout(format_line(r).split(" ")))
                 for r in records_of(emit_stream(SimConfig(per=0.5, duration_s=60.0, seed=8)))]
        path = tmp_path / "log.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        accepted, _, _ = reference_parse(lines)
        calls = []

        def counted(line, lineno=None):
            calls.append(lineno)
            return parse_line(line, lineno)

        monkeypatch.setattr(ingest, "parse_line", counted)
        for source in (lines, path):
            calls.clear()
            table, report = parse_table(source)
            assert records_of(table) == accepted and report.accepted == len(lines) > 300
            assert len(calls) == len(lines)

    def test_other_lines_scattered_among_writer_lines(self, tmp_path):
        # far apart: receiver-layout lines and lines for parse_line keep their line numbers
        stream = emit_stream(SimConfig(per=0.5, duration_s=600.0, seed=8))
        lines = [format_line(r) for r in records_of(stream)]
        for k, row in enumerate(SAMPLE_LOG_ROWS + ["", "1580712040 7 115 9 +29.81 +046.10 x"]):
            lines.insert(1 + 150 * k, row)
        path = tmp_path / "log.txt"
        path.write_text("\n".join(lines), encoding="utf-8")
        accepted, _, quarantined = reference_parse(lines)
        for source in (path, lines):
            table, report = parse_table(source)
            assert (report.blank, report.malformed, report.quarantined_lines) == \
                (1, 1, quarantined)
            assert records_of(table) == accepted and len(accepted) > 1200

    @pytest.mark.parametrize("text", [
        "", "\n", "\n\n", SAMPLE_LOG_ROWS[0],
        "\r\n".join(SAMPLE_LOG_ROWS) + "\r\n",
        "\r".join(SAMPLE_LOG_ROWS),
        "\n".join(SAMPLE_LOG_ROWS[:3]) + "\n\n\x0c\n" + "\n".join(SAMPLE_LOG_ROWS[3:]),
    ])
    def test_line_numbering_follows_file_iteration(self, tmp_path, text):
        path = tmp_path / "log.txt"
        path.write_bytes(text.encode("utf-8"))
        table, report = parse_table(path)
        with open(path, encoding="utf-8") as fh:
            accepted, counts, quarantined = reference_parse(fh)
        assert (report.total_lines, report.blank, report.quarantined_lines) == \
            (len(open(path, encoding="utf-8").readlines()), counts["blank"], quarantined)
        assert records_of(table) == accepted

    def test_lines_holding_newlines(self):
        row = SAMPLE_LOG_ROWS[0].split()
        lines = [" ".join(row[:2]) + "\n" + " ".join(row[2:]), "\n", SAMPLE_LOG_ROWS[1] + "\n",
                 SAMPLE_LOG_ROWS[2] + "\r\n", "", SAMPLE_LOG_ROWS[3]]
        table, report = parse_table(lines)
        accepted, counts, quarantined = reference_parse(lines)
        assert (report.total_lines, report.blank, report.quarantined_lines) == (6, 2, quarantined)
        assert records_of(table) == accepted and len(accepted) == 4

    @pytest.mark.parametrize("unit, accepted", [("us", False), ("tenus", False), ("ns", True)])
    def test_counter_of_one_second_is_quarantined(self, unit, accepted):
        rows = [SAMPLE_LOG_ROWS[0], "1580712040 1000000 115 3 +29.81 +046.10"]
        table, report = parse_table(io.StringIO("\n".join(rows)), FRAC_UNITS_S[unit])
        assert (len(table), report.invalid_frac) == ((2, 0) if accepted else (1, 1))
        assert report.quarantined_lines == ([] if accepted else [2])
        assert report.reconciles()

    def test_largest_counter_below_one_second_is_accepted(self):
        table, report = parse_table(["1580712040 999999 115 3 +29.81 +046.10"])
        assert (len(table), report.invalid_frac) == (1, 0)


#: what a mutation writes over one byte of a writer line: bytes the
#: fixed-offset check tells apart, one undecodable byte, and non-ASCII
#: characters that parse_line reads as a digit or as whitespace
MUTATIONS = [c.encode() for c in "0123456789/: +-.,\teEx"] + [b"\xff", "\uff15".encode(),
                                                              "\u00a0".encode()]


def fixed_layout_line(epoch, frac, sat, beam, lat, lon, decimals) -> bytes:
    """One line in the fixed layout whose degrees have ``decimals`` places:
    6 is the writer's layout, 2 the receiver's."""
    return (f"{epoch} {frac:09d} {sat} {beam} {lat:+0{decimals + 4}.{decimals}f} "
            f"{lon:+0{decimals + 5}.{decimals}f}").encode()


@st.composite
def mutated_writer_logs(draw):
    """Lines in the writer's or the receiver's layout, valid or not, one
    byte of one line replaced."""
    sat_ids = st.one_of(st.sampled_from(sorted(valid_sat_ids())), st.integers(0, 999))
    rows = draw(st.lists(st.tuples(
        st.integers(10**9, 10**10 - 1),
        st.one_of(st.integers(0, 999_999), st.integers(0, 10**9 - 1)),
        sat_ids, st.integers(0, 99),
        st.integers(-99_999_999, 99_999_999), st.integers(-180_000_000, 180_000_000),
        st.sampled_from([6, 2])),
        min_size=1, max_size=6))
    lines = [fixed_layout_line(e, f, s, b, lat / 1e6, lon / 1e6, decimals)
             for e, f, s, b, lat, lon, decimals in rows]
    if draw(st.booleans()):
        lines.append(lines[0])
    k = draw(st.integers(0, len(lines) - 1))
    at = draw(st.sampled_from(range(len(lines[k]))))
    lines[k] = lines[k][:at] + draw(st.sampled_from(MUTATIONS)) + lines[k][at + 1:]
    return lines


def assert_matches_reference(result, expected, n_lines):
    table, report = result
    accepted, counts, quarantined = expected
    assert report.to_dict() == {
        "total_lines": n_lines, "accepted": len(accepted),
        **{c: counts[c] for c in ("blank", "malformed", "invalid_sat_id", "invalid_beam_id",
                                  "invalid_coordinate", "invalid_frac", "duplicate")},
        "quarantined": sum(counts.values()) - counts["blank"]}
    assert report.quarantined_lines == quarantined
    assert table == table_of(accepted)


class TestMutatedWriterLines:
    """One byte changed anywhere in a line of the writer's or the receiver's
    layout: both parsing tiers put every line where the per-line reference
    does."""

    @staticmethod
    def check(raw, tmp_path):
        path = tmp_path / "log.txt"
        path.write_bytes(b"\n".join(raw) + b"\n")
        with open(path, encoding="utf-8", errors="replace") as fh:
            expected = reference_parse(fh)
        assert_matches_reference(parse_table(path), expected, len(raw))
        lines = [line.decode("utf-8", "replace") for line in raw]
        assert_matches_reference(parse_table(lines), reference_parse(lines), len(raw))

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutated_writer_logs())
    def test_matches_per_line_reference(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            self.check(raw, Path(tmp))

    def test_every_offset_and_byte(self, tmp_path):
        # sat ids of 1 to 3 digits and beams of 1 and 2, in both layouts; at
        # every offset of each line, each mutation replaces or is inserted
        # before the byte there, or the byte is deleted; all in one log
        bases = [fixed_layout_line(1580712040, *row, decimals) for decimals in (6, 2)
                 for row in [(739, 2, 0, 29.81, 46.1), (4519, 13, 7, -0.5, -179.25),
                             (4520, 4, 12, 0.0, -0.000001), (5059, 115, 44, -89.999999, 0.0),
                             (999999, 99, 48, 9.000001, 180.0)]]
        raw = bases + [line[:at] + new + line[at + skip:] for line in bases
                       for at in range(len(line)) for new in [b"", *MUTATIONS] for skip in (0, 1)]
        self.check(raw, tmp_path)


def _written(records) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.log"
        write_records(records, path)
        return path.read_text(encoding="utf-8")


#: values whose six-decimal rendering needs care: exact halves, signed zeros,
#: negatives that round to zero, and roundings that carry into the integer part
EDGE_DEGREES = [0.0078125, -0.0078125, 0.0, -0.0, -1e-9, 1e-9, 89.9999995, -89.9999995,
                179.9999995, -179.9999995, 0.5e-6, 2.5e-6, 90.0, -90.0, 180.0, 45.0000005]


class TestWriteRecords:
    @given(st.lists(st.builds(
        IraRecord,
        st.integers(min_value=-2**63, max_value=2**63 - 1),
        st.integers(min_value=0, max_value=2**63 - 1),
        st.sampled_from(sorted(valid_sat_ids())),
        st.integers(min_value=0, max_value=48),
        st.builds(GeoPoint, st.floats(min_value=-90, max_value=90),
                  st.floats(min_value=-720, max_value=720)),
    ), min_size=1, max_size=20))
    @example([IraRecord(1_600_000_000, 0, 115, 0, GeoPoint(-1e-300, -5e-324))])
    def test_lines_equal_format_line(self, records):
        table = table_of(records)
        assert _written(table) == "".join(format_line(r) + "\n" for r in records_of(table))

    def test_edge_coordinates(self):
        records = [IraRecord(1_600_000_000 + i, 7, 115, i % 49, GeoPoint(lat, lon))
                   for i, (lat, lon) in enumerate(
                       (lat, lon) for lat in EDGE_DEGREES if abs(lat) <= 90 for lon in EDGE_DEGREES)]
        table = table_of(records)
        assert _written(table) == "".join(format_line(r) + "\n" for r in records)

    def test_simulated_stream(self):
        table = emit_stream(SimConfig(per=0.5, duration_s=120.0, seed=2))
        assert _written(table) == "".join(format_line(r) + "\n" for r in records_of(table))


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
            segment_passes(make_records([], [], []))

    def test_multiple_satellites_rejected(self):
        records = table_of(records_of(make_records([0.0], [0], [0], sat_id=78))
                           + records_of(make_records([1.0], [0], [0], sat_id=115)))
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
                track = p.records.lat[p.records.is_track].tolist()
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
        grouped = group_by_satellite(table_of(records_of(r1) + records_of(r2)))
        assert list(grouped) == [78, 115]
