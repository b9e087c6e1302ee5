import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ringalert
from ringalert import cli, detector
from ringalert.cli import build_parser, main
from ringalert.geo import GeoPoint, interpolate
from ringalert.ingest import parse_table
from ringalert.model import DetectorConfig, MotionProfile
from ringalert.simulator import SimConfig, emit_stream
from tests.conftest import SAMPLE_LOG_ROWS, format_line, records_of, reference_parse


def run_cli(args) -> int:
    return main([str(a) for a in args])


def write_sample_log(path: Path, extra_rows=()) -> Path:
    log = path / "stream.txt"
    log.write_text("\n".join(list(SAMPLE_LOG_ROWS) + list(extra_rows)) + "\n")
    return log


def dir_bytes(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestParserContract:
    def test_every_flag_is_documented(self):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if isinstance(a.choices, dict)
        )
        assert set(subparsers.choices) == {"ingest", "analyze", "simulate", "detect", "evaluate"}
        for name, sub in subparsers.choices.items():
            help_text = sub.format_help()
            for action in sub._actions:
                for option in action.option_strings:
                    assert option in help_text, f"{name}: {option} missing from --help"

    def test_unknown_flag_exits_one(self, tmp_path, capsys):
        assert run_cli(["ingest", "--input", tmp_path / "x", "--nonsense"]) == 1
        assert assert_one_line_error(capsys) == "ringalert: error: unrecognized arguments: --nonsense\n"

    def test_missing_subcommand_exits_one(self, capsys):
        assert run_cli([]) == 1
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--per", "x"],
        ["evaluate", "--n-sats", "1.5"],
        ["detect", "--window-n", "x"],
        ["analyze", "--speed-bin-kms", "x"],
        ["simulate", "--loss-model", "x"],
        ["simulate", "--output"],
    ])
    def test_argparse_rejection_is_one_line_led_by_the_flag(self, capsys, argv):
        assert run_cli(argv) == 1
        assert assert_one_line_error(capsys).startswith(f"ringalert: error: {argv[1]}: ")

    @pytest.mark.parametrize("argv, code", [
        (["ingest", "--input", "a\nb"], 2),
        (["ingest", "--input", "x", "a\nb"], 1),
    ], ids=["data", "usage"])
    def test_newline_in_the_message_stays_one_line(self, tmp_path, capsys, argv, code):
        assert run_cli(argv + ["--report", tmp_path / "r"]) == code
        assert "a b" in assert_one_line_error(capsys)

    def test_console_exit_status(self, tmp_path):
        # the process exits 1 with one line, as the console script does
        src = str(Path(ringalert.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "ringalert.cli", "simulate", "--per", "x",
                               "--output", str(tmp_path / "sim.txt")],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (1, "ringalert: error: --per: invalid float value: 'x'\n")


class TestIngestCommand:
    def test_happy_path(self, tmp_path, capsys):
        log = write_sample_log(tmp_path, ["corrupted row"])
        report = tmp_path / "out"
        assert run_cli(["ingest", "--input", log, "--report", report]) == 0
        summary = json.loads((report / "ingest_summary.json").read_text())
        assert summary["report"]["accepted"] == 7
        assert summary["report"]["malformed"] == 1
        assert summary["records_per_satellite"] == {"115": 7}
        assert "accepted 7" in capsys.readouterr().out

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        assert run_cli(["ingest", "--input", tmp_path / "nope.txt",
                        "--report", tmp_path / "r"]) == 2
        assert "error" in capsys.readouterr().err

    def test_normalized_output_parses_back(self, tmp_path):
        log = write_sample_log(tmp_path)
        normalized = tmp_path / "normalized.txt"
        assert run_cli(["ingest", "--input", log, "--report", tmp_path / "r",
                        "--normalized-out", normalized]) == 0
        assert run_cli(["ingest", "--input", normalized, "--report", tmp_path / "r2"]) == 0

    @pytest.mark.parametrize("unit, invalid_frac", [("us", 1), ("ns", 0)])
    def test_frac_unit_reaches_the_parser(self, tmp_path, unit, invalid_frac):
        log = write_sample_log(tmp_path, ["1580712040 1000000 115 3 +29.81 +046.10"])
        report = tmp_path / "r"
        assert run_cli(["ingest", "--input", log, "--frac-unit", unit, "--report", report]) == 0
        counts = json.loads((report / "ingest_summary.json").read_text())["report"]
        assert (counts["invalid_frac"], counts["accepted"]) == (invalid_frac, 8 - invalid_frac)

    def test_report_dir_env_fallback(self, tmp_path, monkeypatch):
        log = write_sample_log(tmp_path)
        env_dir = tmp_path / "envreports"
        monkeypatch.setenv("RINGALERT_REPORT_DIR", str(env_dir))
        monkeypatch.chdir(tmp_path)
        assert run_cli(["ingest", "--input", log]) == 0
        assert (env_dir / "ingest_summary.json").exists()


class TestSimulateCommand:
    def test_deterministic_output(self, tmp_path):
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        args = ["simulate", "--per", 0.99, "--duration", 300, "--seed", 7,
                "--n-sats", 11, "--planes", 1, "--plane-nodes", "0",
                "--inclination", 90]
        assert run_cli(args + ["--output", out_a]) == 0
        assert run_cli(args + ["--output", out_b]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.stat().st_size > 0

    def test_seed_matters(self, tmp_path):
        base = ["simulate", "--per", 0.99, "--duration", 300, "--n-sats", 11,
                "--planes", 1, "--plane-nodes", "0", "--inclination", 90]
        run_cli(base + ["--seed", 1, "--output", tmp_path / "a.txt"])
        run_cli(base + ["--seed", 2, "--output", tmp_path / "b.txt"])
        assert (tmp_path / "a.txt").read_bytes() != (tmp_path / "b.txt").read_bytes()

    def test_output_ingests_cleanly(self, tmp_path):
        out = tmp_path / "sim.txt"
        run_cli(["simulate", "--duration", 30, "--n-sats", 11, "--planes", 1,
                 "--plane-nodes", "0", "--inclination", 90, "--output", out])
        report = tmp_path / "r"
        assert run_cli(["ingest", "--input", out, "--report", report]) == 0
        summary = json.loads((report / "ingest_summary.json").read_text())
        assert summary["report"]["quarantined"] == 0
        assert summary["report"]["accepted"] > 0

    def test_scenario_file(self, tmp_path):
        scenario = {
            "receiver": {"start": {"lat_deg": 0.0, "lon_deg": 0.0},
                         "course_deg": 0.0, "speed_kmh": 40.0},
            "spoof": {"start_s": 0.0, "offset_course_deg": 90.0, "offset_speed_kmh": 30.0},
        }
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(scenario))
        out = tmp_path / "sim.txt"
        track = tmp_path / "track.txt"
        assert run_cli(["simulate", "--duration", 60, "--n-sats", 11, "--planes", 1,
                        "--plane-nodes", "0", "--inclination", 90,
                        "--scenario", scenario_path, "--output", out,
                        "--track-out", track, "--track-interval-s", 30]) == 0
        lines = [l for l in track.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 3  # t = 0, 30, 60


class TestAnalyzeCommand:
    def test_reports_and_determinism(self, tmp_path):
        stream = tmp_path / "sim.txt"
        run_cli(["simulate", "--duration", 1200, "--per", 0.5, "--seed", 3,
                 "--n-sats", 11, "--planes", 1, "--plane-nodes", "0",
                 "--inclination", 90, "--output", stream])
        rep_a, rep_b = tmp_path / "ra", tmp_path / "rb"
        args = ["analyze", "--input", stream, "--receiver", "0,0"]
        assert run_cli(args + ["--report", rep_a]) == 0
        assert run_cli(args + ["--report", rep_b]) == 0
        assert dir_bytes(rep_a) == dir_bytes(rep_b)
        summary = json.loads((rep_a / "analyze_summary.json").read_text())
        assert summary["speed"]["samples"] > 0
        assert summary["interarrival"]["max_grid_residual_s"] < 1e-9
        assert summary["coverage"]["max_km"] <= 1625.0 + 1e-6
        assert (rep_a / "speed_histogram.tsv").exists()
        assert (rep_a / "passes.tsv").exists()

    def test_table1_style_input(self, tmp_path):
        log = write_sample_log(tmp_path)
        report = tmp_path / "r"
        assert run_cli(["analyze", "--input", log, "--report", report]) == 0
        summary = json.loads((report / "analyze_summary.json").read_text())
        assert summary["passes"]["count"] == 1

    def test_far_off_time_gets_its_own_bin(self, tmp_path):
        # a duration of ~4e18 s is ~4e19 bins of 0.1 s: beyond int64, exact as a float
        log = write_sample_log(tmp_path, ["4000000000000000000 000000000 115 0 +29.81 +046.10"])
        report = tmp_path / "r"
        assert run_cli(["analyze", "--input", log, "--report", report]) == 0
        rows = (report / "interarrival_histogram.tsv").read_text().splitlines()[1:]
        bins = [float(row.split("\t")[0]) for row in rows]
        assert bins == sorted(bins) and bins[0] >= 0.0
        assert bins[-1] == pytest.approx(4e18, rel=1e-8)  # the report keeps 8 digits

    def test_log_without_track_records_has_no_coverage(self, tmp_path):
        beams_only = [row for row in SAMPLE_LOG_ROWS if row.split()[3] != "0"]
        log = tmp_path / "beams.txt"
        log.write_text("\n".join(beams_only) + "\n")
        report = tmp_path / "r"
        assert run_cli(["analyze", "--input", log, "--receiver", "25,50",
                        "--report", report]) == 0
        summary = json.loads((report / "analyze_summary.json").read_text())
        assert summary["coverage"] is None
        assert not (report / "coverage_histogram.tsv").exists()

    def test_duplicate_decode_is_counted(self, tmp_path):
        log = write_sample_log(tmp_path, [SAMPLE_LOG_ROWS[2]])
        report = tmp_path / "r"
        assert run_cli(["analyze", "--input", log, "--report", report]) == 0
        counts = json.loads((report / "analyze_summary.json").read_text())["ingest"]
        assert counts["duplicate"] == 1 and counts["accepted"] == len(SAMPLE_LOG_ROWS)
        assert counts["total_lines"] == counts["accepted"] + counts["blank"] + counts["quarantined"]


class TestNonUtf8Log:
    """A line holding bytes that are not UTF-8 is quarantined as malformed."""

    @pytest.fixture
    def log(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_bytes("\n".join(SAMPLE_LOG_ROWS).encode() + b"\n\xff\xfe\n"
                         + b"1580712041 000000739 115 0 +29.8\xff1 +046.10\n")
        return path

    def test_parse_table_quarantines_the_lines(self, log):
        table, report = parse_table(log)
        assert (len(table), report.malformed, report.quarantined_lines) == (7, 2, [8, 9])

    @pytest.mark.parametrize("command, summary, key", [
        ("ingest", "ingest_summary.json", "report"),
        ("analyze", "analyze_summary.json", "ingest"),
    ])
    def test_counted_as_malformed(self, tmp_path, log, command, summary, key):
        report = tmp_path / "r"
        assert run_cli([command, "--input", log, "--report", report]) == 0
        counts = json.loads((report / summary).read_text())[key]
        assert (counts["accepted"], counts["malformed"]) == (7, 2)
        assert reconciles(counts)

    def test_detect_runs(self, tmp_path, log):
        track = tmp_path / "track.txt"
        track.write_text("1580712040.0 29.8 46.1\n")
        report = tmp_path / "r"
        assert run_cli(["detect", "--input", log, "--gnss-track", track, "--threshold-km", 20,
                        "--window-n", 2, "--report", report]) == 0
        assert json.loads((report / "detect_summary.json").read_text())["windows"] == 2


class TestAnalyzeInputErrors:
    @pytest.mark.parametrize("flags", [
        ["--speed-bin-kms", 0],
        ["--interarrival-bin-s", 0],
        ["--coverage-bin-km", 0, "--receiver", "0,0"],
        ["--speed-bin-kms", "nan"],
        ["--interarrival-bin-s", -0.1],
        ["--coverage-bin-km", "inf", "--receiver", "0,0"],
        ["--receiver", "95,0"],
        ["--receiver", "1,2,3"],
        ["--gap-threshold-s", -5],
        ["--gap-threshold-s", 0],
        ["--max-speed-dt-s", 0],
        ["--receiver", "north,0"],
        ["--speed-bin-kms", "x"],
    ])
    def test_bad_flag_value_is_usage_error(self, tmp_path, capsys, flags):
        log = write_sample_log(tmp_path)
        report = tmp_path / "r"
        assert run_cli(["analyze", "--input", log, "--report", report] + flags) == 1
        assert_usage_error(capsys, flags)
        assert not report.exists()

    @pytest.mark.parametrize("flags", [
        ["--speed-bin-kms", 5e-324],
        ["--interarrival-bin-s", 5e-324],
        ["--coverage-bin-km", 5e-324, "--receiver", "0,0"],
    ])
    def test_bin_width_that_overflows_is_usage_error(self, tmp_path, capsys, flags):
        log = write_sample_log(tmp_path)
        report = tmp_path / "r"
        assert run_cli(["analyze", "--input", log, "--report", report] + flags) == 1
        assert assert_one_line_error(capsys).startswith(f"ringalert: error: {flags[0]}: ")
        assert not report.exists()

    def test_flags_are_checked_before_the_input_is_read(self, tmp_path, capsys):
        assert run_cli(["analyze", "--input", tmp_path / "missing.txt", "--receiver", "95,0",
                        "--report", tmp_path / "r"]) == 1
        assert_one_line_error(capsys)


def _track_position(times, points, t):
    """Scalar reference of the track lookup: one geo.interpolate per time."""
    if t <= times[0]:
        return points[0]
    if t >= times[-1]:
        return points[-1]
    hi = int(np.searchsorted(times, t))
    lo = hi - 1
    span = times[hi] - times[lo]
    return interpolate(points[lo], points[hi], 0.0 if span <= 0 else (t - times[lo]) / span)


class TestDetectCommand:
    def _simulate_scenario(self, tmp_path, spoof, speed_kmh=40):
        stream = tmp_path / "sim.txt"
        track = tmp_path / "track.txt"
        args = ["simulate", "--duration", 600, "--per", 0.2, "--seed", 5,
                "--n-sats", 22, "--planes", 2, "--plane-nodes=-0.02,0.02",
                "--inclination", 90, "--motion", f"0,0,0,{speed_kmh}",
                "--output", stream, "--track-out", track, "--track-interval-s", 10]
        if spoof:
            args += ["--spoof", "0,90,300"]  # 50 km detour by t = 600 s
        assert run_cli(args) == 0
        return stream, track

    def test_spoofed_run_alarms(self, tmp_path):
        stream, track = self._simulate_scenario(tmp_path, spoof=True)
        report = tmp_path / "r"
        assert run_cli(["detect", "--input", stream, "--threshold-km", 20,
                        "--window-n", 500, "--gnss-track", track,
                        "--motion", "0,0,0,40", "--report", report]) == 0
        summary = json.loads((report / "detect_summary.json").read_text())
        assert summary["windows"] >= 1
        assert summary["alarms"] >= 1
        table = (report / "detect_windows.tsv").read_text().splitlines()
        assert table[0].split("\t") == ["window", "t_ref", "n_used", "i_lat", "i_lon",
                                        "g_lat", "g_lon", "deviation_km", "alarm"]

    @pytest.mark.parametrize("window_n, speed_kmh", [(500, 40), (1, 0), (3, 0), (3, 40)],
                             ids=["500_moving", "1_still", "3_still", "3_moving"])
    def test_windows_match_the_record_wrapper(self, tmp_path, window_n, speed_kmh):
        # each row is what the record/table wrapper estimate_position gives
        # for the window's beam records, byte for byte as written
        stream, track = self._simulate_scenario(tmp_path, spoof=True, speed_kmh=speed_kmh)
        report = tmp_path / "r"
        motion_flag = ["--motion", f"0,0,0,{speed_kmh}"] if speed_kmh else []
        assert run_cli(["detect", "--input", stream, "--threshold-km", 20,
                        "--window-n", window_n, "--gnss-track", track,
                        *motion_flag, "--report", report]) == 0
        records, _ = parse_table(stream)
        beams = records[records.is_beam]
        tail = json.loads((report / "detect_summary.json").read_text())["tail_beams"]
        assert tail == len(beams) % window_n
        assert tail > 0 or window_n < 500  # the long windows leave beams unused
        motion = MotionProfile(GeoPoint(0.0, 0.0), 0.0, speed_kmh) if speed_kmh else None
        config = DetectorConfig(20.0, window_n)
        track_times, track_lat, track_lon = cli._load_track(track)
        track_points = [GeoPoint(a, b) for a, b in zip(track_lat, track_lon)]
        expected = []
        for k in range(len(beams) // window_n):
            window = beams[k * window_n:(k + 1) * window_n]
            t_ref = float(window.t_s(origin=(0, 0))[-1])
            est = detector.estimate_position(window, motion)
            g_pos = _track_position(track_times, track_points, t_ref)
            outcome = detector.detect(est, g_pos, config)
            floats = (est.i_pos.lat_deg, est.i_pos.lon_deg, g_pos.lat_deg, g_pos.lon_deg,
                      outcome.deviation_km)
            expected.append("\t".join([str(k), repr(t_ref), str(est.n_used),
                                       *(format(v, ".8g") for v in floats),
                                       str(int(outcome.alarm))]))
        assert (report / "detect_windows.tsv").read_text().splitlines()[1:] == expected

    @pytest.mark.parametrize("fixes", [
        [(100.0, 10.0, 20.0)],
        [(100.0, 10.0, 20.0), (160.0, 10.5, 20.25), (160.0, 11.0, 20.5), (400.0, -30.0, 179.0)],
    ])
    def test_track_positions_match_the_scalar_lookup(self, fixes):
        # one array call gives each time the fix or blend the scalar lookup gives:
        # clamped before the first and after the last fix, at fix times, between them
        times, lat, lon = (np.array(column) for column in zip(*fixes))
        points = [GeoPoint(a, b) for _, a, b in fixes]
        t = np.array([0.0, 100.0, 130.0, 160.0, 161.0, 250.0, 399.9, 400.0, 1e6])
        got_lat, got_lon = cli._track_positions(times, lat, lon, t)
        assert got_lat.shape == got_lon.shape == t.shape
        for got_a, got_b, t_k in zip(got_lat.tolist(), got_lon.tolist(), t.tolist()):
            want = _track_position(times, points, t_k)
            assert got_a == pytest.approx(want.lat_deg, abs=1e-12), t_k
            assert got_b == pytest.approx(want.lon_deg, abs=1e-12), t_k

    def test_t_ref_is_the_last_beam_time_exactly(self, tmp_path):
        stream, track = self._simulate_scenario(tmp_path, spoof=False)
        report = tmp_path / "r"
        assert run_cli(["detect", "--input", stream, "--threshold-km", 20, "--window-n", 3,
                        "--gnss-track", track, "--report", report]) == 0
        cells = [float(row.split("\t")[1])
                 for row in (report / "detect_windows.tsv").read_text().splitlines()[1:]]
        records, _ = parse_table(stream)
        last_beams = records[records.is_beam].t_s(origin=(0, 0))[2::3]
        assert len(cells) > 100 and cells == last_beams.tolist()

    def test_window_larger_than_stream_is_data_error(self, tmp_path):
        stream, track = self._simulate_scenario(tmp_path, spoof=False)
        assert run_cli(["detect", "--input", stream, "--threshold-km", 20,
                        "--window-n", 10_000_000, "--gnss-track", track,
                        "--report", tmp_path / "r"]) == 2


class TestEvaluateCommand:
    @pytest.mark.parametrize("flags", [
        ["--per", 1],
        ["--n-sats", 6, "--planes", 1, "--plane-nodes", 0, "--inclination", 90,
         "--coverage-radius", 10, "--receiver", "0,90"],
    ])
    def test_no_window_can_be_collected_is_data_error(self, tmp_path, capsys, flags):
        report = tmp_path / "r"
        assert run_cli(["evaluate", "--report", report] + flags) == 2
        assert_one_line_error(capsys)
        assert not report.exists()

    def test_small_grid(self, tmp_path):
        report = tmp_path / "r"
        assert run_cli(["evaluate", "--windows", 20, "--n-grid", "10,50",
                        "--thresholds", "10,20", "--per", 0.5, "--seed", 2,
                        "--n-sats", 22, "--planes", 2, "--plane-nodes=-0.02,0.02",
                        "--inclination", 90, "--receiver", "0,0",
                        "--report", report]) == 0
        summary = json.loads((report / "evaluate_summary.json").read_text())
        assert set(summary["rates"]) == {"10:10.0", "10:20.0", "50:10.0", "50:20.0"}
        assert (report / "fp_rates.tsv").exists()
        assert (report / "fp_fits.tsv").exists()

    def test_burst_grid_reruns_byte_identical(self, tmp_path):
        argv = ["evaluate", "--windows", 5, "--n-grid", "10,30", "--thresholds", "20",
                "--per", 0.9, "--loss-model", "burst", "--seed", 4, "--n-sats", 22,
                "--planes", 2, "--plane-nodes=-0.02,0.02", "--inclination", 90]
        for name in ("a", "b"):
            assert run_cli(argv + ["--report", tmp_path / name]) == 0
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")
        summary = json.loads((tmp_path / "a" / "evaluate_summary.json").read_text())
        assert summary["config"]["loss_model"] == "burst"


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("ringalert: error: ") and err.count("\n") == 1, err
    return err


class TestWriteFailures:
    @pytest.mark.parametrize("command", ["ingest", "analyze", "detect", "evaluate", "simulate"])
    def test_unwritable_report_is_data_error(self, tmp_path, capsys, command):
        # a path under a regular file can be neither made nor opened
        log = write_sample_log(tmp_path)
        track = tmp_path / "track.txt"
        track.write_text("1580712040.0 29.8 46.1\n")
        unwritable = log / "out"
        argv = {
            "ingest": ["ingest", "--input", log, "--report", unwritable],
            "analyze": ["analyze", "--input", log, "--report", unwritable],
            "detect": ["detect", "--input", log, "--gnss-track", track, "--threshold-km", 20,
                       "--window-n", 1, "--report", unwritable],
            "evaluate": ["evaluate", "--windows", 1, "--n-grid", 10, "--per", 0, "--seed", 2,
                         "--n-sats", 22, "--planes", 2, "--plane-nodes=-0.02,0.02",
                         "--inclination", 90, "--report", unwritable],
            "simulate": ["simulate", "--duration", 10, "--output", tmp_path / "sim.txt",
                         "--track-out", unwritable],
        }[command]
        assert run_cli(argv) == 2
        assert_one_line_error(capsys)


#: a table cell as the report tables write it, taken independently of the writer
def _cell(v) -> str:
    return format(v, ".8g") if isinstance(v, float) else str(v)


class TestTableWriter:
    @given(st.lists(st.tuples(st.floats(), st.integers(-2**63, 2**63 - 1)), max_size=20))
    @example([(v, k) for v, k in zip(
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
         1e308, -1e308, 1.7976931348623157e308], [0, -1, 2**63 - 1, -2**63] * 3)])
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_cells_are_8g_floats_and_str_ints(self, tmp_path, rows):
        # every double (nan, +-inf, -0.0, subnormals, +-1e308 alike) is written
        # as format(v, ".8g") and every integer as str(v), from Python and
        # numpy scalars alike
        floats = [v for v, _ in rows]
        ints = [k for _, k in rows]
        path = tmp_path / "t.tsv"
        cli._write_table(path, ["a", "b", "c", "d", "e", "f"],
                         [floats, np.array(floats), [np.float64(v) for v in floats],
                          ints, np.array(ints, dtype=np.int64), [np.int64(k) for k in ints]])
        lines = path.read_text().splitlines()
        assert lines[0] == "a\tb\tc\td\te\tf"
        assert lines[1:] == ["\t".join([_cell(v)] * 3 + [_cell(k)] * 3) for v, k in rows]


#: flag values that are not numbers, or not as many numbers as the flag
#: takes; the error names the flag
UNCONVERTIBLE = {("--receiver", "1,2,3"), ("--receiver", "north,0"), ("--motion", "0,0,0"),
                 ("--motion", "0,0,east,10"), ("--spoof", "1,90"), ("--spoof", "0,east,10"),
                 ("--plane-nodes", ""), ("--n-grid", "10,ten"), ("--thresholds", "10,x")}


def assert_usage_error(capsys, argv):
    """One error line, led by the flag name when ``argv`` gives a flag a
    value in :data:`UNCONVERTIBLE`."""
    err = assert_one_line_error(capsys)
    argv = [str(a) for a in argv]
    for flag, value in zip(argv, argv[1:]):
        if (flag, value) in UNCONVERTIBLE:
            assert err.startswith(f"ringalert: error: {flag}: "), err
    return err


class TestSimulatorConfigErrors:
    @pytest.mark.parametrize("in_file, code", [(False, 1), (True, 2)], ids=["flag", "config"])
    @pytest.mark.parametrize("duration", [1e13, 1e300])
    def test_huge_duration_exits_at_once(self, tmp_path, duration, in_file, code):
        # slot times past 2**63 microseconds would wrap int64, so the run never
        # starts; a subprocess with a timeout, since a regression would not return
        src = str(Path(ringalert.__file__).resolve().parents[1])
        config, out = tmp_path / "config.json", tmp_path / "sim.txt"
        config.write_text(json.dumps({"duration_s": duration}))
        flags = ["--config", str(config)] if in_file else ["--duration", repr(duration)]
        proc = subprocess.run([sys.executable, "-m", "ringalert.cli", "simulate", *flags,
                               "--output", str(out)],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == code
        assert proc.stderr.startswith("ringalert: error: ") and "duration_s" in proc.stderr
        assert proc.stderr.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("duration", [1.0000001e7, 9e12])
    def test_duration_past_the_emission_limit_exits_at_once(self, tmp_path, duration):
        # emission finds in-view ranges one revolution at a time, so a run past
        # the limit would not end; a subprocess with a timeout, since a
        # regression would not return and would grow its memory
        src = str(Path(ringalert.__file__).resolve().parents[1])
        out = tmp_path / "sim.txt"
        proc = subprocess.run([sys.executable, "-m", "ringalert.cli", "simulate",
                               "--duration", repr(duration), "--output", str(out)],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("ringalert: error: ") and "duration_s" in proc.stderr
        assert proc.stderr.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--per", 1.5],
        ["evaluate", "--per", 1.5],
        ["simulate", "--n-sats", 7],
        ["evaluate", "--n-sats", 7],
        ["simulate", "--duration", 60, "--spoof", "100,90,10"],
        ["simulate", "--spoof", "1,90"],
        ["simulate", "--spoof", "0,east,10"],
        ["simulate", "--receiver", "1,2,3"],
        ["simulate", "--receiver", "95,0"],
        ["simulate", "--motion", "0,0,0,-5"],
        ["simulate", "--duration", "inf"],
        ["simulate", "--duration", "nan"],
        ["evaluate", "--duration", "inf"],
        ["simulate", "--motion", "0,0,nan,10"],
        ["simulate", "--spoof", "100,nan,nan"],
        ["simulate", "--motion", "0,0,0,1e308"],
        ["simulate", "--spoof", "0,90,1e308"],
        ["simulate", "--spoof", "0,90,3000.5"],
        ["simulate", "--coverage-radius", "nan"],
        ["simulate", "--planes", 1, "--n-sats", 11, "--plane-nodes", "inf"],
        ["evaluate", "--n-grid", "10,ten"],
        ["evaluate", "--n-grid", "0,10"],
        ["evaluate", "--n-grid", "10,100,100"],
        ["evaluate", "--windows", 0],
        ["evaluate", "--windows", -1],
        ["simulate", "--seed=-1"],
        ["evaluate", "--seed=-1"],
        ["evaluate", "--thresholds", "nan,10"],
        ["evaluate", "--thresholds", "10,inf"],
        ["evaluate", "--thresholds", "-5"],
        ["evaluate", "--thresholds", "0"],
        ["evaluate", "--thresholds", "10,10"],
        ["simulate", "--planes", 1, "--n-sats", 11, "--plane-nodes", ""],
        ["evaluate", "--planes", 1, "--n-sats", 11, "--plane-nodes", ""],
        ["simulate", "--motion", "0,0,east,10"],
        ["evaluate", "--thresholds", "10,x"],
        ["evaluate", "--receiver", "north,0"],
        ["simulate", "--per", "x"],
        ["evaluate", "--n-sats", 1.5],
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_flag_value_is_usage_error(self, tmp_path, capsys, argv):
        out, track = tmp_path / "sim.txt", tmp_path / "track.txt"
        extra = (["--output", out, "--track-out", track] if argv[0] == "simulate"
                 else ["--report", tmp_path / "r"])
        assert run_cli(argv + extra) == 1
        err = assert_usage_error(capsys, argv)
        if argv[-2:] == ["--spoof", "100,90,10"]:  # emit_stream's check, with its values
            assert "spoof start 100.0 s falls outside the simulated 60.0 s" in err
        assert not out.exists() and not track.exists()

    @pytest.mark.parametrize("interval", [0, -1, "nan", "inf", "1e-300", "1e-6"])
    def test_bad_track_interval_is_usage_error(self, tmp_path, capsys, interval):
        out, track = tmp_path / "sim.txt", tmp_path / "track.txt"
        assert run_cli(["simulate", "--duration", 60, "--output", out, "--track-out", track,
                        "--track-interval-s", interval]) == 1
        assert "--track-interval-s" in assert_one_line_error(capsys)
        assert not out.exists() and not track.exists()

    @pytest.mark.parametrize("command, flag, contents", [
        *[(command, "--config", contents)
          for command in ("simulate", "evaluate")
          for contents in ({"bogus_key": 1}, {"per": 2.0}, {"n_sats": 10, "planes": 3})],
        ("simulate", "--scenario", {"receiver": {"start": {"lat_deg": 0, "lon_deg": 0}}}),
        ("simulate", "--scenario", {"receiver": {"start": {"lat_deg": 0, "lon_deg": 0},
                                                 "course_deg": 0, "speed_kmh": -1}}),
        ("simulate", "--config", {"duration_s": float("inf")}),
        ("evaluate", "--config", {"beam_period_s": float("inf")}),
        ("simulate", "--scenario", {"receiver": {"start": {"lat_deg": 0, "lon_deg": 0},
                                                 "course_deg": float("nan"), "speed_kmh": 1}}),
        ("simulate", "--scenario", {"receiver": {"start": {"lat_deg": 0, "lon_deg": 0},
                                                 "course_deg": 0, "speed_kmh": 1},
                                    "spoof": {"start_s": 1, "offset_course_deg": 90,
                                              "offset_speed_kmh": float("nan")}}),
        ("simulate", "--config", {"seed": -1}),
        ("evaluate", "--config", {"seed": -1}),
        ("simulate", "--config", {"seed": 1.5}),
    ])
    def test_bad_file_contents_are_data_errors(self, tmp_path, capsys, command, flag, contents):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(contents))
        out = tmp_path / "sim.txt"
        extra = ["--output", out] if command == "simulate" else ["--report", tmp_path / "r"]
        assert run_cli([command, flag, path] + extra) == 2
        assert str(path) in assert_one_line_error(capsys)
        assert not out.exists()


class TestDetectCounts:
    """The sample log holds 5 beam records; their t_ref run from
    1580712040.005059 (window 0 at window_n 2) to 1580712040.013159."""

    def _detect(self, tmp_path, window_n, track_times=("1580712040.0",)):
        log = write_sample_log(tmp_path)
        track = tmp_path / "track.txt"
        track.write_text("".join(f"{t} 29.8 46.1\n" for t in track_times))
        report = tmp_path / "r"
        assert run_cli(["detect", "--input", log, "--gnss-track", track, "--threshold-km", 20,
                        "--window-n", window_n, "--report", report]) == 0
        return json.loads((report / "detect_summary.json").read_text())

    @pytest.mark.parametrize("window_n, windows, tail", [(1, 5, 0), (2, 2, 1), (3, 1, 2), (5, 1, 0)])
    def test_tail_beams(self, tmp_path, window_n, windows, tail):
        summary = self._detect(tmp_path, window_n)
        assert (summary["windows"], summary["tail_beams"]) == (windows, tail)

    @pytest.mark.parametrize("track_times, clamped", [
        (["1580712040.0"], 2),
        (["1580712040.0", "1580712040.01"], 1),
        (["1580712040.006", "1580712041.0"], 1),
        (["1580712040.005059", "1580712040.013159"], 0),
        (["1580712039.0", "1580712041.0"], 0),
    ])
    def test_track_clamped_windows(self, tmp_path, track_times, clamped):
        assert self._detect(tmp_path, 2, track_times)["track_clamped_windows"] == clamped

    @pytest.mark.parametrize("window_n", [6, 10**12])
    def test_fewer_beams_than_window_n_is_data_error(self, tmp_path, capsys, window_n):
        log = write_sample_log(tmp_path)
        track = tmp_path / "track.txt"
        track.write_text("1580712040.0 29.8 46.1\n")
        report = tmp_path / "r"
        assert run_cli(["detect", "--input", log, "--gnss-track", track, "--threshold-km", 20,
                        "--window-n", window_n, "--report", report]) == 2
        assert "5 beam records, fewer than window_n" in assert_one_line_error(capsys)
        assert not report.exists()


class TestDetectInputErrors:
    def _inputs(self, tmp_path, track_rows=("1580712040.0 29.8 46.1",)):
        log = write_sample_log(tmp_path)
        track = tmp_path / "track.txt"
        # surrogateescape writes a lone surrogate "\udcXX" as the raw byte 0xXX
        track.write_text("# epoch_s lat lon\n" + "\n".join(track_rows) + "\n",
                         encoding="utf-8", errors="surrogateescape")
        return log, track

    @pytest.mark.parametrize("flags", [
        ["--threshold-km", 0, "--window-n", 2],
        ["--threshold-km", 20, "--window-n", 0],
        ["--threshold-km", 20, "--window-n", 2, "--motion", "0,0,0"],
        ["--threshold-km", 20, "--window-n", 2, "--motion", "0,0,0,1e308"],
        ["--threshold-km", 20, "--window-n", 2, "--motion", "0,0,0,inf"],
        ["--threshold-km", 20, "--window-n", 2, "--motion", "0,0,east,10"],
        ["--threshold-km", 20, "--window-n", "x"],
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_flag_value_is_usage_error(self, tmp_path, capsys, flags):
        log, track = self._inputs(tmp_path)
        assert run_cli(["detect", "--input", log, "--gnss-track", track,
                        "--report", tmp_path / "r"] + flags) == 1
        assert_usage_error(capsys, flags)

    @pytest.mark.parametrize("bad_row", [
        "1580712040.0 29.8",
        "1580712040.0 29.8 46.1 7",
        "1580712040.0 north 46.1",
        "1580712040.0 95.0 46.1",
        "1580712040.0 29.8 46.1\udcff",
        "\udcff\udcfe",
        "nan 29.8 46.1",
        "inf 29.8 46.1",
    ])
    def test_bad_track_line_is_data_error(self, tmp_path, capsys, bad_row):
        log, track = self._inputs(tmp_path, ["1580712039.0 29.8 46.1", bad_row])
        assert run_cli(["detect", "--input", log, "--gnss-track", track,
                        "--threshold-km", 20, "--window-n", 2,
                        "--report", tmp_path / "r"]) == 2
        err = assert_one_line_error(capsys)
        assert str(track) in err and "line 3" in err


def _mutation_base() -> list[str]:
    config = SimConfig(n_sats=11, planes=1, plane_nodes_deg=(0.0,), inclination_deg=90.0,
                       per=0.2, duration_s=30.0, seed=6)
    return [format_line(r) for r in records_of(emit_stream(config))]


MUTATION_BASE = _mutation_base()
ODD_TOKENS = ["x", "nan", "inf", "-inf", "+5", "1e1", "007", "9" * 25, "-1", "0", "49", "999",
              "91.5", "-90.0000001", "1000000", "", "+-3", "1.2.3", "٣",
              str(2**63 - 1), str(-2**63), "4" + "0" * 18, "-" + "4" * 19]
#: Bytes that are not UTF-8 alone or next to each other or to ASCII, as the
#: lone surrogates that surrogateescape writes as those raw bytes.
RAW_BYTES = ["\udcff", "\udcfe", "\udcc0", "\udc80"]


@st.composite
def mutated_logs(draw):
    """Lines of the base log with fields deleted, repeated, swapped, replaced
    by odd tokens or re-delimited with commas, raw bytes that are not UTF-8
    inserted, and whole lines repeated."""
    lines = list(MUTATION_BASE)
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        fields = lines[i].split()
        op = draw(st.sampled_from(["delete", "repeat", "swap", "token", "commas", "line",
                                   "bytes"]))
        if op == "line":
            lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), lines[i])
            continue
        if op == "bytes":
            at = draw(st.integers(min_value=0, max_value=len(lines[i])))
            lines[i] = lines[i][:at] + draw(st.sampled_from(RAW_BYTES)) + lines[i][at:]
            continue
        if fields:
            k = draw(st.integers(min_value=0, max_value=len(fields) - 1))
            if op == "delete":
                del fields[k]
            elif op == "repeat":
                fields.insert(k, fields[k])
            elif op == "swap":
                j = draw(st.integers(min_value=0, max_value=len(fields) - 1))
                fields[k], fields[j] = fields[j], fields[k]
            elif op == "token":
                fields[k] = draw(st.sampled_from(ODD_TOKENS))
        lines[i] = ("," if op == "commas" else " ").join(fields)
    return lines


def reconciles(counts: dict) -> bool:
    classes = ("malformed", "invalid_sat_id", "invalid_beam_id", "invalid_coordinate",
               "invalid_frac", "duplicate")
    return (counts["quarantined"] == sum(counts[c] for c in classes)
            and counts["total_lines"] == counts["accepted"] + counts["blank"] + counts["quarantined"])


class TestMutatedLogs:
    """The error contract on damaged logs: exit 0 or 2, never a traceback,
    and counters that reconcile with the per-line reference."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutated_logs())
    def test_ingest_and_analyze(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            log = Path(tmp) / "log.txt"
            log.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
            accepted, counts, _ = reference_parse(lines)
            for command, summary, key in (("ingest", "ingest_summary.json", "report"),
                                          ("analyze", "analyze_summary.json", "ingest")):
                report = Path(tmp) / command
                rc = run_cli([command, "--input", log, "--receiver", "0,0", "--report", report]
                             if command == "analyze" else
                             [command, "--input", log, "--report", report])
                assert rc in (0, 2)
                if rc == 0:
                    got = json.loads((report / summary).read_text())[key]
                    assert reconciles(got)
                    assert got["accepted"] == len(accepted)
                    assert all(got[c] == n for c, n in counts.items())


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(ringalert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, ringalert.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def assert_numbers_close(a, b, rel):
    """``a`` and ``b`` are the same JSON tree up to a relative error in numbers."""
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_numbers_close(a[key], b[key], rel)
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_numbers_close(x, y, rel)
    elif isinstance(a, float):
        assert a == pytest.approx(b, rel=rel)
    else:
        assert a == b


class TestNanosecondCounters:
    """The W1 log and a copy with every sub-second counter x 1000, read with
    ``--frac-unit ns``, describe the same stream."""

    @pytest.fixture(scope="class")
    def logs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("w1")
        us, track = tmp / "w1.log", tmp / "w1.trk"
        assert run_cli(["simulate", "--duration", 7200, "--per", 0, "--receiver", "60,10",
                        "--seed", 1, "--output", us, "--track-out", track]) == 0
        rows = [line.split(" ") for line in us.read_text().splitlines()]
        ns = tmp / "w1ns.log"
        ns.write_text("".join(" ".join([e, f"{int(f) * 1000:09d}", *rest]) + "\n"
                              for e, f, *rest in rows))
        return us, ns, track

    def _run(self, command, log, unit, report, *flags):
        assert run_cli([command, "--input", log, "--frac-unit", unit, "--report", report,
                        *flags]) == 0
        return dir_bytes(report)

    def test_analyze(self, tmp_path, logs):
        us, ns, _ = logs
        a = self._run("analyze", us, "us", tmp_path / "us", "--receiver", "60,10")
        b = self._run("analyze", ns, "ns", tmp_path / "ns", "--receiver", "60,10")
        assert a.keys() == b.keys() and len(a) == 6
        for name in a:
            if name.endswith(".tsv"):
                assert a[name] == b[name], name
        sa, sb = (json.loads(d["analyze_summary.json"]) for d in (a, b))
        assert (sa.pop("input"), sb.pop("input")) == ("w1.log", "w1ns.log")
        assert_numbers_close(sa, sb, rel=1e-9)

    @pytest.mark.parametrize("window_n", [3, 500])
    def test_detect(self, tmp_path, logs, window_n):
        us, ns, track = logs
        flags = ("--threshold-km", 20, "--window-n", window_n, "--gnss-track", track)
        a = self._run("detect", us, "us", tmp_path / "us", *flags)
        b = self._run("detect", ns, "ns", tmp_path / "ns", *flags)
        assert a["detect_windows.tsv"] == b["detect_windows.tsv"]
        records, _ = parse_table(ns, 1e-9)
        last_beams = records[records.is_beam].t_s(origin=(0, 0))[window_n - 1::window_n]
        cells = [float(row.split(b"\t")[1])
                 for row in b["detect_windows.tsv"].splitlines()[1:]]
        assert cells == last_beams.tolist()


#: values drawn for numeric flags: zero, negative, subnormal, huge, infinite,
#: not a number, and not numeric
NUMERIC_VALUES = ["0", "-1", "5e-324", "1e308", "inf", "-inf", "nan", "x"]
#: values drawn for size flags (durations, counts, window sizes): small, so
#: that an accepted run stays short, or not a size
SIZE_VALUES = ["0", "-1", "1", "2", "3", "x"]
#: a non-finite number as JSON (NaN, Infinity) or a TSV cell (nan, inf) spells it
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
NUMBER = st.sampled_from(NUMERIC_VALUES)
SIZE = st.sampled_from(SIZE_VALUES)


def joined(values, k: int):
    """``k`` comma-separated values, or one fewer or one more."""
    return st.lists(values, min_size=max(k - 1, 0), max_size=k + 1).map(",".join)


@st.composite
def flag_values(draw, drawn: dict, fixed: dict | None = None) -> list[str]:
    """Up to three flags of ``drawn`` (flag -> strategy) with drawn values,
    and the flags of ``fixed`` (flag -> value) not drawn, each as
    ``--flag=value`` so that a value led by '-' stays a value. Few odd
    values at a time leave many runs that succeed."""
    chosen = draw(st.lists(st.sampled_from(sorted(drawn)), unique=True, max_size=3))
    values = {**(fixed or {}), **{flag: draw(drawn[flag]) for flag in chosen}}
    return [f"{flag}={value}" for flag, value in values.items()]


def run_in_process(argv) -> tuple[int, str]:
    """Exit code and stderr of ``main(argv)``; any other exception escapes."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_contract(argv, out: Path) -> None:
    """Exit 0, 1 or 2; on failure exactly one error line and, on a usage
    error, nothing written; on success no non-finite number in any file
    written."""
    code, err = run_in_process(argv)
    assert code in (0, 1, 2), (argv, code, err)
    lines = err.splitlines()
    if code == 0:
        assert not err, (argv, err)
        for path in out.rglob("*"):
            if path.is_file():
                assert not NON_FINITE.search(path.read_text()), (argv, path.name)
        return
    assert len(lines) == 1 and re.match(r"ringalert: error: ", lines[0]), (argv, err)
    if code == 1:
        assert not any(out.iterdir()), (argv, sorted(p.name for p in out.iterdir()))


class TestArgvContract:
    """Odd flag values on every subcommand: the exit-code and one-line error
    contract holds, and accepted runs report finite numbers."""

    @staticmethod
    def run(argv_of):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            out = tmp / "out"
            out.mkdir()
            assert_contract(argv_of(tmp, out), out)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(flag_values({"--frac-unit": st.sampled_from(["us", "tenus", "ns", "x"])}),
           joined(st.sampled_from(NUMERIC_VALUES + ["115", "1580712040"]), 6))
    def test_ingest(self, flags, row):
        def argv(tmp, out):
            log = write_sample_log(tmp, [row.replace(",", " ")])
            return ["ingest", "--input", log, "--report", out / "r",
                    "--normalized-out", out / "normalized.txt", *flags]
        self.run(argv)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(flag_values({"--receiver": joined(NUMBER, 2), "--gap-threshold-s": NUMBER,
                        "--speed-bin-kms": NUMBER, "--interarrival-bin-s": NUMBER,
                        "--coverage-bin-km": NUMBER, "--max-speed-dt-s": NUMBER}))
    def test_analyze(self, flags):
        self.run(lambda tmp, out: ["analyze", "--input", write_sample_log(tmp),
                                   "--report", out / "r", *flags])

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(flag_values({"--per": NUMBER, "--seed": NUMBER, "--n-sats": SIZE, "--planes": SIZE,
                        "--inclination": NUMBER, "--coverage-radius": NUMBER,
                        "--plane-nodes": joined(NUMBER, 1),
                        "--loss-model": st.sampled_from(["iid", "burst"]),
                        "--receiver": joined(NUMBER, 2), "--motion": joined(NUMBER, 4),
                        "--spoof": joined(NUMBER, 3), "--track-interval-s": NUMBER,
                        "--duration": SIZE},
                       {"--duration": "3"}))
    def test_simulate(self, flags):
        self.run(lambda tmp, out: ["simulate", "--output", out / "sim.txt",
                                   "--track-out", out / "track.txt", *flags])

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(flag_values({"--motion": joined(NUMBER, 4), "--threshold-km": NUMBER,
                        "--window-n": SIZE},
                       {"--threshold-km": "20", "--window-n": "2"}))
    def test_detect(self, flags):
        def argv(tmp, out):
            track = tmp / "track.txt"
            track.write_text("1580712040.0 29.8 46.1\n")
            return ["detect", "--input", write_sample_log(tmp), "--gnss-track", track,
                    "--report", out / "r", *flags]
        self.run(argv)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(flag_values({"--per": NUMBER, "--seed": NUMBER, "--receiver": joined(NUMBER, 2),
                        "--thresholds": joined(NUMBER, 2),
                        "--loss-model": st.sampled_from(["iid", "burst"]),
                        "--windows": SIZE, "--n-grid": joined(SIZE, 3)},
                       {"--windows": "2", "--n-grid": "1,2,3"}))
    def test_evaluate(self, flags):
        # --per is not drawn from (0.9999, 1), where collecting a window takes seconds
        self.run(lambda tmp, out: ["evaluate", "--report", out / "r", *flags])
