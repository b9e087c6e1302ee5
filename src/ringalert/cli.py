"""Command-line entry point: ingest, analyze, simulate, detect, evaluate.

Reports are plain TSV tables plus a machine-readable ``*_summary.json`` per
subcommand; identical inputs and seeds produce byte-identical files. Exit
codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analytics, detector, ingest, simulator
from .errors import (EmptyInput, InsufficientBrackets, InsufficientData, InvalidConfig,
                     InvalidCoordinate, IoFailure, MalformedLine, RingAlertError)
from .geo import GeoPoint, great_circle_km, interpolate
from .model import FRAC_UNITS_S, DetectorConfig, MotionProfile

REPORT_DIR_ENV = "RINGALERT_REPORT_DIR"


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    """A flag value that parses but that the command cannot use (exit 1)."""


@contextlib.contextmanager
def _flag_values():
    """Report a bad value met while building objects from flags as a usage error."""
    try:
        yield
    except (ValueError, InvalidCoordinate) as exc:
        raise _UsageError(str(exc)) from exc


def _load_json(path: str, from_dict):
    """``from_dict`` of a JSON file; unusable contents are a data error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return from_dict(json.load(fh))
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfig(f"{path}: {type(exc).__name__}: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".8g")
    return str(value)


def _write_table(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report_dir(args) -> Path:
    report = args.report or os.environ.get(REPORT_DIR_ENV, "reports")
    path = Path(report)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_floats(text: str, fields: str) -> list[float]:
    """The comma-separated numbers of a flag value laid out as ``fields``."""
    parts = text.split(",")
    if len(parts) != len(fields.split(",")):
        raise _UsageError(f"expected '{fields}', got {text!r}")
    return [float(p) for p in parts]


def _parse_latlon(text: str) -> GeoPoint:
    with _flag_values():
        return GeoPoint(*_parse_floats(text, "lat,lon"))


def _parse_motion(text: str) -> MotionProfile:
    with _flag_values():
        lat, lon, course, speed = _parse_floats(text, "lat,lon,course,speed")
        return MotionProfile(GeoPoint(lat, lon), course, speed)


def _histogram_rows(values: np.ndarray, bin_width: float):
    centers, counts = analytics.histogram(values, bin_width)
    return list(zip(centers.tolist(), counts.tolist()))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_ingest(args) -> int:
    table, report = ingest.parse_table(args.input, FRAC_UNITS_S[args.frac_unit])
    out = _report_dir(args)
    sat_ids, counts = np.unique(table.sat_id, return_counts=True)
    summary = {
        "input": os.path.basename(args.input),
        "frac_unit": args.frac_unit,
        "report": report.to_dict(),
        "records_per_satellite": {str(k): v for k, v in zip(sat_ids.tolist(), counts.tolist())},
    }
    _write_json(out / "ingest_summary.json", summary)
    if args.normalized_out:
        ingest.write_records(table, args.normalized_out)
    print(f"accepted {report.accepted} records, quarantined {report.quarantined} "
          f"of {report.total_lines} lines")
    return 0


def _check_positive(flag: str, value: float | None, *, finite: bool = True) -> None:
    """A flag value that must be > 0 (and finite, for histogram bins)."""
    if value is not None and not (value > 0 and (math.isfinite(value) or not finite)):
        raise _UsageError(f"{flag} must be a positive number, got {value}")


def _cmd_analyze(args) -> int:
    frac_unit = FRAC_UNITS_S[args.frac_unit]
    for flag, value in (("--speed-bin-kms", args.speed_bin_kms),
                        ("--interarrival-bin-s", args.interarrival_bin_s),
                        ("--coverage-bin-km", args.coverage_bin_km)):
        _check_positive(flag, value)
    for flag, value in (("--gap-threshold-s", args.gap_threshold_s),
                        ("--max-speed-dt-s", args.max_speed_dt_s)):
        _check_positive(flag, value, finite=False)
    receiver = _parse_latlon(args.receiver) if args.receiver else None
    records, report = ingest.parse_table(args.input, frac_unit)
    if not len(records):
        raise EmptyInput("no valid records to analyze")
    out = _report_dir(args)
    summary: dict = {"input": os.path.basename(args.input), "ingest": report.to_dict()}

    speeds = analytics.ground_speeds(records, frac_unit_s=frac_unit,
                                     gap_threshold_s=args.gap_threshold_s,
                                     max_dt_s=args.max_speed_dt_s)
    if speeds:
        values = np.array([s.v_kms for s in speeds])
        _write_table(out / "speed_histogram.tsv", ["v_kms", "count"],
                     _histogram_rows(values, args.speed_bin_kms))
        summary["speed"] = {
            "samples": len(speeds),
            "mode_kms": analytics.histogram_mode(values, args.speed_bin_kms),
        }

    if len(records) >= 2:
        stats = analytics.interarrival_stats(records, frac_unit_s=frac_unit,
                                             bin_width_s=args.interarrival_bin_s)
        _write_table(out / "interarrival_histogram.tsv", ["duration_s", "count"],
                     _histogram_rows(stats.durations_s, args.interarrival_bin_s))
        summary["interarrival"] = {
            "mode_s": stats.mode_s,
            "max_grid_residual_s": float(np.abs(stats.residuals_s).max()),
            "delivery_ratio": analytics.packet_delivery_ratio(records, frac_unit_s=frac_unit),
        }

    pass_rows = []
    all_passes = []
    for sat_id, sat_records in ingest.group_by_satellite(records).items():
        for p in ingest.segment_passes(sat_records, args.gap_threshold_s, frac_unit):
            all_passes.append(p)
            pass_rows.append((sat_id, int(p.records.epoch_s[0]), p.duration_min,
                              p.direction.value, len(p.records)))
    _write_table(out / "passes.tsv",
                 ["sat_id", "start_epoch_s", "duration_min", "direction", "records"],
                 pass_rows)
    durations = analytics.pass_durations_min(all_passes)
    summary["passes"] = {"count": len(all_passes)}
    try:
        evd = analytics.fit_evd(durations)
        summary["passes"]["evd"] = evd.to_dict()
    except InsufficientData:
        summary["passes"]["evd"] = None

    try:
        beams = analytics.beam_constellation(records, all_passes, frac_unit_s=frac_unit)
        _write_table(out / "beam_centroids.tsv", ["beam_id", "east_km", "north_km"],
                     [(b, e, n) for b, (e, n) in sorted(beams.centroids.items())])
        summary["beams"] = beams.to_dict()
    except InsufficientBrackets:
        summary["beams"] = None

    if receiver is not None:
        cov = analytics.coverage_extent(records, receiver,
                                        bin_width_km=args.coverage_bin_km)
        _write_table(out / "coverage_histogram.tsv", ["distance_km", "count"],
                     _histogram_rows(cov.distances_km, args.coverage_bin_km))
        summary["coverage"] = {
            "max_km": cov.max_km, "area_km2": cov.area_km2, "mode_km": cov.mode_km,
        }

    _write_json(out / "analyze_summary.json", summary)
    print(f"analyzed {len(records)} records into {out}")
    return 0


def _build_sim_config(args) -> simulator.SimConfig:
    base = _load_json(args.config, simulator.SimConfig.from_dict) if args.config \
        else simulator.SimConfig()
    overrides = {}
    for field_name, flag in [
        ("per", "per"), ("duration_s", "duration"), ("seed", "seed"),
        ("n_sats", "n_sats"), ("planes", "planes"),
        ("inclination_deg", "inclination"), ("coverage_radius_km", "coverage_radius"),
        ("loss_model", "loss_model"),
    ]:
        value = getattr(args, flag)
        if value is not None:
            overrides[field_name] = value
    with _flag_values():
        if args.plane_nodes:
            overrides["plane_nodes_deg"] = tuple(float(x) for x in args.plane_nodes.split(","))
        return simulator.SimConfig(**{**base.to_dict(), **overrides}) if overrides else base


def _build_scenario(args, duration_s: float) -> simulator.Scenario:
    if args.scenario:
        scenario = _load_json(args.scenario, simulator.Scenario.from_dict)
    else:
        receiver = MotionProfile(_parse_latlon(args.receiver or "0,0"), 0.0, 0.0) \
            if args.motion is None else _parse_motion(args.motion)
        spoof = None
        if args.spoof:
            with _flag_values():
                spoof = simulator.SpoofProfile(
                    *_parse_floats(args.spoof, "start_s,course_deg,speed_kmh"))
        scenario = simulator.Scenario(receiver, spoof)
    if scenario.spoof is not None and not 0.0 <= scenario.spoof.start_s <= duration_s:
        raise _UsageError(f"spoof start {scenario.spoof.start_s} s falls outside "
                          f"the simulated {duration_s} s")
    return scenario


def _cmd_simulate(args) -> int:
    config = _build_sim_config(args)
    scenario = _build_scenario(args, config.duration_s)
    records = simulator.emit_stream(config, scenario, return_arrays=True).to_table()
    ingest.write_records(records, args.output)
    if args.track_out:
        step = args.track_interval_s
        times = np.arange(0.0, config.duration_s + 0.5 * step, step)
        with open(args.track_out, "w", encoding="utf-8") as fh:
            fh.write("# epoch_s lat_deg lon_deg\n")
            for t in times:
                pos = scenario.reported_position(float(t))
                fh.write(f"{config.start_epoch_s + t:.3f} "
                         f"{pos.lat_deg:+010.6f} {pos.lon_deg:+011.6f}\n")
    print(f"wrote {len(records)} records to {args.output}")
    return 0


def _load_track(path) -> tuple[np.ndarray, list[GeoPoint]]:
    times, points = [], []
    try:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                try:
                    line.encode("utf-8")  # an undecodable byte became a lone surrogate
                except UnicodeEncodeError:
                    raise MalformedLine(f"track {path}, line {lineno}: not UTF-8") from None
                if not line or line.startswith("#"):
                    continue
                try:
                    t, lat, lon = (float(x) for x in line.split())
                    points.append(GeoPoint(lat, lon))
                    times.append(t)
                except (ValueError, InvalidCoordinate) as exc:
                    raise MalformedLine(f"track {path}, line {lineno}: {line!r}: {exc}") from None
    except OSError as exc:
        raise IoFailure(f"cannot read track {path}: {exc}") from exc
    if not times:
        raise EmptyInput(f"track file {path} holds no positions")
    order = np.argsort(times)
    return np.asarray(times, dtype=float)[order], [points[i] for i in order]


def _track_position(times: np.ndarray, points: list[GeoPoint], t: float) -> GeoPoint:
    if t <= times[0]:
        return points[0]
    if t >= times[-1]:
        return points[-1]
    hi = int(np.searchsorted(times, t))
    lo = hi - 1
    span = times[hi] - times[lo]
    fraction = 0.0 if span <= 0 else (t - times[lo]) / span
    return interpolate(points[lo], points[hi], fraction)


def _cmd_detect(args) -> int:
    frac_unit = FRAC_UNITS_S[args.frac_unit]
    with _flag_values():
        config = DetectorConfig(args.threshold_km, args.window_n)
    motion = _parse_motion(args.motion) if args.motion else None
    records, _ = ingest.parse_table(args.input, frac_unit)
    beams = records[records.is_beam]
    if not len(beams):
        raise EmptyInput("no beam records in input")
    times = beams.t_s(frac_unit, origin=(0, 0))
    track_times, track_points = _load_track(args.gnss_track)
    out = _report_dir(args)
    rows = []
    alarms = clamped = 0
    for start in range(0, len(beams) - config.window_n + 1, config.window_n):
        window = beams[start:start + config.window_n]
        t_ref = float(times[start + config.window_n - 1])
        est = detector.estimate_position(window, motion, t_ref=t_ref,
                                         frac_unit_s=frac_unit)
        g_pos = _track_position(track_times, track_points, t_ref)
        clamped += not track_times[0] <= t_ref <= track_times[-1]
        outcome = detector.detect(est, g_pos, config)
        alarms += outcome.alarm
        rows.append((
            len(rows), t_ref, est.n_used,
            est.i_pos.lat_deg, est.i_pos.lon_deg,
            g_pos.lat_deg, g_pos.lon_deg,
            outcome.deviation_km, int(outcome.alarm),
        ))
    if not rows:
        raise EmptyInput(
            f"stream holds {len(beams)} beam records, fewer than window_n={config.window_n}"
        )
    _write_table(out / "detect_windows.tsv",
                 ["window", "t_ref", "n_used", "i_lat", "i_lon",
                  "g_lat", "g_lon", "deviation_km", "alarm"], rows)
    _write_json(out / "detect_summary.json", {
        "input": os.path.basename(args.input),
        "threshold_km": config.threshold_km,
        "window_n": config.window_n,
        "windows": len(rows),
        "alarms": alarms,
        "tail_beams": len(beams) - len(rows) * config.window_n,
        "track_clamped_windows": clamped,
    })
    print(f"{alarms}/{len(rows)} windows raised an alarm")
    return 0


def _cmd_evaluate(args) -> int:
    config = _build_sim_config(args)
    receiver = _parse_latlon(args.receiver or "0,0")
    with _flag_values():
        n_grid = [int(x) for x in args.n_grid.split(",")]
        thresholds = [float(x) for x in args.thresholds.split(",")]
    if min(n_grid) < 1:
        raise _UsageError(f"--n-grid sizes must be >= 1, got {args.n_grid!r}")
    deviations_by_n = {}
    for n in n_grid:
        rng = np.random.default_rng([config.seed, n])
        windows = simulator.sample_windows(config, receiver, window_messages=n,
                                           n_windows=args.windows, rng=rng)
        deviations_by_n[n] = [
            great_circle_km(
                detector.estimate_position_arrays(w.lat, w.lon, w.t_s).i_pos, receiver
            ).km
            for w in windows
        ]
    rates = detector.evaluate_fp(deviations_by_n, thresholds, min_windows=args.windows)
    # the per-threshold decay fit needs at least three grid points
    fits = detector.fp_exponent_fits(rates) if len(n_grid) >= 3 else {}
    out = _report_dir(args)
    _write_table(out / "fp_rates.tsv", ["n", "threshold_km", "windows", "fp_rate"],
                 [(n, thr, args.windows, rate) for (n, thr), rate in sorted(rates.items())])
    _write_table(out / "fp_fits.tsv", ["threshold_km", "m", "q"],
                 [(thr, c.m, c.q) for thr, c in sorted(fits.items())])
    _write_json(out / "evaluate_summary.json", {
        "config": config.to_dict(),
        "receiver": receiver.to_dict(),
        "windows": args.windows,
        "rates": {f"{n}:{thr}": rate for (n, thr), rate in sorted(rates.items())},
        "fits": {str(thr): c.to_dict() for thr, c in sorted(fits.items())},
    })
    print(f"evaluated {len(n_grid)} window sizes x {len(thresholds)} thresholds")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> _Parser:
    parser = _Parser(prog="ringalert",
                     description="Ring-alert log analytics, simulation, and position verification")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="parse and validate a ring-alert log")
    p.add_argument("--input", required=True, help="log file path")
    p.add_argument("--frac-unit", choices=sorted(FRAC_UNITS_S), default="us",
                   help="unit of the sub-second counter")
    p.add_argument("--report", help=f"report directory (default ${REPORT_DIR_ENV} or ./reports)")
    p.add_argument("--normalized-out", help="write accepted records in canonical form")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("analyze", help="constellation statistics from a log")
    p.add_argument("--input", required=True)
    p.add_argument("--frac-unit", choices=sorted(FRAC_UNITS_S), default="us")
    p.add_argument("--report", help="report directory")
    p.add_argument("--receiver", help="receiver 'lat,lon' for coverage analysis")
    p.add_argument("--gap-threshold-s", type=float, default=600.0,
                   help="pass segmentation gap (seconds)")
    p.add_argument("--speed-bin-kms", type=float, default=0.05)
    p.add_argument("--interarrival-bin-s", type=float, default=0.1)
    p.add_argument("--coverage-bin-km", type=float, default=25.0)
    p.add_argument("--max-speed-dt-s", type=float, default=None,
                   help="drop speed samples spanning gaps longer than this")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="generate a synthetic ring-alert stream")
    p.add_argument("--output", required=True, help="stream file to write")
    p.add_argument("--per", type=float, default=None, help="packet error rate")
    p.add_argument("--duration", type=float, default=None, help="simulated seconds")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n-sats", type=int, default=None, dest="n_sats")
    p.add_argument("--planes", type=int, default=None)
    p.add_argument("--inclination", type=float, default=None)
    p.add_argument("--coverage-radius", type=float, default=None, dest="coverage_radius")
    p.add_argument("--plane-nodes", default=None, dest="plane_nodes",
                   help="comma-separated ascending-node longitudes")
    p.add_argument("--loss-model", choices=["iid", "burst"], default=None, dest="loss_model")
    p.add_argument("--config", help="JSON file with full simulator configuration")
    p.add_argument("--scenario", help="JSON file with receiver/spoof scenario")
    p.add_argument("--receiver", help="stationary receiver 'lat,lon' (default 0,0)")
    p.add_argument("--motion", help="moving receiver 'lat,lon,course,speed'")
    p.add_argument("--spoof", help="spoof 'start_s,course_deg,speed_kmh'")
    p.add_argument("--track-out", help="write the reported-position track here")
    p.add_argument("--track-interval-s", type=float, default=60.0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("detect", help="verify reported positions against a stream")
    p.add_argument("--input", required=True, help="ring-alert log file")
    p.add_argument("--threshold-km", type=float, required=True)
    p.add_argument("--window-n", type=int, required=True)
    p.add_argument("--gnss-track", required=True,
                   help="reported positions: lines of 'epoch_s lat lon'")
    p.add_argument("--motion", help="receiver motion 'lat,lon,course,speed'")
    p.add_argument("--frac-unit", choices=sorted(FRAC_UNITS_S), default="us")
    p.add_argument("--report", help="report directory")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("evaluate", help="empirical false-positive rates on simulator windows")
    p.add_argument("--windows", type=int, default=100, help="windows per grid cell")
    p.add_argument("--n-grid", default="10,100,1000,10000",
                   help="comma-separated window message counts")
    p.add_argument("--thresholds", default="10,15,20", help="comma-separated thresholds (km)")
    p.add_argument("--per", type=float, default=None)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n-sats", type=int, default=None, dest="n_sats")
    p.add_argument("--planes", type=int, default=None)
    p.add_argument("--inclination", type=float, default=None)
    p.add_argument("--coverage-radius", type=float, default=None, dest="coverage_radius")
    p.add_argument("--plane-nodes", default=None, dest="plane_nodes")
    p.add_argument("--loss-model", choices=["iid"], default=None, dest="loss_model")
    p.add_argument("--config", help="JSON simulator configuration")
    p.add_argument("--receiver", help="receiver 'lat,lon' (default 0,0)")
    p.add_argument("--report", help="report directory")
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, RingAlertError) as exc:
        print(f"ringalert: error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, _UsageError) else 2


if __name__ == "__main__":
    sys.exit(main())
