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
from .errors import (BinOverflow, EmptyInput, InsufficientBrackets, InsufficientData, InvalidConfig,
                     InvalidCoordinate, IoFailure, MalformedLine, RingAlertError)
# interpolate is no longer called here, but the benchmark's span tracer still
# wraps it by this module's binding (bench/spans.py TARGETS)
from .geo import GeoPoint, great_circle_km, interpolate, interpolate_deg  # noqa: F401
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


@contextlib.contextmanager
def _bin_width(flag: str):
    """Report a bin width too small for the values it bins as a bad ``flag``."""
    try:
        yield
    except BinOverflow as exc:
        raise _UsageError(f"{flag}: {exc}") from exc


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
    """A flag value that must be > 0 (and finite, unless ``finite`` is False)."""
    if value is not None and not (value > 0 and (math.isfinite(value) or not finite)):
        raise _UsageError(f"{flag} must be a positive number, got {value}")


def _cmd_analyze(args) -> int:
    for flag, value in (("--speed-bin-kms", args.speed_bin_kms),
                        ("--interarrival-bin-s", args.interarrival_bin_s),
                        ("--coverage-bin-km", args.coverage_bin_km)):
        _check_positive(flag, value)
    for flag, value in (("--gap-threshold-s", args.gap_threshold_s),
                        ("--max-speed-dt-s", args.max_speed_dt_s)):
        _check_positive(flag, value, finite=False)
    receiver = _parse_latlon(args.receiver) if args.receiver else None
    records, report = ingest.parse_table(args.input, FRAC_UNITS_S[args.frac_unit])
    if not len(records):
        raise EmptyInput("no valid records to analyze")
    summary: dict = {"input": os.path.basename(args.input), "ingest": report.to_dict()}
    # report name -> (header, rows), written once every statistic is in
    tables: dict[str, tuple[list[str], list]] = {}

    speeds = analytics.ground_speeds(records, gap_threshold_s=args.gap_threshold_s,
                                     max_dt_s=args.max_speed_dt_s)
    if speeds.size:
        with _bin_width("--speed-bin-kms"):
            tables["speed_histogram.tsv"] = (["v_kms", "count"],
                                             _histogram_rows(speeds, args.speed_bin_kms))
            summary["speed"] = {
                "samples": int(speeds.size),
                "mode_kms": analytics.speed_mode_kms(speeds, args.speed_bin_kms),
            }

    if len(records) >= 2:
        with _bin_width("--interarrival-bin-s"):
            stats = analytics.interarrival_stats(records, bin_width_s=args.interarrival_bin_s)
            tables["interarrival_histogram.tsv"] = (
                ["duration_s", "count"],
                _histogram_rows(stats.durations_s, args.interarrival_bin_s))
        summary["interarrival"] = {
            "mode_s": stats.mode_s,
            "max_grid_residual_s": float(np.abs(stats.residuals_s).max()),
            "delivery_ratio": analytics.packet_delivery_ratio(records),
        }

    pass_rows = []
    all_passes = []
    for sat_id, sat_records in ingest.group_by_satellite(records).items():
        for p in ingest.segment_passes(sat_records, args.gap_threshold_s):
            all_passes.append(p)
            pass_rows.append((sat_id, int(p.records.epoch_s[0]), p.duration_min,
                              p.direction.value, len(p.records)))
    tables["passes.tsv"] = (["sat_id", "start_epoch_s", "duration_min", "direction", "records"],
                            pass_rows)
    durations = analytics.pass_durations_min(all_passes)
    summary["passes"] = {"count": len(all_passes)}
    try:
        evd = analytics.fit_evd(durations)
        summary["passes"]["evd"] = evd.to_dict()
    except InsufficientData:
        summary["passes"]["evd"] = None

    try:
        beams = analytics.beam_constellation(records, all_passes)
        tables["beam_centroids.tsv"] = (
            ["beam_id", "east_km", "north_km"],
            [(b, e, n) for b, (e, n) in sorted(beams.centroids.items())])
        summary["beams"] = beams.to_dict()
    except InsufficientBrackets:
        summary["beams"] = None

    if receiver is not None and not np.any(records.is_track):
        summary["coverage"] = None  # coverage is measured on sub-satellite records only
    elif receiver is not None:
        with _bin_width("--coverage-bin-km"):
            cov = analytics.coverage_extent(records, receiver,
                                            bin_width_km=args.coverage_bin_km)
            tables["coverage_histogram.tsv"] = (
                ["distance_km", "count"],
                _histogram_rows(cov.distances_km, args.coverage_bin_km))
        summary["coverage"] = {
            "max_km": cov.max_km, "area_km2": cov.area_km2, "mode_km": cov.mode_km,
        }

    out = _report_dir(args)
    for name, (header, rows) in tables.items():
        _write_table(out / name, header, rows)
    _write_json(out / "analyze_summary.json", summary)
    print(f"analyzed {len(records)} records into {out}")
    return 0


def _build_sim_config(args) -> simulator.SimConfig:
    """``--config`` (or the defaults) overridden by every flag given; each
    simulator flag's ``dest`` is its :class:`simulator.SimConfig` field."""
    base = _load_json(args.config, simulator.SimConfig.from_dict) if args.config \
        else simulator.SimConfig()
    overrides = {name: getattr(args, name) for name in base.to_dict()
                 if getattr(args, name, None) is not None}
    with _flag_values():
        if "plane_nodes_deg" in overrides:
            overrides["plane_nodes_deg"] = tuple(
                float(x) for x in overrides["plane_nodes_deg"].split(","))
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
    step = args.track_interval_s
    if not 1e-3 <= step < math.inf:  # track times are written to the millisecond
        raise _UsageError(f"--track-interval-s must be a finite number of seconds >= 0.001, "
                          f"got {step}")
    config = _build_sim_config(args)
    scenario = _build_scenario(args, config.duration_s)
    records = simulator.emit_stream(config, scenario)
    ingest.write_records(records, args.output)
    if args.track_out:
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
                    if not math.isfinite(t):
                        raise ValueError(f"time {t} is not finite")
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


def _track_positions(times: np.ndarray, points: list[GeoPoint], t: np.ndarray) -> list[GeoPoint]:
    """The track position at each time of ``t``: the great-circle blend of the
    fixes around it, or the first or last fix for a time outside the track."""
    hi = np.minimum(np.searchsorted(times, t), times.size - 1)
    lo = np.maximum(hi - 1, 0)
    span = times[hi] - times[lo]
    fraction = np.where(span > 0, (t - times[lo]) / np.where(span > 0, span, 1.0), 0.0)
    lat, lon = np.array([(p.lat_deg, p.lon_deg) for p in points]).T
    blend_lat, blend_lon = interpolate_deg(lat[lo], lon[lo], lat[hi], lon[hi], fraction)
    return [points[0] if tk <= times[0] else points[-1] if tk >= times[-1] else GeoPoint(a, b)
            for tk, a, b in zip(t.tolist(), blend_lat.tolist(), blend_lon.tolist())]


def _cmd_detect(args) -> int:
    with _flag_values():
        config = DetectorConfig(args.threshold_km, args.window_n)
    motion = _parse_motion(args.motion) if args.motion else None
    records, _ = ingest.parse_table(args.input, FRAC_UNITS_S[args.frac_unit])
    beams = records[records.is_beam]
    if len(beams) < config.window_n:
        raise EmptyInput(
            f"stream holds {len(beams)} beam records, fewer than window_n={config.window_n}"
        )
    times = beams.t_s(origin=(0, 0))
    track_times, track_points = _load_track(args.gnss_track)
    out = _report_dir(args)
    det = detector.WindowedDetector(config, motion)
    n_windows = len(beams) // config.window_n
    # each window's estimate is taken at its latest beam time
    t_refs = times[:n_windows * config.window_n].reshape(n_windows, -1).max(axis=1)
    g_positions = _track_positions(track_times, track_points, t_refs)
    rows = []
    alarms = clamped = 0
    for start, g_pos in zip(range(0, n_windows * config.window_n, config.window_n), g_positions):
        w = slice(start, start + config.window_n)
        est = det.extend(beams.lat[w], beams.lon[w], times[w])
        t_ref = est.window[1]
        clamped += not track_times[0] <= t_ref <= track_times[-1]
        outcome = det.check(g_pos)
        alarms += outcome.alarm
        rows.append((
            len(rows), repr(t_ref), est.n_used,  # repr: full precision of an epoch-scale time
            est.i_pos.lat_deg, est.i_pos.lon_deg,
            g_pos.lat_deg, g_pos.lon_deg,
            outcome.deviation_km, int(outcome.alarm),
        ))
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
    _check_positive("--windows", args.windows)
    config = _build_sim_config(args)
    receiver = _parse_latlon(args.receiver or "0,0")
    with _flag_values():
        n_grid = [int(x) for x in args.n_grid.split(",")]
        thresholds = [float(x) for x in args.thresholds.split(",")]
    if min(n_grid) < 1:
        raise _UsageError(f"--n-grid sizes must be >= 1, got {args.n_grid!r}")
    if len(set(n_grid)) != len(n_grid):
        raise _UsageError(f"--n-grid sizes must be distinct, got {args.n_grid!r}")
    for thr in thresholds:
        _check_positive("--thresholds", thr)
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

def _constellation_flags() -> _Parser:
    """The simulator flags ``simulate`` and ``evaluate`` share."""
    p = _Parser(add_help=False)
    p.add_argument("--per", type=float, default=None, help="packet error rate")
    p.add_argument("--duration", type=float, default=None, dest="duration_s",
                   help="simulated seconds")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n-sats", type=int, default=None, dest="n_sats")
    p.add_argument("--planes", type=int, default=None)
    p.add_argument("--inclination", type=float, default=None, dest="inclination_deg")
    p.add_argument("--coverage-radius", type=float, default=None, dest="coverage_radius_km")
    p.add_argument("--plane-nodes", default=None, dest="plane_nodes_deg",
                   help="comma-separated ascending-node longitudes")
    p.add_argument("--loss-model", choices=simulator.LOSS_MODELS, default=None,
                   dest="loss_model")
    p.add_argument("--config", help="JSON file with full simulator configuration")
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="ringalert",
                     description="Ring-alert log analytics, simulation, and position verification")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    constellation = _constellation_flags()

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

    p = sub.add_parser("simulate", help="generate a synthetic ring-alert stream",
                       parents=[constellation])
    p.add_argument("--output", required=True, help="stream file to write")
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

    p = sub.add_parser("evaluate", help="empirical false-positive rates on simulator windows",
                       parents=[constellation])
    p.add_argument("--windows", type=int, default=100, help="windows per grid cell")
    p.add_argument("--n-grid", default="10,100,1000,10000",
                   help="comma-separated window message counts")
    p.add_argument("--thresholds", default="10,15,20", help="comma-separated thresholds (km)")
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
