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
# great_circle_km and interpolate stay bound here because bench/spans.py
# TARGETS wraps them by this module's bindings; interpolate is not called here
from .geo import GeoPoint, arc_km, great_circle_km, interpolate, interpolate_deg  # noqa: F401
from .model import FRAC_UNITS_S, DetectorConfig, MotionProfile

REPORT_DIR_ENV = "RINGALERT_REPORT_DIR"


class _UsageError(Exception):
    """A usage error: argv that does not parse, or flag values that the
    command cannot use (exit 1)."""


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors reach :func:`main` as
    :class:`_UsageError`, not as argparse's usage block and exit 2."""

    def error(self, message):
        # argparse words a bad flag value "argument --per: ..."; lead with the flag
        raise _UsageError(message.removeprefix("argument "))


@contextlib.contextmanager
def _flag_values(flag: str | None = None):
    """Report a value that flags decide together, or with other input, as a
    usage error: a simulator config (the flags over ``--config``), a detector
    config, a duration or spoof start the emitter refuses, or a bin width
    ``flag`` too small for the data."""
    try:
        yield
    except (ValueError, BinOverflow) as exc:
        raise _UsageError(f"{flag}: {exc}" if flag else str(exc)) from exc


def _load_json(path: str, from_dict):
    """``from_dict`` of a JSON file; unusable contents are a data error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return from_dict(json.load(fh))
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfig(f"{path}: {type(exc).__name__}: {exc}") from exc


@contextlib.contextmanager
def _write_failures():
    """Report an OS failure to make or write an output file as a data error."""
    try:
        yield
    except OSError as exc:
        raise IoFailure(f"write failure: {exc}") from exc


def _write_table(path: Path, header: list[str], columns) -> None:
    """A TSV table of ``columns`` under ``header``, one format per column by its
    numpy kind: ``%.8g`` for floats, ``%d`` for integers and booleans, else ``%s``."""
    columns = [np.asarray(c) for c in columns]
    line = "\t".join({"f": "%.8g", "i": "%d", "u": "%d", "b": "%d"}.get(c.dtype.kind, "%s")
                     for c in columns) + "\n"
    with _write_failures(), open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        fh.write("".join(map(line.__mod__, zip(*(c.tolist() for c in columns)))))


def _write_json(path: Path, payload: dict) -> None:
    with _write_failures(), open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report_dir(args) -> Path:
    path = Path(args.report or os.environ.get(REPORT_DIR_ENV, "reports"))
    with _write_failures():
        path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# flag types: argparse turns each flag's text into the value its command uses

def _flag_type(convert):
    """An argparse ``type`` from ``convert``, whose ValueError or bad
    coordinate becomes argparse's error for the flag."""
    def parse(text: str):
        try:
            return convert(text)
        except (ValueError, InvalidCoordinate) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _number(convert, accept, what: str):
    """``convert`` of a flag's text, which must ``accept`` it (it is ``what``)."""
    def check(text: str):
        value = convert(text)
        if not accept(value):
            raise ValueError(f"must be {what}, got {value}")
        return value
    return _flag_type(check)


_POSITIVE = _number(float, lambda v: 0 < v < math.inf, "a finite positive number")
_POSITIVE_OR_INF = _number(float, lambda v: v > 0, "a positive number")
_COUNT = _number(int, lambda v: v >= 1, "an integer >= 1")
# track times are written to the millisecond
_TRACK_STEP = _number(float, lambda v: 1e-3 <= v < math.inf, "a finite number of seconds >= 0.001")


def _list_of(item, *, distinct: bool = False):
    """Comma-separated values, each converted by ``item``."""
    def convert(text: str) -> list:
        values = [item(x) for x in text.split(",")]
        if distinct and len(set(values)) != len(values):
            raise ValueError(f"values must be distinct, got {text!r}")
        return values
    return _flag_type(convert)


def _fields(fields: str, build):
    """``build`` of the comma-separated numbers laid out as ``fields``."""
    def convert(text: str):
        parts = text.split(",")
        if len(parts) != len(fields.split(",")):
            raise ValueError(f"expected '{fields}', got {text!r}")
        return build(*map(float, parts))
    return _flag_type(convert)


_GEO_POINT = _fields("lat,lon", GeoPoint)
_MOTION = _fields("lat,lon,course,speed",
                  lambda lat, lon, course, speed: MotionProfile(GeoPoint(lat, lon), course, speed))
_SPOOF = _fields("start_s,course_deg,speed_kmh", simulator.SpoofProfile)


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


def _cmd_analyze(args) -> int:
    records, report = ingest.parse_table(args.input, FRAC_UNITS_S[args.frac_unit])
    if not len(records):
        raise EmptyInput("no valid records to analyze")
    summary: dict = {"input": os.path.basename(args.input), "ingest": report.to_dict()}
    # report name -> (header, columns), written once every statistic is in
    tables: dict[str, tuple] = {}

    speeds = analytics.ground_speeds(records, gap_threshold_s=args.gap_threshold_s,
                                     max_dt_s=args.max_speed_dt_s)
    if speeds.size:
        with _flag_values("--speed-bin-kms"):
            tables["speed_histogram.tsv"] = (["v_kms", "count"],
                                             analytics.histogram(speeds, args.speed_bin_kms))
            summary["speed"] = {
                "samples": int(speeds.size),
                "mode_kms": analytics.speed_mode_kms(speeds, args.speed_bin_kms),
            }

    if len(records) >= 2:
        with _flag_values("--interarrival-bin-s"):
            stats = analytics.interarrival_stats(records, bin_width_s=args.interarrival_bin_s)
            tables["interarrival_histogram.tsv"] = (
                ["duration_s", "count"],
                analytics.histogram(stats.durations_s, args.interarrival_bin_s))
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
                            zip(*pass_rows))
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
            zip(*((b, e, n) for b, (e, n) in sorted(beams.centroids.items()))))
        summary["beams"] = beams.to_dict()
    except InsufficientBrackets:
        summary["beams"] = None

    if args.receiver is not None and not np.any(records.is_track):
        summary["coverage"] = None  # coverage is measured on sub-satellite records only
    elif args.receiver is not None:
        with _flag_values("--coverage-bin-km"):
            cov = analytics.coverage_extent(records, args.receiver,
                                            bin_width_km=args.coverage_bin_km)
            tables["coverage_histogram.tsv"] = (
                ["distance_km", "count"],
                analytics.histogram(cov.distances_km, args.coverage_bin_km))
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
        return simulator.SimConfig(**{**base.to_dict(), **overrides}) if overrides else base


def _build_scenario(args) -> simulator.Scenario:
    """``--scenario``, or the receiver and spoof flags; ``emit_stream``
    checks that the spoof starts inside the run."""
    if args.scenario:
        return _load_json(args.scenario, simulator.Scenario.from_dict)
    receiver = MotionProfile(args.receiver, 0.0, 0.0) if args.motion is None else args.motion
    return simulator.Scenario(receiver, args.spoof)


def _cmd_simulate(args) -> int:
    step = args.track_interval_s
    config = _build_sim_config(args)
    scenario = _build_scenario(args)
    # a duration past simulator.MAX_EMIT_DURATION_S, or a spoof start outside the run
    with _flag_values():
        records = simulator.emit_stream(config, scenario)
    ingest.write_records(records, args.output)
    if args.track_out:
        times = np.arange(0.0, config.duration_s + 0.5 * step, step)
        with _write_failures(), open(args.track_out, "w", encoding="utf-8") as fh:
            fh.write("# epoch_s lat_deg lon_deg\n")
            for t in times:
                pos = scenario.reported_position(float(t))
                fh.write(f"{config.start_epoch_s + t:.3f} "
                         f"{pos.lat_deg:+010.6f} {pos.lon_deg:+011.6f}\n")
    print(f"wrote {len(records)} records to {args.output}")
    return 0


def _load_track(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fixes of a GNSS track file as time, latitude and longitude
    columns, in time order."""
    fixes = []
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
                    fix = GeoPoint(lat, lon)
                    fixes.append((t, fix.lat_deg, fix.lon_deg))
                except (ValueError, InvalidCoordinate) as exc:
                    raise MalformedLine(f"track {path}, line {lineno}: {line!r}: {exc}") from None
    except OSError as exc:
        raise IoFailure(f"cannot read track {path}: {exc}") from exc
    if not fixes:
        raise EmptyInput(f"track file {path} holds no positions")
    times, lat, lon = np.array(fixes).T
    order = np.argsort(times)
    return times[order], lat[order], lon[order]


def _track_positions(times: np.ndarray, lat: np.ndarray, lon: np.ndarray, t: np.ndarray):
    """The track's latitude and longitude at each time of ``t``: the
    great-circle blend of the fixes around it, or the first or last fix for
    a time outside the track."""
    hi = np.minimum(np.searchsorted(times, t), times.size - 1)
    lo = np.maximum(hi - 1, 0)
    span = times[hi] - times[lo]
    fraction = np.where(span > 0, (t - times[lo]) / np.where(span > 0, span, 1.0), 0.0)
    blend_lat, blend_lon = interpolate_deg(lat[lo], lon[lo], lat[hi], lon[hi], fraction)
    inside = (times[0] < t) & (t < times[-1])
    end = np.where(t <= times[0], 0, -1)  # the fix that a time outside the track takes
    return np.where(inside, blend_lat, lat[end]), np.where(inside, blend_lon, lon[end])


def _cmd_detect(args) -> int:
    with _flag_values():
        config = DetectorConfig(args.threshold_km, args.window_n)
    records, _ = ingest.parse_table(args.input, FRAC_UNITS_S[args.frac_unit])
    beams = records[records.is_beam]
    n = config.window_n
    if len(beams) < n:
        raise EmptyInput(f"stream holds {len(beams)} beam records, fewer than window_n={n}")
    track_times, track_lat, track_lon = _load_track(args.gnss_track)
    out = _report_dir(args)
    n_windows = len(beams) // n
    lat, lon, t_s = (c[:n_windows * n].reshape(n_windows, n)
                     for c in (beams.lat, beams.lon, beams.t_s(origin=(0, 0))))
    i_lat, i_lon = detector.estimate_windows(lat, lon, t_s, args.motion)[:2]
    # each window's estimate is taken at its latest beam time
    t_refs = t_s.max(axis=1)
    g_lat, g_lon = _track_positions(track_times, track_lat, track_lon, t_refs)
    deviation = arc_km(i_lat, i_lon, g_lat, g_lon)
    alarm = detector.exceeds(deviation, config.threshold_km)
    alarms = int(np.count_nonzero(alarm))
    _write_table(out / "detect_windows.tsv",
                 ["window", "t_ref", "n_used", "i_lat", "i_lon",
                  "g_lat", "g_lon", "deviation_km", "alarm"],
                 [np.arange(n_windows), [repr(t) for t in t_refs.tolist()],  # t_ref in full
                  np.full(n_windows, n), i_lat, i_lon, g_lat, g_lon, deviation, alarm])
    _write_json(out / "detect_summary.json", {
        "input": os.path.basename(args.input),
        "threshold_km": config.threshold_km,
        "window_n": n,
        "windows": n_windows,
        "alarms": alarms,
        "tail_beams": len(beams) - n_windows * n,
        "track_clamped_windows": int(np.count_nonzero((t_refs < track_times[0])
                                                      | (t_refs > track_times[-1]))),
    })
    print(f"{alarms}/{n_windows} windows raised an alarm")
    return 0


def _cmd_evaluate(args) -> int:
    config = _build_sim_config(args)
    deviations_by_n = {}
    for n in args.n_grid:
        rng = np.random.default_rng([config.seed, n])
        windows = simulator.sample_windows(config, args.receiver, window_messages=n,
                                           n_windows=args.windows, rng=rng)
        deviations_by_n[n] = [
            great_circle_km(
                detector.estimate_position_arrays(w.lat, w.lon, w.t_s).i_pos, args.receiver
            ).km
            for w in windows
        ]
    rates = detector.evaluate_fp(deviations_by_n, args.thresholds, min_windows=args.windows)
    # the per-threshold decay fit needs at least three grid points
    fits = detector.fp_exponent_fits(rates) if len(args.n_grid) >= 3 else {}
    out = _report_dir(args)
    _write_table(out / "fp_rates.tsv", ["n", "threshold_km", "windows", "fp_rate"],
                 zip(*((n, thr, args.windows, rate) for (n, thr), rate in sorted(rates.items()))))
    _write_table(out / "fp_fits.tsv", ["threshold_km", "m", "q"],
                 zip(*((thr, c.m, c.q) for thr, c in sorted(fits.items()))))
    _write_json(out / "evaluate_summary.json", {
        "config": config.to_dict(),
        "receiver": args.receiver.to_dict(),
        "windows": args.windows,
        "rates": {f"{n}:{thr}": rate for (n, thr), rate in sorted(rates.items())},
        "fits": {str(thr): c.to_dict() for thr, c in sorted(fits.items())},
    })
    print(f"evaluated {len(args.n_grid)} window sizes x {len(args.thresholds)} thresholds")
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
    p.add_argument("--plane-nodes", type=_list_of(float), default=None, dest="plane_nodes_deg",
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
    p.add_argument("--receiver", type=_GEO_POINT, help="receiver 'lat,lon' for coverage analysis")
    p.add_argument("--gap-threshold-s", type=_POSITIVE_OR_INF, default=600.0,
                   help="pass segmentation gap (seconds)")
    p.add_argument("--speed-bin-kms", type=_POSITIVE, default=0.05)
    p.add_argument("--interarrival-bin-s", type=_POSITIVE, default=0.1)
    p.add_argument("--coverage-bin-km", type=_POSITIVE, default=25.0)
    p.add_argument("--max-speed-dt-s", type=_POSITIVE_OR_INF, default=None,
                   help="drop speed samples spanning gaps longer than this")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="generate a synthetic ring-alert stream",
                       parents=[constellation])
    p.add_argument("--output", required=True, help="stream file to write")
    p.add_argument("--scenario", help="JSON file with receiver/spoof scenario")
    p.add_argument("--receiver", type=_GEO_POINT, default="0,0",
                   help="stationary receiver 'lat,lon' (default 0,0)")
    p.add_argument("--motion", type=_MOTION, help="moving receiver 'lat,lon,course,speed'")
    p.add_argument("--spoof", type=_SPOOF, help="spoof 'start_s,course_deg,speed_kmh'")
    p.add_argument("--track-out", help="write the reported-position track here")
    p.add_argument("--track-interval-s", type=_TRACK_STEP, default=60.0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("detect", help="verify reported positions against a stream")
    p.add_argument("--input", required=True, help="ring-alert log file")
    p.add_argument("--threshold-km", type=float, required=True)
    p.add_argument("--window-n", type=int, required=True)
    p.add_argument("--gnss-track", required=True,
                   help="reported positions: lines of 'epoch_s lat lon'")
    p.add_argument("--motion", type=_MOTION, help="receiver motion 'lat,lon,course,speed'")
    p.add_argument("--frac-unit", choices=sorted(FRAC_UNITS_S), default="us")
    p.add_argument("--report", help="report directory")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("evaluate", help="empirical false-positive rates on simulator windows",
                       parents=[constellation])
    p.add_argument("--windows", type=_COUNT, default=100, help="windows per grid cell")
    p.add_argument("--n-grid", type=_list_of(_COUNT, distinct=True), default="10,100,1000,10000",
                   help="comma-separated distinct window message counts")
    p.add_argument("--thresholds", type=_list_of(_POSITIVE, distinct=True), default="10,15,20",
                   help="comma-separated thresholds (km)")
    p.add_argument("--receiver", type=_GEO_POINT, default="0,0",
                   help="receiver 'lat,lon' (default 0,0)")
    p.add_argument("--report", help="report directory")
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, RingAlertError) as exc:
        message = str(exc).replace("\n", " ")  # one line, whatever the text holds
        print(f"ringalert: error: {message}", file=sys.stderr)
        return 1 if isinstance(exc, _UsageError) else 2


if __name__ == "__main__":
    sys.exit(main())
