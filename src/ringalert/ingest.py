"""Parsing and validation of ring-alert log files, plus pass segmentation.

The expected layout is one message per line, whitespace- or comma-delimited:

    time_s  time_frac  sat_id  beam_id  lat  lon
    1580712040 000000739 115 0 +29.81 +046.10

``time_frac`` is a 9-digit zero-padded sub-second counter (unit configurable,
default microseconds), latitudes/longitudes are signed decimal degrees.
Invalid lines are quarantined and counted, never silently dropped.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyInput,
    InvalidBeamId,
    InvalidCoordinate,
    InvalidSatId,
    IoFailure,
    MalformedLine,
)
from .geo import GeoPoint
from .model import DEFAULT_FRAC_UNIT_S, Direction, IraRecord, Pass, record_times_s

DEFAULT_GAP_THRESHOLD_S = 600.0


@dataclass
class IngestReport:
    """Per-class accept/quarantine counters for one parsed stream."""

    total_lines: int = 0
    accepted: int = 0
    blank: int = 0
    malformed: int = 0
    invalid_sat_id: int = 0
    invalid_beam_id: int = 0
    invalid_coordinate: int = 0
    duplicate: int = 0
    quarantined_lines: list = field(default_factory=list)

    @property
    def quarantined(self) -> int:
        return (self.malformed + self.invalid_sat_id + self.invalid_beam_id
                + self.invalid_coordinate + self.duplicate)

    def reconciles(self) -> bool:
        return self.total_lines == self.accepted + self.blank + self.quarantined

    def to_dict(self) -> dict:
        return {
            "total_lines": self.total_lines,
            "accepted": self.accepted,
            "blank": self.blank,
            "malformed": self.malformed,
            "invalid_sat_id": self.invalid_sat_id,
            "invalid_beam_id": self.invalid_beam_id,
            "invalid_coordinate": self.invalid_coordinate,
            "duplicate": self.duplicate,
            "quarantined": self.quarantined,
        }


def parse_line(line: str, lineno: int | None = None) -> IraRecord:
    """Parse one log line into a validated record.

    Raises MalformedLine, InvalidSatId, InvalidBeamId, or InvalidCoordinate.
    """
    parts = line.replace(",", " ").split()
    if len(parts) != 6:
        raise MalformedLine(f"expected 6 fields, got {len(parts)}", lineno)
    try:
        epoch_s = int(parts[0])
        frac = int(parts[1])
        sat_id = int(parts[2])
        beam_id = int(parts[3])
        lat = float(parts[4])
        lon = float(parts[5])
    except ValueError as exc:
        raise MalformedLine(f"non-numeric field in {parts!r}", lineno) from exc
    if frac < 0:
        raise MalformedLine(f"negative sub-second counter {frac}", lineno)
    return IraRecord(epoch_s, frac, sat_id, beam_id, GeoPoint(lat, lon))


def format_line(record: IraRecord) -> str:
    """Render a record in the canonical log layout (inverse of parse_line)."""
    return (
        f"{record.epoch_s} {record.frac:09d} {record.sat_id} {record.beam_id} "
        f"{record.ground.lat_deg:+010.6f} {record.ground.lon_deg:+011.6f}"
    )


def parse_stream(source) -> tuple[list[IraRecord], IngestReport]:
    """Parse a path, file object, or iterable of lines.

    Returns accepted records sorted by timestamp and a report whose counters
    reconcile with the line total. Only OS-level failures raise (IoFailure);
    bad lines are quarantined into the report, and so is a duplicate decode:
    a line whose (epoch_s, frac, sat_id) equals an earlier accepted line's.
    """
    close = False
    if isinstance(source, (str, os.PathLike)):
        try:
            source = open(source, "r", encoding="utf-8")
        except OSError as exc:
            raise IoFailure(f"cannot open {exc.filename}: {exc.strerror}") from exc
        close = True
    report = IngestReport()
    records: list[IraRecord] = []
    seen: set[tuple[int, int, int]] = set()
    try:
        for lineno, line in enumerate(source, start=1):
            report.total_lines += 1
            stripped = line.strip()
            if not stripped:
                report.blank += 1
                continue
            try:
                record = parse_line(stripped, lineno)
            except MalformedLine:
                report.malformed += 1
                report.quarantined_lines.append(lineno)
            except InvalidSatId:
                report.invalid_sat_id += 1
                report.quarantined_lines.append(lineno)
            except InvalidBeamId:
                report.invalid_beam_id += 1
                report.quarantined_lines.append(lineno)
            except InvalidCoordinate:
                report.invalid_coordinate += 1
                report.quarantined_lines.append(lineno)
            else:
                key = (record.epoch_s, record.frac, record.sat_id)
                if key in seen:
                    report.duplicate += 1
                    report.quarantined_lines.append(lineno)
                else:
                    seen.add(key)
                    records.append(record)
                    report.accepted += 1
    except OSError as exc:
        raise IoFailure(f"read failure: {exc}") from exc
    finally:
        if close:
            source.close()
    records.sort(key=IraRecord.sort_key)
    return records, report


def write_records(records, path) -> None:
    """Write records to ``path`` in the canonical log layout."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(format_line(record) + "\n")
    except OSError as exc:
        raise IoFailure(f"write failure: {exc}") from exc


def segment_passes(records, gap_threshold_s: float = DEFAULT_GAP_THRESHOLD_S,
                   frac_unit_s: float = DEFAULT_FRAC_UNIT_S) -> list[Pass]:
    """Split one satellite's time-sorted records into passes.

    Records separated by more than ``gap_threshold_s`` start a new pass. The
    default of 600 s sits between loss-induced intra-pass gaps (seconds to a
    few minutes) and the revisit time of the same satellite (>= the orbital
    period). Direction is the sign of the net latitude change of the
    sub-satellite track; duration is last minus first timestamp.
    """
    records = sorted(records, key=IraRecord.sort_key)
    if not records:
        raise EmptyInput("segment_passes needs at least one record")
    sat_ids = {r.sat_id for r in records}
    if len(sat_ids) != 1:
        raise ValueError(f"segment_passes expects a single satellite, got {sorted(sat_ids)}")
    times = record_times_s(records, frac_unit_s)
    breaks = np.flatnonzero(np.diff(times) > gap_threshold_s) + 1
    passes = []
    for chunk_idx in np.split(np.arange(len(records)), breaks):
        chunk = [records[i] for i in chunk_idx]
        track_lats = [r.ground.lat_deg for r in chunk if r.is_track]
        if not track_lats:  # degraded chunk without track points: fall back to all records
            track_lats = [r.ground.lat_deg for r in chunk]
        direction = Direction.UPWARD if track_lats[-1] >= track_lats[0] else Direction.DOWNWARD
        duration_min = float(times[chunk_idx[-1]] - times[chunk_idx[0]]) / 60.0
        passes.append(Pass(chunk[0].sat_id, tuple(chunk), direction, duration_min))
    return passes


def group_by_satellite(records) -> dict[int, list[IraRecord]]:
    """Time-sorted records keyed by satellite id (keys ascending)."""
    grouped: dict[int, list[IraRecord]] = {}
    for record in sorted(records, key=IraRecord.sort_key):
        grouped.setdefault(record.sat_id, []).append(record)
    return dict(sorted(grouped.items()))
