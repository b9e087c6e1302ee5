"""Shared fixtures and scenario builders for the test suite."""

from __future__ import annotations

import collections
from pathlib import Path

import numpy as np
import pytest

from ringalert.errors import InvalidBeamId, InvalidCoordinate, InvalidSatId, MalformedLine
from ringalert.geo import EARTH_RADIUS_KM, GeoPoint, normalize_lon_array
from ringalert.ingest import parse_line
from ringalert.model import DEFAULT_FRAC_UNIT_S, IraRecord, RecordTable
from ringalert.simulator import SimConfig

# The seven reference rows used across parser tests (sat 115, one epoch second).
SAMPLE_LOG_ROWS = [
    "1580712040 000000739 115 0 +29.81 +046.10",
    "1580712040 000004519 115 44 +23.06 +049.81",
    "1580712040 000005059 115 46 +25.95 +051.69",
    "1580712040 000005599 115 47 +26.94 +047.71",
    "1580712040 000008839 115 0 +30.29 +046.13",
    "1580712040 000013159 115 44 +23.56 +049.80",
    "1580712040 000013699 115 46 +26.46 +051.72",
]

SAMPLE_LOG_FIELDS = [
    (1580712040, 739, 115, 0, 29.81, 46.10),
    (1580712040, 4519, 115, 44, 23.06, 49.81),
    (1580712040, 5059, 115, 46, 25.95, 51.69),
    (1580712040, 5599, 115, 47, 26.94, 47.71),
    (1580712040, 8839, 115, 0, 30.29, 46.13),
    (1580712040, 13159, 115, 44, 23.56, 49.80),
    (1580712040, 13699, 115, 46, 26.46, 51.72),
]

EQUATOR_RECEIVER = GeoPoint(0.0, 0.0)


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in km by the haversine; broadcasts over degree
    arrays. The latitude/longitude oracle of the unit-vector kernels."""
    phi1 = np.radians(lat1)
    phi2 = np.radians(lat2)
    dphi = phi2 - phi1
    dlam = np.radians(lon2) - np.radians(lon1)
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def bearing_deg(lat1, lon1, lat2, lon2):
    """Initial bearing from point 1 to point 2, degrees in [0, 360); the
    latitude/longitude oracle of ``geo.local_offsets_km``'s direction."""
    phi1 = np.radians(lat1)
    phi2 = np.radians(lat2)
    dlam = np.radians(lon2) - np.radians(lon1)
    y = np.sin(dlam) * np.cos(phi2)
    x = np.cos(phi1) * np.sin(phi2) - np.sin(phi1) * np.cos(phi2) * np.cos(dlam)
    return np.degrees(np.arctan2(y, x)) % 360.0


def table_of(records, unit: float = DEFAULT_FRAC_UNIT_S) -> RecordTable:
    """The table of a list of :class:`IraRecord` values, counters in ``unit``."""
    return RecordTable(*np.array([(r.epoch_s, r.frac, r.sat_id, r.beam_id) for r in records],
                                 dtype=np.int64).reshape(-1, 4).T,
                       *np.array([(r.ground.lat_deg, r.ground.lon_deg) for r in records],
                                 dtype=float).reshape(-1, 2).T, unit)


def records_of(table: RecordTable) -> list[IraRecord]:
    """The rows of a table as :class:`IraRecord` values, for comparison with
    per-record references."""
    return [IraRecord(e, f, s, b, GeoPoint(lat, lon))
            for e, f, s, b, lat, lon in zip(*(c.tolist() for c in table.columns()))]


def format_line(record: IraRecord) -> str:
    """One record in the writer's layout: the per-record reference of
    ``ingest.write_records``, and the inverse of ``ingest.parse_line``."""
    return (f"{record.epoch_s} {record.frac:09d} {record.sat_id} {record.beam_id} "
            f"{record.ground.lat_deg:+010.6f} {record.ground.lon_deg:+011.6f}")


def make_records(times_s, lats, lons, sat_id=78, beam_ids=None,
                 start_epoch=1_600_000_000) -> RecordTable:
    """Build a table from relative times in seconds (microsecond resolution)."""
    n = len(times_s)
    total_us = np.array([round(float(t) * 1e6) for t in times_s], dtype=np.int64)
    return RecordTable(start_epoch + total_us // 1_000_000, total_us % 1_000_000,
                       np.full(n, sat_id), [0] * n if beam_ids is None else beam_ids,
                       lats, normalize_lon_array(lons))


def run_times_s(stream: RecordTable, config: SimConfig) -> np.ndarray:
    """Seconds since the start of the run of each row of an emitted stream.

    Whole microseconds are scaled once, so each time equals the emitter's
    slot time bit for bit.
    """
    return ((stream.epoch_s - config.start_epoch_s) * 1_000_000 + stream.frac) * 1e-6


def log_file(tmp_path, lines) -> Path:
    """The path of a new log under ``tmp_path`` holding ``lines``, each ended by a newline."""
    path = tmp_path / "log.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def reference_parse(lines, frac_unit_s: float = DEFAULT_FRAC_UNIT_S):
    """Per-line reference of ``ingest.parse_table``: each line through
    ``parse_line``, then a sub-second counter of one second or more, then
    the first line of each (epoch_s, frac, sat_id) wins.

    Returns (time-sorted accepted records, counts per class, quarantined line numbers).
    """
    classes = {MalformedLine: "malformed", InvalidSatId: "invalid_sat_id",
               InvalidBeamId: "invalid_beam_id", InvalidCoordinate: "invalid_coordinate"}
    counts = collections.Counter()
    accepted, quarantined, seen = [], [], set()
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            counts["blank"] += 1
            continue
        try:
            record = parse_line(stripped)
        except tuple(classes) as exc:
            cls = classes[type(exc)]
        else:
            key = (record.epoch_s, record.frac, record.sat_id)
            if record.frac * frac_unit_s >= 1:
                cls = "invalid_frac"
            elif key in seen:
                cls = "duplicate"
            else:
                seen.add(key)
                accepted.append(record)
                continue
        counts[cls] += 1
        quarantined.append(lineno)
    accepted.sort(key=lambda r: (r.epoch_s, r.frac))
    return accepted, counts, quarantined


def corridor_config(**overrides) -> SimConfig:
    """Symmetric near-overhead corridor around an equatorial receiver.

    All six planes cross the receiver's meridian within a few km, so the
    visible beam cloud is balanced around the receiver and the centroid
    estimator's convergence behaviour is observable without constellation
    layout bias. Polar inclination keeps the cross-track spread down to the
    beam ring radii.
    """
    params = dict(
        n_sats=66,
        planes=6,
        plane_nodes_deg=(-0.10, -0.06, -0.02, 0.02, 0.06, 0.10),
        inclination_deg=90.0,
        per=0.985,
        seed=1,
        duration_s=600.0,
    )
    params.update(overrides)
    return SimConfig(**params)


def overhead_config(**overrides) -> SimConfig:
    """One satellite on a polar circle passing directly over the equator receiver."""
    params = dict(
        n_sats=1,
        planes=1,
        plane_nodes_deg=(0.0,),
        inclination_deg=90.0,
        per=0.0,
        seed=3,
        duration_s=600.0,
        coverage_radius_km=25_000.0,  # whole-sphere view for channel statistics
    )
    params.update(overrides)
    return SimConfig(**params)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
