"""Domain types shared by ingestion, analytics, simulation, and detection.

All types are immutable values, so they can be shared freely across threads.
A record stream is a :class:`RecordTable` of numpy columns; one
:class:`IraRecord` is built only where a single record is the natural unit.
:class:`BeamConstellation`, :class:`EvdParams` and :class:`PowerLawCoeffs`
have a ``to_dict`` for the JSON summaries the CLI writes, and
:class:`MotionProfile` a ``from_dict`` for the scenario files it reads;
records, tables and passes are not serialized.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBeamId, InvalidSatId
from .geo import GeoPoint, displace

MAX_BEAM_ID = 48

#: Fastest receiver or spoofed-track speed (km/h) a profile accepts: above
#: any airliner's cruise speed and 65 times the fastest ship class. It keeps
#: every displacement of a run finite, so a huge speed is a usage error, not
#: a NaN position.
MAX_SPEED_KMH = 3000.0

#: Seconds per unit of the raw sub-second counter. The log format carries a
#: 9-digit counter whose unit is not self-describing; microseconds is the
#: default interpretation and the CLI exposes the knob. A parsed stream keeps
#: its unit as :attr:`RecordTable.frac_unit_s`.
FRAC_UNITS_S = {"us": 1e-6, "tenus": 1e-5, "ns": 1e-9}
DEFAULT_FRAC_UNIT_S = FRAC_UNITS_S["us"]

_VALID_SAT_IDS = frozenset({
    2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 17, 18, 22, 23, 24, 25, 26, 28, 29, 30,
    33, 36, 38, 39, 40, 42, 43, 44, 46, 48, 49, 50, 51, 57, 65, 67, 68, 69,
    71, 72, 73, 74, 77, 78, 79, 81, 82, 85, 87, 88, 89, 90, 92, 93, 94, 96,
    99, 103, 104, 107, 109, 110, 111, 112, 114, 115,
})


def valid_sat_ids() -> frozenset[int]:
    """The 66 satellite IDs ever observed on the ring-alert channel."""
    return _VALID_SAT_IDS


class Direction(enum.Enum):
    """Travel direction of a satellite pass (sign of the latitude trend)."""

    UPWARD = "upward"
    DOWNWARD = "downward"


@dataclass(frozen=True)
class IraRecord:
    """One decoded ring-alert message.

    ``beam_id`` 0 marks the sub-satellite point; 1..48 mark beam centers.
    ``frac`` is the raw sub-second counter; its unit is supplied where a
    timestamp is needed (see :data:`FRAC_UNITS_S`). Streams are
    :class:`RecordTable` columns; a record is built only where one line or
    one arrival is the unit: ``ingest.parse_line``, ``ingest.parse_stream``
    and ``detector.WindowedDetector.push``.
    """

    epoch_s: int
    frac: int
    sat_id: int
    beam_id: int
    ground: GeoPoint

    def __post_init__(self):
        object.__setattr__(self, "epoch_s", int(self.epoch_s))
        object.__setattr__(self, "frac", int(self.frac))
        object.__setattr__(self, "sat_id", int(self.sat_id))
        object.__setattr__(self, "beam_id", int(self.beam_id))
        if self.frac < 0:
            raise ValueError(f"sub-second counter must be >= 0, got {self.frac}")
        if self.sat_id not in _VALID_SAT_IDS:
            raise InvalidSatId(f"satellite id {self.sat_id} not in the known set")
        if not 0 <= self.beam_id <= MAX_BEAM_ID:
            raise InvalidBeamId(f"beam id {self.beam_id} outside [0, {MAX_BEAM_ID}]")

    def timestamp(self, frac_unit_s: float = DEFAULT_FRAC_UNIT_S) -> float:
        return self.epoch_s + self.frac * frac_unit_s


def _key_steps(epoch_s: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """Sign (-1, 0, +1) of each step of the (epoch_s, frac) key from one row to
    the next; compared, not subtracted, so far-apart int64 keys cannot wrap."""
    def sign(a, b):
        return (b > a).astype(np.int8) - (b < a)
    return np.where(epoch_s[1:] == epoch_s[:-1], sign(frac[:-1], frac[1:]),
                    sign(epoch_s[:-1], epoch_s[1:]))


@dataclass(frozen=True, eq=False)
class RecordTable:
    """A record stream as numpy columns, stable-sorted by (epoch_s, frac).

    ``epoch_s``, ``frac``, ``sat_id`` and ``beam_id`` are int64; ``lat`` and
    ``lon`` are float64 degrees, longitudes folded into (-180, +180] as
    :class:`GeoPoint` folds them. ``frac_unit_s`` is the seconds per unit of
    the ``frac`` counter, a property of the whole stream, not a column.
    Construction sorts stably when the rows are out of order and makes the
    columns read-only views. Slicing or indexing with a mask or index array
    gives another table with the same unit; one row is read from the
    columns, never as a record.
    """

    epoch_s: np.ndarray
    frac: np.ndarray
    sat_id: np.ndarray
    beam_id: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    frac_unit_s: float = DEFAULT_FRAC_UNIT_S

    def __post_init__(self):
        unit = float(self.frac_unit_s)
        if not (math.isfinite(unit) and unit > 0):
            raise ValueError(f"frac_unit_s must be a finite positive number, got {unit}")
        object.__setattr__(self, "frac_unit_s", unit)
        columns = [np.asarray(getattr(self, name), dtype=dtype)
                   for name, dtype in zip(_COLUMNS, _DTYPES)]
        if any(c.ndim != 1 or c.size != columns[0].size for c in columns):
            raise ValueError("record columns must be 1-D and of equal length")
        if columns[0].size > 1 and np.any(_key_steps(columns[0], columns[1]) < 0):
            order = np.lexsort((columns[1], columns[0]))
            columns = [c[order] for c in columns]
        for name, column in zip(_COLUMNS, columns):
            column = column.view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in _COLUMNS)

    def __len__(self) -> int:
        return int(self.epoch_s.size)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            raise TypeError(f"a RecordTable takes a slice, a mask or an index array, not the "
                            f"integer {key}: read one row from the columns")
        return RecordTable(*(c[key] for c in self.columns()), self.frac_unit_s)

    def __eq__(self, other):
        if not isinstance(other, RecordTable):
            return NotImplemented
        return self.frac_unit_s == other.frac_unit_s and all(
            np.array_equal(a, b) for a, b in zip(self.columns(), other.columns()))

    @property
    def is_track(self) -> np.ndarray:
        """Mask of sub-satellite rows (beam 0)."""
        return self.beam_id == 0

    @property
    def is_beam(self) -> np.ndarray:
        """Mask of beam-center rows (beams 1..48)."""
        return self.beam_id >= 1

    def t_s(self, origin: tuple[int, int] | None = None) -> np.ndarray:
        """Seconds of each row relative to ``origin`` (default: the first row).

        Working relative to the first row keeps full float precision even for
        epoch-scale timestamps; ``origin=(0, 0)`` gives each row's absolute
        time, ``epoch_s + frac * frac_unit_s``.
        """
        if origin is None:
            origin = (self.epoch_s[0], self.frac[0])
        e0, f0 = origin
        # exact like the integer difference below 2**53, and far-apart epochs cannot wrap
        return (self.epoch_s.astype(float) - e0) + (self.frac - f0) * self.frac_unit_s

    def by_satellite(self) -> dict[int, "RecordTable"]:
        """One time-sorted table per satellite id (keys ascending)."""
        if not len(self):
            return {}
        order = np.argsort(self.sat_id, kind="stable")
        sats = self.sat_id[order]
        cuts = np.flatnonzero(np.diff(sats)) + 1
        parts = [np.split(c[order], cuts) for c in self.columns()]
        return {int(sats[lo]): RecordTable(*columns, self.frac_unit_s)
                for lo, *columns in zip([0, *cuts.tolist()], *parts)}


_COLUMNS = ("epoch_s", "frac", "sat_id", "beam_id", "lat", "lon")
_DTYPES = (np.int64, np.int64, np.int64, np.int64, float, float)


@dataclass(frozen=True)
class Pass:
    """A contiguous sighting of one satellite; ``records`` is a table."""

    sat_id: int
    records: RecordTable
    direction: Direction
    duration_min: float

    def __post_init__(self):
        epoch_s, frac, sat_id = self.records.columns()[:3]
        if not epoch_s.size:
            raise ValueError("a pass needs at least one record")
        if np.any(_key_steps(epoch_s, frac) <= 0):
            raise ValueError("pass records must have strictly increasing timestamps")
        if np.any(sat_id != self.sat_id):
            raise ValueError("pass records must share one satellite id")
        if self.duration_min < 0:
            raise ValueError("pass duration must be >= 0")


@dataclass(frozen=True)
class BeamConstellation:
    """Per-beam centroid offsets from the sub-satellite point, plus ring radii.

    ``centroids`` maps beam id (1..48) to an (east_km, north_km) offset in the
    upward-travel frame; only observed beams are populated. ``ring_radii_km``
    are the three fitted ring radii, ascending.
    """

    centroids: dict[int, tuple[float, float]]
    ring_radii_km: tuple[float, float, float]

    def __post_init__(self):
        cleaned: dict[int, tuple[float, float]] = {}
        for beam_id, offset in sorted(self.centroids.items()):
            beam_id = int(beam_id)
            if not 1 <= beam_id <= MAX_BEAM_ID:
                raise InvalidBeamId(f"beam id {beam_id} outside [1, {MAX_BEAM_ID}]")
            east, north = float(offset[0]), float(offset[1])
            if not (math.isfinite(east) and math.isfinite(north)):
                raise ValueError(f"non-finite centroid for beam {beam_id}")
            cleaned[beam_id] = (east, north)
        object.__setattr__(self, "centroids", cleaned)
        radii = tuple(float(r) for r in self.ring_radii_km)
        if len(radii) != 3 or any(not math.isfinite(r) or r < 0 for r in radii):
            raise ValueError("ring_radii_km must be three finite non-negative radii")
        if list(radii) != sorted(radii):
            raise ValueError("ring_radii_km must be ascending")
        object.__setattr__(self, "ring_radii_km", radii)

    def to_dict(self) -> dict:
        return {
            "centroids": {str(k): list(v) for k, v in self.centroids.items()},
            "ring_radii_km": list(self.ring_radii_km),
        }


@dataclass(frozen=True)
class EvdParams:
    """Location/scale of the left-skewed extreme-value density used for pass durations."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError("EVD parameters must be finite")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")

    def to_dict(self) -> dict:
        return {"mu": self.mu, "sigma": self.sigma}


@dataclass(frozen=True)
class PowerLawCoeffs:
    """Slope/intercept of a straight-line fit on a log10 scale."""

    m: float
    q: float

    def __post_init__(self):
        if not (math.isfinite(self.m) and math.isfinite(self.q)):
            raise ValueError("power-law coefficients must be finite")

    def to_dict(self) -> dict:
        return {"m": self.m, "q": self.q}


@dataclass(frozen=True)
class MotionProfile:
    """Receiver motion: start point at t0, constant course and speed."""

    start: GeoPoint
    course_deg: float
    speed_kmh: float

    def __post_init__(self):
        if not math.isfinite(self.course_deg):
            raise ValueError(f"course must be finite, got {self.course_deg}")
        if not 0 <= self.speed_kmh <= MAX_SPEED_KMH:
            raise ValueError(f"speed must be in [0, {MAX_SPEED_KMH}] km/h, got {self.speed_kmh}")

    def position_at(self, elapsed_s: float) -> GeoPoint:
        return displace(self.start, self.course_deg, self.speed_kmh * elapsed_s / 3600.0)

    @classmethod
    def from_dict(cls, data: dict) -> "MotionProfile":
        return cls(GeoPoint.from_dict(data["start"]), data["course_deg"], data["speed_kmh"])


@dataclass(frozen=True)
class DetectorConfig:
    """Alarm threshold and collection window size."""

    threshold_km: float
    window_n: int

    def __post_init__(self):
        object.__setattr__(self, "window_n", int(self.window_n))
        if not math.isfinite(self.threshold_km) or self.threshold_km <= 0:
            raise ValueError(f"threshold_km must be > 0, got {self.threshold_km}")
        if self.window_n < 1:
            raise ValueError(f"window_n must be >= 1, got {self.window_n}")
