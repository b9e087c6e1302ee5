"""Position verification from ring-alert beam records.

Pipeline: compensate beam ground points for receiver motion, average them
into a position estimate, and raise an alarm when the estimate sits further
than a threshold from the externally reported position. Also provides the
fitted performance models (localization error and false-positive rate versus
message count) and the expected collection time under loss.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientData,
    InsufficientWindows,
    InvalidPer,
    NoBeamRecords,
    NonPositiveValue,
    UnknownThreshold,
)
from .geo import GeoPoint, displace_rad, great_circle_km, mod360, normalize_lon, start_rad
from .model import (
    DEFAULT_FRAC_UNIT_S,
    DetectorConfig,
    IraRecord,
    MotionProfile,
    PowerLawCoeffs,
    RecordTable,
)

#: Fitted localization-error power law: error_km = n^m * 10^q.
DEFAULT_LOC_ERR_COEFFS = PowerLawCoeffs(m=-0.5974, q=3.2826)

#: Fitted false-positive exponents per threshold (km): rate = 10^(m n) * 10^q.
DEFAULT_FP_COEFFS: dict[float, PowerLawCoeffs] = {
    10.0: PowerLawCoeffs(m=-4.6e-5, q=0.0),
    15.0: PowerLawCoeffs(m=-8.9e-5, q=0.0),
    20.0: PowerLawCoeffs(m=-1.4e-4, q=0.0),
}


@dataclass(frozen=True)
class PositionEstimate:
    """Centroid of compensated beam points over one collection window."""

    i_pos: GeoPoint
    n_used: int
    window: tuple[float, float]

    def __post_init__(self):
        if self.n_used < 1:
            raise ValueError("an estimate needs at least one beam record")


@dataclass(frozen=True)
class DetectionOutcome:
    alarm: bool
    deviation_km: float
    threshold_km: float

    def __post_init__(self):
        if self.alarm != (self.deviation_km > self.threshold_km):
            raise ValueError("alarm must equal deviation_km > threshold_km (strict)")

    @classmethod
    def from_deviation(cls, deviation_km: float, threshold_km: float) -> "DetectionOutcome":
        return cls(deviation_km > threshold_km, deviation_km, threshold_km)


def _moving(motion: MotionProfile | None) -> bool:
    return motion is not None and motion.speed_kmh != 0.0


def _compensate(start, t_s, motion: MotionProfile, t_ref: float):
    """The compensation kernel: ``start`` is :func:`geo.start_rad` of the points."""
    d_km = motion.speed_kmh * (t_ref - t_s) / 3600.0
    return displace_rad(*start, motion.course_deg, d_km)


def compensate_arrays(lat, lon, t_s, motion: MotionProfile | None, t_ref: float):
    """Translate each point by the receiver displacement between its time and t_ref.

    This is the kinematic reading of the published compensation: a
    stationary receiver (or none) returns the points unchanged.
    """
    lat = np.asarray(lat, dtype=float)
    lon = np.asarray(lon, dtype=float)
    t_s = np.asarray(t_s, dtype=float)
    if not _moving(motion):
        return lat, lon
    return _compensate(start_rad(lat, lon), t_s, motion, t_ref)


def _mean_lat_lon(lat: np.ndarray, lon: np.ndarray) -> tuple[float, float]:
    """Arithmetic centroid with wrap-aware longitudes.

    Longitudes are unwrapped around their circular-mean branch before the
    plain average, which reproduces the arithmetic mean exactly away from the
    +/-180 seam while staying correct across it.
    """
    lam = np.radians(lon)
    ref = math.degrees(math.atan2(np.sin(lam).mean(), np.cos(lam).mean()))
    unwrapped = ref + mod360(lon - ref + 180.0) - 180.0
    return float(lat.mean()), normalize_lon(float(unwrapped.mean()))


def _centroid(lat: np.ndarray, lon: np.ndarray, t_s: np.ndarray) -> PositionEstimate:
    """The estimate of compensated points ``lat``, ``lon`` taken at ``t_s``."""
    mean_lat, mean_lon = _mean_lat_lon(lat, lon)
    return PositionEstimate(
        GeoPoint(mean_lat, mean_lon), int(t_s.size), (float(t_s.min()), float(t_s.max()))
    )


def estimate_position_arrays(lat, lon, t_s, motion: MotionProfile | None = None,
                             t_ref: float | None = None) -> PositionEstimate:
    """Centroid estimate from columnar beam positions (already beam-only)."""
    lat = np.asarray(lat, dtype=float)
    lon = np.asarray(lon, dtype=float)
    t_s = np.asarray(t_s, dtype=float)
    if lat.size == 0:
        raise NoBeamRecords("position estimation needs at least one beam record")
    if t_ref is None:
        t_ref = float(t_s.max())
    c_lat, c_lon = compensate_arrays(lat, lon, t_s, motion, t_ref)
    return _centroid(np.asarray(c_lat), np.asarray(c_lon), t_s)


def estimate_position(records, motion: MotionProfile | None = None,
                      config: DetectorConfig | None = None, *,
                      t_ref: float | None = None,
                      frac_unit_s: float = DEFAULT_FRAC_UNIT_S) -> PositionEstimate:
    """Centroid of the window's compensated beam records (beam_id >= 1).

    ``config.window_n`` caps the window to the most recent N beam records
    when a config is given.
    """
    table = RecordTable.from_records(records)
    beams = table[table.is_beam]
    if config is not None and len(beams) > config.window_n:
        beams = beams[-config.window_n:]
    if not len(beams):
        raise NoBeamRecords("position estimation needs at least one beam record")
    return estimate_position_arrays(beams.lat, beams.lon, beams.t_s(frac_unit_s, origin=(0, 0)),
                                    motion, t_ref)


def detect(estimate: PositionEstimate, g_pos: GeoPoint,
           config: DetectorConfig) -> DetectionOutcome:
    """Compare the estimate with the reported position; alarm on strict exceedance."""
    deviation = great_circle_km(estimate.i_pos, g_pos).km
    return DetectionOutcome.from_deviation(deviation, config.threshold_km)


# ---------------------------------------------------------------------------
# fitted performance models

def loc_err_model(n: int, coeffs: PowerLawCoeffs = DEFAULT_LOC_ERR_COEFFS) -> float:
    """Expected localization error (km) after collecting ``n`` messages."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(n ** coeffs.m * 10.0 ** coeffs.q)


def fp_model(n: int, threshold_km: float,
             coeffs: dict[float, PowerLawCoeffs] | None = None) -> float:
    """Expected single-window false-positive rate for a fitted threshold."""
    if n < 1:
        raise ValueError("n must be >= 1")
    table = DEFAULT_FP_COEFFS if coeffs is None else coeffs
    try:
        c = table[float(threshold_km)]
    except KeyError:
        raise UnknownThreshold(
            f"no fitted coefficients for threshold {threshold_km} km "
            f"(known: {sorted(table)})"
        ) from None
    return float(min(1.0, max(0.0, 10.0 ** (c.m * n) * 10.0 ** c.q)))


def waiting_time(n: int, per: float, base_interarrival_s: float = 0.09) -> float:
    """Expected seconds to collect ``n`` messages on a lossy base-slot channel."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= per < 1.0:
        raise InvalidPer(f"per must be in [0, 1), got {per}")
    return n * base_interarrival_s / (1.0 - per)


def fit_power_law(x, y, *, log_x: bool = True) -> PowerLawCoeffs:
    """Least-squares line on a log10 scale.

    ``log_x=True`` fits log10(y) = m log10(x) + q (a power law in x);
    ``log_x=False`` fits log10(y) = m x + q (exponential decay in x).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError("x and y must have the same length")
    if x.size < 3:
        raise InsufficientData(f"fit_power_law needs >= 3 points, got {x.size}")
    if np.any(y <= 0):
        raise NonPositiveValue("y values must be > 0 for a log-scale fit")
    if log_x:
        if np.any(x <= 0):
            raise NonPositiveValue("x values must be > 0 for a log-log fit")
        xs = np.log10(x)
    else:
        xs = x
    m, q = np.polyfit(xs, np.log10(y), 1)
    return PowerLawCoeffs(float(m), float(q))


# ---------------------------------------------------------------------------
# empirical false-positive evaluation

def evaluate_fp(deviations_by_n: dict[int, "np.ndarray | list[float]"],
                thresholds, *, min_windows: int = 100) -> dict[tuple[int, float], float]:
    """Empirical false-positive rate per (message count, threshold) grid cell.

    ``deviations_by_n`` maps a window size n to the no-spoof deviations
    |I_pos - G_pos| observed over independent windows of that size.
    """
    rates: dict[tuple[int, float], float] = {}
    for n, deviations in sorted(deviations_by_n.items()):
        deviations = np.asarray(deviations, dtype=float)
        if deviations.size < min_windows:
            raise InsufficientWindows(
                f"n={n}: {deviations.size} windows < required {min_windows}"
            )
        for thr in thresholds:
            rates[(int(n), float(thr))] = float(np.mean(deviations > thr))
    return rates


def fp_exponent_fits(rates: dict[tuple[int, float], float], *,
                     rate_floor: float | None = None) -> dict[float, PowerLawCoeffs]:
    """Per-threshold exponential-decay fits of the empirical FP table.

    Zero rates are floored (default: half of the smallest nonzero resolution
    implied by the table) so the log10 transform stays defined.
    """
    by_thr: dict[float, list[tuple[int, float]]] = collections.defaultdict(list)
    for (n, thr), rate in rates.items():
        by_thr[thr].append((n, rate))
    fits: dict[float, PowerLawCoeffs] = {}
    for thr, points in sorted(by_thr.items()):
        points.sort()
        ns = np.array([p[0] for p in points], dtype=float)
        rs = np.array([p[1] for p in points], dtype=float)
        floor = rate_floor
        if floor is None:
            positive = rs[rs > 0]
            floor = 0.5 * positive.min() if positive.size else 1e-6
        fits[thr] = fit_power_law(ns, np.maximum(rs, floor), log_x=False)
    return fits


# ---------------------------------------------------------------------------
# streaming wrapper

class WindowedDetector:
    """Sliding-window position verifier.

    Push records as they arrive; once ``config.window_n`` beam records have
    accumulated, ``latest_estimate`` is available and ``check`` compares it
    against a reported position. Single writer; reads of the latest estimate
    are safe from other threads because estimates are immutable values.

    Beam records are kept as ``(lat, lon, t_s)`` columns of one
    ``(6, 2 * window_n)`` buffer; the window is the contiguous slice of its
    last ``window_n`` filled columns. A full buffer moves its newest
    ``window_n - 1`` columns to the front, so a push costs one vectorized
    estimate over the window. The window keeps push order, which for
    time-ordered pushes is the order ``estimate_position`` sorts into.

    For a moving receiver the other three rows cache :func:`geo.start_rad`
    of each point, filled for the columns pushed since the last estimate, so
    a push evaluates the trig of each point's latitude once, not once per
    estimate. The estimate runs the batch estimator's compensation kernel
    on the cached rows and equals ``estimate_position_arrays`` of the
    window exactly.
    """

    def __init__(self, config: DetectorConfig, motion: MotionProfile | None = None,
                 frac_unit_s: float = DEFAULT_FRAC_UNIT_S):
        self.config = config
        self.motion = motion
        self.frac_unit_s = frac_unit_s
        self._columns = np.empty((6, 2 * config.window_n))
        self._end = 0
        self._start_rad_end = 0  # columns before this one hold their start_rad rows
        self._estimate: PositionEstimate | None = None

    def push(self, record: IraRecord) -> PositionEstimate | None:
        if record.beam_id >= 1:
            n = self.config.window_n
            if self._end == self._columns.shape[1]:
                shift = self._end - n + 1
                self._columns[:, :n - 1] = self._columns[:, shift:]
                self._end = n - 1
                self._start_rad_end = max(self._start_rad_end - shift, 0)
            self._columns[:3, self._end] = (record.ground.lat_deg, record.ground.lon_deg,
                                            record.timestamp(self.frac_unit_s))
            self._end += 1
            if self._end >= n:
                self._estimate = self._estimate_window()
        return self._estimate

    def _estimate_window(self) -> PositionEstimate:
        lo = self._end - self.config.window_n
        lat, lon, t_s = self._columns[:3, lo:self._end]
        if _moving(self.motion):
            new = self._columns[:, self._start_rad_end:self._end]
            new[3:] = start_rad(new[0], new[1])
            self._start_rad_end = self._end
            lat, lon = _compensate(self._columns[3:, lo:self._end], t_s, self.motion,
                                   float(t_s.max()))
        return _centroid(lat, lon, t_s)

    @property
    def latest_estimate(self) -> PositionEstimate | None:
        return self._estimate

    def check(self, g_pos: GeoPoint) -> DetectionOutcome | None:
        if self._estimate is None:
            return None
        return detect(self._estimate, g_pos, self.config)
