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
import sys
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
from .geo import (
    EARTH_RADIUS_KM,
    GeoPoint,
    displace_deg,
    great_circle_km,
    mod360,
    normalize_lon_array,
)
from .model import (
    BASE_INTERARRIVAL_S,
    DetectorConfig,
    IraRecord,
    MotionProfile,
    PowerLawCoeffs,
    RecordTable,
)

#: Fitted localization-error power law: error_km = n^m * 10^q.
DEFAULT_LOC_ERR_COEFFS = PowerLawCoeffs(m=-0.5974, q=3.2826)

#: Fitted false-positive exponents per threshold (km): rate = 10^(m n) * 10^q.
#: With q = 0 and m < 0 every rate lies in [0, 1].
DEFAULT_FP_COEFFS: dict[float, PowerLawCoeffs] = {
    10.0: PowerLawCoeffs(m=-4.6e-5, q=0.0),
    15.0: PowerLawCoeffs(m=-8.9e-5, q=0.0),
    20.0: PowerLawCoeffs(m=-1.4e-4, q=0.0),
}

#: Receiver travel (km) after which :class:`WindowedDetector` compensates a
#: moving window whole again instead of moving its anchored running sums on.
#: A sliding estimate's gap from the batch one grows about as the square of
#: that travel: 0.004 km at worst after 10 km, against a 0.05 km bound.
REANCHOR_KM = 10.0

#: :class:`WindowedDetector` runs its whole-window pass while any windowed
#: point lies beyond this latitude: nearer the pole a short travel swings a
#: point's longitude further than its rate follows, and the sliding bound
#: was measured for |lat| <= 80.
SLIDING_MAX_LAT_DEG = 80.0

#: Sliding beams after which :class:`WindowedDetector` runs its whole-window
#: pass in any window. A sliding beam adds two roundings at most to plain sums
#: of coordinates within 270 degrees of 0, so a sliding mean drifts at most
#: 2 * 4096 * 2**-53 * 270, about 2.5e-10 degrees, at any window size.
MAX_SLIDING_BEAMS = 4096


@dataclass(frozen=True)
class PositionEstimate:
    """Centroid of compensated beam points over one collection window."""

    i_pos: GeoPoint
    n_used: int
    window: tuple[float, float]

    def __post_init__(self):
        if self.n_used < 1:
            raise ValueError("an estimate needs at least one beam record")


def exceeds(deviation_km, threshold_km):
    """The alarm rule, strict exceedance, for one deviation or a column of them."""
    return deviation_km > threshold_km


@dataclass(frozen=True)
class DetectionOutcome:
    alarm: bool
    deviation_km: float
    threshold_km: float

    def __post_init__(self):
        if self.alarm != exceeds(self.deviation_km, self.threshold_km):
            raise ValueError("alarm must equal deviation_km > threshold_km (strict)")


def _moving(motion: MotionProfile | None) -> bool:
    return motion is not None and motion.speed_kmh != 0.0


def compensate_arrays(lat, lon, t_s, motion: MotionProfile | None, t_ref):
    """Translate each point by the receiver displacement between its time and
    ``t_ref`` (one time, or times that broadcast against ``t_s``).

    This is the kinematic reading of the published compensation: a
    stationary receiver (or none) returns the points unchanged.
    """
    lat = np.asarray(lat, dtype=float)
    lon = np.asarray(lon, dtype=float)
    if not _moving(motion):
        return lat, lon
    d_km = motion.speed_kmh * (t_ref - np.asarray(t_s, dtype=float)) / 3600.0
    return displace_deg(lat, lon, motion.course_deg, d_km)


def estimate_windows(lat, lon, t_s, motion: MotionProfile | None = None):
    """The whole-window estimator on beam columns shaped ``(windows, n)``,
    one window a row: each row is compensated to its latest time, its
    longitudes are unwrapped about their circular mean (the row's branch),
    and the estimate is the row's mean.

    The branch ``c`` keeps unwrapped longitudes in [c - 180, c + 180), so their
    plain average is the arithmetic mean away from the +/-180 seam while
    staying correct across it. numpy reduces each row of a C-contiguous array
    as it reduces that row alone, so each estimate equals the one its window
    gets by itself.

    Returns the estimates' latitude and longitude (in (-180, +180]) columns,
    the compensated latitudes, the unwrapped longitudes and the branches.
    """
    t_s = np.asarray(t_s, dtype=float)
    t_ref = t_s.max(axis=-1)[:, None] if _moving(motion) else None  # unused when stationary
    lat, lon = compensate_arrays(lat, lon, t_s, motion, t_ref)
    lam = np.radians(lon)
    branch = np.degrees(np.arctan2(np.sin(lam).mean(axis=-1), np.cos(lam).mean(axis=-1)))
    unwrapped = branch[:, None] + mod360(lon - branch[:, None] + 180.0) - 180.0
    return (lat.mean(axis=-1), normalize_lon_array(unwrapped.mean(axis=-1)),
            lat, unwrapped, branch)


def estimate_position_arrays(lat, lon, t_s, motion: MotionProfile | None = None) -> PositionEstimate:
    """Centroid of columnar beam positions (already beam-only) compensated to
    ``t_s.max()``: :func:`estimate_windows` of one window."""
    lat, lon, t_s = (np.asarray(x, dtype=float) for x in (lat, lon, t_s))
    if t_s.size == 0:
        raise NoBeamRecords("position estimation needs at least one beam record")
    i_lat, i_lon = estimate_windows(lat[None], lon[None], t_s[None], motion)[:2]
    return PositionEstimate(GeoPoint(i_lat[0], i_lon[0]), t_s.size,
                            (float(t_s.min()), float(t_s.max())))


def estimate_position(table: RecordTable,
                      motion: MotionProfile | None = None) -> PositionEstimate:
    """Centroid of the compensated beam records (beam_id >= 1) of a table:
    :func:`estimate_position_arrays` of its beam columns."""
    beams = table[table.is_beam]
    return estimate_position_arrays(beams.lat, beams.lon, beams.t_s(origin=(0, 0)), motion)


def detect(estimate: PositionEstimate, g_pos: GeoPoint,
           config: DetectorConfig) -> DetectionOutcome:
    """Compare the estimate with the reported position; alarm on strict exceedance."""
    deviation = great_circle_km(estimate.i_pos, g_pos).km
    return DetectionOutcome(exceeds(deviation, config.threshold_km), deviation, config.threshold_km)


# ---------------------------------------------------------------------------
# fitted performance models

def _message_count(n) -> float:
    """The models' message count ``n`` as a float: at least 1, and no larger than
    the largest float, so an integer past it raises ValueError, not OverflowError."""
    if n < 1:
        raise ValueError("n must be >= 1")
    try:
        return float(n)
    except OverflowError:
        raise ValueError(f"n must be at most the largest float, {sys.float_info.max:g}; "
                         f"got an integer of {n.bit_length()} bits") from None


def loc_err_model(n: int) -> float:
    """Expected localization error (km) after collecting ``n`` messages."""
    n = _message_count(n)
    return float(n ** DEFAULT_LOC_ERR_COEFFS.m * 10.0 ** DEFAULT_LOC_ERR_COEFFS.q)


def fp_model(n: int, threshold_km: float) -> float:
    """Expected single-window false-positive rate for a fitted threshold."""
    n = _message_count(n)
    try:
        c = DEFAULT_FP_COEFFS[float(threshold_km)]
    except KeyError:
        raise UnknownThreshold(
            f"no fitted coefficients for threshold {threshold_km} km "
            f"(known: {sorted(DEFAULT_FP_COEFFS)})"
        ) from None
    return float(10.0 ** (c.m * n) * 10.0 ** c.q)


def waiting_time(n: int, per: float) -> float:
    """Expected seconds to collect ``n`` messages on a lossy 90 ms slot channel."""
    n = _message_count(n)
    if not 0.0 <= per < 1.0:
        raise InvalidPer(f"per must be in [0, 1), got {per}")
    return n * BASE_INTERARRIVAL_S / (1.0 - per)


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


def fp_exponent_fits(rates: dict[tuple[int, float], float]) -> dict[float, PowerLawCoeffs]:
    """Per-threshold exponential-decay fits of the empirical FP table.

    Zero rates are floored at half the threshold's smallest nonzero rate
    (1e-6 when it has none) so the log10 transform stays defined.
    """
    by_thr: dict[float, list[tuple[int, float]]] = collections.defaultdict(list)
    for (n, thr), rate in rates.items():
        by_thr[thr].append((n, rate))
    fits: dict[float, PowerLawCoeffs] = {}
    for thr, points in sorted(by_thr.items()):
        points.sort()
        ns = np.array([p[0] for p in points], dtype=float)
        rs = np.array([p[1] for p in points], dtype=float)
        positive = rs[rs > 0]
        floor = 0.5 * positive.min() if positive.size else 1e-6
        fits[thr] = fit_power_law(ns, np.maximum(rs, floor), log_x=False)
    return fits


# ---------------------------------------------------------------------------
# streaming wrapper

def _rates(sin_phi, cos_phi, sin_delta, cos_delta, cos_phi2, course_deg: float):
    """North and east rates (radians per radian of travel) of points that
    left latitude phi a distance delta ago on ``course_deg`` and now lie at
    latitude phi2; scalars or arrays alike."""
    theta = math.radians(course_deg)
    north = (cos_phi * cos_delta * math.cos(theta) - sin_phi * sin_delta) / cos_phi2
    # Clairaut: cos(lat) sin(course) is constant along a great circle
    return north, math.sin(theta) * cos_phi / cos_phi2 ** 2


class WindowedDetector:
    """Sliding-window position verifier.

    ``extend`` beam columns (or ``push`` records) as they arrive; once
    ``config.window_n`` beams have arrived, ``check`` compares the
    ``latest_estimate`` with a reported position. Single writer; reads of
    the latest estimate are safe from other threads (estimates are values).

    Beams are kept as columns of one ``(9, 2 * window_n)`` buffer; the
    window is the contiguous slice of its last ``window_n`` filled columns.
    A buffer without room for ``k`` new columns moves its newest
    ``window_n - k`` to the front. The window keeps arrival order: for
    time-ordered input, ``estimate_position``'s order.

    Rows 0-2 hold ``(lat, lon, t_s)``. Rows 3-6 hold each point compensated
    to an anchor time ``t_a`` (latitude, and longitude unwrapped about a
    branch ``c``) and the north and east rates at which it then moves on
    along its great circle; rows 7 and 8 flag the points that only the
    whole-window pass may take and the arrivals older than their
    predecessor. Plain running sums of rows 3-8 slide with the window: the
    estimate is the mean of rows 3-4, moved by the receiver's travel since
    ``t_a`` at the mean rates (the first-order term) plus the mean point's
    own second-order term. An extend by ``k`` beams slides them in O(k) when
    ``k <= max(window_n // 32, 1)``, carrying them as Python floats: such a
    short extend builds no array and writes each beam's column once. A
    longer one builds a ``(3, k)`` array and takes the whole-window pass,
    which costs about as much, so any extend by ``k < window_n`` beams
    costs O(k) amortized, or O(k window_n / MAX_SLIDING_BEAMS) in windows of
    more than ``MAX_SLIDING_BEAMS`` beams.

    The whole-window pass is :func:`estimate_windows` of the window: it
    compensates the window to its latest time, which becomes ``t_a``, and
    takes the circular mean as ``c``, so its estimate equals
    ``estimate_position_arrays`` of the window exactly. It runs when the
    window first fills, on every extend by more than
    ``max(window_n // 32, 1)`` beams, after
    ``min(window_n, MAX_SLIDING_BEAMS)`` sliding beams, once the receiver
    has travelled ``REANCHOR_KM`` since ``t_a``, and while a windowed point
    lies 90 degrees of longitude or more from ``c`` or beyond
    ``SLIDING_MAX_LAT_DEG``. Nearer, every point unwraps about ``c`` as
    about the window's circular mean, so no sine and cosine sums are
    needed, and wide and polar windows stay exact, just not faster.

    A sliding estimate keeps ``n_used`` and ``window`` exact. Its position
    is within 1e-9 degrees of the batch estimate for a stationary receiver
    (the sums' rounding moves it 2.5e-10 degrees at most, as each pass
    resets them before ``MAX_SLIDING_BEAMS`` sliding beams have added theirs)
    and within 0.05 km for one moving at any ``SHIP_CLASSES`` top speed: the
    worst gap measured over windows of 500 beams across the +/-180 seam at
    |lat| <= 80, on every course, was 0.004 km.
    """

    def __init__(self, config: DetectorConfig, motion: MotionProfile | None = None):
        self.config = config
        self.motion = motion
        self._columns = np.empty((9, 2 * config.window_n))
        self._end = 0
        self._estimate: PositionEstimate | None = None
        # the sliding state, set anew by each whole-window pass
        self._sums = [0.0] * 6  # of rows 3-8 over the window
        self._t_a = self._branch = self._t_last = 0.0  # t_last: the newest beam's time
        self._since = 0

    def extend(self, lat, lon, t_s) -> PositionEstimate | None:
        """Append finite beam columns in arrival order; the estimate over the
        newest ``window_n`` beams, computed once per call (None until they
        arrived). A short extend, by ``k <= max(window_n // 32, 1)`` beams,
        carries them as Python floats and builds no array."""
        n, k = self.config.window_n, len(t_s)
        if not len(lat) == len(lon) == k:
            raise ValueError("lat, lon and t_s must be of equal length")
        # a sliding beam costs some 25 times a windowed beam of the whole-
        # window pass, so an extend by over 1/32 of the window takes the pass
        short = k <= max(n // 32, 1)
        if short:
            new = [(float(a), float(b), float(t)) for a, b, t in zip(lat, lon, t_s)]
            finite = all([math.isfinite(x) for point in new for x in point])
        else:
            new = np.array((lat, lon, t_s), dtype=float).T
            finite = np.isfinite(new).all()
        if not finite:
            raise ValueError("lat, lon and t_s must be finite")
        sliding = short and k < n and self._estimate is not None
        if k >= n:
            new, k = new[-n:], n
            self._end = 0
        elif sliding:  # the k oldest leave the window: their rows 3-8, one list a beam
            left = self._columns[3:, self._end - n:self._end - n + k].T.tolist()
        if self._end + k > self._columns.shape[1]:
            shift = self._end - (n - k)
            self._columns[:, :n - k] = self._columns[:, shift:self._end]
            self._end = n - k
        lo, self._end = self._end, self._end + k
        if not short:  # the write path follows the points' form, not k
            self._columns[:3, lo:self._end] = new.T
        elif not sliding:  # a sliding point's column is written whole by _slide
            for j, point in enumerate(new, lo):
                self._columns[:3, j] = point
        if k and self._end >= n:
            self._estimate = self._slide(lo, new, left) if sliding else self._estimate_window()
        return self._estimate

    def push(self, record: IraRecord) -> PositionEstimate | None:
        """:meth:`extend` by one record at its :meth:`~IraRecord.timestamp`; a
        beam-0 record leaves the window as it is. One arrival is the unit of
        a live feed, so this takes a record where :meth:`extend` takes
        columns."""
        if record.beam_id < 1:
            return self._estimate
        return self.extend((record.ground.lat_deg,), (record.ground.lon_deg,),
                           (record.timestamp(),))

    def _estimate_window(self) -> PositionEstimate:
        """The whole-window pass: the batch estimate, and the sliding state,
        anchored at the window's latest time with its circular mean as branch."""
        n, end = self.config.window_n, self._end
        cols = self._columns[:, end - n:end]
        i_lat, i_lon, lat, unwrapped, branch = estimate_windows(*cols[:3, None], self.motion)
        lat, unwrapped, t_s = lat[0], unwrapped[0], cols[2]
        self._t_a, self._branch = float(t_s.max()), float(branch[0])
        self._t_last = float(t_s[-1])
        estimate = PositionEstimate(GeoPoint(i_lat[0], i_lon[0]), n, (float(t_s.min()), self._t_a))
        if _moving(self.motion):
            phi = np.radians(cols[0])
            delta = self.motion.speed_kmh * (self._t_a - t_s) / (3600.0 * EARTH_RADIUS_KM)
            cols[5], cols[6] = _rates(np.sin(phi), np.cos(phi), np.sin(delta), np.cos(delta),
                                      np.cos(np.radians(lat)), self.motion.course_deg)
        else:
            cols[5:7] = 0.0
        cols[3], cols[4] = lat, unwrapped
        cols[7] = (np.abs(unwrapped - self._branch) >= 90.0) | (np.abs(lat) > SLIDING_MAX_LAT_DEG)
        cols[8, 0] = 0.0
        cols[8, 1:] = t_s[1:] < t_s[:-1]
        self._sums = cols[3:].sum(axis=1).tolist()
        self._since = 0
        return estimate

    def _anchor(self, lat: float, lon: float, t: float) -> tuple[float, ...]:
        """Rows 3-7 of one sliding point, as :meth:`_estimate_window` fills
        them: the point compensated to ``t_a`` by the kernel's arithmetic, its
        longitude unwrapped about the branch, its north and east rates there
        (radians per radian of travel), and whether only the whole-window
        pass may take it."""
        north = east = 0.0
        if _moving(self.motion):
            theta = math.radians(self.motion.course_deg)
            delta = self.motion.speed_kmh * (self._t_a - t) / (3600.0 * EARTH_RADIUS_KM)
            phi = math.radians(lat)
            sin_phi, cos_phi = math.sin(phi), math.cos(phi)
            sin_d, cos_d = math.sin(delta), math.cos(delta)
            ahead = sin_d * math.cos(theta)
            x, y = cos_phi * cos_d - sin_phi * ahead, math.sin(theta) * sin_d
            phi2 = math.atan2(sin_phi * cos_d + cos_phi * ahead, math.sqrt(x * x + y * y))
            lon += math.degrees(math.atan2(y, x))
            lat = math.degrees(phi2)
            north, east = _rates(sin_phi, cos_phi, sin_d, cos_d, math.cos(phi2),
                                 self.motion.course_deg)
        u = self._branch + (lon - self._branch + 180.0) % 360.0 - 180.0
        far = abs(u - self._branch) >= 90.0 or abs(lat) > SLIDING_MAX_LAT_DEG
        return lat, u, north, east, float(far)

    def _slide(self, lo: int, points: list, left: list) -> PositionEstimate:
        """The estimate once ``points``, Python floats, have joined a full
        window as columns ``lo:`` and as many beams, whose rows 3-8 are
        ``left``, have left it: from the running sums, or from the
        whole-window pass when those cannot hold the stated bound."""
        n, end = self.config.window_n, self._end
        for j, ((lat, lon, t), gone) in enumerate(zip(points, left), lo):
            row = (*self._anchor(lat, lon, t), float(t < self._t_last))
            self._columns[:, j] = (lat, lon, t, *row)
            self._sums = [s - y + x for s, x, y in zip(self._sums, row, gone)]
            self._t_last = t
        self._since += end - lo
        *sums, far, descents = self._sums
        t_first, *_, descent_first = self._columns[2:, end - n].tolist()
        if descents - descent_first:
            t_s = self._columns[2, end - n:end]
            window = (float(t_s.min()), float(t_s.max()))
        else:
            window = (t_first, self._t_last)
        d_km = self.motion.speed_kmh * (window[1] - self._t_a) / 3600.0 \
            if _moving(self.motion) else 0.0
        if far or self._since >= min(n, MAX_SLIDING_BEAMS) or abs(d_km) > REANCHOR_KM:
            return self._estimate_window()
        lat, lon, north, east = (s / n for s in sums)
        if d_km:
            # every point moves on along its own great circle: the mean of
            # their rates is the first-order term, and the mean point's
            # second-order terms are the rest to well under a metre
            theta, delta = math.radians(self.motion.course_deg), d_km / EARTH_RADIUS_KM
            phi = math.radians(lat)
            sin_t, cos_t, tan_phi = math.sin(theta), math.cos(theta), math.tan(phi)
            lat += math.degrees(delta * north - delta * delta / 2 * sin_t * sin_t * tan_phi)
            lon += math.degrees(delta * east
                                + delta * delta * sin_t * cos_t * tan_phi / math.cos(phi))
        return PositionEstimate(GeoPoint(lat, lon), n, window)

    @property
    def latest_estimate(self) -> PositionEstimate | None:
        return self._estimate

    def check(self, g_pos: GeoPoint) -> DetectionOutcome | None:
        if self._estimate is None:
            return None
        return detect(self._estimate, g_pos, self.config)
