"""Constellation statistics recovered from ring-alert record streams.

Covers ground-speed distribution, message interarrival structure, delivery
ratio, coverage extent, algebraic circle fitting, extreme-value fitting of
pass durations, and reconstruction of the 48-beam constellation around the
sub-satellite point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BinOverflow,
    DegenerateInput,
    EmptyInput,
    InsufficientBrackets,
    InsufficientData,
    NonConvergence,
)
from .geo import (
    GeoPoint,
    bearing_deg,
    haversine_km,
    interpolate_deg,
)
from .ingest import DEFAULT_GAP_THRESHOLD_S, group_by_satellite, segment_passes
from .model import (
    MAX_BEAM_ID,
    BeamConstellation,
    Direction,
    EvdParams,
    RecordTable,
)

DEFAULT_BASE_INTERARRIVAL_S = 0.09
DEFAULT_SPEED_BIN_KMS = 0.05
DEFAULT_INTERARRIVAL_BIN_S = 0.1


def histogram(values, bin_width: float) -> tuple[np.ndarray, np.ndarray]:
    """(centers, counts) of the occupied bins, centers ascending; bins are
    centered on multiples of the width.

    Only occupied bins are counted, so one stray value does not size a dense
    array. Bin indices stay floats, exact below 2**53, so a far-off value
    gets its own bin instead of wrapping in an integer cast; a width so
    small that an index overflows raises :class:`BinOverflow`.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be > 0")
    values = np.asarray(values, dtype=float)
    top = float(np.abs(values).max()) if values.size else 0.0
    # a quotient of Python floats overflows to inf without numpy's warning
    if math.isinf(top / float(bin_width)):
        raise BinOverflow(f"bin width {bin_width} is too small for values up to {top}: "
                          "the bin index overflows")
    # adding zero folds a -0.0 index into the +0.0 bin
    bins, counts = np.unique(np.round(values / bin_width) + 0.0, return_counts=True)
    return bins * bin_width, counts


def histogram_mode(values, bin_width: float) -> float:
    """Center of the most populated :func:`histogram` bin.

    Ties resolve to the lowest bin so the result is deterministic.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise EmptyInput("histogram_mode needs at least one value")
    centers, counts = histogram(values, bin_width)
    return float(centers[np.argmax(counts)])


# ---------------------------------------------------------------------------
# ground speed

def ground_speeds(table: RecordTable, *, gap_threshold_s: float = DEFAULT_GAP_THRESHOLD_S,
                  max_dt_s: float | None = None) -> np.ndarray:
    """Ground speeds (km/s) of consecutive sub-satellite points within each
    pass, satellite by satellite in ascending id, each in time order.

    ``max_dt_s`` optionally drops pairs that span long loss gaps, which
    otherwise produce unphysical speeds on real logs.
    """
    speeds = [np.empty(0)]
    for track in group_by_satellite(table[table.is_track]).values():
        if len(track) < 2:
            continue
        dt = np.diff(track.t_s())
        lats, lons = track.lat, track.lon
        d = haversine_km(lats[:-1], lons[:-1], lats[1:], lons[1:])
        keep = (dt > 0) & (dt <= gap_threshold_s)
        if max_dt_s is not None:
            keep &= dt <= max_dt_s
        speeds.append(d[keep] / dt[keep])
    return np.concatenate(speeds)


def speed_mode_kms(speeds, bin_width: float = DEFAULT_SPEED_BIN_KMS) -> float:
    return histogram_mode(speeds, bin_width)


# ---------------------------------------------------------------------------
# interarrival structure and delivery ratio

@dataclass(frozen=True)
class InterarrivalStats:
    durations_s: np.ndarray
    mode_s: float
    residuals_s: np.ndarray  # distance of each duration to the nearest base-slot multiple


def interarrival_stats(table: RecordTable, *,
                       base_interarrival_s: float = DEFAULT_BASE_INTERARRIVAL_S,
                       bin_width_s: float = DEFAULT_INTERARRIVAL_BIN_S) -> InterarrivalStats:
    """Consecutive timestamp differences over all beams, with grid residuals."""
    if len(table) < 2:
        raise EmptyInput("interarrival_stats needs at least two records")
    durations = np.diff(table.t_s())
    residuals = durations - np.round(durations / base_interarrival_s) * base_interarrival_s
    return InterarrivalStats(durations, histogram_mode(durations, bin_width_s), residuals)


def packet_delivery_ratio(table: RecordTable, *,
                          base_interarrival_s: float = DEFAULT_BASE_INTERARRIVAL_S) -> float:
    """Observed message count over the count a lossless base-slot grid would carry."""
    if not len(table):
        raise EmptyInput("packet_delivery_ratio needs records")
    times = table.t_s()
    span = float(times[-1] - times[0])
    if span <= 0:
        raise EmptyInput("packet_delivery_ratio needs a stream spanning > 0 seconds")
    return len(table) / (span / base_interarrival_s)


# ---------------------------------------------------------------------------
# coverage

@dataclass(frozen=True)
class CoverageExtent:
    max_km: float
    area_km2: float
    distances_km: np.ndarray
    mode_km: float


def coverage_extent(table: RecordTable, receiver: GeoPoint, *,
                    bin_width_km: float = 25.0) -> CoverageExtent:
    """Receiver-to-track distances and the hull area of the observed ground points.

    The hull is taken in the azimuthal-equidistant plane centered on the
    receiver, which preserves radial distances exactly.
    """
    track = table.is_track
    if not np.any(track):
        raise EmptyInput("coverage_extent needs sub-satellite records")
    lats, lons = table.lat[track], table.lon[track]
    d = haversine_km(receiver.lat_deg, receiver.lon_deg, lats, lons)
    theta = np.radians(bearing_deg(receiver.lat_deg, receiver.lon_deg, lats, lons))
    east = d * np.sin(theta)
    north = d * np.cos(theta)
    area = _hull_area(east, north)
    return CoverageExtent(float(d.max()), area, d, histogram_mode(d, bin_width_km))


def _cross(o, a, b) -> float:
    """z of (a - o) x (b - o): positive when o -> a -> b turns left."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_area(x: np.ndarray, y: np.ndarray) -> float:
    """Convex hull area: Andrew's monotone chain, then the shoelace formula.

    Fewer than three distinct points, or collinear points, give 0.0.
    """
    points = np.unique(np.column_stack([x, y]), axis=0).tolist()  # sorted by x, then y
    hull = []
    for sweep in (points, points[::-1]):  # lower chain, then upper chain
        chain = []
        for p in sweep:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        hull += chain[:-1]
    if len(hull) < 3:
        return 0.0
    hx, hy = (np.array(hull) - hull[0]).T  # shift to a vertex to limit cancellation
    return float(0.5 * abs(np.dot(hx, np.roll(hy, -1)) - np.dot(hy, np.roll(hx, -1))))


# ---------------------------------------------------------------------------
# algebraic circle fit

def pratt_circle_fit(points) -> tuple[tuple[float, float], float]:
    """Algebraic circle fit minimizing the Pratt-normalized algebraic distance.

    Solves min ||M a||^2 subject to a' B a = 1 with a = (A, B, C, D) for the
    circle A(x^2+y^2) + Bx + Cy + D = 0 and B the Pratt constraint matrix,
    via the SVD formulation. Exactly-on-circle inputs hit the singular branch
    and recover the circle to machine precision.

    Returns ((center_x, center_y), radius). Raises DegenerateInput for fewer
    than 3 points or collinear points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise DegenerateInput("pratt_circle_fit needs at least 3 (x, y) points")
    centroid = pts.mean(axis=0)
    x = pts[:, 0] - centroid[0]
    y = pts[:, 1] - centroid[1]
    sv = np.linalg.svd(np.column_stack([x, y]), compute_uv=False)
    if sv[0] == 0.0 or sv[1] / sv[0] < 1e-12:
        raise DegenerateInput("points are collinear")
    z = x * x + y * y
    design = np.column_stack([z, x, y, np.ones(len(pts))])
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    v = vt.T
    if s.size < 4:
        # exactly three points: the circle through them is the null vector
        _, _, vt_full = np.linalg.svd(design, full_matrices=True)
        a = vt_full.T[:, 3]
    elif s[3] / s[0] < 1e-12:
        a = v[:, 3]
    else:
        w = v @ np.diag(s)
        b_inv = np.array([
            [0.0, 0.0, 0.0, -0.5],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [-0.5, 0.0, 0.0, 0.0],
        ])
        eigvals, eigvecs = np.linalg.eigh(w.T @ b_inv @ w)
        order = np.argsort(eigvals)
        a_star = eigvecs[:, order[1]]  # smallest positive eigenvalue
        a = v @ (a_star / s)
    if abs(a[0]) < 1e-15 * max(1.0, float(np.abs(a).max())):
        raise DegenerateInput("fit degenerated to a line (infinite radius)")
    cx = -a[1] / (2.0 * a[0]) + centroid[0]
    cy = -a[2] / (2.0 * a[0]) + centroid[1]
    radius = math.sqrt(max(a[1] ** 2 + a[2] ** 2 - 4.0 * a[0] * a[3], 0.0)) / (2.0 * abs(a[0]))
    return (float(cx), float(cy)), float(radius)


# ---------------------------------------------------------------------------
# extreme-value fit of pass durations

def fit_evd(durations_min, *, max_iter: int = 100, tol: float = 1e-12) -> EvdParams:
    """Maximum-likelihood (mu, sigma) via Newton iterations on the profiled scale.

    The density is the left-skewed extreme-value one, exp(u - exp(u)) / sigma
    with u = (t - mu) / sigma. The scale solves sigma = S(sigma) - mean(t),
    where S is the exp(t/sigma) weighted mean of the data; the location then
    follows in closed form. The profile equation is strictly decreasing, so
    Newton with a bisection safeguard always converges for non-degenerate
    data.
    """
    t = np.asarray(durations_min, dtype=float)
    if t.size < 10:
        raise InsufficientData(f"fit_evd needs >= 10 samples, got {t.size}")
    if not np.all(np.isfinite(t)):
        raise InsufficientData("fit_evd needs finite samples")
    std = float(t.std())
    if std == 0.0:
        raise InsufficientData("fit_evd needs non-constant samples")
    mean = float(t.mean())

    def weighted_stats(sigma: float) -> tuple[float, float]:
        u = t / sigma
        w = np.exp(u - u.max())
        w /= w.sum()
        s = float(np.dot(w, t))
        var = float(np.dot(w, (t - s) ** 2))
        return s, var

    sigma = std * math.sqrt(6.0) / math.pi
    lo, hi = 1e-12 * std, 64.0 * std
    for iteration in range(1, max_iter + 1):
        s_w, var_w = weighted_stats(sigma)
        g = s_w - mean - sigma
        if g > 0:
            lo = sigma
        else:
            hi = sigma
        g_prime = -var_w / (sigma * sigma) - 1.0
        step = g / g_prime
        new_sigma = sigma - step
        if not (lo < new_sigma < hi):
            new_sigma = 0.5 * (lo + hi)
        if abs(new_sigma - sigma) <= tol * max(sigma, 1e-300):
            sigma = new_sigma
            break
        sigma = new_sigma
    else:
        raise NonConvergence(
            f"scale iteration did not converge in {max_iter} steps", iterations=max_iter
        )
    u = t / sigma
    shift = u.max()
    mu = sigma * (shift + math.log(np.exp(u - shift).sum() / t.size))
    return EvdParams(float(mu), float(sigma))


def pass_durations_min(passes, *, min_records: int = 2) -> np.ndarray:
    """Durations (minutes) of passes with at least ``min_records`` records."""
    return np.array(
        [p.duration_min for p in passes if len(p.records) >= min_records], dtype=float
    )


# ---------------------------------------------------------------------------
# beam constellation reconstruction

def kmeans_1d(values, k: int = 3) -> list[float]:
    """Exact 1-D k-means (global optimum), returning ascending cluster means.

    Optimal 1-D clusters are contiguous runs of the sorted values, so the
    within-cluster sum of squares can be minimized exactly by dynamic
    programming; no initialization or local-minimum concerns.
    """
    values = np.sort(np.asarray(values, dtype=float))
    n = values.size
    if n < k:
        raise InsufficientData(f"kmeans_1d needs >= {k} values, got {n}")
    s1 = np.concatenate([[0.0], np.cumsum(values)])
    s2 = np.concatenate([[0.0], np.cumsum(values ** 2)])

    def cost(i, j):  # sum of squared deviations of values[i..j] inclusive
        length = j - i + 1
        total = s1[j + 1] - s1[i]
        return (s2[j + 1] - s2[i]) - total * total / length

    best = np.full((k + 1, n + 1), np.inf)
    split = np.zeros((k + 1, n + 1), dtype=int)
    best[0, 0] = 0.0
    for m in range(1, k + 1):
        for j in range(m, n + 1):
            for i in range(m - 1, j):
                candidate = best[m - 1, i] + cost(i, j - 1)
                if candidate < best[m, j]:
                    best[m, j] = candidate
                    split[m, j] = i
    bounds = [n]
    for m in range(k, 0, -1):
        bounds.append(split[m, bounds[-1]])
    bounds.reverse()
    return [
        float(values[lo:hi].mean()) for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def beam_constellation(table: RecordTable, passes=None, *, max_bracket_s: float = 20.0,
                       gap_threshold_s: float = DEFAULT_GAP_THRESHOLD_S) -> BeamConstellation:
    """Reconstruct per-beam centroid offsets and the three ring radii.

    Each beam record is referenced to the sub-satellite point interpolated (in
    time, along the great circle) between the bracketing track records of the
    same pass; brackets wider than ``max_bracket_s`` are dropped as
    loss-corrupted. Offsets from downward passes are mirrored across the east
    axis so every sample lands in the upward-travel frame.
    """
    if passes is None:
        passes = []
        for sat_records in group_by_satellite(table).values():
            passes.extend(segment_passes(sat_records, gap_threshold_s))
    sum_east = np.zeros(MAX_BEAM_ID + 1)
    sum_north = np.zeros(MAX_BEAM_ID + 1)
    counts = np.zeros(MAX_BEAM_ID + 1, dtype=np.int64)
    bracketed_any = False
    for pas in passes:
        records = pas.records
        track = records.is_track
        beams = ~track
        if np.count_nonzero(track) < 2 or not np.any(beams):
            continue
        times = records.t_s()
        track_t, beam_t = times[track], times[beams]
        t_lat, t_lon = records.lat[track], records.lon[track]
        hi = np.searchsorted(track_t, beam_t, side="left")
        lo = hi - 1
        inside = (hi > 0) & (hi < len(track_t))
        # a beam record stamped exactly on a track point brackets itself
        exact = np.isin(beam_t, track_t)
        lo[exact] = hi[exact]
        inside[exact] = True
        span = np.where(inside, track_t[np.clip(hi, 0, len(track_t) - 1)]
                        - track_t[np.clip(lo, 0, None)], np.inf)
        usable = inside & (span <= max_bracket_s)
        if not np.any(usable):
            continue
        bracketed_any = True
        idx = np.flatnonzero(usable)
        lo_u, hi_u = lo[idx], hi[idx]
        frac = np.where(span[idx] > 0, (beam_t[idx] - track_t[lo_u]) / np.where(span[idx] > 0, span[idx], 1.0), 0.0)
        sub_lat, sub_lon = interpolate_deg(t_lat[lo_u], t_lon[lo_u], t_lat[hi_u], t_lon[hi_u], frac)
        b_lat, b_lon = records.lat[beams][idx], records.lon[beams][idx]
        d = haversine_km(sub_lat, sub_lon, b_lat, b_lon)
        theta = np.radians(bearing_deg(sub_lat, sub_lon, b_lat, b_lon))
        east = d * np.sin(theta)
        north = d * np.cos(theta)
        if pas.direction is Direction.DOWNWARD:
            north = -north
        beam_ids = records.beam_id[beams][idx]
        sum_east += np.bincount(beam_ids, weights=east, minlength=MAX_BEAM_ID + 1)
        sum_north += np.bincount(beam_ids, weights=north, minlength=MAX_BEAM_ID + 1)
        counts += np.bincount(beam_ids, minlength=MAX_BEAM_ID + 1)
    if not bracketed_any:
        raise InsufficientBrackets("no beam record was bracketed by track points")
    centroids = {
        beam_id: (float(sum_east[beam_id] / counts[beam_id]),
                  float(sum_north[beam_id] / counts[beam_id]))
        for beam_id in range(1, MAX_BEAM_ID + 1) if counts[beam_id] > 0
    }
    radii = [math.hypot(e, n) for e, n in centroids.values()]
    if len(radii) < 3:
        raise InsufficientBrackets(
            f"only {len(radii)} beams populated; need >= 3 to fit three rings"
        )
    ring_radii = kmeans_1d(radii, k=3)
    return BeamConstellation(centroids, tuple(ring_radii))
