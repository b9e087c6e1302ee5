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
from .geo import EARTH_RADIUS_KM, GeoPoint, local_offsets_km, slerp, unit_vectors
# group_by_satellite is bound, not called, for bench/spans.py TARGETS (ROADMAP item 3)
from .ingest import group_by_satellite, segment_passes  # noqa: F401
from .model import (BASE_INTERARRIVAL_S, MAX_BEAM_ID, BeamConstellation, EvdParams, Passes,
                    RecordTable)

DEFAULT_SPEED_BIN_KMS = 0.05
DEFAULT_INTERARRIVAL_BIN_S = 0.1
DEFAULT_COVERAGE_BIN_KM = 25.0
#: Widest gap (s) between the track points around a beam record that
#: :func:`beam_constellation` takes; wider brackets are loss-corrupted.
MAX_BRACKET_S = 20.0
#: beam rows per block of :func:`beam_constellation`'s offsets: its temporaries stay small
_BLOCK_ROWS = 1 << 14


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

def ground_speeds(table: RecordTable, passes: Passes | None = None, *,
                  max_dt_s: float | None = None) -> np.ndarray:
    """Ground speeds (km/s) of consecutive sub-satellite points of one pass,
    in the passes' order; ``passes`` defaults to :func:`ingest.segment_passes`.

    A pair counts when its time step is positive and at most the gap that cut
    the passes, and, if given, ``max_dt_s``: long loss gaps otherwise produce
    unphysical speeds on real logs. Its arc comes from the chord of its unit vectors.
    """
    if passes is None:
        passes = segment_passes(table)
    track = np.flatnonzero(table.beam_id[passes.order] == 0)
    rows = passes.order[track]
    dt = np.diff(passes.t_s[track])
    keep = (table.sat_id[rows[1:]] == table.sat_id[rows[:-1]]) & (dt > 0)
    keep &= dt <= (passes.gap_threshold_s if max_dt_s is None
                   else min(passes.gap_threshold_s, max_dt_s))
    x, y, z = unit_vectors(table.lat[rows], table.lon[rows])
    dx, dy, dz = (c[1:][keep] - c[:-1][keep] for c in (x, y, z))
    half_chord = 0.5 * np.sqrt(dx * dx + dy * dy + dz * dz)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(half_chord, 1.0)) / dt[keep]


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
                       bin_width_s: float = DEFAULT_INTERARRIVAL_BIN_S) -> InterarrivalStats:
    """Consecutive timestamp differences over all beams, with residuals to the 90 ms grid."""
    if len(table) < 2:
        raise EmptyInput("interarrival_stats needs at least two records")
    durations = np.diff(table.t_s())
    residuals = durations - np.round(durations / BASE_INTERARRIVAL_S) * BASE_INTERARRIVAL_S
    return InterarrivalStats(durations, histogram_mode(durations, bin_width_s), residuals)


def packet_delivery_ratio(table: RecordTable) -> float:
    """Observed message count over the count a lossless base-slot grid would carry."""
    if not len(table):
        raise EmptyInput("packet_delivery_ratio needs records")
    times = table.t_s()
    span = float(times[-1] - times[0])
    if span <= 0:
        raise EmptyInput("packet_delivery_ratio needs a stream spanning > 0 seconds")
    return len(table) / (span / BASE_INTERARRIVAL_S)


# ---------------------------------------------------------------------------
# coverage

@dataclass(frozen=True)
class CoverageExtent:
    max_km: float
    area_km2: float
    distances_km: np.ndarray
    mode_km: float


def coverage_extent(table: RecordTable, receiver: GeoPoint, *,
                    bin_width_km: float = DEFAULT_COVERAGE_BIN_KM) -> CoverageExtent:
    """Receiver-to-track distances and the hull area of the observed ground points.

    The hull is taken in the azimuthal-equidistant plane centered on the
    receiver, which preserves radial distances exactly.
    """
    track = table.is_track
    if not np.any(track):
        raise EmptyInput("coverage_extent needs sub-satellite records")
    east, north, d = local_offsets_km(unit_vectors(receiver.lat_deg, receiver.lon_deg),
                                      unit_vectors(table.lat[track], table.lon[track]))
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

def fit_evd(durations_min) -> EvdParams:
    """Maximum-likelihood (mu, sigma) via Newton iterations on the profiled scale.

    The density is the left-skewed extreme-value one, exp(u - exp(u)) / sigma
    with u = (t - mu) / sigma. The scale solves sigma = S(sigma) - mean(t),
    where S is the exp(t/sigma) weighted mean of the data; the location then
    follows in closed form. The profile equation is strictly decreasing, so
    Newton with a bisection safeguard always converges for non-degenerate
    data: to a relative step of 1e-12 within 100 steps, else NonConvergence.
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
    for _ in range(100):
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
        if abs(new_sigma - sigma) <= 1e-12 * max(sigma, 1e-300):
            sigma = new_sigma
            break
        sigma = new_sigma
    else:
        raise NonConvergence("scale iteration did not converge in 100 steps")
    u = t / sigma
    shift = u.max()
    mu = sigma * (shift + math.log(np.exp(u - shift).sum() / t.size))
    return EvdParams(float(mu), float(sigma))


def pass_durations_min(passes: Passes) -> np.ndarray:
    """Durations (minutes) of passes with at least two records."""
    return passes.duration_min[passes.hi - passes.lo >= 2]


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
    # cost[i, j]: sum of squared deviations of values[i:j], infinite unless i < j
    i, j = np.arange(n + 1)[:, None], np.arange(n + 1)
    total = s1[j] - s1[i]
    cost = np.where(i < j, (s2[j] - s2[i]) - total * total / np.maximum(j - i, 1), np.inf)
    # best[j]: least cost of values[:j] in m clusters, whose last starts at splits[m - 1][j]
    best = np.where(j == 0, 0.0, np.inf)
    splits = []
    for _ in range(k):
        candidate = best[:, None] + cost
        splits.append(candidate.argmin(axis=0))
        best = candidate.min(axis=0)
    bounds = [n]
    for split in reversed(splits):
        bounds.append(int(split[bounds[-1]]))
    bounds.reverse()
    return [float(values[lo:hi].mean()) for lo, hi in zip(bounds[:-1], bounds[1:])]


def beam_constellation(table: RecordTable, passes: Passes | None = None) -> BeamConstellation:
    """Reconstruct per-beam centroid offsets and the three ring radii.

    Each beam record is referenced to the sub-satellite point interpolated (in
    time, along the great circle) between the bracketing track records of the
    same pass; brackets wider than :data:`MAX_BRACKET_S` are dropped as
    loss-corrupted. Offsets from downward passes are mirrored across the east
    axis so every sample lands in the upward-travel frame. ``passes``
    defaults to :func:`ingest.segment_passes` of the table.
    """
    if passes is None:
        passes = segment_passes(table)
    order, t = passes.order, passes.t_s
    beam_ids = table.beam_id[order]
    track, beam_rows = np.flatnonzero(beam_ids == 0), np.flatnonzero(beam_ids != 0)
    u = unit_vectors(table.lat[order[track]], table.lon[order[track]])
    counts, sum_east, sum_north = np.zeros((3, MAX_BEAM_ID + 1))
    for lo in range(0, beam_rows.size, _BLOCK_ROWS):
        beams = beam_rows[lo:lo + _BLOCK_ROWS]
        # the track rows around each beam row, kept where both are in its pass
        after = np.searchsorted(track, beams)
        inside = (after > 0) & (after < track.size)
        beams, after = beams[inside], after[inside]
        before, in_pass = after - 1, np.searchsorted(passes.hi, beams, side="right")
        span = t[track[after]] - t[track[before]]
        usable = ((track[before] >= passes.lo[in_pass]) & (track[after] < passes.hi[in_pass])
                  & (span <= MAX_BRACKET_S))
        beams, before, after, in_pass, span = (
            c[usable] for c in (beams, before, after, in_pass, span))
        fraction = np.divide(t[beams] - t[track[before]], span, out=np.zeros_like(span),
                             where=span > 0)
        east, north, _ = local_offsets_km(
            slerp([c[before] for c in u], [c[after] for c in u], fraction),
            unit_vectors(table.lat[order[beams]], table.lon[order[beams]]))
        north = np.where(passes.upward[in_pass], north, -north)
        ids = beam_ids[beams]
        counts += np.bincount(ids, minlength=MAX_BEAM_ID + 1)
        sum_east += np.bincount(ids, weights=east, minlength=MAX_BEAM_ID + 1)
        sum_north += np.bincount(ids, weights=north, minlength=MAX_BEAM_ID + 1)
    if not counts.any():
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
