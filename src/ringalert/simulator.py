"""Deterministic generator of synthetic ring-alert streams.

Satellites move along fixed great circles at a constant ground speed (the
simplest kinematic model that reproduces the measured ground statistics:
speed, coverage, pass durations, beam geometry, and slot timing). Each
satellite emits one message per 90 ms slot while in view of the receiver:
one sub-satellite record at every frame boundary, and its 48 beam-center
records cycling through the remaining slots. Losses are applied per emission,
either independently (default) or through a bursty outage channel.

All randomness flows from ``SimConfig.seed``: identical configurations
produce byte-identical streams.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientWindows, InvalidPer
from .geo import (
    EARTH_RADIUS_KM,
    GeoPoint,
    displace,
    displace_deg,
    haversine_km,
    unit_vectors,
)
from .model import MAX_BEAM_ID, MAX_SPEED_KMH, MotionProfile, RecordTable, valid_sat_ids

DEFAULT_RING_RADII_KM = (3.36, 7.98, 14.35)
DEFAULT_RING_COUNTS = (8, 16, 24)


def default_beam_offsets(ring_radii_km=DEFAULT_RING_RADII_KM,
                         ring_counts=DEFAULT_RING_COUNTS) -> tuple[tuple[float, float], ...]:
    """Honeycomb layout: rings of 8/16/24 beams at the three ring radii.

    Beam 1..8 sit on the inner ring, 9..24 on the middle, 25..48 on the outer;
    each ring is evenly spaced starting due north. Offsets are (east, north)
    km in the upward-travel frame.
    """
    offsets = []
    for radius, count in zip(ring_radii_km, ring_counts):
        for i in range(count):
            theta = 2.0 * math.pi * i / count
            offsets.append((radius * math.sin(theta), radius * math.cos(theta)))
    return tuple(offsets)


@dataclass(frozen=True)
class ShipClassPreset:
    """A ship class and its cruising-speed envelope in km/h."""

    class_id: str
    description: str
    speed_min_kmh: float
    speed_max_kmh: float

    def motion(self, start: GeoPoint, course_deg: float,
               speed_kmh: float | None = None) -> MotionProfile:
        speed = self.speed_max_kmh if speed_kmh is None else float(speed_kmh)
        if not self.speed_min_kmh <= speed <= self.speed_max_kmh:
            raise ValueError(
                f"{self.class_id} speed {speed} outside "
                f"[{self.speed_min_kmh}, {self.speed_max_kmh}] km/h"
            )
        return MotionProfile(start, course_deg, speed)


SHIP_CLASSES: dict[str, ShipClassPreset] = {
    "S1": ShipClassPreset("S1", "Bulk carriers", 24.0, 28.0),
    "S2": ShipClassPreset("S2", "Container ships", 30.0, 44.0),
    "S3": ShipClassPreset("S3", "Oil and chemical tankers", 24.0, 31.0),
    "S4": ShipClassPreset("S4", "RORO vessels", 30.0, 41.0),
    "S5": ShipClassPreset("S5", "Cruise ships", 37.0, 46.0),
}


@dataclass(frozen=True)
class SpoofProfile:
    """An adversarial detour: the reported track diverges from truth after start_s."""

    start_s: float
    offset_course_deg: float
    offset_speed_kmh: float

    def __post_init__(self):
        if not math.isfinite(self.offset_course_deg):
            raise ValueError(f"spoof course must be finite, got {self.offset_course_deg}")
        if not 0 <= self.start_s < math.inf:
            raise ValueError(f"spoof start must be finite and >= 0, got {self.start_s}")
        if not 0 <= self.offset_speed_kmh <= MAX_SPEED_KMH:
            raise ValueError(f"spoof offset speed must be in [0, {MAX_SPEED_KMH}] km/h, "
                             f"got {self.offset_speed_kmh}")

    @classmethod
    def from_dict(cls, data: dict) -> "SpoofProfile":
        return cls(data["start_s"], data["offset_course_deg"], data["offset_speed_kmh"])


@dataclass(frozen=True)
class Scenario:
    """Receiver motion plus the (optionally spoofed) reported-position track."""

    receiver: MotionProfile
    spoof: SpoofProfile | None = None

    def truth_position(self, t_s: float) -> GeoPoint:
        return self.receiver.position_at(t_s)

    def reported_position(self, t_s: float) -> GeoPoint:
        truth = self.truth_position(t_s)
        if self.spoof is None or t_s <= self.spoof.start_s:
            return truth
        drift_km = self.spoof.offset_speed_kmh * (t_s - self.spoof.start_s) / 3600.0
        return displace(truth, self.spoof.offset_course_deg, drift_km)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        spoof = data.get("spoof")
        return cls(
            MotionProfile.from_dict(data["receiver"]),
            None if spoof is None else SpoofProfile.from_dict(spoof),
        )


_DEFAULT_SCENARIO = Scenario(MotionProfile(GeoPoint(0.0, 0.0), 0.0, 0.0))


@dataclass(frozen=True)
class SimConfig:
    """Constellation, channel, and run parameters for stream generation.

    ``per`` is the per-emission loss probability; 1.0 is allowed only as the
    degenerate everything-lost case. ``plane_nodes_deg`` overrides the default
    evenly spaced ascending-node longitudes. The burst loss model replaces
    independent drops with outage periods whose mean preserves ``per``.
    """

    n_sats: int = 66
    ground_speed_kms: float = 6.89
    beam_period_s: float = 4.32
    n_beams: int = MAX_BEAM_ID
    per: float = 0.0
    coverage_radius_km: float = 1625.0
    altitude_km: float = 800.0  # descriptive only; the model works at ground level
    beam_offsets: tuple[tuple[float, float], ...] = field(default_factory=default_beam_offsets)
    seed: int = 0
    duration_s: float = 600.0
    start_epoch_s: int = 1_600_000_000
    planes: int = 6
    inclination_deg: float = 86.4
    plane_nodes_deg: tuple[float, ...] | None = None
    loss_model: str = "iid"
    burst_stages: int = 5

    def __post_init__(self):
        object.__setattr__(self, "beam_offsets", tuple(tuple(map(float, o)) for o in self.beam_offsets))
        if self.plane_nodes_deg is not None:
            object.__setattr__(self, "plane_nodes_deg", tuple(float(x) for x in self.plane_nodes_deg))
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) \
                or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if not 1 <= self.n_sats <= len(valid_sat_ids()):
            raise ValueError(f"n_sats must be in [1, {len(valid_sat_ids())}]")
        if self.planes < 1 or self.n_sats % self.planes != 0:
            raise ValueError("n_sats must divide evenly into planes")
        if self.plane_nodes_deg is not None and (len(self.plane_nodes_deg) != self.planes or
                                                 not all(map(math.isfinite, self.plane_nodes_deg))):
            raise ValueError("plane_nodes_deg must list one finite node per plane")
        if not 0.0 < self.inclination_deg <= 90.0:
            raise ValueError("inclination_deg must be in (0, 90]")
        if not 0.0 <= self.per <= 1.0:
            raise ValueError("per must be in [0, 1]")
        if not all(0 < v < math.inf for v in (self.ground_speed_kms, self.beam_period_s)):
            raise ValueError("ground speed and beam period must be finite and > 0")
        if self.n_beams < 1 or len(self.beam_offsets) != self.n_beams:
            raise ValueError("beam_offsets must provide one (east, north) pair per beam")
        if not self.coverage_radius_km > 0:
            raise ValueError(f"coverage_radius_km must be > 0, got {self.coverage_radius_km}")
        if not (math.isfinite(self.duration_s) and self.duration_s >= 0):
            raise ValueError(f"duration_s must be finite and >= 0, got {self.duration_s}")
        if self.loss_model not in LOSS_MODELS:
            raise ValueError(f"loss_model must be one of {LOSS_MODELS}, got {self.loss_model!r}")
        if self.burst_stages < 1:
            raise ValueError("burst_stages must be >= 1")
        if self.slot_us < 1:
            raise ValueError("aggregate slot must be at least 1 microsecond")
        if _slot_count(self) * self.slot_us > np.iinfo(np.int64).max:
            raise ValueError(f"duration_s {self.duration_s} is too long: its microsecond "
                             "slot times overflow int64")

    @property
    def slot_us(self) -> int:
        """Aggregate emission slot in whole microseconds (90 000 with defaults)."""
        return round(self.beam_period_s / self.n_beams * 1e6)

    @property
    def slot_s(self) -> float:
        return self.slot_us * 1e-6

    @property
    def sats_per_plane(self) -> int:
        return self.n_sats // self.planes

    @property
    def sat_ids(self) -> tuple[int, ...]:
        return tuple(sorted(valid_sat_ids())[: self.n_sats])

    def plane_nodes(self) -> tuple[float, ...]:
        if self.plane_nodes_deg is not None:
            return self.plane_nodes_deg
        return tuple(p * 180.0 / self.planes for p in range(self.planes))

    def to_dict(self) -> dict:
        return {
            "n_sats": self.n_sats,
            "ground_speed_kms": self.ground_speed_kms,
            "beam_period_s": self.beam_period_s,
            "n_beams": self.n_beams,
            "per": self.per,
            "coverage_radius_km": self.coverage_radius_km,
            "altitude_km": self.altitude_km,
            "beam_offsets": [list(o) for o in self.beam_offsets],
            "seed": self.seed,
            "duration_s": self.duration_s,
            "start_epoch_s": self.start_epoch_s,
            "planes": self.planes,
            "inclination_deg": self.inclination_deg,
            "plane_nodes_deg": None if self.plane_nodes_deg is None else list(self.plane_nodes_deg),
            "loss_model": self.loss_model,
            "burst_stages": self.burst_stages,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        kwargs = dict(data)
        if kwargs.get("beam_offsets") is not None:
            kwargs["beam_offsets"] = tuple(tuple(o) for o in kwargs["beam_offsets"])
        if kwargs.get("plane_nodes_deg") is not None:
            kwargs["plane_nodes_deg"] = tuple(kwargs["plane_nodes_deg"])
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# orbit kinematics

def _orbit_basis(config: SimConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-satellite (A, T, phase): position = A cos(w t + phase) + T sin(w t + phase).

    A is the ascending-node direction, T the unit tangent there. Satellites in
    a plane are evenly spaced; planes carry a small walking phase offset so
    they are not synchronized.
    """
    per_plane = config.sats_per_plane
    heading = math.radians(90.0 - config.inclination_deg)
    a_rows, t_rows, phases = [], [], []
    for p, node in enumerate(config.plane_nodes()):
        lam = math.radians(node)
        a_vec = np.array([math.cos(lam), math.sin(lam), 0.0])
        east = np.array([-math.sin(lam), math.cos(lam), 0.0])
        north = np.array([0.0, 0.0, 1.0])
        t_vec = north * math.cos(heading) + east * math.sin(heading)
        for k in range(per_plane):
            a_rows.append(a_vec)
            t_rows.append(t_vec)
            phases.append(2.0 * math.pi * (k + p / config.planes) / per_plane)
    return np.array(a_rows), np.array(t_rows), np.array(phases)


def _sat_positions(config: SimConfig, basis, sat_index: int, t_s: np.ndarray):
    """(lat, lon, northbound) arrays for one satellite at the given times."""
    a_all, t_all, phases = basis
    omega = config.ground_speed_kms / EARTH_RADIUS_KM
    theta = omega * np.asarray(t_s, dtype=float) + phases[sat_index]
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    u = a_all[sat_index][None, :] * cos_t[:, None] + t_all[sat_index][None, :] * sin_t[:, None]
    lat = np.degrees(np.arcsin(np.clip(u[:, 2], -1.0, 1.0)))
    lon = np.degrees(np.arctan2(u[:, 1], u[:, 0]))
    # z-velocity sign: d(u_z)/dtheta = T_z cos(theta) - A_z sin(theta); A_z == 0 here
    northbound = t_all[sat_index][2] * cos_t - a_all[sat_index][2] * sin_t >= 0.0
    return lat, lon, northbound


def orbital_period_s(config: SimConfig) -> float:
    return 2.0 * math.pi * EARTH_RADIUS_KM / config.ground_speed_kms


# ---------------------------------------------------------------------------
# in-view geometry

def _view_slot_ranges(config: SimConfig, basis, receiver: GeoPoint, radius_km: float,
                      slot_lo: int, slot_hi: int) -> list[list[tuple[int, int]]]:
    """Per-satellite inclusive slot ranges whose emission can reach the receiver.

    Closed form: along the orbit, the dot product with the receiver direction
    is C cos(theta - psi), so each revolution contributes one contiguous
    in-view arc (or none, or the whole revolution).
    """
    a_all, t_all, phases = basis
    r_hat = unit_vectors(receiver.lat_deg, receiver.lon_deg)
    omega = config.ground_speed_kms / EARTH_RADIUS_KM
    slot_s = config.slot_s
    delta = min(radius_km / EARTH_RADIUS_KM, math.pi)
    cos_delta = math.cos(delta)
    two_pi = 2.0 * math.pi
    out: list[list[tuple[int, int]]] = []
    for j in range(config.n_sats):
        a_dot = float(a_all[j] @ r_hat)
        t_dot = float(t_all[j] @ r_hat)
        c = math.hypot(a_dot, t_dot)
        if c < 1e-15:
            # receiver on the orbit axis: constant quarter-circumference range
            if cos_delta <= 0.0 and slot_hi > slot_lo:
                out.append([(slot_lo, slot_hi - 1)])
            else:
                out.append([])
            continue
        if cos_delta / c >= 1.0:
            out.append([])
            continue
        if cos_delta / c <= -1.0:
            out.append([(slot_lo, slot_hi - 1)] if slot_hi > slot_lo else [])
            continue
        psi = math.atan2(t_dot, a_dot)
        alpha = math.acos(cos_delta / c)
        # theta in [psi - alpha + 2 pi m, psi + alpha + 2 pi m]
        t_center0 = (psi - phases[j]) / omega
        half_t = alpha / omega
        period = two_pi / omega
        m_lo = math.floor((slot_lo * slot_s - t_center0 - half_t) / period)
        m_hi = math.ceil((slot_hi * slot_s - t_center0 + half_t) / period)
        ranges = []
        for m in range(m_lo, m_hi + 1):
            t0 = t_center0 - half_t + m * period
            t1 = t_center0 + half_t + m * period
            k0 = max(slot_lo, math.ceil(t0 / slot_s))
            k1 = min(slot_hi - 1, math.floor(t1 / slot_s))
            if k0 <= k1:
                ranges.append((k0, k1))
        out.append(ranges)
    return out


# ---------------------------------------------------------------------------
# loss channels

def _renewal_slots(length: int, draw_gaps, batch_size) -> np.ndarray:
    """Slots in [0, length) reached by adding up gaps from slot -1.

    ``draw_gaps(n)`` draws n gaps and ``batch_size(pos)`` sizes the next batch
    from the slot reached, so work scales with the kept count, not the slot
    count. The batch sizes fix how many draws a stream consumes.
    """
    kept = []
    pos = -1
    while pos < length - 1:
        positions = pos + np.cumsum(draw_gaps(batch_size(pos)))
        take = positions[positions < length]
        kept.append(take)
        if take.size < positions.size:
            break
        pos = int(positions[-1])
    return np.concatenate(kept) if kept else np.empty(0, dtype=np.int64)


def _iid_gaps(config: SimConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    """Independent drops: each emission is kept with probability 1 - per."""
    return rng.geometric(1.0 - config.per, size=n)


def _burst_gaps(config: SimConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    """Outages: single deliveries separated by Erlang-distributed outages.

    Outage lengths have ``burst_stages`` stages and mean per / (1 - per)
    slots, so the long-run delivery ratio still equals 1 - per while gap
    durations peak near their mean instead of at one slot.
    """
    mean_off = config.per / (1.0 - config.per)
    stages = config.burst_stages
    return 1 + np.round(rng.gamma(stages, mean_off / stages, size=n)).astype(np.int64)


# each loss channel by name, with the sampler of the slot gaps between its deliveries
_GAP_SAMPLERS = {"iid": _iid_gaps, "burst": _burst_gaps}
LOSS_MODELS = tuple(_GAP_SAMPLERS)


def _kept_offsets(length: int, config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Indices in [0, length) of one in-view slot range kept by the loss channel."""
    keep_prob = 1.0 - config.per
    if keep_prob <= 0.0 or length <= 0:
        return np.empty(0, dtype=np.int64)
    if keep_prob >= 1.0:
        return np.arange(length, dtype=np.int64)
    draw_gaps = _GAP_SAMPLERS[config.loss_model]
    return _renewal_slots(
        length, lambda n: draw_gaps(config, rng, n),
        lambda pos: max(64, int((int((length - max(pos, 0)) * keep_prob) + 1) * 1.2) + 16),
    )


# ---------------------------------------------------------------------------
# emission

def _beam_ids_for_slots(config: SimConfig, slots: np.ndarray, sat_index: int) -> np.ndarray:
    """Deficit round-robin schedule: slot multiples of n_beams carry the
    sub-satellite record (beam 0); the beam cycle advances through the other
    slots, so every beam is emitted and the aggregate rate stays one message
    per slot. Satellites are de-phased by their index."""
    nb = config.n_beams
    j = slots + (sat_index % nb)
    frame, s = np.divmod(j, nb)
    beam = ((nb - 1) * frame + s - 1) % nb + 1
    return np.where(s == 0, 0, beam).astype(np.int64)


def _slot_count(config: SimConfig) -> int:
    duration_us = round(config.duration_s * 1e6)
    return int(-(-duration_us // config.slot_us)) if duration_us > 0 else 0


def _emit(config: SimConfig, basis, receiver: MotionProfile, slot_lo: int, slot_hi: int,
          rng: np.random.Generator) -> RecordTable:
    """Every emission in slots [slot_lo, slot_hi) that survives the loss channel
    and reaches ``receiver``, sorted by slot, then satellite.

    The loss channel draws one renewal per satellite over its in-view slots
    laid end to end, satellite by satellite, so one generator state gives one
    stream. A burst outage thus carries across the gap between two passes.
    """
    # the closed-form ranges hold for the start point; widen them by the run's travel
    margin_km = receiver.speed_kmh * config.duration_s / 3600.0
    ranges_per_sat = _view_slot_ranges(
        config, basis, receiver.start, config.coverage_radius_km + margin_km, slot_lo, slot_hi
    )
    offsets = np.array(config.beam_offsets)
    no_slots = np.empty(0, dtype=np.int64)
    # an empty first part keeps the column dtypes when nothing is in view
    parts = [(no_slots, no_slots, no_slots, np.empty(0), np.empty(0))]
    for j, ranges in enumerate(ranges_per_sat):
        if not ranges:
            continue
        first, last = np.array(ranges, dtype=np.int64).T
        # the in-view slots laid end to end: range i ends before offset laid_end[i]
        laid_end = np.cumsum(last - first + 1)
        drawn = _kept_offsets(int(laid_end[-1]), config, rng)
        if drawn.size == 0:
            continue
        kept = drawn + (last + 1 - laid_end)[np.searchsorted(laid_end, drawn, side="right")]
        t = (kept * config.slot_us).astype(float) * 1e-6
        lat, lon, northbound = _sat_positions(config, basis, j, t)
        # exact in-view check against the (possibly moving) receiver
        if receiver.speed_kmh > 0:
            r_lat, r_lon = displace_deg(
                receiver.start.lat_deg, receiver.start.lon_deg,
                receiver.course_deg, receiver.speed_kmh * t / 3600.0,
            )
        else:
            r_lat, r_lon = receiver.start.lat_deg, receiver.start.lon_deg
        visible = haversine_km(lat, lon, r_lat, r_lon) <= config.coverage_radius_km
        kept, lat, lon, northbound = kept[visible], lat[visible], lon[visible], northbound[visible]
        beam_ids = _beam_ids_for_slots(config, kept, j)
        is_beam = beam_ids > 0
        east, north = np.where(is_beam, offsets[beam_ids - 1].T, 0.0)
        north = np.where(northbound, north, -north)
        out_lat, out_lon = displace_deg(lat, lon, np.degrees(np.arctan2(east, north)),
                                        np.hypot(east, north))
        parts.append((kept, np.full(kept.size, j), beam_ids,
                      np.where(is_beam, out_lat, lat), np.where(is_beam, out_lon, lon)))
    slot, sat_idx, beam_id, lat, lon = (np.concatenate(column) for column in zip(*parts))
    order = np.lexsort((sat_idx, slot))
    slot, sat_idx, beam_id, lat, lon = (a[order] for a in (slot, sat_idx, beam_id, lat, lon))
    total_us = slot * config.slot_us
    return RecordTable(config.start_epoch_s + total_us // 1_000_000, total_us % 1_000_000,
                       np.array(config.sat_ids, dtype=np.int64)[sat_idx], beam_id, lat, lon)


#: Longest run :func:`emit_stream` simulates, about 116 days: its in-view
#: slot ranges are found one orbital revolution (~5,810 s) at a time.
MAX_EMIT_DURATION_S = 1e7


def emit_stream(config: SimConfig, scenario: Scenario | None = None) -> RecordTable:
    """The table of ring-alert records seen by the scenario receiver.

    Satellites emit on every slot while within ``coverage_radius_km`` of the
    receiver; each emission then passes the loss channel. Identical
    (config, scenario) pairs produce identical tables. A ``duration_s``
    beyond :data:`MAX_EMIT_DURATION_S` raises ValueError before any work.
    """
    if config.duration_s > MAX_EMIT_DURATION_S:
        raise ValueError(f"duration_s {config.duration_s} is beyond the {MAX_EMIT_DURATION_S:g} s "
                         "that one simulated run covers")
    if scenario is None:
        scenario = _DEFAULT_SCENARIO
    if scenario.spoof is not None and not 0.0 <= scenario.spoof.start_s <= config.duration_s:
        raise ValueError(f"spoof start {scenario.spoof.start_s} s falls outside the simulated "
                         f"{config.duration_s} s")
    return _emit(config, _orbit_basis(config), scenario.receiver, 0, _slot_count(config),
                 np.random.default_rng(config.seed))


# ---------------------------------------------------------------------------
# stationary-receiver window sampling for Monte Carlo evaluation

# the window stream starts with a chunk of this many slots (about 25 min at 90 ms)...
_FIRST_WINDOW_CHUNK_SLOTS = 1 << 14
# ...later chunks grow to at most this many (100 h)...
_WINDOW_CHUNK_SLOTS = 4_000_000
# ...and a receiver that no satellite reaches is given up on after this many slots
_MAX_WINDOW_SLOTS = 4096 * _WINDOW_CHUNK_SLOTS


def _next_chunk_slots(last: int, slots_done: int, beams_seen: int, beams_needed: int) -> int:
    """Size of the next chunk of the window stream, in slots.

    Enough slots for the beams still needed at the beam rate seen so far,
    plus a 10% margin, and never fewer than the last chunk; four times the
    last chunk while no beam has been seen. Integer arithmetic keeps the
    schedule exact, so reruns emit the same chunks.
    """
    if beams_seen == 0:
        size = 4 * last
    else:
        size = max(last, -(-11 * beams_needed * slots_done // (10 * beams_seen)))
    return min(size, _WINDOW_CHUNK_SLOTS)


@dataclass(frozen=True)
class WindowSample:
    """Beam-record positions and times for one collection window."""

    t_s: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    sat_id: np.ndarray
    beam_id: np.ndarray


def sample_windows(config: SimConfig, receiver: GeoPoint, *, window_messages: int,
                   n_windows: int, rng: np.random.Generator | None = None) -> list[WindowSample]:
    """Consecutive disjoint windows of ``window_messages`` beam records each.

    A fast path for Monte Carlo studies with a stationary receiver, on either
    loss channel. The stream comes from the same emitter as
    :func:`emit_stream`, one chunk of slots at a time, each chunk sized from
    the beams still needed, so cost scales with the message count; windows
    are cut from it back to back.
    """
    if window_messages < 1:
        raise ValueError("window_messages must be >= 1")
    if config.per >= 1.0:
        raise InvalidPer(f"per {config.per} loses every message, so no window can be collected")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    basis = _orbit_basis(config)
    stationary = MotionProfile(receiver, 0.0, 0.0)
    windows: list[WindowSample] = []
    carry = None  # beam rows left over from the previous chunk, one array per field
    lo, size, beams_seen = 0, _FIRST_WINDOW_CHUNK_SLOTS, 0
    while lo < _MAX_WINDOW_SLOTS:
        hi = min(lo + size, _MAX_WINDOW_SLOTS)
        chunk = _emit(config, basis, stationary, lo, hi, rng)
        beams = chunk.is_beam
        # whole microseconds since the run start, so t_s is the emitter's slot time exactly
        elapsed_us = (chunk.epoch_s[beams] - config.start_epoch_s) * 1_000_000 + chunk.frac[beams]
        columns = [elapsed_us * 1e-6, chunk.lat[beams], chunk.lon[beams],
                   chunk.sat_id[beams], chunk.beam_id[beams]]
        beams_seen += elapsed_us.size
        if carry is not None:
            columns = [np.concatenate(pair) for pair in zip(carry, columns)]
        cut = min(columns[0].size // window_messages, n_windows - len(windows))
        for k in range(cut):
            rows = slice(k * window_messages, (k + 1) * window_messages)
            windows.append(WindowSample(*(c[rows].copy() for c in columns)))
        if len(windows) >= n_windows:
            return windows
        carry = [c[cut * window_messages:] for c in columns]
        beams_needed = (n_windows - len(windows)) * window_messages - carry[0].size
        size = _next_chunk_slots(size, hi, beams_seen, beams_needed)
        lo = hi
    hours = _MAX_WINDOW_SLOTS * config.slot_s / 3600.0
    raise InsufficientWindows(
        f"collected only {len(windows)}/{n_windows} windows in {_MAX_WINDOW_SLOTS} slots "
        f"({hours:.0f} h); no satellite may be in view of this receiver"
    )
