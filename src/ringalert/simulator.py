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
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import InsufficientWindows, InvalidPer
from .geo import EARTH_RADIUS_KM, GeoPoint, displace, displace_deg, unit_vectors
from .model import (MAX_BEAM_ID, MAX_SPEED_KMH, MotionProfile, RecordTable, _bounded,
                    _check_fields, _finite, valid_sat_ids)

DEFAULT_RING_RADII_KM = (3.36, 7.98, 14.35)
DEFAULT_RING_COUNTS = (8, 16, 24)


def default_beam_offsets() -> tuple[tuple[float, float], ...]:
    """Honeycomb layout: rings of 8/16/24 beams at the three ring radii.

    Beam 1..8 sit on the inner ring, 9..24 on the middle, 25..48 on the outer;
    each ring is evenly spaced starting due north. Offsets are (east, north)
    km in the upward-travel frame.
    """
    offsets = []
    for radius, count in zip(DEFAULT_RING_RADII_KM, DEFAULT_RING_COUNTS):
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
        # the profile's field rule sees the value as given, before the envelope does
        motion = MotionProfile(start, course_deg,
                               self.speed_max_kmh if speed_kmh is None else speed_kmh)
        if not self.speed_min_kmh <= motion.speed_kmh <= self.speed_max_kmh:
            raise ValueError(
                f"{self.class_id} speed {motion.speed_kmh} outside "
                f"[{self.speed_min_kmh}, {self.speed_max_kmh}] km/h"
            )
        return motion


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

    start_s: float = _bounded(min=0)
    offset_course_deg: float
    offset_speed_kmh: float = _bounded(min=0, max=MAX_SPEED_KMH)

    def __post_init__(self):
        _check_fields(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SpoofProfile":
        return cls(**data)


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
        data = {**data}  # a TypeError for anything but a mapping
        data["receiver"] = MotionProfile.from_dict(data["receiver"])
        if data.get("spoof") is not None:
            data["spoof"] = SpoofProfile.from_dict(data["spoof"])
        return cls(**data)


_DEFAULT_SCENARIO = Scenario(MotionProfile(GeoPoint(0.0, 0.0), 0.0, 0.0))

#: Fastest ground speed (km/s) a configuration accepts. A circular orbit of
#: radius r moves at sqrt(GM / r) and its sub-satellite point at R / r of that,
#: so no circular orbit has a faster ground track than the circular speed at
#: the surface, sqrt(GM / R) = 7.91 km/s (Earth's rotation aside, which the
#: model leaves out). The cap also bounds the revolutions a run covers, and so
#: the work of finding its in-view slots.
MAX_GROUND_SPEED_KMS = 7.91

#: Longest run :func:`emit_stream` simulates, about 116 days: its in-view slot
#: ranges are cut from each orbital revolution (~5,810 s) of the run. It also
#: bounds the beam period, so every slot time in microseconds fits int64.
MAX_EMIT_DURATION_S = 1e7


@dataclass(frozen=True)
class SimConfig:
    """Constellation, channel, and run parameters for stream generation.

    ``per`` is the per-emission loss probability; 1.0 is allowed only as the
    degenerate everything-lost case. ``plane_nodes_deg`` overrides the default
    evenly spaced ascending-node longitudes. The burst loss model replaces
    independent drops with outage periods whose mean preserves ``per``.
    """

    n_sats: int = _bounded(66, min=1, max=len(valid_sat_ids()))
    ground_speed_kms: float = _bounded(6.89, above=0, max=MAX_GROUND_SPEED_KMS)
    beam_period_s: float = _bounded(4.32, above=0, max=MAX_EMIT_DURATION_S)
    n_beams: int = _bounded(MAX_BEAM_ID, min=1, max=MAX_BEAM_ID)  # ingest's beam ids
    per: float = _bounded(0.0, min=0, max=1)
    coverage_radius_km: float = _bounded(1625.0, above=0)
    altitude_km: float = 800.0  # descriptive only; the model works at ground level
    beam_offsets: tuple[tuple[float, float], ...] = field(default_factory=default_beam_offsets)
    seed: int = _bounded(0, min=0)
    duration_s: float = _bounded(600.0, min=0, max=MAX_EMIT_DURATION_S)
    start_epoch_s: int = _bounded(1_600_000_000, min=0,  # every emitted epoch fits int64
                                  max=np.iinfo(np.int64).max - int(MAX_EMIT_DURATION_S))
    planes: int = _bounded(6, min=1)
    inclination_deg: float = _bounded(86.4, above=0, max=90)
    plane_nodes_deg: tuple[float, ...] | None = None
    loss_model: str = "iid"
    burst_stages: int = _bounded(5, min=1)

    def __post_init__(self):
        _check_fields(self)
        object.__setattr__(self, "beam_offsets", tuple(
            tuple(float(_finite("each beam_offsets entry", x)) for x in o)
            for o in self.beam_offsets))
        if self.plane_nodes_deg is not None:
            object.__setattr__(self, "plane_nodes_deg", tuple(
                float(_finite("each plane_nodes_deg entry", x)) for x in self.plane_nodes_deg))
            if len(self.plane_nodes_deg) != self.planes:
                raise ValueError("plane_nodes_deg must list one node per plane")
        if self.n_sats % self.planes != 0:
            raise ValueError("n_sats must divide evenly into planes")
        if len(self.beam_offsets) != self.n_beams or any(len(o) != 2 for o in self.beam_offsets):
            raise ValueError("beam_offsets must provide one (east, north) pair per beam")
        if self.loss_model not in LOSS_MODELS:
            raise ValueError(f"loss_model must be one of {LOSS_MODELS}, got {self.loss_model!r}")
        if self.slot_us < 1:
            raise ValueError("aggregate slot must be at least 1 microsecond")
        if not orbital_period_s(self) * 1e6 < np.iinfo(np.int64).max:
            raise ValueError(f"ground_speed_kms {self.ground_speed_kms} is too slow: its "
                             "orbital period in microseconds overflows int64")

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
        """The fields, shallow: tuples stay tuples, which JSON writes as lists."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        return cls(**data)


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
    lam = [math.radians(node) for node in config.plane_nodes()]
    cos_l, sin_l = np.array([math.cos(x) for x in lam]), np.array([math.sin(x) for x in lam])
    a_vec = np.stack((cos_l, sin_l, np.zeros(config.planes)), axis=1)  # a row per plane
    east = np.stack((-sin_l, cos_l, np.zeros(config.planes)), axis=1)
    t_vec = np.array([0.0, 0.0, 1.0]) * math.cos(heading) + east * math.sin(heading)
    p, k = np.divmod(np.arange(config.n_sats), per_plane)
    return (np.repeat(a_vec, per_plane, axis=0), np.repeat(t_vec, per_plane, axis=0),
            2.0 * math.pi * (k + p / config.planes) / per_plane)


def _sat_positions(config: SimConfig, basis, sat_index, t_s: np.ndarray):
    """((x, y, z), northbound): unit-vector columns of satellite ``sat_index`` (one
    index, or one per time) at the given times."""
    a_all, t_all, phases = basis
    omega = config.ground_speed_kms / EARTH_RADIUS_KM
    theta = omega * np.asarray(t_s, dtype=float) + phases[sat_index]
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    a_x, a_y = a_all[:, 0][sat_index], a_all[:, 1][sat_index]
    t_x, t_y, t_z = (t[sat_index] for t in t_all.T)
    # A is the ascending node, on the equator: A_z == 0, so u_z = T_z sin(theta)
    u = (a_x * cos_t + t_x * sin_t, a_y * cos_t + t_y * sin_t, t_z * sin_t)
    # z-velocity sign: d(u_z)/dtheta = T_z cos(theta)
    return u, t_z * cos_t >= 0.0


def orbital_period_s(config: SimConfig) -> float:
    return 2.0 * math.pi * EARTH_RADIUS_KM / config.ground_speed_kms


# ---------------------------------------------------------------------------
# in-view geometry

# rows per block of the geometry passes (a satellite's revolutions, its emissions):
# a block's columns stay in the CPU cache, and its memory stays bounded
_GEOMETRY_ROWS = 1 << 14


def _view_slot_ranges(config: SimConfig, basis, receiver: GeoPoint, radius_km: float,
                      slot_lo: int, slot_hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns (sat, first, last) of the inclusive slot ranges in [slot_lo, slot_hi) whose
    emission can reach the receiver, by satellite, then slot.

    Closed form: along the orbit, the dot product with the receiver direction
    is C cos(theta - psi), so each revolution contributes one contiguous
    in-view arc (or none, or the whole revolution). The arcs of every satellite
    and revolution are cut to slots in one numpy pass, :data:`_GEOMETRY_ROWS` at a time.
    """
    a_all, t_all, phases = basis
    r_hat = np.array(unit_vectors(receiver.lat_deg, receiver.lon_deg))
    omega = config.ground_speed_kms / EARTH_RADIUS_KM
    slot_s = config.slot_s
    delta = min(radius_km / EARTH_RADIUS_KM, math.pi)
    cos_delta = math.cos(delta)
    period = 2.0 * math.pi / omega
    # (sat, its arc's start and end at revolution 0, first and last revolution); the
    # first row has no revolutions and keeps the dtypes when no satellite is in view
    arcs = [(0, 0.0, 0.0, 0, -1)]
    for j in range(config.n_sats):
        a_dot = float(a_all[j] @ r_hat)
        t_dot = float(t_all[j] @ r_hat)
        c = math.hypot(a_dot, t_dot)
        # a receiver on the orbit axis (c ~ 0) stays a quarter circumference away
        ratio = cos_delta / c if c >= 1e-15 else (1.0 if cos_delta > 0.0 else -1.0)
        if ratio >= 1.0:
            continue
        if ratio <= -1.0:  # in view all along: one range over the whole chunk
            arcs.append((j, -math.inf, math.inf, 0, 0))
            continue
        psi = math.atan2(t_dot, a_dot)
        alpha = math.acos(ratio)
        # theta in [psi - alpha + 2 pi m, psi + alpha + 2 pi m]
        t_center0 = (psi - phases[j]) / omega
        half_t = alpha / omega
        arcs.append((j, t_center0 - half_t, t_center0 + half_t,
                     math.floor((slot_lo * slot_s - t_center0 - half_t) / period),
                     math.ceil((slot_hi * slot_s - t_center0 + half_t) / period)))
    sat, t0, t1, m_lo, m_hi = (np.array(column) for column in zip(*arcs))
    cells = np.cumsum(m_hi - m_lo + 1)  # each satellite's revolutions end before cells[i]
    out = [np.empty((3, 0), dtype=np.int64)]
    for lo in range(0, int(cells[-1]), _GEOMETRY_ROWS):
        cell = np.arange(lo, min(lo + _GEOMETRY_ROWS, int(cells[-1])))
        i = np.searchsorted(cells, cell, side="right")
        m = cell + (m_hi + 1 - cells)[i]
        k0 = np.maximum(np.ceil((t0[i] + m * period) / slot_s), slot_lo)
        k1 = np.minimum(np.floor((t1[i] + m * period) / slot_s), slot_hi - 1)
        out.append(np.array((sat[i], k0, k1))[:, k0 <= k1].astype(np.int64))
    return tuple(np.concatenate(out, axis=1))


# ---------------------------------------------------------------------------
# loss channels

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


def _kept_offsets(length: int, config: SimConfig, rng: np.random.Generator,
                  drawn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(kept, drawn): the offsets in [0, length) that a satellite's loss renewal keeps of
    its next ``length`` in-view slots, and its positions drawn past them. The renewal
    adds up the channel's gaps from slot -1 over the in-view slots laid end to end;
    ``drawn`` holds its positions from the last one reached on, counted from these
    slots' start (``[-1]`` at the start of a run). The batches of gaps are sized from
    what is left; they do not change the stream, as consecutive draws of one generator
    equal one larger draw."""
    if config.per in (0.0, 1.0):  # every slot kept, or none: nothing to draw
        return np.arange(length if config.per == 0.0 else 0, dtype=np.int64), drawn
    keep_prob = 1.0 - config.per
    draw_gaps = _GAP_SAMPLERS[config.loss_model]
    parts = [drawn]
    while (pos := int(parts[-1][-1])) < length - 1:
        batch = max(64, int((int((length - max(pos, 0)) * keep_prob) + 1) * 1.2) + 16)
        parts.append(pos + draw_gaps(config, rng, batch).cumsum())
    drawn = np.concatenate(parts)
    end = int(drawn.searchsorted(length))
    # a negative first position is the one reached before these slots, not one of them
    return drawn[int(drawn[0] < 0):end], drawn[max(end - 1, 0):] - length


# ---------------------------------------------------------------------------
# emission

def _beam_ids_for_slots(config: SimConfig, slots: np.ndarray, sat_index) -> np.ndarray:
    """Deficit round-robin schedule: slot multiples of n_beams carry the
    sub-satellite record (beam 0); the beam cycle advances through the other
    slots, so every beam is emitted and the aggregate rate stays one message
    per slot. Satellites are de-phased by their index."""
    nb = config.n_beams
    # the schedule repeats every nb frames: one table of its nb^2 positions, looked up per
    # row; built per call (~20 us, 1 ns a row of a 2^14-row block), so no state outlives it
    frame, s = np.arange(nb)[:, None], np.arange(nb)
    schedule = np.where(s == 0, 0, ((nb - 1) * frame + s - 1) % nb + 1).ravel()
    # remainders as x - x // m * m: numpy divides by a scalar twice as fast as it takes them
    index = slots + (sat_index - sat_index // nb * nb)
    return schedule[index - index // (nb * nb) * (nb * nb)]


def _slot_count(config: SimConfig) -> int:
    duration_us = round(config.duration_s * 1e6)
    return int(-(-duration_us // config.slot_us)) if duration_us > 0 else 0


@lru_cache(maxsize=16)  # keyed by the beam layout: a run looks it up per block
def _beam_table(beam_offsets: tuple[tuple[float, float], ...]) -> np.ndarray:
    """Rows (cos d, sin d * east / |o|, sin d * north / |o|) indexed by beam id, for
    the beam whose (east, north) offset o lies at angular distance d; the
    sub-satellite beam 0 is (1, 0, 0)."""
    east, north = np.array([(0.0, 0.0), *beam_offsets]).T
    d_km = np.hypot(east, north)
    delta = d_km / EARTH_RADIUS_KM
    scale = np.sin(delta) / np.where(d_km > 0.0, d_km, 1.0)
    table = np.array((np.cos(delta), east * scale, north * scale))
    table.flags.writeable = False  # every call shares it
    return table


def _in_view_records(config: SimConfig, basis, receiver: MotionProfile, slot: np.ndarray,
                     sat_idx: np.ndarray) -> tuple[np.ndarray, ...]:
    """(slot, sat_idx, beam_id, lat, lon) of the given emissions that reach ``receiver``.

    The geometry stays in unit vectors (n-vectors: Gade, J. Navigation 63(3),
    2010). A satellite at u is in view when ``u . r >= cos(coverage / R)``
    for the receiver's direction r. A beam centre is ``c u + a_e e + a_n n``
    with u's local east and north vectors e and n and the beam's entry
    (c, a_e, a_n) of :func:`_beam_table`, north mirrored for a southbound
    satellite; it becomes a latitude and longitude once, at the end.
    """
    t = (slot * config.slot_us).astype(float) * 1e-6
    (ux, uy, uz), northbound = _sat_positions(config, basis, sat_idx, t)
    # exact in-view check against the (possibly moving) receiver
    if receiver.speed_kmh > 0:
        rx, ry, rz = unit_vectors(*displace_deg(
            receiver.start.lat_deg, receiver.start.lon_deg,
            receiver.course_deg, receiver.speed_kmh * t / 3600.0,
        ))
    else:
        rx, ry, rz = unit_vectors(receiver.start.lat_deg, receiver.start.lon_deg)
    cos_coverage = math.cos(min(config.coverage_radius_km / EARTH_RADIUS_KM, math.pi))
    visible = ux * rx + uy * ry + uz * rz >= cos_coverage
    if not visible.all():  # a stationary receiver's slot ranges are exact, so all usually are
        slot, sat_idx, ux, uy, uz, northbound = (
            a[visible] for a in (slot, sat_idx, ux, uy, uz, northbound))
    beam_id = _beam_ids_for_slots(config, slot, sat_idx)
    c, a_e, a_n = (column[beam_id] for column in _beam_table(config.beam_offsets))
    a_n = np.where(northbound, a_n, -a_n)
    # e = (-u_y, u_x, 0) / rho and n = (-u_z u_x, -u_z u_y, rho^2) / rho
    rho = np.sqrt(ux * ux + uy * uy)
    along_u = c - a_n * uz / rho
    east = a_e / rho
    vx = along_u * ux - east * uy
    vy = along_u * uy + east * ux
    vz = c * uz + a_n * rho
    lat = np.degrees(np.arctan2(vz, np.sqrt(vx * vx + vy * vy)))
    # arctan2 lands in [-180, +180]; fold -180 into (-180, +180]
    lon = np.degrees(np.arctan2(vy, vx))
    lon[lon == -180.0] = 180.0
    return slot, sat_idx, beam_id, lat, lon


#: rows a chunk aims at (a few MB of keys), and the most slots it takes (100 h at 90 ms)
_CHUNK_ROWS, _CHUNK_SLOTS = 1 << 17, 1 << 22


def _emit(config: SimConfig, basis, receiver: MotionProfile, horizon: int,
          rng: np.random.Generator):
    """Blocks of the columns (slot, sat_idx) of every emission in slots [0, horizon) that
    survives the loss channel and may reach ``receiver``, by slot, then satellite;
    :func:`_in_view_records` turns a block into records.

    Each satellite's losses are one renewal over its in-view slots laid end to end,
    drawn from its own generator spawned from ``rng``; a burst outage carries across
    passes. The slots are taken a chunk at a time and each renewal resumes where
    the last chunk left it, so the rows do not depend on the chunks. The first
    chunk has 2^14 slots (about 25 min at 90 ms); each next one is sized from the
    rows per slot so far to hold about :data:`_CHUNK_ROWS` rows, at most four times
    the last and :data:`_CHUNK_SLOTS`. A chunk's sorted (slot, satellite) keys are
    yielded in blocks of :data:`_GEOMETRY_ROWS`, at least one a chunk.
    """
    # the closed-form ranges hold for the start point; widen them by the run's travel
    radius_km = config.coverage_radius_km + receiver.speed_kmh * config.duration_s / 3600.0
    # satellite j draws from the j-th child of the run's seed sequence, the one
    # ``rng.spawn(n_sats)`` gives a fresh ``rng``, made when first drawn from
    seq, streams = rng.bit_generator.seed_seq, {}
    drawn = [np.array([-1], dtype=np.int64)] * config.n_sats
    shift = (config.n_sats - 1).bit_length()  # a key is slot << shift | sat_idx
    hi, size, rows = 0, 1 << 14, 0
    while True:  # at least one chunk, so at least one block
        lo, hi = hi, min(hi + size, horizon)
        sat, first, last = _view_slot_ranges(config, basis, receiver.start, radius_km, lo, hi)
        # the in-view slots laid end to end: range i ends before offset laid_end[i], and
        # satellite j's ranges span offsets [spans[j], spans[j + 1])
        laid_end = np.cumsum(last - first + 1)
        spans = np.concatenate(([0], laid_end))[np.searchsorted(sat, np.arange(config.n_sats + 1))]
        key = [np.empty(0, dtype=np.int64)]
        for j, (a, b) in enumerate(zip(spans.tolist(), spans[1:].tolist())):
            if b > a:
                if j not in streams:
                    streams[j] = np.random.Generator(type(rng.bit_generator)(np.random.SeedSequence(
                        seq.entropy, spawn_key=(*seq.spawn_key, j), pool_size=seq.pool_size)))
                kept, drawn[j] = _kept_offsets(b - a, config, streams[j], drawn[j])
                key.append(kept + a)
        key = np.concatenate(key)
        # the offsets ascend, so range i holds the next counts[i]; each becomes its key, in place
        counts = np.diff(np.searchsorted(key, laid_end), prepend=0)
        key += np.repeat(last + 1 - laid_end, counts)
        key <<= shift
        key |= np.repeat(sat, counts)
        # the keys are distinct, so sorting them orders the rows
        key.sort()
        for k in range(0, max(key.size, 1), _GEOMETRY_ROWS):
            block = key[k:k + _GEOMETRY_ROWS]
            yield block >> shift, block & ((1 << shift) - 1)
        if hi == horizon:
            return
        rows += key.size
        # a slot holds at most n_sats rows, so the rate's share is at least 2^17 / 66 slots
        size = min(4 * size, _CHUNK_SLOTS, _CHUNK_ROWS * hi // rows if rows else 4 * size)


def emit_blocks(config: SimConfig, scenario: Scenario | None = None) -> Iterator[RecordTable]:
    """The records of :func:`emit_stream`, in order, one table per block of the emitter.

    The scenario is checked at the call; the emission runs as the blocks are
    taken. A run then holds one chunk's keys and one block, so ``simulate``
    writes each block as it comes in memory that does not grow with the run.
    """
    if scenario is None:
        scenario = _DEFAULT_SCENARIO
    if scenario.spoof is not None and not 0.0 <= scenario.spoof.start_s <= config.duration_s:
        raise ValueError(f"spoof start {scenario.spoof.start_s} s falls outside the simulated "
                         f"{config.duration_s} s")
    sat_ids = np.array(config.sat_ids, dtype=np.int64)
    basis, receiver = _orbit_basis(config), scenario.receiver

    def table(keys) -> RecordTable:
        slot, sat_idx, beam_id, lat, lon = _in_view_records(config, basis, receiver, *keys)
        total_us = slot * config.slot_us
        return RecordTable(config.start_epoch_s + total_us // 1_000_000, total_us % 1_000_000,
                           sat_ids[sat_idx], beam_id, lat, lon)

    return map(table, _emit(config, basis, receiver, _slot_count(config),
                            np.random.default_rng(config.seed)))


def emit_stream(config: SimConfig, scenario: Scenario | None = None) -> RecordTable:
    """The table of ring-alert records seen by the scenario receiver.

    Satellites emit on every slot while within ``coverage_radius_km`` of the
    receiver; each emission then passes the loss channel. Identical
    (config, scenario) pairs produce identical tables: the blocks of
    :func:`emit_blocks`, joined.
    """
    return RecordTable(*map(np.concatenate, zip(*(block.columns()
                                                  for block in emit_blocks(config, scenario)))))


# ---------------------------------------------------------------------------
# stationary-receiver window sampling for Monte Carlo evaluation

# a receiver that no satellite reaches is given up on after this many slots (46 years)
_MAX_WINDOW_SLOTS = 16_384_000_000


@dataclass(frozen=True)
class WindowSample:
    """Beam-record times and positions of consecutive windows, one window a row of
    C-contiguous ``(windows, window_messages)`` columns. ``len`` counts the windows,
    ``ws[k]`` holds one window's 1-D row views and ``ws[a:b]`` a block of windows."""

    t_s: np.ndarray
    lat: np.ndarray
    lon: np.ndarray

    def __len__(self) -> int:
        return len(self.t_s)

    def __getitem__(self, index) -> "WindowSample":
        return WindowSample(self.t_s[index], self.lat[index], self.lon[index])


def sample_windows(config: SimConfig, receiver: GeoPoint, *, window_messages: int,
                   n_windows: int, rng: np.random.Generator | None = None) -> WindowSample:
    """Consecutive disjoint windows of ``window_messages`` beam records each.

    A fast path for Monte Carlo studies with a stationary receiver, on either
    loss channel. The windows are the beam records of :func:`emit_stream`'s
    stream for the same generator, from the same emitter, so cost scales with
    the message count. Each geometry block writes the beam rows the windows
    use in place, back to back, and the block that fills the last window ends
    the stream.
    """
    if window_messages < 1:
        raise ValueError("window_messages must be >= 1")
    if config.per >= 1.0:
        raise InvalidPer(f"per {config.per} loses every message, so no window can be collected")
    if config.n_beams < 2:  # every slot carries the sub-satellite record
        raise InsufficientWindows(f"n_beams {config.n_beams} emits no beam record, so no "
                                  "window can be collected")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    basis, stationary = _orbit_basis(config), MotionProfile(receiver, 0.0, 0.0)
    needed, beams_seen = n_windows * window_messages, 0
    t_s, lats, lons = columns = np.empty((3, needed))
    for keys in _emit(config, basis, stationary, _MAX_WINDOW_SLOTS, rng):
        while keys[0].size:
            # geometry for about the rows the beams still needed take: a row carries one
            # beam, or the sub-satellite record in one slot in n_beams
            take = (needed - beams_seen) * config.n_beams // (config.n_beams - 1) + 1
            part, keys = zip(*((k[:take], k[take:]) for k in keys))
            slot, _, beam_id, lat, lon = _in_view_records(config, basis, stationary, *part)
            beams = np.flatnonzero(beam_id)[:needed - beams_seen]
            at = slice(beams_seen, beams_seen + beams.size)
            # whole microseconds since the run start, scaled once: the emitter's slot time exactly
            t_s[at], lats[at], lons[at] = (slot[beams] * config.slot_us * 1e-6, lat[beams],
                                           lon[beams])
            beams_seen += beams.size
            if beams_seen == needed:
                return WindowSample(*columns.reshape(3, n_windows, window_messages))
    hours = _MAX_WINDOW_SLOTS * config.slot_s / 3600.0
    raise InsufficientWindows(
        f"collected only {beams_seen // window_messages}/{n_windows} windows in "
        f"{_MAX_WINDOW_SLOTS} slots ({hours:.0f} h); no satellite may be in view of this receiver"
    )
