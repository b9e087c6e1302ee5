"""Spherical-earth geodesy: points, great-circle distances, local offsets, displacement.

Everything works on a sphere of radius ``EARTH_RADIUS_KM``; distances are in
kilometers, angles in degrees, and courses are measured clockwise from true
north. Scalar functions take :class:`GeoPoint`; array kernels (suffix
``_deg`` / ``_km``) broadcast over numpy arrays. Degree pairs take one
``atan2`` distance kernel, :func:`arc_km` (Vincenty, Survey Review 23(176),
1975); :func:`great_circle_km` is it on one pair, bit for bit. The simulator
and the analytics work on :func:`unit_vectors` (n-vectors: Gade,
J. Navigation 63(3), 2010), measured by :func:`local_offsets_km`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidCoordinate

EARTH_RADIUS_KM = 6371.0


def normalize_lon(lon_deg: float) -> float:
    """Fold a longitude into (-180, +180]."""
    lon = float(lon_deg) % 360.0
    if lon > 180.0:
        lon -= 360.0
    return lon


def mod360(x):
    """``x % 360.0`` of a float array, bit for bit, at the cost of ``np.fmod``.

    This is numpy's own sign fix of the truncated remainder: a negative one
    moves up by 360, and adding zero turns a -0.0 result into +0.0.
    """
    r = np.fmod(x, 360.0)
    r += (r < 0) * 360.0
    return r


def normalize_lon_array(lon_deg: np.ndarray) -> np.ndarray:
    lon = mod360(np.asarray(lon_deg, dtype=float))
    return np.where(lon > 180.0, lon - 360.0, lon)


def _coordinate(value) -> float:
    """A coordinate as a float: a real number within a float's range, never a bool or a string."""
    try:
        # float first: numpy's float64 is one, and passes before the costlier ABC check
        if isinstance(value, (float, numbers.Real)) and not isinstance(value, bool):
            return float(value)
    except OverflowError:  # an integer past the largest float
        pass
    raise InvalidCoordinate(f"coordinate must be a finite number, got {value!r}")


@dataclass(frozen=True)
class GeoPoint:
    """A ground position. Latitude in [-90, +90], longitude folded into (-180, +180].
    Each coordinate is a real number, never a bool or a string."""

    lat_deg: float
    lon_deg: float

    def __post_init__(self):
        lat, lon = self.lat_deg, self.lon_deg
        if type(lat) is not float or type(lon) is not float:  # every push builds a point
            lat, lon = _coordinate(lat), _coordinate(lon)
            object.__setattr__(self, "lat_deg", lat)
        if not (math.isfinite(lat) and math.isfinite(lon)):
            raise InvalidCoordinate(f"non-finite coordinate ({self.lat_deg}, {self.lon_deg})")
        if not -90.0 <= lat <= 90.0:
            raise InvalidCoordinate(f"latitude {lat} outside [-90, +90]")
        object.__setattr__(self, "lon_deg", normalize_lon(lon))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "GeoPoint":
        return cls(**data)


@dataclass(frozen=True)
class KmDistance:
    """Non-negative distance in kilometers."""

    km: float

    def __post_init__(self):
        km = float(self.km)
        if not math.isfinite(km) or km < 0.0:
            raise ValueError(f"distance must be finite and >= 0, got {self.km}")
        object.__setattr__(self, "km", km)


# ---------------------------------------------------------------------------
# array kernels

def arc_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in km; broadcasts over degree arrays. The atan2
    form stays accurate near the antipode, where the haversine's arcsin loses digits."""
    phi1, phi2, dlam = np.radians(lat1), np.radians(lat2), np.radians(np.subtract(lon2, lon1))
    sin_phi1, cos_phi1, sin_phi2, cos_phi2 = np.sin(phi1), np.cos(phi1), np.sin(phi2), np.cos(phi2)
    cos_dlam = np.cos(dlam)
    y = np.hypot(cos_phi2 * np.sin(dlam), cos_phi1 * sin_phi2 - sin_phi1 * cos_phi2 * cos_dlam)
    return EARTH_RADIUS_KM * np.arctan2(y, sin_phi1 * sin_phi2 + cos_phi1 * cos_phi2 * cos_dlam)


def displace_deg(lat, lon, course_deg, d_km):
    """Destination along the initial-course great circle; broadcasts over arrays.

    Returns (lat2_deg, lon2_deg). The destination is taken as a unit vector:
    ``sin_phi2`` up the polar axis, ``x`` and ``y`` in the equatorial plane
    along and across the start meridian. Both angles then come from
    ``arctan2``, which keeps them accurate near the poles, where ``arcsin``
    of a sine close to 1 and the ``cos_delta - sin_phi * sin_phi2`` longitude
    term lose digits.
    """
    phi = np.radians(lat)
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    theta = np.radians(course_deg)
    delta = np.asarray(d_km, dtype=float) / EARTH_RADIUS_KM
    sin_delta = np.sin(delta)
    cos_delta = np.cos(delta)
    north = sin_delta * np.cos(theta)
    sin_phi2 = sin_phi * cos_delta + cos_phi * north
    x = cos_phi * cos_delta - sin_phi * north
    y = np.sin(theta) * sin_delta
    phi2 = np.arctan2(sin_phi2, np.sqrt(x * x + y * y))
    lam2 = np.radians(lon) + np.arctan2(y, x)
    return np.degrees(phi2), normalize_lon_array(np.degrees(lam2))


def unit_vectors(lat, lon):
    """Unit ECEF-style direction vectors for degree arrays, as (x, y, z) columns."""
    phi = np.radians(lat)
    lam = np.radians(lon)
    cos_phi = np.cos(phi)
    return cos_phi * np.cos(lam), cos_phi * np.sin(lam), np.sin(phi)


def local_offsets_km(s, b):
    """(east, north, distance) km of unit vectors ``b`` in the azimuthal-
    equidistant frame of unit vectors ``s``; each an (x, y, z) triple of
    columns, which broadcast.

    ``b·ê`` and ``b·n̂``, of length ``|s×b|``, are scaled by ``Rδ / |s×b|``
    with ``δ = atan2(|s×b|, s·b)``. At an exact pole, the frame is longitude 0's.
    """
    sx, sy, sz = s
    bx, by, bz = b
    rho = np.hypot(sx, sy)
    pole = rho == 0
    rho_or_1 = np.where(pole, 1.0, rho)
    cos_lam, sin_lam = np.where(pole, 1.0, sx / rho_or_1), sy / rho_or_1
    east = by * cos_lam - bx * sin_lam
    north = bz * rho - sz * (bx * cos_lam + by * sin_lam)
    sin_delta = np.hypot(east, north)
    delta = np.arctan2(sin_delta, sx * bx + sy * by + sz * bz)
    # delta / sin(delta) tends to 1 where b meets s
    moved = sin_delta > 0
    scale = EARTH_RADIUS_KM * np.where(moved, delta / np.where(moved, sin_delta, 1.0), 1.0)
    return east * scale, north * scale, EARTH_RADIUS_KM * delta


def slerp(u, v, fraction):
    """Unit vectors ``fraction`` of the way from ``u`` to ``v`` along the
    great circle, at constant speed; each an (x, y, z) triple of columns,
    which broadcast with ``fraction``. Sums run x, y, z, left to right."""
    (ux, uy, uz), (vx, vy, vz) = u, v
    dot = np.clip(ux * vx + uy * vy + uz * vz, -1.0, 1.0)
    omega = np.arccos(dot)
    f = np.asarray(fraction, dtype=float)
    sin_omega = np.sin(omega)
    # fall back to linear blend where the endpoints (anti)coincide
    safe = sin_omega > 1e-12
    w1 = np.where(safe, np.sin((1.0 - f) * omega) / np.where(safe, sin_omega, 1.0), 1.0 - f)
    w2 = np.where(safe, np.sin(f * omega) / np.where(safe, sin_omega, 1.0), f)
    wx, wy, wz = ux * w1 + vx * w2, uy * w1 + vy * w2, uz * w1 + vz * w2
    norm = np.sqrt(wx * wx + wy * wy + wz * wz)
    return wx / norm, wy / norm, wz / norm


def interpolate_deg(lat1, lon1, lat2, lon2, fraction):
    """Geodesic (constant-speed great-circle) interpolation between two points.

    ``fraction`` 0 gives point 1, 1 gives point 2; broadcasts over arrays.
    """
    x, y, z = slerp(unit_vectors(lat1, lon1), unit_vectors(lat2, lon2), fraction)
    lat = np.degrees(np.arcsin(np.clip(z, -1.0, 1.0)))
    lon = np.degrees(np.arctan2(y, x))
    return lat, normalize_lon_array(lon)


# ---------------------------------------------------------------------------
# scalar API

def great_circle_km(a: GeoPoint, b: GeoPoint) -> KmDistance:
    """Great-circle distance between two points: :func:`arc_km` of the pair."""
    return KmDistance(arc_km(a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg))


def displace(p: GeoPoint, course_deg: float, d_km: float) -> GeoPoint:
    """Move ``d_km`` km from ``p`` along the great circle with the given initial course."""
    d = float(d_km)
    if d == 0.0:
        return p
    lat, lon = displace_deg(p.lat_deg, p.lon_deg, course_deg, d)
    return GeoPoint(float(lat), float(lon))


def interpolate(a: GeoPoint, b: GeoPoint, fraction: float) -> GeoPoint:
    lat, lon = interpolate_deg(a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg, float(fraction))
    return GeoPoint(float(lat), float(lon))
