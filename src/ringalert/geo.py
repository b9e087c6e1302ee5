"""Spherical-earth geodesy: points, great-circle distances, bearings, displacement.

Everything works on a sphere of radius ``EARTH_RADIUS_KM``; distances are in
kilometers, angles in degrees, and courses are measured clockwise from true
north. Scalar functions take :class:`GeoPoint`; array kernels (suffix
``_deg`` / ``_km``) broadcast over numpy arrays. Distances come from one
``atan2`` kernel, :func:`arc_km` (Vincenty, Survey Review 23(176), 1975), and
:func:`great_circle_km` is it on one pair, bit for bit. :func:`haversine_km`
remains for the simulator's visibility test and the analytics, where it
suffices at about half the cost per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class GeoPoint:
    """A ground position. Latitude in [-90, +90], longitude folded into (-180, +180]."""

    lat_deg: float
    lon_deg: float

    def __post_init__(self):
        lat = float(self.lat_deg)
        lon = float(self.lon_deg)
        if not (math.isfinite(lat) and math.isfinite(lon)):
            raise InvalidCoordinate(f"non-finite coordinate ({self.lat_deg}, {self.lon_deg})")
        if not -90.0 <= lat <= 90.0:
            raise InvalidCoordinate(f"latitude {lat} outside [-90, +90]")
        object.__setattr__(self, "lat_deg", lat)
        object.__setattr__(self, "lon_deg", normalize_lon(lon))

    def to_dict(self) -> dict:
        return {"lat_deg": self.lat_deg, "lon_deg": self.lon_deg}

    @classmethod
    def from_dict(cls, data: dict) -> "GeoPoint":
        return cls(data["lat_deg"], data["lon_deg"])


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


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in km; broadcasts over degree arrays."""
    phi1 = np.radians(lat1)
    phi2 = np.radians(lat2)
    dphi = phi2 - phi1
    dlam = np.radians(lon2) - np.radians(lon1)
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def bearing_deg(lat1, lon1, lat2, lon2):
    """Initial bearing from point 1 to point 2, degrees in [0, 360)."""
    phi1 = np.radians(lat1)
    phi2 = np.radians(lat2)
    dlam = np.radians(lon2) - np.radians(lon1)
    y = np.sin(dlam) * np.cos(phi2)
    x = np.cos(phi1) * np.sin(phi2) - np.sin(phi1) * np.cos(phi2) * np.cos(dlam)
    return np.degrees(np.arctan2(y, x)) % 360.0


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
    """Unit ECEF-style direction vectors for degree arrays, shape (..., 3)."""
    phi = np.radians(lat)
    lam = np.radians(lon)
    cos_phi = np.cos(phi)
    return np.stack(
        [cos_phi * np.cos(lam), cos_phi * np.sin(lam), np.sin(phi)], axis=-1
    )


def interpolate_deg(lat1, lon1, lat2, lon2, fraction):
    """Geodesic (constant-speed great-circle) interpolation between two points.

    ``fraction`` 0 gives point 1, 1 gives point 2; broadcasts over arrays.
    """
    u = unit_vectors(lat1, lon1)
    v = unit_vectors(lat2, lon2)
    dot = np.clip(np.sum(u * v, axis=-1), -1.0, 1.0)
    omega = np.arccos(dot)
    f = np.asarray(fraction, dtype=float)
    sin_omega = np.sin(omega)
    # fall back to linear blend where the endpoints (anti)coincide
    safe = sin_omega > 1e-12
    w1 = np.where(safe, np.sin((1.0 - f) * omega) / np.where(safe, sin_omega, 1.0), 1.0 - f)
    w2 = np.where(safe, np.sin(f * omega) / np.where(safe, sin_omega, 1.0), f)
    w = u * w1[..., None] + v * w2[..., None]
    norm = np.linalg.norm(w, axis=-1)
    w = w / norm[..., None]
    lat = np.degrees(np.arcsin(np.clip(w[..., 2], -1.0, 1.0)))
    lon = np.degrees(np.arctan2(w[..., 1], w[..., 0]))
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
