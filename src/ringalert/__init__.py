"""Ring-alert log analytics, constellation simulation, and position verification."""

from .geo import EARTH_RADIUS_KM, GeoPoint, KmDistance, displace, great_circle_km
from .model import (
    BeamConstellation,
    DetectorConfig,
    EvdParams,
    MotionProfile,
    PowerLawCoeffs,
    valid_sat_ids,
)

__version__ = "0.1.0"

__all__ = [
    "EARTH_RADIUS_KM",
    "GeoPoint",
    "KmDistance",
    "displace",
    "great_circle_km",
    "BeamConstellation",
    "DetectorConfig",
    "EvdParams",
    "MotionProfile",
    "PowerLawCoeffs",
    "valid_sat_ids",
    "__version__",
]
