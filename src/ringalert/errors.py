"""Exception types shared across the package."""


class RingAlertError(Exception):
    """Base class for all errors raised by this package."""


class MalformedLine(RingAlertError):
    """A log line has the wrong field count or non-numeric fields."""


class InvalidSatId(RingAlertError):
    """Satellite ID is not one of the 66 known active IDs."""


class InvalidBeamId(RingAlertError):
    """Beam ID outside [0, 48]."""


class InvalidCoordinate(RingAlertError):
    """Latitude outside [-90, +90] or non-finite coordinate."""


class IoFailure(RingAlertError):
    """Wraps an OS-level read/write failure."""


class EmptyInput(RingAlertError):
    """An operation that needs at least one record got none."""


class DegenerateInput(RingAlertError):
    """Geometrically degenerate input (e.g. collinear points for a circle fit)."""


class InsufficientData(RingAlertError):
    """Too few samples for a statistical fit."""


class NonConvergence(RingAlertError):
    """An iterative fit failed to converge."""


class BinOverflow(RingAlertError):
    """A histogram bin width so small that a value's bin index overflows."""


class InsufficientBrackets(RingAlertError):
    """No beam record could be bracketed by track points."""


class NoBeamRecords(RingAlertError):
    """A position estimate was requested on a window with no beam records."""


class UnknownThreshold(RingAlertError):
    """Requested threshold has no fitted false-positive coefficients."""


class InvalidPer(RingAlertError):
    """Packet error rate outside the domain of the requested model."""


class NonPositiveValue(RingAlertError):
    """A log-scale fit received zero or negative values."""


class InsufficientWindows(RingAlertError):
    """Too few evaluation windows for an empirical rate estimate."""


class InvalidConfig(RingAlertError):
    """A configuration or scenario file holds unknown keys or unusable values."""
