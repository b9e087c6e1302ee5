"""Parsing and validation of ring-alert log files, plus pass segmentation.

The expected layout is one message per line, whitespace- or comma-delimited:

    time_s  time_frac  sat_id  beam_id  lat  lon
    1580712040 000000739 115 0 +29.81 +046.10

``time_frac`` is a 9-digit zero-padded sub-second counter (unit configurable,
default microseconds), latitudes/longitudes are signed decimal degrees.
Invalid lines are quarantined and counted, never silently dropped.

:func:`parse_table` parses lines in the canonical layout column-wise over the
whole file and hands every other line to :func:`parse_line`; both paths put
a line in the same class.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyInput,
    InvalidBeamId,
    InvalidCoordinate,
    InvalidSatId,
    IoFailure,
    MalformedLine,
)
from .geo import GeoPoint, normalize_lon_array
from .model import (
    DEFAULT_FRAC_UNIT_S,
    MAX_BEAM_ID,
    Direction,
    IraRecord,
    Pass,
    RecordTable,
    valid_sat_ids,
)

DEFAULT_GAP_THRESHOLD_S = 600.0


_INT64 = np.iinfo(np.int64)


@dataclass
class IngestReport:
    """Per-class accept/quarantine counters for one parsed stream."""

    total_lines: int = 0
    accepted: int = 0
    blank: int = 0
    malformed: int = 0
    invalid_sat_id: int = 0
    invalid_beam_id: int = 0
    invalid_coordinate: int = 0
    invalid_frac: int = 0
    duplicate: int = 0
    quarantined_lines: list = field(default_factory=list)

    @property
    def quarantined(self) -> int:
        return (self.malformed + self.invalid_sat_id + self.invalid_beam_id
                + self.invalid_coordinate + self.invalid_frac + self.duplicate)

    def reconciles(self) -> bool:
        return self.total_lines == self.accepted + self.blank + self.quarantined

    def to_dict(self) -> dict:
        return {
            "total_lines": self.total_lines,
            "accepted": self.accepted,
            "blank": self.blank,
            "malformed": self.malformed,
            "invalid_sat_id": self.invalid_sat_id,
            "invalid_beam_id": self.invalid_beam_id,
            "invalid_coordinate": self.invalid_coordinate,
            "invalid_frac": self.invalid_frac,
            "duplicate": self.duplicate,
            "quarantined": self.quarantined,
        }


def parse_line(line: str, lineno: int | None = None) -> IraRecord:
    """Parse one log line into a validated record.

    Raises MalformedLine, InvalidSatId, InvalidBeamId, or InvalidCoordinate.
    The two time fields must fit in 64 bits.
    """
    parts = line.replace(",", " ").split()
    if len(parts) != 6:
        raise MalformedLine(f"expected 6 fields, got {len(parts)}", lineno)
    try:
        epoch_s = int(parts[0])
        frac = int(parts[1])
        sat_id = int(parts[2])
        beam_id = int(parts[3])
        lat = float(parts[4])
        lon = float(parts[5])
    except ValueError as exc:
        raise MalformedLine(f"non-numeric field in {parts!r}", lineno) from exc
    if frac < 0:
        raise MalformedLine(f"negative sub-second counter {frac}", lineno)
    if not _INT64.min <= epoch_s <= _INT64.max or frac > _INT64.max:
        raise MalformedLine("time field does not fit in 64 bits", lineno)
    return IraRecord(epoch_s, frac, sat_id, beam_id, GeoPoint(lat, lon))


def format_line(record: IraRecord) -> str:
    """Render a record in the canonical log layout (inverse of parse_line)."""
    return (
        f"{record.epoch_s} {record.frac:09d} {record.sat_id} {record.beam_id} "
        f"{record.ground.lat_deg:+010.6f} {record.ground.lon_deg:+011.6f}"
    )


# ---------------------------------------------------------------------------
# columnar parsing

_SPACE, _DOT, _PLUS, _MINUS, _NEWLINE = (ord(c) for c in " .+-\n")
#: digits of an integer field in the canonical layout; more may not fit int64
_MAX_INT_DIGITS = 18
#: digits of a decimal field; up to 15 the mantissa is exact in a double
_MAX_DECIMAL_DIGITS = 15
_POW10_FLOAT = 10.0 ** np.arange(_MAX_DECIMAL_DIGITS + 1)
_SAT_IDS = np.array(sorted(valid_sat_ids()), dtype=np.int64)


def _read_lines(source) -> tuple[str, np.ndarray, np.ndarray, np.ndarray]:
    """Text of the source, its bytes (see :func:`_ascii_bytes`), and the
    [start, end) span of each line's content.

    Offsets count characters; the trailing newline is not content. A path is
    read whole in text mode, whose universal newlines split lines exactly
    where iterating the file does; a byte that is not UTF-8 becomes U+FFFD,
    which no field accepts, so its line is quarantined as malformed.
    Anything else is iterated.
    """
    if isinstance(source, (str, os.PathLike)):
        try:
            fh = open(source, "r", encoding="utf-8", errors="replace")
        except OSError as exc:
            raise IoFailure(f"cannot open {exc.filename}: {exc.strerror}") from exc
        try:
            with fh:
                text = fh.read()
        except OSError as exc:
            raise IoFailure(f"read failure: {exc}") from exc
        buf = _ascii_bytes(text)
        ends = np.flatnonzero(buf == _NEWLINE)
        starts = np.concatenate(([0], ends + 1))
        if text and not text.endswith("\n"):
            ends = np.append(ends, len(text))
        return text, buf, starts[:ends.size], ends
    try:
        lines = list(source)
    except OSError as exc:
        raise IoFailure(f"read failure: {exc}") from exc
    text = "".join(lines)
    buf = _ascii_bytes(text)
    lengths = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
    ends = np.cumsum(lengths)
    starts = ends - lengths
    own_newline = np.zeros(len(lines), dtype=bool)
    nonempty = lengths > 0
    own_newline[nonempty] = buf[ends[nonempty] - 1] == _NEWLINE
    return text, buf, starts, ends - own_newline


def _ascii_bytes(text: str) -> np.ndarray:
    """One byte per character; every non-ASCII character becomes '?'."""
    return np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)


def _columns(buf: np.ndarray, hi: np.ndarray, width: int):
    """The last ``width`` bytes before each ``hi``, one array per byte position."""
    for k in range(width):
        yield buf.take(hi - (width - k), mode="clip")


def _int_field(buf, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """(ok, value) of fields that must be 1 to 18 plain decimal digits."""
    n_digits = hi - lo
    width = int(min(n_digits.max(initial=1), _MAX_INT_DIGITS))
    ok = (n_digits >= 1) & (n_digits <= width)
    value = np.zeros(lo.size, dtype=np.int64)
    for k, chars in enumerate(_columns(buf, hi, width)):
        digit = np.where(n_digits >= width - k, chars - np.uint8(48), 0)
        ok &= digit <= 9
        value = value * 10 + digit
    return ok, value


def _decimal_field(buf, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """(ok, value) of fields of the form [+-]digits.digits with at most 15
    digits; the value is the correctly rounded double, as float() gives."""
    n_chars = hi - lo
    width = int(min(n_chars.max(initial=1), _MAX_DECIMAL_DIGITS + 2))
    first = buf.take(lo, mode="clip")
    signed = (first == _PLUS) | (first == _MINUS)
    body_from = width - n_chars + signed  # first byte column after the sign
    ok = n_chars <= width
    dots = np.zeros(lo.size, dtype=np.int64)
    n_frac = np.zeros(lo.size, dtype=np.int64)
    mantissa = np.zeros(lo.size, dtype=np.int64)
    for k, chars in enumerate(_columns(buf, hi, width)):
        body = k >= body_from
        is_dot = body & (chars == _DOT)
        digit = chars - np.uint8(48)
        is_digit = body & (digit <= 9)
        ok &= ~body | is_dot | is_digit
        dots += is_dot
        n_frac += is_digit & (dots > 0)
        mantissa = np.where(is_digit, mantissa * 10 + digit, mantissa)
    n_int = n_chars - signed - 1 - n_frac
    ok &= (dots == 1) & (n_frac >= 1) & (n_int >= 1) & (n_int + n_frac <= _MAX_DECIMAL_DIGITS)
    # below 2**53 the mantissa and the power of ten are exact, so one division rounds correctly
    value = mantissa / _POW10_FLOAT[np.clip(n_frac, 0, _MAX_DECIMAL_DIGITS)]
    return ok, np.where(first == _MINUS, -value, value)


def _parse_canonical(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Lines in the canonical layout: six fields split by single spaces, four
    plain-digit integers then two [+-]d.d decimals.

    Returns the indices of those lines and their six columns (longitudes not
    yet folded); every other line is left to :func:`parse_line`.
    """
    spaces = np.concatenate((np.flatnonzero(buf == _SPACE), np.full(6, buf.size)))
    first = np.searchsorted(spaces, starts)
    # the line holds its first five spaces but not a sixth
    idx = np.flatnonzero((spaces[first + 4] < ends) & (spaces[first + 5] >= ends))
    first = first[idx]
    ok = np.ones(idx.size, dtype=bool)
    columns = []
    lo = starts[idx]
    for k in range(6):
        hi = spaces[first + k] if k < 5 else ends[idx]
        field_ok, value = (_int_field if k < 4 else _decimal_field)(buf, lo, hi)
        ok &= field_ok
        columns.append(value)
        lo = hi + 1
    return idx[ok], [c[ok] for c in columns]


def parse_table(source, frac_unit_s: float = DEFAULT_FRAC_UNIT_S) -> tuple[RecordTable, IngestReport]:
    """Parse a path, file object, or iterable of lines into a record table.

    Lines in the canonical layout (what :func:`write_records` writes) are
    parsed and validated column-wise; every other line goes through
    :func:`parse_line`, so each line lands in the class ``parse_line`` gives
    it. Accepted lines whose sub-second counter reaches one second in
    ``frac_unit_s`` are quarantined as ``invalid_frac``; a line whose
    (epoch_s, frac, sat_id) equals an earlier accepted line's as
    ``duplicate``. Only OS-level failures raise (IoFailure).
    """
    text, buf, starts, ends = _read_lines(source)
    report = IngestReport(total_lines=int(starts.size))
    idx, (epoch_s, frac, sat_id, beam_id, lat, lon) = _parse_canonical(buf, starts, ends)
    bad_coordinate = (lat < -90.0) | (lat > 90.0)
    bad_sat = ~bad_coordinate & ~np.isin(sat_id, _SAT_IDS)
    bad_beam = ~bad_coordinate & ~bad_sat & ((beam_id < 0) | (beam_id > MAX_BEAM_ID))
    good = ~(bad_coordinate | bad_sat | bad_beam)
    report.invalid_coordinate = int(bad_coordinate.sum())
    report.invalid_sat_id = int(bad_sat.sum())
    report.invalid_beam_id = int(bad_beam.sum())
    quarantined = [idx[~good] + 1]

    slow_rows, slow_quarantined = [], []
    slow = np.ones(starts.size, dtype=bool)
    slow[idx] = False
    for i in np.flatnonzero(slow).tolist():
        lineno = i + 1
        stripped = text[starts[i]:ends[i]].strip()
        if not stripped:
            report.blank += 1
            continue
        try:
            r = parse_line(stripped, lineno)
        except MalformedLine:
            report.malformed += 1
        except InvalidSatId:
            report.invalid_sat_id += 1
        except InvalidBeamId:
            report.invalid_beam_id += 1
        except InvalidCoordinate:
            report.invalid_coordinate += 1
        else:
            slow_rows.append((lineno, r.epoch_s, r.frac, r.sat_id, r.beam_id,
                              r.ground.lat_deg, r.ground.lon_deg))
            continue
        slow_quarantined.append(lineno)
    quarantined.append(np.array(slow_quarantined, dtype=np.int64))

    # accepted by parse_line's rules: canonical lines in the first part, the rest after
    slow_ints = np.array([row[:5] for row in slow_rows], dtype=np.int64).reshape(-1, 5)
    slow_floats = np.array([row[5:] for row in slow_rows], dtype=float).reshape(-1, 2)
    lines, epoch_s, frac, sat_id, beam_id, lat, lon = (
        np.concatenate(pair) for pair in zip(
            (idx[good] + 1, epoch_s[good], frac[good], sat_id[good], beam_id[good],
             lat[good], normalize_lon_array(lon[good])),
            (*slow_ints.T, *slow_floats.T)))

    bad_frac = frac * frac_unit_s >= 1.0
    report.invalid_frac = int(bad_frac.sum())
    quarantined.append(lines[bad_frac])
    keep = np.flatnonzero(~bad_frac)
    # one sort of the keys finds each repeat of an earlier line's (epoch_s, frac, sat_id)
    order = keep[np.lexsort((lines[keep], sat_id[keep], frac[keep], epoch_s[keep]))]
    repeat = np.zeros(order.size, dtype=bool)
    repeat[1:] = ((np.diff(epoch_s[order]) == 0) & (np.diff(frac[order]) == 0)
                  & (np.diff(sat_id[order]) == 0))
    report.duplicate = int(repeat.sum())
    quarantined.append(lines[order[repeat]])
    kept = order[~repeat]
    kept = kept[np.lexsort((lines[kept], frac[kept], epoch_s[kept]))]
    report.accepted = int(kept.size)
    report.quarantined_lines = np.sort(np.concatenate(quarantined)).tolist()
    table = RecordTable(*(c[kept] for c in (epoch_s, frac, sat_id, beam_id, lat, lon)))
    return table, report


def parse_stream(source, frac_unit_s: float = DEFAULT_FRAC_UNIT_S) -> tuple[list[IraRecord], IngestReport]:
    """:func:`parse_table` with the accepted rows as a time-sorted record list."""
    table, report = parse_table(source, frac_unit_s)
    return table.rows(), report


# ---------------------------------------------------------------------------
# columnar writing

_POW10_U64 = 10 ** np.arange(20, dtype=np.uint64)


def _int_chars(values: np.ndarray, min_width: int) -> np.ndarray:
    """``f"{v:0{min_width}d}"`` of each value as right-aligned byte rows,
    padded on the left with NUL."""
    negative = values < 0
    rest = np.abs(values).astype(np.uint64)  # |int64 min| wraps to 2**63 here
    n_digits = np.maximum(np.searchsorted(_POW10_U64, rest, side="right"), 1)
    width = np.maximum(n_digits + negative, min_width)
    chars = np.zeros((values.size, int(width.max(initial=min_width))), dtype=np.uint8)
    for power in range(chars.shape[1]):
        quotient = rest // np.uint64(10)
        digit = (rest - quotient * np.uint64(10)).astype(np.uint8) + 48
        chars[:, -1 - power] = np.where(power < width - negative, digit,
                                        np.where(negative & (power == width - 1), _MINUS, 0))
        rest = quotient
    return chars


def _fixed6_chars(values: np.ndarray, min_width: int) -> np.ndarray:
    """``f"{v:+0{min_width}.6f}"`` of each value as byte rows padded with NUL."""
    magnitude = np.abs(values)
    scaled = magnitude * 1e6
    micro = np.rint(scaled).astype(np.int64)
    # near a half the product's rounding may pick the wrong neighbour: ask float formatting
    tie = np.flatnonzero(np.abs(scaled - np.floor(scaled) - 0.5) <= 4 * np.spacing(scaled))
    micro[tie] = [int(format(v, ".6f").replace(".", "")) for v in magnitude[tie].tolist()]
    sign = np.where(np.signbit(values), _MINUS, _PLUS).astype(np.uint8)
    return np.hstack((sign[:, None],
                      _int_chars(micro // 1_000_000, min_width - 8),
                      np.full((values.size, 1), _DOT, dtype=np.uint8),
                      _int_chars(micro % 1_000_000, 6)))


def write_records(records, path) -> None:
    """Write records to ``path`` in the canonical log layout, column by column.

    ``records`` is a :class:`RecordTable` or a record sequence; each line is
    byte-identical to :func:`format_line` of its row.
    """
    table = RecordTable.from_records(records)
    n = len(table)
    space = np.full((n, 1), _SPACE, dtype=np.uint8)
    chars = np.hstack((
        _int_chars(table.epoch_s, 1), space, _int_chars(table.frac, 9), space,
        _int_chars(table.sat_id, 1), space, _int_chars(table.beam_id, 1), space,
        _fixed6_chars(table.lat, 10), space, _fixed6_chars(table.lon, 11),
        np.full((n, 1), _NEWLINE, dtype=np.uint8),
    ))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(chars[chars != 0].tobytes().decode("ascii"))
    except OSError as exc:
        raise IoFailure(f"write failure: {exc}") from exc


# ---------------------------------------------------------------------------
# grouping and pass segmentation

def segment_passes(records, gap_threshold_s: float = DEFAULT_GAP_THRESHOLD_S,
                   frac_unit_s: float = DEFAULT_FRAC_UNIT_S) -> list[Pass]:
    """Split one satellite's records into passes.

    Records separated by more than ``gap_threshold_s`` start a new pass. The
    default of 600 s sits between loss-induced intra-pass gaps (seconds to a
    few minutes) and the revisit time of the same satellite (>= the orbital
    period). Direction is the sign of the net latitude change of the
    sub-satellite track; duration is last minus first timestamp.
    """
    table = RecordTable.from_records(records)
    if not len(table):
        raise EmptyInput("segment_passes needs at least one record")
    sat_id = int(table.sat_id[0])
    if np.any(table.sat_id != sat_id):
        raise ValueError("segment_passes expects a single satellite, "
                         f"got {np.unique(table.sat_id).tolist()}")
    times = table.t_s(frac_unit_s)
    cuts = (np.flatnonzero(np.diff(times) > gap_threshold_s) + 1).tolist()
    track = table.is_track
    passes = []
    for lo, hi in zip([0, *cuts], [*cuts, len(table)]):
        lats = table.lat[lo:hi][track[lo:hi]]
        if not lats.size:  # degraded chunk without track points: fall back to all records
            lats = table.lat[lo:hi]
        direction = Direction.UPWARD if lats[-1] >= lats[0] else Direction.DOWNWARD
        duration_min = float(times[hi - 1] - times[lo]) / 60.0
        passes.append(Pass(sat_id, table[lo:hi], direction, duration_min))
    return passes


def group_by_satellite(records) -> dict[int, RecordTable]:
    """Time-sorted records keyed by satellite id (keys ascending), one table each."""
    return RecordTable.from_records(records).by_satellite()
