"""Parsing and validation of ring-alert log files, plus pass segmentation.

The expected layout is one message per line, whitespace- or comma-delimited:

    time_s  time_frac  sat_id  beam_id  lat  lon
    1580712040 000000739 115 0 +29.81 +046.10

``time_frac`` is a 9-digit zero-padded sub-second counter (unit configurable,
default microseconds), latitudes/longitudes are signed decimal degrees.
Invalid lines are quarantined and counted, never silently dropped.

That example line is in the receiver's layout, two decimals of degrees.
:func:`write_records` writes the same fields with six:
``1580712040 000000739 115 0 +29.810000 +046.100000``. :func:`parse_table`
reads lines in either layout at fixed byte offsets, column-wise over the
whole file, and hands every other line to :func:`parse_line`; both tiers
put a line in the same class.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    The two time fields must fit in 64 bits. One line is the unit here: this
    is :func:`parse_table`'s tier for lines outside the fixed layouts, and
    the per-line rule its column-wise tier must agree with.
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


# ---------------------------------------------------------------------------
# columnar parsing

_SPACE, _DOT, _PLUS, _MINUS, _NEWLINE, _RETURN = (ord(c) for c in " .+-\n\r")
_SAT_IDS = np.array(sorted(valid_sat_ids()), dtype=np.int64)

#: Layouts are spelled byte by byte: ``d`` is a digit, ``s`` a sign, ``m`` a
#: byte of the "sat beam" middle, anything else itself. Every fixed layout
#: shares this head (time_s, time_frac), read from the line start; its tail
#: (the widest middle, lat, lon) is read from the line end. The middle is 3
#: to 6 bytes.
_HEAD = "dddddddddd ddddddddd "
_MIDDLE = 6
#: lines gathered per step of :func:`_block`
_BLOCK_LINES = 4096


class _Layout(NamedTuple):
    """A layout read at fixed offsets: lat as ``%+0{lat_width}.{decimals}f``,
    lon as ``%+0{lon_width}.{decimals}f``."""

    decimals: int
    lat_width: int
    lon_width: int
    tail: str
    widths: range  # of whole lines, from the narrowest middle to the widest


def _layout(decimals: int) -> _Layout:
    digits = "d" * decimals
    tail = f"{'m' * _MIDDLE} sdd.{digits} sddd.{digits}"
    outside = len(_HEAD) + len(tail) - _MIDDLE
    return _Layout(decimals, decimals + 4, decimals + 5, tail,
                   range(outside + 3, outside + _MIDDLE + 1))


#: the layout :func:`write_records` writes, and the receiver's two-decimal
#: one; their line widths (47-50 and 39-42 bytes) do not overlap
_WRITER, _RECEIVER = _layout(6), _layout(2)


def _read_lines(source) -> tuple[bytes | str, np.ndarray, np.ndarray, np.ndarray]:
    r"""Content of the source, its bytes, and the [start, end) span of each
    line's content in both.

    The trailing line break is not content. A path is read whole as bytes
    and split where text-mode iteration splits it, at ``\n``, ``\r\n`` and a
    lone ``\r``; its content is the bytes. Anything else is iterated, and its
    content is the text, one byte per character in the buffer, with every
    non-ASCII character as '?'; a text file object that cannot decode its
    bytes is a read failure. Either way no field accepts a byte of a
    non-ASCII character, so such lines are left to :func:`parse_line`.
    """
    if isinstance(source, (str, os.PathLike)):
        try:
            fh = open(source, "rb")
        except OSError as exc:
            raise IoFailure(f"cannot open {exc.filename}: {exc.strerror}") from exc
        try:
            with fh:
                data = fh.read()
        except OSError as exc:
            raise IoFailure(f"read failure: {exc}") from exc
        buf = np.frombuffer(data, dtype=np.uint8)
        ends = np.flatnonzero(buf == _NEWLINE)
        line_from = ends + 1
        if b"\r" in data:
            ends = np.flatnonzero((buf == _NEWLINE) | (buf == _RETURN))
            crlf = (buf[ends] == _RETURN) & (buf.take(ends + 1, mode="clip") == _NEWLINE)
            second_half = np.concatenate(([False], crlf[:-1]))  # the \n of a \r\n
            ends, line_from = ends[~second_half], (ends + 1 + crlf)[~second_half]
        starts = np.concatenate(([0], line_from))
        if data and data[-1:] not in b"\r\n":
            ends = np.append(ends, len(data))
        return data, buf, starts[:ends.size], ends
    try:
        lines = list(source)
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"read failure: {exc}") from exc
    text = "".join(lines)
    buf = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
    lengths = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
    ends = np.cumsum(lengths)
    starts = ends - lengths
    own_newline = np.zeros(len(lines), dtype=bool)
    nonempty = lengths > 0
    own_newline[nonempty] = buf[ends[nonempty] - 1] == _NEWLINE
    return text, buf, starts, ends - own_newline


def _line_text(content: bytes | str, start: int, end: int) -> str:
    line = content[start:end]
    return line.decode("utf-8", "replace") if isinstance(line, bytes) else line


# ---- first tier: the fixed layouts, column-wise

def _block(buf: np.ndarray, lo: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes from each ``lo``, as the columns of one contiguous
    (width, n) block: row k holds byte k of every line.

    Lines are gathered and transposed a few thousand at a time, which keeps
    both sides of the transpose in cache (twice as fast as one transpose).
    """
    block = np.empty((width, lo.size), dtype=np.uint8)
    if lo.size:  # else the buffer may be shorter than width
        windows = sliding_window_view(buf, width)
        for i in range(0, lo.size, _BLOCK_LINES):
            block[:, i:i + _BLOCK_LINES] = windows[lo[i:i + _BLOCK_LINES]].T
    return block


def _matches(block: np.ndarray, pattern: str) -> np.ndarray:
    """Columns of ``block`` whose bytes fit ``pattern`` (``m`` rows unchecked)."""
    ok = np.ones(block.shape[1], dtype=bool)
    for row, kind in zip(block, pattern):
        if kind == "d":
            ok &= row - np.uint8(48) <= 9
        elif kind == "s":
            ok &= (row == _PLUS) | (row == _MINUS)
        elif kind != "m":
            ok &= row == ord(kind)
    return ok


def _horner(rows: np.ndarray) -> np.ndarray:
    """The decimal value of rows of ASCII digits, most significant first."""
    value = rows[0].astype(np.int64)
    for row in rows[1:]:
        value *= 10
        value += row
    value -= 48 * (10 ** len(rows) - 1) // 9  # each byte is its digit + 48
    return value


def _fixed(block: np.ndarray, at: int, width: int, decimals: int) -> np.ndarray:
    """The ``%+0{width}.{decimals}f`` field whose sign is row ``at``, as float() reads it."""
    dot = at + width - 1 - decimals
    mantissa = _horner(block[at + 1:dot])
    mantissa *= 10 ** decimals
    mantissa += _horner(block[dot + 1:at + width])
    # below 2**53 the mantissa and the power of ten are exact, so one division rounds correctly
    value = mantissa / 10.0 ** decimals
    return np.negative(value, out=value, where=block[at] == _MINUS)


def _parse_fixed(buf: np.ndarray, starts: np.ndarray, width: np.ndarray, layout: _Layout):
    """Lines in ``layout``, every byte checked, given the lines' starts and widths.

    Returns the indices of those lines and their six columns (longitudes not
    yet folded), which equal what :func:`parse_line` gives them.
    """
    idx = np.flatnonzero((width >= layout.widths.start) & (width < layout.widths.stop))
    head = _block(buf, starts[idx], len(_HEAD))
    tail = _block(buf, starts[idx] + width[idx] - len(layout.tail), len(layout.tail))
    ok = _matches(head, _HEAD) & _matches(tail, layout.tail)
    # The middle ends its rows: sat digits, one space, and a 1- or 2-digit
    # beam. The head's bytes before it are checked there.
    middle, rows = tail[:_MIDDLE], np.arange(_MIDDLE)[:, None]
    n_middle = width[idx] - (layout.widths.start - 3)
    beam_digits = 1 + (middle[_MIDDLE - 3] == _SPACE)
    outside, is_space = rows < _MIDDLE - n_middle, rows == _MIDDLE - 1 - beam_digits
    ok &= n_middle >= beam_digits + 2
    ok &= np.all(outside | ((middle == _SPACE) == is_space), axis=0)
    middle[outside | is_space] = ord("0")  # sat, a zero digit for the space, beam
    ok &= np.all(middle - np.uint8(48) <= 9, axis=0)
    keep = np.flatnonzero(ok)
    sat_beam, beam_scale = _horner(middle)[keep], 10 ** beam_digits[keep]
    return idx[keep], [
        _horner(head[0:10])[keep], _horner(head[11:20])[keep],
        sat_beam // (10 * beam_scale), sat_beam % beam_scale,
        _fixed(tail, layout.tail.index("s"), layout.lat_width, layout.decimals)[keep],
        _fixed(tail, layout.tail.rindex("s"), layout.lon_width, layout.decimals)[keep]]


def _parse_columns(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The first tier: the indices of the lines in the writer's or the
    receiver's layout, and their six columns."""
    width = ends - starts
    (writer, writer_columns), (receiver, receiver_columns) = (
        _parse_fixed(buf, starts, width, layout) for layout in (_WRITER, _RECEIVER))
    return (_joined(writer, receiver),
            [_joined(*pair) for pair in zip(writer_columns, receiver_columns)])


def _joined(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``np.concatenate((first, second))``, with no copy when either is empty."""
    if not first.size:
        return second
    return np.concatenate((first, second)) if second.size else first


def _in_key_order(epoch_s: np.ndarray, frac: np.ndarray, sat_id: np.ndarray) -> bool:
    """Whether (epoch_s, frac, sat_id) strictly increases from row to row."""
    e0, e1, f0, f1 = epoch_s[:-1], epoch_s[1:], frac[:-1], frac[1:]
    later = (f1 > f0) | ((f1 == f0) & (sat_id[1:] > sat_id[:-1]))
    return bool(np.all((e1 > e0) | ((e1 == e0) & later)))


def parse_table(source, frac_unit_s: float = DEFAULT_FRAC_UNIT_S) -> tuple[RecordTable, IngestReport]:
    """Parse a path, file object, or iterable of lines into a record table.

    Lines in the writer's layout (:func:`write_records`) or the receiver's
    (lat and lon to two decimals) are read at fixed offsets, column-wise over
    the whole input. Every other line goes through :func:`parse_line`, and
    each line lands in the class ``parse_line`` gives it. Accepted lines
    whose sub-second counter reaches one second in ``frac_unit_s`` are
    quarantined as ``invalid_frac``; a line whose (epoch_s, frac, sat_id)
    equals an earlier accepted line's as ``duplicate``. The table carries
    ``frac_unit_s``. Only OS-level failures raise (IoFailure).
    """
    content, buf, starts, ends = _read_lines(source)
    report = IngestReport(total_lines=int(starts.size))
    idx, (epoch_s, frac, sat_id, beam_id, lat, lon) = _parse_columns(buf, starts, ends)
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
        stripped = _line_text(content, starts[i], ends[i]).strip()
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

    # the rows parse_line's rules accept, in line order
    slow_ints = np.array([row[:5] for row in slow_rows], dtype=np.int64).reshape(-1, 5)
    slow_floats = np.array([row[5:] for row in slow_rows], dtype=float).reshape(-1, 2)
    lon = normalize_lon_array(lon)
    lines, epoch_s, frac, sat_id, beam_id, lat, lon = (
        _joined(column[good], slow_column) for column, slow_column in zip(
            (idx + 1, epoch_s, frac, sat_id, beam_id, lat, lon), (*slow_ints.T, *slow_floats.T)))
    if np.any(lines[1:] < lines[:-1]):
        by_line = np.argsort(lines, kind="stable")
        lines, epoch_s, frac, sat_id, beam_id, lat, lon = (
            c[by_line] for c in (lines, epoch_s, frac, sat_id, beam_id, lat, lon))

    bad_frac = frac * frac_unit_s >= 1.0
    report.invalid_frac = int(bad_frac.sum())
    quarantined.append(lines[bad_frac])
    if report.invalid_frac:
        lines, epoch_s, frac, sat_id, beam_id, lat, lon = (
            c[~bad_frac] for c in (lines, epoch_s, frac, sat_id, beam_id, lat, lon))
    if _in_key_order(epoch_s, frac, sat_id):
        kept = slice(None)  # no key repeats, and line order is (epoch_s, frac) order
    else:
        # one sort of the keys finds each repeat of an earlier line's (epoch_s, frac, sat_id)
        order = np.lexsort((lines, sat_id, frac, epoch_s))
        repeat = np.zeros(order.size, dtype=bool)
        repeat[1:] = ((np.diff(epoch_s[order]) == 0) & (np.diff(frac[order]) == 0)
                      & (np.diff(sat_id[order]) == 0))
        report.duplicate = int(repeat.sum())
        quarantined.append(lines[order[repeat]])
        kept = order[~repeat]
        kept = kept[np.lexsort((lines[kept], frac[kept], epoch_s[kept]))]
    table = RecordTable(*(c[kept] for c in (epoch_s, frac, sat_id, beam_id, lat, lon)),
                        frac_unit_s)
    report.accepted = len(table)
    report.quarantined_lines = np.sort(np.concatenate(quarantined)).tolist()
    return table, report


def parse_stream(source, frac_unit_s: float = DEFAULT_FRAC_UNIT_S) -> tuple[list[IraRecord], IngestReport]:
    """:func:`parse_table` with the accepted rows as a time-sorted record list.

    One arrival is the unit here: the list feeds a replay that pushes record
    by record into :meth:`detector.WindowedDetector.push`.
    """
    table, report = parse_table(source, frac_unit_s)
    return [IraRecord(e, f, s, b, GeoPoint(lat, lon))
            for e, f, s, b, lat, lon in zip(*(c.tolist() for c in table.columns()))], report


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


def write_records(table: RecordTable, path) -> None:
    """Write a table to ``path`` in the writer's layout, column by column.

    Each line is ``f"{epoch_s} {frac:09d} {sat_id} {beam_id} {lat:+010.6f}
    {lon:+011.6f}"`` of its row, byte for byte.
    """
    n = len(table)
    space = np.full((n, 1), _SPACE, dtype=np.uint8)
    chars = np.hstack((
        _int_chars(table.epoch_s, 1), space, _int_chars(table.frac, 9), space,
        _int_chars(table.sat_id, 1), space, _int_chars(table.beam_id, 1), space,
        _fixed6_chars(table.lat, _WRITER.lat_width), space,
        _fixed6_chars(table.lon, _WRITER.lon_width),
        np.full((n, 1), _NEWLINE, dtype=np.uint8),
    ))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(chars[chars != 0].tobytes().decode("ascii"))
    except OSError as exc:
        raise IoFailure(f"write failure: {exc}") from exc


# ---------------------------------------------------------------------------
# grouping and pass segmentation

def segment_passes(table: RecordTable,
                   gap_threshold_s: float = DEFAULT_GAP_THRESHOLD_S) -> list[Pass]:
    """Split one satellite's records into passes.

    Records separated by more than ``gap_threshold_s`` start a new pass. The
    default of 600 s sits between loss-induced intra-pass gaps (seconds to a
    few minutes) and the revisit time of the same satellite (>= the orbital
    period). Direction is the sign of the net latitude change of the
    sub-satellite track; duration is last minus first timestamp.
    """
    if not len(table):
        raise EmptyInput("segment_passes needs at least one record")
    sat_id = int(table.sat_id[0])
    if np.any(table.sat_id != sat_id):
        raise ValueError("segment_passes expects a single satellite, "
                         f"got {np.unique(table.sat_id).tolist()}")
    times = table.t_s()
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


def group_by_satellite(table: RecordTable) -> dict[int, RecordTable]:
    """Time-sorted records keyed by satellite id (keys ascending), one table each."""
    return table.by_satellite()
