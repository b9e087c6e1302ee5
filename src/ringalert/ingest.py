"""Parsing and validation of ring-alert log files, plus pass segmentation.

The expected layout is one message per line, whitespace- or comma-delimited:

    time_s  time_frac  sat_id  beam_id  lat  lon
    1580712040 000000739 115 0 +29.81 +046.10

``time_frac`` is a 9-digit zero-padded sub-second counter (unit configurable,
default microseconds), latitudes/longitudes are signed decimal degrees.
Invalid lines are quarantined and counted, never silently dropped.

That example line is in the receiver's layout, two decimals of degrees.
:func:`write_records` writes the same fields with six:
``1580712040 000000739 115 0 +29.810000 +046.100000``. Both sides work on
blocks of lines held as byte columns, row k holding byte k of every line:
the writer builds each block's fields as digit rows at their offsets and
writes the block to a binary file as is; :func:`parse_table` reads a path as
bytes, a block of lines at a time, takes lines in either layout at fixed
byte offsets, and hands every other line to :func:`parse_line`; both tiers
put a line in the same class.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from functools import cache
from dataclasses import dataclass, field, fields
from typing import NamedTuple

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
    IraRecord,
    Passes,
    RecordTable,
    _VALID_SAT_IDS,
    _key_steps,
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
        """The counters, and ``quarantined`` in place of the quarantined lines."""
        counts = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.name != "quarantined_lines"}
        return {**counts, "quarantined": self.quarantined}


def parse_line(line: str) -> IraRecord:
    """Parse one log line into a validated record.

    Raises MalformedLine, then InvalidCoordinate, InvalidSatId or InvalidBeamId,
    in that order. The two time fields must fit in 64 bits. One line is the
    unit here: this is the whole per-line rule, :func:`parse_table`'s tier for
    lines outside the fixed layouts, and the rule its column-wise tier keeps.
    """
    parts = line.replace(",", " ").split()
    if len(parts) != 6:
        raise MalformedLine(f"expected 6 fields, got {len(parts)}")
    try:
        epoch_s = int(parts[0])
        frac = int(parts[1])
        sat_id = int(parts[2])
        beam_id = int(parts[3])
        lat = float(parts[4])
        lon = float(parts[5])
    except ValueError as exc:
        raise MalformedLine(f"non-numeric field in {parts!r}") from exc
    if frac < 0:
        raise MalformedLine(f"negative sub-second counter {frac}")
    if not _INT64.min <= epoch_s <= _INT64.max or frac > _INT64.max:
        raise MalformedLine("time field does not fit in 64 bits")
    ground = GeoPoint(lat, lon)
    if sat_id not in _VALID_SAT_IDS:
        raise InvalidSatId(f"satellite id {sat_id} not in the known set")
    if not 0 <= beam_id <= MAX_BEAM_ID:
        raise InvalidBeamId(f"beam id {beam_id} outside [0, {MAX_BEAM_ID}]")
    return IraRecord(epoch_s, frac, sat_id, beam_id, ground)


# ---------------------------------------------------------------------------
# columnar parsing

_SPACE, _DOT, _PLUS, _MINUS, _NEWLINE, _RETURN = (ord(c) for c in " .+-\n\r")

#: Layouts are spelled byte by byte: ``d`` is a digit, ``s`` a sign, ``m`` a
#: byte of the "sat beam" middle, anything else itself. Every fixed layout
#: shares this head (time_s, time_frac), read from the line start; its tail
#: (the widest middle, lat, lon) is read from the line end. The middle is 3
#: to 6 bytes.
_HEAD = "dddddddddd ddddddddd "
_MIDDLE = 6
#: whether each satellite id the middle can spell, up to four digits, is a known one
_KNOWN_SAT = np.isin(np.arange(10 ** (_MIDDLE - 2)), sorted(_VALID_SAT_IDS))
#: lines per block of :func:`write_records`: a block's columns stay in cache
_BLOCK_ROWS = 1 << 14
#: bytes per read of a path by :func:`parse_table`, about 5,400 lines of the
#: writer's layout: a block is one read and the rest of the line before it.
#: A block's temporaries take a few times its bytes, so that a parse peaks
#: near its table's size and not at twice it
_READ_BYTES = 1 << 18


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


def _split(buf: np.ndarray, returns: bool, final: bool) -> tuple[np.ndarray, np.ndarray, int]:
    r"""The [start, end) span of each whole line's content in the bytes
    ``buf``, and where the rest, the start of a line not yet ended, begins.

    Lines end where text-mode iteration ends them: at ``\n``, ``\r\n`` and a
    lone ``\r`` (``returns`` says whether ``buf`` holds a ``\r``); the line
    break is not content. A ``\r`` at the very end ends no line until more
    follows, as it may be half of a ``\r\n``, unless ``buf`` is ``final``,
    which also ends its last line at its end.
    """
    if returns:
        ends = np.flatnonzero((buf == _NEWLINE) | (buf == _RETURN))
        crlf = (buf[ends] == _RETURN) & (buf.take(ends + 1, mode="clip") == _NEWLINE)
        second_half = np.concatenate(([False], crlf[:-1]))  # the \n of a \r\n
        ends, line_from = ends[~second_half], (ends + 1 + crlf)[~second_half]
        if not final and buf[-1] == _RETURN:
            ends, line_from = ends[:-1], line_from[:-1]
    else:
        ends = np.flatnonzero(buf == _NEWLINE)
        line_from = ends + 1
    starts = np.concatenate(([0], line_from))
    rest = int(starts[-1])
    if final and rest < buf.size:
        ends = np.append(ends, buf.size)
    return starts[:ends.size], ends, rest


def _line_blocks(path):
    """Blocks of the lines of the file at ``path``, each as its bytes and the
    [start, end) span of each line's content in them.

    The file is read as bytes into one buffer, :data:`_READ_BYTES` at a time,
    until the new bytes hold a line break; a block is the whole lines in the
    buffer, and the rest of the last line moves to the front for the next
    read (a line longer than the buffer doubles it). A block's bytes are a
    view of the buffer, refilled once the block is taken. No field accepts a
    byte of a non-ASCII character, so such lines are left to :func:`parse_line`.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise IoFailure(f"cannot open {exc.filename}: {exc.strerror}") from exc
    try:
        with fh:
            buffer, filled, final = bytearray(_READ_BYTES), 0, False
            while not final:
                new = filled  # read on until the new bytes hold a line break, or to the end
                while True:
                    if filled == len(buffer):  # one line fills the buffer
                        buffer = buffer + bytearray(len(buffer))
                    n = fh.readinto(memoryview(buffer)[filled:filled + _READ_BYTES])
                    filled, final = filled + n, not n
                    if (final or buffer.find(b"\n", new, filled) >= 0
                            or buffer.find(b"\r", new, filled) >= 0):
                        break
                buf = np.frombuffer(buffer, dtype=np.uint8, count=filled)
                starts, ends, rest = _split(buf, buffer.find(b"\r", 0, filled) >= 0, final)
                if ends.size:
                    yield buf, starts, ends
                if rest:  # the rest of the last line moves to the front
                    buffer[:filled - rest] = buffer[rest:filled]
                    filled -= rest
    except OSError as exc:
        raise IoFailure(f"read failure: {exc}") from exc


# ---- first tier: the fixed layouts, column-wise

def _block(buf: np.ndarray, lo: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes from each ``lo``, as the columns of one contiguous
    (width, n) block: row k holds byte k of every line."""
    if not lo.size:  # the buffer may be shorter than width
        return np.empty((width, 0), dtype=np.uint8)
    items = np.ndarray((buf.size - width + 1,), f"V{width}", buf, strides=(1,))
    return np.ascontiguousarray(items[lo].view(np.uint8).reshape(-1, width).T)


@cache
def _bounds(pattern: str) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Per byte of ``pattern``, as (rows, 1) columns: the least byte it admits
    and how far above that the others lie; and its sign rows, whose span
    from ``+`` to ``-`` also holds ``,``."""
    kinds = {"d": (48, 9), "s": (_PLUS, _MINUS - _PLUS), "m": (0, 255)}
    lo, span = zip(*(kinds.get(kind, (ord(kind), 0)) for kind in pattern))
    return (np.array(lo, dtype=np.uint8)[:, None], np.array(span, dtype=np.uint8)[:, None],
            [row for row, kind in enumerate(pattern) if kind == "s"])


def _matches(block: np.ndarray, pattern: str) -> np.ndarray:
    """Columns of ``block`` whose bytes fit ``pattern`` (``m`` rows unchecked)."""
    lo, span, signs = _bounds(pattern)
    fits = block - lo  # a byte below lo wraps above any span
    ok = np.all(np.less_equal(fits, span, out=fits.view(bool)), axis=0)
    if signs:
        ok &= np.all(block[signs] != ord(","), axis=0)
    return ok


def _horner(rows: np.ndarray) -> np.ndarray:
    """The decimal value of rows of ASCII digits, most significant first:
    int32 up to nine digits, int64 above."""
    digits = rows - np.uint8(48)
    value = digits[0].astype(np.int32 if len(rows) < 10 else np.int64)
    for row in digits[1:]:
        value *= 10
        value += row
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
    """Which of the lines of ``layout``'s widths at ``starts`` are in it, every
    byte checked, and the six columns of all of them (longitudes not yet
    folded), equal to what :func:`parse_line` gives a line in the layout."""
    head = _block(buf, starts, len(_HEAD))
    tail = _block(buf, starts + width - len(layout.tail), len(layout.tail))
    ok = _matches(head, _HEAD) & _matches(tail, layout.tail)
    # The middle ends its rows: sat digits, one space, and a 1- or 2-digit
    # beam. The head's bytes before it are checked there.
    middle, rows = tail[:_MIDDLE], np.arange(_MIDDLE)[:, None]
    n_middle = width - (layout.widths.start - 3)
    beam_digits = 1 + (middle[_MIDDLE - 3] == _SPACE)
    outside, is_space = rows < _MIDDLE - n_middle, rows == _MIDDLE - 1 - beam_digits
    ok &= n_middle >= beam_digits + 2
    ok &= np.all(outside | ((middle == _SPACE) == is_space), axis=0)
    middle[outside | is_space] = ord("0")  # sat, a zero digit for the space, beam
    ok &= np.all(middle - np.uint8(48) <= 9, axis=0)
    sat = _horner(middle[:_MIDDLE - 2])  # times ten when the beam has two digits
    return (ok, _horner(head[0:10]), _horner(head[11:20]),
            np.where(beam_digits == 2, sat // 10, sat), _horner(middle[_MIDDLE - 2:]),
            _fixed(tail, layout.tail.index("s"), layout.lat_width, layout.decimals),
            _fixed(tail, layout.tail.rindex("s"), layout.lon_width, layout.decimals))


#: the dtypes of :func:`_parse_block`'s columns
_ACCEPTED_DTYPES = [np.int64] * 5 + [float] * 2


def _parse_block(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, first: int,
                 report: IngestReport, quarantined: list, blank: list) -> list[np.ndarray]:
    """The columns (line, epoch_s, frac, sat_id, beam_id, lat, lon) of the
    accepted lines of one block, in line order, lines numbered from ``first``
    + 1. Every quarantined or blank line is counted in ``report``, and the
    numbers of each are added to ``quarantined`` or ``blank``."""
    width, slow = ends - starts, np.ones(starts.size, dtype=bool)
    # the accepted lines' columns: the first tier's, layout by layout, then parse_line's
    accepted = []
    for layout in (_WRITER, _RECEIVER):
        idx = np.flatnonzero((width >= layout.widths.start) & (width < layout.widths.stop))
        # a line without the decimal point of its longitude is not in the layout
        idx = idx[buf[starts[idx] + width[idx] - (layout.decimals + 1)] == _DOT]
        if idx.size:
            ok, epoch_s, frac, sat_id, beam_id, lat, lon = _parse_fixed(
                buf, starts[idx], width[idx], layout)
            bad_coordinate = ok & ((lat < -90.0) | (lat > 90.0))
            bad_sat = ok & ~bad_coordinate & ~_KNOWN_SAT.take(sat_id, mode="clip")
            bad_beam = ok & ~bad_coordinate & ~bad_sat & ((beam_id < 0) | (beam_id > MAX_BEAM_ID))
            good = ok & ~(bad_coordinate | bad_sat | bad_beam)
            report.invalid_coordinate += int(bad_coordinate.sum())
            report.invalid_sat_id += int(bad_sat.sum())
            report.invalid_beam_id += int(bad_beam.sum())
            quarantined.append(idx[ok & ~good] + first + 1)
            slow[idx] = ~ok
            # each column taken once, longitudes folded once taken
            accepted.append([idx[good] + first + 1, epoch_s[good], frac[good], sat_id[good],
                             beam_id[good], lat[good], normalize_lon_array(lon[good])])

    rows, slow_quarantined, slow_blank = [], [], []
    for i in np.flatnonzero(slow).tolist():
        lineno = first + i + 1
        stripped = buf[starts[i]:ends[i]].tobytes().decode("utf-8", "replace").strip()
        if not stripped:
            slow_blank.append(lineno)
            continue
        try:
            r = parse_line(stripped)
        except MalformedLine:
            report.malformed += 1
        except InvalidSatId:
            report.invalid_sat_id += 1
        except InvalidBeamId:
            report.invalid_beam_id += 1
        except InvalidCoordinate:
            report.invalid_coordinate += 1
        else:
            rows.append((lineno, r.epoch_s, r.frac, r.sat_id, r.beam_id,
                         r.ground.lat_deg, r.ground.lon_deg))
            continue
        slow_quarantined.append(lineno)
    quarantined.append(np.array(slow_quarantined, dtype=np.int64))
    blank.append(np.array(slow_blank, dtype=np.int64))
    report.blank += len(slow_blank)
    if rows:
        accepted.append([np.array(column, dtype=dtype)
                         for column, dtype in zip(zip(*rows), _ACCEPTED_DTYPES)])

    accepted = [columns for columns in accepted if columns[0].size] or [
        [np.empty(0, dtype) for dtype in _ACCEPTED_DTYPES]]
    if len(accepted) == 1:  # each tier's rows are in line order
        return accepted[0]
    columns = [np.concatenate(pieces, dtype=dtype)
               for pieces, dtype in zip(zip(*accepted), _ACCEPTED_DTYPES)]
    by_line = np.argsort(columns[0], kind="stable")
    return [c[by_line] for c in columns]


def parse_table(path: str | os.PathLike,
                frac_unit_s: float = DEFAULT_FRAC_UNIT_S) -> tuple[RecordTable, IngestReport]:
    """Parse the log file at ``path`` into a record table.

    The file is read as bytes, a block of lines at a time (:func:`_line_blocks`),
    so the parse holds one block and the accepted columns, never the whole file.
    Lines in the writer's layout (:func:`write_records`) or the receiver's
    (lat and lon to two decimals) are read at fixed offsets, column-wise, a
    block at a time. Every other line is decoded as UTF-8, an undecodable byte
    as U+FFFD, and goes through :func:`parse_line`; each line lands in the
    class ``parse_line`` gives it. Accepted lines whose sub-second counter
    reaches one second in ``frac_unit_s`` are quarantined as ``invalid_frac``;
    a line whose (epoch_s, frac, sat_id) equals an earlier accepted line's as
    ``duplicate``. The table carries ``frac_unit_s``. Only a file that cannot
    be opened or read raises (IoFailure).
    """
    # the numbers of the lines left out: quarantined, and blank
    report, quarantined, blank = IngestReport(), [np.empty(0, dtype=np.int64)], []
    # each accepted column, block by block, in line order
    blocks = [[np.empty(0, dtype)] for dtype in _ACCEPTED_DTYPES[1:]]
    for buf, starts, ends in _line_blocks(path):
        lines, *columns = _parse_block(buf, starts, ends, report.total_lines, report,
                                       quarantined, blank)
        report.total_lines += int(starts.size)
        bad_frac = columns[1] * frac_unit_s >= 1.0
        if bad_frac.any():
            report.invalid_frac += int(bad_frac.sum())
            quarantined.append(lines[bad_frac])
            columns = [c[~bad_frac] for c in columns]
        for pieces, column in zip(blocks, columns):
            pieces.append(column)
    # each column joined in turn, its blocks freed as it is
    joined = []
    while blocks:
        joined.append(np.concatenate(blocks.pop(0), dtype=_ACCEPTED_DTYPES[len(joined) + 1]))
    epoch_s, frac, sat_id, beam_id, lat, lon = joined

    steps = _key_steps(epoch_s, frac)
    if np.all((steps > 0) | ((steps == 0) & (sat_id[1:] > sat_id[:-1]))):
        kept = slice(None)  # no key repeats, and line order is (epoch_s, frac) order
    else:
        # one stable sort of the keys finds each repeat of an earlier line's (epoch_s, frac,
        # sat_id); row k's line is k + 1 + the lines left out before it
        order = np.lexsort((sat_id, frac, epoch_s))
        repeat = np.zeros(order.size, dtype=bool)
        repeat[1:] = ((np.diff(epoch_s[order]) == 0) & (np.diff(frac[order]) == 0)
                      & (np.diff(sat_id[order]) == 0))
        left_out = np.sort(np.concatenate(quarantined + blank))
        rows = order[repeat]
        report.duplicate = int(rows.size)
        quarantined.append(rows + 1 + np.searchsorted(
            left_out - np.arange(1, left_out.size + 1), rows, side="right"))
        kept = order[~repeat]
        kept = kept[np.lexsort((kept, frac[kept], epoch_s[kept]))]
    table = RecordTable(*(c[kept] for c in (epoch_s, frac, sat_id, beam_id, lat, lon)),
                        frac_unit_s)
    report.accepted = len(table)
    report.quarantined_lines = np.sort(np.concatenate(quarantined)).tolist()
    return table, report


def parse_stream(path: str | os.PathLike) -> tuple[list[IraRecord], IngestReport]:
    """:func:`parse_table` of the log at ``path``, counters in microseconds, with
    the accepted rows as a time-sorted record list.

    One arrival is the unit here: the list feeds a replay that pushes record
    by record into :meth:`detector.WindowedDetector.push`.
    """
    table, report = parse_table(path)
    return [IraRecord(e, f, s, b, GeoPoint(lat, lon))
            for e, f, s, b, lat, lon in zip(*(c.tolist() for c in table.columns()))], report


# ---------------------------------------------------------------------------
# columnar writing

#: per column of the writer's layout: the digits it is zero-padded to, and its decimals
_WRITER_FIELDS = ((1, 0), (9, 0), (1, 0), (1, 0), (_WRITER.lat_width - 2, _WRITER.decimals),
                  (_WRITER.lon_width - 2, _WRITER.decimals))


def _units(degrees: np.ndarray, decimals: int) -> np.ndarray:
    """``abs(degrees)`` in units of its last of ``decimals`` places, as ``format`` rounds it."""
    magnitude = np.abs(degrees)
    scaled = magnitude * 10.0 ** decimals
    units = np.rint(scaled).astype(np.uint64)
    # near a half the product's rounding may pick the wrong neighbour: ask float formatting
    tie = np.flatnonzero(np.abs(scaled - np.floor(scaled) - 0.5) <= 4 * np.spacing(scaled))
    units[tie] = [int(format(v, f".{decimals}f").replace(".", "")) for v in magnitude[tie].tolist()]
    return units


def _put(lines: np.ndarray, rows: list[int], units: np.ndarray, pad, sign) -> None:
    """Write the digits of ``units`` into ``rows`` of ``lines``, least significant first,
    zero-padded to ``pad`` digits, then ``sign``, then NUL; ``pad`` and ``sign`` may vary."""
    rest = units.astype(np.uint32 if units.max(initial=0) < 2**32 else np.uint64)
    ten, digit_ok = rest.dtype.type(10), True
    for k, row in enumerate(rows):
        quotient = rest // ten
        digit = rest - quotient * ten + 48
        if np.all(k < pad) or rest.min() > 0:
            lines[row] = digit
        else:
            was_ok, digit_ok = digit_ok, (rest != 0) | (k < pad)
            lines[row] = np.where(digit_ok, digit, np.where(was_ok, sign, 0))
        rest = quotient


def _line_block(*columns: np.ndarray) -> np.ndarray:
    """Rows of a table's columns as lines in the writer's layout, in one
    (width, rows) block: row k holds byte k of every line, and a field
    narrower than the block's widest has NUL before it."""
    fields, at = [], 0
    for values, (pad, places) in zip(columns, _WRITER_FIELDS):
        if places:
            units, sign = _units(values, places), np.where(np.signbit(values), _MINUS, _PLUS)
        elif values.min(initial=0) >= 0:
            units, sign = values, 0
        else:  # f"{v:0{pad}d}": a minus sign takes one of the padded places
            units, sign = np.abs(values).astype(np.uint64), np.where(values < 0, _MINUS, 0)
            pad = pad - (values < 0)
        end = (at + max(int(np.max(pad)), len(str(int(units.max(initial=0)))))
               + bool(np.any(sign)) + bool(places))
        fields.append((list(range(end - 1, at - 1, -1)), units, pad, sign, places))
        at = end + 1  # the space after, or the line break
    lines = np.empty((at, columns[0].size), dtype=np.uint8)
    for rows, units, pad, sign, places in fields:
        lines[rows[0] + 1] = _SPACE
        if places:
            lines[rows.pop(places)] = _DOT
        _put(lines, rows, units, pad, sign)
    lines[-1] = _NEWLINE
    return lines


def write_records(table: RecordTable, out) -> None:
    """Write a table in the writer's layout, block by block, to ``out``: a path,
    which is created or truncated, or a binary file open for writing, which
    takes the lines where it stands.

    Each line is ``f"{epoch_s} {frac:09d} {sat_id} {beam_id} {lat:+010.6f}
    {lon:+011.6f}"`` of its row, byte for byte. Each block of rows is built
    column-wise as one array of bytes and written to the binary file as is,
    with the NUL bytes that narrower fields leave dropped. A line's bytes
    depend on its row alone, so tables written one after another to one file
    give the bytes of their join.
    """
    try:
        with open(out, "wb") if isinstance(out, (str, os.PathLike)) else nullcontext(out) as fh:
            for lo in range(0, len(table), _BLOCK_ROWS):
                lines = _line_block(*(c[lo:lo + _BLOCK_ROWS] for c in table.columns())).T.copy()
                fh.write(lines[lines != 0])
    except OSError as exc:
        raise IoFailure(f"write failure: {exc}") from exc


# ---------------------------------------------------------------------------
# grouping and pass segmentation

def segment_passes(table: RecordTable,
                   gap_threshold_s: float = DEFAULT_GAP_THRESHOLD_S) -> Passes:
    """A table's passes, in the (satellite, time) order of one stable sort.

    A pass ends where the satellite changes or the time step exceeds
    ``gap_threshold_s``. The default of 600 s sits between loss-induced
    intra-pass gaps (seconds to a few minutes) and the revisit time of the
    same satellite (>= the orbital period). Two rows of one satellite with
    the same timestamp raise ValueError.
    """
    if not len(table):
        raise EmptyInput("segment_passes needs at least one record")
    order = np.argsort(table.sat_id, kind="stable")
    sat_id, epoch_s, frac = table.sat_id[order], table.epoch_s[order], table.frac[order]
    same_sat = sat_id[1:] == sat_id[:-1]
    if np.any(same_sat & (_key_steps(epoch_s, frac) <= 0)):
        raise ValueError("pass records must have strictly increasing timestamps")
    # each satellite's first row is the time origin of its rows, as in RecordTable.t_s
    first = np.maximum.accumulate(np.where(np.append(True, ~same_sat), np.arange(order.size), 0))
    t_s = (epoch_s.astype(float) - epoch_s[first]) + (frac - frac[first]) * table.frac_unit_s
    cuts = np.flatnonzero(~same_sat | (np.diff(t_s) > gap_threshold_s)) + 1
    lo, hi = np.append(0, cuts), np.append(cuts, order.size)
    # the first and last track row of each pass, or its first and last row
    track = np.flatnonzero(table.beam_id[order] == 0)
    a, b = np.searchsorted(track, (lo, hi))
    has_track = a < b
    start, end = lo.copy(), hi - 1
    start[has_track], end[has_track] = track[a[has_track]], track[b[has_track] - 1]
    lat = table.lat[order]
    return Passes(order, lo, hi, t_s, sat_id[lo], lat[end] >= lat[start],
                  (t_s[hi - 1] - t_s[lo]) / 60.0, float(gap_threshold_s))


def group_by_satellite(table: RecordTable) -> dict[int, RecordTable]:
    """Time-sorted records keyed by satellite id (keys ascending), one table each."""
    return {sat: table[table.sat_id == sat] for sat in np.unique(table.sat_id).tolist()}
