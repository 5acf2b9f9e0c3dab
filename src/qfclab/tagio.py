"""Tag-stream file formats.

Binary (.qtag), little-endian:
    magic   4 bytes  b"QTAG"
    version u16      currently 1
    channel u16
    duration_ps u64
    count   u64
    count * u64 timestamps in ps, and nothing after them

A payload that is not exactly count * 8 bytes, short or long, raises
TagFormatError before anything is read. Writing a stream whose channel or
duration the header cannot hold raises TagFormatError before the file is
opened.

CSV: two columns (channel, timestamp_ps) after a single comment line
carrying the longest duration, the channel ids (``channels=0,1``) and each
listed channel's own duration (``durations_ps=1000,2000``), so
binary -> csv -> binary round-trips bit-exactly, also for a channel
without tags and for channels of different durations. Files whose comment
line has no channel ids or no per-channel durations still read; their
channels take the one ``duration_ps``.
A CSV file may hold several channels; rows must be grouped per channel and
time-ordered within each group.

The header lines are ASCII. Each row below them is

    row     = ["-"] digits "," digits
    digits  = one or more of 0-9, leading zeros allowed, value within int64

so only the channel may carry a sign. Rows end in "\n" or "\r\n", blank
lines are skipped and the last row may lack its line end. Anything else
(a "+" sign, spaces or tabs around a field, a lone "\r" line end, a value
outside int64) raises TagFormatError naming the reason and the 1-based
line of the file. So does a comment-line value that is not digits (a "-"
allowed). Tags out of order, or at or past their duration, raise
TagFormatError naming the file and, for a CSV, the 1-based line of the
first such tag and its channel, or, for a .qtag, the tag index.
"""

import os
import struct
from pathlib import Path

import numpy as np

from .montecarlo import _PS, TagStream

MAGIC = b"QTAG"
VERSION = 1
_HEADER = struct.Struct("<4sHHQQ")
# rows formatted per write: keeps the transient text of a long stream small
_CSV_ROWS_PER_WRITE = 1 << 16
# bytes read per block: bounds the reader's temporaries whatever the file
# size; 256 KiB parses as fast as 1 MiB with a quarter of the temporaries
_CSV_BLOCK_BYTES = 1 << 18
_NL, _CR, _COMMA, _MINUS, _ZERO = b"\n\r,-0"
_U16_MAX, _U64_MAX = 2 ** 16 - 1, 2 ** 64 - 1    # header channel, duration
_INT64_MAX = 2 ** 63 - 1
_INT64_MIN = -2 ** 63
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)    # a k-digit tag is below 10**k


class TagFormatError(ValueError):
    pass


def write_qtag(path, stream):
    # checked before the file is opened, so a value the header cannot hold
    # leaves no file behind
    for name, value, top in (("channel", stream.channel, _U16_MAX),
                             ("duration_ps", stream.duration_ps, _U64_MAX)):
        if not 0 <= value <= top:
            raise TagFormatError(f"{path}: {name} {value} does not fit the header "
                                 f"(0 to {top})")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, stream.channel, stream.duration_ps,
                              len(stream.tags)))
        # int64 bytes are the u64 payload, negatives wrapped, without a copy
        fh.write(np.ascontiguousarray(stream.tags, dtype="<i8").data)
    return Path(path)


def read_qtag(path):
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise TagFormatError(f"{path}: truncated header")
        magic, version, channel, duration_ps, count = _HEADER.unpack(head)
        if magic != MAGIC:
            raise TagFormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise TagFormatError(f"{path}: unsupported version {version}")
        # checked before reading, so a corrupt count never sizes an allocation
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != 8 * count:
            raise TagFormatError(f"{path}: expected {count} tags ({8 * count} bytes), "
                                 f"found {payload} bytes")
        # u64 read as i64 wraps values at or above 2**63 as astype(np.int64) does
        tags = np.fromfile(fh, dtype="<i8", count=count)
    try:
        return TagStream(channel, tags, duration_ps / _PS,
                         meta={"source": str(path)})
    except ValueError as exc:
        raise TagFormatError(f"{path}: tag {_first_bad_tag(tags, duration_ps)}: "
                             f"{exc}") from None


def _first_bad_tag(tags, duration_ps):
    """Index of the tag that TagStream rejects, in the order of its checks:
    a negative first tag, a tag below its predecessor, a tag at or past the
    duration (as TagStream rounds it)."""
    if tags[0] < 0:
        return 0
    descents = np.flatnonzero(tags[1:] < tags[:-1])
    if len(descents):
        return int(descents[0]) + 1
    return int(np.searchsorted(tags, round(duration_ps / _PS * _PS)))


def write_csv(path, streams):
    """Write one or more streams as (channel, timestamp_ps) rows.

    The comment line lists every stream's channel and duration, so a
    channel without tags, and each stream's duration, survive the round
    trip. A tag changed after its stream was made, so that it is negative
    or out of order among tags of another digit count, raises ValueError
    instead of being written wrong.
    """
    if isinstance(streams, TagStream):
        streams = [streams]
    duration_ps = max(s.duration_ps for s in streams)
    channels = ",".join(str(s.channel) for s in streams)
    durations = ",".join(str(s.duration_ps) for s in streams)
    with open(path, "wb") as fh:
        fh.write(f"# qtag-csv v{VERSION} duration_ps={duration_ps} channels={channels} "
                 f"durations_ps={durations}\nchannel,timestamp_ps\n".encode("ascii"))
        for s in streams:
            _write_rows(fh, s.channel, s.tags)
    return Path(path)


def _write_rows(fh, channel, tags):
    # Sorted nonnegative tags of k digits form one run, [10**(k-1), 10**k),
    # so each chunk of a run is a fixed-width byte matrix: head, k digits, \n.
    head = np.frombuffer(f"{channel},".encode("ascii"), np.uint8)
    h = len(head)
    edges = [0, *np.searchsorted(tags, _POW10).tolist(), len(tags)]
    for k in range(1, len(edges)):
        run = tags[edges[k - 1]:edges[k]]
        for i in range(0, len(run), _CSV_ROWS_PER_WRITE):
            q = run[i:i + _CSV_ROWS_PER_WRITE].copy()
            rows = np.empty((len(q), h + k + 1), np.uint8)
            rows[:, :h] = head
            rows[:, -1] = _NL
            rest = np.empty_like(q)
            for col in range(h + k - 1, h - 1, -1):
                np.floor_divide(q, 10, out=rest)
                q -= 10 * rest
                rows[:, col] = q
                q, rest = rest, q
            # a quotient left over, or a leading zero, is a tag outside its run
            if q.any() or (k > 1 and not rows[:, h].all()):
                raise ValueError(f"channel {channel}: tags must be sorted and nonnegative "
                                 "to be written")
            rows[:, h:h + k] += _ZERO
            fh.write(rows)


def read_csv(path):
    """Read a tag CSV back into a list of TagStreams (one per channel).

    Channels listed on the comment line come first, in that order, each
    with its tags or none and its own duration when the line gives one;
    channels found only in the rows follow in file order. A row outside the
    grammar of the module docstring raises TagFormatError naming its line,
    and so does the first tag of a channel that is out of order or at or
    past the channel's duration.
    """
    duration_ps = None
    listed = []
    durations = None
    with open(path, "rb") as fh:
        first = _header_line(fh, path, 1)
        line = 2
        if first.startswith("#"):
            for token in first.split():
                key, _, value = token.partition("=")
                if key == "duration_ps":
                    duration_ps = _header_int(path, key, value)
                elif key == "channels":
                    listed = [_header_int(path, key, c) for c in value.split(",") if c]
                elif key == "durations_ps":
                    durations = [_header_int(path, key, d) for d in value.split(",") if d]
            header = _header_line(fh, path, 2)
            line = 3
        else:
            header = first
        if header.strip() != "channel,timestamp_ps":
            raise TagFormatError(f"{path}: unexpected CSV header {header.strip()!r}")
        tag_parts, channel_parts = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        first_row_line = line
        for block in _row_blocks(fh):
            channels, tags, line = _parse_rows(block, path, line)
            channel_parts.append(channels)
            tag_parts.append(tags)
    # joined one column at a time, so only one is held twice
    tags = np.concatenate(tag_parts)
    del tag_parts
    channels = np.concatenate(channel_parts)
    del channel_parts
    if duration_ps is None:
        duration_ps = int(tags.max()) + 1 if len(tags) else _PS
    own = {}
    if durations is not None:
        if len(durations) != len(listed):
            raise TagFormatError(f"{path}: {len(durations)} durations for "
                                 f"{len(listed)} channels")
        own = dict(zip(listed, durations))
    change = np.flatnonzero(channels[1:] != channels[:-1]) + 1
    in_rows = list(dict.fromkeys(channels[:1].tolist() + channels[change].tolist()))
    streams = []
    for ch in dict.fromkeys(listed + in_rows):   # file order after the listed ones
        own_tags = tags if in_rows == [ch] else tags[channels == ch]
        own_ps = own.get(ch, duration_ps)
        try:
            streams.append(TagStream(ch, own_tags, own_ps / _PS,
                                     meta={"source": str(path)}))
        except ValueError as exc:
            where = ""
            if own_ps >= 0:     # else the duration is refused, not a tag
                row = _first_bad_tag(own_tags, own_ps)
                if in_rows != [ch]:
                    row = int(np.flatnonzero(channels == ch)[row])
                where = f"line {_row_line(path, first_row_line, row)}: "
            raise TagFormatError(f"{path}: {where}channel {ch}: {exc}") from None
    return streams


def _row_line(path, first, row):
    """The 1-based file line of data row ``row`` (0-based, blank lines not
    counted) of a CSV whose rows start on line ``first``. A second pass over
    the file, made only to name a rejected tag."""
    with open(path, "rb") as fh:
        for line, text in enumerate(fh, 1):
            if line >= first and text.removesuffix(b"\n").removesuffix(b"\r"):
                if row == 0:
                    return line
                row -= 1
    raise AssertionError("the file has fewer rows than were parsed")


def _header_int(path, key, value):
    # the digits of the row grammar: no "+", "_" or exponent as int() allows
    if not value.removeprefix("-").isdigit():
        raise TagFormatError(f"{path}: line 1: {key} value {value!r} is not an integer")
    return int(value)


def _header_line(fh, path, line):
    raw = fh.readline()
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError:
        raise TagFormatError(f"{path}: line {line}: header is not ASCII") from None


def _row_blocks(fh):
    """The rest of fh in blocks of about _CSV_BLOCK_BYTES, each cut after its
    last newline; the last row gets a newline if it has none."""
    pending = b""
    while block := fh.read(_CSV_BLOCK_BYTES):
        cut = block.rfind(b"\n") + 1
        if cut:
            block, pending = pending + memoryview(block)[:cut], block[cut:]
            yield block
        else:
            pending += block
    if pending:
        yield pending + b"\n"


def _parse_rows(block, path, line):
    """(channels, tags, next line) of the rows in block, which ends in a
    newline; line is the file line of its first byte."""
    b = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(b == _NL)
    next_line = line + len(ends)
    starts = np.concatenate(([0], ends[:-1] + 1))
    ends -= b[ends - 1] == _CR     # \r\n; b[-1] is the block's final \n
    filled = ends > starts         # blank lines are skipped
    starts, ends = starts[filled], ends[filled]
    comma = np.flatnonzero(b == _COMMA)
    # as many commas as rows and comma i inside row i: one comma per row
    if len(comma) != len(starts) or (comma < starts).any() or (comma >= ends).any():
        _raise_first_bad_row(block, path, line)
    minus = b[starts] == _MINUS
    channels, ok = _parse_fields(b, starts + minus, comma)
    tags, ok_tags = _parse_fields(b, comma + 1, ends)
    # 19 digits wrap to a negative int64 exactly when above its maximum;
    # a channel of -2**63 wraps to itself
    if (not (ok and ok_tags) or (tags < 0).any()
            or ((channels < 0) & ~(minus & (channels == _INT64_MIN))).any()):
        _raise_first_bad_row(block, path, line)
    np.negative(channels, out=channels, where=minus)
    return channels, tags, next_line


def _parse_fields(b, lo, hi):
    """The decimal fields b[lo:hi] as int64, wrapped above its maximum, and
    whether each is 1 to 19 significant digits and nothing else."""
    values = np.empty(len(lo), np.int64)
    lengths = hi - lo
    counts = np.bincount(lengths, minlength=1)
    ok = counts[0] == 0
    for n in (np.flatnonzero(counts[1:]) + 1).tolist():
        rows = np.flatnonzero(lengths == n) if counts[n] < len(lo) else slice(None)
        # (digits, rows): digit j of every field of n bytes
        digits = np.lib.stride_tricks.sliding_window_view(b, n)[lo[rows]].T - _ZERO
        ok &= digits.max() <= 9       # a byte below "0" wraps above 9
        if n > 19:
            ok &= not digits[:n - 19].any()
            digits = digits[n - 19:]
        v = digits[0].astype(np.int64)
        for d in digits[1:]:
            v *= 10
            v += d
        values[rows] = v
    return values, ok


def _raise_first_bad_row(block, path, line):
    for n, row in enumerate(block.split(b"\n")):
        reason = _row_error(row.removesuffix(b"\r"))
        if reason:
            raise TagFormatError(f"{path}: line {line + n}: {reason}")
    raise AssertionError("the block parser and _row_error disagree")


def _row_error(row):
    """Why a row (without its line end) is outside the grammar, or None."""
    if not row:
        return None
    fields = row.split(b",")
    if len(fields) != 2:
        return f"expected 2 comma-separated fields, found {len(fields)}"
    channel, timestamp = fields
    if timestamp.startswith(b"-"):
        return "negative timestamp"
    limit = -_INT64_MIN if channel.startswith(b"-") else _INT64_MAX
    for name, digits, most in (("channel", channel.removeprefix(b"-"), limit),
                               ("timestamp", timestamp, _INT64_MAX)):
        if not digits:
            return f"empty {name} field"
        bad = [c for c in digits if not 0x30 <= c <= 0x39]
        if bad:
            return f"{name} field holds the non-digit byte {bytes(bad[:1])!r}"
        if int(digits) > most:
            return f"{name} {int(digits)} is outside int64"
    return None
