"""Tag-stream file formats.

Binary (.qtag), little-endian:
    magic   4 bytes  b"QTAG"
    version u16      currently 1
    channel u16
    duration_ps u64
    count   u64
    count * u64 timestamps in ps, and nothing after them

A payload that is not exactly count * 8 bytes, short or long, raises
TagFormatError before anything is read.

CSV: two columns (channel, timestamp_ps) after a single comment line
carrying the longest duration, the channel ids (``channels=0,1``) and each
listed channel's own duration (``durations_ps=1000,2000``), so
binary -> csv -> binary round-trips bit-exactly, also for a channel
without tags and for channels of different durations. Files whose comment
line has no channel ids or no per-channel durations still read; their
channels take the one ``duration_ps``.
A CSV file may hold several channels; rows must be grouped per channel and
time-ordered within each group.
"""

import os
import struct
import warnings
from pathlib import Path

import numpy as np

from .montecarlo import _PS, TagStream

MAGIC = b"QTAG"
VERSION = 1
_HEADER = struct.Struct("<4sHHQQ")
# rows formatted per write: keeps the transient text of a long stream small
_CSV_ROWS_PER_WRITE = 1 << 16


class TagFormatError(ValueError):
    pass


def write_qtag(path, stream):
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, stream.channel, stream.duration_ps,
                              len(stream.tags)))
        fh.write(stream.tags.astype("<u8").tobytes())
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
    return TagStream(channel, tags, duration_ps / _PS,
                     meta={"source": str(path)})


def write_csv(path, streams):
    """Write one or more streams as (channel, timestamp_ps) rows.

    The comment line lists every stream's channel and duration, so a
    channel without tags, and each stream's duration, survive the round
    trip.
    """
    if isinstance(streams, TagStream):
        streams = [streams]
    duration_ps = max(s.duration_ps for s in streams)
    channels = ",".join(str(s.channel) for s in streams)
    durations = ",".join(str(s.duration_ps) for s in streams)
    with open(path, "w", newline="") as fh:
        fh.write(f"# qtag-csv v{VERSION} duration_ps={duration_ps} channels={channels} "
                 f"durations_ps={durations}\n")
        fh.write("channel,timestamp_ps\n")
        for s in streams:
            head = f"{s.channel},"
            for i in range(0, len(s.tags), _CSV_ROWS_PER_WRITE):
                rows = s.tags[i:i + _CSV_ROWS_PER_WRITE].tolist()
                fh.write(head + ("\n" + head).join(map(str, rows)) + "\n")
    return Path(path)


def read_csv(path):
    """Read a tag CSV back into a list of TagStreams (one per channel).

    Channels listed on the comment line come first, in that order, each
    with its tags or none and its own duration when the line gives one;
    channels found only in the rows follow in file order. A row that is not
    two integers raises ValueError.
    """
    duration_ps = None
    listed = []
    durations = None
    with open(path) as fh:
        first = fh.readline()
        if first.startswith("#"):
            for token in first.split():
                key, _, value = token.partition("=")
                if key == "duration_ps":
                    duration_ps = int(value)
                elif key == "channels":
                    listed = [int(c) for c in value.split(",") if c]
                elif key == "durations_ps":
                    durations = [int(d) for d in value.split(",") if d]
            header = fh.readline()
        else:
            header = first
        if header.strip() != "channel,timestamp_ps":
            raise TagFormatError(f"{path}: unexpected CSV header {header.strip()!r}")
        with warnings.catch_warnings():
            # a header without rows is a valid file: no tags
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            rows = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2,
                              comments=None)
    if rows.size == 0:
        rows = rows.reshape(0, 2)
    elif rows.shape[1] != 2:
        raise ValueError(f"{path}: expected 2 columns per row, found {rows.shape[1]}")
    channels, tags = rows[:, 0], rows[:, 1]
    if duration_ps is None:
        duration_ps = int(tags.max()) + 1 if len(tags) else _PS
    own = {}
    if durations is not None:
        if len(durations) != len(listed):
            raise TagFormatError(f"{path}: {len(durations)} durations for "
                                 f"{len(listed)} channels")
        own = dict(zip(listed, durations))
    _, first_row = np.unique(channels, return_index=True)
    in_rows = channels[np.sort(first_row)].tolist()   # file order
    streams = []
    for ch in dict.fromkeys(listed + in_rows):
        streams.append(TagStream(ch, tags[channels == ch], own.get(ch, duration_ps) / _PS,
                                 meta={"source": str(path)}))
    return streams
