import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfclab import tagio
from qfclab.montecarlo import TagStream
from qfclab.tagio import (TagFormatError, read_csv, read_qtag, write_csv,
                          write_qtag)


def random_stream(seed, n=5000, channel=2, duration_s=3.0):
    rng = np.random.default_rng(seed)
    tags = np.sort(rng.integers(0, int(duration_s * 1e12), n))
    return TagStream(channel, tags, duration_s)


def test_binary_round_trip(tmp_path):
    s = random_stream(1)
    path = tmp_path / "a.qtag"
    write_qtag(path, s)
    back = read_qtag(path)
    assert back.channel == s.channel
    assert back.duration_s == s.duration_s
    assert np.array_equal(back.tags, s.tags)


def test_csv_round_trip_bit_exact(tmp_path):
    s = random_stream(2)
    bin_path = tmp_path / "a.qtag"
    csv_path = tmp_path / "a.csv"
    bin2_path = tmp_path / "b.qtag"
    write_qtag(bin_path, s)
    write_csv(csv_path, read_qtag(bin_path))
    streams = read_csv(csv_path)
    assert len(streams) == 1
    write_qtag(bin2_path, streams[0])
    assert bin_path.read_bytes() == bin2_path.read_bytes()


def test_multi_channel_csv(tmp_path):
    a = random_stream(3, channel=0)
    b = random_stream(4, channel=1)
    path = tmp_path / "multi.csv"
    write_csv(path, [a, b])
    back = {s.channel: s for s in read_csv(path)}
    assert np.array_equal(back[0].tags, a.tags)
    assert np.array_equal(back[1].tags, b.tags)


def test_empty_stream(tmp_path):
    s = TagStream(1, np.array([], dtype=np.int64), 2.0)
    path = tmp_path / "empty.qtag"
    write_qtag(path, s)
    back = read_qtag(path)
    assert len(back) == 0 and back.duration_s == 2.0


def test_tag_just_below_rounded_duration(tmp_path):
    # 0.0633 s * 1e12 is 63299999999.99999 in floating point: the file stores
    # the rounded duration, so the last legal tag is duration_ps - 1
    duration_ps = 63_300_000_000
    path = tmp_path / "edge.qtag"
    path.write_bytes(struct.pack("<4sHHQQ", b"QTAG", 1, 2, duration_ps, 1)
                     + struct.pack("<Q", duration_ps - 1))
    back = read_qtag(path)
    assert back.duration_s == 0.0633
    assert back.tags.tolist() == [duration_ps - 1]


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.qtag"
    path.write_bytes(b"NOPE" + b"\x00" * 30)
    with pytest.raises(TagFormatError, match="magic"):
        read_qtag(path)


def test_truncated_payload(tmp_path):
    s = random_stream(5, n=100)
    path = tmp_path / "trunc.qtag"
    write_qtag(path, s)
    data = path.read_bytes()
    path.write_bytes(data[:-40])
    with pytest.raises(TagFormatError, match="expected"):
        read_qtag(path)


@pytest.mark.parametrize("extra", [b"\x00" * 8, b"\x01\x02\x03"])
def test_trailing_payload_bytes(tmp_path, extra):
    # a whole extra tag or a few stray bytes: the header's count no longer
    # describes the file, so it is rejected rather than read in part
    s = random_stream(5, n=100)
    path = tmp_path / "long.qtag"
    write_qtag(path, s)
    path.write_bytes(path.read_bytes() + extra)
    with pytest.raises(TagFormatError, match=f"expected 100 tags \\(800 bytes\\), "
                                             f"found {800 + len(extra)} bytes"):
        read_qtag(path)


def test_corrupt_count_is_rejected_before_reading(tmp_path):
    # a count of 2**60 tags would size an 8 EiB read if it were trusted
    path = tmp_path / "huge.qtag"
    path.write_bytes(struct.pack("<4sHHQQ", b"QTAG", 1, 0, 10, 2 ** 60) + b"\x00" * 16)
    with pytest.raises(TagFormatError, match="found 16 bytes"):
        read_qtag(path)


def test_bad_csv_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,chan\n1,2\n")
    with pytest.raises(TagFormatError, match="header"):
        read_csv(path)


def test_csv_keeps_channels_without_tags(tmp_path):
    full = random_stream(6, n=10, channel=0)
    path = tmp_path / "sparse.csv"
    write_csv(path, [TagStream(3, [], 2.0), full, TagStream(7, [], 1.0)])
    back = read_csv(path)
    assert [s.channel for s in back] == [3, 0, 7]
    assert [len(s) for s in back] == [0, 10, 0]
    assert np.array_equal(back[1].tags, full.tags)
    assert [s.duration_s for s in back] == [2.0, 3.0, 1.0]


def test_csv_per_channel_durations(tmp_path):
    # streams of 1 s and 2 s read back as 1 s and 2 s, not as two of 2 s
    path = tmp_path / "durations.csv"
    write_csv(path, [random_stream(8, n=10, channel=0, duration_s=1.0),
                     random_stream(9, n=10, channel=1, duration_s=2.0)])
    assert path.read_text().splitlines()[0] == (
        "# qtag-csv v1 duration_ps=2000000000000 channels=0,1 "
        "durations_ps=1000000000000,2000000000000")
    assert [s.duration_ps for s in read_csv(path)] == [10 ** 12, 2 * 10 ** 12]


def test_csv_without_per_channel_durations_reads_as_before(tmp_path):
    path = tmp_path / "old.csv"
    path.write_text("# qtag-csv v1 duration_ps=5000 channels=0,1\n"
                    "channel,timestamp_ps\n0,3\n1,4999\n")
    assert [s.duration_ps for s in read_csv(path)] == [5000, 5000]


def test_csv_durations_must_match_channels(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# qtag-csv v1 duration_ps=5000 channels=0,1 durations_ps=5000\n"
                    "channel,timestamp_ps\n0,3\n")
    with pytest.raises(TagFormatError, match="1 durations for 2 channels"):
        read_csv(path)


@pytest.mark.parametrize("comment, key, value", [
    ("duration_ps=5e3", "duration_ps", "5e3"),
    ("duration_ps=", "duration_ps", ""),
    ("duration_ps=+5_000", "duration_ps", "+5_000"),
    ("duration_ps=5000 channels=0,x", "channels", "x"),
    ("duration_ps=5000 channels=0 durations_ps=1.5", "durations_ps", "1.5"),
])
def test_csv_header_value_that_is_not_an_integer(tmp_path, comment, key, value):
    path = tmp_path / "head.csv"
    path.write_text(f"# qtag-csv v1 {comment}\nchannel,timestamp_ps\n0,3\n")
    with pytest.raises(TagFormatError, match=re.escape(
            f"head.csv: line 1: {key} value {value!r} is not an integer")):
        read_csv(path)


@pytest.mark.parametrize("rows, reason", [
    ("0,5\n0,3\n", "timestamps must be sorted"),
    ("0,5\n0,5000\n", "timestamps must be below the acquisition duration"),
])
def test_csv_stream_rejection_names_the_file(tmp_path, rows, reason):
    path = tmp_path / "order.csv"
    path.write_text(f"# qtag-csv v1 duration_ps=5000\nchannel,timestamp_ps\n1,1\n{rows}")
    with pytest.raises(TagFormatError, match=f"order.csv: line 5: channel 0: {reason}$"):
        read_csv(path)


# rows of channels 1 and 0 with blank lines among them; the first rejected
# tag of channel 0 is on the line marked "<" (1-based, header lines counted)
_CSV_REJECTED = [
    ("1,1|1,9||0,5|0,7||0,6 <|0,2|1,20",
     "durations_ps=5000,5000", "timestamps must be sorted"),
    ("||0,5|1,3|0,4 <|0,4999",
     "durations_ps=5000,5000", "timestamps must be sorted"),
    ("1,4999||0,10|0,4999|0,5000 <|0,6000",
     "durations_ps=5000,5000", "timestamps must be below the acquisition duration"),
    ("0,10|0,4000 <|1,4000|1,4999",
     "durations_ps=5000,3000", "timestamps must be below the acquisition duration"),
    ("0,0 <",
     "durations_ps=5000,0", "timestamps must be below the acquisition duration"),
]


@pytest.mark.parametrize("end", ["\n", "\r\n"])
@pytest.mark.parametrize("rows, durations, reason", _CSV_REJECTED)
def test_csv_rejected_tag_names_its_line(tmp_path, rows, durations, reason, end):
    path = tmp_path / "lines.csv"
    lines = [f"# qtag-csv v1 duration_ps=5000 channels=1,0 {durations}",
             "channel,timestamp_ps"] + rows.split("|")
    line = next(n for n, text in enumerate(lines, 1) if text.endswith(" <"))
    path.write_bytes(end.join(lines).replace(" <", "").encode("ascii") + end.encode())
    with pytest.raises(TagFormatError, match=f"lines.csv: line {line}: channel 0: "
                                             f"{reason}$"):
        read_csv(path)


def test_csv_negative_duration_names_no_line(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("# qtag-csv v1 duration_ps=-5 channels=0\nchannel,timestamp_ps\n0,1\n")
    with pytest.raises(TagFormatError, match="neg.csv: channel 0: duration must be >= 0$"):
        read_csv(path)


@pytest.mark.parametrize("tags, index, reason", [
    ([1, 5, 3, 4], 2, "timestamps must be sorted"),
    ([1, 2, 3, 10_000], 3, "timestamps must be below the acquisition duration"),
    ([2 ** 64 - 1, 2, 3, 4], 0, "timestamps must be nonnegative"),
])
def test_qtag_stream_rejection_names_the_file_and_tag(tmp_path, tags, index, reason):
    path = tmp_path / "order.qtag"
    path.write_bytes(struct.pack("<4sHHQQ", b"QTAG", 1, 0, 5000, len(tags))
                     + np.array(tags, dtype=np.uint64).astype("<u8").tobytes())
    with pytest.raises(TagFormatError, match=f"order.qtag: tag {index}: {reason}$"):
        read_qtag(path)


def test_csv_without_channel_ids_reads_in_file_order(tmp_path):
    path = tmp_path / "old.csv"
    path.write_text("# qtag-csv v1 duration_ps=5000\nchannel,timestamp_ps\n"
                    "4,3\n4,9\n\n1,10\n")
    back = read_csv(path)
    assert [(s.channel, s.tags.tolist()) for s in back] == [(4, [3, 9]), (1, [10])]
    assert back[0].duration_s == 5e-9
    path.write_text("channel,timestamp_ps\n2,41\n")
    (only,) = read_csv(path)
    assert only.tags.tolist() == [41] and only.duration_s == 42e-12


def test_csv_header_without_rows(tmp_path):
    path = tmp_path / "none.csv"
    path.write_text("# qtag-csv v1 duration_ps=5000\nchannel,timestamp_ps\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read_csv(path) == []


@pytest.mark.parametrize("rows, line", [("1\n", 2), ("1,2,3\n", 2), ("1,x\n", 2),
                                        ("1,2.5\n", 2), ("1,\n", 2), ("1,2\n3\n", 3),
                                        ("1,2\n# 1,3\n", 3)])
def test_malformed_csv_row(tmp_path, rows, line):
    path = tmp_path / "bad_row.csv"
    path.write_text("channel,timestamp_ps\n" + rows)
    with pytest.raises(TagFormatError, match=f": line {line}: "):
        read_csv(path)


@pytest.mark.parametrize("row, reason", [
    ("1", "expected 2 comma-separated fields, found 1"),
    ("1,2,3", "expected 2 comma-separated fields, found 3"),
    ("1,2a", "timestamp field holds the non-digit byte b'a'"),
    ("+1,2", "channel field holds the non-digit byte b'+'"),
    ("1, 2", "timestamp field holds the non-digit byte b' '"),
    ("1,2\r3", "timestamp field holds the non-digit byte b'\\r'"),
    ("-,2", "empty channel field"),
    ("1,", "empty timestamp field"),
    ("1,9223372036854775808", "timestamp 9223372036854775808 is outside int64"),
    ("1,0010000000000000000000", "timestamp 10000000000000000000 is outside int64"),
    ("-9223372036854775809,1", "channel 9223372036854775809 is outside int64"),
    ("1,-5", "negative timestamp"),
])
@pytest.mark.parametrize("comment", ["", "# qtag-csv v1 duration_ps=5000\n"])
def test_malformed_csv_row_names_its_reason(tmp_path, row, reason, comment):
    # without a comment line, a negative timestamp once surfaced as
    # "duration must be >= 0"
    path = tmp_path / "bad_row.csv"
    path.write_bytes(f"{comment}channel,timestamp_ps\n1,1\n\n{row}\n1,9\n".encode())
    line = 4 + bool(comment)
    with pytest.raises(TagFormatError, match=f"bad_row.csv: line {line}: {re.escape(reason)}$"):
        read_csv(path)


def test_csv_header_must_be_ascii(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes("# qtag-csv v1 duration_ps=5000 µ\nchannel,timestamp_ps\n".encode())
    with pytest.raises(TagFormatError, match="line 1: header is not ASCII"):
        read_csv(path)
    path.write_bytes(b"channel,timestamp_ps\xff\n1,2\n")
    with pytest.raises(TagFormatError, match="line 1: header is not ASCII"):
        read_csv(path)


# Durations up to 2**50 ps (~19 min): TagStream keeps the duration in float
# seconds, which holds every integer ps duration exactly only that far (see
# test_long_duration_qtag_round_trip).
_DURATION_S = st.floats(min_value=0.0, max_value=2 ** 50 / 1e12)


@st.composite
def tag_streams(draw):
    channel = draw(st.integers(0, 2 ** 16 - 1))
    duration_s = draw(_DURATION_S)
    last = round(duration_s * 1e12) - 1
    tags = []
    if last >= 0:
        tag = st.one_of(st.just(0), st.just(last), st.integers(0, last))
        tags = draw(st.lists(tag, max_size=40))
    return TagStream(channel, np.sort(np.array(tags, dtype=np.int64)), duration_s)


@settings(max_examples=200, deadline=None)
@given(tag_streams())
def test_qtag_csv_qtag_is_byte_identical(tmp_path_factory, stream):
    d = tmp_path_factory.mktemp("prop")
    write_qtag(d / "a.qtag", stream)
    write_csv(d / "a.csv", read_qtag(d / "a.qtag"))
    (back,) = read_csv(d / "a.csv")
    write_qtag(d / "b.qtag", back)
    assert (d / "a.qtag").read_bytes() == (d / "b.qtag").read_bytes()


def _oracle_rows(streams):
    # the per-row loop that the vectorized writer replaced
    return "".join(f"{s.channel},{t}\n" for s in streams for t in s.tags)


@settings(max_examples=200, deadline=None)
@given(st.lists(tag_streams(), min_size=1, max_size=4, unique_by=lambda s: s.channel))
def test_multi_channel_csv_round_trip(tmp_path_factory, streams):
    path = tmp_path_factory.mktemp("prop") / "multi.csv"
    write_csv(path, streams)
    assert path.read_text().split("\n", 2)[2] == _oracle_rows(streams)
    back = read_csv(path)
    assert [s.channel for s in back] == [s.channel for s in streams]
    for got, sent in zip(back, streams):
        assert np.array_equal(got.tags, sent.tags)
        assert got.duration_ps == sent.duration_ps


# a duration above every int64 tag, held by the float duration_s
_HUGE_S = 2 ** 64 / 1e12


def _boundary_tags():
    edges = [0, 2 ** 63 - 1]
    for k in range(1, 19):
        edges += [10 ** k - 1, 10 ** k]
    return np.array(sorted(edges), dtype=np.int64)


@pytest.mark.parametrize("rows_per_write", [1, 2, 3, 1 << 16])
def test_csv_writer_at_digit_boundaries(tmp_path, monkeypatch, rows_per_write):
    monkeypatch.setattr(tagio, "_CSV_ROWS_PER_WRITE", rows_per_write)
    streams = [TagStream(0, _boundary_tags(), _HUGE_S),
               TagStream(-12, np.repeat(_boundary_tags(), 2), _HUGE_S)]
    path = tmp_path / "edges.csv"
    write_csv(path, streams)
    assert path.read_text().split("\n", 2)[2] == _oracle_rows(streams)


@pytest.mark.parametrize("bad", [-5, 7])
def test_csv_writer_refuses_tags_changed_after_construction(tmp_path, bad):
    # -5 leaves a quotient after the one-digit run's division; 7 in place of
    # 500 lands in the two-digit run and would be written as "07"
    s = TagStream(0, [5, 50, 500], 1.0)
    s.tags[2 if bad == 7 else 0] = bad
    with pytest.raises(ValueError, match="sorted and nonnegative"):
        write_csv(tmp_path / "changed.csv", s)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=12))
def test_csv_writer_writes_the_oracle_rows_or_refuses(tmp_path_factory, values):
    # whatever the tags were changed to, no row is ever written wrong
    s = TagStream(3, np.arange(len(values)), _HUGE_S)
    s.tags[:] = values
    path = tmp_path_factory.mktemp("prop") / "changed.csv"
    try:
        write_csv(path, s)
    except ValueError:
        assert any(t < 0 for t in values) or values != sorted(values)
    else:
        assert path.read_text().split("\n", 2)[2] == _oracle_rows([s])


@st.composite
def csv_bodies(draw):
    """Row text over the reader's whole grammar: a signed channel, leading
    zeros, \\n or \\r\\n, blank lines, an optional last line end."""
    channels = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=3))
    tag = st.one_of(st.integers(0, 2 ** 63 - 1), st.integers(0, 999), st.just(2 ** 63 - 1))
    zeros = st.integers(0, 3).map(lambda n: "0" * n)
    end = st.sampled_from(["\n", "\r\n"])
    body = ""
    for t in sorted(draw(st.lists(tag, max_size=30))):
        ch = draw(st.sampled_from(channels))
        sign = "-" if ch < 0 or (ch == 0 and draw(st.booleans())) else ""
        body += draw(st.sampled_from(["", "\n", "\r\n"]))
        body += f"{sign}{draw(zeros)}{abs(ch)},{draw(zeros)}{t}{draw(end)}"
    if draw(st.booleans()):
        body = body.rstrip("\r\n")
    return body


@settings(max_examples=300, deadline=None)
@given(csv_bodies())
def test_csv_reader_matches_loadtxt_over_its_grammar(tmp_path_factory, body):
    path = tmp_path_factory.mktemp("prop") / "grammar.csv"
    path.write_bytes(f"# qtag-csv v1 duration_ps={2 ** 64}\nchannel,timestamp_ps\n"
                     f"{body}".encode())
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        rows = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2, comments=None,
                          skiprows=2)
    order = list(dict.fromkeys(rows[:, 0].tolist()))
    back = read_csv(path)
    assert [s.channel for s in back] == order
    for s in back:
        assert np.array_equal(s.tags, rows[rows[:, 0] == s.channel, 1])


_STRADDLED = ("# qtag-csv v1 duration_ps=100000\r\nchannel,timestamp_ps\r\n"
              + "".join(f"{i % 3 - 1},{i * 97:05d}\r\n" + "\n" * (i % 4 == 0)
                        for i in range(200)))


@pytest.mark.parametrize("block_bytes", [1, 3, 8, 29, 1 << 18])
def test_csv_reader_joins_rows_across_blocks(tmp_path, monkeypatch, block_bytes):
    # small blocks cut rows, line ends and \r\n pairs at every position, and
    # hold rows longer than a block
    path = tmp_path / "blocks.csv"
    path.write_bytes(_STRADDLED.rstrip("\r\n").encode())
    monkeypatch.setattr(tagio, "_CSV_BLOCK_BYTES", block_bytes)
    back = read_csv(path)
    assert [s.channel for s in back] == [-1, 0, 1]
    for s in back:
        assert s.tags.tolist() == [i * 97 for i in range(200) if i % 3 - 1 == s.channel]


@pytest.mark.parametrize("block_bytes", [5, 64, 1 << 18])
def test_csv_error_line_counts_across_blocks(tmp_path, monkeypatch, block_bytes):
    lines = _STRADDLED.split("\r\n")
    bad = next(n for n, text in enumerate(lines) if n > 150 and text)
    lines[bad] = lines[bad].replace(",", ",x")
    text = "\r\n".join(lines)
    path = tmp_path / "late.csv"
    path.write_bytes(text.encode())
    monkeypatch.setattr(tagio, "_CSV_BLOCK_BYTES", block_bytes)
    file_line = text[:text.index(",x")].count("\n") + 1
    with pytest.raises(TagFormatError, match=f"line {file_line}: timestamp field holds "
                                             "the non-digit byte b'x'"):
        read_csv(path)


def test_csv_reader_memory_is_bounded_by_its_output(tmp_path):
    # the file is read in blocks: 2**17 rows (2.2 MB of text) peak at about
    # 3.2 times the 1 MiB of tags read, where one whole-file pass needs ~13
    s = random_stream(10, n=1 << 17, duration_s=20.0)
    path = tmp_path / "long.csv"
    write_csv(path, s)
    tracemalloc.start()
    try:
        (back,) = read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.tags, s.tags)
    assert peak < 5 * back.tags.nbytes


def test_qtag_payload_is_the_u64_view_of_the_tags(tmp_path):
    # negatives written after construction wrap as astype("<u8") wraps them
    s = random_stream(11, n=50)
    s.tags[:3] = [-1, -2 ** 63, 2 ** 63 - 1]
    path = tmp_path / "wrap.qtag"
    write_qtag(path, s)
    assert path.read_bytes() == (struct.pack("<4sHHQQ", b"QTAG", 1, s.channel,
                                             s.duration_ps, len(s.tags))
                                 + s.tags.astype("<u8").tobytes())


@pytest.mark.xfail(strict=True, reason="the float duration_s of a TagStream cannot "
                   "hold every integer ps duration above 2**50 ps")
def test_long_duration_qtag_round_trip(tmp_path):
    duration_ps = 4_503_599_627_370_491       # ~75 min, just below 2**52 ps
    path = tmp_path / "long.qtag"
    path.write_bytes(struct.pack("<4sHHQQ", b"QTAG", 1, 0, duration_ps, 0))
    write_qtag(tmp_path / "again.qtag", read_qtag(path))
    assert (tmp_path / "again.qtag").read_bytes() == path.read_bytes()


def test_generated_streams_through_files_into_correlator(tmp_path):
    # end-to-end composition: simulate, persist, reload, correlate
    from qfclab.config import bundled_losses, bundled_model
    from qfclab.montecarlo import ScenarioConfig, generate_streams
    from qfclab.scenarios import output_channel, signal_channel
    from qfclab.tagcorr import coincidence_histogram

    model = bundled_model()
    sc = ScenarioConfig(pump_power_mw=50.0, duration_s=2.0, seed=6,
                        channels={"signal": signal_channel(model),
                                  "output": output_channel(model, bundled_losses())})
    streams = generate_streams(sc, model)
    paths = {}
    for name, s in streams.items():
        paths[name] = write_qtag(tmp_path / f"{name}.qtag", s)
    loaded = {name: read_qtag(p) for name, p in paths.items()}
    direct = coincidence_histogram(streams["signal"], streams["output"],
                                   165, (-19965, 19965))
    from_files = coincidence_histogram(loaded["signal"], loaded["output"],
                                       165, (-19965, 19965))
    assert np.array_equal(direct.counts, from_files.counts)
    assert direct.counts.sum() > 0
