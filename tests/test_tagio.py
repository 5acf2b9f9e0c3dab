import struct

import numpy as np
import pytest

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


def test_bad_csv_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,chan\n1,2\n")
    with pytest.raises(TagFormatError, match="header"):
        read_csv(path)


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
