"""Synthetic detector time-tag streams for the three detection channels.

Events come from a marked Poisson pair process: pairs are created at
pair_rate_per_mw * P, the partner photon is converted with probability
eta_int(P) and routed to the UV channel or stays infrared, and every photon
survives its detection path with an independent per-path probability. The
generator samples the five detectable thinnings of that process directly
(coincident and single-detection branches), which is statistically exact
and avoids materializing undetected pairs. Uncorrelated backgrounds (dark
counts, pump-induced luminescence, converted input light) are independent
Poisson streams merged in afterwards. A non-paralyzable detector dead time
is applied last.

Gaussian timing jitter is drawn only for the two coincident branches
('s+o', 's+i'), independently on each channel a branch reaches. Every other
branch is an independent Poisson stream on its channel, and by the
displacement theorem a Poisson process whose points move by i.i.d. offsets
is a Poisson process of the same rate: jitter there would change no
statistic of the streams, only the bits. It is visible only as the width
of the coincidence peak, which the jittered pair branches carry.

Determinism: the acquisition is generated in fixed 1 s slices, each stream
seeded by SeedSequence(seed, slice_index, stream_index), where
stream_index is the position of the stream's name in `_STREAM_ORDER`:
first the nine Poisson branches (their uniform times), then one jitter
stream per (coincident branch, channel) pair.

Each tag is written once, into one buffer per channel. `generate_streams`
first draws on the calling thread, slice by slice, the Poisson count of
every branch and the times of the two coincident branches, each channel's
jitter added. It routes each pair time to the slice its rint lands in,
clipped to the first and last slice. Every other tag of slice k rounds
into [k, k + 1] s, so the slices, each sorted, join into a sorted stream
and nothing is sorted again. The counts and the routed pair tags size the
buffers, and slice k owns one contiguous region of each. The slices are
then finished on the block pool of `_kernels._map_blocks`, one contiguous
block of slices per worker and at most one worker per CPU this process
may use. A worker takes the slices of its block in order. It draws the
one-channel branches straight into the region (`rng.random` scaled in
place, the bits of `rng.uniform`) and copies the routed pair times in,
sorts the region as floats and rounds it to int64 in place, and cuts it
to [0, duration). It then applies the dead time from the detector's ready
time after the slice before (`_kernels._dead_time_part`), and packs the
kept tags behind the block's earlier ones, in chunks. A block that does
not start the acquisition cannot know the detector's state at its start:
its head, the tags before its first gap of at least the dead time, is
packed unfiltered, since the tag after such a gap is always kept. The
calling thread then filters each head from the ready time the block
before left, and moves each block down behind the kept tags before it.
The workers only sample, sort, round and filter, where numpy releases the
GIL, and the streams are bitwise identical for any number of workers.
The TagStream views the kept tags in the buffer.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._kernels import (_cluster_start, _dead_time_part, _map_blocks, _physical_memory,
                       is_sorted)
from .spectral import _converted_input_rate, band_fraction, conversion_efficiency

CHANNELS = ("signal", "idler", "output")
CHANNEL_IDS = {"signal": 0, "idler": 1, "output": 2}

_PS = 1_000_000_000_000  # ps per second
_SLICE_S = 1.0
_MAX_EXPECTED = 2.0 ** 62


class ConfigurationError(ValueError):
    pass


@dataclass(frozen=True)
class TagStream:
    """Time-ordered detector events on one channel, timestamps in integer ps."""

    channel: int
    tags: np.ndarray
    duration_s: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        tags = np.ascontiguousarray(self.tags, dtype=np.int64)
        object.__setattr__(self, "tags", tags)
        if self.duration_s < 0:
            raise ValueError("duration must be >= 0")
        if len(tags):
            if tags[0] < 0:
                raise ValueError("timestamps must be nonnegative")
            if not is_sorted(tags):
                raise ValueError("timestamps must be sorted")
            if tags[-1] >= self.duration_ps:
                raise ValueError("timestamps must be below the acquisition duration")

    def __len__(self):
        return len(self.tags)

    @property
    def duration_ps(self):
        """The duration in integer ps; every tag lies below it."""
        return round(self.duration_s * _PS)

    @property
    def rate_hz(self):
        if self.duration_s == 0:
            return 0.0
        return len(self.tags) / self.duration_s


def _require_finite(config, *names):
    for name in names:
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class ChannelConfig:
    """Detection-path description for one channel."""

    losses: object
    filters: tuple = ()
    jitter_fwhm_ps: float = 350.0
    dead_time_ns: float = 50.0
    dark_hz: float = 0.0
    luminescence_hz_per_mw: float = 0.0

    def __post_init__(self):
        _require_finite(self, "jitter_fwhm_ps", "dead_time_ns", "dark_hz",
                        "luminescence_hz_per_mw")
        if self.jitter_fwhm_ps < 0 or self.dead_time_ns < 0:
            raise ValueError("jitter and dead time must be >= 0")
        if self.dark_hz < 0 or self.luminescence_hz_per_mw < 0:
            raise ValueError("background rates must be >= 0")


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulated acquisition: pump power, optional input flux, channels."""

    pump_power_mw: float
    duration_s: float
    seed: int
    channels: dict
    input_flux_hz: float = 0.0

    def __post_init__(self):
        _require_finite(self, "pump_power_mw", "duration_s", "input_flux_hz")
        if self.duration_s < 0:
            raise ValueError("duration must be >= 0")
        if self.pump_power_mw < 0 or self.input_flux_hz < 0:
            raise ValueError("pump power and input flux must be >= 0")
        unknown = set(self.channels) - set(CHANNELS)
        if unknown:
            raise ValueError(f"unknown channels {sorted(unknown)}")


def _pair_acceptance(cfg, model, channel):
    """Spectral fraction of pair photons passing a channel's filter stack."""
    if not cfg.filters:
        return 1.0
    center = {"signal": model.lambda_signal_nm,
              "idler": model.lambda_input_nm,
              "output": model.lambda_output_nm}[channel]
    return band_fraction(cfg.filters, center, model.noise_bandwidth_ghz)


def branch_rates(scenario, model):
    """Expected rates (Hz) of every generated Poisson component.

    Keys: coincident branches ('s+o', 's+i'), singles branches ('s_only',
    'o_only', 'i_only'), per-channel backgrounds ('bg_<channel>') and the
    converted-input stream ('input_o').
    """
    p = scenario.pump_power_mw
    pair_rate = model.pair_rate_per_mw * p
    eta = conversion_efficiency(p, model, internal=True) if p > 0 else 0.0

    def path(channel):
        cfg = scenario.channels.get(channel)
        if cfg is None:
            return None, 0.0
        t = cfg.losses.eta_loss(with_etalon=False) * _pair_acceptance(cfg, model, channel)
        return cfg, t

    cfg_s, t_s = path("signal")
    cfg_i, t_i = path("idler")
    cfg_o, t_o = path("output")

    p_uv = eta * t_o
    p_ir = (1.0 - eta) * t_i
    rates = {
        "s+o": pair_rate * t_s * p_uv,
        "s+i": pair_rate * t_s * p_ir,
        "s_only": pair_rate * t_s * (1.0 - p_uv - p_ir),
        "o_only": pair_rate * (1.0 - t_s) * p_uv,
        "i_only": pair_rate * (1.0 - t_s) * p_ir,
    }
    for name, cfg in (("signal", cfg_s), ("idler", cfg_i), ("output", cfg_o)):
        if cfg is not None:
            rates[f"bg_{name}"] = cfg.dark_hz + cfg.luminescence_hz_per_mw * p
    if scenario.input_flux_hz > 0 and cfg_o is not None:
        rates["input_o"] = _converted_input_rate(
            replace(model, input_flux_hz=scenario.input_flux_hz), p, cfg_o.losses,
            cfg_o.filters)
    return rates


def expected_rates(scenario, model):
    """Expected detected singles rate per channel, before dead-time losses."""
    return _channel_rates(scenario, branch_rates(scenario, model))


def _channel_rates(scenario, rates):
    """The sum of the branch rates reaching each channel of the scenario."""
    return {c: sum(rate for stream, rate in rates.items() if c in _BRANCH_CHANNELS[stream])
            for c in CHANNELS if c in scenario.channels}


# the SeedSequence stream index of each random stream of a slice: its
# position here. Changing the order changes every stream's bits.
_STREAM_ORDER = ("s+o", "s+i", "s_only", "o_only", "i_only",
                 "bg_signal", "bg_idler", "bg_output", "input_o",
                 "jitter_s+o_signal", "jitter_s+o_output",
                 "jitter_s+i_signal", "jitter_s+i_idler")


def _slice_rng(seed, slice_index, stream_index):
    return np.random.default_rng(np.random.SeedSequence((seed, slice_index, stream_index)))


_BRANCH_CHANNELS = {
    "s+o": ("signal", "output"),
    "s+i": ("signal", "idler"),
    "s_only": ("signal",),
    "o_only": ("output",),
    "i_only": ("idler",),
    "bg_signal": ("signal",),
    "bg_idler": ("idler",),
    "bg_output": ("output",),
    "input_o": ("output",),
}
_JITTERED = ("s+o", "s+i")
_CHUNK = 1 << 16    # tags per in-place cast or compaction step: bounds its temporaries


def _slice_window(scenario, k):
    """[t0, t1) of slice k, in s."""
    return k * _SLICE_S, min((k + 1) * _SLICE_S, scenario.duration_s)


def _uniform_times(rng, out, t0_s, t1_s):
    """rng.uniform(t0_s * _PS, t1_s * _PS, len(out)) drawn into out, bit for
    bit: uniform is lo + (hi - lo) * random(), in that order."""
    lo, hi = t0_s * _PS, t1_s * _PS
    rng.random(out=out)
    out *= hi - lo
    out += lo


def _slice_draws(scenario, rates, k):
    """Slice k's draws, made on the calling thread: (draws, pairs).

    draws lists the one-channel branches that have tags, in
    _BRANCH_CHANNELS order, as (channel, its Generator with the Poisson
    count drawn, the count). pairs maps each channel to the times of the
    coincident branches that reach it, float ps, each channel's jitter
    added and not cut to the slice.
    """
    t0, t1 = _slice_window(scenario, k)
    draws, pairs = [], {c: [] for c in scenario.channels}
    for stream, branch_channels in _BRANCH_CHANNELS.items():
        rate = rates.get(stream, 0.0)
        channels = [c for c in branch_channels if c in scenario.channels]
        if rate <= 0 or not channels:
            continue
        rng = _slice_rng(scenario.seed, k, _STREAM_ORDER.index(stream))
        n = int(rng.poisson(rate * (t1 - t0)))
        if not n:
            continue
        if stream not in _JITTERED:
            draws.append((channels[0], rng, n))
            continue
        times = np.empty(n)
        _uniform_times(rng, times, t0, t1)
        for c in channels:
            fwhm = scenario.channels[c].jitter_fwhm_ps
            jittered = times
            if fwhm > 0:
                jrng = _slice_rng(scenario.seed, k, _STREAM_ORDER.index(f"jitter_{stream}_{c}"))
                jittered = times + jrng.normal(0.0, fwhm / 2.3548200450309493, n)
            pairs[c].append(jittered)
    return draws, pairs


def _route(times, k, slices):
    """Appends the pair times of slice k to slices, one list per slice: each
    time to the slice its rint lands in, clipped to the first and last."""
    dest = np.rint(times).astype(np.int64)
    dest //= _PS
    np.clip(dest, 0, len(slices) - 1, out=dest)
    if (dest == k).all():
        slices[k].append(times)
        return
    for d in np.unique(dest):
        slices[d].append(times[dest == d])


def _fill(region, draws, pairs, t0_s, t1_s):
    """Draws one slice of one channel into region, int64, and leaves it
    sorted and rounded: the times of draws, [(Generator, count)], straight
    into it, then a copy of the pair times routed to it."""
    f = region.view(np.float64)
    at = 0
    for rng, n in draws:
        _uniform_times(rng, f[at:at + n], t0_s, t1_s)
        at += n
    for times in pairs:
        f[at:at + len(times)] = times
        at += len(times)
    # sorted as floats (faster here than as int64), then rounded: rint
    # keeps the order. Cast by chunks: on a whole region, numpy would
    # copy it first, as the float and int64 views overlap
    f.sort()
    for i in range(0, len(region), _CHUNK):
        np.rint(f[i:i + _CHUNK], out=region[i:i + _CHUNK], casting="unsafe")


def _pack(buf, w, i, j, keep=None):
    """Moves the tags buf[i:j], or those where keep is set, to buf[w:], in
    order, 65,536 at a time; w <= i. Returns the end of the packed tags.
    The write never passes the chunk read, and numpy copies a chunk that
    overlaps its destination before writing it."""
    if keep is None and w == i:
        return j
    for lo in range(i, j, _CHUNK):
        hi = min(lo + _CHUNK, j)
        kept = buf[lo:hi] if keep is None else buf[lo:hi][keep[lo - i:hi - i]]
        buf[w:w + len(kept)] = kept
        w += len(kept)
    return w


def _dead_time(buf, w, i, j, dead, ready):
    """Packs behind buf[:w] the tags of buf[i:j], sorted and w <= i, that a
    detector ready from time `ready` on keeps under the dead time `dead`:
    the first tag at or after `ready`, then `_kernels._dead_time_part`.
    Returns the end of the packed tags and the next ready time."""
    i += int(np.searchsorted(buf[i:j], ready))
    if i == j:
        return w, ready
    kept = np.empty(j - i, dtype=np.bool_)
    _dead_time_part(buf[i:j], dead, kept)
    w = _pack(buf, w, i, j, kept)
    return w, int(buf[w - 1]) + dead


def _finish(buf, w, i, j, dead, head, ready):
    """Packs the tags of one slice, buf[i:j], behind its block's earlier
    tags, buf[:w], under the dead time; returns the new (w, head, ready).

    ready is None while the block's head lasts: a block that does not start
    the acquisition cannot know the detector's state at its start, so its
    tags before its first gap of at least the dead time (searched from the
    block's second tag) are packed unfiltered, head counting them. The tag
    after that gap is always kept, and the dead time runs from it.
    """
    if dead <= 0:
        return _pack(buf, w, i, j), head, ready
    if ready is None:
        if head and i < j and buf[i] - buf[w - 1] >= dead:
            q = i
        else:
            q = i + _cluster_start(buf[i:j], 1, dead)
        w, head = _pack(buf, w, i, q), head + q - i
        if q == j:
            return w, head, None
        i, ready = q, int(buf[q])
    w, ready = _dead_time(buf, w, i, j, dead, ready)
    return w, head, ready


def generate_streams(scenario, model):
    """Simulate one acquisition; returns {channel_name: TagStream}.

    Deterministic for a fixed seed: identical streams across runs and
    platforms (numpy Generator bit streams are specified), whatever the
    number of worker threads.
    """
    rates = branch_rates(scenario, model)
    for name, rate in rates.items():
        if rate * scenario.duration_s > _MAX_EXPECTED:
            raise ConfigurationError(
                f"expected event count for {name} exceeds 2^62; reduce rate or duration")
    # the expected tags, 8 B each, must fit in physical memory
    physical = _physical_memory()
    need = 8 * sum(_channel_rates(scenario, rates).values()) * scenario.duration_s
    if physical and need > physical:
        raise ConfigurationError(
            f"the expected tags need {need / 2 ** 30:,.1f} GiB, more than the "
            f"{physical / 2 ** 30:,.1f} GiB of physical memory; reduce rate or duration")

    n_slices = max(1, math.ceil(scenario.duration_s / _SLICE_S))
    draws, routed = [], {c: [[] for _ in range(n_slices)] for c in scenario.channels}
    for k in range(n_slices):
        slice_draws, pairs = _slice_draws(scenario, rates, k)
        draws.append(slice_draws)
        for c, times in pairs.items():
            for t in times:
                _route(t, k, routed[c])
    # the counts and the routed pair tags size one buffer per channel: slice
    # k of channel c is bufs[c][bounds[c][k]:bounds[c][k + 1]]
    bounds = {c: np.cumsum([0] + [sum(n for ch, _, n in d if ch == c)
                                  + sum(len(t) for t in routed[c][k])
                                  for k, d in enumerate(draws)]).tolist()
              for c in scenario.channels}
    bufs = {c: np.empty(b[-1], dtype=np.int64) for c, b in bounds.items()}
    dead = {c: int(round(cfg.dead_time_ns * 1e3)) for c, cfg in scenario.channels.items()}
    duration_ps = round(scenario.duration_s * _PS)

    def finish(lo, hi):
        # per channel: block start, packed end, head length, ready time
        state = {c: (b[lo], b[lo], 0, 0 if lo == 0 else None) for c, b in bounds.items()}
        for k in range(lo, hi):
            t0, t1 = _slice_window(scenario, k)
            for c, buf in bufs.items():
                i, j = bounds[c][k], bounds[c][k + 1]
                _fill(buf[i:j], [(rng, n) for ch, rng, n in draws[k] if ch == c],
                      routed[c][k], t0, t1)
                routed[c][k] = None     # the pair times are copied: free them
                cut_lo, cut_hi = np.searchsorted(buf[i:j], (0, duration_ps)).tolist()
                start, w, head, ready = state[c]
                state[c] = (start, *_finish(buf, w, i + cut_lo, i + cut_hi, dead[c], head, ready))
        return state

    blocks = _map_blocks(finish, n_slices)

    out = {}
    for c, buf in bufs.items():
        # each block after the first: its head filtered from the previous
        # block's ready time, then its tags moved down behind the kept ones
        _, w, _, ready = blocks[0][c]
        for start, end, head, body_ready in (b[c] for b in blocks[1:]):
            if head:
                w, ready = _dead_time(buf, w, start, start + head, dead[c], ready)
            w = _pack(buf, w, start + head, end)
            if body_ready is not None:
                ready = body_ready
        out[c] = TagStream(CHANNEL_IDS[c], buf[:w], scenario.duration_s,
                           meta={"channel_name": c, "pump_power_mw": scenario.pump_power_mw,
                                 "seed": scenario.seed})
    return out
