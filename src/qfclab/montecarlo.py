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
first draws, on the calling thread, the Poisson count of every branch of
every slice; the counts size the buffers, and slice k owns one contiguous
region of each. The slices then fill their regions concurrently on the
block pool of `_kernels._map_blocks`, one contiguous block of slices per
worker and at most one worker per CPU this process may use. A branch's
times are drawn straight into its part of the region (`rng.random` scaled
in place, the bits of `rng.uniform`); a two-channel branch copies them into
its second channel's region before each channel's jitter is added. Each
region is then sorted as floats and rounded to int64 in place. So the
joined stream is the buffer itself, bitwise identical for any number of
workers, and it can be out of order only at a junction of two regions,
where only a jittered pair tag can invert it: only then is it sorted again.
The slice workers only sample, round and sort, where numpy releases the
GIL. The rates, the cut to [0, duration) and the outer call of the
dead-time filter run on the calling thread; the filter masks the parts of
a long stream on the same pool, and the kept tags are packed together in
place, in chunks. The TagStream views them in the buffer.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._kernels import _map_blocks, dead_time_mask, is_sorted
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
    r = branch_rates(scenario, model)
    out = {}
    if "signal" in scenario.channels:
        out["signal"] = r["s+o"] + r["s+i"] + r["s_only"] + r["bg_signal"]
    if "idler" in scenario.channels:
        out["idler"] = r["s+i"] + r["i_only"] + r["bg_idler"]
    if "output" in scenario.channels:
        out["output"] = r["s+o"] + r["o_only"] + r["bg_output"] + r.get("input_o", 0.0)
    return out


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
    """Slice k's branches that have tags, in _BRANCH_CHANNELS order: (branch,
    its Generator with the Poisson count drawn, the count, its channels)."""
    t0, t1 = _slice_window(scenario, k)
    draws = []
    for stream, branch_channels in _BRANCH_CHANNELS.items():
        rate = rates.get(stream, 0.0)
        channels = [c for c in branch_channels if c in scenario.channels]
        if rate <= 0 or not channels:
            continue
        rng = _slice_rng(scenario.seed, k, _STREAM_ORDER.index(stream))
        n = int(rng.poisson(rate * (t1 - t0)))
        if n:
            draws.append((stream, rng, n, channels))
    return draws


def _fill_slice(scenario, k, draws, regions):
    """Draws slice k into its regions, {channel: int64 view}, and leaves each
    sorted and rounded. draws are `_slice_draws(scenario, rates, k)`, and a
    region holds its channel's branches in their order. Tags are not cut to
    the acquisition, so a pair tag jittered across either end of the slice
    is kept."""
    t0, t1 = _slice_window(scenario, k)
    at = dict.fromkeys(regions, 0)
    for stream, rng, n, channels in draws:
        segs = [regions[c][at[c]:at[c] + n].view(np.float64) for c in channels]
        for c in channels:
            at[c] += n
        _uniform_times(rng, segs[0], t0, t1)
        for seg in segs[1:]:
            seg[:] = segs[0]
        if stream not in _JITTERED:
            continue
        for c, seg in zip(channels, segs):
            fwhm = scenario.channels[c].jitter_fwhm_ps
            if fwhm > 0:
                jrng = _slice_rng(scenario.seed, k, _STREAM_ORDER.index(f"jitter_{stream}_{c}"))
                seg += jrng.normal(0.0, fwhm / 2.3548200450309493, n)
    for r in regions.values():
        f = r.view(np.float64)
        # sorted as floats (faster here than as int64), then rounded: rint
        # keeps the order. Cast by chunks: on a whole region, numpy would
        # copy it first, as the float and int64 views overlap
        f.sort()
        for i in range(0, len(r), _CHUNK):
            np.rint(f[i:i + _CHUNK], out=r[i:i + _CHUNK], casting="unsafe")


def _compact(t, keep):
    """Moves the tags t[keep] to the front of t, in order; returns their
    number. Each chunk is copied out before it is written, and the write
    never passes the chunk read."""
    w = 0
    for i in range(0, len(t), _CHUNK):
        kept = t[i:i + _CHUNK][keep[i:i + _CHUNK]]
        t[w:w + len(kept)] = kept
        w += len(kept)
    return w


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

    n_slices = max(1, math.ceil(scenario.duration_s / _SLICE_S))
    # the Poisson counts, drawn here, size one buffer per channel: slice k
    # of channel c is bufs[c][bounds[c][k]:bounds[c][k + 1]]
    draws = [_slice_draws(scenario, rates, k) for k in range(n_slices)]
    bounds = {c: np.cumsum([0] + [sum(n for *_, n, chs in d if c in chs) for d in draws])
              for c in scenario.channels}
    bufs = {c: np.empty(int(b[-1]), dtype=np.int64) for c, b in bounds.items()}

    def fill(lo, hi):
        for k in range(lo, hi):
            _fill_slice(scenario, k, draws[k],
                        {c: buf[bounds[c][k]:bounds[c][k + 1]] for c, buf in bufs.items()})

    _map_blocks(fill, n_slices)

    duration_ps = round(scenario.duration_s * _PS)
    out = {}
    for c, cfg in scenario.channels.items():
        t = bufs[c]
        # each slice is sorted, so only the junctions can be inverted, and
        # only by a pair tag jittered across one; an empty slice repeats a
        # junction, and the ends are no junctions
        j = bounds[c][1:-1]
        j = j[(j > 0) & (j < len(t))]
        if np.any(t[j - 1] > t[j]):
            t.sort(kind="stable")
        lo, hi = np.searchsorted(t, (0, duration_ps))
        t = t[lo:hi]
        if cfg.dead_time_ns > 0 and len(t):
            t = t[:_compact(t, dead_time_mask(t, int(round(cfg.dead_time_ns * 1e3))))]
        out[c] = TagStream(CHANNEL_IDS[c], t, scenario.duration_s,
                           meta={"channel_name": c, "pump_power_mw": scenario.pump_power_mw,
                                 "seed": scenario.seed})
    return out
