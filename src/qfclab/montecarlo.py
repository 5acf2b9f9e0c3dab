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
stream per (coincident branch, channel) pair. `generate_streams` runs the
slices concurrently on the block pool of `_kernels._map_blocks`, one
contiguous block of slices per worker and at most one worker per CPU this
process may use. Each slice comes back rounded and sorted in int64 per
channel, and the slices are joined in slice order, so the streams are
bitwise identical for any number of workers. Only a jittered pair tag can
cross a slice junction, and then the joined stream is sorted again. The
slice workers only sample, round and sort, where numpy releases the GIL.
The rates and the outer call of the dead-time filter run on the calling
thread; the filter masks the parts of a long stream on the same pool,
after the slices.
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


def _poisson_times(rng, rate_hz, t0_s, t1_s):
    n = rng.poisson(rate_hz * (t1_s - t0_s))
    return rng.uniform(t0_s * _PS, t1_s * _PS, n)


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


def _slice_tags(scenario, rates, k):
    """Slice k of the acquisition: {channel: sorted int64 ps tags}.

    Tags are rounded but not yet cut to the acquisition, so a pair tag
    jittered across either end of the slice is kept.
    """
    t0 = k * _SLICE_S
    t1 = min((k + 1) * _SLICE_S, scenario.duration_s)
    parts = {name: [] for name in scenario.channels}
    for stream, branch_channels in _BRANCH_CHANNELS.items():
        rate = rates.get(stream, 0.0)
        channels = [c for c in branch_channels if c in scenario.channels]
        if rate <= 0 or not channels:
            continue
        times = _poisson_times(_slice_rng(scenario.seed, k, _STREAM_ORDER.index(stream)),
                               rate, t0, t1)
        for c in channels:
            cfg = scenario.channels[c]
            if stream in _JITTERED and cfg.jitter_fwhm_ps > 0:
                rng = _slice_rng(scenario.seed, k,
                                 _STREAM_ORDER.index(f"jitter_{stream}_{c}"))
                sigma_ps = cfg.jitter_fwhm_ps / 2.3548200450309493
                parts[c].append(times + rng.normal(0.0, sigma_ps, len(times)))
            else:
                parts[c].append(times)
    out = {}
    for c, channel_parts in parts.items():
        if not channel_parts:
            continue
        raw = np.concatenate(channel_parts)     # a new array: safe to update in place
        # sorted as floats (faster here than as int64), then rounded: rint
        # keeps the order, so the int64 tags come out sorted
        raw.sort()
        np.rint(raw, out=raw)
        out[c] = raw.astype(np.int64)
    return out


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
    blocks = _map_blocks(
        lambda lo, hi: [_slice_tags(scenario, rates, k) for k in range(lo, hi)], n_slices)
    slices = [s for block in blocks for s in block]

    duration_ps = round(scenario.duration_s * _PS)
    out = {}
    for c, cfg in scenario.channels.items():
        parts = [s.pop(c) for s in slices if c in s]
        t = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        del parts
        # only a pair tag jittered across a slice junction leaves t unsorted
        if not is_sorted(t):
            t.sort(kind="stable")
        lo, hi = np.searchsorted(t, (0, duration_ps))
        t = t[lo:hi]
        if cfg.dead_time_ns > 0 and len(t):
            t = t[dead_time_mask(t, int(round(cfg.dead_time_ns * 1e3)))]
        out[c] = TagStream(CHANNEL_IDS[c], t, scenario.duration_s,
                           meta={"channel_name": c, "pump_power_mw": scenario.pump_power_mw,
                                 "seed": scenario.seed})
    return out
