import concurrent.futures
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfclab import _kernels, montecarlo
from qfclab._kernels import dead_time_mask, is_sorted
from qfclab.config import bundled_losses, bundled_model
from qfclab.montecarlo import (ChannelConfig, ConfigurationError, ScenarioConfig,
                               TagStream, branch_rates, expected_rates,
                               generate_streams)
from qfclab.spectral import LossBudget, conversion_efficiency


@pytest.fixture(scope="module")
def model():
    return bundled_model()


def lossless_budget():
    return LossBudget(external_optics=1.0, fiber_coupling=1.0,
                      detector_efficiency=1.0, etalon_transmission=1.0,
                      mode_matching=1.0)


def dark_only_scenario(rate_hz, duration_s, seed=1):
    ch = ChannelConfig(losses=lossless_budget(), dark_hz=rate_hz,
                       jitter_fwhm_ps=0.0, dead_time_ns=0.0)
    return ScenarioConfig(pump_power_mw=0.0, duration_s=duration_s, seed=seed,
                          channels={"output": ch})


class TestTagStream:
    def test_invariants(self):
        with pytest.raises(ValueError):
            TagStream(0, np.array([5, 3]), 1.0)          # unsorted
        with pytest.raises(ValueError):
            TagStream(0, np.array([-1]), 1.0)            # negative
        with pytest.raises(ValueError):
            TagStream(0, np.array([10 ** 12]), 1.0)      # beyond duration
        s = TagStream(0, np.array([1, 2, 2, 5]), 1.0)
        assert s.rate_hz == 4.0

    def test_duration_ps_rounds(self):
        # 4.1 s is 4099999999999.9995 ps in float64: rounded, not truncated
        s = TagStream(0, np.array([4_099_999_999_999]), 4.1)
        assert s.duration_ps == 4_100_000_000_000


class TestGeneration:
    def test_dark_only_poisson(self, model):
        # 13 Hz for 10 s: expect 130, Poisson 5-sigma window is +-57
        streams = generate_streams(dark_only_scenario(13.0, 10.0, seed=42), model)
        n = len(streams["output"])
        assert abs(n - 130) <= 57

    def test_last_picosecond_kept(self, model, monkeypatch):
        # the generator bounds tags with TagStream's rounding of the duration
        last = 4_099_999_999_999

        class OneTag:
            def poisson(self, lam):
                return 1
        monkeypatch.setattr(montecarlo, "_slice_rng", lambda *seeds: OneTag())
        monkeypatch.setattr(montecarlo, "_uniform_times",
                            lambda rng, out, t0, t1: out.fill(float(last)))
        stream = generate_streams(dark_only_scenario(13.0, 4.1), model)["output"]
        assert stream.tags.tolist() == [last] * 5

    def test_zero_duration_empty(self, model):
        streams = generate_streams(dark_only_scenario(13.0, 0.0), model)
        assert len(streams["output"]) == 0

    def test_seed_determinism(self, model):
        sc = dark_only_scenario(5000.0, 3.0, seed=99)
        a = generate_streams(sc, model)["output"]
        b = generate_streams(sc, model)["output"]
        assert np.array_equal(a.tags, b.tags)
        c = generate_streams(dark_only_scenario(5000.0, 3.0, seed=100), model)["output"]
        assert not np.array_equal(a.tags, c.tags)

    def test_singles_rates_converge(self, model):
        # dead time off: the convergence contract is about the generated
        # point process (dead-time losses are checked separately)
        from dataclasses import replace
        from qfclab.scenarios import idler_channel, output_channel, signal_channel
        losses = bundled_losses()
        channels = {"signal": signal_channel(model),
                    "idler": idler_channel(model),
                    "output": output_channel(model, losses)}
        channels = {k: replace(v, dead_time_ns=0.0) for k, v in channels.items()}
        sc = ScenarioConfig(pump_power_mw=10.0, duration_s=5.0, seed=7,
                            channels=channels)
        streams = generate_streams(sc, model)
        for name, expected in expected_rates(sc, model).items():
            count = len(streams[name])
            target = expected * sc.duration_s
            assert abs(count / target - 1.0) < 5.0 / np.sqrt(target), name

    def test_lossless_pairs_have_identical_partners(self, model):
        ch = dict(losses=lossless_budget(), jitter_fwhm_ps=0.0, dead_time_ns=0.0)
        sc = ScenarioConfig(pump_power_mw=0.02, duration_s=2.0, seed=5,
                            channels={"signal": ChannelConfig(**ch),
                                      "idler": ChannelConfig(**ch),
                                      "output": ChannelConfig(**ch)})
        streams = generate_streams(sc, model)
        partners = np.sort(np.concatenate([streams["idler"].tags,
                                           streams["output"].tags]))
        assert np.array_equal(streams["signal"].tags, partners)
        assert len(streams["signal"]) > 100

    def test_branch_rates_scalings(self, model):
        """Pair rate linear in P; coincident cascade rate follows P*eta_int."""
        from qfclab.scenarios import output_channel, signal_channel
        losses = bundled_losses()
        def so_rate(p):
            sc = ScenarioConfig(pump_power_mw=p, duration_s=1.0, seed=0,
                                channels={"signal": signal_channel(model),
                                          "output": output_channel(model, losses)})
            return branch_rates(sc, model)["s+o"]
        p1, p2 = 10.0, 20.0
        expected_ratio = (p2 * conversion_efficiency(p2, model)) \
            / (p1 * conversion_efficiency(p1, model))
        assert so_rate(p2) / so_rate(p1) == pytest.approx(expected_ratio, rel=1e-9)
        # low-gain limit: quadratic in power
        assert so_rate(0.2) / so_rate(0.1) == pytest.approx(4.0, rel=1e-3)

    def test_uv_cascade_against_the_noise_model(self, model):
        """The generator's UV cascade over spectral.cascade_rate: 1 at low
        gain, falling as conversion saturates (as the spectral docstring
        states)."""
        from qfclab.scenarios import output_channel, signal_channel, uv_stack
        from qfclab.spectral import cascade_rate
        channels = {"signal": signal_channel(model),
                    "output": output_channel(model, bundled_losses())}

        def ratio(p):
            sc = ScenarioConfig(pump_power_mw=p, duration_s=1.0, seed=0, channels=channels)
            r = branch_rates(sc, model)
            return (r["s+o"] + r["o_only"]) / cascade_rate(p, uv_stack(model), model)
        assert ratio(1e-3) == pytest.approx(1.0, abs=1e-5)
        assert [round(ratio(p), 3) for p in (25.0, 100.0, 200.0, 400.0)] \
            == [0.945, 0.801, 0.646, 0.428]

    def test_dead_time_enforced(self, model):
        ch = ChannelConfig(losses=lossless_budget(), dark_hz=200_000.0,
                           jitter_fwhm_ps=0.0, dead_time_ns=50.0)
        sc = ScenarioConfig(pump_power_mw=0.0, duration_s=1.0, seed=3,
                            channels={"output": ch})
        tags = generate_streams(sc, model)["output"].tags
        assert len(tags) > 1000
        assert np.diff(tags).min() >= 50_000

    def test_jitter_broadens(self, model):
        # with jitter on, coincident partners are no longer time-identical
        ch0 = dict(losses=lossless_budget(), dead_time_ns=0.0)
        sc = ScenarioConfig(pump_power_mw=0.02, duration_s=2.0, seed=5,
                            channels={"signal": ChannelConfig(jitter_fwhm_ps=350.0, **ch0),
                                      "idler": ChannelConfig(jitter_fwhm_ps=350.0, **ch0),
                                      "output": ChannelConfig(jitter_fwhm_ps=350.0, **ch0)})
        streams = generate_streams(sc, model)
        partners = np.sort(np.concatenate([streams["idler"].tags,
                                           streams["output"].tags]))
        assert len(partners) == len(streams["signal"])
        assert not np.array_equal(streams["signal"].tags, partners)

    def test_overflow_guard(self, model):
        ch = ChannelConfig(losses=lossless_budget(), dark_hz=1e18)
        sc = ScenarioConfig(pump_power_mw=0.0, duration_s=1e6, seed=0,
                            channels={"output": ch})
        with pytest.raises(ConfigurationError):
            generate_streams(sc, model)

    def test_converted_input_stream(self, model):
        # with input light on, the output channel gains the converted-input
        # Poisson stream at flux * eta_loss(etalon) * eta_ext
        from qfclab.scenarios import output_channel
        from qfclab.config import uv_stack
        losses = bundled_losses()
        ch = ChannelConfig(losses=losses, filters=uv_stack(model, etalon=True),
                           dark_hz=model.dark_count_rate_hz,
                           luminescence_hz_per_mw=model.detector_stray_hz_per_mw)
        base = ScenarioConfig(pump_power_mw=200.0, duration_s=2.0, seed=13,
                              channels={"output": ch})
        lit = ScenarioConfig(pump_power_mw=200.0, duration_s=2.0, seed=13,
                             channels={"output": ch},
                             input_flux_hz=model.input_flux_hz)
        r_dark = expected_rates(base, model)["output"]
        r_lit = expected_rates(lit, model)["output"]
        expected_gain = model.input_flux_hz * losses.eta_loss(with_etalon=True) \
            * conversion_efficiency(200.0, model, internal=False, losses=losses)
        assert r_lit - r_dark == pytest.approx(expected_gain, rel=1e-12)
        n_lit = len(generate_streams(lit, model)["output"])
        target = r_lit * 2.0
        assert abs(n_lit / target - 1.0) < 5.0 / np.sqrt(target)

    def test_slice_made_alone_matches_its_window(self, model):
        # slice k generated on its own equals window k of the acquisition
        # away from the junctions, across which the jitter (350 ps FWHM,
        # sigma ~150 ps) can move a tag: the 1 us margin is ~7,000 sigma.
        # No dead time, which would let one slice's tags drop the next one's.
        sc = pair_scenario(2.5, 11, dead_time_ns=0.0)
        rates = branch_rates(sc, model)
        full = generate_streams(sc, model)
        margin = 10 ** 6
        for k in range(3):
            alone = slice_alone(sc, rates, k)
            lo = k * 10 ** 12 + margin
            hi = min(k + 1, 2.5) * 10 ** 12 - margin
            for c, stream in full.items():
                want = stream.tags[(stream.tags >= lo) & (stream.tags < hi)]
                got = alone[c][(alone[c] >= lo) & (alone[c] < hi)]
                assert len(want) > 300, (k, c)
                assert np.array_equal(got, want), (k, c)


class TestGeneratorStatistics:
    """Statistical checks of the streams; each bound is stated in advance."""

    def test_counts_per_window_have_fano_factor_one(self, model):
        # without dead time every channel is a superposition of independent
        # Poisson branches, jittered or not: counts in 1 ms windows have
        # variance = mean. For M windows of Poisson mean m, the Fano factor
        # has sd sqrt((2 + 1/m) / (M - 1)); the bound is 5 sd.
        sc = pair_scenario(3.0, 31, dead_time_ns=0.0)
        windows = 3000
        for c, stream in generate_streams(sc, model).items():
            counts = np.bincount(stream.tags // 10 ** 9, minlength=windows)
            assert len(counts) == windows and counts.mean() > 1, c
            fano = counts.var(ddof=1) / counts.mean()
            bound = 5.0 * math.sqrt((2.0 + 1.0 / counts.mean()) / (windows - 1))
            assert abs(fano - 1.0) <= bound, (c, fano)

    def test_coincidence_peak_width_matches_the_two_fwhms(self, model):
        # lossless paths, no background, no dead time, three different
        # jitters: each pair peak has sigma^2 = sigma_a^2 + sigma_b^2 (+1/6 ps^2
        # from rounding both tags). The accidentals (~0.5% of the s+i window,
        # less for s+o) are subtracted at N_a N_b w / T per bin. With >= 10,000
        # pairs the sd of the measured sigma is < 1%; the bound is 5%.
        fwhm = {"signal": 300.0, "idler": 500.0, "output": 700.0}
        channels = {c: ChannelConfig(losses=lossless_budget(), jitter_fwhm_ps=f,
                                     dead_time_ns=0.0) for c, f in fwhm.items()}
        sc = ScenarioConfig(pump_power_mw=5.0, duration_s=2.0, seed=17, channels=channels)
        streams = generate_streams(sc, model)
        a = streams["signal"]
        for other in ("idler", "output"):
            b = streams[other]
            sigma = math.hypot(fwhm["signal"], fwhm[other]) / 2.3548200450309493
            width = 10
            half = int(6 * sigma) // width * width
            counts = _kernels.pair_histogram(a.tags, b.tags, -half, half, width)
            counts = counts - len(a) * len(b) * width / (sc.duration_s * 1e12)
            tau = -half + width * (np.arange(len(counts)) + 0.5)
            n = counts.sum()
            assert n >= 10_000, other
            mean = (counts * tau).sum() / n
            var = (counts * tau ** 2).sum() / n - mean ** 2 - width ** 2 / 12
            assert abs(mean) <= 5 * sigma / math.sqrt(n), (other, mean)
            assert abs(math.sqrt(var) / math.hypot(sigma, math.sqrt(1 / 6)) - 1) <= 0.05, \
                (other, math.sqrt(var), sigma)

    @pytest.mark.parametrize("kind", ["coincidence_si", "coincidence_so"])
    def test_singles_match_expected_rates(self, model, kind):
        # the channel sets of both coincidence scenarios, dead time off:
        # each channel's count is Poisson with mean r T, bound 5 sd
        from dataclasses import replace
        from qfclab.scenarios import idler_channel, output_channel, signal_channel
        high = kind == "coincidence_so"
        channels = {"signal": signal_channel(model, vbg=high),
                    "output" if high else "idler":
                        output_channel(model, bundled_losses()) if high
                        else idler_channel(model)}
        channels = {k: replace(v, dead_time_ns=0.0) for k, v in channels.items()}
        sc = ScenarioConfig(pump_power_mw=200.0 if high else 0.4,
                            duration_s=2.0 if high else 10.0, seed=23, channels=channels)
        streams = generate_streams(sc, model)
        for c, rate in expected_rates(sc, model).items():
            target = rate * sc.duration_s
            assert abs(len(streams[c]) - target) <= 5.0 * math.sqrt(target), c

    def test_background_only_channel_is_not_jittered(self, model):
        # a channel fed only by its dark counts keeps the rint of its stream's
        # uniform draws, although its jitter is on
        ch = ChannelConfig(losses=lossless_budget(), dark_hz=20_000.0,
                           jitter_fwhm_ps=350.0, dead_time_ns=0.0)
        sc = ScenarioConfig(pump_power_mw=0.0, duration_s=2.5, seed=8,
                            channels={"output": ch})
        stream = montecarlo._STREAM_ORDER.index("bg_output")
        want = []
        for k, (t0, t1) in enumerate([(0.0, 1.0), (1.0, 2.0), (2.0, 2.5)]):
            rng = montecarlo._slice_rng(8, k, stream)
            times = rng.uniform(t0 * 1e12, t1 * 1e12, rng.poisson(20_000.0 * (t1 - t0)))
            want.append(np.sort(np.rint(times)).astype(np.int64))
        got = generate_streams(sc, model)["output"].tags
        assert len(got) > 40_000
        assert np.array_equal(got, np.concatenate(want))


class TestNonFiniteInputs:
    @pytest.mark.parametrize("field", ["jitter_fwhm_ps", "dead_time_ns", "dark_hz",
                                       "luminescence_hz_per_mw"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_channel_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            ChannelConfig(losses=lossless_budget(), **{field: value})

    @pytest.mark.parametrize("field", ["pump_power_mw", "duration_s", "input_flux_hz"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_scenario_field(self, field, value):
        kwargs = dict(pump_power_mw=1.0, duration_s=1.0, seed=0, channels={})
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(**kwargs)


def slice_alone(scenario, rates, k):
    """Slice k drawn on its own into fresh buffers: {channel: sorted int64
    ps tags}, not cut to the acquisition."""
    draws = montecarlo._slice_draws(scenario, rates, k)
    regions = {c: np.empty(sum(n for *_, n, chs in draws if c in chs), dtype=np.int64)
               for c in scenario.channels}
    montecarlo._fill_slice(scenario, k, draws, regions)
    return regions


def serial_generate_streams(scenario, model):
    """The serial generator that the threaded one replaced: every slice kept
    as float64 on one thread, then per channel one global rint and sort,
    a range mask and the dead-time filter. Each coincident branch is
    jittered per channel from its own stream; no other branch is jittered.
    The times come from rng.uniform, so the oracle checks the generator's
    in-place draws against it bit for bit."""
    rates = branch_rates(scenario, model)
    n_slices = max(1, math.ceil(scenario.duration_s / montecarlo._SLICE_S))
    per_channel = {name: [] for name in scenario.channels}
    for k in range(n_slices):
        t0 = k * montecarlo._SLICE_S
        t1 = min((k + 1) * montecarlo._SLICE_S, scenario.duration_s)
        for si, stream in enumerate(montecarlo._STREAM_ORDER):
            if stream.startswith("jitter"):
                continue
            rate = rates.get(stream, 0.0)
            channels = [c for c in montecarlo._BRANCH_CHANNELS[stream]
                        if c in scenario.channels]
            if rate <= 0 or not channels:
                continue
            rng = montecarlo._slice_rng(scenario.seed, k, si)
            times = rng.uniform(t0 * 1e12, t1 * 1e12, rng.poisson(rate * (t1 - t0)))
            for c in channels:
                jit_fwhm = scenario.channels[c].jitter_fwhm_ps
                if stream in ("s+o", "s+i") and jit_fwhm > 0:
                    ji = montecarlo._STREAM_ORDER.index(f"jitter_{stream}_{c}")
                    rng = montecarlo._slice_rng(scenario.seed, k, ji)
                    per_channel[c].append(
                        times + rng.normal(0.0, jit_fwhm / 2.3548200450309493, len(times)))
                else:
                    per_channel[c].append(times)
    duration_ps = round(scenario.duration_s * 1e12)
    out = {}
    for c, cfg in scenario.channels.items():
        t = np.concatenate(per_channel[c]) if per_channel[c] else np.empty(0)
        t = np.sort(np.rint(t)).astype(np.int64)
        t = t[(t >= 0) & (t < duration_ps)]
        if cfg.dead_time_ns > 0 and len(t):
            t = t[dead_time_mask(t, int(round(cfg.dead_time_ns * 1e3)))]
        out[c] = t
    return out


def pair_scenario(duration_s, seed, pump_power_mw=10.0, **channel_changes):
    from dataclasses import replace
    from qfclab.scenarios import idler_channel, output_channel, signal_channel
    model = bundled_model()
    channels = {"signal": signal_channel(model),
                "idler": idler_channel(model),
                "output": output_channel(model, bundled_losses())}
    channels = {k: replace(v, **channel_changes) for k, v in channels.items()}
    return ScenarioConfig(pump_power_mw=pump_power_mw, duration_s=duration_s, seed=seed,
                          channels=channels)


def assert_matches_serial(scenario, model):
    got = generate_streams(scenario, model)
    want = serial_generate_streams(scenario, model)
    assert list(got) == list(want)
    for c in want:
        assert got[c].tags.dtype == np.int64
        assert np.array_equal(got[c].tags, want[c]), c
    return got


@pytest.fixture(params=[1, 2, 3])
def workers(request, monkeypatch):
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: request.param)
    return request.param


class TestSerialOracle:
    @pytest.mark.parametrize("duration_s", [2.5, 0.3, 3.0])
    @pytest.mark.parametrize("seed", [1, 2, 12345])
    def test_pair_scenario(self, model, workers, duration_s, seed):
        streams = assert_matches_serial(pair_scenario(duration_s, seed), model)
        assert all(len(s) > 100 for s in streams.values())

    def test_no_jitter_no_dead_time_and_a_channel_without_branch(self, model, workers):
        # pump off and no dark counts on the idler: no stream feeds it
        ch = dict(losses=lossless_budget(), jitter_fwhm_ps=0.0, dead_time_ns=0.0)
        sc = ScenarioConfig(pump_power_mw=0.0, duration_s=2.5, seed=4,
                            channels={"signal": ChannelConfig(dark_hz=30_000.0, **ch),
                                      "idler": ChannelConfig(**ch)})
        streams = assert_matches_serial(sc, model)
        assert len(streams["signal"]) > 1000 and len(streams["idler"]) == 0

    @pytest.mark.parametrize("dead_time_ns", [0.0, 50.0])
    def test_jitter_across_slice_junctions(self, model, workers, dead_time_ns):
        # a 0.1 s jitter moves tags across every slice junction and out of
        # [0, duration): the joined slices are unsorted, so the generator
        # takes its re-sort path, and the cut drops tags at both ends
        sc = pair_scenario(2.5, 9, jitter_fwhm_ps=1e11, dead_time_ns=dead_time_ns)
        rates = branch_rates(sc, model)
        slices = [slice_alone(sc, rates, k) for k in range(3)]
        for c in sc.channels:
            joined = np.concatenate([s[c] for s in slices])
            assert not is_sorted(joined), c
            assert joined.min() < 0 and joined.max() >= round(sc.duration_s * 1e12)
        assert_matches_serial(sc, model)


def test_allocation_peak_stays_near_the_tags_returned(model, workers):
    # coincidence_so's channel set for 3 s (about 1.8M tags): each tag is
    # drawn into its channel's buffer and never copied whole, so the peak
    # is that buffer plus the dead-time filter's masks: 1.24-1.38 at 1-3
    # workers, where copies of the tags per slice and per channel read 1.66-1.88
    from qfclab.scenarios import output_channel, signal_channel
    sc = ScenarioConfig(pump_power_mw=200.0, duration_s=3.0, seed=3,
                        channels={"signal": signal_channel(model, vbg=True),
                                  "output": output_channel(model, bundled_losses())})
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        streams = generate_streams(sc, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(s.tags.nbytes for s in streams.values())
    assert returned > 10 ** 7
    assert peak <= 1.5 * returned, peak / returned


# seed 1133: the output's four slices hold 2, 0, 4 and 1 tags, and a pair
# tag jittered across the last junction inverts it
@example(duration_s=3.5, seed=1133, pump_power_mw=0.07, jitter_fwhm_ps=1e11,
         dead_time_ns=5000.0, dark_hz=(2000.0, 2000.0, 1.0))
@settings(max_examples=100, deadline=None)
@given(duration_s=st.floats(0.0, 3.5), seed=st.integers(0, 2 ** 32),
       pump_power_mw=st.floats(0.0, 0.07),
       jitter_fwhm_ps=st.one_of(st.just(0.0), st.floats(0.0, 1e11)),
       dead_time_ns=st.one_of(st.just(0.0), st.floats(0.0, 5000.0)),
       dark_hz=st.tuples(st.floats(0.0, 2000.0), st.floats(0.0, 2000.0), st.floats(0.0, 1.0)))
def test_matches_serial_oracle_at_1_2_and_3_workers(model, duration_s, seed, pump_power_mw,
                                                     jitter_fwhm_ps, dead_time_ns, dark_hz):
    # lossless paths: the idler takes nearly every pair, and the output only
    # the converted ones (under 1 Hz at 0.07 mW) and under 1 Hz of dark
    # counts, so its slices can be empty between non-empty ones
    channels = {c: ChannelConfig(losses=lossless_budget(), jitter_fwhm_ps=jitter_fwhm_ps,
                                 dead_time_ns=dead_time_ns, dark_hz=d)
                for c, d in zip(("signal", "idler", "output"), dark_hz)}
    sc = ScenarioConfig(pump_power_mw=pump_power_mw, duration_s=duration_s, seed=seed,
                        channels=channels)
    for workers in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_usable_cpus", lambda: workers)
            assert_matches_serial(sc, model)


def test_rates_and_dead_time_stay_on_calling_thread(model, monkeypatch):
    calls = []

    def on_calling_thread(fn):
        def check(*args, **kwargs):
            assert threading.current_thread() is threading.main_thread()
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return check

    monkeypatch.setattr(montecarlo, "dead_time_mask",
                        on_calling_thread(montecarlo.dead_time_mask))
    monkeypatch.setattr(montecarlo, "band_fraction",
                        on_calling_thread(montecarlo.band_fraction))
    pools = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            self.workers, self.submitted = max_workers, 0
            pools.append(self)

        def submit(self, *args, **kwargs):
            self.submitted += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 3)
    streams = generate_streams(pair_scenario(50.0, 2, pump_power_mw=0.01), model)
    assert sum(len(s) for s in streams.values()) > 1000
    assert {"dead_time_mask", "band_fraction"} <= set(calls)
    # the slice pool, then the dead-time pool of the one stream long enough
    # to split (the idler's ~1e6 tags; the others stay serial)
    assert len(streams["idler"]) >= 3 * _kernels._DEAD_TIME_PART
    assert max(len(streams["signal"]), len(streams["output"])) < 2 * _kernels._DEAD_TIME_PART
    assert [(pool.workers, pool.submitted) for pool in pools] == [(3, 3), (3, 3)]
