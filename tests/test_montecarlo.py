import numpy as np
import pytest

from qfclab import montecarlo
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
        monkeypatch.setattr(montecarlo, "_poisson_times",
                            lambda rng, rate, t0, t1: np.array([float(last)]))
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

    def test_slice_partition_equivalence(self, model):
        # a 3 s acquisition equals the concatenation of its 1 s slices,
        # regardless of how many slices the duration spans
        sc3 = dark_only_scenario(20_000.0, 3.0, seed=11)
        full = generate_streams(sc3, model)["output"].tags
        pieces = []
        for k in range(3):
            sck = dark_only_scenario(20_000.0, 3.0, seed=11)
            tags = generate_streams(sck, model)["output"].tags
            lo, hi = k * 10 ** 12, (k + 1) * 10 ** 12
            pieces.append(tags[(tags >= lo) & (tags < hi)])
        assert np.array_equal(full, np.concatenate(pieces))

