"""The four benchmark workloads.

Each workload makes its inputs from the seed in `setup` (untimed), runs its
timed region in `run`, and checks the outputs of one `run` in `check`
(untimed). qfclab functions are always reached through their module
(``tagio.read_qtag(...)``), so the wrappers of `bench_trace` see every call.

* model_studies     figure-style studies with no tag streams: nearly all
                    spectral quadrature (noise_rate, noise_spectrum)
* coincidence_runs  the two coincidence scenarios: event generation, dead
                    time and the correlator on millions of tags
* tag_analysis      analysis of recorded tag files: qtag/CSV I/O, narrow and
                    wide correlation windows, slicing, auto-correlation
* fock_truncation   Fock-engine convergence study in n_max
"""

import hashlib
import math

import numpy as np

from qfclab import config, fock, montecarlo, scenarios, tagcorr, tagio


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class ManifestWorkload:
    """`run_manifest` on a fixed set of scenario kinds, named after their kinds
    so the CSVs match ``qfclab run --seed S`` byte for byte."""

    kinds = ()
    smoke_params = {}

    def __init__(self, seed, workdir, smoke=False):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.digests = None
        self.meta = {}

    def setup(self):
        self.model = config.bundled_model()
        self.losses = config.bundled_losses()
        self.outdir = self.workdir / "out"
        params = self.smoke_params if self.smoke else {}
        self.manifest = scenarios.RunManifest(
            [scenarios.Scenario(k, k, dict(params.get(k, {}))) for k in self.kinds],
            seed=self.seed, output_dir=str(self.outdir))

    def inputs(self):
        return {"kinds": list(self.kinds), "manifest_seed": self.seed,
                "params": {s.name: s.params for s in self.manifest.scenarios},
                "scenario_meta": self.meta}

    def run(self):
        return scenarios.run_manifest(self.manifest, model=self.model, losses=self.losses)

    def check(self, summaries):
        checks = [(f"{s['name']}.{c['name']}", c["passed"], c["detail"])
                  for s in summaries for c in s["checks"]]
        checks.append(("all_kinds_ran", [s["kind"] for s in summaries] == list(self.kinds),
                       f"ran {[s['kind'] for s in summaries]}"))
        self.meta = {s["name"]: s["meta"] for s in summaries if s["meta"]}
        digests = {p.name: _sha256(p) for p in sorted(self.outdir.glob("*.csv"))}
        if self.digests is None:
            self.digests = digests
        else:
            checks.append(("csv_digests_repeat", digests == self.digests,
                           "CSV sha256 digests equal those of the first run"))
        return checks

    def record(self):
        return {"csv_sha256": self.digests}


class ModelStudies(ManifestWorkload):
    kinds = ("efficiency_sweep", "snr_sweep", "noise_sweep", "noise_spectrum",
             "fock_demo")
    smoke_params = {"snr_sweep": {"powers_mw": [100, 200, 300, 400]},
                    "noise_sweep": {"powers_mw": [25, 100, 400], "n_seeds": 2}}


class CoincidenceRuns(ManifestWorkload):
    kinds = ("coincidence_si", "coincidence_so")
    smoke_params = {"coincidence_si": {"duration_s": 5.0},
                    "coincidence_so": {"duration_s": 2.0}}


class TagAnalysis:
    """Two recorded channels with a correlated pair component, analysed from
    their .qtag files. The streams come from numpy, not from the event
    generator, so generator changes move neither the inputs nor the time."""

    rates_hz = (330e3, 290e3)
    pair_hz = 10e3
    jitter_fwhm_ps = 350.0
    narrow = (165, (-20_130, 20_130))        # bin ps, tau range ps
    wide = (1000, (-1_000_000, 1_000_000))
    auto = (1000, (0, 1_000_000))
    n_slices = 8

    def __init__(self, seed, workdir, smoke=False):
        self.seed = seed
        self.workdir = workdir
        self.duration_s = 1.0 if smoke else 20.0
        self.csv_tags = 100_000 if smoke else 1_000_000

    def setup(self):
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0x7A6)))
        duration_ps = int(self.duration_s * 1e12)
        n_pairs = rng.poisson(self.pair_hz * self.duration_s)
        t_pair = rng.integers(0, duration_ps, n_pairs)
        sigma = self.jitter_fwhm_ps / (2.0 * math.sqrt(2.0 * math.log(2.0))) / math.sqrt(2.0)
        self.streams = []
        self.paths = []
        for channel, rate in enumerate(self.rates_hz):
            background = rng.integers(0, duration_ps,
                                      rng.poisson((rate - self.pair_hz) * self.duration_s))
            paired = t_pair + np.rint(rng.normal(0.0, sigma, n_pairs)).astype(np.int64)
            t = np.concatenate([background, paired])
            t = np.sort(t[(t >= 0) & (t < duration_ps)])
            stream = montecarlo.TagStream(channel, t, self.duration_s)
            path = self.workdir / f"ch{channel}.qtag"
            tagio.write_qtag(path, stream)
            self.streams.append(stream)
            self.paths.append(path)
        self.csv_path = self.workdir / "slice.csv"

    def inputs(self):
        return {"duration_s": self.duration_s,
                "tags_per_channel": [len(s.tags) for s in self.streams],
                "pair_hz": self.pair_hz, "jitter_fwhm_ps": self.jitter_fwhm_ps,
                "windows": {"narrow": self.narrow, "wide": self.wide, "auto": self.auto},
                "n_slices": self.n_slices, "csv_tags": self.csv_tags}

    def run(self):
        a, b = (tagio.read_qtag(p) for p in self.paths)
        narrow = tagcorr.coincidence_histogram(a, b, *self.narrow)
        wide = tagcorr.coincidence_histogram(a, b, *self.wide)
        sliced = tagcorr.coincidence_histogram_sliced(a, b, *self.wide, self.n_slices)
        auto = tagcorr.auto_correlation_histogram(a, *self.auto)
        g2 = tagcorr.g2_from_histogram(narrow)
        violated, nsig = tagcorr.cauchy_schwarz_test(g2)
        part = montecarlo.TagStream(a.channel, a.tags[:self.csv_tags], a.duration_s)
        tagio.write_csv(self.csv_path, part)
        back = tagio.read_csv(self.csv_path)
        return {"read": (a, b), "wide": wide, "sliced": sliced, "auto": auto,
                "g2": g2, "cs": (violated, nsig), "part": part, "back": back}

    def check(self, out):
        checks = []
        for stream, read in zip(self.streams, out["read"]):
            checks.append((f"qtag_round_trip_ch{stream.channel}",
                           np.array_equal(read.tags, stream.tags)
                           and read.duration_s == stream.duration_s
                           and read.channel == stream.channel,
                           f"{len(read.tags)} tags read back"))
        back = out["back"]
        part = out["part"]
        checks.append(("csv_round_trip",
                       len(back) == 1 and back[0].channel == part.channel
                       and np.array_equal(back[0].tags, part.tags),
                       f"{len(part.tags)} tags through write_csv/read_csv"))
        checks.append(("sliced_equals_single_pass",
                       np.array_equal(out["sliced"].counts, out["wide"].counts),
                       f"{self.n_slices} slices, {int(out['wide'].counts.sum())} pairs"))
        checks.append(("auto_correlation_nonempty", int(out["auto"].counts.sum()) > 0,
                       f"{int(out['auto'].counts.sum())} pairs"))
        g2 = out["g2"]
        violated, nsig = out["cs"]
        checks.append(("g2_above_2", g2.g2 > 2.0, f"g2 = {g2.g2:.2f} +- {g2.sigma:.2f}"))
        checks.append(("cauchy_schwarz_violated", bool(violated),
                       f"bound exceeded by {nsig:.1f} sigma"))
        return checks

    def record(self):
        return {}


class FockTruncation:
    """Raise n_max from 3 until `truncation_limited` clears, per pump amplitude,
    and compare the converged state with the two-mode squeezed vacuum
    closed form. The study has no random input; the seed is unused."""

    amplitudes = (0.1, 0.2, 0.3)
    first_n_max = 3
    last_n_max = 11          # dim 1728; a study that needs more counts as failed

    def __init__(self, seed, workdir, smoke=False):
        self.seed = seed
        if smoke:
            self.amplitudes = (0.1,)
        self.converged = {}

    def setup(self):
        pass

    def inputs(self):
        return {"amplitudes": list(self.amplitudes), "kappa": 1.0, "gamma": 1.0,
                "interaction_time": 1.0, "first_n_max": self.first_n_max}

    def run(self):
        results = []
        for amp in self.amplitudes:
            params = fock.CouplingParams(1.0, 1.0, amp, 1.0)
            n_max = self.first_n_max
            while True:
                obs = fock.observables_with_truncation_check(params, n_max=n_max)
                if not obs.truncation_limited or n_max >= self.last_n_max:
                    break
                n_max += 1
            results.append((amp, n_max, obs))
        return results

    def check(self, results):
        checks = []
        for amp, n_max, obs in results:
            pairs = math.sinh(amp) ** 2          # gamma*A*t with gamma = t = 1
            expected = {"n_output": pairs * math.sin(amp) ** 2,   # kappa = 1
                        "g2_signal_idler": 2.0 + 1.0 / pairs,
                        "g2_signal_output": 2.0 + 1.0 / pairs}
            got = {"n_output": obs.mean_photons["output"],
                   "g2_signal_idler": obs.g2_cross[("signal", "idler")],
                   "g2_signal_output": obs.g2_cross[("signal", "output")]}
            checks.append((f"A={amp}.converged", not obs.truncation_limited,
                           f"n_max = {n_max}"))
            for key, value in expected.items():
                rel = abs(got[key] / value - 1.0)
                checks.append((f"A={amp}.{key}_closed_form", rel <= 1e-6,
                               f"{got[key]:.12g} vs {value:.12g} (rel {rel:.2e})"))
            for mode, g2 in obs.g2_auto.items():
                checks.append((f"A={amp}.g2_{mode}_thermal", abs(g2 - 2.0) <= 1e-5,
                               f"g2 = {g2:.9f}"))
            self.converged[amp] = n_max
        return checks

    def record(self):
        return {"converged_n_max": {str(a): n for a, n in self.converged.items()}}


WORKLOADS = {
    "model_studies": ModelStudies,
    "coincidence_runs": CoincidenceRuns,
    "tag_analysis": TagAnalysis,
    "fock_truncation": FockTruncation,
}
