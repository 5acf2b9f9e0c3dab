"""Both coincidence scenarios against the closed-form expected histogram.

The generator, the dead-time filter and the correlator are checked together:
each scenario runs as `compute_coincidence_*` runs it, and its histogram is
compared bin by bin with the expectation computed from the rates alone,

    E[c_k] = T r_a s_a r_b s_b (w - shadow_k) + T R s_a s_b (Phi(e_k+1/sigma) - Phi(e_k/sigma))

  * r_a, r_b are the singles rates of `expected_rates` (before dead time) and
    s = 1/(1 + r tau_dead) the survival of a non-paralyzable detector, so
    r s is the detected rate;
  * R is the pair branch of `branch_rates` ('s+i' or 's+o') and
    sigma^2 = sigma_a^2 + sigma_b^2 from the two jitter FWHMs;
  * the edges e_k sit half a picosecond below the bin edges, because tags
    are rounded to integer ps (tau_int >= e exactly when tau >= e - 1/2);
  * shadow_k is the dead time behind each pair: the raw partner of a pair
    tag leaves its detector dead for tau_dead after it, kept or not, so
    accidentals after the partner are missing. From a's pair tags (rate
    R s_a) this removes r_b s_b in tau in (Delta, Delta + tau_dead_b); from
    b's pair tags, r_a s_a in tau in (Delta - tau_dead_a, Delta); Delta is
    the partners' jitter difference. Integrated over bin k, that is
    (R / r_a) int_k [Phi(tau/sigma) - Phi((tau - tau_dead_b)/sigma)]
    + (R / r_b) int_k [Phi((tau + tau_dead_a)/sigma) - Phi(tau/sigma)].
    It is R / r of the accidentals: 0.5-0.6% at 200 mW, 0.5-4.8% at 0.4 mW.

The seed lists and the bounds below were fixed before any run was looked at.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr

from qfclab import montecarlo, scenarios
from qfclab.config import bundled_losses, bundled_model
from qfclab.montecarlo import branch_rates, expected_rates
from qfclab.tagcorr import CoincidenceHistogram, g2_from_histogram

MODEL = bundled_model()
LOSSES = bundled_losses()

# kind: (compute function, pair branch, the second channel)
KINDS = {"coincidence_si": (scenarios.compute_coincidence_si, "s+i", "idler"),
         "coincidence_so": (scenarios.compute_coincidence_so, "s+o", "output")}
SEEDS = tuple(range(101, 109))

# bounds, stated in advance. Pearson chi2 = sum (c - E)^2 / E over all bins
# has mean n_bins and variance sum(2 + 1/E) for Poisson counts.
CHI2_Z_RUN = 5.0         # |chi2 - n| <= 5 sd, every run
CHI2_Z_POOLED = 4.0      # the sum over SEEDS, per kind
PULL_MAX_RUN = 4.0       # |g2 - g2_model| / sigma, every run
PULL_MEAN_MAX = 1.5      # mean pull over SEEDS, per kind (3/sqrt(8) + selection bias)
PULL_SD_RANGE = (0.35, 1.9)   # sample sd of the pulls over SEEDS, per kind
SINGLES_Z = 5.0          # detected singles against r s, Poisson sd


def _phi_antiderivative(x):
    """int Phi(x) dx = x Phi(x) + phi(x)."""
    return x * ndtr(x) + np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def expected_histogram(scenario, model, branch, a, b, bin_width_ps, tau_range):
    """Expected counts of the histogram of channel b against channel a."""
    rates = expected_rates(scenario, model)
    pair = branch_rates(scenario, model)[branch] * 1e-12          # per ps
    r_a, r_b = rates[a] * 1e-12, rates[b] * 1e-12
    cfg_a, cfg_b = scenario.channels[a], scenario.channels[b]
    dead_a, dead_b = cfg_a.dead_time_ns * 1e3, cfg_b.dead_time_ns * 1e3
    s_a, s_b = 1.0 / (1.0 + r_a * dead_a), 1.0 / (1.0 + r_b * dead_b)
    sigma = math.hypot(cfg_a.jitter_fwhm_ps, cfg_b.jitter_fwhm_ps) / 2.3548200450309493
    assert sigma > 0
    lo, hi = tau_range
    edges = np.arange(lo, hi + 1, bin_width_ps) - 0.5

    def phi_in_bins(shift):
        """int over each bin of Phi((tau - shift) / sigma) dtau."""
        return sigma * np.diff(_phi_antiderivative((edges - shift) / sigma))

    shadow = (pair / r_a * (phi_in_bins(0.0) - phi_in_bins(dead_b))
              + pair / r_b * (phi_in_bins(-dead_a) - phi_in_bins(0.0)))
    t_ps = scenario.duration_s * 1e12
    counts = (t_ps * r_a * s_a * r_b * s_b * (bin_width_ps - shadow)
              + t_ps * pair * s_a * s_b * np.diff(ndtr(edges / sigma)))
    return CoincidenceHistogram(bin_width_ps, lo, hi, counts, scenario.duration_s, {})


def run_coincidence(kind, seed, jitter_scale=1.0, pair_scale=1.0, bin_shift=0):
    """Run compute_<kind> at its default params and compare it with the model.

    The keywords mutate the run, not the model: the generator's jitter or
    pair rates are scaled, or the correlator labels its bins one off.
    """
    compute, branch, other = KINDS[kind]
    seen = {}
    generate, histogram = scenarios.generate_streams, scenarios.coincidence_histogram

    def generate_recorded(scenario, model):
        seen["scenario"] = scenario
        channels = {c: replace(cfg, jitter_fwhm_ps=cfg.jitter_fwhm_ps * jitter_scale)
                    for c, cfg in scenario.channels.items()}
        return generate(replace(scenario, channels=channels), model)

    def histogram_recorded(a, b, bin_width_ps, tau_range):
        lo, hi = (t + bin_shift * bin_width_ps for t in tau_range)
        hist = histogram(a, b, bin_width_ps, (lo, hi))
        seen["hist"] = replace(hist, tau_min_ps=tau_range[0], tau_max_ps=tau_range[1])
        return seen["hist"]

    def pair_scaled(scenario, model):
        rates = branch_rates(scenario, model)
        return {k: v * pair_scale if k in ("s+o", "s+i") else v for k, v in rates.items()}

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "generate_streams", generate_recorded)
        mp.setattr(scenarios, "coincidence_histogram", histogram_recorded)
        mp.setattr(montecarlo, "branch_rates", pair_scaled)
        result = compute(MODEL, LOSSES, scenarios.Scenario(kind, kind).params, seed)

    scenario, hist = seen["scenario"], seen["hist"]
    model = expected_histogram(scenario, MODEL, branch, "signal", other,
                               hist.bin_width_ps, (hist.tau_min_ps, hist.tau_max_ps))
    corr = g2_from_histogram(hist)
    assert corr.g2 == result["meta"]["g2"] and corr.sigma == result["meta"]["sigma"]
    g2_model = g2_from_histogram(model, peak_window=corr.peak_bin_range).g2
    e = model.counts
    rates = expected_rates(scenario, MODEL)
    singles = {}
    for c in ("signal", other):
        dead_s = scenario.channels[c].dead_time_ns * 1e-9
        detected = rates[c] / (1.0 + rates[c] * dead_s) * scenario.duration_s
        measured = result["meta"][f"singles_{c}_hz"] * scenario.duration_s
        singles[c] = (measured - detected) / math.sqrt(detected)
    return {"chi2": float(((hist.counts - e) ** 2 / e).sum()),
            "chi2_var": float((2.0 + 1.0 / e).sum()),
            "n_bins": hist.n_bins,
            "pull": (corr.g2 - g2_model) / corr.sigma,
            "singles_z": singles}


def chi2_z(run):
    return (run["chi2"] - run["n_bins"]) / math.sqrt(run["chi2_var"])


def within_bounds(run):
    return abs(chi2_z(run)) <= CHI2_Z_RUN and abs(run["pull"]) <= PULL_MAX_RUN


_RUNS = {}


def unmutated(kind, seed):
    if (kind, seed) not in _RUNS:
        _RUNS[kind, seed] = run_coincidence(kind, seed)
    return _RUNS[kind, seed]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", KINDS)
def test_histogram_and_g2_match_the_closed_form(kind, seed):
    run = unmutated(kind, seed)
    assert abs(chi2_z(run)) <= CHI2_Z_RUN, run
    assert abs(run["pull"]) <= PULL_MAX_RUN, run
    for c, z in run["singles_z"].items():
        assert abs(z) <= SINGLES_Z, (c, run)


@pytest.mark.parametrize("kind", KINDS)
def test_pooled_chi2_over_the_seeds(kind):
    runs = [unmutated(kind, s) for s in SEEDS]
    chi2 = sum(r["chi2"] for r in runs)
    dof = sum(r["n_bins"] for r in runs)
    sd = math.sqrt(sum(r["chi2_var"] for r in runs))
    assert abs(chi2 - dof) <= CHI2_Z_POOLED * sd, (chi2 / dof, (chi2 - dof) / sd)


@pytest.mark.parametrize("kind", KINDS)
def test_g2_pulls_over_the_seeds(kind):
    pulls = np.array([unmutated(kind, s)["pull"] for s in SEEDS])
    assert abs(pulls.mean()) <= PULL_MEAN_MAX, pulls
    lo, hi = PULL_SD_RANGE
    assert lo <= pulls.std(ddof=1) <= hi, pulls


@pytest.mark.parametrize("mutation", [{"jitter_scale": 1.1}, {"pair_scale": 1.05},
                                      {"bin_shift": 1}],
                         ids=["jitter_x1.1", "pair_rate_x1.05", "bins_shifted_1"])
def test_mutations_fail_on_some_scenario(mutation):
    seed = SEEDS[0]
    assert all(within_bounds(unmutated(kind, seed)) for kind in KINDS)
    assert not all(within_bounds(run_coincidence(kind, seed, **mutation))
                   for kind in KINDS)
