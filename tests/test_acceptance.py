"""Acceptance gate: runs every release criterion at its stated tolerance.

Each criterion prints one [PASS]/[FAIL] line (visible with pytest -s or in
the captured output on failure) and the suite fails if any gate fails.
`qfclab verify` runs the same battery from the command line.
"""

import re

import numpy as np
import pytest

from qfclab import _kernels, acceptance, fock, scenarios
from qfclab.config import bundled_losses, bundled_model

_MODEL = bundled_model()
_LOSSES = bundled_losses()


@pytest.mark.parametrize("check", acceptance.ALL_CHECKS,
                         ids=lambda c: c.__name__.replace("check_", ""))
def test_acceptance(check):
    result = check(_MODEL, _LOSSES, printer=print)
    assert result.passed, result.detail


def test_correlator_gate_merges_and_searches(monkeypatch):
    # the gate's cases reach both sides of the merge's density guard
    searched = []
    ranks = _kernels._ranks

    def counted(t, s):
        searched.append(len(s) > _kernels._MERGE_DENSITY * len(t))
        return ranks(t, s)

    monkeypatch.setattr(_kernels, "_ranks", counted)
    result = acceptance.check_correlator_oracle(_MODEL, _LOSSES)
    assert result.passed, result.detail
    assert set(searched) == {False, True}


def _clause(detail, label):
    return float(re.search(rf"{re.escape(label)} (\S+) \(", detail).group(1))


def _skewed_couplings(monkeypatch, skew):
    """Route fock._sector_couplings through skew(pair, conversion), which
    both the gate and cascaded_evolution then read."""
    original = fock._sector_couplings
    monkeypatch.setattr(fock, "_sector_couplings",
                        lambda params, n_max: skew(*original(params, n_max)))


def test_fock_gate_reads_the_engines_conversion_blocks(monkeypatch):
    p = fock.CouplingParams(kappa=1.0, gamma=1.0, pump_amplitude=0.3, interaction_time=1.0)
    before = fock.cascaded_evolution(fock.FockBasis(n_max=3), p).amplitudes

    def skew(pair, conversion):
        if len(conversion) > 2:    # one coupling of conversion block k = 2
            conversion[2] = conversion[2] * np.array([1.01, 1.0])
        return pair, conversion
    _skewed_couplings(monkeypatch, skew)
    assert not np.array_equal(
        fock.cascaded_evolution(fock.FockBasis(n_max=3), p).amplitudes, before)
    result = acceptance.check_fock_engine(_MODEL, _LOSSES)
    assert not result.passed
    assert _clause(result.detail, "beamsplitter-law error (k<=3)") > 1e-8
    assert _clause(result.detail, "sector-block unitarity") < 1e-10


def test_fock_gate_reads_the_engines_pair_block(monkeypatch):
    _skewed_couplings(monkeypatch, lambda pair, conversion: (pair * 1.01, conversion))
    result = acceptance.check_fock_engine(_MODEL, _LOSSES)
    assert not result.passed
    assert _clause(result.detail, "closed-form deviation at A=1, n_max=40") > 1e-6


def test_battery_runs_each_scenario_once(monkeypatch):
    # both noise gates read the same noise sweep: one battery computes it once,
    # and the detail lines read as when each gate runs alone
    alone = [acceptance.check_noise_scaling(_MODEL, _LOSSES).detail,
             acceptance.check_noise_floor_anchors(_MODEL, _LOSSES).detail]
    calls = []
    original = acceptance.compute_noise_sweep

    def counting(*args):
        calls.append(args[-1])
        return original(*args)
    monkeypatch.setattr(acceptance, "compute_noise_sweep", counting)
    monkeypatch.setattr(acceptance, "ENGINE_CHECKS", ())
    manifest = scenarios.RunManifest([scenarios.Scenario("ns", "noise_sweep")])
    results = acceptance.run_for_manifest(manifest, _MODEL, _LOSSES, printer=None)
    assert [r.detail for r in results] == alone
    assert all(r.passed for r in results)
    assert len(calls) == 1
