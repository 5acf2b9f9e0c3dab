import itertools
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from dense_fock import (build_annihilator, build_number_operator,
                        build_qfc_hamiltonian, build_spdc_hamiltonian,
                        evolution_operator, expectation, number_state,
                        occupations)
from qfclab import fock
from qfclab.fock import (ConvergenceError, CouplingParams, FockBasis,
                         NonHermitianError, UndefinedCorrelationError,
                         UnknownModeError, cascaded_evolution,
                         closed_form_observables, correlation_observables,
                         evolve, observables_with_truncation_check, vacuum)


def params(kappa=1.0, gamma=1.0, amp=0.05, t=1.0):
    return CouplingParams(kappa=kappa, gamma=gamma, pump_amplitude=amp,
                          interaction_time=t)


class TestBasis:
    def test_dimension(self):
        for n in (1, 2, 3, 5):
            assert FockBasis(n_max=n).dim == (n + 1) ** 3

    def test_lexicographic_order(self):
        basis = FockBasis(n_max=2)
        occ = occupations(basis)
        # enumeration sorted by (n_s, n_i, n_o), output fastest
        assert basis.index(0, 0, 0) == 0
        assert basis.index(0, 0, 1) == 1
        assert basis.index(0, 1, 0) == 3
        assert basis.index(1, 0, 0) == 9
        for k in range(basis.dim):
            assert basis.index(*occ[k]) == k

    def test_invalid(self):
        with pytest.raises(ValueError):
            FockBasis(n_max=0)
        with pytest.raises(ValueError):
            FockBasis(n_max=2).index(3, 0, 0)
        with pytest.raises(UnknownModeError):
            build_annihilator(FockBasis(n_max=2), "pump")
        with pytest.raises(UnknownModeError):
            correlation_observables(cascaded_evolution(FockBasis(n_max=2), params()),
                                    pairs=(("signal", "pump"),))


class TestLadderOperators:
    def test_single_transition_nmax1(self):
        basis = FockBasis(n_max=1)
        a = build_annihilator(basis, "idler")
        src = basis.index(0, 1, 0)
        dst = basis.index(0, 0, 0)
        assert a[dst, src] == 1.0
        # one nonzero entry per allowed transition: 4 states with n_i = 1
        assert np.count_nonzero(a) == 4

    def test_sqrt2_element(self):
        basis = FockBasis(n_max=2)
        a = build_annihilator(basis, "signal")
        assert a[basis.index(1, 0, 0), basis.index(2, 0, 0)] == pytest.approx(np.sqrt(2))

    def test_commutator_below_truncation(self):
        # oracle: explicit matrix product on the subspace n < n_max
        basis = FockBasis(n_max=3)
        occ = occupations(basis)
        for mode, axis in (("signal", 0), ("idler", 1), ("output", 2)):
            a = build_annihilator(basis, mode)
            comm = a @ a.conj().T - a.conj().T @ a
            sub = occ[:, axis] < basis.n_max
            assert np.allclose(comm[np.ix_(sub, sub)], np.eye(sub.sum()), atol=1e-14)

    def test_number_operator(self):
        basis = FockBasis(n_max=3)
        n_op = build_number_operator(basis, "idler")
        assert np.allclose(np.diag(n_op), occupations(basis)[:, 1])


class TestHamiltonians:
    def test_zero_coupling(self):
        basis = FockBasis(n_max=2)
        assert not build_qfc_hamiltonian(basis, params(kappa=0.0)).any()
        assert not build_spdc_hamiltonian(basis, params(gamma=0.0)).any()

    def test_qfc_single_excitation_structure(self):
        basis = FockBasis(n_max=1)
        h = build_qfc_hamiltonian(basis, params(kappa=0.7, amp=1.0))
        nz = np.argwhere(h != 0)
        occ = occupations(basis)
        for i, j in nz:
            # couples |n_s,1,0> and |n_s,0,1| only
            assert occ[i, 0] == occ[j, 0]
            assert {(occ[i, 1], occ[i, 2]), (occ[j, 1], occ[j, 2])} == {(1, 0), (0, 1)}

    def test_direct_build_equals_dense_ladder_products(self):
        # oracle: the generators multiplied out from the single-mode ladders
        for n in (1, 2, 3, 5):
            basis = FockBasis(n_max=n)
            a_s, a_i, a_o = (build_annihilator(basis, m) for m in fock.MODES)
            p = params(kappa=0.7, gamma=1.1, amp=0.3)
            pair = 1j * p.gamma * p.pump_amplitude * (a_s @ a_i)
            conv = 1j * p.kappa * p.pump_amplitude * (a_i.conj().T @ a_o)
            assert np.array_equal(build_spdc_hamiltonian(basis, p),
                                  pair + pair.conj().T)
            assert np.array_equal(build_qfc_hamiltonian(basis, p),
                                  conv + conv.conj().T)

    def test_hermitian_random_params(self):
        # oracle: conjugate transpose
        rng = np.random.default_rng(3)
        for _ in range(10):
            basis = FockBasis(n_max=int(rng.integers(1, 4)))
            p = params(kappa=rng.uniform(0, 3), gamma=rng.uniform(0, 3),
                       amp=rng.uniform(0, 2), t=rng.uniform(0, 2))
            for build in (build_qfc_hamiltonian, build_spdc_hamiltonian):
                h = build(basis, p)
                assert np.abs(h - h.conj().T).max() < 1e-12

    def test_spdc_pair_creation_from_vacuum(self):
        basis = FockBasis(n_max=2)
        h = build_spdc_hamiltonian(basis, params(gamma=0.8, amp=0.5))
        out = h @ vacuum(basis).amplitudes
        nz = np.nonzero(out)[0]
        assert list(nz) == [basis.index(1, 1, 0)]

    def test_spdc_pinned_sign(self):
        # convention: <1,1,0| H |0,0,0> = -i*gamma*A
        basis = FockBasis(n_max=2)
        h = build_spdc_hamiltonian(basis, params(gamma=0.8, amp=0.5))
        elem = h[basis.index(1, 1, 0), basis.index(0, 0, 0)]
        assert elem == pytest.approx(-1j * 0.8 * 0.5, abs=1e-15)

    def test_conservation_laws(self):
        basis = FockBasis(n_max=3)
        p = params(kappa=1.3, gamma=0.9, amp=0.8, t=0.7)
        n_s = build_number_operator(basis, "signal")
        n_i = build_number_operator(basis, "idler")
        n_o = build_number_operator(basis, "output")
        h_conv = build_qfc_hamiltonian(basis, p)
        h_pair = build_spdc_hamiltonian(basis, p)
        assert np.abs(h_conv @ (n_i + n_o) - (n_i + n_o) @ h_conv).max() < 1e-10
        assert np.abs(h_pair @ (n_s - n_i) - (n_s - n_i) @ h_pair).max() < 1e-10


class TestEvolve:
    def test_time_zero_identity(self):
        basis = FockBasis(n_max=2)
        st = number_state(basis, 1, 0, 1)
        h = build_qfc_hamiltonian(basis, params())
        out = evolve(st, h, 0.0)
        assert np.array_equal(out.amplitudes, st.amplitudes)

    def test_full_conversion(self):
        # oracle: 2x2 rotation gives population sin^2(theta)
        basis = FockBasis(n_max=1)
        h = build_qfc_hamiltonian(basis, params(kappa=1.0, gamma=0.0, amp=1.0))
        out = evolve(number_state(basis, 0, 1, 0), h, np.pi / 2)
        assert out.population(0, 0, 1) == pytest.approx(1.0, abs=1e-8)

    def test_half_conversion(self):
        basis = FockBasis(n_max=1)
        h = build_qfc_hamiltonian(basis, params(kappa=1.0, gamma=0.0, amp=1.0))
        out = evolve(number_state(basis, 0, 1, 0), h, np.pi / 4)
        assert out.population(0, 0, 1) == pytest.approx(0.5, abs=1e-8)

    def test_beamsplitter_law_sweep(self):
        basis = FockBasis(n_max=2)
        for theta in np.linspace(0, np.pi, 17):
            h = build_qfc_hamiltonian(basis, params(kappa=1.0, gamma=0.0, amp=1.0))
            out = evolve(number_state(basis, 0, 1, 0), h, theta)
            assert abs(out.population(0, 0, 1) - np.sin(theta) ** 2) < 1e-8

    def test_unitarity_and_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            basis = FockBasis(n_max=3)
            p = params(kappa=rng.uniform(0, 2), gamma=rng.uniform(0, 2),
                       amp=rng.uniform(0, 1), t=rng.uniform(0, 3))
            for build in (build_qfc_hamiltonian, build_spdc_hamiltonian):
                u = evolution_operator(build(basis, p), p.interaction_time)
                assert np.abs(u.conj().T @ u - np.eye(basis.dim)).max() < 1e-10
                st = evolve(vacuum(basis), build(basis, p), p.interaction_time)
                assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12

    def test_non_hermitian_rejected(self):
        basis = FockBasis(n_max=1)
        bad = build_annihilator(basis, "idler")
        with pytest.raises(NonHermitianError):
            evolve(vacuum(basis), bad, 1.0)

    def test_unreachable_tolerance(self):
        basis = FockBasis(n_max=2)
        h = build_qfc_hamiltonian(basis, params(amp=1.0))
        with pytest.raises(ConvergenceError):
            evolve(vacuum(basis), h, 1.0, tolerance=1e-30)

    def test_expectation_conservation_under_evolution(self):
        basis = FockBasis(n_max=3)
        p = params(kappa=1.0, gamma=0.0, amp=0.9, t=0.8)
        h = build_qfc_hamiltonian(basis, p)
        total = (build_number_operator(basis, "idler")
                 + build_number_operator(basis, "output"))
        st = number_state(basis, 0, 1, 0)
        before = expectation(st, total)
        after = expectation(evolve(st, h, 0.8), total)
        assert abs(before - after) < 1e-10


class TestCascade:
    def test_no_conversion_stage(self):
        st = cascaded_evolution(FockBasis(n_max=3), params(kappa=0.0))
        assert st.amplitude(1, 0, 1) == 0

    def test_leading_order_amplitudes(self):
        # oracle: first-order perturbation gives g*A*t and g*k*A^2*t^2
        for g in (0.02, 0.05):
            st = cascaded_evolution(FockBasis(n_max=3), params(amp=g))
            assert abs(st.amplitude(1, 1, 0)) == pytest.approx(g, rel=0.05)
            assert abs(st.amplitude(1, 0, 1)) == pytest.approx(g * g, rel=0.05)

    def test_amplitude_ratio_taylor(self):
        # oracle: ratio / (kappa*A*t) -> 1 with O(theta^2) corrections
        errs = []
        for g in (0.02, 0.01, 0.005):
            st = cascaded_evolution(FockBasis(n_max=3), params(amp=g))
            ratio = abs(st.amplitude(1, 0, 1)) / abs(st.amplitude(1, 1, 0))
            errs.append(abs(ratio / g - 1.0))
        assert errs[0] < 1e-3
        assert errs[2] < errs[0]  # shrinks as theta -> 0

    def test_population_quadratic_in_power(self):
        # doubling the pump amplitude quadruples the converted amplitude,
        # i.e. population scales as power^2 (power ~ amplitude^2)
        a = 0.005
        lo = cascaded_evolution(FockBasis(n_max=3), params(amp=a))
        hi = cascaded_evolution(FockBasis(n_max=3), params(amp=2 * a))
        amp_ratio = abs(hi.amplitude(1, 0, 1)) / abs(lo.amplitude(1, 0, 1))
        pop_ratio = hi.population(1, 0, 1) / lo.population(1, 0, 1)
        assert amp_ratio == pytest.approx(4.0, rel=0.01)
        assert pop_ratio == pytest.approx(16.0, rel=0.01)

    def test_truncation_stability_and_flag(self):
        obs = observables_with_truncation_check(params(amp=0.02), n_max=3)
        assert obs.truncation_delta < 1e-6
        assert obs.truncation_limited is False
        # thermal autocorrelation deficit ~4*gain^4 trips the flag at 0.05
        obs_hi = observables_with_truncation_check(params(amp=0.05), n_max=3)
        assert obs_hi.truncation_limited is True

    def test_truncation_check_evolves_each_basis_once(self, monkeypatch):
        # oracle: the scaled change of every float observable between
        # separately evolved n_max and n_max + 1 states
        p = params(amp=0.3)
        recs = [correlation_observables(cascaded_evolution(FockBasis(n_max=n), p)).as_record()
                for n in (4, 5)]
        keys = [k for k in sorted(recs[0]) if isinstance(recs[0][k], float)]
        expected = max(abs(recs[0][k] - recs[1][k]) / max(1.0, abs(recs[0][k]), abs(recs[1][k]))
                       for k in keys)
        seen = []
        def counted(basis, params):
            seen.append(basis.n_max)
            return cascaded_evolution(basis, params)
        monkeypatch.setattr(fock, "cascaded_evolution", counted)
        obs = observables_with_truncation_check(p, n_max=4)
        assert seen == [4, 5]
        assert obs.truncation_delta == expected
        assert obs.as_record() == recs[0] | {"truncation_limited": expected > 1e-6}


def dense_cascade(basis, p):
    """The cascade as two dense evolutions of the full basis."""
    t = p.interaction_time
    state = evolve(vacuum(basis), build_spdc_hamiltonian(basis, p), t)
    return evolve(state, build_qfc_hamiltonian(basis, p), t)


class TestSectorCascade:
    @settings(max_examples=60, deadline=None)
    @given(kappa=st.floats(0, 2), gamma=st.floats(0, 2), amp=st.floats(0, 1.5),
           t=st.floats(0, 2), n_max=st.integers(1, 8))
    def test_matches_dense_oracle(self, kappa, gamma, amp, t, n_max):
        basis = FockBasis(n_max=n_max)
        p = params(kappa=kappa, gamma=gamma, amp=amp, t=t)
        try:
            want = dense_cascade(basis, p).amplitudes
        except ConvergenceError:
            reject()    # the dense path refuses large dim * |H| * t
        got = cascaded_evolution(basis, p).amplitudes
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("n_max", (1, 3, 8))
    def test_no_conversion_and_time_zero(self, n_max):
        basis = FockBasis(n_max=n_max)
        state = cascaded_evolution(basis, params(kappa=0.0, amp=0.7))
        assert state.amplitude(1, 0, 1) == 0.0
        assert np.abs(state.amplitudes - dense_cascade(basis, params(kappa=0.0, amp=0.7))
                      .amplitudes).max() <= 1e-12
        assert np.array_equal(cascaded_evolution(basis, params(amp=0.7, t=0.0)).amplitudes,
                              vacuum(basis).amplitudes)

    def test_closed_form_at_high_n_max(self):
        # oracle: two-mode squeezed vacuum (r = gamma*A*t) then a beamsplitter
        # (theta = kappa*A*t); at n_max = 50 the truncated tail is ~tanh(1)^100
        p = params(amp=1.0)
        obs = observables_with_truncation_check(p, n_max=50)
        rec = obs.as_record()
        closed = closed_form_observables(p)
        n = math.sinh(1.0) ** 2
        assert closed == {"n_signal": n, "n_idler": n * math.cos(1.0) ** 2,
                          "n_output": n * math.sin(1.0) ** 2,
                          "g2_signal_idler": 2 + 1 / n, "g2_signal_output": 2 + 1 / n,
                          "g2_signal_signal": 2.0, "g2_idler_idler": 2.0,
                          "g2_output_output": 2.0}
        for key, value in closed.items():
            assert rec[key] == pytest.approx(value, rel=1e-9, abs=0), key
        # truncation_delta is a one-step difference, not a bound on the true
        # error; it tracks the true error within a factor of 10 either way
        err = max(abs(rec[k] - v) / max(1.0, abs(v)) for k, v in closed.items())
        assert err / 10 <= obs.truncation_delta <= 10 * err
        assert obs.truncation_limited is False

    @pytest.mark.parametrize("n_max", (1, 3, 5))
    def test_block_propagators_are_the_dense_sector_blocks(self, n_max):
        # oracle: each dense propagator restricted to a sector it leaves
        # invariant; the acceptance gate checks these blocks
        basis = FockBasis(n_max=n_max)
        p = params(kappa=0.7, gamma=1.1, amp=0.8, t=0.9)
        t = p.interaction_time
        pair, conversion = fock._sector_couplings(p, n_max)
        sectors = [(pair, build_spdc_hamiltonian,
                    [basis.index(k, k, 0) for k in range(n_max + 1)])]
        sectors += [(conversion[k], build_qfc_hamiltonian,
                     [basis.index(k, k - j, j) for j in range(k + 1)])
                    for k in range(n_max + 1)]
        for off_diagonal, build, states in sectors:
            block = fock._block_propagator(off_diagonal, t)
            dense = evolution_operator(build(basis, p), t)[np.ix_(states, states)]
            assert np.abs(block - dense).max() <= 1e-12
            assert np.abs(block[:, 0] - fock._evolve_first_unit_vector(off_diagonal, t)
                          ).max() <= 1e-14

    def test_never_builds_a_dense_operator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense operator built")
        monkeypatch.setattr(fock, "evolve", refuse)
        monkeypatch.setattr(np, "kron", refuse)
        state = cascaded_evolution(FockBasis(n_max=60), params(amp=1.0))
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12
        obs = correlation_observables(state)
        assert obs.mean_photons["signal"] == pytest.approx(math.sinh(1.0) ** 2, rel=1e-9)


class TestCorrelations:
    def test_pair_state_analytic(self):
        # oracle: geometric photon statistics of the two-mode squeezed state,
        # g2_cross = 2 + 1/mean, autos = 2 (up to truncation)
        r = 0.1
        basis = FockBasis(n_max=8)
        st = evolve(vacuum(basis), build_spdc_hamiltonian(basis, params(gamma=1.0, amp=r)), 1.0)
        obs = correlation_observables(st, pairs=(("signal", "idler"),))
        mean = np.sinh(r) ** 2
        assert obs.mean_photons["signal"] == pytest.approx(mean, rel=1e-6)
        assert obs.g2_cross[("signal", "idler")] == pytest.approx(2 + 1 / mean, rel=1e-5)
        assert obs.g2_auto["signal"] == pytest.approx(2.0, abs=1e-6)
        assert obs.g2_cross[("signal", "idler")] > 2  # far above the bound

    def test_vacuum_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            correlation_observables(vacuum(FockBasis(n_max=2)))

    def test_product_state_uncorrelated(self):
        # truncated-coherent product state factorizes: g2_cross = 1 exactly
        basis = FockBasis(n_max=3)
        alpha, beta = 0.4, 0.3
        single_a = np.array([alpha ** n / math.sqrt(math.factorial(n)) for n in range(4)])
        single_b = np.array([beta ** n / math.sqrt(math.factorial(n)) for n in range(4)])
        amps = np.einsum("i,j,k->ijk", single_a, single_b, [1.0, 0, 0, 0]).ravel()
        amps /= np.linalg.norm(amps)
        st = fock.FockState(basis, amps)
        obs = correlation_observables(st, pairs=(("signal", "idler"),))
        assert obs.g2_cross[("signal", "idler")] == pytest.approx(1.0, abs=1e-8)

    def test_record_export(self):
        st = cascaded_evolution(FockBasis(n_max=3), params(amp=0.05))
        rec = correlation_observables(st).as_record()
        assert rec["n_max"] == 3
        assert "g2_signal_idler" in rec and "n_output" in rec

    @settings(max_examples=60, deadline=None)
    @given(n_max=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
           keep=st.floats(0.05, 1.0))
    def test_matches_occupation_oracle(self, n_max, seed, keep):
        # oracle: occupation-weighted sums over the enumerated basis
        basis = FockBasis(n_max=n_max)
        rng = np.random.default_rng(seed)
        amps = (rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)) \
            * (rng.random(basis.dim) < keep)
        if not amps.any():
            reject()
        state = fock.FockState(basis, amps)
        occ = occupations(basis)
        p = np.abs(state.amplitudes) ** 2
        means = dict(zip(fock.MODES, p @ occ))
        pairs = tuple(itertools.product(fock.MODES, repeat=2))
        if min(means.values()) < 1e-15:
            with pytest.raises(UndefinedCorrelationError):
                correlation_observables(state, pairs=pairs)
            return
        obs = correlation_observables(state, pairs=pairs)
        want_cross = {(a, b): p @ (occ[:, i] * occ[:, j]) / (means[a] * means[b])
                      for (i, a), (j, b) in itertools.product(enumerate(fock.MODES), repeat=2)}
        want_auto = {m: p @ (occ[:, k] * (occ[:, k] - 1)) / means[m] ** 2
                     for k, m in enumerate(fock.MODES)}
        for got, want in ((obs.mean_photons, means), (obs.g2_cross, want_cross),
                          (obs.g2_auto, want_auto)):
            assert got.keys() == want.keys()
            for key, value in want.items():
                assert got[key] == pytest.approx(value, rel=1e-13, abs=0), key
