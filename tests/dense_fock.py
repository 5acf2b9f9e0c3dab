"""Dense oracle for the Fock engine: the generators as Kronecker products
of the single-mode ladder and the identity on the full (n_max+1)^3 basis,
the full propagator, and the occupation table.

`qfclab.fock.cascaded_evolution` evolves by symmetry sectors and never
builds these; the tests check it against them. Every operator here is a
dim x dim matrix, so keep n_max small.
"""

import numpy as np

from qfclab.fock import FockState, _axis


def number_state(basis, n_s, n_i, n_o):
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[basis.index(n_s, n_i, n_o)] = 1.0
    return FockState(basis, amps)


def occupations(basis):
    """(dim, 3) integer array of occupation numbers, row k = state k."""
    d = basis.n_max + 1
    idx = np.arange(basis.dim)
    return np.stack([idx // (d * d), (idx // d) % d, idx % d], axis=1)


def expectation(state, matrix):
    return np.vdot(state.amplitudes, matrix @ state.amplitudes)


def _kron3(signal, idler, output):
    """Operator on the three-mode basis from one factor per mode."""
    return np.kron(np.kron(signal, idler), output).astype(np.complex128)


def _ladder(basis):
    """Single-mode annihilator, <n-1|a|n> = sqrt(n), and the identity."""
    d = basis.n_max + 1
    return np.diag(np.sqrt(np.arange(1, d)), 1), np.eye(d)


def build_annihilator(basis, mode):
    """Ladder-down operator for one mode: <..n-1..|a|..n..> = sqrt(n)."""
    a, eye = _ladder(basis)
    factors = [eye, eye, eye]
    factors[_axis(mode)] = a
    return _kron3(*factors)


def build_number_operator(basis, mode):
    a = build_annihilator(basis, mode)
    return a.conj().T @ a


def build_qfc_hamiltonian(basis, params):
    """Conversion (idler <-> output) Hamiltonian, i*kappa*A*(a_i^dag a_o) + h.c.

    Commutes with n_i + n_o. Sign fixed so that
    <1,0,1| H |1,1,0> = -i*kappa*A.
    """
    a, eye = _ladder(basis)
    m = 1j * params.kappa * params.pump_amplitude * _kron3(eye, a.T, a)
    return m + m.conj().T


def build_spdc_hamiltonian(basis, params):
    """Pair-generation Hamiltonian, i*gamma*A*(a_s a_i) + h.c.

    Commutes with n_s - n_i. Sign fixed so that
    <1,1,0| H |0,0,0> = -i*gamma*A.
    """
    a, eye = _ladder(basis)
    m = 1j * params.gamma * params.pump_amplitude * _kron3(a, a, eye)
    return m + m.conj().T


def evolution_operator(hamiltonian, time):
    """Dense U = exp(+i*time*H), for unitarity checks."""
    w, v = np.linalg.eigh(hamiltonian)
    return (v * np.exp(1j * time * w)) @ v.conj().T
