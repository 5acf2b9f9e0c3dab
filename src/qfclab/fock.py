"""Truncated three-mode Fock-space engine for the conversion device.

Models two pumped three-wave interactions on the modes (signal, idler,
output):

* pair generation  H_pair = i*gamma*A * (a_s a_i) + h.c.
* frequency conversion (beamsplitter between idler and output)
  H_conv = i*kappa*A * (a_i^dag a_o) + h.c.

hbar = 1 throughout; couplings are angular rates and the classical pump
amplitude A is real with optical power proportional to A^2. Time evolution
uses U = exp(+i t H), so starting from vacuum the leading-order state is

    gamma*A*t |1,1,0>  +  gamma*kappa*A^2*t^2 |1,0,1>

with both amplitudes real and positive. The sign convention is pinned by
<1,1,0| H_pair |0,0,0> = -i*gamma*A (test-enforced); only magnitudes are
observable.

`cascaded_evolution` exponentiates tridiagonal sector blocks with the
couplings of `_sector_couplings`, the blocks the acceptance gate checks.
The dense oracle (Kronecker-product generators, full propagators) lives in
tests/dense_fock.py.

All functions are pure: inputs are never mutated and identical inputs give
bitwise-identical outputs, so values can be shared freely across threads.
"""

import math
from dataclasses import dataclass

import numpy as np

MODES = ("signal", "idler", "output")
_AXIS = {mode: k for k, mode in enumerate(MODES)}


class UnknownModeError(ValueError):
    pass


class NonHermitianError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    pass


class UndefinedCorrelationError(ValueError):
    """A requested correlation has a mean photon number too small to divide by."""


def _axis(mode):
    try:
        return _AXIS[mode]
    except KeyError:
        raise UnknownModeError(f"unknown mode {mode!r}, expected one of {MODES}") from None


@dataclass(frozen=True)
class FockBasis:
    """Number basis |n_s, n_i, n_o> with 0 <= n <= n_max per mode.

    Enumeration is lexicographic in (n_s, n_i, n_o): index =
    n_s*(n_max+1)^2 + n_i*(n_max+1) + n_o, so the output occupation varies
    fastest. dim = (n_max+1)^3.
    """

    n_max: int = 3

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")

    @property
    def dim(self):
        return (self.n_max + 1) ** 3

    def index(self, n_s, n_i, n_o):
        d = self.n_max + 1
        for n in (n_s, n_i, n_o):
            if not 0 <= n <= self.n_max:
                raise ValueError(f"occupation {n} outside [0, {self.n_max}]")
        return (n_s * d + n_i) * d + n_o


@dataclass(frozen=True)
class FockState:
    """Normalized complex amplitude vector over a FockBasis."""

    basis: FockBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.basis.dim,):
            raise ValueError(f"amplitude vector must have length {self.basis.dim}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-12:
            if norm == 0:
                raise ValueError("cannot normalize a zero state")
            amps = amps / norm
        object.__setattr__(self, "amplitudes", amps)

    def amplitude(self, n_s, n_i, n_o):
        return self.amplitudes[self.basis.index(n_s, n_i, n_o)]

    def population(self, n_s, n_i, n_o):
        return abs(self.amplitude(n_s, n_i, n_o)) ** 2


@dataclass(frozen=True)
class CouplingParams:
    """Pump-scaled coupling rates for both processes and the interaction time.

    kappa: conversion coupling (s^-1 per unit pump amplitude)
    gamma: pair-generation coupling (s^-1 per unit pump amplitude)
    pump_amplitude: dimensionless A, power ~ A^2
    interaction_time: seconds
    """

    kappa: float
    gamma: float
    pump_amplitude: float
    interaction_time: float

    def __post_init__(self):
        if self.kappa < 0 or self.gamma < 0 or self.interaction_time < 0:
            raise ValueError("kappa, gamma and interaction_time must be >= 0")


def vacuum(basis):
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[basis.index(0, 0, 0)] = 1.0
    return FockState(basis, amps)


def evolve(state, hamiltonian, time, tolerance=1e-10):
    """Apply U = exp(+i*time*H) to the state.

    Uses eigendecomposition of the Hermitian H (unconditionally stable).
    Raises NonHermitianError for non-Hermitian input and ConvergenceError if
    the requested elementwise tolerance is below what the factorization can
    deliver. The returned state is renormalized; the correction is at the
    1e-12 level or the call fails.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be > 0")
    h_max = np.abs(hamiltonian).max()
    if np.abs(hamiltonian - hamiltonian.conj().T).max() > 1e-12 * max(1.0, h_max):
        raise NonHermitianError("evolution requires a Hermitian generator")
    scale = max(1.0, h_max * abs(time))
    err_est = 50 * len(hamiltonian) * np.finfo(np.float64).eps * scale
    if tolerance < err_est:
        raise ConvergenceError(
            f"tolerance {tolerance:g} below achievable {err_est:g} for this problem size")
    if time == 0:
        return state
    w, v = np.linalg.eigh(hamiltonian)
    phases = np.exp(1j * time * w)
    out = v @ (phases * (v.conj().T @ state.amplitudes))
    return FockState(state.basis, _renormalized(out))


def _renormalized(amps):
    """Undo norm drift at the 1e-12 level; fail beyond 1e-9."""
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > 1e-12:
        if abs(norm - 1.0) > 1e-9:
            raise ConvergenceError(f"norm drifted to {norm}")
        amps = amps / norm
    return amps


def _sector_couplings(params, n_max):
    """Off-diagonals c of the blocks `cascaded_evolution` exponentiates, each
    block with <m+1|H|m> = -i*c[m]: the pair block on |k,k,0>, k = 0..n_max,
    and conversion block k on |k,k-j,j>, j = 0..k, for every k."""
    gamma_a = params.gamma * params.pump_amplitude
    kappa_a = params.kappa * params.pump_amplitude
    pair = gamma_a * np.arange(1, n_max + 1)
    conversion = []
    for k in range(n_max + 1):
        j = np.arange(k)
        conversion.append(kappa_a * np.sqrt((k - j) * (j + 1)))
    return pair, conversion


def _block_eigh(off_diagonal):
    """Eigenpairs of the Hermitian tridiagonal H with zero diagonal and
    <j+1|H|j> = -i*off_diagonal[j]."""
    n = len(off_diagonal) + 1
    j = np.arange(n - 1)
    h = np.zeros((n, n), dtype=np.complex128)
    h[j + 1, j] = -1j * off_diagonal
    h[j, j + 1] = 1j * off_diagonal
    return np.linalg.eigh(h)


def _evolve_first_unit_vector(off_diagonal, time):
    """exp(+i*time*H) e_0 for the block H of `_block_eigh`."""
    w, v = _block_eigh(off_diagonal)
    return v @ (np.exp(1j * time * w) * v[0].conj())


def _block_propagator(off_diagonal, time):
    """The whole block unitary exp(+i*time*H), H as in `_block_eigh`."""
    w, v = _block_eigh(off_diagonal)
    return (v * np.exp(1j * time * w)) @ v.conj().T


def cascaded_evolution(basis, params):
    """Vacuum through pair generation then conversion: the sequential
    product U_conv * U_pair applied to |0,0,0>.

    Evolved sector by sector, never as a dim x dim matrix. From vacuum the
    pair step stays in the n_max+1 states |k,k,0>, where H_pair is
    tridiagonal with <k+1,k+1,0|H|k,k,0> = -i*gamma*A*(k+1). H_conv
    conserves n_s and n_i + n_o, so the conversion step acts on each
    |k,k,0> within the k+1 states |k,k-j,j>, j = 0..k, with
    <k,k-j-1,j+1|H|k,k-j,j> = -i*kappa*A*sqrt((k-j)(j+1)). Both come from
    `_sector_couplings`. Each step keeps the norm guard of `evolve`; the
    dense oracle in tests/dense_fock.py checks this path.
    """
    t = params.interaction_time
    if t == 0:
        return vacuum(basis)
    d = basis.n_max + 1
    pair, conversion = _sector_couplings(params, basis.n_max)
    pairs = _renormalized(_evolve_first_unit_vector(pair, t))
    out = np.zeros(basis.dim, dtype=np.complex128)
    for k, c in enumerate(pairs):
        j = np.arange(k + 1)
        out[(k * d + k - j) * d + j] = c * _evolve_first_unit_vector(conversion[k], t)
    return FockState(basis, _renormalized(out))


@dataclass
class QuantumCorrelations:
    """Plain record of photon-number moments and normalized correlations."""

    mean_photons: dict
    g2_cross: dict          # {(mode_a, mode_b): value}
    g2_auto: dict           # {mode: value}
    n_max: int
    truncation_limited: bool = None
    truncation_delta: float = None

    def as_record(self):
        out = {"n_max": self.n_max, "truncation_limited": self.truncation_limited}
        for m, v in self.mean_photons.items():
            out[f"n_{m}"] = v
        for (a, b), v in self.g2_cross.items():
            out[f"g2_{a}_{b}"] = v
        for m, v in self.g2_auto.items():
            out[f"g2_{m}_{m}"] = v
        return out


_MIN_MEAN = 1e-15


def correlation_observables(state, pairs=(("signal", "idler"), ("signal", "output"))):
    """Normalized second-order correlations of a pure three-mode state.

    Cross: g2_ab = <n_a n_b> / (<n_a><n_b>) for the requested mode pairs.
    Auto:  g2_a = <a^dag a^dag a a> / <n_a>^2 for every mode involved.

    Raises UndefinedCorrelationError when any required mean photon number is
    below 1e-15 (e.g. vacuum input) instead of returning a number.
    """
    d = state.basis.n_max + 1
    p = (np.abs(state.amplitudes) ** 2).reshape(d, d, d)
    n = np.arange(d)
    marginals = {m: p.sum(axis=tuple({0, 1, 2} - {k})) for m, k in _AXIS.items()}
    means = {m: float(marginals[m] @ n) for m in MODES}

    needed = sorted({m for ab in pairs for m in ab})
    for m in needed:
        _axis(m)    # raises UnknownModeError
        if means[m] < _MIN_MEAN:
            raise UndefinedCorrelationError(
                f"mean photon number in mode {m!r} is {means[m]:.3g}; correlation undefined")

    cross = {}
    for a, b in pairs:
        if a == b:
            nanb = float(marginals[a] @ n ** 2)
        else:
            nanb = float(n @ p.sum(axis=3 - _AXIS[a] - _AXIS[b]) @ n)
        cross[(a, b)] = nanb / (means[a] * means[b])

    auto = {m: float(marginals[m] @ (n * (n - 1))) / means[m] ** 2 for m in needed}

    return QuantumCorrelations(mean_photons=means, g2_cross=cross, g2_auto=auto,
                               n_max=state.basis.n_max)


def _float_observables(obs):
    rec = obs.as_record()
    return np.array([rec[k] for k in sorted(rec) if isinstance(rec[k], float)])


_TRUNCATION_LIMIT = 1e-6


def observables_with_truncation_check(params, n_max=3):
    """Cascaded-state observables plus a truncation-stability flag.

    truncation_delta is the max scaled change of the reported observables
    when n_max grows by one: absolute for order-unity quantities and
    relative for larger ones (low-gain cross-correlations are O(1/<n>) and
    would otherwise dominate with pure float noise). The flag is set when
    it exceeds 1e-6; results should then be treated as truncation-limited
    and recomputed at higher n_max.
    """
    obs = correlation_observables(cascaded_evolution(FockBasis(n_max=n_max), params))
    grown = correlation_observables(cascaded_evolution(FockBasis(n_max=n_max + 1), params))
    vals, grown_vals = _float_observables(obs), _float_observables(grown)
    scale = np.maximum(1.0, np.maximum(np.abs(vals), np.abs(grown_vals)))
    obs.truncation_delta = float((np.abs(vals - grown_vals) / scale).max())
    obs.truncation_limited = bool(obs.truncation_delta > _TRUNCATION_LIMIT)
    return obs


def closed_form_observables(params):
    """The float observables of `correlation_observables` for the untruncated
    cascade, keyed as in `as_record`.

    The pair step makes a two-mode squeezed vacuum with r = gamma*A*t, so
    the signal is thermal with N = sinh(r)^2; the conversion step is a
    beamsplitter of angle theta = kappa*A*t that sends N*sin(theta)^2 of the
    idler to the output. Every auto g2 is 2 and both cross g2 are 2 + 1/N.
    """
    amp, t = params.pump_amplitude, params.interaction_time
    n = math.sinh(params.gamma * amp * t) ** 2
    theta = params.kappa * amp * t
    return {"n_signal": n, "n_idler": n * math.cos(theta) ** 2,
            "n_output": n * math.sin(theta) ** 2,
            "g2_signal_idler": 2.0 + 1.0 / n, "g2_signal_output": 2.0 + 1.0 / n,
            "g2_signal_signal": 2.0, "g2_idler_idler": 2.0, "g2_output_output": 2.0}
