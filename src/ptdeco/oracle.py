"""Brute-force validation of the dephasing results on a finite bath.

The bath is discretized into N modes with truncated Fock spaces, and the
composite is evolved exactly in the two sigma_x sectors of the coupling.
Within a sector the bath Hamiltonian is a sum of single-mode terms and the
thermal state is a product, so the sector trace factorizes over modes: one
eigendecomposition of the stack of N mode blocks (d_F x d_F) per sector,
then phases for all times. The sigma_x-basis coherence decay is compared
against ``exp(-c E1^2 gamma_N(t))`` with the discrete-sum ``gamma_N``
replacing the bath integral, so both sides share the same finite bath.
:func:`run_comparison` returns one report for a whole alpha grid: one
``gamma_N`` sum for the run, then one stack of closed-form states and one
stack of brute-force states per alpha over the whole time grid, one ``c``
fitted to all of them, and the PASS verdict. The fitted ``c`` converges to
4 as the truncation is raised: the sectors see the bath displaced by
``+-E1 g_n``, and the splitting ``2|E1|`` enters the exponent squared
(Palma, Suominen & Ekert, Proc. R. Soc. A 452, 567 (1996)).

This module is deliberately naive: exact per-mode evolution, midpoint
discretization, no bath-scaling tricks. It must stay simple enough to trust.
The sector path holds only per-mode arrays, so it has no size cap. The dense
full-space ``bath_operators`` and ``thermal_state`` remain as public
references, capped at ``DIM_CAP``; the tests check the factorized sectors
against them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import dephasing
from .errors import DimensionCap, DimensionMismatch, LengthMismatch, TruncationWarning
from .pt_core import require_density_matrix

DEFAULT_N_MODES = 3
DEFAULT_FOCK_DIM = 5
DEFAULT_OMEGA_MAX = 15.0

#: Largest composite dimension the dense references will build.
DIM_CAP = 4096

#: Thermal/dynamical tail population above which TruncationWarning fires.
TAIL_THRESHOLD = 1e-8

#: Default bath strength for oracle runs; weak enough that fock_dim 5..7
#: brackets convergence of the coherence at beta = 0.5.
DEFAULT_SPECTRAL = dephasing.SpectralDensity(j0=0.2, mu=-0.5, omega_c=1.0)


@dataclass(frozen=True, eq=False)
class DiscreteBath:
    """Finite mode set (omega_n, g_n) with a common Fock truncation."""

    omegas: np.ndarray
    gs: np.ndarray
    fock_dim: int

    def __post_init__(self):
        omegas = np.asarray(self.omegas, dtype=float)
        gs = np.asarray(self.gs, dtype=float)
        if omegas.ndim != 1 or omegas.shape != gs.shape:
            raise LengthMismatch("omegas and gs must be 1-D and aligned")
        if not np.all(omegas > 0.0):
            raise ValueError("mode frequencies must be positive")
        # Sorted neighbours rather than np.unique, whose first call imports
        # numpy.ma (about 10 ms) inside every oracle-compare run.
        ordered = np.sort(omegas)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("mode frequencies must be distinct")
        if self.fock_dim < 2:
            raise ValueError(f"fock_dim must be >= 2, got {self.fock_dim}")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "gs", gs)

    @property
    def n_modes(self) -> int:
        return self.omegas.size

    @property
    def dim_b(self) -> int:
        return self.fock_dim**self.n_modes


def _require_within_cap(bath: DiscreteBath) -> None:
    # the cap guards only operations that materialize the composite space;
    # the per-mode sectors and the discrete gamma sum never do
    if 2 * bath.dim_b > DIM_CAP:
        raise DimensionCap(
            f"composite dim 2*{bath.fock_dim}^{bath.n_modes} exceeds {DIM_CAP}"
        )


def discretize_bath(
    spectral: dephasing.SpectralDensity,
    n_modes: int = DEFAULT_N_MODES,
    omega_max: float = DEFAULT_OMEGA_MAX,
    fock_dim: int = DEFAULT_FOCK_DIM,
) -> DiscreteBath:
    """Midpoint-rule discretization of J on [0, omega_max].

    Modes sit at bin centers with weights ``g_n^2 = J(omega_n) d_omega``,
    so the discrete ``gamma_N`` converges to the bath integral (second
    order in the bin width) as n_modes grows.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if not (omega_max > 0.0):
        raise ValueError(f"omega_max must be > 0, got {omega_max}")
    d_omega = omega_max / n_modes
    omegas = (np.arange(n_modes) + 0.5) * d_omega
    gs = np.sqrt(spectral(omegas) * d_omega)
    return DiscreteBath(omegas=omegas, gs=gs, fock_dim=fock_dim)


def _annihilation(d: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, d)), 1).astype(complex)


def _mode_operator(bath: DiscreteBath, n: int, op: np.ndarray) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    eye = np.eye(bath.fock_dim, dtype=complex)
    for m in range(bath.n_modes):
        out = np.kron(out, op if m == n else eye)
    return out


def _fock_levels(bath: DiscreteBath) -> np.ndarray:
    """Occupation number of each mode (rows) in each bath basis state (columns)."""
    return np.indices((bath.fock_dim,) * bath.n_modes).reshape(bath.n_modes, -1)


def bath_operators(bath: DiscreteBath) -> tuple[np.ndarray, np.ndarray]:
    """(H_B, V_B) = (sum w a^dag a, sum g (a + a^dag)) on the full bath space.

    H_B is diagonal in the Fock basis, so it is built from the occupation
    numbers directly.
    """
    _require_within_cap(bath)
    H_B = np.diag(bath.omegas @ _fock_levels(bath)).astype(complex)
    a = _annihilation(bath.fock_dim)
    x = a + a.conj().T
    V_B = np.zeros_like(H_B)
    for n in range(bath.n_modes):
        V_B += bath.gs[n] * _mode_operator(bath, n, x)
    return H_B, V_B


def _thermal_populations(
    bath: DiscreteBath, beta: float, stacklevel: int
) -> np.ndarray:
    """Gibbs populations of each mode on its kept Fock levels, ``(N, d_F)``.

    Warns with :class:`TruncationWarning` when the untruncated thermal
    state would put more than ``TAIL_THRESHOLD`` population beyond the kept
    levels; ``stacklevel`` is the caller's, as it would pass it to
    :func:`warnings.warn`.
    """
    if not (beta > 0.0):
        raise ValueError("beta must be > 0")
    # beta = inf gives q = 0 and the ground state, since 0**0 = 1
    q = np.exp(-beta * bath.omegas)[:, None]
    p = q ** np.arange(bath.fock_dim)
    p /= p.sum(axis=1, keepdims=True)
    tail = 1.0 - float(np.prod(1.0 - q**bath.fock_dim))
    if tail > TAIL_THRESHOLD:
        warnings.warn(
            f"thermal tail population {tail:.3e} beyond fock_dim={bath.fock_dim} "
            f"exceeds {TAIL_THRESHOLD:.1e}",
            TruncationWarning,
            stacklevel=stacklevel + 1,
        )
    return p


def thermal_state(bath: DiscreteBath, beta: float) -> np.ndarray:
    """Gibbs state of the truncated bath, renormalized on the kept levels.

    Warns with :class:`TruncationWarning` when the untruncated thermal
    state would put more than ``TAIL_THRESHOLD`` population beyond the
    kept Fock levels. ``beta`` may be ``math.inf`` (ground state).
    """
    _require_within_cap(bath)
    diag = np.array([1.0])
    for p in _thermal_populations(bath, beta, stacklevel=2):
        diag = np.kron(diag, p)
    return np.diag(diag).astype(complex)


#: Maps the computational basis to the sigma_x eigenbasis (+, -) and back.
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def brute_force_dynamics(
    alpha: float,
    bath: DiscreteBath,
    beta: float,
    varrho0_S,
    times,
):
    """Exact reduced dynamics of the truncated composite.

    ``h = E1 sx (x) I + I (x) H_B + E1 sx (x) V_B`` (effective couplings
    ``g_n E1``) commutes with ``sx (x) I``: in the sigma_x eigenbasis it is
    the bath blocks ``h_pm = H_B pm E1 (I + V_B)``, the populations stay put
    and ``rho_+-(t) = rho_+-(0) Tr[U_+(t) omega U_-(t)^dag]`` for the thermal
    bath state ``omega``. A bath built with couplings ``g_n / |E1|`` removes
    the alpha dependence from the interaction.

    ``h_pm = pm E1 + sum_n h_n^pm`` with ``h_n^pm = w_n a^dag a pm E1 g_n
    (a + a^dag)`` on one mode, and ``omega`` is a product over modes, so
    the trace is ``exp(-2i E1 t) prod_n Tr[exp(-i h_n^+ t) omega_n
    exp(i h_n^- t)]``: one eigendecomposition of the ``(N, d_F, d_F)``
    stack of mode blocks per sector, never the ``d_F^N`` bath space.

    Returns ``(states, fock_tail)``: the reduced states at ``times`` as one
    ``(len(times), 2, 2)`` array, and the population at the top Fock level of
    any mode at the last sampled time.
    """
    varrho0_S = require_density_matrix(varrho0_S, name="varrho0_S")
    if varrho0_S.shape != (2, 2):
        raise DimensionMismatch(f"varrho0_S must be a qubit state, got {varrho0_S.shape}")
    times = np.asarray(list(times), dtype=float)
    e1, _ = dephasing.qubit_energies(alpha)
    pops = _thermal_populations(bath, beta, stacklevel=1)

    a = _annihilation(bath.fock_dim).real
    number = np.diag(np.arange(float(bath.fock_dim)))
    free = bath.omegas[:, None, None] * number
    coupling = (e1 * bath.gs)[:, None, None] * (a + a.T)
    energies_p, W_p = np.linalg.eigh(free + coupling)
    energies_m, W_m = np.linalg.eigh(free - coupling)

    # the mode blocks are real symmetric, so W^dag = W^T
    # Tr[U_+n omega_n U_-n^dag] = sum_jk phase_+j overlap_jk conj(phase_-k), per mode
    W_p_t = np.swapaxes(W_p, 1, 2)
    W_m_t = np.swapaxes(W_m, 1, 2)
    overlap = ((W_p_t * pops[:, None, :]) @ W_m) * np.swapaxes(W_m_t @ W_p, 1, 2)
    phases_p = np.exp(-1j * times[:, None] * energies_p[:, None, :])
    phases_m = np.exp(-1j * times[:, None] * energies_m[:, None, :])
    factors = ((phases_p @ overlap) * phases_m.conj()).sum(axis=2)
    decay = np.exp(-2j * e1 * times) * np.prod(factors, axis=0)

    rot0 = _HADAMARD @ varrho0_S @ _HADAMARD
    rot = np.repeat(rot0[None], times.size, axis=0)
    rot[:, 0, 1] *= decay
    rot[:, 1, 0] *= decay.conj()
    states = _HADAMARD @ rot @ _HADAMARD

    # each sector's bath state is a product; a mode's top-level population
    # is |<top|U_n|k>|^2 weighted by omega_n, and some mode is at its top
    # level with probability 1 - prod_n (1 - p_n)
    fock_tail = 0.0
    if times.size:
        for pop, W, phases in (
            (rot0[0, 0].real, W_p, phases_p[:, -1]),
            (rot0[1, 1].real, W_m, phases_m[:, -1]),
        ):
            U_top = np.einsum("nj,nkj->nk", W[:, -1, :] * phases, W)
            p_top = (np.abs(U_top) ** 2 * pops).sum(axis=1)
            fock_tail += pop * float(-np.expm1(np.log1p(-p_top).sum()))

    require_density_matrix(states, tol=1e-9, name="reduced state")
    if fock_tail > TAIL_THRESHOLD:
        warnings.warn(
            f"dynamical Fock-tail population {fock_tail:.3e} at t={times[-1]:.3g} "
            f"exceeds {TAIL_THRESHOLD:.1e}",
            TruncationWarning,
            stacklevel=2,
        )
    return states, fock_tail


def coherence_sx(rho):
    """Off-diagonal element of a qubit state, or of each state in a
    ``(..., 2, 2)`` stack, in the sigma_x eigenbasis."""
    rho = np.asarray(rho, dtype=complex)
    rot = _HADAMARD @ rho @ _HADAMARD
    return rot[..., 0, 1]


def fit_decay_constant(exponents, decays) -> tuple[float, float]:
    """Least-squares fit of c in decay = exp(-c * exponent), through the origin.

    Returns ``(c, max_residual)`` with the residual measured on the decay
    values themselves. With no usable signal (all exponents ~ 0) c is NaN
    and the residual is the distance of the decays from 1.
    """
    x = np.asarray(exponents, dtype=float)
    y = np.asarray(decays, dtype=float)
    if x.shape != y.shape:
        raise LengthMismatch("exponents and decays must be aligned")
    mask = y > 0.0
    denom = float(x[mask] @ x[mask])
    if denom <= 1e-30:
        return float("nan"), float(np.max(np.abs(y - 1.0), initial=0.0))
    c = float(x[mask] @ (-np.log(y[mask]))) / denom
    resid = float(np.max(np.abs(y - np.exp(-c * x))))
    return c, resid


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Analytic-vs-brute comparison over an alpha grid, with the verdict.

    Per-time values are ``(n_alpha, n_times)`` arrays, a row per alpha. The
    fit of c pools every alpha and time; ``fock_tail`` is the largest of the
    alphas' dynamical tails.
    """

    alphas: np.ndarray
    times: np.ndarray
    exponents: np.ndarray  # E1^2 gamma_N(t)
    analytic_decoherence: np.ndarray
    brute_decoherence: np.ndarray
    dev_decoherence: np.ndarray
    dev_rho: np.ndarray  # per-time maximal entry deviation of the states
    max_abs_dev: float
    fitted_c: float
    fit_residual: float
    fock_tail: float

    def passes(self, compare_tol: float) -> bool:
        """PASS: the pooled fit's residual is within ``compare_tol``."""
        return self.fit_residual <= compare_tol


#: Default initial state for comparison runs: the closed-form solution
#: requires r11 = 1/2 and Re r12 = 0; full imaginary coherence maximizes
#: the sigma_x-basis signal.
DEFAULT_INITIAL_STATE = np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex)


def run_comparison(alphas, bath: DiscreteBath, beta: float, times) -> ComparisonReport:
    """Compare the closed form with the brute-force dynamics at each alpha on
    one shared bath, from ``DEFAULT_INITIAL_STATE``.

    ``gamma_N`` is summed once for the whole grid; the literal closed form
    ``D = exp(-E1^2 gamma_N)`` is compared entrywise, and c of
    ``D = exp(-c E1^2 gamma_N)`` is fitted to the brute-force decays of all
    alphas at once.
    """
    varrho0_S = DEFAULT_INITIAL_STATE
    alphas = [float(a) for a in alphas]
    times = np.asarray(list(times), dtype=float)
    e1 = np.array([dephasing.qubit_energies(a)[0] for a in alphas])
    gamma = dephasing.gamma_discrete(bath.omegas, bath.gs, beta, times)
    exponents = (e1 * e1)[:, None] * gamma
    analytic_d = np.exp(-exponents)

    brute_d = np.empty_like(exponents)
    dev_rho = np.empty_like(exponents)
    fock_tail = 0.0
    for i, alpha in enumerate(alphas):
        states, tail = brute_force_dynamics(alpha, bath, beta, varrho0_S, times)
        brute_d[i] = np.abs(coherence_sx(states)) / abs(coherence_sx(varrho0_S))
        rho_analytic = dephasing.evolve_exact_given_d(varrho0_S, e1[i], times, analytic_d[i])
        dev_rho[i] = np.abs(rho_analytic - states).max(axis=(-2, -1))
        fock_tail = max(fock_tail, tail)

    dev_d = np.abs(analytic_d - brute_d)
    c, resid = fit_decay_constant(exponents.ravel(), brute_d.ravel())
    return ComparisonReport(
        alphas=np.array(alphas),
        times=times,
        exponents=exponents,
        analytic_decoherence=analytic_d,
        brute_decoherence=brute_d,
        dev_decoherence=dev_d,
        dev_rho=dev_rho,
        max_abs_dev=float(np.max(dev_d, initial=0.0)),
        fitted_c=c,
        fit_residual=resid,
        fock_tail=fock_tail,
    )
