"""Exactly solvable dephasing of a PT-symmetric qubit in a bosonic bath.

The qubit is ``H = [[i*alpha, 1], [1, -i*alpha]]`` with parity ``sigma_x``
(unbroken phase for |alpha| <= 1, energies ``-+ sqrt(1 - alpha^2)``). The
bath enters only through the temperature-dependent integral

    gamma(t) = int_0^inf dw J(w)/w^2 (1 - cos wt) coth(beta w / 2),

with spectral density ``J(w) = J0 w^(1+mu) exp(-w/w_c)`` and hbar = 1.
The decoherence envelope is ``D(t) = exp(-E1^2 gamma(t))``; it approaches 1
as |alpha| -> 1 because E1 -> 0 — decoherence freezes out at the critical
point together with the dynamics.

gamma(t) is evaluated in closed form: expanding ``coth`` into exponentials
gives the Hurwitz-zeta form ``J0 Gamma(mu) beta^-mu Re[2(zeta(mu, a) -
zeta(mu, b)) - (a^-mu - b^-mu)]`` with ``a = 1/(beta w_c)``, ``b = a - i t/beta``,
summed by Euler-Maclaurin (DLMF 25.11) in real arithmetic, with an
a-priori error bound (see ``_gamma_values``).

gamma(t) has two passes. A time grid (:func:`sweep_alpha`) takes the array
pass ``_gamma_values``; one time (:func:`gamma_integral`) takes the point
pass ``_gamma_point``, one numpy call per transcendental kernel with the
rest in Python floats. Both read what does not depend on t (the Gamma
weights, nodes, column weights and rounding factor) from one builder,
``_gamma_weights``, and their values and bounds agree bit for bit
(``TestOnePath`` in ``tests/test_dephasing.py``). :func:`gamma_discrete`
and :func:`evolve_exact_given_d` take a scalar or a whole time array in
one numpy pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BrokenPhase,
    DimensionMismatch,
    ExceptionalPoint,
    InvalidExponent,
    QuadratureFailure,
)
from .pt_core import CanonicalMap, PtHamiltonian, require_density_matrix

DEFAULT_GAMMA_TOL = 1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class SpectralDensity:
    """Power-law bath spectral density with exponential cutoff."""

    j0: float
    mu: float
    omega_c: float

    def __post_init__(self):
        # written as not (x > bound) so that NaN fails each check
        if not (0.0 <= self.j0 < math.inf):
            raise ValueError(f"j0 must be finite and >= 0, got {self.j0}")
        if not (self.mu > -1.0):
            raise InvalidExponent(f"mu = {self.mu} is not > -1: gamma(t) diverges")
        if self.mu == math.inf:
            raise ValueError(f"mu must be finite and > -1, got {self.mu}")
        if not (0.0 < self.omega_c < math.inf):
            raise ValueError(f"omega_c must be finite and > 0, got {self.omega_c}")

    def __call__(self, omega):
        omega = np.asarray(omega, dtype=float)
        return self.j0 * omega ** (1.0 + self.mu) * np.exp(-omega / self.omega_c)


@dataclass(frozen=True)
class DephasingModel:
    """PT qubit parameter, inverse temperature, and bath spectral density."""

    alpha: float
    beta: float
    spectral: SpectralDensity

    def __post_init__(self):
        _require_beta(self.beta)

    @property
    def e1(self) -> float:
        """Lower qubit energy -sqrt(1 - alpha^2)."""
        e1, _ = qubit_energies(self.alpha)
        return e1


@dataclass(frozen=True)
class GammaResult:
    value: float
    abs_error_estimate: float
    evaluations: int


def qubit_hamiltonian(alpha: float) -> PtHamiltonian:
    """PT qubit [[i a, 1], [1, -i a]] with parity sigma_x."""
    H = np.array([[1j * alpha, 1.0], [1.0, -1j * alpha]], dtype=complex)
    return PtHamiltonian(H=H, P=SIGMA_X)


def qubit_energies(alpha: float) -> tuple[float, float]:
    """(E1, E2) = (-sqrt(1 - alpha^2), +sqrt(1 - alpha^2)); unbroken only."""
    if math.isnan(alpha):
        raise ValueError("alpha is NaN")
    if abs(alpha) > 1.0:
        raise BrokenPhase(f"|alpha| = {abs(alpha)} > 1: complex spectrum")
    root = math.sqrt(1.0 - alpha * alpha)
    return -root, root


def qubit_transform(alpha: float) -> CanonicalMap:
    """Closed-form canonical map of the PT qubit.

    T = (1/2) [[s1+s2, -i(s1-s2)], [i(s1-s2), s1+s2]] with
    s_{1,2} = sqrt(2 (1 +- alpha)). This carries the closed form's own
    scalar gauge (det T = 2 sqrt(1 - alpha^2)), which agrees with
    pt_core.canonical_transform up to a positive scalar.
    """
    if math.isnan(alpha):
        raise ValueError("alpha is NaN")
    if abs(alpha) > 1.0:
        raise BrokenPhase(f"|alpha| = {abs(alpha)} > 1: no canonical map")
    if abs(alpha) == 1.0:
        raise ExceptionalPoint("s2 = 0 at |alpha| = 1; T is singular")
    s1 = math.sqrt(2.0 * (1.0 + alpha))
    s2 = math.sqrt(2.0 * (1.0 - alpha))

    def build(a: float, b: float) -> np.ndarray:
        return 0.5 * np.array(
            [[a + b, -1j * (a - b)], [1j * (a - b), a + b]], dtype=complex
        )

    T = build(s1, s2)
    T_inv = build(1.0 / s1, 1.0 / s2)
    condition = max(s1, s2) / min(s1, s2)
    return CanonicalMap(T=T, T_inv=T_inv, condition=condition)


#: Direct terms of the k-sum and Bernoulli corrections of its tail; terms
#: summed per time point (direct, integral, half term, Bernoulli).
_N_DIRECT, _N_BERNOULLI = 12, 8
_N_TERMS = _N_DIRECT + 2 + _N_BERNOULLI
#: B_2j / (2j)! for j = 1 .. 9; the ninth bounds the remainder.
_BERNOULLI = np.array(
    [1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510, 43867 / 798]
) / np.array([math.factorial(2 * j) for j in range(1, _N_BERNOULLI + 2)])

#: The time-independent layout of the pieces of ``_gamma_values``, one column
#: each: the direct terms k = 0 .. 11, then the half term, the integral pair
#: and the Bernoulli corrections j = 1 .. 9, all at k = 12. ``_NODE`` is the
#: column's k, ``_EXPO0 - mu`` its exponent; the Bernoulli weights take the
#: powers ``2j - 1`` of ``beta / X`` and ``Gamma(mu + 2j)``. ``_COLUMNS``
#: holds each column's k and exponent offset as Python numbers, for the
#: point pass.
_J = np.arange(1, _N_BERNOULLI + 2)
_NODE = np.minimum(np.arange(_N_DIRECT + _J.size + 3), _N_DIRECT)
_EXPO0 = np.concatenate([np.zeros(_N_DIRECT + 2), [1.0], 1.0 - 2 * _J])
_POWER = (2 * _J - 1).astype(float)
_EPS = float(np.finfo(float).eps)
_COLUMNS = list(zip(_NODE.tolist(), _EXPO0.tolist()))


def _div(num, den):
    """num / den, continued by 1 where den == 0 (every caller's limit there)."""
    return np.divide(num, den, out=np.ones(den.shape), where=den != 0.0)


def _q(e, lam, phi):
    """Re[expm1(e (lam + i phi))] / e in real arithmetic, continued to e = 0."""
    h = 0.5 * e * phi
    first = lam * _div(np.expm1(e * lam), e * lam) * np.cos(2.0 * h)
    sin_h = np.sin(h)
    return first - phi * sin_h * _div(sin_h, h)


def _gamma_weights(spec: SpectralDensity, beta: float) -> tuple[list, list, float, float]:
    """Everything of gamma(t) that does not depend on t, as Python floats.

    Returns ``(s, coef, integral, rounding)``: the nodes ``s_k = 1/w_c +
    k beta`` for k = 0 .. 12, each column's weight (layout in ``_NODE``),
    the integral term's weight ``2 Gamma(mu + 1) X^(1-mu) / beta`` and the
    factor that takes the pieces' absolute sum to their rounding error. The
    powers take numpy's forms: X^-mu a scalar (libm) power, s^-mu
    ``ndarray ** -mu`` (numpy's fast paths, e.g. sqrt at mu = -0.5), the
    Bernoulli powers one array power. Raises :class:`QuadratureFailure`
    where a Gamma weight overflows (from mu > 153.6, inside the domain
    mu > -1).
    """
    mu = spec.mu
    try:
        g1 = math.gamma(mu + 1.0)
        gammas = [math.gamma(mu + 2.0 * j) for j in range(1, _N_BERNOULLI + 2)]
    except OverflowError:
        raise QuadratureFailure(
            f"Gamma(mu + {2 * _N_BERNOULLI + 2}) overflows at mu = {mu}: the "
            "Euler-Maclaurin weights of gamma(t) are not finite"
        ) from None
    inv_wc = 1.0 / spec.omega_c
    s = [inv_wc + beta * k for k in range(_N_DIRECT + 1)]
    x = s[-1]
    x_mu = float(np.float64(x) ** -mu)
    integral = 2.0 * g1 * x_mu * x / beta
    coef = [2.0 * g1 * p for p in (np.array(s[:_N_DIRECT]) ** -mu).tolist()]
    coef[0] *= 0.5  # the k = 0 term of the coth expansion has weight 1
    coef += [g1 * x_mu, -integral, integral]
    coef += [
        2.0 * b * g * p * x_mu
        for b, g, p in zip(_BERNOULLI.tolist(), gammas, ((beta / x) ** _POWER).tolist())
    ]
    # rounding: the pieces' magnitudes times their conditioning (s^-mu carries
    # |mu|, Q(-mu) cancels like 1/(1 + mu) at small t)
    rounding = 8.0 * (4.0 + abs(mu) + 1.0 / (1.0 + mu)) * _EPS
    return s, coef, integral, rounding


def _gamma_values(
    spec: SpectralDensity, beta: float, times, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """gamma(t) and its a-priori error bound over a time array.

    With ``s_k = 1/w_c + k beta`` and ``ln(1 - i t/s) = lam + i phi``, the k-th
    term of the coth expansion is ``Gamma(mu) Re[s^-mu - (s - i t)^-mu] =
    Gamma(mu + 1) s^-mu Q(-mu)`` with ``Q = _q``. Terms k >= 12 are summed by
    Euler-Maclaurin at ``X = s_12``: the half term, the integral term
    ``Gamma(mu + 1) X^(1-mu) / beta [Q(1-mu) - Q(-mu) - delta e^(-mu lam) phi
    sinc(mu phi)]`` and the Bernoulli corrections. Each column of ``q`` is one
    piece (layout in ``_NODE``), ``coef`` its weight from
    :func:`_gamma_weights`. The summand is completely monotone in k, so the
    remainder is at most twice the first neglected correction. Raises
    :class:`QuadratureFailure` where ``bound > tol * max(1, gamma)``, or
    where a Gamma weight overflows.
    """
    mu, j0 = spec.mu, spec.j0
    s, coef, integral, rounding = _gamma_weights(spec, beta)
    t = np.asarray(times, dtype=float)[:, None]
    delta = t / np.array(s)[_NODE]
    lam, phi = 0.5 * np.log1p(delta * delta), -np.arctan(delta)
    q = _q(_EXPO0 - mu, lam, phi)
    dx, lx, px = delta[:, -1], lam[:, -1], phi[:, -1]
    mpx = mu * px
    tilt = -integral * dx * np.exp(-mu * lx) * px * _div(np.sin(mpx), mpx)

    terms = j0 * q * np.array(coef)
    summed = terms[:, :-1]
    value = summed.sum(axis=1) + j0 * tilt
    abs_sum = np.abs(summed).sum(axis=1) + j0 * np.abs(tilt)
    bound = 2.0 * np.abs(terms[:, -1]) + rounding * abs_sum

    ok = bound <= tol * np.maximum(1.0, value)
    if not ok.all():
        i = int(np.argmin(ok))
        raise _bound_failure(t[i, 0], bound[i], value[i])
    return np.maximum(value, 0.0), bound


def _bound_failure(t, bound, value) -> QuadratureFailure:
    return QuadratureFailure(
        f"gamma({t}) error bound {bound:.3e} exceeds tol relative to value {value:.6g}"
    )


def _gamma_point(
    spec: SpectralDensity, beta: float, t: float, tol: float
) -> tuple[float, float]:
    """gamma(t) and its error bound at one time t > 0, bit for bit those of
    ``_gamma_values(spec, beta, [t], tol)``.

    The same weights from :func:`_gamma_weights`, the same pieces in the
    same order of operations and the same bound rule. Each transcendental
    kernel is one numpy call over all the pieces, so it gives the grid
    pass's bits; the ``+ - * /`` between them run on Python floats, which
    round as numpy's do, and the two row sums stay numpy (pairwise) sums.
    """
    mu, j0 = spec.mu, spec.j0
    s, coef, integral, rounding = _gamma_weights(spec, beta)
    delta = [t / a for a in s]
    lam = [0.5 * v for v in np.log1p([d * d for d in delta]).tolist()]
    phi = [-v for v in np.arctan(delta).tolist()]

    # _q over the columns
    lam_c, phi_c, e_lam, h = [], [], [], []
    for k, e0 in _COLUMNS:
        e, lk, pk = e0 - mu, lam[k], phi[k]
        lam_c.append(lk)
        phi_c.append(pk)
        e_lam.append(e * lk)
        h.append(0.5 * e * pk)
    mpx = mu * phi[-1]
    *sin_h, sin_mpx = np.sin(h + [mpx]).tolist()
    expm1, cos = np.expm1(e_lam).tolist(), np.cos([2.0 * v for v in h]).tolist()
    q = [
        lk * (m / el if el else 1.0) * c - pk * sn * (sn / hh if hh else 1.0)
        for lk, pk, el, m, c, hh, sn in zip(lam_c, phi_c, e_lam, expm1, cos, h, sin_h)
    ]
    tilt = (
        -integral * delta[-1] * float(np.exp(-mu * lam[-1])) * phi[-1]
        * (sin_mpx / mpx if mpx else 1.0)
    )

    terms = [j0 * qc * c for qc, c in zip(q, coef)]
    summed = terms[:-1]
    row_sum, abs_row_sum = np.array([summed, [abs(v) for v in summed]]).sum(axis=1).tolist()
    value = row_sum + j0 * tilt
    abs_sum = abs_row_sum + j0 * abs(tilt)
    bound = 2.0 * abs(terms[-1]) + rounding * abs_sum
    if not bound <= tol * (1.0 if value < 1.0 else value):
        raise _bound_failure(t, bound, value)
    return (value if value > 0.0 else 0.0), bound


def _require_beta(beta: float) -> None:
    """ValueError unless beta is a finite inverse temperature > 0."""
    if not (0.0 < beta < math.inf):
        raise ValueError(f"beta must be finite and > 0, got {beta}")


def _require_tol(tol: float) -> None:
    """ValueError unless tol is a tolerance > 0 (NaN fails)."""
    if not (tol > 0.0):
        raise ValueError(f"tol must be > 0, got {tol}")


def _require_time(t: float) -> None:
    """ValueError unless t is a finite time >= 0."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t < 0.0:
        raise ValueError("t must be >= 0")


def gamma_integral(
    model: DephasingModel, t: float, tol: float = DEFAULT_GAMMA_TOL
) -> GammaResult:
    """Bath integral gamma(t); the error bound satisfies
    ``err <= tol * max(1, gamma)`` or :class:`QuadratureFailure` is raised;
    ``tol`` must be > 0."""
    _require_time(t)
    _require_tol(tol)
    if t == 0.0:
        return GammaResult(0.0, 0.0, 0)
    value, bound = _gamma_point(model.spectral, model.beta, float(t), tol)
    return GammaResult(value, bound, _N_TERMS)


def gamma_discrete(omegas, gs, beta, t):
    """Discrete-bath form sum_n (g_n/w_n)^2 (1 - cos w_n t) coth(beta w_n / 2).

    ``t`` is a scalar or an array of times; the result has its shape.
    ``beta=None`` or infinity takes the zero-temperature limit coth -> 1;
    any other ``beta`` must be > 0 (NaN included), else ValueError.
    """
    if beta is not None and not (beta > 0.0):
        raise ValueError(f"beta must be > 0, got {beta}")
    omegas = np.asarray(omegas, dtype=float)
    coth = 1.0
    if beta is not None and not math.isinf(beta):
        coth = 1.0 / np.tanh(0.5 * beta * omegas)
    sin2 = np.sin(0.5 * np.multiply.outer(t, omegas)) ** 2
    return ((np.asarray(gs, dtype=float) / omegas) ** 2 * 2.0 * sin2 * coth).sum(axis=-1)


def decoherence_function(
    model: DephasingModel, t: float, tol: float = DEFAULT_GAMMA_TOL
) -> float:
    """D(t) = exp(-E1^2 gamma(t)), with D identically 1 at |alpha| = 1."""
    return _decoherence(model, t, tol)[1]


def _decoherence(model: DephasingModel, t: float, tol: float) -> tuple[float, float]:
    """(E1, D(t)), with t checked before alpha and each checked once:
    inside the unbroken phase :func:`gamma_integral` checks t and tol."""
    alpha = model.alpha
    if t == 0.0 or not abs(alpha) < 1.0:  # D = 1, or a NaN or broken alpha
        _require_time(t)
        _require_tol(tol)
        return qubit_energies(alpha)[0], 1.0
    gamma = gamma_integral(model, t, tol)
    e1, _ = qubit_energies(alpha)
    return e1, math.exp(-(e1 * e1) * gamma.value)


def ohmic_asymptote(alpha: float, j0: float, beta: float, t: float) -> float:
    """Long-time Ohmic envelope exp(-pi J0 (1 - alpha^2) t / beta).

    Pure formula; validity (mu = 0, beta*w_c >> 1, large t) is the
    caller's concern.
    """
    return math.exp(-math.pi * j0 * (1.0 - alpha * alpha) * t / beta)


def evolve_exact_given_d(varrho0, e1: float, t, d) -> np.ndarray:
    """The closed-form qubit state with an externally supplied D(t).

    The coupling and ``h`` are both diagonal in the sigma_x eigenbasis
    (+, -), so there the populations stay put and the one coherence
    ``rho_+-(0) = (r11(0) - 1/2) - i Im r12(0)`` turns and decays:

        r11(t) = 1/2 + Re[rho_+-(0) e^(-i E1 t)] D(t)
        r12(t) = Re r12(0) - i Im[rho_+-(0) e^(-i E1 t)] D(t)

    with r22 = 1 - r11 and r21 = conj(r12). Any qubit density matrix is
    accepted; ``varrho0`` of another shape is a :class:`DimensionMismatch`.
    The rotation factor ``e^(-i E1 t)`` does not yet follow the Bohr
    frequency ``E2 - E1`` of ``h``. ``t`` and ``d`` are scalars or aligned
    arrays of any kind, 0-d included; the states have shape ``(..., 2, 2)``,
    from one numpy pass, so a scalar call gives the bits of the matching
    entry of an array call.
    """
    rho0 = require_density_matrix(varrho0, name="varrho0")
    if rho0.shape != (2, 2):
        raise DimensionMismatch(f"varrho0 must be a qubit state, got {rho0.shape}")
    r11_0, r12_0 = rho0.item(0).real, rho0.item(1)  # as Python numbers

    rot = np.exp(-1j * e1 * np.asarray(t, dtype=float))
    coherence = complex(r11_0 - 0.5, -r12_0.imag) * rot
    d = np.asarray(d, dtype=float)
    r11 = 0.5 + coherence.real * d
    # + 0.0 writes a zero Re r12(0) as +0.0, whatever its sign
    r12 = (r12_0.real + 0.0) - 1j * coherence.imag * d
    rho = np.empty(r11.shape + (2, 2), dtype=complex)
    rho[..., 0, 0], rho[..., 0, 1] = r11, r12
    rho[..., 1, 0], rho[..., 1, 1] = np.conj(r12), 1.0 - r11
    return rho


def evolve_exact(
    model: DephasingModel, varrho0, t: float, tol: float = DEFAULT_GAMMA_TOL
) -> np.ndarray:
    """Exact reduced qubit state at time t in the hermitian representation.

    Computes D(t) from the bath integral and applies
    :func:`evolve_exact_given_d` to any qubit density matrix ``varrho0``.
    """
    e1, d = _decoherence(model, t, tol)
    return evolve_exact_given_d(varrho0, e1, t, d)


@dataclass(frozen=True, eq=False)
class SweepTable:
    """D(t; alpha) on a (times x alphas) grid with the shared gamma values."""

    times: np.ndarray
    alphas: np.ndarray
    gamma: np.ndarray  # gamma(t), alpha-independent
    decoherence: np.ndarray  # shape (len(times), len(alphas))


def sweep_alpha(
    alphas,
    times,
    spectral: SpectralDensity,
    beta: float,
    tol: float = DEFAULT_GAMMA_TOL,
) -> SweepTable:
    """Decoherence-function family over an alpha grid.

    gamma(t) is computed once for the whole time grid and reused across
    alphas, so columns for +alpha and -alpha are identical by construction.
    ``tol`` must be > 0.
    """
    alphas = np.asarray(list(alphas), dtype=float)
    times = np.asarray(list(times), dtype=float)
    if alphas.size == 0 or times.size == 0:
        raise ValueError("alphas and times must be non-empty")
    if np.any(np.isnan(alphas)):
        raise ValueError("alphas must not be NaN")
    if np.any(np.abs(alphas) > 1.0):
        raise BrokenPhase("sweep requires |alpha| <= 1")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if np.any(times < 0.0) or np.any(np.diff(times) < 0.0):
        raise ValueError("times must be ascending and nonnegative")

    _require_beta(beta)
    _require_tol(tol)
    if np.any(np.abs(alphas) < 1.0):
        gamma, _ = _gamma_values(spectral, beta, times, tol)
    else:
        gamma = np.zeros_like(times)

    e1sq = np.array([qubit_energies(a)[0] ** 2 for a in alphas])
    deco = np.exp(-np.outer(gamma, e1sq))
    return SweepTable(times=times, alphas=alphas, gamma=gamma, decoherence=deco)
