"""Independent brute-force references used by the tests.

Everything here is deliberately naive (loops, series, dense grids) and
stays independent of the code paths it checks.
"""

import math

import numpy as np


def kron_loops(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    ra, ca = A.shape
    rb, cb = B.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = A[i, j] * B[k, l]
    return out


def ptrace_env_loops(M: np.ndarray, dim_s: int, dim_b: int) -> np.ndarray:
    out = np.zeros((dim_s, dim_s), dtype=complex)
    for s in range(dim_s):
        for t in range(dim_s):
            for b in range(dim_b):
                out[s, t] += M[s * dim_b + b, t * dim_b + b]
    return out


def expm_series(A: np.ndarray, terms: int = 60) -> np.ndarray:
    """Taylor series with squaring; adequate as a reference for ||A|| <~ 30."""
    n = A.shape[0]
    nrm = float(np.linalg.norm(A, 2))
    squarings = max(0, int(math.ceil(math.log2(max(nrm, 1e-30))))) if nrm > 1.0 else 0
    X = A / (2.0**squarings)
    out = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, terms):
        term = term @ X / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def gamma_trapezoid(
    t: float,
    j0: float,
    mu: float,
    omega_c: float,
    beta: float,
    n: int = 1_000_000,
    wmax_mult: float = 80.0,
) -> float:
    """High-resolution trapezoid reference for the bath integral.

    Substituting omega = u^p with p = max(2, ceil(2/(1+mu))) removes the
    omega^mu endpoint singularity, so the transformed integrand vanishes
    at u = 0 and plain trapezoid converges at second order.
    """
    if t == 0.0:
        return 0.0
    p = max(2, math.ceil(2.0 / (1.0 + mu)))
    wmax = omega_c * wmax_mult
    u = np.linspace(0.0, wmax ** (1.0 / p), n + 1)
    w = u**p
    with np.errstate(divide="ignore", invalid="ignore"):
        x = 0.5 * beta * w
        coth = np.where(x > 1e-8, 1.0 / np.tanh(np.maximum(x, 1e-300)), np.inf)
        small = x <= 1e-8
        coth[small] = 1.0 / np.maximum(x[small], 1e-300) + x[small] / 3.0
        f = j0 * w ** (mu - 1.0) * np.exp(-w / omega_c)
        f = f * 2.0 * np.sin(0.5 * w * t) ** 2 * coth
        g = f * p * u ** (p - 1.0)
    g[0] = 0.0
    # the trapezoid sum written out: np.trapezoid needs numpy >= 2.0
    return float((np.diff(u) * (g[1:] + g[:-1]) / 2.0).sum())


def gamma_discrete_loops(omegas, gs, beta, t: float) -> float:
    """Discrete-bath gamma_N(t) term by term, coth as 1/math.tanh, summed
    exactly by math.fsum; ``beta`` None or infinite means coth = 1."""
    terms = []
    for w, g in zip(omegas, gs):
        coth = 1.0 if beta is None or math.isinf(beta) else 1.0 / math.tanh(0.5 * beta * w)
        terms.append(2.0 * (g / w) ** 2 * math.sin(0.5 * w * t) ** 2 * coth)
    return math.fsum(terms)


def gamma_hurwitz_mpmath(t: float, j0: float, mu: float, omega_c: float, beta: float) -> float:
    """Bath integral from mpmath's Hurwitz zeta at 50 digits.

    ``J0 Gamma(mu) beta^-mu Re[2(zeta(mu, a) - zeta(mu, b)) - (a^-mu - b^-mu)]``
    with ``a = 1/(beta omega_c)`` and ``b = a - i t/beta``. At the poles
    mu = 0 (Gamma) and mu = 1 (zeta) it averages mu -+ 1e-30 at 60 digits.
    """
    import mpmath

    if t == 0.0:
        return 0.0

    def at(m):
        beta_m, t_m = mpmath.mpf(beta), mpmath.mpf(t)
        a = 1 / (beta_m * mpmath.mpf(omega_c))
        b = a - 1j * t_m / beta_m
        bracket = 2 * (mpmath.zeta(m, a) - mpmath.zeta(m, b)) - (a ** (-m) - b ** (-m))
        return j0 * mpmath.gamma(m) * beta_m ** (-m) * mpmath.re(bracket)

    if mu in (0.0, 1.0):
        with mpmath.workdps(60):
            shift = mpmath.mpf("1e-30")
            return float((at(mu - shift) + at(mu + shift)) / 2)
    with mpmath.workdps(50):
        return float(at(mpmath.mpf(mu)))


def kraus_loops(U: np.ndarray, omega: np.ndarray, dim_s: int, dim_b: int, weight_cut: float) -> list:
    """K_(b,a) = sqrt(p_a) (I (x) <b|) U (I (x) |a>), one operator at a time.

    |a>, |b> run over the eigenvectors of omega in descending p (ties kept in
    eigh order), a in the outer loop; sources with p_a <= weight_cut and
    operators with ||K||_F^2 <= weight_cut are dropped.
    """
    p, vecs = np.linalg.eigh((omega + omega.conj().T) / 2.0)
    order = sorted(range(dim_b), key=lambda i: -p[i])
    eye = np.eye(dim_s)
    ops = []
    for a in order:
        if p[a] <= weight_cut:
            continue
        ket = kron_loops(eye, vecs[:, a].reshape(-1, 1))
        for b in order:
            bra = kron_loops(eye, vecs[:, b].conj().reshape(1, -1))
            K = math.sqrt(p[a]) * (bra @ U @ ket)
            if sum(abs(x) ** 2 for x in K.ravel()) > weight_cut:
                ops.append(K)
    return ops


def operator_sum_loops(lefts, rights, state: np.ndarray) -> np.ndarray:
    """sum_k lefts[k] @ state @ rights[k], accumulated one term at a time."""
    out = np.zeros(state.shape, dtype=complex)
    for L, R in zip(lefts, rights):
        out = out + L @ state @ R
    return out


def choi_loops(ops, dim_s: int) -> np.ndarray:
    """sum_k |K_k>><<K_k| with the column-stacked vec(K)[j * d + i] = K[i, j]."""
    d2 = dim_s * dim_s
    choi = np.zeros((d2, d2), dtype=complex)
    for K in ops:
        vec = [K[m % dim_s, m // dim_s] for m in range(d2)]
        for m in range(d2):
            for n in range(d2):
                choi[m, n] += vec[m] * np.conj(vec[n])
    return choi


def sector_dynamics_dense(H_B, V_B, omega_diag, e1, rho0, times, fock_dim, n_modes):
    """Reduced qubit states and top-level Fock tail from the full bath space.

    ``h_pm = H_B pm E1 (I + V_B)``, one ``eigh`` of size ``d_F^N`` each,
    ``rho_+-(t) = rho_+-(0) Tr[U_+ omega U_-^dag]`` in the sigma_x basis,
    and the tail read off the bath populations of each sector at the last
    time on the basis states with some mode at its top level.
    """
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    times = np.asarray(times, dtype=float)
    shift = e1 * (np.eye(H_B.shape[0]) + V_B)
    sectors = [np.linalg.eigh(H_B + shift), np.linalg.eigh(H_B - shift)]
    (w_p, W_p), (w_m, W_m) = sectors
    rot0 = hadamard @ rho0 @ hadamard
    states = []
    for t in times:
        U_p = (W_p * np.exp(-1j * w_p * t)) @ W_p.conj().T
        U_m = (W_m * np.exp(-1j * w_m * t)) @ W_m.conj().T
        decay = np.trace(U_p @ np.diag(omega_diag) @ U_m.conj().T)
        rot = rot0.astype(complex)
        rot[0, 1] *= decay
        rot[1, 0] *= np.conj(decay)
        states.append(hadamard @ rot @ hadamard)
    levels = np.indices((fock_dim,) * n_modes).reshape(n_modes, -1)
    top = np.any(levels == fock_dim - 1, axis=0)
    tail = 0.0
    for pop, (w, W) in zip((rot0[0, 0].real, rot0[1, 1].real), sectors):
        U = (W * np.exp(-1j * w * times[-1])) @ W.conj().T
        bath_pops = np.diag(U @ np.diag(omega_diag) @ U.conj().T).real
        tail += pop * float(bath_pops[top].sum())
    return np.array(states), tail
