"""Seeded inputs for the four benchmark workloads.

Every input is a function of the workload name and the seed only. This
module uses numpy alone and never imports ptdeco: the program receives the
generated inputs and nothing else.

A spec is a JSON-safe dict; workloads with matrix inputs also return a dict
of numpy arrays, which the runner stores next to the spec as an ``.npz``.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("figure1_sweep", "gamma_domain", "oracle_dense", "hermitize_kraus")

#: The paper's Figure-1 physics.
FIGURE1_PHYSICS = {"j0": 1.0, "mu": -0.5, "omega_c": 1.0, "beta": 0.5}
FIGURE1_POINTS = 4000

GAMMA_DOMAIN_ITEMS = 4000

#: (modes, fock_dim), composite dimension 2 * fock_dim**modes from 250 to 512.
#: The FAIL shape (4x4) runs first, so the first call's BLAS warm-up lands on
#: the slowest call; the count is odd, so the median call is one shape (2x13).
ORACLE_SHAPES = ((4, 4), (3, 5), (2, 12), (2, 13), (3, 6))
ORACLE_PHYSICS = {
    "j0": 0.2,
    "mu": -0.5,
    "omega_c": 1.0,
    "beta": 0.5,
    "t_end": 5.0,
    "n_points": 21,
    "omega_max": 15.0,
    "compare_tol": 1e-2,
}

HERMITIZE_DIMS = tuple(range(2, 65))
#: (system dim, bath dim) of the Kraus channels; fixed so that the work per
#: run does not depend on the seed.
KRAUS_SHAPES = (
    (2, 8), (2, 16), (2, 32), (3, 8), (3, 12), (3, 24),
    (4, 8), (4, 16), (4, 32), (2, 12), (3, 16), (4, 24),
)
#: log10 range of ||K||_2 in the PT generator; it sets cond(T) from ~1 to ~50.
KAPPA_LOG10 = (-1.5, 0.3)


def exchange_matrix(n: int) -> np.ndarray:
    return np.fliplr(np.eye(n))


def _expm_hermitian(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * np.exp(w)) @ v.conj().T


def pt_matrix(rng: np.random.Generator, n: int, kappa: float):
    """Unbroken PT-symmetric ``H = e^{-iK} A e^{iK}`` for the exchange parity.

    ``A`` is real symmetric with ``PAP = A`` and ``K`` real antisymmetric with
    ``PKP = -K``, scaled to ``||K||_2 = kappa``. Then ``S = e^{-iK}`` is
    hermitian positive definite with ``PSP = S^-1``, so ``PHP = H^dag`` and
    ``conj(H) = H^dag``, and ``H`` has the real spectrum of ``A``. Larger
    ``kappa`` moves ``H`` towards an exceptional point (larger cond(T)).
    Returns ``(H, A)``.
    """
    P = exchange_matrix(n)
    A = rng.normal(size=(n, n))
    A = (A + A.T) / 2.0
    A = (A + P @ A @ P) / 2.0
    K = rng.normal(size=(n, n))
    K = (K - K.T) / 2.0
    K = (K - P @ K @ P) / 2.0
    norm = np.linalg.norm(K, 2)
    if norm > 0.0:
        K *= kappa / norm
    H = _expm_hermitian(-1j * K) @ A @ _expm_hermitian(1j * K)
    return H, A


def _random_hermitian(rng, n: int, scale: float = 1.0) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (g + g.conj().T) / 2.0


def _random_density(rng, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def figure1_sweep(rng):
    alphas = [float(a) for a in rng.uniform(0.0, 1.0, 6)] + [1.0]
    spec = dict(FIGURE1_PHYSICS)
    spec.update(
        alphas=alphas,
        t_end=float(rng.uniform(16.0, 22.0)),
        n_points=FIGURE1_POINTS,
    )
    return spec, {}


def _stratified(rng, n: int) -> np.ndarray:
    """n points in [0, 1), one in each of n equal strata, in random order.

    Every seed then covers each axis of the domain evenly, so the work and
    the failure share of a run vary less from seed to seed.
    """
    return (rng.permutation(n) + rng.random(n)) / n


def gamma_domain(rng):
    """Scalar points over the whole documented domain.

    mu in (-1, 8], beta log-uniform on [1e-3, 1e3], t log-uniform on
    [1e-6, 1e6] with 2% exact zeros, |alpha| <= 1 with 2% exactly at the
    critical point, each axis stratified. The initial state is the
    admissible family r11 = 1/2, Re r12 = 0, Im r12 in [-1/2, 1/2]. Half of
    the items with |alpha| < 1 are also mapped into the PT representation.
    """
    n = GAMMA_DOMAIN_ITEMS
    mu = 8.0 - 9.0 * _stratified(rng, n)
    beta = 10.0 ** (-3.0 + 6.0 * _stratified(rng, n))
    t = 10.0 ** (-6.0 + 12.0 * _stratified(rng, n))
    t[rng.choice(n, n // 50, replace=False)] = 0.0
    alpha = -1.0 + 2.0 * _stratified(rng, n)
    critical = rng.choice(n, n // 50, replace=False)
    alpha[critical] = np.sign(alpha[critical])
    im12 = -0.5 + _stratified(rng, n)
    below = np.flatnonzero(np.abs(alpha) < 1.0)
    to_pt = np.zeros(n, dtype=bool)
    to_pt[rng.choice(below, below.size // 2, replace=False)] = True
    spec = {"j0": 1.0, "omega_c": 1.0, "items": n}
    arrays = {"mu": mu, "beta": beta, "t": t, "alpha": alpha, "im12": im12, "to_pt": to_pt}
    return spec, arrays


def oracle_dense(rng):
    spec = dict(ORACLE_PHYSICS)
    spec["shapes"] = [
        {"modes": m, "fock_dim": f, "alphas": [0.0, float(rng.uniform(0.3, 0.9))]}
        for m, f in ORACLE_SHAPES
    ]
    return spec, {}


def hermitize_kraus(rng):
    """PT matrices for every n in 2..64, then small Kraus channels.

    Each channel has a PT system Hamiltonian, a random hermitian bath
    Hamiltonian and coupling, a thermal bath state and a system state.
    """
    arrays = {}
    for n in HERMITIZE_DIMS:
        kappa = 10.0 ** rng.uniform(*KAPPA_LOG10)
        arrays[f"H{n}"], arrays[f"A{n}"] = pt_matrix(rng, n, kappa)
    times = []
    for i, (ds, db) in enumerate(KRAUS_SHAPES):
        kappa = 10.0 ** rng.uniform(*KAPPA_LOG10)
        arrays[f"c{i}_HS"], _ = pt_matrix(rng, ds, kappa)
        H_B = _random_hermitian(rng, db)
        arrays[f"c{i}_HB"] = H_B
        arrays[f"c{i}_VS"] = _random_hermitian(rng, ds)
        arrays[f"c{i}_VB"] = _random_hermitian(rng, db, 0.3)
        w, v = np.linalg.eigh(H_B)
        p = np.exp(-float(rng.uniform(0.2, 2.0)) * (w - w.min()))
        omega = (v * (p / p.sum())) @ v.conj().T
        arrays[f"c{i}_OmegaB"] = (omega + omega.conj().T) / 2.0
        arrays[f"c{i}_rho"] = _random_density(rng, ds)
        times.append(float(rng.uniform(0.1, 3.0)))
    spec = {
        "dims": list(HERMITIZE_DIMS),
        "channels": [
            {"dim_s": ds, "dim_b": db, "t": t} for (ds, db), t in zip(KRAUS_SHAPES, times)
        ],
    }
    return spec, arrays


_GENERATORS = {
    "figure1_sweep": figure1_sweep,
    "gamma_domain": gamma_domain,
    "oracle_dense": oracle_dense,
    "hermitize_kraus": hermitize_kraus,
}


def make(workload: str, seed: int):
    """(spec, arrays) for one workload; the same seed gives the same inputs."""
    rng = np.random.default_rng([abs(seed), int(seed < 0), WORKLOADS.index(workload)])
    spec, arrays = _GENERATORS[workload](rng)
    spec["workload"] = workload
    spec["seed"] = seed
    return spec, arrays

