import numpy as np
import pytest

from ptdeco.pt_core import PtHamiltonian


def exchange_parity(dim: int) -> np.ndarray:
    """Antidiagonal parity operator (sigma_x for dim 2)."""
    return np.fliplr(np.eye(dim)).astype(complex)


def random_pt_hamiltonian(rng, dim: int, imag_scale: float = 0.3) -> PtHamiltonian:
    """Random unbroken-phase PT-symmetric matrix for the exchange parity.

    H = A + iB with real symmetric A commuting with P and real symmetric B
    anticommuting with P satisfies P H P = conj(H) = H^dag. Rejection
    sampling keeps only samples with a real, well-separated spectrum and
    moderate eigenvector conditioning.
    """
    P = exchange_parity(dim).real
    for _ in range(500):
        A = rng.normal(size=(dim, dim))
        A = (A + A.T) / 2.0
        A = (A + P @ A @ P) / 2.0
        B = rng.normal(size=(dim, dim))
        B = (B + B.T) / 2.0
        B = (B - P @ B @ P) / 2.0 * imag_scale
        H = A + 1j * B
        w = np.linalg.eigvals(H)
        scale = max(float(np.linalg.norm(H, 2)), 1e-12)
        if float(np.max(np.abs(w.imag))) > 1e-11 * scale:
            continue
        wr = np.sort(w.real)
        if dim > 1 and float(np.min(np.diff(wr))) < 1e-2 * scale:
            continue
        return PtHamiltonian(H=H, P=P.astype(complex))
    raise RuntimeError(f"failed to sample an unbroken PT Hamiltonian at dim {dim}")


def random_density_matrix(rng, dim: int) -> np.ndarray:
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim: int, scale: float = 1.0) -> np.ndarray:
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (G + G.conj().T) / 2.0


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` so each call appends its first argument's shape
    to the returned list."""
    calls = []
    inner = getattr(module, name)

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return inner(a, *args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def count_spectral_norms(monkeypatch) -> list:
    """Wrap ``np.linalg.norm`` so each spectral-norm call (``ord=2``, one SVD
    per matrix) appends its first argument's shape to the returned list."""
    calls = []
    inner = np.linalg.norm

    def counting(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(np.shape(x))
        return inner(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
