"""Dense complex linear algebra for small Hilbert spaces.

Everything here operates on plain ``numpy`` arrays of ``complex128``, and
every LAPACK call goes through ``numpy.linalg``, so importing the package
loads a single BLAS. The tensor-product index convention is system-major
throughout the package: a composite index is ``s * dim_B + b`` with the
system factor first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionCap,
    DimensionMismatch,
    NegativeEigenvalue,
    NonDiagonalizable,
    NotHermitian,
)

DEFAULT_TOL = 1e-10

#: Largest row (or column) count a kron product may produce.
DEFAULT_DIM_CAP = 2**16

#: Unit-norm left/right overlap below which a matrix is treated as
#: non-diagonalizable (exceptional-point proximity).
OVERLAP_FLOOR = 1e-8


def as_cmatrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D complex array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _require_square(m: np.ndarray, name: str = "matrix") -> int:
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    return m.shape[0]


def norm2(a: np.ndarray) -> float:
    """Spectral norm, the scale used by every relative tolerance here."""
    return float(np.linalg.norm(a, 2))


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    a = np.asarray(a)
    defect = a - a.conj().T
    # An exactly zero defect passes any tolerance; skip both SVDs.
    if not defect.any():
        return True
    return bool(norm2(defect) <= tol * max(norm2(a), 1.0))


@dataclass(frozen=True)
class EigSystem:
    """Eigendecomposition with biorthonormalized left/right vectors.

    ``right[:, k]`` is the unit-norm right eigenvector for ``values[k]``;
    ``left[:, k]`` is its dual, scaled so that ``left.conj().T @ right``
    is the identity. Completeness ``right @ left.conj().T = I`` follows.
    """

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Return sum_k values[k] |right_k><left_k|."""
        return (self.right * self.values) @ self.left.conj().T


def _gauge_columns(vecs: np.ndarray) -> np.ndarray:
    """Unit-normalize columns and make the largest-modulus component real
    positive (first occurrence wins), for deterministic output."""
    nrm = np.linalg.norm(vecs, axis=0)
    if not nrm.all():
        raise NonDiagonalizable(f"zero eigenvector column {int(np.argmin(nrm))}")
    v = vecs / nrm
    pivot = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return v / (pivot / np.abs(pivot))


def eig_general(A, tol: float = DEFAULT_TOL) -> EigSystem:
    """Eigendecompose a general (possibly non-hermitian) square matrix.

    Eigenvalues are sorted by real part, then imaginary part. Right vectors
    carry the deterministic unit-norm gauge; left vectors are the exact
    duals (rows of the inverse of the right-vector matrix), so
    biorthonormality holds to rounding.

    Raises :class:`NonDiagonalizable` when any unit-norm left/right overlap
    falls below ``OVERLAP_FLOOR``, or when the residual ``||A r - lam r||``
    exceeds ``tol * ||A||`` — both signal exceptional-point proximity.
    """
    A = as_cmatrix(A, "A")
    n = _require_square(A, "A")
    values, vr = np.linalg.eig(A)
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vr = _gauge_columns(vr[:, order])

    try:
        dual = np.linalg.inv(vr)
    except np.linalg.LinAlgError as exc:
        raise NonDiagonalizable("right-eigenvector matrix is singular") from exc

    # |<l_k|r_k>| with both unit-norm equals 1/||dual row k||. Near an
    # exceptional point the dual rows are huge; an inf norm means zero
    # overlap, so the overflow is benign.
    with np.errstate(over="ignore"):
        row_norms = np.linalg.norm(dual, axis=1)
    min_overlap = float(np.min(1.0 / row_norms))
    if min_overlap < OVERLAP_FLOOR:
        raise NonDiagonalizable(
            f"minimal left/right overlap {min_overlap:.3e} below {OVERLAP_FLOOR:.0e}"
        )

    scale = max(norm2(A), 1.0)
    resid = np.linalg.norm(A @ vr - vr * values, axis=0)
    if np.any(resid > tol * scale):
        raise NonDiagonalizable(
            f"eigenpair residual {float(resid.max()):.3e} exceeds tol*||A||"
        )

    left = dual.conj().T
    return EigSystem(values=values, right=vr, left=left)


def mat_sqrt_psd(A, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root of a hermitian PSD matrix.

    Eigenvalues in ``[-tol*||A||, tol*||A||]`` are clamped to zero; anything
    below ``-tol*||A||`` raises :class:`NegativeEigenvalue`.
    """
    A = as_cmatrix(A, "A")
    _require_square(A, "A")
    scale = max(norm2(A), 1.0)
    if np.linalg.norm(A - A.conj().T, 2) > tol * scale:
        raise NotHermitian("input to mat_sqrt_psd is not hermitian within tol")
    w, V = np.linalg.eigh((A + A.conj().T) / 2.0)
    if np.any(w < -tol * scale):
        raise NegativeEigenvalue(
            f"eigenvalue {float(w.min()):.3e} below -tol*||A||"
        )
    w = np.where(w < tol * scale, np.maximum(w, 0.0), w)
    root = (V * np.sqrt(w)) @ V.conj().T
    return (root + root.conj().T) / 2.0


def kron(A, B, cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
    """Kronecker product with a guard on the output dimensions."""
    A = as_cmatrix(A, "A")
    B = as_cmatrix(B, "B")
    rows = A.shape[0] * B.shape[0]
    cols = A.shape[1] * B.shape[1]
    if rows > cap or cols > cap:
        raise DimensionCap(f"kron output {rows}x{cols} exceeds cap {cap}")
    return np.kron(A, B)


def partial_trace_env(M, dim_S: int, dim_B: int) -> np.ndarray:
    """Trace out the environment factor of a system-major composite matrix.

    ``M`` lives on the product space with index ``s * dim_B + b``; the result
    is the ``dim_S x dim_S`` matrix ``sum_b M[(s,b),(s',b)]``.
    """
    M = as_cmatrix(M, "M")
    d = dim_S * dim_B
    if M.shape != (d, d):
        raise DimensionMismatch(
            f"expected {(d, d)} for dim_S={dim_S}, dim_B={dim_B}, got {M.shape}"
        )
    return np.einsum("sbtb->st", M.reshape(dim_S, dim_B, dim_S, dim_B))
