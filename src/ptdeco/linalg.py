"""Dense complex linear algebra for small Hilbert spaces.

Everything here takes and returns plain ``numpy`` arrays of ``complex128``,
and every LAPACK call goes through ``numpy.linalg``, so importing the package
loads a single BLAS. The one computation in real arithmetic is that of
:func:`eig_general` given a basis in which its input is real. The
tensor-product index convention is system-major throughout the package: a
composite index is ``s * dim_B + b`` with the system factor first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

#: Relative widening of the Frobenius bounds on a spectral norm: far above
#: the rounding of a Frobenius sum or an SVD, far below the distance of a
#: rounding-level defect (~1e-15 ||H||) from a tolerance (1e-10 ||H||).
NORM_MARGIN = 1e-6


def as_cmatrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D complex array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.isfinite(m).all():  # complex: both parts finite
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _require_square(m: np.ndarray, name: str = "matrix") -> int:
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    return m.shape[0]


def norm2(a: np.ndarray) -> float:
    """Spectral norm, one SVD.

    Every relative tolerance here is stated in spectral norms, but a test
    that only decides takes them as :class:`Norm2` bounds through
    :func:`norm2_le`, which calls this only where the bounds straddle the
    threshold. Reported values, such as a Kraus completeness defect, call
    it directly.
    """
    return float(np.linalg.norm(a, 2))


class Norm2:
    """``||a||_2`` held as bounds ``lo <= ||a||_2 <= hi``.

    They come from the Frobenius norm, ``||a||_F / sqrt(min(m, n)) <=
    ||a||_2 <= ||a||_F``, widened by ``NORM_MARGIN``. A Frobenius norm
    outside [1e-100, 1e100] may have lost its sum of squares to under- or
    overflow, so it gives no bounds. :meth:`exact` takes the SVD once and
    then pins both bounds to its value.
    """

    __slots__ = ("a", "lo", "hi", "_exact")

    def __init__(self, a):
        self.a = np.asarray(a)
        self._exact = None
        with np.errstate(over="ignore"):
            f = float(np.linalg.norm(self.a))
        if 1e-100 < f < 1e100:
            self.lo = f / math.sqrt(min(self.a.shape)) * (1.0 - NORM_MARGIN)
            self.hi = f * (1.0 + NORM_MARGIN)
        elif self.a.any():
            self.lo, self.hi = 0.0, math.inf
        else:
            self._exact = self.lo = self.hi = 0.0

    def exact(self) -> float:
        if self._exact is None:
            self._exact = self.lo = self.hi = norm2(self.a)
        return self._exact


def norm2_le(rule, *norms: Norm2) -> bool:
    """``lhs <= rhs`` for ``(lhs, rhs) = rule(*values)`` at the spectral norms
    that ``norms`` hold.

    Both sides must be nondecreasing in every value. Then ``rule`` at the
    upper bounds gives the largest ``lhs`` and at the lower bounds the
    smallest ``rhs`` (and the other way round), so the bounds settle the
    test unless they straddle it. Only then are the exact norms taken, and
    the outcome is always the one the exact norms give.
    """
    lhs_hi, rhs_hi = rule(*(n.hi for n in norms))
    lhs_lo, rhs_lo = rule(*(n.lo for n in norms))
    if lhs_hi <= rhs_lo:
        return True
    if lhs_lo > rhs_hi:
        return False
    lhs, rhs = rule(*(n.exact() for n in norms))
    return bool(lhs <= rhs)


def within(tol: float):
    """The rule ``defect <= tol * max(scale, 1)`` for :func:`norm2_le`, with
    both ``defect`` and ``scale`` spectral norms."""
    return lambda defect, scale: (defect, tol * max(scale, 1.0))


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    a = np.asarray(a)
    defect = a - a.conj().T
    # An exactly zero defect passes any tolerance; skip the norms.
    if not defect.any():
        return True
    return norm2_le(within(tol), Norm2(defect), Norm2(a))


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
    #: The unitary ``U`` whose real form ``U^dag A U`` the eigenproblem was
    #: solved in (see :func:`eig_general`), or None for the complex path.
    _real_basis: np.ndarray | None = field(default=None, repr=False, compare=False)

    def reconstruct(self) -> np.ndarray:
        """Return sum_k values[k] |right_k><left_k|."""
        return (self.right * self.values) @ self.left.conj().T


#: Relative window in which a modulus ties with its column's largest.
_PIVOT_TIE = 1e-9


def _gauge_columns(vecs: np.ndarray) -> np.ndarray:
    """Unit-normalize columns and make the first component that ties with the
    largest modulus real positive; ties that an exchange parity makes exact,
    ``|r_i| = |r_(n-1-i)|``, are thus not broken by rounding."""
    nrm = np.linalg.norm(vecs, axis=0)
    if not nrm.all():
        raise NonDiagonalizable(f"zero eigenvector column {int(np.argmin(nrm))}")
    v = vecs / nrm
    mod = np.abs(v)
    first = np.argmax(mod >= mod.max(axis=0) * (1.0 - _PIVOT_TIE), axis=0)
    pivot = v[first, np.arange(v.shape[1])]
    return v / (pivot / np.abs(pivot))


def eig_general(A, tol: float = DEFAULT_TOL, *, _basis=None) -> EigSystem:
    """Eigendecompose a general (possibly non-hermitian) square matrix.

    Eigenvalues are sorted by real part, then imaginary part. Right vectors
    are unit-norm, with their first component of largest modulus (ties
    within ``_PIVOT_TIE``) real positive; left vectors are the exact duals
    (rows of the inverse of the right-vector matrix), so biorthonormality
    holds to rounding.

    Raises :class:`NonDiagonalizable` when any unit-norm left/right overlap
    falls below ``OVERLAP_FLOOR``, or when the residual ``||A r - lam r||``
    exceeds ``tol * ||A||`` — both signal exceptional-point proximity.

    ``_basis`` is a unitary ``U`` in which ``A`` may be real, such as the
    ``(I + iP)/sqrt(2)`` of a real parity ``P``. If ``||Im(U^dag A U)||_2 <=
    tol * max(||A||_2, 1)``, one real eigendecomposition of ``Re(U^dag A U)``
    is taken and its vectors are mapped back by ``U``; otherwise, and without
    ``_basis``, one complex one of ``A``. Sorting, gauge and checks are the
    same on either path and run on ``A``'s vectors.
    """
    A = as_cmatrix(A, "A")
    _require_square(A, "A")
    scale = Norm2(A)
    real_basis = None
    if _basis is not None:
        M = _basis.conj().T @ A @ _basis
        if norm2_le(within(tol), Norm2(M.imag), scale):
            real_basis = _basis
    if real_basis is None:
        values, vr = np.linalg.eig(A)
    else:
        # Real input gives real arrays when every eigenvalue is real, and
        # complex ones with exact conjugate pairs otherwise.
        values, v = np.linalg.eig(M.real)
        values = values.astype(complex, copy=False)
        vr = real_basis @ v
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

    resid = np.linalg.norm(A @ vr - vr * values, axis=0)
    # the largest residual, NaN-blind like an elementwise resid > tol*||A||
    worst = float(np.fmax.reduce(resid, initial=0.0))
    if not norm2_le(lambda s: (worst, tol * max(s, 1.0)), scale):
        raise NonDiagonalizable(
            f"eigenpair residual {float(resid.max()):.3e} exceeds tol*||A||"
        )

    left = dual.conj().T
    return EigSystem(values=values, right=vr, left=left, _real_basis=real_basis)


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


def kron(A, B) -> np.ndarray:
    """Kronecker product with a guard on the output dimensions."""
    A = as_cmatrix(A, "A")
    B = as_cmatrix(B, "B")
    rows = A.shape[0] * B.shape[0]
    cols = A.shape[1] * B.shape[1]
    if rows > DEFAULT_DIM_CAP or cols > DEFAULT_DIM_CAP:
        raise DimensionCap(f"kron output {rows}x{cols} exceeds cap {DEFAULT_DIM_CAP}")
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
