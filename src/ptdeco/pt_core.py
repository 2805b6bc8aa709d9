"""PT-symmetry checks, biorthonormal spectral data, and the canonical
transformation that maps a PT-symmetric Hamiltonian to a hermitian one.

Conventions. Time reversal acts as entrywise complex conjugation, so the
PT condition is the operator pair ``P H P = H^dag`` and ``conj(H) = H^dag``.
A :class:`BiorthoSystem` holds the unit-norm right eigenvectors ``r_n`` and
their duals ``l_n`` rescaled by the PT norms ``c_n = <r_n|P|r_n>``:
``psi_n = r_n / sqrt|c_n|``, ``phi_n = sqrt|c_n| l_n``. A PT-symmetric ``H``
has ``P r_n = c_n l_n``, so ``P psi_n = sign(c_n) phi_n = exp(i theta_n) phi_n``.
The canonical map ``T`` is the square root of the CPT metric
``P C = sum_n |c_n| l_n l_n^dag``, normalized to ``det(T) = 1``; its overall
positive scalar cancels in every similarity transform, so comparisons
against closed forms are up to scalar.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    BrokenPhase,
    DegenerateSpectrum,
    DimensionMismatch,
    ExceptionalPoint,
    IllConditioned,
    NonDiagonalizable,
    NotDensityMatrix,
    NotHermitian,
    NotPtSymmetric,
    PtDecoError,
)
from .linalg import DEFAULT_TOL, Norm2, as_cmatrix, norm2_le, within

#: Spectral-reality classification threshold (relative to ||H||).
DEFAULT_EPS_SPEC = 1e-9

#: Condition-number cap of T beyond which IllConditioned fires.
DEFAULT_COND_CAP = 1e8

#: Relative window of the PT-relation checks on c_n and on P psi_n.
THETA_SNAP = 1e-6

#: Bound on |closed form - eigvalsh| for the lowest eigenvalue of an exactly
#: hermitian 2 x 2 matrix [[a, b], [conj(b), d]], per unit of its largest
#: entry modulus M, with u = eps/2. The closed form
#: (a + d)/2 - hypot((a - d)/2, |b|) errs by at most about 5 eps M: u M from
#: rounding a + d and u M from a - d (the halvings are exact), 2u M from |b|
#: (within one ulp), the last two carried through the 1-Lipschitz hypot,
#: one ulp of hypot (<= sqrt(2) M) and the rounding of the final difference
#: (<= (1 + sqrt(2)) M). LAPACK's 2 x 2 step (``dlae2`` on the real
#: tridiagonal form) errs by about 7 eps M once the largest eigenvalue is at
#: least M, which holds, up to the 1e-10 threshold, for any state near unit
#: trace with a nonnegative spectrum. 16 eps covers their sum; 8e5 random
#: qubit states never showed more than 6 eps M.
QUBIT_EIG_MARGIN = 16.0 * 2.0**-52  # eps = 2**-52


@dataclass(frozen=True, eq=False)
class PtHamiltonian:
    """A (generally non-hermitian) Hamiltonian with its parity operator.

    ``H`` is held as a read-only copy of the input, so the spectral data
    computed from it once (see :func:`_eigensystem`) cannot go stale.
    """

    H: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        H = as_cmatrix(self.H, "H").copy()
        H.flags.writeable = False
        P = as_cmatrix(self.P, "P")
        n = H.shape[0]
        if H.shape[0] != H.shape[1]:
            raise DimensionMismatch(f"H must be square, got {H.shape}")
        if P.shape != H.shape:
            raise DimensionMismatch(f"P shape {P.shape} does not match H {H.shape}")
        if not linalg.is_hermitian(P):
            raise NotHermitian("parity operator P must be hermitian")
        defect = P @ P - np.eye(n)
        if defect.any() and not norm2_le(
            lambda d, p: (d, DEFAULT_TOL * max(p**2, 1.0)), Norm2(defect), Norm2(P)
        ):
            raise NotPtSymmetric("parity operator P must square to the identity")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "_memo", {})

    @property
    def dim(self) -> int:
        return self.H.shape[0]


class PhaseClass(enum.Enum):
    REAL = "Real"
    COMPLEX_PAIRS = "ComplexPairs"
    EXCEPTIONAL_POINT = "ExceptionalPoint"


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Eigenvalues (sorted by real, then imaginary part) and the phase they imply."""

    eigenvalues: np.ndarray
    classification: PhaseClass


@dataclass(frozen=True, eq=False)
class BiorthoSystem:
    """PT-normalized biorthonormal eigendata of an unbroken PT Hamiltonian.

    ``psi[:, n]`` and ``phi[:, n]`` satisfy ``<psi_n|phi_m> = delta_nm``,
    ``sum_n |psi_n><phi_n| = I``, and ``P psi_n = exp(i theta_n) phi_n``.
    Energies are real and ascending.
    """

    energies: np.ndarray
    psi: np.ndarray
    phi: np.ndarray
    theta: np.ndarray

    @property
    def dim(self) -> int:
        return self.energies.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Return sum_n E_n |psi_n><phi_n|."""
        return (self.psi * self.energies) @ self.phi.conj().T


@dataclass(frozen=True, eq=False)
class CanonicalMap:
    """Hermitian positive-definite T with its inverse and conditioning."""

    T: np.ndarray
    T_inv: np.ndarray
    condition: float


def _once(ham: PtHamiltonian, key: str, compute):
    """``compute()``, run once per instance and kept in ``ham._memo``. A
    :class:`PtDecoError` it raises is kept too and raised afresh, with the
    same type and text, on every call."""
    memo = ham._memo
    if key not in memo:
        try:
            memo[key] = compute()
        except PtDecoError as exc:
            memo[key] = exc
    out = memo[key]
    if isinstance(out, PtDecoError):
        raise type(out)(str(out))
    return out


def _scale(ham: PtHamiltonian) -> Norm2:
    """||H||_2, whose max(., 1) scales every relative tolerance on H, held
    as bounds; its SVD runs at most once, and only if a test needs the
    exact value."""
    return _once(ham, "scale", lambda: Norm2(ham.H))


def _eigensystem(ham: PtHamiltonian) -> linalg.EigSystem:
    """``linalg.eig_general(ham.H, DEFAULT_TOL)``, computed once per instance.

    For a real parity ``P``, ``PT = P K`` is antiunitary with ``(PT)^2 = 1``,
    so a PT-symmetric ``H`` is real in the basis ``U = (I + iP)/sqrt(2)``:
    ``P conj(U) = -iU`` makes ``U^dag H U`` equal to its own conjugate.
    ``eig_general`` is given that basis and solves in real arithmetic when
    ``H`` is PT-symmetric within tol there. A :class:`NonDiagonalizable`
    outcome is raised afresh on every call; the arrays of the shared result
    are read-only.
    """

    def solve():
        P = ham.P
        basis = None if P.imag.any() else (np.eye(ham.dim) + 1j * P) / np.sqrt(2.0)
        eig = linalg.eig_general(ham.H, DEFAULT_TOL, _basis=basis)
        for a in (eig.values, eig.right, eig.left):
            a.flags.writeable = False
        return eig

    return _once(ham, "eig", solve)


def check_pt_symmetry(ham: PtHamiltonian, tol: float = DEFAULT_TOL) -> bool:
    """True iff both P H P = H^dag and conj(H) = H^dag hold within tol*||H||."""
    H, P = ham.H, ham.P
    scale = _scale(ham)
    Hd = H.conj().T
    rule = within(tol)
    parity_ok = norm2_le(rule, Norm2(P @ H @ P - Hd), scale)
    return parity_ok and norm2_le(rule, Norm2(H.conj() - Hd), scale)


def spectrum(ham: PtHamiltonian, eps_spec: float = DEFAULT_EPS_SPEC) -> SpectrumReport:
    """Classify the spectrum as Real, ComplexPairs, or ExceptionalPoint."""
    try:
        values = _eigensystem(ham).values.copy()
    except NonDiagonalizable:
        values = _once(ham, "ep_values", lambda: _sorted_eigvals(ham.H)).copy()
        return SpectrumReport(values, PhaseClass.EXCEPTIONAL_POINT)
    imag = float(np.max(np.abs(values.imag)))
    if norm2_le(lambda s: (imag, eps_spec * max(s, 1.0)), _scale(ham)):
        cls = PhaseClass.REAL
    else:
        cls = PhaseClass.COMPLEX_PAIRS
    return SpectrumReport(values, cls)


def _sorted_eigvals(H: np.ndarray) -> np.ndarray:
    """The eigenvalues of a non-diagonalizable ``H``, by real then imaginary
    part."""
    values = np.linalg.eigvals(H)
    return values[np.lexsort((values.imag, values.real))]


def _pt_norms(ham: PtHamiltonian) -> tuple[linalg.EigSystem, np.ndarray]:
    """The eigensystem of an unbroken-phase ``ham`` and the real PT norms
    ``c_n = <r_n|P|r_n>`` of its unit-norm right vectors (module docstring),
    computed once per instance; the shared ``c_n`` is read-only."""
    return _once(ham, "pt_norms", lambda: _solve_pt_norms(ham))


def _solve_pt_norms(ham: PtHamiltonian) -> tuple[linalg.EigSystem, np.ndarray]:
    """:func:`_pt_norms` without the memo. A degenerate level leaves its
    ``r_n``, and so ``c_n``, undefined."""
    report = spectrum(ham)
    if report.classification is PhaseClass.EXCEPTIONAL_POINT:
        raise ExceptionalPoint("spectrum is at an exceptional point")
    if report.classification is PhaseClass.COMPLEX_PAIRS:
        raise BrokenPhase("spectrum contains complex-conjugate pairs")
    # a failed eigensystem is classified EXCEPTIONAL_POINT above
    eig = _eigensystem(ham)
    if ham.dim > 1:
        gap = float(np.min(np.diff(eig.values.real)))
        if norm2_le(lambda s: (gap, DEFAULT_EPS_SPEC * max(s, 1.0)), _scale(ham)):
            raise DegenerateSpectrum(f"minimal level spacing {gap:.3e} is degenerate")
    c = np.einsum("in,in->n", eig.right.conj(), ham.P @ eig.right)
    mod = np.abs(c)
    bad = (np.abs(c.imag) > THETA_SNAP * np.maximum(mod, 1.0)) | (mod <= DEFAULT_TOL)
    if bad.any():
        n = int(np.argmax(bad))
        raise NotPtSymmetric(
            f"<r_{n}|P|r_{n}> = {c[n]:.3e} is not real and nonzero"
        )
    c = c.real
    c.flags.writeable = False
    return eig, c


def biorthonormal_basis(ham: PtHamiltonian) -> BiorthoSystem:
    """Biorthonormal eigenbasis of an unbroken-phase PT Hamiltonian.

    Eigenvectors are rescaled from the unit-norm gauge to the PT
    normalization and ``theta_n`` is ``pi`` where ``c_n < 0`` (see module
    docstring). If ``P psi_n = exp(i theta_n) phi_n`` fails beyond
    ``THETA_SNAP``, P is not a parity for H: :class:`NotPtSymmetric`.
    """
    eig, c = _pt_norms(ham)
    w = np.sqrt(np.abs(c))
    psi = eig.right / w
    phi = eig.left * w
    theta = np.pi * (c < 0.0)
    resid = np.linalg.norm(ham.P @ psi - np.sign(c) * phi, axis=0)
    bad = resid > THETA_SNAP * (1.0 + np.linalg.norm(phi, axis=0))
    if bad.any():
        n = int(np.argmax(bad))
        raise NotPtSymmetric(
            f"P psi_{n} deviates from exp(i theta) phi_{n} by {resid[n]:.3e}; "
            "P is not a parity for this Hamiltonian"
        )
    return BiorthoSystem(energies=eig.values.real.copy(), psi=psi, phi=phi, theta=theta)


def charge_conjugation(basis: BiorthoSystem, P) -> np.ndarray:
    """C = (sum_n |psi_n><psi_n|) P, satisfying C^2 = I and [C, H] = 0."""
    P = as_cmatrix(P, "P")
    if P.shape != (basis.dim, basis.dim):
        raise DimensionMismatch(
            f"P shape {P.shape} does not match basis dim {basis.dim}"
        )
    return (basis.psi @ basis.psi.conj().T) @ P


def canonical_transform(ham: PtHamiltonian) -> CanonicalMap:
    """Canonical map T = sqrt(P C), normalized to det(T) = 1.

    ``P C = phi phi^dag`` is the CPT metric of :func:`biorthonormal_basis`
    and :func:`charge_conjugation`, so ``T H T^{-1}`` is hermitian; it is
    formed from the PT norms alone, without the basis.
    """
    eig, c = _pt_norms(ham)
    phi = eig.left * np.sqrt(np.abs(c))
    # one eigh of P C gives T, T^-1 and the condition
    U = eig._real_basis
    if U is None:
        w, W = np.linalg.eigh(phi @ phi.conj().T)
    else:
        # U^dag P C U is real symmetric when the eigenvectors came from the
        # real form: the gauge phases of the columns of U^dag phi cancel
        L = U.conj().T @ phi
        w, W = np.linalg.eigh((L @ L.conj().T).real)
        W = U @ W
    if float(w.min()) <= 0.0:
        raise ExceptionalPoint("canonical transform is singular")
    s = np.sqrt(w)
    condition = float(s.max() / s.min())
    if condition > DEFAULT_COND_CAP:
        raise IllConditioned(
            f"condition {condition:.3e} exceeds cap {DEFAULT_COND_CAP:.1e} "
            "(exceptional-point proximity)"
        )
    gm = float(np.exp(np.mean(np.log(s))))
    T = (W * (s / gm)) @ W.conj().T
    T_inv = (W * (gm / s)) @ W.conj().T
    T = (T + T.conj().T) / 2.0
    T_inv = (T_inv + T_inv.conj().T) / 2.0
    return CanonicalMap(T=T, T_inv=T_inv, condition=condition)


def hermitian_representation(
    ham: PtHamiltonian, cmap: CanonicalMap, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """h = T H T^{-1}, returned as its exact hermitian part (h + h^dag)/2;
    raises NotHermitian if the defect exceeds tol*||H||."""
    if cmap.T.shape != ham.H.shape:
        raise DimensionMismatch(f"canonical map shape {cmap.T.shape} != H {ham.H.shape}")
    h = cmap.T @ ham.H @ cmap.T_inv
    if not norm2_le(within(tol), Norm2(h - h.conj().T), _scale(ham)):
        raise NotHermitian(
            "T H T^-1 is not hermitian within tol; T does not match this H"
        )
    return (h + h.conj().T) / 2.0


def map_observable(O, cmap: CanonicalMap) -> np.ndarray:
    """Push an observable into the hermitian representation: o = T O T^{-1}."""
    O = as_cmatrix(O, "O")
    if O.shape != cmap.T.shape:
        raise DimensionMismatch(f"observable shape {O.shape} != {cmap.T.shape}")
    return cmap.T @ O @ cmap.T_inv


def require_density_matrix(rho, tol: float = DEFAULT_TOL, name: str = "state") -> np.ndarray:
    """Validate hermiticity, positivity, and unit trace of a density matrix.

    A ``(k, n, n)`` stack is validated as a whole, with the same tolerances
    per matrix; an error names the first failing matrix as ``name[i]``.
    A single 2 x 2 state that clearly passes every check is settled in
    scalar arithmetic (:func:`_qubit_clearly_passes`); every other input,
    and so every rejection, takes the array pass.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape == (2, 2) and _qubit_clearly_passes(rho, tol):
        return rho
    if rho.ndim not in (2, 3):
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={rho.ndim}")
    if not np.isfinite(rho).all():  # complex: both parts finite
        raise ValueError(f"{name} contains non-finite entries")
    if rho.shape[-1] != rho.shape[-2]:
        what = "square" if rho.ndim == 2 else "a stack of square matrices"
        raise NotDensityMatrix(f"{name} must be {what}, got {rho.shape}")
    rho_h = rho.swapaxes(-1, -2).conj()
    defect = rho - rho_h
    # An exactly zero defect passes any tolerance, and leaves rho its own
    # hermitian part bit for bit; the norm test and the hermitian part are
    # formed only if some matrix has a nonzero defect, the latter halved
    # before the sum so that it cannot overflow.
    not_herm = defect.any(axis=(-2, -1))
    herm = rho
    if not_herm.any():
        herm = rho / 2.0 + rho_h / 2.0
        not_herm &= linalg._exceeds(tol, defect, rho)
    trace = rho.trace(axis1=-2, axis2=-1)
    bad_trace = np.abs(trace.real - 1.0) > max(tol, 1e-12)
    # a 0 x 0 matrix has no eigenvalues, and fails only on its trace
    lowest = np.linalg.eigvalsh(herm).min(axis=-1, initial=np.inf)
    # written so that a NaN eigenvalue fails
    negative = ~(lowest >= -max(tol, 1e-10))
    bad = not_herm | bad_trace | negative
    if bad.any():
        i = int(np.argmax(bad))
        label = name if rho.ndim == 2 else f"{name}[{i}]"
        if not_herm.flat[i]:
            raise NotDensityMatrix(f"{label} is not hermitian within tol")
        if bad_trace.flat[i]:
            raise NotDensityMatrix(f"{label} trace {complex(trace.flat[i]):.6g} != 1")
        low = float(lowest.flat[i])
        raise NotDensityMatrix(f"{label} has negative eigenvalue {low:.3e}")
    return rho


def _qubit_clearly_passes(rho: np.ndarray, tol: float) -> bool:
    """True only if the 2 x 2 ``rho`` passes every check of the array pass
    by a margin that rounding cannot close: it is finite and exactly
    hermitian, its trace passes the same test, and the closed-form lowest
    eigenvalue clears the threshold by ``QUBIT_EIG_MARGIN``. False decides
    nothing; the caller then takes the array pass.
    """
    (a, b), (c, d) = rho.tolist()
    # an exactly zero defect (a NaN makes one nonzero), as the array pass
    # finds it; rho is then its own hermitian part
    if a.imag or d.imag or c != b.conjugate():
        return False
    a, d, b = a.real, d.real, abs(b)
    if not (math.isfinite(a) and math.isfinite(d) and math.isfinite(b)):
        return False
    if not abs(a + d - 1.0) <= max(tol, 1e-12):
        return False
    lowest = (a + d) / 2.0 - math.hypot((a - d) / 2.0, b)
    return lowest - QUBIT_EIG_MARGIN * max(abs(a), abs(d), b) > -max(tol, 1e-10)


def map_state_back(varrho, cmap: CanonicalMap) -> np.ndarray:
    """Pull a hermitian-representation state back: rho = T^{-1} varrho T.

    The output is the PT-representation state; it keeps the trace but is
    generally not hermitian. A ``(k, n, n)`` stack of states is validated
    and mapped as a whole.
    """
    varrho = require_density_matrix(varrho, name="varrho")
    if varrho.shape[-2:] != cmap.T.shape:
        raise DimensionMismatch(f"state shape {varrho.shape} != {cmap.T.shape}")
    return cmap.T_inv @ varrho @ cmap.T
