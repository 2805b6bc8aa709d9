"""Composite system-environment dynamics and Kraus channel machinery.

The composite Hamiltonian ``h = h_S (x) I + I (x) H_B + V_S (x) V_B`` is
assembled in the hermitian representation, evolved unitarily through its
eigendecomposition, and reduced by the partial trace. Kraus operators are
extracted from the propagator in the eigenbasis of the initial environment
state; the PT variant conjugates each Kraus pair with the canonical map,
giving left/right families ``L_i = T^{-1} K_i T``,
``R_i = T^{-1} K_i^dag T`` with ``sum_i L_i R_i = I``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotHermitian
from .linalg import DEFAULT_TOL, Norm2, as_cmatrix, norm2, norm2_le
from .pt_core import CanonicalMap, require_density_matrix

#: Eigenvalue weights of Omega_B at or below this are dropped from the
#: Kraus family; the induced completeness defect is reported, not hidden.
DEFAULT_WEIGHT_CUT = 1e-12


@dataclass(frozen=True, eq=False)
class CompositeModel:
    """Hermitian-representation composite with a product-form interaction."""

    h_S: np.ndarray
    H_B: np.ndarray
    h_I: np.ndarray
    dim_S: int
    dim_B: int
    dephasing: bool

    @property
    def h_total(self) -> np.ndarray:
        d_S, d_B = self.dim_S, self.dim_B
        return (
            linalg.kron(self.h_S, np.eye(d_B))
            + linalg.kron(np.eye(d_S), self.H_B)
            + self.h_I
        )


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Operator-sum channel, either hermitian {K_i} or PT {(L_i, R_i)}.

    ``completeness_defect`` is the norm of ``sum K_i^dag K_i - I`` (or of
    ``sum L_i R_i - I``) as built, including any weight-cut truncation.
    """

    kind: str  # "hermitian" | "pt"
    ops: tuple
    dim_S: int
    completeness_defect: float = 0.0

    def __post_init__(self):
        if self.kind not in ("hermitian", "pt"):
            raise ValueError(f"unknown channel kind {self.kind!r}")

    def normalization(self) -> np.ndarray:
        """sum K_i^dag K_i for hermitian kind, sum L_i R_i for PT kind."""
        ops = _stacked(self)
        if self.kind == "hermitian":
            return _op_sum(_dagger(ops), ops)
        return _op_sum(ops[:, 0], ops[:, 1])


def _stacked(channel: KrausChannel) -> np.ndarray:
    """The operators as one array: (k, d, d) for hermitian kind, (k, 2, d, d)
    of (L, R) pairs for PT kind; k may be 0."""
    d = channel.dim_S
    shape = (d, d) if channel.kind == "hermitian" else (2, d, d)
    return np.array(channel.ops, dtype=complex).reshape(-1, *shape)


def _dagger(ops: np.ndarray) -> np.ndarray:
    return ops.conj().transpose(0, 2, 1)


def _op_sum(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sum_k A_k @ B_k over stacked (k, d, d) operators, as one matrix product."""
    k, d, _ = A.shape
    return A.transpose(1, 0, 2).reshape(d, k * d) @ B.reshape(k * d, d)


def _require_hermitian(m: np.ndarray, name: str, tol: float) -> np.ndarray:
    if not linalg.is_hermitian(m, tol):
        raise NotHermitian(f"{name} must be hermitian within tol")
    return m


def build_composite(h_S, H_B, V_S, V_B, tol: float = DEFAULT_TOL) -> CompositeModel:
    """Assemble the composite model and detect the pure-dephasing structure.

    The dephasing flag is set when ``[h_S (x) I, h_I] = 0`` within tol, the
    condition under which populations in the ``h_S`` eigenbasis and the
    system energy are conserved.
    """
    h_S = _require_hermitian(as_cmatrix(h_S, "h_S"), "h_S", tol)
    H_B = _require_hermitian(as_cmatrix(H_B, "H_B"), "H_B", tol)
    V_S = _require_hermitian(as_cmatrix(V_S, "V_S"), "V_S", tol)
    V_B = _require_hermitian(as_cmatrix(V_B, "V_B"), "V_B", tol)
    if h_S.shape != V_S.shape:
        raise DimensionMismatch(f"h_S {h_S.shape} and V_S {V_S.shape} differ")
    if H_B.shape != V_B.shape:
        raise DimensionMismatch(f"H_B {H_B.shape} and V_B {V_B.shape} differ")
    dim_S, dim_B = h_S.shape[0], H_B.shape[0]
    h_I = linalg.kron(V_S, V_B)
    # [h_S (x) I, V_S (x) V_B] = [h_S, V_S] (x) V_B and ||A (x) B|| = ||A|| ||B||,
    # so the composite-space test runs on the factors
    dephasing = norm2_le(
        lambda comm, v_b, h, v_s: (comm * v_b, tol * max(h * max(v_s * v_b, 1.0), 1.0)),
        Norm2(h_S @ V_S - V_S @ h_S),
        Norm2(V_B),
        Norm2(h_S),
        Norm2(V_S),
    )
    return CompositeModel(
        h_S=h_S, H_B=H_B, h_I=h_I, dim_S=dim_S, dim_B=dim_B, dephasing=dephasing
    )


def propagator(model: CompositeModel, t: float) -> np.ndarray:
    """U(t) = exp(-i h t) on the composite space, in the spectral form
    ``V diag(exp(-i w t)) V^dag`` with ``(w, V)`` the eigensystem of the
    hermitian part of ``h``.

    ``build_composite`` checks every part of ``h`` hermitian within tol, so
    the hermitian part is ``h`` to that tolerance and ``U`` is unitary to
    rounding for any finite ``t``.
    """
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    h = model.h_total
    w, V = np.linalg.eigh((h + h.conj().T) / 2.0)
    return (V * np.exp(-1j * t * w)) @ V.conj().T


def reduced_state(model: CompositeModel, varrho0_S, Omega_B, t: float) -> np.ndarray:
    """Evolve the uncorrelated initial state and trace out the environment."""
    varrho0_S = require_density_matrix(varrho0_S, name="varrho0_S")
    Omega_B = require_density_matrix(Omega_B, name="Omega_B")
    if varrho0_S.shape != (model.dim_S,) * 2 or Omega_B.shape != (model.dim_B,) * 2:
        raise DimensionMismatch("state dimensions do not match the model")
    U = propagator(model, t)
    rho = U @ linalg.kron(varrho0_S, Omega_B) @ U.conj().T
    return linalg.partial_trace_env(rho, model.dim_S, model.dim_B)


def kraus_extract(
    model: CompositeModel,
    Omega_B,
    t: float,
    weight_cut: float = DEFAULT_WEIGHT_CUT,
) -> KrausChannel:
    """Kraus family K_(beta,alpha) = sqrt(p_alpha) <beta|U(t)|alpha>.

    |alpha>, |beta> run over the eigenbasis of Omega_B; source states alpha
    with p_alpha <= weight_cut are dropped, as are operators of negligible
    weight ||K||_F^2 <= weight_cut (for a product evolution this leaves the
    single unitary operator). The resulting completeness defect is recorded
    on the channel. Operators are ordered by descending p_alpha, then
    ascending beta.
    """
    Omega_B = require_density_matrix(Omega_B, name="Omega_B")
    if Omega_B.shape != (model.dim_B,) * 2:
        raise DimensionMismatch("Omega_B dimension does not match the model")
    p, states = np.linalg.eigh((Omega_B + Omega_B.conj().T) / 2.0)
    order = np.argsort(-p, kind="stable")
    p, states = p[order], states[:, order]

    d_S, d_B = model.dim_S, model.dim_B
    keep = p > weight_cut
    kets = states[:, keep] * np.sqrt(p[keep])
    U = propagator(model, t)
    # U as a (s, b, s', b') tensor: contract the ket index b' with every kept
    # sqrt(p_a)|a>, then the bra index b with every <b|.
    Uk = (U.reshape(-1, d_B) @ kets).reshape(d_S, d_B, d_S, -1)
    K = states.conj().T @ Uk.transpose(1, 0, 2, 3).reshape(d_B, -1)
    # (b, s, s', a) -> (a, b, s, s'): descending p_a, then ascending b
    K = K.reshape(d_B, d_S, d_S, -1).transpose(3, 0, 1, 2).reshape(-1, d_S, d_S)
    K = K[np.sum(np.abs(K) ** 2, axis=(1, 2)) > weight_cut]

    defect = norm2(_op_sum(_dagger(K), K) - np.eye(d_S))
    return KrausChannel(
        kind="hermitian", ops=tuple(K), dim_S=d_S, completeness_defect=defect
    )


def pt_kraus(channel: KrausChannel, cmap: CanonicalMap) -> KrausChannel:
    """Conjugate a hermitian Kraus family into the PT left/right family."""
    if channel.kind != "hermitian":
        raise ValueError("pt_kraus expects a hermitian-kind channel")
    if cmap.T.shape[0] != channel.dim_S:
        raise DimensionMismatch("canonical map dimension does not match channel")
    K = _stacked(channel)
    L = cmap.T_inv @ K @ cmap.T
    R = cmap.T_inv @ _dagger(K) @ cmap.T
    defect = norm2(_op_sum(L, R) - np.eye(channel.dim_S))
    return KrausChannel(
        kind="pt", ops=tuple(zip(L, R)), dim_S=channel.dim_S, completeness_defect=defect
    )


def apply_channel(channel: KrausChannel, state) -> np.ndarray:
    """Apply the operator sum: sum K rho K^dag, or sum L rho R for PT kind."""
    state = as_cmatrix(state, "state")
    if state.shape != (channel.dim_S, channel.dim_S):
        raise DimensionMismatch(
            f"state shape {state.shape} != channel dim {channel.dim_S}"
        )
    ops = _stacked(channel)
    if channel.kind == "hermitian":
        return _op_sum(ops @ state, _dagger(ops))
    return _op_sum(ops[:, 0] @ state, ops[:, 1])


def choi_matrix(channel: KrausChannel) -> np.ndarray:
    """Choi matrix sum_k |K_k>><<K_k| of a hermitian-kind channel.

    Column-stacked vectorization; complete positivity is equivalent to this
    matrix being PSD.
    """
    if channel.kind != "hermitian":
        raise ValueError("Choi test applies to the hermitian representation")
    d = channel.dim_S
    # row k is the column-stacked vec(K_k)
    vecs = _stacked(channel).transpose(0, 2, 1).reshape(-1, d * d)
    return vecs.T @ vecs.conj()


def is_completely_positive(channel: KrausChannel, tol: float = 1e-9) -> bool:
    """Choi-eigenvalue test: all eigenvalues >= -tol."""
    evals = np.linalg.eigvalsh(choi_matrix(channel))
    return bool(float(evals.min()) >= -tol)
