import numpy as np
import pytest

from ptdeco import linalg
from ptdeco.errors import (
    DimensionCap,
    DimensionMismatch,
    NegativeEigenvalue,
    NonDiagonalizable,
    NotHermitian,
)

from .conftest import count_calls, random_hermitian
from .oracles import kron_loops, ptrace_env_loops

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class TestEigGeneral:
    def test_pauli_x_spectrum(self):
        eig = linalg.eig_general(SX)
        np.testing.assert_allclose(eig.values, [-1.0, 1.0], atol=1e-14)

    def test_diagonal_input(self):
        eig = linalg.eig_general(np.diag([2.0, 5.0]))
        np.testing.assert_allclose(eig.values, [2.0, 5.0], atol=1e-14)
        np.testing.assert_allclose(eig.right, np.eye(2), atol=1e-14)

    def test_pt_qubit_closed_form(self):
        H = np.array([[0.5j, 1.0], [1.0, -0.5j]])
        eig = linalg.eig_general(H)
        r = np.sqrt(0.75)
        np.testing.assert_allclose(eig.values, [-r, r], atol=1e-12)

    def test_biorthonormality_and_residual(self, rng):
        for dim in (2, 3, 5, 8):
            A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            eig = linalg.eig_general(A)
            np.testing.assert_allclose(
                eig.left.conj().T @ eig.right, np.eye(dim), atol=1e-10
            )
            scale = np.linalg.norm(A, 2)
            assert np.linalg.norm(A - eig.reconstruct(), 2) <= 10 * 1e-10 * scale

    def test_gauge_is_deterministic(self, rng):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        e1 = linalg.eig_general(A)
        e2 = linalg.eig_general(A.copy())
        np.testing.assert_array_equal(e1.right, e2.right)
        for k in range(4):
            v = e1.right[:, k]
            j = int(np.argmax(np.abs(v)))
            assert v[j].imag == pytest.approx(0.0, abs=1e-15)
            assert v[j].real > 0

    def test_jordan_block_rejected(self):
        with pytest.raises(NonDiagonalizable):
            linalg.eig_general(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_exceptional_qubit_rejected(self):
        H = np.array([[1.0j, 1.0], [1.0, -1.0j]])
        with pytest.raises(NonDiagonalizable):
            linalg.eig_general(H)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            linalg.eig_general(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            linalg.eig_general(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestAsCmatrix:
    @pytest.mark.parametrize(
        "value",
        [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, np.inf),
         complex(np.nan, np.inf), complex(-np.inf, 0.0)],
    )
    def test_non_finite_in_either_part_rejected(self, value):
        m = np.eye(2, dtype=complex)
        m[1, 0] = value
        with pytest.raises(ValueError, match=r"^H contains non-finite entries$"):
            linalg.as_cmatrix(m, "H")


class TestMatSqrtPsd:
    def test_diagonal(self):
        np.testing.assert_allclose(
            linalg.mat_sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-13
        )

    def test_identity(self):
        np.testing.assert_allclose(linalg.mat_sqrt_psd(np.eye(3)), np.eye(3))

    def test_qubit_vdagv_matches_closed_form(self):
        # duals of the unit-norm eigenvectors of the alpha=0.6 PT qubit; the
        # closed form (1/2)[[s1+s2, -i(s1-s2)], [i(s1-s2), s1+s2]] with
        # s_{1,2} = sqrt(2(1 -+ ... +- 0.6)) must come out up to a positive
        # scalar.
        H = np.array([[0.6j, 1.0], [1.0, -0.6j]])
        eig = linalg.eig_general(H)
        V = np.linalg.inv(eig.right)
        T = linalg.mat_sqrt_psd(V.conj().T @ V)
        s1, s2 = np.sqrt(2 * 1.6), np.sqrt(2 * 0.4)
        closed = 0.5 * np.array(
            [[s1 + s2, -1j * (s1 - s2)], [1j * (s1 - s2), s1 + s2]]
        )
        ratio = np.trace(closed).real / np.trace(T).real
        assert ratio > 0
        np.testing.assert_allclose(T * ratio, closed, atol=1e-12)

    def test_square_reproduces_input(self, rng):
        for dim in (3, 16, 64):
            A = random_hermitian(rng, dim)
            A = A @ A.conj().T  # PSD
            S = linalg.mat_sqrt_psd(A)
            scale = max(np.linalg.norm(A, 2), 1.0)
            assert np.linalg.norm(S @ S - A, 2) <= 1e-10 * scale
            assert np.min(np.linalg.eigvalsh(S)) >= 0.0

    def test_not_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            linalg.mat_sqrt_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NegativeEigenvalue):
            linalg.mat_sqrt_psd(np.diag([1.0, -0.5]))

    def test_clamps_tiny_negatives(self):
        out = linalg.mat_sqrt_psd(np.diag([1.0, -1e-14]))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-7)


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_pauli_projector(self):
        out = linalg.kron(SX, np.diag([1.0, 0.0]))
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[2, 0] = 1.0
        np.testing.assert_array_equal(out, expected)

    def test_shape_contract(self, rng):
        out = linalg.kron(rng.normal(size=(2, 2)), rng.normal(size=(3, 3)))
        assert out.shape == (6, 6)

    def test_against_loops(self, rng):
        A = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        B = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        np.testing.assert_allclose(linalg.kron(A, B), kron_loops(A, B))

    def test_dimension_cap(self):
        with pytest.raises(DimensionCap):
            linalg.kron(np.eye(300), np.eye(300))


class TestPartialTraceEnv:
    def test_product_state(self, rng):
        from .conftest import random_density_matrix

        rho = random_density_matrix(rng, 2)
        sigma = random_density_matrix(rng, 3)
        out = linalg.partial_trace_env(np.kron(rho, sigma), 2, 3)
        np.testing.assert_allclose(out, rho, atol=1e-13)

    def test_maximally_mixed(self):
        out = linalg.partial_trace_env(np.eye(4) / 4.0, 2, 2)
        np.testing.assert_allclose(out, np.eye(2) / 2.0)

    def test_bell_projector(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
        proj = np.outer(bell, bell.conj())
        out = linalg.partial_trace_env(proj, 2, 2)
        np.testing.assert_allclose(out, np.eye(2) / 2.0, atol=1e-15)

    def test_linear_and_trace_preserving(self, rng):
        dS, dB = 3, 4
        M1 = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        M2 = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        a, b = 1.3, -0.7 + 0.2j
        lhs = linalg.partial_trace_env(a * M1 + b * M2, dS, dB)
        rhs = a * linalg.partial_trace_env(M1, dS, dB) + b * linalg.partial_trace_env(
            M2, dS, dB
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        np.testing.assert_allclose(
            np.trace(linalg.partial_trace_env(M1, dS, dB)), np.trace(M1), atol=1e-12
        )

    def test_against_loops(self, rng):
        M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        np.testing.assert_allclose(
            linalg.partial_trace_env(M, 2, 3), ptrace_env_loops(M, 2, 3)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linalg.partial_trace_env(np.eye(5), 2, 3)


class TestIsHermitian:
    def test_decisions_and_exact_shortcut(self, rng, monkeypatch):
        calls = count_calls(monkeypatch, linalg, "norm2")
        h = random_hermitian(rng, 4)
        skew = 1j * random_hermitian(rng, 4)
        assert linalg.is_hermitian(h)
        assert calls == []
        assert linalg.is_hermitian(h + 1e-13 * skew)
        assert calls == []  # settled by the Frobenius bounds
        assert not linalg.is_hermitian(h + 1e-3 * skew)


class TestEdgeContracts:
    def test_right_vectors_unit_norm(self, rng):
        A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        eig = linalg.eig_general(A)
        np.testing.assert_allclose(
            np.linalg.norm(eig.right, axis=0), np.ones(5), atol=1e-13
        )
