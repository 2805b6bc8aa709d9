import itertools
import warnings

import numpy as np
import pytest

from ptdeco import dephasing, linalg, pt_core
from ptdeco.errors import (
    BrokenPhase,
    DegenerateSpectrum,
    DimensionMismatch,
    ExceptionalPoint,
    IllConditioned,
    NotDensityMatrix,
    NotHermitian,
    NotPtSymmetric,
)
from ptdeco.pt_core import PhaseClass, PtHamiltonian

from .conftest import (
    count_calls,
    count_spectral_norms,
    exchange_parity,
    random_density_matrix,
    random_hermitian,
    random_pt_hamiltonian,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def pt_qubit(alpha: float) -> PtHamiltonian:
    H = np.array([[1j * alpha, 1.0], [1.0, -1j * alpha]], dtype=complex)
    return PtHamiltonian(H=H, P=SX)


class TestPtHamiltonian:
    def test_parity_must_be_hermitian(self):
        with pytest.raises(NotHermitian):
            PtHamiltonian(H=SX, P=np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_parity_must_be_involution(self):
        with pytest.raises(NotPtSymmetric):
            PtHamiltonian(H=SX, P=2.0 * SX)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            PtHamiltonian(H=SX, P=np.eye(3))


class TestCheckPtSymmetry:
    def test_dephasing_qubit(self):
        assert pt_core.check_pt_symmetry(pt_qubit(0.5))

    def test_sigma_z_with_sx_parity_fails(self):
        assert not pt_core.check_pt_symmetry(PtHamiltonian(H=SZ, P=SX))

    def test_hermitian_with_identity_parity(self, rng):
        H = random_hermitian(rng, 4).real.astype(complex)  # real symmetric
        assert pt_core.check_pt_symmetry(PtHamiltonian(H=H, P=np.eye(4)))

    def test_random_family(self, rng):
        for dim in (2, 4):
            for _ in range(5):
                assert pt_core.check_pt_symmetry(random_pt_hamiltonian(rng, dim))


class TestSpectrum:
    def test_unbroken_qubit(self):
        report = pt_core.spectrum(pt_qubit(0.5))
        assert report.classification is PhaseClass.REAL
        r = 0.8660254037844386
        np.testing.assert_allclose(report.eigenvalues, [-r, r], atol=1e-12)

    def test_broken_qubit(self):
        report = pt_core.spectrum(pt_qubit(1.2))
        assert report.classification is PhaseClass.COMPLEX_PAIRS
        np.testing.assert_allclose(
            sorted(report.eigenvalues.imag), [-0.6633249580710799, 0.6633249580710799]
        )
        np.testing.assert_allclose(report.eigenvalues.real, 0.0, atol=1e-12)

    def test_exceptional_point(self):
        report = pt_core.spectrum(pt_qubit(1.0))
        assert report.classification is PhaseClass.EXCEPTIONAL_POINT


class TestBiorthonormalBasis:
    def test_hermitian_degeneration(self, rng):
        H = np.diag([0.3, 1.1, 2.5]).astype(complex)
        basis = pt_core.biorthonormal_basis(PtHamiltonian(H=H, P=np.eye(3)))
        np.testing.assert_allclose(basis.psi, basis.phi, atol=1e-12)
        np.testing.assert_allclose(basis.psi, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(basis.theta, 0.0)

    def test_qubit_invariants(self):
        ham = pt_qubit(0.5)
        basis = pt_core.biorthonormal_basis(ham)
        dim = 2
        # orthogonality, completeness, reconstruction, and the parity relation
        np.testing.assert_allclose(
            basis.psi.conj().T @ basis.phi, np.eye(dim), atol=1e-10
        )
        np.testing.assert_allclose(
            basis.psi @ basis.phi.conj().T, np.eye(dim), atol=1e-10
        )
        np.testing.assert_allclose(basis.reconstruct(), ham.H, atol=1e-10)
        for n in range(dim):
            lhs = ham.P @ basis.psi[:, n]
            rhs = np.exp(1j * basis.theta[n]) * basis.phi[:, n]
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)
        assert np.all(np.diff(basis.energies) > 0)

    def test_random_family_invariants(self, rng):
        for dim in (2, 4):
            for _ in range(10):
                ham = random_pt_hamiltonian(rng, dim)
                basis = pt_core.biorthonormal_basis(ham)
                np.testing.assert_allclose(
                    basis.psi.conj().T @ basis.phi, np.eye(dim), atol=1e-9
                )
                np.testing.assert_allclose(
                    basis.psi @ basis.phi.conj().T, np.eye(dim), atol=1e-9
                )
                np.testing.assert_allclose(basis.reconstruct(), ham.H, atol=1e-9)
                for n in range(dim):
                    np.testing.assert_allclose(
                        ham.P @ basis.psi[:, n],
                        np.exp(1j * basis.theta[n]) * basis.phi[:, n],
                        atol=1e-9,
                    )

    def test_trivial_diagonal(self):
        basis = pt_core.biorthonormal_basis(
            PtHamiltonian(H=np.diag([1.0, 2.0]), P=np.eye(2))
        )
        np.testing.assert_allclose(basis.psi, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(basis.theta, 0.0)

    def test_broken_phase_rejected(self):
        with pytest.raises(BrokenPhase):
            pt_core.biorthonormal_basis(pt_qubit(1.2))

    def test_exceptional_point_rejected(self):
        with pytest.raises(ExceptionalPoint):
            pt_core.biorthonormal_basis(pt_qubit(1.0))

    def test_degenerate_spectrum_rejected(self):
        with pytest.raises(DegenerateSpectrum):
            pt_core.biorthonormal_basis(PtHamiltonian(H=np.eye(2), P=np.eye(2)))

    def test_mismatched_parity_rejected(self):
        # hermitian H with real spectrum, but sigma_z is not a parity for it
        H = np.array([[1.0, 0.3], [0.3, 2.0]], dtype=complex)
        with pytest.raises(NotPtSymmetric):
            pt_core.biorthonormal_basis(PtHamiltonian(H=H, P=SZ))

    @pytest.mark.parametrize("column", [1, 2])
    def test_parity_residual_names_the_failing_column(self, column):
        # P fixes e_0 .. e_{column-1} up to sign but reflects e_column into
        # e_{column+1}: every <psi_n|P|psi_n> is real and nonzero and every
        # phase snaps to 0 or pi, so only the vector residual fails, first
        # at `column`
        dim = column + 2
        P = np.diag([(-1.0) ** k for k in range(dim)]).astype(complex)
        P[column:, column:] = [[0.6, 0.8], [0.8, -0.6]]
        ham = PtHamiltonian(H=np.diag(np.arange(1.0, dim + 1.0)), P=P)
        with pytest.raises(NotPtSymmetric, match=rf"^P psi_{column} deviates"):
            pt_core.biorthonormal_basis(ham)


class TestChargeConjugation:
    def test_hermitian_identity_parity(self):
        ham = PtHamiltonian(H=np.diag([0.2, 1.7]), P=np.eye(2))
        basis = pt_core.biorthonormal_basis(ham)
        np.testing.assert_allclose(
            pt_core.charge_conjugation(basis, ham.P), np.eye(2), atol=1e-12
        )

    def test_qubit_identities(self):
        ham = pt_qubit(0.5)
        basis = pt_core.biorthonormal_basis(ham)
        C = pt_core.charge_conjugation(basis, ham.P)
        np.testing.assert_allclose(C @ C, np.eye(2), atol=1e-10)
        assert np.linalg.norm(C @ ham.H - ham.H @ C, 2) <= 1e-10

    def test_hermitian_limit_gives_parity(self):
        ham = pt_qubit(0.0)  # hermitian sigma_x
        basis = pt_core.biorthonormal_basis(ham)
        C = pt_core.charge_conjugation(basis, ham.P)
        np.testing.assert_allclose(C, SX, atol=1e-12)

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_t_squared_equals_parity_times_c(self, rng, dim):
        # P C is the metric phi phi^dag of the PT normalization, and the
        # canonical map factors that same metric: T^dag T = T^2 is P C up
        # to the scalar that det(T) = 1 fixes
        ham = random_pt_hamiltonian(rng, dim, imag_scale=min(0.3, 2.0 / dim))
        basis = pt_core.biorthonormal_basis(ham)
        PC = ham.P @ pt_core.charge_conjugation(basis, ham.P)
        np.testing.assert_allclose(PC, basis.phi @ basis.phi.conj().T, atol=1e-10)
        T = pt_core.canonical_transform(ham).T
        T2 = T.conj().T @ T
        T2, PC = T2 / np.trace(T2).real, PC / np.trace(PC).real
        assert np.linalg.norm(T2 - PC, 2) <= 1e-12 * np.linalg.norm(PC, 2)

    def test_random_family(self, rng):
        for dim in (2, 4):
            for _ in range(10):
                ham = random_pt_hamiltonian(rng, dim)
                basis = pt_core.biorthonormal_basis(ham)
                C = pt_core.charge_conjugation(basis, ham.P)
                scale = np.linalg.norm(ham.H, 2)
                np.testing.assert_allclose(C @ C, np.eye(dim), atol=1e-9)
                assert np.linalg.norm(C @ ham.H - ham.H @ C, 2) <= 1e-9 * scale


class TestCanonicalTransform:
    def test_hermitian_gives_identity(self, rng):
        H = random_hermitian(rng, 3).real.astype(complex)
        H += np.diag([0.0, 3.0, 7.0])  # well-separated spectrum
        cmap = pt_core.canonical_transform(PtHamiltonian(H=H, P=np.eye(3)))
        np.testing.assert_allclose(cmap.T, np.eye(3), atol=1e-9)

    def test_alpha_zero_qubit(self):
        cmap = pt_core.canonical_transform(pt_qubit(0.0))
        np.testing.assert_allclose(cmap.T, np.eye(2), atol=1e-12)

    def test_alpha_06_matches_closed_form_up_to_scalar(self):
        cmap = pt_core.canonical_transform(pt_qubit(0.6))
        s1, s2 = np.sqrt(2 * 1.6), np.sqrt(2 * 0.4)
        closed = 0.5 * np.array(
            [[s1 + s2, -1j * (s1 - s2)], [1j * (s1 - s2), s1 + s2]]
        )
        ratio = np.trace(closed).real / np.trace(cmap.T).real
        assert ratio > 0
        np.testing.assert_allclose(cmap.T * ratio, closed, atol=1e-12)

    def test_determinant_gauge(self, rng):
        for dim in (2, 4):
            ham = random_pt_hamiltonian(rng, dim)
            cmap = pt_core.canonical_transform(ham)
            assert np.linalg.det(cmap.T).real == pytest.approx(1.0, abs=1e-9)
            np.testing.assert_allclose(cmap.T @ cmap.T_inv, np.eye(dim), atol=1e-10)

    def test_broken_phase_rejected(self):
        with pytest.raises(BrokenPhase):
            pt_core.canonical_transform(pt_qubit(1.3))

    def test_exceptional_point_rejected(self):
        with pytest.raises(ExceptionalPoint):
            pt_core.canonical_transform(pt_qubit(1.0))

    def test_degenerate_spectrum_rejected(self):
        # any basis of the degenerate level is an eigenbasis; this one has
        # <r_n|P|r_n> = 0, so no PT norm, and no P C, is defined
        with pytest.raises(DegenerateSpectrum):
            pt_core.canonical_transform(PtHamiltonian(H=np.eye(2), P=SX))

    def test_ill_conditioned_cap(self, monkeypatch):
        monkeypatch.setattr(pt_core, "DEFAULT_COND_CAP", 10.0)
        with pytest.raises(IllConditioned, match="exceeds cap 1.0e"):
            pt_core.canonical_transform(pt_qubit(0.9999))

    def test_condition_diverges_toward_critical_point(self):
        conds = []
        for alpha in (0.9, 0.99, 0.9999, 0.999999):
            conds.append(pt_core.canonical_transform(pt_qubit(alpha)).condition)
        assert all(c2 > 2 * c1 for c1, c2 in zip(conds, conds[1:]))
        # closest representable alpha < 1: either the guard fires or the
        # reported condition is within a factor of the 1e8 default cap
        try:
            cmap = pt_core.canonical_transform(pt_qubit(np.nextafter(1.0, 0.0)))
            assert cmap.condition > 1e7
        except (IllConditioned, ExceptionalPoint):
            pass


class TestExceptionalPointProbe:
    """The PT qubit approaching alpha = 1, against the closed form.

    The det(T) = 1 gauge makes T itself diverge there while the closed form
    tends to the singular [[1, -i], [i, 1]], so the metrics T^dag T are
    compared up to a scalar, not the two T.
    """

    EPSILONS = (1e-4, 1e-8, 1e-12)

    @pytest.mark.parametrize("eps", EPSILONS)
    def test_condition_grows_as_inverse_root_distance(self, eps):
        cmap = pt_core.canonical_transform(pt_qubit(1.0 - eps))
        assert cmap.condition * np.sqrt(eps) == pytest.approx(np.sqrt(2.0), rel=1e-2)

    @pytest.mark.parametrize("eps", EPSILONS)
    def test_metric_matches_closed_form_up_to_scalar(self, eps):
        alpha = 1.0 - eps
        T = pt_core.canonical_transform(pt_qubit(alpha)).T
        closed = dephasing.qubit_transform(alpha).T
        metric, closed_metric = T.conj().T @ T, closed.conj().T @ closed
        np.testing.assert_allclose(
            metric / np.trace(metric).real,
            closed_metric / np.trace(closed_metric).real,
            rtol=0.0,
            atol=1e-13,
        )

    def test_hermitian_spectrum_closest_to_the_point(self):
        alpha = 1.0 - 1e-12
        ham = pt_qubit(alpha)
        h = pt_core.hermitian_representation(ham, pt_core.canonical_transform(ham))
        e1, e2 = dephasing.qubit_energies(alpha)
        np.testing.assert_allclose(np.linalg.eigvalsh(h), [e1, e2], rtol=0.0, atol=1e-11)

    def test_at_the_point(self):
        with pytest.raises(ExceptionalPoint):
            pt_core.canonical_transform(pt_qubit(1.0))


class TestHermitianRepresentation:
    def test_qubit_gives_e1_sigma_x_up_to_basis_gauge(self):
        # The similarity by the closed-form T lands on |E1| sigma_x, which is
        # E1 sigma_x up to conjugation by sigma_z (the basis gauge of the
        # closed form's U).
        ham = pt_qubit(0.5)
        cmap = pt_core.canonical_transform(ham)
        h = pt_core.hermitian_representation(ham, cmap)
        np.testing.assert_allclose(h, np.sqrt(0.75) * SX, atol=1e-10)
        np.testing.assert_allclose(SZ @ h @ SZ, -np.sqrt(0.75) * SX, atol=1e-10)

    def test_hermitian_fixed_point(self):
        H = np.diag([0.5, 2.0]).astype(complex)
        ham = PtHamiltonian(H=H, P=np.eye(2))
        cmap = pt_core.canonical_transform(ham)
        np.testing.assert_allclose(
            pt_core.hermitian_representation(ham, cmap), H, atol=1e-10
        )

    def test_random_pt_4x4(self, rng):
        for _ in range(10):
            ham = random_pt_hamiltonian(rng, 4)
            cmap = pt_core.canonical_transform(ham)
            h = pt_core.hermitian_representation(ham, cmap)
            scale = np.linalg.norm(ham.H, 2)
            assert np.linalg.norm(h - h.conj().T, 2) <= 1e-9 * scale
            np.testing.assert_allclose(
                np.sort(np.linalg.eigvalsh(h)),
                np.sort(np.linalg.eigvals(ham.H).real),
                atol=1e-9 * scale,
            )

    def test_hermitization_identities(self, rng):
        for dim in (2, 4):
            for _ in range(10):
                ham = random_pt_hamiltonian(rng, dim)
                cmap = pt_core.canonical_transform(ham)
                T, Ti = cmap.T, cmap.T_inv
                scale = np.linalg.norm(ham.H, 2)
                h = T @ ham.H @ Ti
                assert np.linalg.norm(h - h.conj().T, 2) <= 1e-9 * scale
                lhs = T @ T @ ham.H @ Ti @ Ti
                assert np.linalg.norm(lhs - ham.H.conj().T, 2) <= 1e-9 * scale

    def test_wrong_map_rejected(self):
        ham = pt_qubit(0.5)
        bad = pt_core.canonical_transform(pt_qubit(0.9))
        with pytest.raises(NotHermitian):
            pt_core.hermitian_representation(ham, bad)

    def test_returns_exactly_hermitian_matrix(self, rng):
        hams = [pt_qubit(0.5)] + [random_pt_hamiltonian(rng, dim) for dim in (3, 4, 6)]
        for ham in hams:
            h = pt_core.hermitian_representation(ham, pt_core.canonical_transform(ham))
            assert np.array_equal(h, h.conj().T)

    def test_map_of_another_dimension_rejected(self, rng):
        cmap = pt_core.canonical_transform(random_pt_hamiltonian(rng, 3))
        with pytest.raises(DimensionMismatch):
            pt_core.hermitian_representation(pt_qubit(0.5), cmap)


class TestMapObservable:
    def test_identity(self):
        cmap = pt_core.canonical_transform(pt_qubit(0.5))
        np.testing.assert_allclose(
            pt_core.map_observable(np.eye(2), cmap), np.eye(2), atol=1e-12
        )

    def test_hamiltonian_maps_to_hermitian_rep(self):
        ham = pt_qubit(0.5)
        cmap = pt_core.canonical_transform(ham)
        np.testing.assert_allclose(
            pt_core.map_observable(ham.H, cmap),
            pt_core.hermitian_representation(ham, cmap),
            atol=1e-12,
        )

    def test_expectation_invariance(self, rng):
        for dim in (2, 4, 16):
            ham = random_pt_hamiltonian(rng, min(dim, 4)) if dim <= 4 else None
            if ham is None:
                # a generic positive-definite T works for the trace identity
                T = random_hermitian(rng, dim)
                T = T @ T.conj().T + np.eye(dim)
                Ti = np.linalg.inv(T)
                cmap = pt_core.CanonicalMap(T=T, T_inv=Ti, condition=1.0)
            else:
                cmap = pt_core.canonical_transform(ham)
                dim = ham.dim
            O = random_hermitian(rng, dim)
            varrho = random_density_matrix(rng, dim)
            o = pt_core.map_observable(O, cmap)
            rho = cmap.T_inv @ varrho @ cmap.T
            lhs = np.trace(varrho @ o)
            rhs = np.trace(rho @ O)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestMapStateBack:
    def test_maximally_mixed_fixed(self):
        cmap = pt_core.canonical_transform(pt_qubit(0.6))
        np.testing.assert_allclose(
            pt_core.map_state_back(np.eye(2) / 2, cmap), np.eye(2) / 2, atol=1e-12
        )

    def test_scalar_map_is_identity(self):
        cmap = pt_core.canonical_transform(pt_qubit(0.0))
        rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
        np.testing.assert_allclose(pt_core.map_state_back(rho, cmap), rho, atol=1e-12)

    def test_alpha_06_ground_projector(self):
        # direct similarity with the closed-form Eq-style T as the reference
        s1, s2 = np.sqrt(2 * 1.6), np.sqrt(2 * 0.4)
        T = 0.5 * np.array([[s1 + s2, -1j * (s1 - s2)], [1j * (s1 - s2), s1 + s2]])
        expected = np.linalg.inv(T) @ np.diag([1.0, 0.0]) @ T

        cmap = pt_core.canonical_transform(pt_qubit(0.6))
        out = pt_core.map_state_back(np.diag([1.0, 0.0]), cmap)
        np.testing.assert_allclose(out, expected, atol=1e-10)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(out - out.conj().T, 2) > 0.1  # genuinely non-hermitian

    def test_rejects_non_state(self):
        cmap = pt_core.canonical_transform(pt_qubit(0.6))
        with pytest.raises(NotDensityMatrix):
            pt_core.map_state_back(np.diag([2.0, -1.0]), cmap)


class TestSpectrumSimilarityInvariance:
    def test_spectra_agree(self, rng):
        for dim in (2, 4):
            ham = random_pt_hamiltonian(rng, dim)
            cmap = pt_core.canonical_transform(ham)
            h = pt_core.hermitian_representation(ham, cmap)
            hermitian_spec = np.sort(np.linalg.eigvalsh(h))
            pt_spec = pt_core.spectrum(ham).eigenvalues.real
            scale = np.linalg.norm(ham.H, 2)
            np.testing.assert_allclose(pt_spec, hermitian_spec, atol=1e-9 * scale)


class TestCanonicalCommutators:
    def test_similarity_preserves_commutators(self, rng):
        # exact algebraic identity T[A,B]T^-1 = [TAT^-1, TBT^-1], spot-checked
        ham = random_pt_hamiltonian(rng, 4)
        cmap = pt_core.canonical_transform(ham)
        T, Ti = cmap.T, cmap.T_inv
        for _ in range(5):
            A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            lhs = T @ (A @ B - B @ A) @ Ti
            a, b = T @ A @ Ti, T @ B @ Ti
            np.testing.assert_allclose(lhs, a @ b - b @ a, atol=1e-12 * np.linalg.norm(lhs, 2) + 1e-12)


class TestSpectralMemo:
    def test_one_eigendecomposition_per_hamiltonian(self, rng, monkeypatch):
        # one eig_general and one c_n einsum, whatever the order of the calls
        calls = count_calls(monkeypatch, linalg, "eig_general")
        norms = count_calls(monkeypatch, np, "einsum")
        for order in itertools.permutations(
            [pt_core.spectrum, pt_core.biorthonormal_basis, pt_core.canonical_transform]
        ):
            ham = random_pt_hamiltonian(rng, 4)
            for call in order * 2:
                call(ham)
            assert (len(calls), len(norms)) == (1, 1)
            calls.clear()
            norms.clear()

    def test_canonical_transform_factorizes_the_metric_once(self, rng, monkeypatch):
        ham = random_pt_hamiltonian(rng, 4)
        pt_core.spectrum(ham)  # memoize the eigensystem first
        eighs = count_calls(monkeypatch, np.linalg, "eigh")
        roots = count_calls(monkeypatch, linalg, "mat_sqrt_psd")
        pt_core.canonical_transform(ham)
        assert eighs == [(4, 4)]
        assert roots == []

    def test_pt_norms_once_per_hamiltonian(self, rng, monkeypatch):
        # spectrum, the degeneracy check (np.diff of the energies) and the
        # c_n einsum run once for both PT-frame constructors, however often
        ham = random_pt_hamiltonian(rng, 4)
        spectra = count_calls(monkeypatch, pt_core, "spectrum")
        gaps = count_calls(monkeypatch, np, "diff")
        norms = count_calls(monkeypatch, np, "einsum")
        for _ in range(2):
            pt_core.biorthonormal_basis(ham)
            pt_core.canonical_transform(ham)
        assert (len(spectra), len(gaps), len(norms)) == (1, 1, 1)

    @pytest.mark.parametrize(
        "make, error",
        [
            (lambda: pt_qubit(1.2), BrokenPhase),
            (lambda: pt_qubit(1.0), ExceptionalPoint),
            (lambda: PtHamiltonian(H=np.eye(2), P=np.eye(2)), DegenerateSpectrum),
        ],
    )
    def test_pt_norms_failure_is_raised_afresh(self, make, error, monkeypatch):
        ham = make()
        spectra = count_calls(monkeypatch, pt_core, "spectrum")
        raised = []
        for construct in (pt_core.biorthonormal_basis, pt_core.canonical_transform) * 2:
            with pytest.raises(error) as info:
                construct(ham)
            raised.append(info.value)
        assert len(spectra) == 1
        assert len({str(exc) for exc in raised}) == 1
        assert len({id(exc) for exc in raised}) == len(raised)

    def test_caller_mutation_does_not_leak(self, rng):
        H = random_pt_hamiltonian(rng, 4).H.copy()
        H0 = H.copy()
        ham = PtHamiltonian(H=H, P=exchange_parity(4))
        eigenvalues = pt_core.spectrum(ham).eigenvalues
        H += 1.0
        np.testing.assert_array_equal(ham.H, H0)
        np.testing.assert_array_equal(pt_core.spectrum(ham).eigenvalues, eigenvalues)
        fresh = PtHamiltonian(H=H0, P=exchange_parity(4))
        np.testing.assert_array_equal(
            pt_core.canonical_transform(ham).T, pt_core.canonical_transform(fresh).T
        )

    def test_h_is_read_only(self):
        ham = pt_qubit(0.5)
        with pytest.raises(ValueError):
            ham.H[0, 0] = 2.0

    def test_exceptional_point_outcome_is_kept(self, monkeypatch):
        ham = pt_qubit(1.0)
        eigvals = count_calls(monkeypatch, np.linalg, "eigvals")
        reports = [pt_core.spectrum(ham) for _ in range(3)]
        assert eigvals == [(2, 2)]  # the EP eigenvalues, once per instance
        for report in reports:
            assert report.classification is PhaseClass.EXCEPTIONAL_POINT
        reports[0].eigenvalues[:] = 1.0  # no alias of the memo
        np.testing.assert_array_equal(pt_core.spectrum(ham).eigenvalues, reports[1].eigenvalues)
        assert not (reports[1].eigenvalues == 1.0).any()
        with pytest.raises(ExceptionalPoint):
            pt_core.canonical_transform(ham)
        with pytest.raises(ExceptionalPoint):
            pt_core.biorthonormal_basis(ham)

    def test_returned_arrays_do_not_alias_the_memo(self, rng):
        ham = random_pt_hamiltonian(rng, 3)
        expected = spectral_outputs(PtHamiltonian(H=ham.H, P=ham.P))
        pt_core.spectrum(ham).eigenvalues[:] = 0.0
        pt_core.biorthonormal_basis(ham).energies[:] = 0.0
        for got, want in zip(spectral_outputs(ham), expected):
            np.testing.assert_array_equal(got, want)

    def test_memoized_results_match_fresh_instance(self, rng):
        for i in range(50):
            ham = random_pt_hamiltonian(rng, 2 + i % 5)
            first = spectral_outputs(ham)
            again = spectral_outputs(ham)  # every spectral quantity from the memo
            fresh = spectral_outputs(PtHamiltonian(H=ham.H, P=ham.P))
            for a, b, c in zip(again, first, fresh):
                np.testing.assert_array_equal(a, b)
                np.testing.assert_array_equal(a, c)


def spectral_outputs(ham: PtHamiltonian) -> list:
    report = pt_core.spectrum(ham)
    basis = pt_core.biorthonormal_basis(ham)
    cmap = pt_core.canonical_transform(ham)
    return [
        report.eigenvalues,
        np.array(report.classification.value),
        basis.energies,
        basis.psi,
        basis.phi,
        basis.theta,
        cmap.T,
        cmap.T_inv,
        np.array(cmap.condition),
        pt_core.hermitian_representation(ham, cmap),
    ]


def record_dtypes(monkeypatch, name: str) -> list:
    """Wrap ``np.linalg.<name>`` so each call appends its input's dtype."""
    dtypes = []
    inner = getattr(np.linalg, name)

    def recording(a, *args, **kwargs):
        dtypes.append(np.asarray(a).dtype)
        return inner(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    return dtypes


def complex_path_reference(H: np.ndarray, P: np.ndarray):
    """(sorted eigenvalues, T, h) from one complex ``np.linalg.eig`` of H and
    one complex ``eigh`` of its CPT metric ``sum_n |<r_n|P|r_n>| l_n l_n^dag``,
    with the det(T) = 1 normalization."""
    values, vr = np.linalg.eig(H)
    order = np.lexsort((values.imag, values.real))
    vr = vr[:, order] / np.linalg.norm(vr[:, order], axis=0)
    left = np.linalg.inv(vr).conj().T
    c = np.abs(np.einsum("in,in->n", vr.conj(), P @ vr))
    w, W = np.linalg.eigh((left * c) @ left.conj().T)
    s = np.sqrt(w)
    T = (W * (s / np.exp(np.mean(np.log(s))))) @ W.conj().T
    return values[order], T, T @ H @ np.linalg.inv(T)


class TestRealForm:
    """A PT Hamiltonian with a real parity is solved in real arithmetic;
    any other input takes the complex path unchanged."""

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_matches_complex_path(self, rng, dim):
        # a milder non-hermitian part keeps the rejection sampler in the
        # unbroken phase at the larger dims
        ham = random_pt_hamiltonian(rng, dim, imag_scale=min(0.3, 2.0 / dim))
        H = ham.H
        eig = pt_core._eigensystem(ham)
        assert eig._real_basis is not None
        values, T_ref, h_ref = complex_path_reference(H, ham.P)
        scale = max(np.linalg.norm(H, 2), 1.0)
        np.testing.assert_allclose(eig.values, values, rtol=0, atol=1e-12 * scale)
        report = pt_core.spectrum(ham)
        assert report.classification is PhaseClass.REAL
        assert not report.eigenvalues.imag.any()  # exactly real, not rounding-small

        np.testing.assert_allclose(eig.left.conj().T @ eig.right, np.eye(dim), atol=1e-10)
        np.testing.assert_allclose(np.linalg.norm(eig.right, axis=0), 1.0, atol=1e-13)
        # PT eigenvectors of the exchange parity have |r_i| = |r_(n-1-i)|;
        # the gauge pivot is the first of the components tied in modulus
        mod = np.abs(eig.right)
        first = np.argmax(mod >= mod.max(axis=0) * (1 - linalg._PIVOT_TIE), axis=0)
        pivot = eig.right[first, np.arange(dim)]
        assert np.all((np.abs(pivot.imag) <= 1e-15) & (pivot.real > 0))

        cmap = pt_core.canonical_transform(ham)
        h = pt_core.hermitian_representation(ham, cmap)
        assert np.linalg.norm(cmap.T - T_ref, 2) <= 1e-11 * np.linalg.norm(T_ref, 2)
        assert np.linalg.norm(h - h_ref, 2) <= 1e-11 * np.linalg.norm(h_ref, 2)

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_both_paths_give_the_same_frame(self, rng, dim, monkeypatch):
        ham = random_pt_hamiltonian(rng, dim, imag_scale=min(0.3, 2.0 / dim))
        atol = 1e-12 * max(np.linalg.norm(ham.H, 2), 1.0)
        real = pt_core._eigensystem(ham)
        cplx = linalg.eig_general(ham.H)
        assert real._real_basis is not None and cplx._real_basis is None
        np.testing.assert_allclose(real.right, cplx.right, rtol=0, atol=atol)
        np.testing.assert_allclose(real.left, cplx.left, rtol=0, atol=atol)

        cmap = pt_core.canonical_transform(ham)
        h = pt_core.hermitian_representation(ham, cmap)
        eig_general = linalg.eig_general
        monkeypatch.setattr(  # the same pt_core, on the complex eig path
            linalg, "eig_general", lambda A, tol, _basis: eig_general(A, tol)
        )
        fresh = PtHamiltonian(H=ham.H, P=ham.P)
        cmap_c = pt_core.canonical_transform(fresh)
        assert pt_core._eigensystem(fresh)._real_basis is None
        np.testing.assert_allclose(cmap.T, cmap_c.T, rtol=0, atol=atol)
        h_c = pt_core.hermitian_representation(fresh, cmap_c)
        np.testing.assert_allclose(h, h_c, rtol=0, atol=atol)

    def test_one_real_eig_and_one_real_metric_eigh(self, rng, monkeypatch):
        ham = random_pt_hamiltonian(rng, 5)
        eigs = record_dtypes(monkeypatch, "eig")
        pt_core.spectrum(ham)
        assert eigs == [np.float64]
        eighs = record_dtypes(monkeypatch, "eigh")
        pt_core.canonical_transform(ham)
        assert eighs == [np.float64]

    def test_broken_phase_gives_exact_conjugate_pairs(self):
        for alpha in (1.1, 1.5, 3.0):
            ham = pt_qubit(alpha)
            report = pt_core.spectrum(ham)
            assert report.classification is PhaseClass.COMPLEX_PAIRS
            lo, hi = report.eigenvalues
            assert lo == hi.conjugate() and lo.imag < 0
            with pytest.raises(BrokenPhase):
                pt_core.canonical_transform(ham)

    def test_imaginary_parity_takes_the_complex_path(self, monkeypatch):
        # sigma_y is hermitian and squares to I, but is not real
        ham = PtHamiltonian(H=np.array([[1 + 0.5j, 2j], [2j, 1 - 0.5j]]), P=SY)
        assert pt_core.check_pt_symmetry(ham)
        eigs = record_dtypes(monkeypatch, "eig")
        assert pt_core.spectrum(ham).classification is PhaseClass.COMPLEX_PAIRS
        assert eigs == [np.complex128]
        self.assert_complex_path(ham)

    def test_non_pt_matrix_takes_the_complex_path(self, rng, monkeypatch):
        H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        ham = PtHamiltonian(H=H, P=exchange_parity(4))
        assert not pt_core.check_pt_symmetry(ham)
        eigs = record_dtypes(monkeypatch, "eig")
        pt_core.spectrum(ham)
        assert eigs == [np.complex128]
        self.assert_complex_path(ham)

    @staticmethod
    def assert_complex_path(ham):
        got = pt_core._eigensystem(ham)
        want = linalg.eig_general(ham.H)
        assert got._real_basis is None
        for a, b in ((got.values, want.values), (got.right, want.right), (got.left, want.left)):
            assert a.tobytes() == b.tobytes()


class TestExactDefectSkipsNorms:
    """An exactly zero hermiticity or parity defect needs no 2-norm; any
    other defect is judged against the same tolerance (the parity defect
    from Frobenius bounds, which settle these without an SVD)."""

    def test_density_matrix(self, monkeypatch):
        calls = count_spectral_norms(monkeypatch)
        rho = np.array([[0.7, 0.2 - 0.3j], [0.2 + 0.3j, 0.3]])
        pt_core.require_density_matrix(rho)
        assert calls == []
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        pt_core.require_density_matrix(rho + 1e-13 * skew)
        with pytest.raises(NotDensityMatrix):
            pt_core.require_density_matrix(rho + 1e-3 * skew)
        assert calls == []  # both settled by the Frobenius bounds

    @pytest.mark.parametrize("multiple", [0.95, 1.05])
    def test_straddling_defect_takes_the_exact_norms(self, monkeypatch, multiple):
        # the defect i s diag(1, 1/2) has ||.||_2 = s = multiple * tol and
        # Frobenius bounds [0.79 s, 1.12 s]: they straddle tol, the SVDs decide
        rho = np.array([[0.7, 0.2 - 0.3j], [0.2 + 0.3j, 0.3]])
        state = rho + 0.5j * multiple * linalg.DEFAULT_TOL * np.diag([1.0, 0.5])
        expected = density_verdict(state, linalg.DEFAULT_TOL, "s")
        assert (expected is None) == (multiple < 1.0)
        calls = count_spectral_norms(monkeypatch)
        if expected is None:
            pt_core.require_density_matrix(state, name="s")
        else:
            with pytest.raises(NotDensityMatrix, match="^s is not hermitian"):
                pt_core.require_density_matrix(state, name="s")
        assert calls == [(1, 2, 2), (1, 2, 2)]  # ||rho||_2 and the defect's

    def test_parity_involution(self, monkeypatch):
        calls = count_calls(monkeypatch, linalg, "norm2")  # the bounds' fallback
        PtHamiltonian(H=SZ, P=SX)
        assert calls == []
        PtHamiltonian(H=SZ, P=(1.0 + 1e-12) * SX)
        with pytest.raises(NotPtSymmetric):
            PtHamiltonian(H=SZ, P=1.001 * SX)
        assert calls == []  # both settled by the Frobenius bounds


class TestStackedDensityCheck:
    """A ``(k, n, n)`` stack passes or fails exactly as the per-matrix loop
    does, and an error names the first failing matrix."""

    @staticmethod
    def loop_verdict(stack, tol=linalg.DEFAULT_TOL):
        for i, rho in enumerate(stack):
            try:
                pt_core.require_density_matrix(rho, tol, f"s[{i}]")
            except NotDensityMatrix as exc:
                return str(exc)
        return None

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_valid_stack_agrees_with_loop(self, rng, dim, monkeypatch):
        skew = random_hermitian(rng, dim) * 1j
        stack = np.array([random_density_matrix(rng, dim) for _ in range(7)])
        stack[2] = stack[2] + 1e-13 * skew  # measured defect, within tol
        stack[4] = np.eye(dim) / dim  # exactly hermitian
        assert self.loop_verdict(stack) is None
        calls = count_spectral_norms(monkeypatch)
        out = pt_core.require_density_matrix(stack, name="s")
        assert calls == []  # every defect settled by the Frobenius bounds
        assert out.shape == stack.shape and out.dtype == complex
        np.testing.assert_array_equal(out, stack)

    @pytest.mark.parametrize("multiple", [0.95, 1.05])
    def test_only_straddling_members_take_norms(self, rng, monkeypatch, multiple):
        stack = np.array([random_density_matrix(rng, 3) for _ in range(5)])
        stack[1] = stack[1] + 1e-13 * random_hermitian(rng, 3) * 1j
        # the defect i s diag(1, 1/2, 0) has ||.||_2 = s = multiple * tol and
        # Frobenius bounds [0.65 s, 1.12 s], at ||rho||_2 < 1: they straddle tol
        defect = 1j * multiple * linalg.DEFAULT_TOL * np.diag([1.0, 0.5, 0.0])
        stack[3] = np.diag([0.2, 0.3, 0.5]) + defect / 2.0
        expected = self.loop_verdict(stack)
        assert (expected is None) == (multiple < 1.0)
        calls = count_spectral_norms(monkeypatch)
        if expected is None:
            pt_core.require_density_matrix(stack, name="s")
        else:
            with pytest.raises(NotDensityMatrix) as info:
                pt_core.require_density_matrix(stack, name="s")
            assert str(info.value) == expected == "s[3] is not hermitian within tol"
        assert calls == [(1, 3, 3), (1, 3, 3)]  # stack[3] alone

    def test_real_stack_is_returned_complex(self):
        stack = np.repeat(np.diag([0.25, 0.75])[None], 3, axis=0)
        out = pt_core.require_density_matrix(stack)
        assert out.dtype == complex
        np.testing.assert_array_equal(out, stack)

    @pytest.mark.parametrize("kind", ["hermiticity", "trace", "negative"])
    def test_failure_names_first_bad_index(self, rng, kind):
        stack = np.array([random_density_matrix(rng, 3) for _ in range(6)])
        skew = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=complex)
        bad = {
            "hermiticity": lambda r: r + 1e-3 * skew,
            "trace": lambda r: 1.01 * r,
            "negative": lambda r: np.diag([1.2, -0.1, -0.1]).astype(complex),
        }[kind]
        for i in (4, 1):  # index 1 is the first bad one
            stack[i] = bad(stack[i])
        expected = self.loop_verdict(stack)
        assert expected is not None and expected.startswith("s[1]")
        with pytest.raises(NotDensityMatrix) as info:
            pt_core.require_density_matrix(stack, name="s")
        assert str(info.value) == expected

    def test_first_bad_index_over_all_kinds(self, rng):
        # a later trace failure does not hide an earlier negative eigenvalue
        stack = np.array([random_density_matrix(rng, 2) for _ in range(5)])
        stack[3] = 2.0 * stack[3]
        stack[2] = np.diag([1.5, -0.5])
        with pytest.raises(NotDensityMatrix, match=r"^s\[2\] has negative eigenvalue"):
            pt_core.require_density_matrix(stack, name="s")

    def test_empty_stack_passes(self):
        out = pt_core.require_density_matrix(np.zeros((0, 3, 3)))
        assert out.shape == (0, 3, 3)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_entries(self, rng, value):
        stack = np.array([random_density_matrix(rng, 2) for _ in range(3)])
        stack[1, 0, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            pt_core.require_density_matrix(stack)

    def test_non_square_stack(self):
        with pytest.raises(NotDensityMatrix):
            pt_core.require_density_matrix(np.zeros((2, 2, 3)))

    def test_tolerance_is_per_matrix(self, rng):
        rho = random_density_matrix(rng, 2)
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        stack = np.array([rho, rho + 1e-9 * skew])
        with pytest.raises(NotDensityMatrix, match=r"^s\[1\] is not hermitian"):
            pt_core.require_density_matrix(stack, name="s")
        pt_core.require_density_matrix(stack, tol=1e-8, name="s")

    def test_map_state_back_stack_matches_per_state(self, rng):
        cmap = pt_core.canonical_transform(pt_qubit(0.6))
        stack = np.array([random_density_matrix(rng, 2) for _ in range(9)])
        out = pt_core.map_state_back(stack, cmap)
        assert out.shape == (9, 2, 2)
        for rho_pt, rho in zip(out, stack):
            np.testing.assert_array_equal(rho_pt, pt_core.map_state_back(rho, cmap))

    def test_map_state_back_stack_checks(self, rng):
        cmap = pt_core.canonical_transform(pt_qubit(0.6))
        stack = np.array([random_density_matrix(rng, 2) for _ in range(3)])
        stack[2] = np.diag([2.0, -1.0])
        with pytest.raises(NotDensityMatrix, match=r"^varrho\[2\]"):
            pt_core.map_state_back(stack, cmap)
        with pytest.raises(DimensionMismatch):
            pt_core.map_state_back(np.repeat(np.eye(3)[None] / 3, 2, axis=0), cmap)


class TestExactlyHermitianShortcut:
    """An exactly hermitian state goes to ``eigvalsh`` as it is, a state with
    any nonzero defect as its hermitian part; both give the verdicts and
    messages of the symmetrized reference ``density_verdict``."""

    @staticmethod
    def exactly_hermitian(rng, n, lowest):
        # (A + A^dag)/2 has an exactly zero hermiticity defect
        p = rng.uniform(0.2, 1.0, size=n)
        p[0] = lowest
        p[1:] *= (1.0 - lowest) / p[1:].sum()
        U = random_unitary(rng, n)
        rho = (U * p) @ U.conj().T
        rho = (rho + rho.conj().T) / 2.0
        assert not (rho - rho.conj().T).any()
        return rho

    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    @pytest.mark.parametrize("multiple", [0.5, 1.0 - 1e-4, 1.0 + 1e-4, 100.0])
    @pytest.mark.parametrize("defect", [0.0, 1e-15])
    @pytest.mark.parametrize("form", ["matrix", "stack"])
    @pytest.mark.parametrize("n", [2, 3, 4])  # 2: a single one takes the qubit pre-check
    def test_verdicts_match_the_symmetrized_reference(
        self, rng, tol, multiple, defect, form, n
    ):
        rho = self.exactly_hermitian(rng, n, -multiple * max(tol, 1e-10))
        skew = random_hermitian(rng, n) * 1j
        if form == "matrix":
            state = rho + defect * skew
            members = [(state, "s")]
        else:
            state = np.array([self.exactly_hermitian(rng, n, 0.05), rho, rho])
            state[2] = state[2] + defect * skew
            members = [(m, f"s[{i}]") for i, m in enumerate(state)]
        verdicts = (density_verdict(m, tol, label) for m, label in members)
        expected = next((v for v in verdicts if v is not None), None)
        assert (expected is None) == (multiple < 1.0)
        if expected is None:
            out = pt_core.require_density_matrix(state, tol, "s")
            np.testing.assert_array_equal(out, state)
        else:
            assert "negative eigenvalue" in expected
            with pytest.raises(NotDensityMatrix) as info:
                pt_core.require_density_matrix(state, tol, "s")
            assert str(info.value) == expected

    def test_exactly_hermitian_state_is_its_own_hermitian_part(self, rng):
        for n in (2, 3, 5):
            rho = self.exactly_hermitian(rng, n, -1e-3)
            herm = (rho + rho.conj().T) / 2.0
            assert herm.tobytes() == rho.tobytes()
            np.testing.assert_array_equal(np.linalg.eigvalsh(rho), np.linalg.eigvalsh(herm))


class TestQubitPreCheck:
    """A single 2 x 2 state is settled in scalar arithmetic only when it
    clearly passes; any other takes the array pass. Every state below gives
    the verdict and message of the reference ``density_verdict``, a passing
    one comes back as the input array, and ``eigvalsh`` runs exactly when
    the pre-check defers."""

    @staticmethod
    def qubit(rng, lowest):
        return TestExactlyHermitianShortcut.exactly_hermitian(rng, 2, lowest)

    @staticmethod
    def check(monkeypatch, state, tol, settled):
        expected = density_verdict(state, tol, "s")
        calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        if expected is None:
            assert pt_core.require_density_matrix(state, tol, "s") is state
        else:
            with pytest.raises(NotDensityMatrix) as info:
                pt_core.require_density_matrix(state, tol, "s")
            assert str(info.value) == expected
        assert len(calls) == (0 if settled else 1)
        return expected

    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    @pytest.mark.parametrize("lowest", [0.3, 0.0, -(1.0 - 1e-4)])  # the last times the threshold
    def test_clear_pass_is_settled(self, rng, monkeypatch, tol, lowest):
        if lowest < 0.0:
            lowest *= max(tol, 1e-10)
        assert self.check(monkeypatch, self.qubit(rng, lowest), tol, settled=True) is None

    def test_real_input_is_returned_complex(self, monkeypatch):
        calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        out = pt_core.require_density_matrix([[0.25, 0.0], [0.0, 0.75]])
        assert out.dtype == complex and calls == []
        np.testing.assert_array_equal(out, np.diag([0.25, 0.75]))

    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    @pytest.mark.parametrize("multiple", [1.0 - 1e-9, 1.0 + 1e-9])
    def test_nonzero_defect_is_deferred(self, rng, monkeypatch, tol, multiple):
        state = edge_state(rng, 2, "hermiticity", multiple, tol, 1.0)
        expected = self.check(monkeypatch, state, tol, settled=False)
        assert (expected is None) == (multiple < 1.0)

    @pytest.mark.parametrize(
        "tol, multiple",
        [(tol, sign * (1.0 + d)) for tol in (1e-10, 1e-8) for sign in (1, -1)
         for d in (-1e-4, 1e-4)]
        # at 1e-13 the 1e-12 floor is the threshold, and 1e-4 of it is
        # within the trace's rounding
        + [(1e-13, sign * (1.0 + d)) for sign in (1, -1) for d in (-1e-2, 1e-2)],
    )
    def test_trace_edge(self, rng, monkeypatch, tol, multiple):
        state = self.qubit(rng, 0.3)
        state[0, 0] += multiple * max(tol, 1e-12)
        inside = abs(multiple) < 1.0
        expected = self.check(monkeypatch, state, tol, settled=inside)
        assert (expected is None) == inside

    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    @pytest.mark.parametrize("offset", [0.25, -0.25])
    def test_lowest_inside_the_rounding_bound_is_deferred(self, rng, monkeypatch, tol, offset):
        # within QUBIT_EIG_MARGIN * M (M >= 1/2 here) of the threshold, on
        # either side: eigvalsh decides
        lowest = -max(tol, 1e-10) + offset * pt_core.QUBIT_EIG_MARGIN
        self.check(monkeypatch, self.qubit(rng, lowest), tol, settled=False)

    def test_settled_states_pass_the_reference(self, rng):
        # lowest eigenvalues spread over a few QUBIT_EIG_MARGIN around the
        # threshold: every state the pre-check settles passes the reference
        settled = 0
        for _ in range(2000):
            lowest = -1e-10 + rng.normal() * 4.0 * pt_core.QUBIT_EIG_MARGIN
            state = self.qubit(rng, lowest)
            if pt_core._qubit_clearly_passes(state, 1e-10):
                settled += 1
                assert density_verdict(state, 1e-10, "s") is None
        assert 0 < settled < 2000

    @pytest.mark.parametrize(
        "entries, value",
        [
            ([(0, 0)], np.nan),
            ([(1, 1)], np.inf),  # still exactly hermitian
            ([(0, 0)], complex(0.5, np.nan)),
            ([(0, 1)], complex(np.nan, 0.0)),
            ([(0, 1), (1, 0)], np.inf),  # exactly hermitian, unit trace
        ],
    )
    def test_non_finite_entries(self, rng, monkeypatch, entries, value):
        state = self.qubit(rng, 0.3)
        for entry in entries:
            state[entry] = value
        calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        with pytest.raises(ValueError) as info:
            pt_core.require_density_matrix(state, name="s")
        assert str(info.value) == "s contains non-finite entries" and calls == []


def density_verdict(rho, tol, label):
    """The message of the first density check that ``rho`` fails, in the
    order hermiticity, trace, positivity, or None if it passes; spectral
    norms from ``np.linalg.svd``."""

    def spectral(m):
        return float(np.linalg.svd(m, compute_uv=False).max())

    if spectral(rho - rho.conj().T) > tol * max(spectral(rho), 1.0):
        return f"{label} is not hermitian within tol"
    trace = complex(sum(rho[i, i] for i in range(rho.shape[0])))
    if abs(trace.real - 1.0) > max(tol, 1e-12):
        return f"{label} trace {trace:.6g} != 1"
    lowest = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min())
    if lowest < -max(tol, 1e-10):
        return f"{label} has negative eigenvalue {lowest:.3e}"
    return None


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def edge_state(rng, n, check, multiple, tol, scale):
    """A matrix at ``multiple`` times the threshold of one density check."""
    p = rng.uniform(0.2, 1.0, size=n)
    p /= p.sum()
    if check == "hermiticity":
        # the off-diagonal entries are exactly those of eps * A, so the
        # defect is exactly anti-hermitian and its norm is multiple * threshold
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        A = (A - A.conj().T) / 2.0
        np.fill_diagonal(A, 0.0)
        threshold = tol * max(scale * p.max(), 1.0)
        eps = multiple * threshold / (2.0 * np.linalg.svd(A, compute_uv=False).max())
        return scale * np.diag(p) + eps * A
    U = random_unitary(rng, n)
    if check == "negative":
        p[0] = -multiple * max(tol, 1e-10)
        p[1:] *= (1.0 - p[0]) / p[1:].sum()
    rho = (U * p) @ U.conj().T
    if check == "trace":
        rho[0, 0] += multiple * max(tol, 1e-12)
    return rho


HERMITICITY_EDGES = [
    ("hermiticity", m, tol, scale)
    for m in (0.1, 1.0 - 1e-9, 1.0 + 1e-9, 10.0)
    for tol in (1e-10, 1e-13)
    for scale in (1.0, 4.0)  # 4: ||rho||_2 > 1 sets the threshold, trace fails
]
TRACE_EDGES = [
    ("trace", sign * m, tol, 1.0)
    for m in (1.0 - 1e-3, 1.0 + 1e-3)
    for sign in (1.0, -1.0)
    for tol in (1e-10, 1e-13)  # 1e-13: the 1e-12 floor is the threshold
]
NEGATIVE_EDGES = [
    ("negative", m, tol, 1.0)
    for m in (1.0 - 1e-4, 1.0 + 1e-4)
    for tol in (1e-10, 1e-13)  # 1e-13: the 1e-10 floor is the threshold
]
EDGE_CASES = HERMITICITY_EDGES + TRACE_EDGES + NEGATIVE_EDGES


class TestDensityCheckEdges:
    """One density check serves a matrix, a one-member stack and a longer
    stack: each check placed just either side of its threshold gives the
    verdict and message of the per-matrix reference ``density_verdict``."""

    @pytest.mark.parametrize("form", ["matrix", "single", "stack"])
    @pytest.mark.parametrize("check, multiple, tol, scale", EDGE_CASES)
    def test_edge_against_reference(self, rng, form, check, multiple, tol, scale):
        n = int(rng.integers(2, 5))
        rho = edge_state(rng, n, check, multiple, tol, scale)
        if form == "matrix":
            state, members = rho, [(rho, "s")]
        else:
            stack = [rho]
            if form == "stack":
                # valid members around it, and a later failing one that is
                # reported only if rho passes
                stack = [random_density_matrix(rng, n) for _ in range(2)] + stack
                stack += [random_density_matrix(rng, n), 2.0 * np.eye(n) / n]
            state = np.array(stack)
            members = [(m, f"s[{i}]") for i, m in enumerate(state)]
        verdicts = (density_verdict(m, tol, label) for m, label in members)
        expected = next((v for v in verdicts if v is not None), None)
        if expected is None:
            out = pt_core.require_density_matrix(state, tol, "s")
            np.testing.assert_array_equal(out, state)
        else:
            with pytest.raises(NotDensityMatrix) as info:
                pt_core.require_density_matrix(state, tol, "s")
            assert str(info.value) == expected

    @pytest.mark.parametrize(
        "check, multiple, tol, scale", [c for c in EDGE_CASES if c[3] == 1.0]
    )
    def test_placement(self, rng, check, multiple, tol, scale):
        # each edge state lands on the intended side of its threshold, so the
        # reference above is not trivially one-sided
        rho = edge_state(rng, int(rng.integers(2, 5)), check, multiple, tol, scale)
        assert (density_verdict(rho, tol, "s") is None) == (abs(multiple) < 1.0)


class TestDensityCheckOverflow:
    """Entries near the float maximum: the hermitian part is formed without
    overflow, and a state is never accepted on a NaN eigenvalue."""

    NEAR_HERMITIAN = np.array([[0.5, 1.5e308 + 1e292j], [1.5e308, 0.5]])
    HERMITIAN = np.array([[0.5, 1.5e308], [1.5e308, 0.5]])

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("name", ["NEAR_HERMITIAN", "HERMITIAN"])
    def test_rejected_without_warning(self, stacked, name):
        rho = getattr(self, name)
        label = "s"
        if stacked:
            rho, label = np.stack([np.eye(2) / 2, rho]), "s[1]"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotDensityMatrix) as info:
                pt_core.require_density_matrix(rho, name="s")
        assert str(info.value) == f"{label} has negative eigenvalue -1.500e+308"
