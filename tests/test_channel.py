import numpy as np
import pytest

from ptdeco import channel, linalg, pt_core
from ptdeco.errors import DimensionMismatch, NotDensityMatrix, NotHermitian

from .conftest import (
    count_calls,
    random_density_matrix,
    random_hermitian,
    random_pt_hamiltonian,
)
from .oracles import choi_loops, expm_series, kraus_loops, operator_sum_loops

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def small_model(rng, dim_s=2, dim_b=3, dephasing=True):
    h_S = random_hermitian(rng, dim_s)
    H_B = random_hermitian(rng, dim_b)
    V_B = random_hermitian(rng, dim_b)
    V_S = h_S if dephasing else random_hermitian(rng, dim_s)
    return channel.build_composite(h_S, H_B, V_S=V_S, V_B=V_B)


class TestBuildComposite:
    def test_dephasing_flag_when_vs_is_hs(self, rng):
        assert small_model(rng, dephasing=True).dephasing

    def test_not_dephasing_for_noncommuting(self, rng):
        m = channel.build_composite(SZ, random_hermitian(rng, 2), SX, random_hermitian(rng, 2))
        assert not m.dephasing

    def test_composite_dimension(self, rng):
        m = small_model(rng, dim_s=2, dim_b=3)
        assert m.h_total.shape == (6, 6)

    def test_rejects_non_hermitian_factor(self, rng):
        with pytest.raises(NotHermitian):
            channel.build_composite(np.array([[0.0, 1.0], [0.0, 0.0]]), SZ, SX, SX)

    def test_rejects_mismatched_dims(self, rng):
        with pytest.raises(DimensionMismatch):
            channel.build_composite(SZ, SZ, np.eye(3), SZ)

    @pytest.mark.parametrize("dim_s, dim_b", [(2, 8), (4, 32)])
    def test_norms_are_factor_sized(self, rng, monkeypatch, dim_s, dim_b):
        # no composite-sized norm of either kind: the spectral norms of the
        # exact fallback and the Frobenius norms of the bounds both stay on
        # the factors
        here = count_calls(monkeypatch, channel, "norm2")
        inside = count_calls(monkeypatch, linalg, "norm2")
        frobenius = count_calls(monkeypatch, np.linalg, "norm")
        for dephasing in (True, False):
            small_model(rng, dim_s, dim_b, dephasing)
        assert frobenius
        norms = here + inside + frobenius
        assert max(max(shape) for shape in norms) <= max(dim_s, dim_b)

    def test_dephasing_flag_matches_composite_space_test(self, rng):
        # kinds: commuting, non-commuting, and a commuting V_S pushed off by
        # a commutator at 0.1x and at 10x the tolerance of the composite test
        tol, norm = channel.DEFAULT_TOL, np.linalg.norm
        for i in range(60):
            dim_s, dim_b = rng.integers(2, 5), rng.integers(1, 7)
            h_S = random_hermitian(rng, dim_s, 10.0 ** rng.uniform(-3, 3))
            V_B = random_hermitian(rng, dim_b, 10.0 ** rng.uniform(-3, 3))
            c = rng.normal(size=3)  # a real polynomial in h_S commutes with it
            V_S = c[0] * np.eye(dim_s) + c[1] * h_S + c[2] * h_S @ h_S
            V_S = (V_S + V_S.conj().T) / 2.0
            X = random_hermitian(rng, dim_s)
            kind = i % 4
            if kind == 1:
                V_S = X * 10.0 ** rng.uniform(-3, 3)
            elif kind > 1:
                target = 0.1 if kind == 2 else 10.0
                scale = max(norm(h_S, 2) * max(norm(V_S, 2) * norm(V_B, 2), 1.0), 1.0)
                size = norm(h_S @ X - X @ h_S, 2) * norm(V_B, 2)
                V_S = V_S + target * tol * scale / size * X
            model = channel.build_composite(h_S, random_hermitian(rng, dim_b), V_S, V_B)
            assert model.dephasing == composite_space_dephasing(h_S, V_S, V_B)
            assert model.dephasing == (kind in (0, 2))


def composite_space_dephasing(h_S, V_S, V_B, tol=channel.DEFAULT_TOL):
    """||[h_S (x) I, V_S (x) V_B]|| <= tol * max(||h_S (x) I|| max(||h_I||, 1), 1),
    evaluated on the composite space."""
    hs_full = np.kron(h_S, np.eye(V_B.shape[0]))
    h_I = np.kron(V_S, V_B)
    comm = hs_full @ h_I - h_I @ hs_full
    norm = np.linalg.norm
    return norm(comm, 2) <= tol * max(norm(hs_full, 2) * max(norm(h_I, 2), 1.0), 1.0)


class TestPropagator:
    def test_identity_at_t0(self, rng):
        m = small_model(rng)
        np.testing.assert_allclose(channel.propagator(m, 0.0), np.eye(6), atol=1e-14)

    def test_group_property(self, rng):
        m = small_model(rng)
        U = channel.propagator(m, 1.3) @ channel.propagator(m, -1.3)
        assert np.linalg.norm(U - np.eye(6), 2) <= 1e-10

    def test_unitarity(self, rng):
        m = small_model(rng, dephasing=False)
        U = channel.propagator(m, 2.7)
        assert np.linalg.norm(U @ U.conj().T - np.eye(6), 2) <= 1e-10

    def test_diagonal_phase(self):
        # h = sigma_z (x) I at t = pi/2 gives diag(-i, -i, i, i)
        m = channel.build_composite(SZ, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
        U = channel.propagator(m, np.pi / 2)
        np.testing.assert_allclose(U, np.diag([-1j, -1j, 1j, 1j]), atol=1e-14)

    @pytest.mark.parametrize("dim_s, dim_b", [(2, 3), (3, 4)])
    @pytest.mark.parametrize("t", [0.3, 2.7, -1.3])
    def test_against_series_reference(self, rng, dim_s, dim_b, t):
        m = small_model(rng, dim_s, dim_b, dephasing=False)
        np.testing.assert_allclose(
            channel.propagator(m, t), expm_series(-1j * t * m.h_total), atol=1e-11
        )


class TestReducedState:
    def test_t0_returns_initial(self, rng):
        m = small_model(rng)
        rho0 = random_density_matrix(rng, 2)
        omega = random_density_matrix(rng, 3)
        np.testing.assert_allclose(
            channel.reduced_state(m, rho0, omega, 0.0), rho0, atol=1e-12
        )

    def test_decoupled_is_unitary_system_evolution(self, rng):
        h_S = random_hermitian(rng, 2)
        m = channel.build_composite(h_S, random_hermitian(rng, 3), h_S, np.zeros((3, 3)))
        rho0 = random_density_matrix(rng, 2)
        omega = random_density_matrix(rng, 3)
        t = 1.9
        out = channel.reduced_state(m, rho0, omega, t)
        U_S = channel.propagator(
            channel.build_composite(h_S, np.zeros((1, 1)), h_S, np.zeros((1, 1))), t
        )
        np.testing.assert_allclose(out, U_S @ rho0 @ U_S.conj().T, atol=1e-10)

    def test_populations_conserved_under_dephasing(self, rng):
        m = small_model(rng, dephasing=True)
        assert m.dephasing
        rho0 = random_density_matrix(rng, 2)
        omega = random_density_matrix(rng, 3)
        _, vecs = np.linalg.eigh(m.h_S)
        pops0 = np.diag(vecs.conj().T @ rho0 @ vecs).real
        for t in (0.7, 2.3, 6.1):
            rho_t = channel.reduced_state(m, rho0, omega, t)
            pops = np.diag(vecs.conj().T @ rho_t @ vecs).real
            np.testing.assert_allclose(pops, pops0, atol=1e-10)

    def test_output_is_density_matrix(self, rng):
        m = small_model(rng, dim_b=4, dephasing=False)
        rho_t = channel.reduced_state(
            m, random_density_matrix(rng, 2), random_density_matrix(rng, 4), 3.3
        )
        assert np.trace(rho_t).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(rho_t - rho_t.conj().T, 2) <= 1e-10
        assert np.min(np.linalg.eigvalsh(rho_t)) >= -1e-10

    def test_rejects_bad_state(self, rng):
        m = small_model(rng)
        with pytest.raises(NotDensityMatrix):
            channel.reduced_state(m, np.diag([0.7, 0.7]), np.eye(3) / 3, 1.0)


class TestKrausExtract:
    def test_pure_env_no_coupling_single_unitary(self, rng):
        h_S = random_hermitian(rng, 2)
        H_B = np.diag([0.0, 1.0, 2.5]).astype(complex)
        m = channel.build_composite(h_S, H_B, h_S, np.zeros((3, 3)))
        omega = np.zeros((3, 3), dtype=complex)
        omega[0, 0] = 1.0
        ch = channel.kraus_extract(m, omega, 1.4)
        assert len(ch.ops) == 1
        K = ch.ops[0]
        np.testing.assert_allclose(K @ K.conj().T, np.eye(2), atol=1e-12)

    def test_maximally_mixed_bath(self, rng):
        m = small_model(rng, dim_b=2, dephasing=False)
        ch = channel.kraus_extract(m, np.eye(2) / 2.0, 0.9)
        assert len(ch.ops) <= 4
        assert ch.completeness_defect <= 1e-10
        np.testing.assert_allclose(ch.normalization(), np.eye(2), atol=1e-10)

    def test_reproduces_reduced_state(self, rng):
        for dim_s, dim_b in [(2, 3), (3, 4), (2, 6)]:
            m = small_model(rng, dim_s=dim_s, dim_b=dim_b, dephasing=False)
            omega = random_density_matrix(rng, dim_b)
            rho0 = random_density_matrix(rng, dim_s)
            t = 1.1
            ch = channel.kraus_extract(m, omega, t)
            np.testing.assert_allclose(
                channel.apply_channel(ch, rho0),
                channel.reduced_state(m, rho0, omega, t),
                atol=1e-9,
            )

    def test_dephasing_kraus_commute_and_normal(self, rng):
        m = small_model(rng, dim_b=3, dephasing=True)
        ch = channel.kraus_extract(m, random_density_matrix(rng, 3), 2.1)
        for Ki in ch.ops:
            for Kj in ch.ops:
                comm = Ki @ Kj.conj().T - Kj.conj().T @ Ki
                assert np.linalg.norm(comm, 2) <= 1e-9

    def test_weight_cut_reported(self, rng):
        m = small_model(rng, dim_b=3, dephasing=False)
        omega = np.diag([1.0 - 1e-13, 1e-13, 0.0]).astype(complex)
        ch = channel.kraus_extract(m, omega, 1.0)
        # the 1e-13 branch is truncated; defect reflects it
        assert 1e-14 <= ch.completeness_defect <= 1e-11

    def test_ordering_deterministic(self, rng):
        m = small_model(rng, dim_b=3, dephasing=False)
        omega = random_density_matrix(rng, 3)
        a = channel.kraus_extract(m, omega, 1.0)
        b = channel.kraus_extract(m, omega, 1.0)
        for Ka, Kb in zip(a.ops, b.ops):
            np.testing.assert_array_equal(Ka, Kb)


class TestPtKraus:
    def test_identity_map(self, rng):
        m = small_model(rng, dephasing=False)
        ch = channel.kraus_extract(m, random_density_matrix(rng, 3), 1.0)
        cmap = pt_core.CanonicalMap(T=np.eye(2), T_inv=np.eye(2), condition=1.0)
        pt = channel.pt_kraus(ch, cmap)
        for K, (L, R) in zip(ch.ops, pt.ops):
            np.testing.assert_allclose(L, K, atol=1e-14)
            np.testing.assert_allclose(R, K.conj().T, atol=1e-14)

    def test_unital(self, rng):
        ham = random_pt_hamiltonian(rng, 2)
        cmap = pt_core.canonical_transform(ham)
        h_S = pt_core.hermitian_representation(ham, cmap)
        m = channel.build_composite(h_S, random_hermitian(rng, 3), h_S, random_hermitian(rng, 3))
        ch = channel.kraus_extract(m, random_density_matrix(rng, 3), 1.7)
        pt = channel.pt_kraus(ch, cmap)
        assert pt.completeness_defect <= 1e-10
        np.testing.assert_allclose(
            channel.apply_channel(pt, np.eye(2)), np.eye(2), atol=1e-10
        )

    def test_single_unitary_pair(self):
        # unitary-but-decoupled channel: L = U', R = U'^-1, and R != L^dag
        ham = pt_core.PtHamiltonian(
            H=np.array([[0.6j, 1.0], [1.0, -0.6j]]), P=SX
        )
        cmap = pt_core.canonical_transform(ham)
        h_S = pt_core.hermitian_representation(ham, cmap)
        H_B = np.diag([0.0, 1.0]).astype(complex)
        m = channel.build_composite(h_S, H_B, h_S, np.zeros((2, 2)))
        omega = np.diag([1.0, 0.0]).astype(complex)
        ch = channel.kraus_extract(m, omega, 1.3)
        assert len(ch.ops) == 1
        pt = channel.pt_kraus(ch, cmap)
        L, R = pt.ops[0]
        np.testing.assert_allclose(L @ R, np.eye(2), atol=1e-11)
        assert np.linalg.norm(R - L.conj().T, 2) > 1e-3

    def test_equivariance(self, rng):
        ham = random_pt_hamiltonian(rng, 2)
        cmap = pt_core.canonical_transform(ham)
        h_S = pt_core.hermitian_representation(ham, cmap)
        m = channel.build_composite(h_S, random_hermitian(rng, 4), h_S, random_hermitian(rng, 4))
        omega = random_density_matrix(rng, 4)
        varrho = random_density_matrix(rng, 2)
        t = 2.2
        ch = channel.kraus_extract(m, omega, t)
        pt = channel.pt_kraus(ch, cmap)
        rho_pt = pt_core.map_state_back(varrho, cmap)
        lhs = channel.apply_channel(pt, rho_pt)
        rhs = cmap.T_inv @ channel.apply_channel(ch, varrho) @ cmap.T
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestKrausOps:
    """``KrausChannel.ops`` is one read-only complex array, ``(k, d, d)`` or
    ``(k, 2, d, d)``, whatever sequence form the operators come in."""

    @pytest.mark.parametrize("kind", ["hermitian", "pt"])
    def test_input_forms_give_one_array(self, rng, kind):
        shape = (3, 2, 2) if kind == "hermitian" else (3, 2, 2, 2)
        ops = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        forms = [ops, tuple(ops), list(ops)]
        if kind == "pt":
            forms += [tuple(zip(ops[:, 0], ops[:, 1])), [list(pair) for pair in ops]]
        for form in forms:
            ch = channel.KrausChannel(kind=kind, ops=form, dim_S=2)
            assert ch.ops.dtype == complex and ch.ops.shape == shape
            assert not ch.ops.flags.writeable
            np.testing.assert_array_equal(ch.ops, ops)
        ops[0] = 0.0  # the channel holds its own copy
        assert ch.ops[0].any()
        with pytest.raises(ValueError):
            ch.ops[0, 0, 0] = 1.0

    @pytest.mark.parametrize("kind", ["hermitian", "pt"])
    def test_empty_forms(self, kind):
        shape = (0, 2, 2) if kind == "hermitian" else (0, 2, 2, 2)
        for form in ((), [], np.zeros(shape)):  # the last one real
            ch = channel.KrausChannel(kind=kind, ops=form, dim_S=2)
            assert ch.ops.shape == shape and ch.ops.dtype == complex

    @pytest.mark.parametrize(
        "kind, ops",
        [
            ("hermitian", (np.eye(4),)),  # a 4x4 operator on a qubit
            ("hermitian", np.eye(2)),  # one bare matrix, not a family
            ("hermitian", ((np.eye(2), np.eye(2)),)),  # (L, R) pairs
            ("pt", (np.eye(2),)),  # bare matrices for the PT kind
            ("pt", ((np.eye(3), np.eye(3)),)),
            ("pt", ((np.eye(2),) * 3,)),  # triples, not pairs
        ],
    )
    def test_malformed_operators_raise_at_construction(self, kind, ops):
        with pytest.raises(DimensionMismatch):
            channel.KrausChannel(kind=kind, ops=ops, dim_S=2)


class TestApplyChannel:
    def test_identity_channel(self, rng):
        ch = channel.KrausChannel(kind="hermitian", ops=(np.eye(2),), dim_S=2)
        rho = random_density_matrix(rng, 2)
        np.testing.assert_allclose(channel.apply_channel(ch, rho), rho)

    def test_unital_fixed_point(self, rng):
        m = small_model(rng, dim_b=3, dephasing=True)
        ch = channel.kraus_extract(m, random_density_matrix(rng, 3), 1.5)
        np.testing.assert_allclose(
            channel.apply_channel(ch, np.eye(2) / 2), np.eye(2) / 2, atol=1e-10
        )

    def test_trace_preservation(self, rng):
        for _ in range(5):
            m = small_model(rng, dim_b=4, dephasing=False)
            ch = channel.kraus_extract(m, random_density_matrix(rng, 4), 0.8)
            rho = random_density_matrix(rng, 2)
            out = channel.apply_channel(ch, rho)
            assert abs(np.trace(out) - np.trace(rho)) <= 1e-12

    def test_energy_conserved_under_dephasing(self, rng):
        m = small_model(rng, dim_b=3, dephasing=True)
        rho0 = random_density_matrix(rng, 2)
        omega = random_density_matrix(rng, 3)
        e0 = np.trace(m.h_S @ rho0).real
        for t in (0.5, 1.5, 4.0):
            rho_t = channel.reduced_state(m, rho0, omega, t)
            assert abs(np.trace(m.h_S @ rho_t).real - e0) <= 1e-9


class TestChoi:
    def test_extracted_channels_completely_positive(self, rng):
        for _ in range(5):
            m = small_model(rng, dim_b=3, dephasing=False)
            ch = channel.kraus_extract(m, random_density_matrix(rng, 3), 1.2)
            assert channel.is_completely_positive(ch)
            evals = np.linalg.eigvalsh(channel.choi_matrix(ch))
            assert float(evals.min()) >= -1e-9

    def test_choi_trace_is_dimension(self, rng):
        m = small_model(rng, dim_b=3, dephasing=False)
        ch = channel.kraus_extract(m, random_density_matrix(rng, 3), 1.2)
        assert np.trace(channel.choi_matrix(ch)).real == pytest.approx(2.0, abs=1e-10)


def batched_case(rng, dim_s, dim_b, diagonal_bath):
    """PT system, bath and t for the batched-layer checks.

    With ``diagonal_bath`` the bath operators and the bath state are diagonal
    in one basis and the state has zero weights, so both weight cuts drop
    operators (every off-diagonal <b|U|a> vanishes).
    """
    ham = random_pt_hamiltonian(rng, dim_s)
    cmap = pt_core.canonical_transform(ham)
    h_S = pt_core.hermitian_representation(ham, cmap)
    V_S = random_hermitian(rng, dim_s)
    if diagonal_bath:
        H_B = np.diag(rng.normal(size=dim_b))
        V_B = np.diag(rng.normal(size=dim_b))
        p = rng.uniform(0.1, 1.0, size=dim_b)
        p[::3] = 0.0
        omega = np.diag(p / p.sum()).astype(complex)
    else:
        H_B = random_hermitian(rng, dim_b)
        V_B = random_hermitian(rng, dim_b, 0.3)
        omega = random_density_matrix(rng, dim_b)
    model = channel.build_composite(h_S, H_B, V_S, V_B)
    return model, omega, cmap, 1.3


BATCHED_CASES = [
    (dim_s, dim_b, diagonal)
    for dim_s, dim_b in ((2, 8), (4, 16))
    for diagonal in (False, True)
]


class TestBatchedAgainstLoops:
    @pytest.mark.parametrize("dim_s, dim_b, diagonal_bath", BATCHED_CASES)
    def test_kraus_layer(self, rng, dim_s, dim_b, diagonal_bath):
        model, omega, cmap, t = batched_case(rng, dim_s, dim_b, diagonal_bath)
        U = channel.propagator(model, t)
        ref = kraus_loops(U, omega, dim_s, dim_b, channel.DEFAULT_WEIGHT_CUT)
        ch = channel.kraus_extract(model, omega, t)
        if diagonal_bath:
            # one operator (b = a) per source of nonzero weight
            assert len(ref) == np.count_nonzero(np.diag(omega))
        assert len(ch.ops) == len(ref)
        for K, K_ref in zip(ch.ops, ref):
            assert K.shape == (dim_s, dim_s)
            np.testing.assert_allclose(K, K_ref, rtol=0.0, atol=1e-13)

        pt = channel.pt_kraus(ch, cmap)
        L_ref = [cmap.T_inv @ K @ cmap.T for K in ref]
        R_ref = [cmap.T_inv @ K.conj().T @ cmap.T for K in ref]
        assert len(pt.ops) == len(ref)
        for (L, R), Lr, Rr in zip(pt.ops, L_ref, R_ref):
            np.testing.assert_allclose(L, Lr, rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(R, Rr, rtol=0.0, atol=1e-13)

        eye = np.eye(dim_s)
        np.testing.assert_allclose(
            ch.normalization(),
            operator_sum_loops([K.conj().T for K in ref], ref, eye),
            rtol=0.0,
            atol=1e-13,
        )
        np.testing.assert_allclose(
            pt.normalization(), operator_sum_loops(L_ref, R_ref, eye), rtol=0.0, atol=1e-13
        )

        rho = random_density_matrix(rng, dim_s)
        np.testing.assert_allclose(
            channel.apply_channel(ch, rho),
            operator_sum_loops(ref, [K.conj().T for K in ref], rho),
            rtol=0.0,
            atol=1e-13,
        )
        rho_pt = pt_core.map_state_back(rho, cmap)
        np.testing.assert_allclose(
            channel.apply_channel(pt, rho_pt),
            operator_sum_loops(L_ref, R_ref, rho_pt),
            rtol=0.0,
            atol=1e-13,
        )
        np.testing.assert_allclose(
            channel.choi_matrix(ch), choi_loops(ref, dim_s), rtol=0.0, atol=1e-13
        )

    @pytest.mark.parametrize("kind", ["hermitian", "pt"])
    def test_empty_family(self, rng, kind):
        ch = channel.KrausChannel(kind=kind, ops=(), dim_S=3)
        out = channel.apply_channel(ch, random_density_matrix(rng, 3))
        np.testing.assert_array_equal(out, np.zeros((3, 3)))
        np.testing.assert_array_equal(ch.normalization(), np.zeros((3, 3)))
        if kind == "hermitian":
            np.testing.assert_array_equal(channel.choi_matrix(ch), np.zeros((9, 9)))
            cmap = pt_core.CanonicalMap(T=np.eye(3), T_inv=np.eye(3), condition=1.0)
            pt = channel.pt_kraus(ch, cmap)
            assert len(pt.ops) == 0
            assert pt.completeness_defect == pytest.approx(1.0)
