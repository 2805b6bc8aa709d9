import math
import warnings

import numpy as np
import pytest

from ptdeco import dephasing, oracle
from ptdeco.dephasing import DephasingModel, SpectralDensity
from ptdeco.errors import DimensionCap, LengthMismatch, TruncationWarning

from .conftest import count_calls, count_svds
from .oracles import expm_series, kron_loops, ptrace_env_loops, sector_dynamics_dense

pytestmark = pytest.mark.filterwarnings("ignore::ptdeco.errors.TruncationWarning")

WEAK_SPECTRAL = SpectralDensity(j0=0.2, mu=-0.5, omega_c=1.0)


class TestDiscretizeBath:
    def test_single_bin_weight(self):
        spec = SpectralDensity(j0=1.0, mu=0.0, omega_c=10.0)
        bath = oracle.discretize_bath(spec, n_modes=1, omega_max=2.0)
        assert bath.omegas[0] == 1.0
        assert bath.gs[0] ** 2 == pytest.approx(spec(1.0) * 2.0, rel=1e-14)

    def test_ohmic_converges_to_integral(self):
        spec = SpectralDensity(j0=1.0, mu=0.0, omega_c=1.0)
        bath = oracle.discretize_bath(spec, n_modes=64, omega_max=10.0)
        model = DephasingModel(alpha=0.0, beta=1.0, spectral=spec)
        for t in (1.0, 3.0, 5.0):
            gamma_n = dephasing.gamma_discrete(bath.omegas, bath.gs, 1.0, t)
            exact = dephasing.gamma_integral(model, t).value
            assert abs(gamma_n - exact) / exact <= 0.01

    def test_midpoint_is_second_order(self):
        spec = SpectralDensity(j0=1.0, mu=0.0, omega_c=1.0)
        model = DephasingModel(alpha=0.0, beta=1.0, spectral=spec)
        t = 2.0
        exact = dephasing.gamma_integral(model, t).value
        errs = []
        for n in (64, 128, 256):
            bath = oracle.discretize_bath(spec, n_modes=n, omega_max=12.0)
            errs.append(abs(dephasing.gamma_discrete(bath.omegas, bath.gs, 1.0, t) - exact))
        # doubling the mode count should shrink the error by about 4
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)

    def test_distinct_positive_modes(self):
        bath = oracle.discretize_bath(WEAK_SPECTRAL, n_modes=5, omega_max=10.0)
        assert np.all(bath.omegas > 0)
        assert np.unique(bath.omegas).size == 5

    @pytest.mark.parametrize(
        "omegas", [[1.0, 2.0, 1.0], [np.inf, 1.0, np.inf], [0.0, 1.0], [-1.0], [np.nan]]
    )
    def test_rejects_repeated_or_non_positive_modes(self, omegas):
        with pytest.raises(ValueError):
            oracle.DiscreteBath(omegas=omegas, gs=[0.1] * len(omegas), fock_dim=3)


class TestThermalState:
    def test_ground_state_at_infinite_beta(self):
        bath = oracle.DiscreteBath(omegas=[1.0, 2.0], gs=[0.1, 0.1], fock_dim=3)
        omega = oracle.thermal_state(bath, math.inf)
        expected = np.zeros((9, 9))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(omega, expected)

    def test_two_level_geometric_weights(self):
        bath = oracle.DiscreteBath(omegas=[math.log(2.0)], gs=[0.0], fock_dim=2)
        omega = oracle.thermal_state(bath, 1.0)  # beta*omega = ln 2
        np.testing.assert_allclose(np.diag(omega).real, [2.0 / 3.0, 1.0 / 3.0])

    def test_unit_trace(self):
        bath = oracle.discretize_bath(WEAK_SPECTRAL, n_modes=3, omega_max=15.0)
        for beta in (0.3, 1.0, 10.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                omega = oracle.thermal_state(bath, beta)
            assert abs(np.trace(omega).real - 1.0) <= 1e-14

    def test_product_of_mode_populations(self):
        bath = oracle.DiscreteBath(omegas=[0.4, 1.3, 2.2], gs=[0.1] * 3, fock_dim=3)
        beta = 0.7
        diag = np.ones(1)
        for w in bath.omegas:
            p = np.exp(-beta * w * np.arange(3))
            diag = kron_loops(diag.reshape(1, -1), (p / p.sum()).reshape(1, -1)).ravel()
        with pytest.warns(TruncationWarning):
            omega = oracle.thermal_state(bath, beta)
        np.testing.assert_allclose(omega, np.diag(diag), rtol=1e-15, atol=0.0)

    def test_truncation_warning(self):
        bath = oracle.DiscreteBath(omegas=[0.5], gs=[0.1], fock_dim=3)
        with pytest.warns(TruncationWarning):
            oracle.thermal_state(bath, 0.2)

    def test_dimension_cap(self):
        bath = oracle.DiscreteBath(omegas=[1.0, 2.0, 3.0], gs=[0.0, 0.0, 0.0], fock_dim=13)
        with pytest.raises(DimensionCap):
            oracle.thermal_state(bath, 1.0)


class TestBruteForceDynamics:
    def test_zero_coupling_free_precession(self, rng):
        from .conftest import random_density_matrix

        bath = oracle.DiscreteBath(omegas=[1.0, 2.3], gs=[0.0, 0.0], fock_dim=3)
        alpha = 0.5
        e1, _ = dephasing.qubit_energies(alpha)
        rho0 = random_density_matrix(rng, 2)
        times = [0.0, 0.9, 2.7]
        states, _ = oracle.brute_force_dynamics(alpha, bath, 1.0, rho0, times)
        for t, rho_t in zip(times, states):
            w, v = np.linalg.eigh(e1 * dephasing.SIGMA_X)
            U = (v * np.exp(-1j * w * t)) @ v.conj().T
            np.testing.assert_allclose(rho_t, U @ rho0 @ U.conj().T, atol=1e-12)

    def test_critical_point_freezes(self):
        bath = oracle.discretize_bath(WEAK_SPECTRAL, n_modes=2, omega_max=10.0, fock_dim=4)
        rho0 = np.array([[0.5, 0.3 - 0.2j], [0.3 + 0.2j, 0.5]])
        states, _ = oracle.brute_force_dynamics(1.0, bath, 0.5, rho0, [0.0, 1.0, 4.0])
        for rho_t in states:
            np.testing.assert_allclose(rho_t, rho0, atol=1e-12)

    def test_populations_and_energy_conserved(self):
        bath = oracle.discretize_bath(WEAK_SPECTRAL, n_modes=2, omega_max=10.0, fock_dim=5)
        alpha = 0.6
        e1, _ = dephasing.qubit_energies(alpha)
        rho0 = oracle.DEFAULT_INITIAL_STATE
        times = np.linspace(0.0, 4.0, 9)
        states, _ = oracle.brute_force_dynamics(alpha, bath, 0.5, rho0, times)
        h_s = e1 * dephasing.SIGMA_X
        _, v = np.linalg.eigh(h_s)
        pops0 = np.diag(v.conj().T @ rho0 @ v).real
        energy0 = np.trace(h_s @ rho0).real
        for rho_t in states:
            pops = np.diag(v.conj().T @ rho_t @ v).real
            np.testing.assert_allclose(pops, pops0, atol=1e-8)
            assert abs(np.trace(h_s @ rho_t).real - energy0) <= 1e-8
            assert abs(np.trace(rho_t).real - 1.0) <= 1e-12

    def test_decay_pins_convention_constant(self):
        # the composite built from coupling E1 sx (x) sum g(a + a^dag)
        # decays with exponent 4 E1^2 gamma_N, i.e. fitted c near 4
        bath = oracle.discretize_bath(WEAK_SPECTRAL, n_modes=3, omega_max=15.0, fock_dim=5)
        times = np.linspace(0.25, 5.0, 20)
        xs, ys = [], []
        for alpha in (0.0, 0.6):
            e1, _ = dephasing.qubit_energies(alpha)
            states, _ = oracle.brute_force_dynamics(
                alpha, bath, 0.5, oracle.DEFAULT_INITIAL_STATE, times
            )
            c0 = abs(oracle.coherence_sx(oracle.DEFAULT_INITIAL_STATE))
            ys.extend(abs(oracle.coherence_sx(s)) / c0 for s in states)
            xs.extend(
                e1**2 * dephasing.gamma_discrete(bath.omegas, bath.gs, 0.5, t)
                for t in times
            )
        c, resid = oracle.fit_decay_constant(xs, ys)
        assert c == pytest.approx(4.0, abs=0.25)
        assert resid <= 1e-2

    def test_convention_constant_converges_to_four(self):
        # V_S = E1 sx has eigenvalues +-E1; their splitting 2|E1| enters the
        # exponent squared, so the untruncated decay is exp(-4 E1^2 gamma_N)
        # and only the Fock truncation keeps the fitted c away from 4
        times = np.linspace(0.0, 5.0, 21)
        errs = []
        for fock in range(4, 10):
            bath = oracle.discretize_bath(
                oracle.DEFAULT_SPECTRAL, n_modes=2, omega_max=15.0, fock_dim=fock
            )
            rep = oracle.run_comparison((0.0, 0.6), bath, 0.5, times)
            errs.append(abs(rep.fitted_c - 4.0))
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-4

    def test_cap_only_on_dense_references(self):
        # composite dim 2*13^3 = 4394 exceeds DIM_CAP; the per-mode sectors
        # never build it
        bath = oracle.DiscreteBath(omegas=[1.0, 2.0, 3.0], gs=[0.1] * 3, fock_dim=13)
        with pytest.raises(DimensionCap):
            oracle.bath_operators(bath)
        with pytest.raises(DimensionCap):
            oracle.thermal_state(bath, 1.0)
        states, _ = oracle.brute_force_dynamics(0.0, bath, 1.0, np.eye(2) / 2, [0.0, 1.0])
        assert states.shape == (2, 2, 2)

    def test_converges_to_four_past_the_cap(self):
        # composite dim 2*40^3 = 128000: the default bath, fully converged
        bath = oracle.discretize_bath(
            oracle.DEFAULT_SPECTRAL, n_modes=3, omega_max=15.0, fock_dim=40
        )
        times = np.linspace(0.0, 5.0, 21)
        rep = oracle.run_comparison((0.0, 0.6), bath, 0.5, times)
        assert abs(rep.fitted_c - 4.0) <= 1e-12
        assert rep.fit_residual <= 1e-12
        assert rep.passes(1e-12)

    def test_diagnostics_tail(self):
        bath = oracle.discretize_bath(WEAK_SPECTRAL, n_modes=2, omega_max=10.0, fock_dim=4)
        _, tail = oracle.brute_force_dynamics(
            0.0, bath, 0.5, oracle.DEFAULT_INITIAL_STATE, [0.0, 2.0]
        )
        assert 0.0 <= tail < 0.05


class TestBathOperators:
    @pytest.mark.parametrize(
        "omegas, gs, fock_dim",
        [([0.7, 1.9], [0.35, 0.5], 4), ([0.5, 1.5, 2.5], [0.3, 0.2, 0.45], 3)],
    )
    def test_matches_kron_loops(self, omegas, gs, fock_dim):
        bath = oracle.DiscreteBath(omegas=omegas, gs=gs, fock_dim=fock_dim)
        a = np.diag(np.sqrt(np.arange(1.0, fock_dim)), 1)
        eye = np.eye(fock_dim)
        modes = []
        for n in range(len(omegas)):
            m = np.ones((1, 1))
            for k in range(len(omegas)):
                m = kron_loops(m, a if k == n else eye)
            modes.append(m)
        H_ref = sum(w * m.conj().T @ m for w, m in zip(omegas, modes))
        V_ref = sum(g * (m + m.conj().T) for g, m in zip(gs, modes))
        H_B, V_B = oracle.bath_operators(bath)
        assert H_B.shape == V_B.shape == (bath.dim_b, bath.dim_b)
        np.testing.assert_allclose(H_B, H_ref, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(V_B, V_ref, rtol=0.0, atol=1e-14)
        assert np.count_nonzero(H_B - np.diag(np.diag(H_B))) == 0


def dense_reference(alpha, bath, beta, rho0, times):
    """Two-mode bath: loop-built composite, Taylor-series propagator, loop partial trace."""
    d = bath.fock_dim
    e1, _ = dephasing.qubit_energies(alpha)
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    eye = np.eye(d)
    modes = [kron_loops(a, eye), kron_loops(eye, a)]
    H_B = sum(w * m.conj().T @ m for w, m in zip(bath.omegas, modes))
    V_B = sum(g * (m + m.conj().T) for g, m in zip(bath.gs, modes))
    sx = e1 * np.array([[0.0, 1.0], [1.0, 0.0]])
    h = kron_loops(sx, np.eye(d * d)) + kron_loops(np.eye(2), H_B) + kron_loops(sx, V_B)
    weights = [np.exp(-beta * w * np.arange(d)) for w in bath.omegas]
    omega = kron_loops(*(np.diag(p / p.sum()) for p in weights))
    rho_full = kron_loops(rho0, omega)
    states = []
    for t in times:
        U = expm_series(-1j * t * h)
        rho_t = U @ rho_full @ U.conj().T
        states.append(ptrace_env_loops(rho_t, 2, d * d))
    tail = sum(
        rho_t[s * d * d + n1 * d + n2, s * d * d + n1 * d + n2].real
        for s in range(2)
        for n1 in range(d)
        for n2 in range(d)
        if d - 1 in (n1, n2)
    )
    return states, tail


class TestDenseReference:
    @pytest.mark.parametrize("alpha", [0.0, 0.6, -0.3, 1.0])
    def test_matches_loop_reference(self, alpha, rng):
        from .conftest import random_density_matrix

        bath = oracle.DiscreteBath(omegas=[0.7, 1.9], gs=[0.35, 0.5], fock_dim=3)
        times = [0.0, 0.8, 2.5]
        for rho0 in (oracle.DEFAULT_INITIAL_STATE, random_density_matrix(rng, 2)):
            states, tail = oracle.brute_force_dynamics(alpha, bath, 1.0, rho0, times)
            ref_states, ref_tail = dense_reference(alpha, bath, 1.0, rho0, times)
            for rho_t, ref in zip(states, ref_states):
                np.testing.assert_allclose(rho_t, ref, rtol=0.0, atol=1e-12)
            assert abs(tail - ref_tail) <= 1e-14


def rescaled(bath, alpha):
    """The bath with couplings g_n / |E1|, which takes alpha out of the interaction."""
    e1, _ = dephasing.qubit_energies(alpha)
    return oracle.DiscreteBath(
        omegas=bath.omegas, gs=bath.gs / abs(e1), fock_dim=bath.fock_dim
    )


class TestFactorizedSectors:
    """The per-mode factorized sectors against the full bath space: dense
    ``bath_operators`` and ``thermal_state`` and one bath-sized ``eigh``
    per sector."""

    @pytest.mark.parametrize("n_modes, fock_dim", [(1, 2), (3, 5), (4, 4), (3, 6)])
    @pytest.mark.parametrize("beta", [0.5, math.inf])
    @pytest.mark.parametrize("rescale", [False, True])
    def test_matches_dense_sectors(self, rng, n_modes, fock_dim, beta, rescale):
        from .conftest import random_density_matrix

        bath = oracle.discretize_bath(
            oracle.DEFAULT_SPECTRAL, n_modes=n_modes, omega_max=15.0, fock_dim=fock_dim
        )
        times = np.linspace(0.0, 5.0, 11)
        for alpha in (0.0, 0.6, -0.3, 1.0):
            e1, _ = dephasing.qubit_energies(alpha)
            if rescale and e1 == 0.0:
                continue
            scaled = rescaled(bath, alpha) if rescale else bath
            H_B, V_B = oracle.bath_operators(scaled)
            omega = np.diag(oracle.thermal_state(scaled, beta)).real
            for rho0 in (oracle.DEFAULT_INITIAL_STATE, random_density_matrix(rng, 2)):
                states, tail = oracle.brute_force_dynamics(alpha, scaled, beta, rho0, times)
                ref_states, ref_tail = sector_dynamics_dense(
                    H_B, V_B, omega, e1, rho0, times, fock_dim, n_modes
                )
                np.testing.assert_allclose(states, ref_states, rtol=0.0, atol=1e-13)
                assert abs(tail - ref_tail) <= 1e-14

    def test_two_mode_sized_eighs_and_no_bath_space(self, monkeypatch):
        bath = oracle.discretize_bath(WEAK_SPECTRAL, n_modes=3, omega_max=15.0, fock_dim=5)
        eighs = count_calls(monkeypatch, np.linalg, "eigh")
        dense = count_calls(monkeypatch, oracle, "bath_operators")
        thermal = count_calls(monkeypatch, oracle, "thermal_state")
        oracle.brute_force_dynamics(
            0.6, bath, 0.5, oracle.DEFAULT_INITIAL_STATE, np.linspace(0.0, 5.0, 21)
        )
        assert eighs == [(3, 5, 5), (3, 5, 5)]
        assert dense == [] and thermal == []

    def test_one_stacked_state_check(self, monkeypatch):
        calls = count_calls(monkeypatch, oracle, "require_density_matrix")
        bath = oracle.discretize_bath(WEAK_SPECTRAL, n_modes=2, omega_max=15.0, fock_dim=4)
        oracle.brute_force_dynamics(
            0.6, bath, 0.5, oracle.DEFAULT_INITIAL_STATE, np.linspace(0.0, 5.0, 21)
        )
        assert calls == [(2, 2), (21, 2, 2)]

    def test_comparison_takes_no_svd(self, monkeypatch):
        # the brute-force states are hermitian only to rounding (a defect of
        # ~1e-16 against the 1e-9 tolerance): their Frobenius bounds settle it
        bath = oracle.discretize_bath(WEAK_SPECTRAL, n_modes=2, omega_max=15.0, fock_dim=4)
        svds = count_svds(monkeypatch)
        oracle.run_comparison((0.6,), bath, 0.5, np.linspace(0.0, 5.0, 21))
        assert svds == []

    def test_thermal_warning_once_per_call(self):
        bath = oracle.DiscreteBath(omegas=[0.5, 0.9], gs=[0.1, 0.1], fock_dim=3)
        with pytest.warns(TruncationWarning) as record:
            oracle.brute_force_dynamics(
                0.6, bath, 0.2, oracle.DEFAULT_INITIAL_STATE, [0.0, 1.0]
            )
        thermal = [w for w in record if "thermal tail" in str(w.message)]
        assert len(thermal) == 1
        assert thermal[0].filename == oracle.__file__
        with pytest.warns(TruncationWarning) as record:
            oracle.thermal_state(bath, 0.2)
        assert len(record) == 1
        assert record[0].filename == __file__  # points at the caller

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan])
    def test_rejects_non_positive_beta(self, beta):
        bath = oracle.DiscreteBath(omegas=[1.0], gs=[0.1], fock_dim=3)
        with pytest.raises(ValueError, match="beta"):
            oracle.brute_force_dynamics(0.6, bath, beta, oracle.DEFAULT_INITIAL_STATE, [0.0])
        with pytest.raises(ValueError, match="beta"):
            oracle.thermal_state(bath, beta)

    def test_rejects_a_stack_as_initial_state(self):
        from ptdeco.errors import DimensionMismatch

        bath = oracle.DiscreteBath(omegas=[1.0], gs=[0.1], fock_dim=3)
        stack = np.repeat(oracle.DEFAULT_INITIAL_STATE[None], 2, axis=0)
        with pytest.raises(DimensionMismatch):
            oracle.brute_force_dynamics(0.6, bath, 1.0, stack, [0.0, 1.0])


class TestFitDecayConstant:
    def test_exact_exponential(self):
        x = np.linspace(0.0, 2.0, 30)
        y = np.exp(-3.7 * x)
        c, resid = oracle.fit_decay_constant(x, y)
        assert c == pytest.approx(3.7, rel=1e-12)
        assert resid <= 1e-12

    def test_no_signal(self):
        c, resid = oracle.fit_decay_constant(np.zeros(5), np.ones(5))
        assert math.isnan(c)
        assert resid == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            oracle.fit_decay_constant([1.0, 2.0], [1.0])


class TestCompare:
    def test_zero_coupling_bath(self, rng):
        bath = oracle.DiscreteBath(omegas=[1.0, 2.0], gs=[0.0, 0.0], fock_dim=3)
        times = np.linspace(0.0, 3.0, 7)
        rep = oracle.run_comparison((0.6,), bath, 1.0, times)
        assert rep.max_abs_dev <= 1e-12
        np.testing.assert_allclose(rep.analytic_decoherence, 1.0)
        np.testing.assert_allclose(rep.brute_decoherence, 1.0, atol=1e-12)

    def test_truncation_improves_with_fock_dim(self):
        times = np.linspace(0.0, 4.0, 9)
        devs = []
        for fock in (4, 6):
            bath = oracle.discretize_bath(
                WEAK_SPECTRAL, n_modes=3, omega_max=15.0, fock_dim=fock
            )
            rep = oracle.run_comparison((0.0,), bath, 0.5, times)
            devs.append(rep.fit_residual)
        assert devs[1] < devs[0]

    def test_report_flags_non_unity_constant(self):
        bath = oracle.discretize_bath(WEAK_SPECTRAL, n_modes=3, omega_max=15.0, fock_dim=5)
        rep = oracle.run_comparison((0.6,), bath, 0.5, np.linspace(0.0, 5.0, 11))
        assert 3.0 < rep.fitted_c < 5.0  # near 4, not the literal exponent's 1
        assert np.isfinite(rep.fock_tail)

    def test_mismatched_beta_shows_up(self):
        bath = oracle.discretize_bath(WEAK_SPECTRAL, n_modes=3, omega_max=15.0, fock_dim=5)
        times = np.linspace(0.0, 5.0, 11)
        rep_ok = oracle.run_comparison((0.0,), bath, 0.5, times)
        # analytic side deliberately evaluated at the wrong temperature
        e1 = -1.0
        gamma_wrong = np.array(
            [dephasing.gamma_discrete(bath.omegas, bath.gs, 5.0, t) for t in times]
        )
        dev_bad = np.abs(np.exp(-e1**2 * gamma_wrong) - rep_ok.brute_decoherence[0])
        assert dev_bad.max() > 10 * rep_ok.fit_residual

    def test_rows_are_the_per_alpha_runs(self):
        # each row is that alpha's own closed form and brute-force run on the
        # shared bath, from the default state
        bath = oracle.discretize_bath(WEAK_SPECTRAL, n_modes=2, omega_max=15.0, fock_dim=4)
        times = np.linspace(0.0, 3.0, 7)
        alphas = (0.0, 0.3, 0.6)
        rep = oracle.run_comparison(iter(alphas), bath, 0.5, times)
        rho0 = oracle.DEFAULT_INITIAL_STATE
        np.testing.assert_array_equal(rep.alphas, alphas)
        np.testing.assert_array_equal(rep.times, times)
        tails = []
        for i, alpha in enumerate(alphas):
            e1, _ = dephasing.qubit_energies(alpha)
            gamma = np.array(
                [dephasing.gamma_discrete(bath.omegas, bath.gs, 0.5, t) for t in times]
            )
            analytic = np.exp(-(e1**2) * gamma)
            states, tail = oracle.brute_force_dynamics(alpha, bath, 0.5, rho0, times)
            brute = np.abs(oracle.coherence_sx(states)) / abs(oracle.coherence_sx(rho0))
            dev_rho = [
                np.max(np.abs(dephasing.evolve_exact_given_d(rho0, e1, t, d) - rho))
                for t, d, rho in zip(times, analytic, states)
            ]
            np.testing.assert_allclose(rep.exponents[i], e1**2 * gamma, rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(rep.analytic_decoherence[i], analytic, rtol=1e-14)
            np.testing.assert_array_equal(rep.brute_decoherence[i], brute)
            np.testing.assert_allclose(rep.dev_rho[i], dev_rho, rtol=1e-12, atol=1e-15)
            tails.append(tail)
        np.testing.assert_array_equal(
            rep.dev_decoherence, np.abs(rep.analytic_decoherence - rep.brute_decoherence)
        )
        assert rep.max_abs_dev == rep.dev_decoherence.max()
        assert rep.fock_tail == max(tails)

    def test_fit_pools_every_alpha(self):
        bath = oracle.discretize_bath(WEAK_SPECTRAL, n_modes=2, omega_max=15.0, fock_dim=4)
        times = np.linspace(0.0, 4.0, 9)
        rep = oracle.run_comparison((0.0, 0.6), bath, 0.5, times)
        assert rep.exponents.shape == rep.brute_decoherence.shape == (2, 9)
        assert (rep.fitted_c, rep.fit_residual) == oracle.fit_decay_constant(
            np.concatenate(list(rep.exponents)), np.concatenate(list(rep.brute_decoherence))
        )
        # a single alpha's own fit differs from the pooled one
        single = oracle.run_comparison((0.6,), bath, 0.5, times)
        assert single.fitted_c != rep.fitted_c

    def test_verdict_is_the_pooled_residual_within_tolerance(self):
        bath = oracle.discretize_bath(WEAK_SPECTRAL, n_modes=2, omega_max=15.0, fock_dim=4)
        rep = oracle.run_comparison((0.0, 0.6), bath, 0.5, np.linspace(0.0, 4.0, 9))
        assert 0.0 < rep.fit_residual
        assert rep.passes(rep.fit_residual)
        assert not rep.passes(np.nextafter(rep.fit_residual, 0.0))

    def test_one_gamma_sum_per_run(self, monkeypatch):
        calls = count_calls(monkeypatch, dephasing, "gamma_discrete")
        bath = oracle.discretize_bath(WEAK_SPECTRAL, n_modes=2, omega_max=15.0, fock_dim=4)
        times = np.linspace(0.0, 3.0, 13)
        with pytest.warns(TruncationWarning):
            oracle.run_comparison((0.0, 0.3, 0.6), bath, 0.5, times)
        assert calls == [(2,)]

    def test_stacked_states_match_per_state_coherence(self):
        bath = oracle.discretize_bath(WEAK_SPECTRAL, n_modes=2, omega_max=15.0, fock_dim=4)
        times = np.linspace(0.0, 3.0, 7)
        with pytest.warns(TruncationWarning):
            states, _ = oracle.brute_force_dynamics(
                0.6, bath, 0.5, oracle.DEFAULT_INITIAL_STATE, times
            )
        assert states.shape == (7, 2, 2)
        stacked = oracle.coherence_sx(states)
        np.testing.assert_allclose(
            stacked, [oracle.coherence_sx(s) for s in states], rtol=0.0, atol=1e-16
        )


class TestCouplingRescaling:
    def test_alpha_independent_decay(self):
        bath = oracle.discretize_bath(WEAK_SPECTRAL, n_modes=3, omega_max=15.0, fock_dim=4)
        times = np.linspace(0.0, 4.0, 9)
        curves = []
        for alpha in (0.0, 0.6):
            states, _ = oracle.brute_force_dynamics(
                alpha, rescaled(bath, alpha), 0.5, oracle.DEFAULT_INITIAL_STATE, times
            )
            curves.append(np.array([abs(oracle.coherence_sx(s)) for s in states]))
        np.testing.assert_allclose(curves[0], curves[1], atol=1e-6)


class TestTruncationFloor:
    def test_three_fock_values_monotone(self):
        # deviations decrease monotonically across three truncations
        times = np.linspace(0.0, 4.0, 9)
        resids = []
        for fock in (3, 5, 7):
            bath = oracle.discretize_bath(
                WEAK_SPECTRAL, n_modes=2, omega_max=10.0, fock_dim=fock
            )
            rep = oracle.run_comparison((0.6,), bath, 0.5, times)
            resids.append(rep.fit_residual)
        assert resids[0] > resids[1] > resids[2]
