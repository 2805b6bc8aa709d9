import math
import warnings

import numpy as np
import pytest

from ptdeco import dephasing, pt_core
from ptdeco.dephasing import DephasingModel, SpectralDensity
from ptdeco.errors import (
    BrokenPhase,
    DimensionMismatch,
    ExceptionalPoint,
    InvalidExponent,
    QuadratureFailure,
)

from .conftest import count_calls, random_density_matrix
from .oracles import gamma_discrete_loops, gamma_hurwitz_mpmath, gamma_trapezoid

# no step of gamma(t), D(t) or the closed-form states may overflow, divide by
# zero or produce a NaN anywhere in these tests
pytestmark = pytest.mark.usefixtures("raise_float_errors")

FIG1_SPECTRAL = SpectralDensity(j0=1.0, mu=-0.5, omega_c=1.0)
FIG1_BETA = 0.5

# frozen from the trapezoid reference (n = 2e6, Richardson-extrapolated);
# the live 1e6-point oracle run below re-derives it to 1e-8
GAMMA_OHMIC_T10 = 24.967904118074

# (mu, beta, t) with j0 = omega_c = 1, checked against mpmath: a point where
# adaptive quadrature was off by 7.9e-8 while reporting 3.5e-11, inputs on
# which it raised QuadratureFailure, the Gamma and zeta poles, small t
MPMATH_POINTS = [
    (1.7202828585269598, 229.90191050063228, 176814.58951398393),
    (6.0, 0.5, 0.01),
    (6.0, 0.5, 1.0),
    (6.0, 0.5, 100.0),
    (6.0, 5.0, 3.0),
    (0.0, 1.0, 1e6),
    (3.0, 1e-3, 1e-6),
    (-0.9, 1e3, 1e6),
    (0.0, 0.5, 2.0),
    (1.0, 0.5, 2.0),
    (1.0, 1e3, 1e-6),
    (7.47, 1.24e-3, 5.3e-6),
]
GRID_MUS = [-0.9, -0.5, 0.0, 0.5, 1.0, 2.5, 6.0, 8.0]
GRID_BETAS = [1e-3, 0.05, 0.5, 5.0, 1e3]
GRID_TIMES = [0.0] + list(np.logspace(-6.0, 6.0, 13))
# the domain's edges: e*lambda and h underflow to the _div continuations at
# the extreme times, and Gamma(mu + 18) overflows past mu = 153.6
EDGE_TIMES = [5e-324, 1e-300, 1e300]
EDGE_BETAS = [1e-300, 1e200, 1e300]
EDGE_MUS = [-0.99999, 153.0, 160.0]


def fig1_model(alpha: float) -> DephasingModel:
    return DephasingModel(alpha=alpha, beta=FIG1_BETA, spectral=FIG1_SPECTRAL)


class TestSpectralDensity:
    def test_values(self):
        spec = SpectralDensity(j0=2.0, mu=0.5, omega_c=3.0)
        w = 1.7
        assert spec(w) == pytest.approx(2.0 * w**1.5 * math.exp(-w / 3.0))

    def test_invalid_exponent(self):
        with pytest.raises(InvalidExponent):
            SpectralDensity(j0=1.0, mu=-1.0, omega_c=1.0)

    @pytest.mark.parametrize("field", ["j0", "mu"])
    def test_infinite_strength_or_exponent(self, field):
        # j0 = inf or mu = inf would reach gamma through floating-point
        # warnings and fail there with an error bound of inf or nan; each
        # stops here, with no warning
        params = {"j0": 1.0, "mu": 0.0, "omega_c": 1.0, field: math.inf}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                SpectralDensity(**params)

    @pytest.mark.parametrize("omega_c", [math.inf, 0.0, -1.0])
    def test_invalid_cutoff(self, omega_c):
        # omega_c = inf would reach gamma as 1/inf = 0 and fail there with
        # an error bound of nan; it stops here, with no floating-point warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="omega_c must be finite and > 0"):
                SpectralDensity(j0=1.0, mu=0.0, omega_c=omega_c)

    def test_nan_parameters_rejected(self):
        with pytest.raises(ValueError, match="j0"):
            SpectralDensity(j0=math.nan, mu=0.0, omega_c=1.0)
        with pytest.raises(InvalidExponent):
            SpectralDensity(j0=1.0, mu=math.nan, omega_c=1.0)
        with pytest.raises(ValueError, match="omega_c"):
            SpectralDensity(j0=1.0, mu=0.0, omega_c=math.nan)
        with pytest.raises(ValueError, match="beta"):
            DephasingModel(0.5, math.nan, FIG1_SPECTRAL)

    @pytest.mark.parametrize("beta", [math.inf, 0.0, -math.inf])
    def test_beta_out_of_range_rejected(self, beta):
        # beta = inf would reach gamma as inf * 0 and inf / inf; it stops
        # here, with no floating-point warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="beta must be finite and > 0"):
                DephasingModel(0.5, beta, FIG1_SPECTRAL)


class TestQubit:
    def test_alpha_zero_is_sigma_x(self):
        ham = dephasing.qubit_hamiltonian(0.0)
        np.testing.assert_array_equal(ham.H, dephasing.SIGMA_X)

    def test_alpha_05_matrix(self):
        ham = dephasing.qubit_hamiltonian(0.5)
        np.testing.assert_array_equal(
            ham.H, np.array([[0.5j, 1.0], [1.0, -0.5j]])
        )

    def test_traceless_and_pt_symmetric(self, rng):
        for alpha in rng.uniform(-2.0, 2.0, size=10):
            ham = dephasing.qubit_hamiltonian(alpha)
            assert np.trace(ham.H) == 0.0
            assert pt_core.check_pt_symmetry(ham)

    def test_energies(self):
        assert dephasing.qubit_energies(0.0) == (-1.0, 1.0)
        assert dephasing.qubit_energies(1.0) == (0.0, 0.0)
        e1, e2 = dephasing.qubit_energies(0.5)
        assert e1 == pytest.approx(-0.8660254037844386, abs=1e-16)
        assert e2 == -e1

    def test_energies_broken_phase(self):
        with pytest.raises(BrokenPhase):
            dephasing.qubit_energies(1.2)

    def test_energies_nan_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            dephasing.qubit_energies(math.nan)


class TestQubitTransform:
    def test_alpha_zero_scalar(self):
        cmap = dephasing.qubit_transform(0.0)
        np.testing.assert_allclose(cmap.T, math.sqrt(2.0) * np.eye(2), atol=1e-15)

    def test_alpha_06_closed_form(self):
        cmap = dephasing.qubit_transform(0.6)
        expected = np.array(
            [[1.3416407864998738, -0.4472135954999579j],
             [0.4472135954999579j, 1.3416407864998738]]
        )
        np.testing.assert_allclose(cmap.T, expected, atol=1e-12)
        np.testing.assert_allclose(cmap.T @ cmap.T_inv, np.eye(2), atol=1e-13)

    def test_hermitizes_the_qubit(self):
        for alpha in (0.3, 0.6, 0.9):
            ham = dephasing.qubit_hamiltonian(alpha)
            cmap = dephasing.qubit_transform(alpha)
            h = cmap.T @ ham.H @ cmap.T_inv
            e1, _ = dephasing.qubit_energies(alpha)
            # |E1| sigma_x: equal to E1 sigma_x up to the sigma_z basis gauge
            np.testing.assert_allclose(h, abs(e1) * dephasing.SIGMA_X, atol=1e-10)

    def test_agrees_with_canonical_transform_up_to_scalar(self):
        for alpha in (0.2, 0.75):
            closed = dephasing.qubit_transform(alpha).T
            numeric = pt_core.canonical_transform(dephasing.qubit_hamiltonian(alpha)).T
            ratio = np.trace(closed).real / np.trace(numeric).real
            assert ratio > 0
            np.testing.assert_allclose(numeric * ratio, closed, atol=1e-10)

    def test_exceptional_point(self):
        with pytest.raises(ExceptionalPoint):
            dephasing.qubit_transform(1.0)

    def test_condition_diverges(self):
        assert dephasing.qubit_transform(0.999999).condition > 1e3

    def test_nan_alpha(self):
        with pytest.raises(ValueError, match="alpha is NaN"):
            dephasing.qubit_transform(math.nan)


class TestGammaIntegral:
    def test_zero_time(self):
        res = dephasing.gamma_integral(fig1_model(0.0), 0.0)
        assert res.value == 0.0
        assert res.evaluations == 0

    def test_ohmic_against_trapezoid_reference(self):
        model = DephasingModel(
            alpha=0.0, beta=1.0, spectral=SpectralDensity(1.0, 0.0, 1.0)
        )
        res = dephasing.gamma_integral(model, 10.0, tol=1e-10)
        reference = gamma_trapezoid(10.0, j0=1.0, mu=0.0, omega_c=1.0, beta=1.0)
        assert res.value == pytest.approx(reference, abs=1e-8)
        assert res.value == pytest.approx(GAMMA_OHMIC_T10, abs=1e-9)
        assert res.abs_error_estimate <= 1e-9
        assert res.evaluations > 0

    def test_fig1_parameters_against_reference(self):
        for t in (2.0, 5.0, 20.0):
            res = dephasing.gamma_integral(fig1_model(0.0), t)
            reference = gamma_trapezoid(
                t, j0=1.0, mu=-0.5, omega_c=1.0, beta=0.5, n=2_000_000
            )
            assert res.value == pytest.approx(reference, rel=1e-8)

    def test_nonnegative_and_cached(self):
        model = fig1_model(0.0)
        r1 = dephasing.gamma_integral(model, 3.0)
        assert r1.value >= 0.0

    def test_unreachable_tolerance_fails(self):
        with pytest.raises(QuadratureFailure):
            dephasing.gamma_integral(fig1_model(0.0), 20.0, tol=1e-16)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            dephasing.gamma_integral(fig1_model(0.0), -1.0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_tolerance_must_be_positive(self, tol):
        # a zero error bound cannot meet tol <= 0: the tolerance is at fault,
        # not gamma, at every t and alpha, also where D = 1 needs no gamma
        rho0 = np.eye(2) / 2.0
        for alpha, t in ((0.0, 0.0), (0.0, 10.0), (1.0, 10.0)):
            model = fig1_model(alpha)
            for call in (
                lambda: dephasing.gamma_integral(model, t, tol=tol),
                lambda: dephasing.decoherence_function(model, t, tol=tol),
                lambda: dephasing.evolve_exact(model, rho0, t, tol=tol),
            ):
                with pytest.raises(ValueError, match="tol must be > 0"):
                    call()

    def test_gamma_function_overflow_is_quadrature_failure(self):
        # Gamma(mu + 18) overflows past mu = 153.6, inside the domain mu > -1
        model = DephasingModel(0.6, 0.5, SpectralDensity(1.0, 160.0, 1.0))
        with pytest.raises(QuadratureFailure, match=r"Gamma\(mu \+ 18\) overflows") as point:
            dephasing.gamma_integral(model, 2.0)
        with pytest.raises(QuadratureFailure) as grid:
            dephasing.sweep_alpha([0.0, 0.6], [0.0, 2.0], model.spectral, model.beta)
        assert str(grid.value) == str(point.value)

    @pytest.mark.parametrize("mu, beta, t", MPMATH_POINTS)
    def test_against_mpmath(self, mu, beta, t):
        pytest.importorskip("mpmath")
        model = DephasingModel(0.0, beta, SpectralDensity(1.0, mu, 1.0))
        res = dephasing.gamma_integral(model, t)
        err = abs(res.value - gamma_hurwitz_mpmath(t, 1.0, mu, 1.0, beta))
        assert err <= 1e-11 * max(1.0, res.value)
        assert err <= res.abs_error_estimate
        assert res.evaluations > 0

    @pytest.mark.parametrize("beta", GRID_BETAS)
    @pytest.mark.parametrize("mu", GRID_MUS)
    def test_domain_grid_against_mpmath(self, mu, beta):
        pytest.importorskip("mpmath")
        model = DephasingModel(0.0, beta, SpectralDensity(1.0, mu, 1.0))
        for t in GRID_TIMES:
            res = dephasing.gamma_integral(model, t)
            err = abs(res.value - gamma_hurwitz_mpmath(t, 1.0, mu, 1.0, beta))
            assert err <= 1e-11 * max(1.0, res.value), t
            assert err <= res.abs_error_estimate, t


class TestGammaDiscrete:
    def test_single_mode_surrogate(self):
        # one mode at omega = 1 with g = 0.2 and coth -> 1
        for t in (0.0, 0.7, 3.1):
            val = dephasing.gamma_discrete([1.0], [0.2], None, t)
            assert val == pytest.approx(0.04 * (1.0 - math.cos(t)), abs=1e-15)

    def test_infinite_beta_matches_none(self):
        assert dephasing.gamma_discrete([1.0, 2.0], [0.3, 0.1], math.inf, 1.3) == (
            dephasing.gamma_discrete([1.0, 2.0], [0.3, 0.1], None, 1.3)
        )

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, -math.inf])
    def test_rejects_non_positive_beta(self, beta):
        with pytest.raises(ValueError, match="beta"):
            dephasing.gamma_discrete([1.0, 2.0], [0.3, 0.1], beta, np.linspace(0.0, 1.0, 3))

    @pytest.mark.parametrize("beta", [None, math.inf, 1e-6, 2e-5, 0.5, 40.0])
    def test_time_array_matches_scalar_calls_and_tanh_reference(self, beta):
        # beta = 1e-6 and 2e-5 put beta*w/2 below 1e-4 for every mode
        omegas = np.array([0.3, 1.1, 2.0, 4.7, 9.5])
        gs = np.array([0.5, 0.2, 0.3, 0.05, 0.1])
        times = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 41)])
        values = dephasing.gamma_discrete(omegas, gs, beta, times)
        assert values.shape == times.shape
        scalar = [dephasing.gamma_discrete(omegas, gs, beta, t) for t in times]
        np.testing.assert_array_equal(values, scalar)
        reference = [gamma_discrete_loops(omegas, gs, beta, t) for t in times]
        np.testing.assert_allclose(values, reference, rtol=1e-15, atol=0.0)

    def test_coupling_rescaling_removes_alpha_dependence(self):
        omegas = np.array([0.5, 1.5, 2.5])
        gs = np.array([0.4, 0.2, 0.1])
        t, beta = 2.2, 0.5
        ds = []
        for alpha in (0.0, 0.6, 0.9):
            e1, _ = dephasing.qubit_energies(alpha)
            g_resc = gs / abs(e1)
            ds.append(
                math.exp(-e1 * e1 * dephasing.gamma_discrete(omegas, g_resc, beta, t))
            )
        assert max(ds) - min(ds) <= 1e-12


class TestDecoherenceFunction:
    def test_critical_point_is_one(self):
        for t in (0.0, 1.0, 17.3):
            assert dephasing.decoherence_function(fig1_model(1.0), t) == 1.0

    def test_t0_is_one(self):
        assert dephasing.decoherence_function(fig1_model(0.4), 0.0) == 1.0

    def test_fig1_ordering_at_fixed_time(self):
        t = 3.0
        d0 = dephasing.decoherence_function(fig1_model(0.0), t)
        d9 = dephasing.decoherence_function(fig1_model(0.9), t)
        assert 0.0 < d0 < d9 < 1.0

    def test_range(self):
        for t in (0.5, 2.0, 8.0):
            d = dephasing.decoherence_function(fig1_model(0.5), t)
            assert 0.0 < d <= 1.0


class TestOhmicAsymptote:
    def test_critical_point(self):
        for t in (0.1, 5.0, 100.0):
            assert dephasing.ohmic_asymptote(1.0, 2.0, 0.7, t) == 1.0

    def test_exponent_substitution(self):
        assert dephasing.ohmic_asymptote(0.0, 1.0, math.pi, 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-15
        )

    def test_slope_matches_quadrature(self):
        # mu = 0, omega_c = 100, beta = 1: -ln D fitted over t in [5, 20]
        spec = SpectralDensity(j0=1.0, mu=0.0, omega_c=100.0)
        for alpha in (0.0, 0.6):
            model = DephasingModel(alpha=alpha, beta=1.0, spectral=spec)
            e1, _ = dephasing.qubit_energies(alpha)
            ts = np.linspace(5.0, 20.0, 16)
            y = np.array(
                [e1**2 * dephasing.gamma_integral(model, t).value for t in ts]
            )
            slope = np.polyfit(ts, y, 1)[0]
            expected = math.pi * (1.0 - alpha**2)
            assert slope == pytest.approx(expected, rel=0.05)


class TestEvolveExact:
    def test_maximally_mixed_is_fixed_point(self):
        model = fig1_model(0.5)
        rho0 = np.eye(2) / 2.0
        for t in (0.0, 1.0, 4.0):
            np.testing.assert_allclose(
                dephasing.evolve_exact(model, rho0, t), rho0, atol=1e-14
            )

    def test_critical_point_freezes(self):
        model = fig1_model(1.0)
        rho0 = np.array([[0.5, 0.3j], [-0.3j, 0.5]])
        for t in (0.5, 3.0):
            np.testing.assert_allclose(
                dephasing.evolve_exact(model, rho0, t), rho0, atol=1e-14
            )

    def test_structure_along_trajectory(self):
        model = fig1_model(0.5)
        rho0 = np.array([[0.5, 0.4j], [-0.4j, 0.5]])
        e1, _ = dephasing.qubit_energies(0.5)
        for t in (0.3, 1.1, 2.9):
            rho = dephasing.evolve_exact(model, rho0, t)
            d = dephasing.decoherence_function(model, t)
            assert np.trace(rho) == pytest.approx(1.0, abs=1e-15)
            assert rho[1, 0] == np.conj(rho[0, 1])
            # transcribed solution: r11 oscillates with e1 and is damped by D
            expected_r11 = 0.5 - (0.4j * np.exp(-1j * e1 * t)).real * d
            assert rho[0, 0].real == pytest.approx(expected_r11, abs=1e-14)


class TestNonFiniteTime:
    """A NaN or infinite time is a ValueError, with no numpy warning, at
    every entry point that takes t."""

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_scalar_entry_points(self, t, alpha):
        model = fig1_model(alpha)
        rho0 = np.array([[0.5, 0.2j], [-0.2j, 0.5]])
        calls = [
            lambda: dephasing.gamma_integral(model, t),
            lambda: dephasing.decoherence_function(model, t),
            lambda: dephasing.evolve_exact(model, rho0, t),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError, match="finite"):
                    call()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_sweep_times(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                dephasing.sweep_alpha([0.0], [0.0, 1.0, bad], FIG1_SPECTRAL, FIG1_BETA)


class TestEvolveExactGivenD:
    RHO0 = np.array([[0.5, 0.35j], [-0.35j, 0.5]])

    def test_arrays_match_per_time_calls(self):
        e1 = dephasing.qubit_energies(0.6)[0]
        times = np.linspace(0.0, 7.0, 15)
        ds = np.exp(-0.2 * times)
        states = dephasing.evolve_exact_given_d(self.RHO0, e1, times, ds)
        assert states.shape == (15, 2, 2)
        for t, d, rho in zip(times, ds, states):
            np.testing.assert_array_equal(
                rho, dephasing.evolve_exact_given_d(self.RHO0, e1, t, d)
            )

    @pytest.mark.parametrize("re12", [9e-10, -9e-10, 1e-10])
    def test_scalar_state_is_the_array_branch_for_complex_r12(self, re12):
        # a general state, here with a small nonzero Re r12(0), takes the
        # same one numpy pass
        rho0 = np.array([[0.5, re12 + 0.35j], [re12 - 0.35j, 0.5]])
        times = np.concatenate([[0.0], np.logspace(-6.0, 6.0, 25)])
        ds = np.linspace(1.0, 0.0, times.size)
        for e1 in (-1.0, -0.8, -0.31, -1e-3, 0.0):
            states = dephasing.evolve_exact_given_d(rho0, e1, times, ds)
            for t, d, rho in zip(times.tolist(), ds.tolist(), states):
                scalar = dephasing.evolve_exact_given_d(rho0, e1, t, d)
                assert scalar.tobytes() == rho.tobytes(), (e1, t, d)

    @pytest.mark.parametrize(
        "kind", [float, int, np.float64, np.array], ids=["float", "int", "float64", "0-d"]
    )
    def test_scalar_call_is_one_matrix(self, kind):
        # every scalar kind of t and d takes the one numpy pass, with the
        # bits of the Python-float call
        reference = dephasing.evolve_exact_given_d(self.RHO0, -0.8, 3.0, 1.0)
        for t, d in ((kind(3), kind(1)), (kind(3), 1.0), (3.0, kind(1))):
            rho = dephasing.evolve_exact_given_d(self.RHO0, -0.8, t, d)
            assert rho.shape == (2, 2)
            assert rho.dtype == complex
            assert rho.tobytes() == reference.tobytes(), (t, d)

    def test_state_validated_once(self, monkeypatch):
        calls = count_calls(monkeypatch, dephasing, "require_density_matrix")
        dephasing.evolve_exact_given_d(self.RHO0, -0.8, np.linspace(0.0, 1.0, 9), np.ones(9))
        assert calls == [(2, 2)]

    def test_qutrit_state_is_a_dimension_mismatch(self):
        rho0 = np.eye(3) / 3.0
        with pytest.raises(DimensionMismatch, match="qubit"):
            dephasing.evolve_exact_given_d(rho0, -0.8, 1.0, 0.9)
        with pytest.raises(DimensionMismatch, match="qubit"):
            dephasing.evolve_exact(fig1_model(0.5), rho0, 1.0)


PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)
MINUS = np.array([1.0, -1.0]) / math.sqrt(2.0)


def sigma_x_entries(rho):
    """(rho_++, rho_--, rho_+-) of a qubit state, from the eigenvectors of
    sigma_x written out."""
    return tuple(np.vdot(a, rho @ b) for a, b in ((PLUS, PLUS), (MINUS, MINUS), (PLUS, MINUS)))


class TestSigmaXBasisMap:
    """The closed form is pure dephasing in the sigma_x eigenbasis, for any
    qubit state. No check here fixes its rotation frequency."""

    TIMES = np.linspace(0.0, 9.0, 19)
    DS = np.linspace(1.0, 0.0, 19)  # every D in [0, 1], both ends included

    @pytest.mark.parametrize(
        "rho0",
        [np.full((2, 2), 0.5), np.array([[0.5, -0.5], [-0.5, 0.5]]), np.eye(2) / 2.0],
        ids=["plus", "minus", "mixed"],
    )
    def test_sigma_x_diagonal_states_are_fixed(self, rho0):
        for e1 in (-1.0, -0.8, -0.31):
            states = dephasing.evolve_exact_given_d(rho0, e1, self.TIMES, self.DS)
            for rho in states:
                np.testing.assert_array_equal(rho, rho0)

    def test_general_states_dephase(self, rng):
        e1 = dephasing.qubit_energies(0.6)[0]
        admissible = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
        ref0 = sigma_x_entries(admissible)[2]
        ratio = np.array(
            [sigma_x_entries(rho)[2] / ref0
             for rho in dephasing.evolve_exact_given_d(admissible, e1, self.TIMES, self.DS)]
        )
        np.testing.assert_allclose(np.abs(ratio), self.DS, rtol=0.0, atol=1e-15)
        for _ in range(20):
            rho0 = random_density_matrix(rng, 2)
            pp0, mm0, pm0 = sigma_x_entries(rho0)
            states = dephasing.evolve_exact_given_d(rho0, e1, self.TIMES, self.DS)
            np.testing.assert_allclose(states[0], rho0, rtol=0.0, atol=1e-15)
            for rho, expected in zip(states, ratio):
                pp, mm, pm = sigma_x_entries(rho)
                assert abs(pp - pp0) <= 1e-15 and abs(mm - mm0) <= 1e-15
                assert abs(pm - pm0 * expected) <= 1e-15
                # a density matrix: hermitian, unit trace, no negative eigenvalue
                np.testing.assert_array_equal(rho, rho.conj().T)
                assert abs(np.trace(rho) - 1.0) <= 1e-15
                assert np.linalg.eigvalsh(rho).min() >= -1e-15


class TestSweepAlpha:
    def test_critical_row_and_ordering(self):
        table = dephasing.sweep_alpha(
            [0.0, 1.0], np.linspace(0.0, 5.0, 6), FIG1_SPECTRAL, FIG1_BETA
        )
        np.testing.assert_array_equal(table.decoherence[:, 1], 1.0)
        assert np.all(table.decoherence[1:, 0] < 1.0)

    def test_sign_symmetry_exact(self):
        table = dephasing.sweep_alpha(
            [-0.7, 0.7], np.linspace(0.0, 4.0, 5), FIG1_SPECTRAL, FIG1_BETA
        )
        np.testing.assert_array_equal(
            table.decoherence[:, 0], table.decoherence[:, 1]
        )

    def test_monotone_in_alpha_squared(self):
        alphas = [0.0, 0.3, 0.5, 0.7, 0.9, 1.0]
        table = dephasing.sweep_alpha(
            alphas, np.linspace(0.0, 6.0, 7), FIG1_SPECTRAL, FIG1_BETA
        )
        for i in range(1, len(table.times)):
            row = table.decoherence[i]
            assert np.all(np.diff(row) > 0)

    def test_gamma_shared_across_alphas(self):
        table = dephasing.sweep_alpha(
            [0.0, 0.5], [0.0, 2.0], FIG1_SPECTRAL, FIG1_BETA
        )
        e1sq = dephasing.qubit_energies(0.5)[0] ** 2
        np.testing.assert_allclose(
            table.decoherence[:, 1], np.exp(-e1sq * table.gamma), rtol=1e-15
        )

    def test_rejects_broken_phase_alphas(self):
        with pytest.raises(BrokenPhase):
            dephasing.sweep_alpha([0.0, 1.5], [0.0, 1.0], FIG1_SPECTRAL, FIG1_BETA)

    def test_rejects_nan_alpha(self):
        with pytest.raises(ValueError, match="NaN"):
            dephasing.sweep_alpha([0.0, math.nan], [0.0, 1.0], FIG1_SPECTRAL, FIG1_BETA)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("alphas", [[0.0, 0.5], [1.0]])
    def test_rejects_non_positive_tolerance(self, alphas, tol):
        with pytest.raises(ValueError, match="tol must be > 0"):
            dephasing.sweep_alpha(alphas, [0.0, 10.0], FIG1_SPECTRAL, FIG1_BETA, tol=tol)

    def test_rejects_descending_times(self):
        with pytest.raises(ValueError):
            dephasing.sweep_alpha([0.0], [2.0, 1.0], FIG1_SPECTRAL, FIG1_BETA)

    @pytest.mark.parametrize("beta", [math.inf, 0.0, -1.0, math.nan])
    def test_rejects_beta_out_of_range(self, beta):
        # beta = inf (T = 0) has no closed form here: a ValueError before
        # any gamma arithmetic, with no floating-point warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="beta"):
                dephasing.sweep_alpha([0.0, 0.5], [0.0, 1.0], FIG1_SPECTRAL, beta)

    def test_gamma_matches_scalar_path(self):
        ts = np.linspace(0.0, 3.0, 4)
        table = dephasing.sweep_alpha([0.0, 0.8], ts, FIG1_SPECTRAL, FIG1_BETA)
        scalar = [dephasing.gamma_integral(fig1_model(0.0), t).value for t in ts]
        np.testing.assert_array_equal(table.gamma, scalar)


class TestOnePath:
    """A single time point takes the same array pass as a whole grid: the
    scalar entry points equal the array pass bit for bit over the domain grid."""

    @pytest.mark.parametrize("beta", GRID_BETAS)
    @pytest.mark.parametrize("mu", GRID_MUS)
    def test_gamma_integral_is_the_array_pass(self, mu, beta):
        model = DephasingModel(0.6, beta, SpectralDensity(1.0, mu, 1.0))
        values, bounds = dephasing._gamma_values(
            model.spectral, beta, GRID_TIMES, dephasing.DEFAULT_GAMMA_TOL
        )
        for t, value, bound in zip(GRID_TIMES, values, bounds):
            res = dephasing.gamma_integral(model, t)
            assert res.value == value, t
            assert res.abs_error_estimate == bound, t

    @pytest.mark.parametrize("beta", GRID_BETAS)
    @pytest.mark.parametrize("mu", GRID_MUS)
    def test_evolve_exact_is_evolve_exact_given_d(self, mu, beta):
        rho0 = np.array([[0.5, 0.35j], [-0.35j, 0.5]])
        for alpha in (0.6, 1.0):
            model = DephasingModel(alpha, beta, SpectralDensity(1.0, mu, 1.0))
            e1 = model.e1
            for t in GRID_TIMES:
                d = dephasing.decoherence_function(model, t)
                np.testing.assert_array_equal(
                    dephasing.evolve_exact(model, rho0, t),
                    dephasing.evolve_exact_given_d(rho0, e1, t, d),
                )

    @pytest.mark.parametrize("mu", GRID_MUS + EDGE_MUS)
    def test_gamma_integral_is_the_array_pass_at_the_edges(self, mu):
        # an equal value and bound, or the same exception and text; the grid
        # pass overflows in numpy at these points, so its warnings are off
        def outcome(gamma, *args):
            try:
                value, bound = gamma(*args)
            except Exception as exc:
                return type(exc), str(exc)
            return float(np.squeeze(value)), float(np.squeeze(bound))

        def point(model, t):
            res = dephasing.gamma_integral(model, t)
            return res.value, res.abs_error_estimate

        tol = dephasing.DEFAULT_GAMMA_TOL
        with np.errstate(all="ignore"):
            for beta in GRID_BETAS + EDGE_BETAS:
                model = DephasingModel(0.6, beta, SpectralDensity(1.0, mu, 1.0))
                for t in GRID_TIMES[1:] + EDGE_TIMES:
                    assert outcome(point, model, t) == outcome(
                        dephasing._gamma_values, model.spectral, beta, [t], tol
                    ), (beta, t)

    @pytest.mark.parametrize("mu", [1.0, -0.5, -0.83, 0.37, 3.3])
    def test_gamma_integral_is_the_array_pass_on_random_points(self, mu):
        # seeded (beta, t) draws reach last-bit differences that the domain
        # grid misses (a libm log1p in place of numpy's, say). numpy takes
        # ``array ** -mu`` as a reciprocal at mu = 1 and a square root at
        # mu = -0.5, not by its pow kernel; the point pass must take that form
        rng = np.random.default_rng(20261020)
        tol = dephasing.DEFAULT_GAMMA_TOL
        for beta in (10.0 ** rng.uniform(-3.0, 3.0, 50)).tolist():
            model = DephasingModel(0.6, beta, SpectralDensity(1.0, mu, 1.0))
            times = 10.0 ** rng.uniform(-6.0, 6.0, 20)
            values, bounds = dephasing._gamma_values(model.spectral, beta, times, tol)
            for t, value, bound in zip(times.tolist(), values, bounds):
                res = dephasing.gamma_integral(model, t)
                assert (res.value, res.abs_error_estimate) == (value, bound), (beta, t)

    def test_one_check_of_t_and_alpha_per_call(self, monkeypatch):
        times = count_calls(monkeypatch, dephasing, "_require_time")
        energies = count_calls(monkeypatch, dephasing, "qubit_energies")
        rho0 = np.array([[0.5, 0.35j], [-0.35j, 0.5]])
        for alpha, t in ((0.6, 2.0), (0.6, 0.0), (1.0, 2.0)):
            dephasing.evolve_exact(fig1_model(alpha), rho0, t)
            assert len(times) == len(energies) == 1, (alpha, t)
            times.clear()
            energies.clear()

    @pytest.mark.parametrize(
        "alpha, t, error, match",
        [
            (0.6, math.nan, ValueError, "t must be finite"),
            (1.5, math.nan, ValueError, "t must be finite"),  # t before alpha
            (math.nan, -1.0, ValueError, "t must be >= 0"),
            (1.5, 2.0, BrokenPhase, "complex spectrum"),
            (math.nan, 2.0, ValueError, "alpha is NaN"),
        ],
    )
    def test_errors_in_order(self, alpha, t, error, match):
        model = DephasingModel(alpha, FIG1_BETA, FIG1_SPECTRAL)
        rho0 = np.array([[0.5, 0.35j], [-0.35j, 0.5]])
        with pytest.raises(error, match=match):
            dephasing.decoherence_function(model, t)
        with pytest.raises(error, match=match):
            dephasing.evolve_exact(model, rho0, t)
