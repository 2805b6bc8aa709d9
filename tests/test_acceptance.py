"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""

import math
import time

import numpy as np
import pytest

from ptdeco import channel, dephasing, oracle, pt_core
from ptdeco.dephasing import DephasingModel, SpectralDensity

from .conftest import random_density_matrix, random_hermitian, random_pt_hamiltonian

pytestmark = pytest.mark.filterwarnings("ignore::ptdeco.errors.TruncationWarning")

FIG1_SPECTRAL = SpectralDensity(j0=1.0, mu=-0.5, omega_c=1.0)


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_figure1_reproduction():
    start = time.monotonic()
    alphas = [0.0, 0.5, 0.9, 1.0]
    times = np.linspace(0.0, 20.0, 200)
    table = dephasing.sweep_alpha(alphas, times, FIG1_SPECTRAL, beta=0.5)
    mirrored = dephasing.sweep_alpha([-a for a in alphas], times, FIG1_SPECTRAL, beta=0.5)
    elapsed = time.monotonic() - start

    d = table.decoherence
    initial_ok = bool(np.all(np.abs(d[0] - 1.0) <= 1e-12))
    ordering_ok = True
    for i, t in enumerate(times):
        if t <= 0.5:
            continue
        row = d[i]
        if not (row[0] < row[1] < row[2] < row[3] == 1.0):
            ordering_ok = False
            break
    symmetry_ok = bool(np.all(np.abs(d - mirrored.decoherence) <= 1e-12))
    runtime_ok = elapsed <= 10.0

    report(
        "1 figure-1 reproduction",
        initial_ok and ordering_ok and symmetry_ok and runtime_ok,
        f"D(0)=1: {initial_ok}, ordering: {ordering_ok}, "
        f"alpha-sign symmetry: {symmetry_ok}, runtime {elapsed:.2f}s <= 10s",
    )


def test_criterion_2_ohmic_asymptote_slope():
    start = time.monotonic()
    spec = SpectralDensity(j0=1.0, mu=0.0, omega_c=100.0)
    beta = 1.0
    ts = np.linspace(5.0, 20.0, 31)
    gammas = np.array(
        [
            dephasing.gamma_integral(DephasingModel(0.0, beta, spec), t).value
            for t in ts
        ]
    )
    ok = True
    details = []
    for alpha in (0.0, 0.6):
        e1, _ = dephasing.qubit_energies(alpha)
        slope = np.polyfit(ts, e1**2 * gammas, 1)[0]
        target = math.pi * 1.0 * (1.0 - alpha**2) / beta
        rel = abs(slope - target) / target
        details.append(f"alpha={alpha}: slope {slope:.5f} vs {target:.5f} ({rel:.2%})")
        ok = ok and rel <= 0.05
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 30.0
    report("2 Ohmic exponential-relaxation slope", ok, "; ".join(details) + f"; runtime {elapsed:.2f}s <= 30s")


def test_criterion_3_hermitization_suite():
    rng = np.random.default_rng(3)
    worst_herm, worst_adj = 0.0, 0.0
    for dim in (2, 4):
        for _ in range(100):
            ham = random_pt_hamiltonian(rng, dim)
            cmap = pt_core.canonical_transform(ham)
            T, Ti = cmap.T, cmap.T_inv
            scale = np.linalg.norm(ham.H, 2)
            h = T @ ham.H @ Ti
            worst_herm = max(worst_herm, np.linalg.norm(h - h.conj().T, 2) / scale)
            lhs = T @ T @ ham.H @ Ti @ Ti
            worst_adj = max(
                worst_adj, np.linalg.norm(lhs - ham.H.conj().T, 2) / scale
            )

    worst_t = 0.0
    for alpha in np.linspace(-0.98, 0.98, 50):
        numeric = pt_core.canonical_transform(dephasing.qubit_hamiltonian(alpha)).T
        closed = dephasing.qubit_transform(alpha).T
        ratio = np.trace(closed).real / np.trace(numeric).real
        worst_t = max(worst_t, float(np.max(np.abs(numeric * ratio - closed))))

    ok = worst_herm <= 1e-9 and worst_adj <= 1e-9 and worst_t <= 1e-10
    report(
        "3 hermitization suite (200 random PT + 50 qubit transforms)",
        ok,
        f"max hermiticity defect {worst_herm:.2e} <= 1e-9, "
        f"max adjoint-identity defect {worst_adj:.2e} <= 1e-9, "
        f"max closed-form deviation {worst_t:.2e} <= 1e-10",
    )


def test_criterion_4_channel_suite():
    rng = np.random.default_rng(4)
    worst_repro, worst_norm, worst_lr, worst_unital, worst_choi = 0.0, 0.0, 0.0, 0.0, 0.0
    for i in range(100):
        dim_s = int(rng.integers(2, 4))  # 2 or 3
        dim_b = int(rng.integers(2, 7))  # 2..6
        ham = random_pt_hamiltonian(rng, dim_s)
        cmap = pt_core.canonical_transform(ham)
        h_S = pt_core.hermitian_representation(ham, cmap)
        H_B = random_hermitian(rng, dim_b)
        V_B = random_hermitian(rng, dim_b)
        dephasing_instance = i % 2 == 0
        V_S = h_S if dephasing_instance else random_hermitian(rng, dim_s)
        model = channel.build_composite(h_S, H_B, V_S=V_S, V_B=V_B)
        omega = random_density_matrix(rng, dim_b)
        rho0 = random_density_matrix(rng, dim_s)
        t = float(rng.uniform(0.2, 3.0))

        ch = channel.kraus_extract(model, omega, t)
        worst_repro = max(
            worst_repro,
            float(
                np.max(
                    np.abs(
                        channel.apply_channel(ch, rho0)
                        - channel.reduced_state(model, rho0, omega, t)
                    )
                )
            ),
        )
        worst_norm = max(
            worst_norm,
            np.linalg.norm(ch.normalization() - np.eye(dim_s), 2),
        )
        if dephasing_instance:
            # sum L R = T^-1 (sum K K^dag) T equals I exactly when the
            # channel is unital, which dephasing guarantees
            assert model.dephasing
            pt = channel.pt_kraus(ch, cmap)
            worst_lr = max(
                worst_lr, np.linalg.norm(pt.normalization() - np.eye(dim_s), 2)
            )
            worst_unital = max(
                worst_unital,
                np.linalg.norm(
                    channel.apply_channel(ch, np.eye(dim_s)) - np.eye(dim_s), 2
                ),
            )
        choi_min = float(np.min(np.linalg.eigvalsh(channel.choi_matrix(ch))))
        worst_choi = min(worst_choi, choi_min)

    ok = (
        worst_repro <= 1e-9
        and worst_norm <= 1e-10
        and worst_lr <= 1e-10
        and worst_unital <= 1e-10
        and worst_choi >= -1e-9
    )
    report(
        "4 channel suite (100 random composites)",
        ok,
        f"max |kraus - reduced| {worst_repro:.2e} <= 1e-9, "
        f"max |sum K^dag K - I| {worst_norm:.2e} <= 1e-10, "
        f"max |sum L R - I| {worst_lr:.2e} <= 1e-10, "
        f"max |Phi[I] - I| {worst_unital:.2e} <= 1e-10, "
        f"min Choi eigenvalue {worst_choi:.2e} >= -1e-9",
    )


def test_criterion_5_oracle_equivalence():
    start = time.monotonic()
    times = np.linspace(0.0, 5.0, 21)
    fits = {}
    for fock in (5, 7):
        bath = oracle.discretize_bath(
            oracle.DEFAULT_SPECTRAL, n_modes=3, omega_max=15.0, fock_dim=fock
        )
        rep = oracle.run_comparison((0.0, 0.6), bath, 0.5, times)
        fits[fock] = (rep.fitted_c, rep.fit_residual)
    elapsed = time.monotonic() - start

    c5, resid5 = fits[5]
    c7, resid7 = fits[7]
    residual_ok = resid7 <= 1e-3
    decrease_ok = resid7 < resid5
    runtime_ok = elapsed <= 60.0
    # c is reported, not asserted: the closed form's literal exponent (c = 1)
    # differs from the composite built with coupling E1 sx (x) V_B
    report(
        "5 oracle equivalence (N=3, fock 5 vs 7)",
        residual_ok and decrease_ok and runtime_ok,
        f"fitted c(fock=7) = {c7:.6f} [reported, not asserted], "
        f"residual {resid7:.2e} <= 1e-3, "
        f"decrease {resid5:.2e} -> {resid7:.2e}, runtime {elapsed:.1f}s <= 60s",
    )


def test_criterion_6_conservation():
    # analytic trajectories
    ok = True
    worst_energy, worst_trace = 0.0, 0.0
    rho0 = oracle.DEFAULT_INITIAL_STATE
    for alpha in (0.3, 0.8):
        model = DephasingModel(alpha=alpha, beta=0.5, spectral=FIG1_SPECTRAL)
        e1, _ = dephasing.qubit_energies(alpha)
        h_s = e1 * dephasing.SIGMA_X
        e0 = np.trace(h_s @ rho0).real
        for t in np.linspace(0.0, 10.0, 21):
            rho = dephasing.evolve_exact(model, rho0, t)
            worst_energy = max(worst_energy, abs(np.trace(h_s @ rho).real - e0))
            worst_trace = max(worst_trace, abs(np.trace(rho).real - 1.0))

    # brute-force trajectories
    times = np.linspace(0.0, 5.0, 6)
    bath = oracle.discretize_bath(
        oracle.DEFAULT_SPECTRAL, n_modes=3, omega_max=15.0, fock_dim=5
    )
    for alpha in (0.0, 0.6):
        e1, _ = dephasing.qubit_energies(alpha)
        h_s = e1 * dephasing.SIGMA_X
        states, _ = oracle.brute_force_dynamics(alpha, bath, 0.5, rho0, times)
        e0 = np.trace(h_s @ rho0).real
        for rho in states:
            worst_energy = max(worst_energy, abs(np.trace(h_s @ rho).real - e0))
            worst_trace = max(worst_trace, abs(np.trace(rho).real - 1.0))

    ok = worst_energy <= 1e-8 and worst_trace <= 1e-12
    report(
        "6 conservation along dephasing trajectories",
        ok,
        f"max |<h_S> drift| {worst_energy:.2e} <= 1e-8, "
        f"max |tr - 1| {worst_trace:.2e} <= 1e-12",
    )


def test_criterion_7_coupling_rescaling():
    bath = oracle.discretize_bath(
        oracle.DEFAULT_SPECTRAL, n_modes=3, omega_max=15.0, fock_dim=5
    )
    times = np.linspace(0.0, 5.0, 21)
    curves = {}
    for alpha in (0.0, 0.6):
        # couplings g_n / |E1| take alpha out of the interaction
        e1, _ = dephasing.qubit_energies(alpha)
        scaled = oracle.DiscreteBath(omegas=bath.omegas, gs=bath.gs / abs(e1), fock_dim=5)
        states, _ = oracle.brute_force_dynamics(
            alpha, scaled, 0.5, oracle.DEFAULT_INITIAL_STATE, times
        )
        curves[alpha] = np.array([abs(oracle.coherence_sx(s)) for s in states])
    dev = float(np.max(np.abs(curves[0.0] - curves[0.6])))
    report(
        "7 coupling rescaling removes alpha dependence",
        dev <= 1e-6,
        f"max curve deviation {dev:.2e} <= 1e-6",
    )
