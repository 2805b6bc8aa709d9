"""Tolerance decisions taken from Frobenius bounds on the spectral norm.

Each routed site is placed at 0.1x, (1 - 1e-9)x, (1 + 1e-9)x and 10x its
threshold. Its decision must equal the exact-SVD formula it used before the
bounds (written out here in each test), and the SVD fallback may run only
where the bounds ``||X||_F / sqrt(min(m, n)) <= ||X||_2 <= ||X||_F``,
widened by ``NORM_MARGIN``, straddle the threshold.
"""

import contextlib
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ptdeco import channel, linalg, pt_core  # noqa: E402
from ptdeco.errors import (  # noqa: E402
    DegenerateSpectrum,
    NonDiagonalizable,
    NotHermitian,
    NotPtSymmetric,
)
from ptdeco.pt_core import PhaseClass, PtHamiltonian  # noqa: E402

from .conftest import (  # noqa: E402
    count_spectral_norms,
    exchange_parity,
    random_hermitian,
    random_pt_hamiltonian,
)

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)
MULTIPLES = (0.1, 1.0 - 1e-9, 1.0 + 1e-9, 10.0)
TOL = linalg.DEFAULT_TOL

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(2, 6)
sizes = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


def exact(m) -> float:
    return float(np.linalg.norm(m, 2))


def straddles(rule, *mats) -> bool:
    """True unless ``rule`` at the Frobenius bounds of ``mats`` settles
    ``lhs <= rhs`` one way or the other."""
    lo, hi = [], []
    for m in mats:
        f = float(np.linalg.norm(m))
        lo.append(f / math.sqrt(min(m.shape)) * (1.0 - linalg.NORM_MARGIN))
        hi.append(f * (1.0 + linalg.NORM_MARGIN))
    return not (rule(*hi)[0] <= rule(*lo)[1] or rule(*lo)[0] > rule(*hi)[1])


def within(tol):
    return lambda d, s: (d, tol * max(s, 1.0))


@contextlib.contextmanager
def svd_calls():
    """Record the shapes passed to ``linalg.norm2``, the bounds' fallback."""
    calls = []
    inner = linalg.norm2

    def counting(a):
        calls.append(np.shape(a))
        return inner(a)

    linalg.norm2 = counting
    try:
        yield calls
    finally:
        linalg.norm2 = inner


def decided(call, *errors) -> bool:
    """True if ``call()`` returns, False if it raises one of ``errors``."""
    try:
        call()
    except errors:
        return False
    return True


def random_unitary(rng, dim: int) -> np.ndarray:
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


class TestBounds:
    @pytest.mark.parametrize("dim", [1, 2, 5, 16])
    def test_bracket_the_spectral_norm(self, rng, dim):
        for a in (
            rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)),
            np.eye(dim),  # the lower bound is tight
            np.outer(rng.normal(size=dim), rng.normal(size=dim)),  # the upper is
        ):
            n = linalg.Norm2(a)
            assert n.lo <= exact(a) <= n.hi
            assert n.exact() == exact(a)
            assert n.lo == n.hi == exact(a)

    @pytest.mark.parametrize("entry", [1e-200, 1e200])
    def test_no_bounds_where_frobenius_may_under_or_overflow(self, entry):
        a = np.array([[entry, 0.0], [0.0, -entry]])
        n = linalg.Norm2(a)
        assert (n.lo, n.hi) == (0.0, math.inf)
        assert n.exact() == entry

    def test_zero_matrix_is_exact(self):
        with svd_calls() as calls:
            n = linalg.Norm2(np.zeros((3, 3)))
            assert n.exact() == 0.0
        assert calls == []

    def test_straddling_test_takes_the_exact_norm(self):
        a = np.eye(4)  # ||a||_2 = 1, bounds [1, 2]
        with svd_calls() as calls:
            assert linalg.norm2_le(lambda s: (s, 1.5), linalg.Norm2(a))
        assert calls == [(4, 4)]


@SETTINGS
@given(seed=seeds, dim=dims, size=sizes)
def test_is_hermitian(seed, dim, size):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, dim, size)
    skew = 1j * random_hermitian(rng, dim)
    for k in MULTIPLES:
        # the defect 2c skew at k x tol max(||h||, 1)
        c = k * TOL * max(exact(h), 1.0) / (2.0 * exact(skew))
        a = h + c * skew
        defect = a - a.conj().T
        reference = exact(defect) <= TOL * max(exact(a), 1.0)
        with svd_calls() as calls:
            assert linalg.is_hermitian(a) == reference
        assert not calls or straddles(within(TOL), defect, a)


@SETTINGS
@given(seed=seeds, dim=dims)
def test_parity_involution(seed, dim):
    rng = np.random.default_rng(seed)
    Q = random_unitary(rng, dim)
    P0 = (Q * rng.choice([-1.0, 1.0], size=dim)) @ Q.conj().T
    P0 = (P0 + P0.conj().T) / 2.0
    rule = lambda d, p: (d, TOL * max(p**2, 1.0))  # noqa: E731
    for k in MULTIPLES:
        # (1 + e)^2 - 1 = k tol (1 + e)^2 for e = (1 - k tol)^(-1/2) - 1
        P = (1.0 + math.expm1(-0.5 * math.log1p(-k * TOL))) * P0
        defect = P @ P - np.eye(dim)
        reference = not (defect.any() and exact(defect) > TOL * max(exact(P) ** 2, 1.0))
        with svd_calls() as calls:
            got = decided(lambda: PtHamiltonian(H=np.eye(dim), P=P), NotPtSymmetric)
        assert got == reference
        assert not calls or straddles(rule, defect, P)


@SETTINGS
@given(seed=seeds, dim=dims, size=sizes)
def test_eig_general_residual(seed, dim, size):
    rng = np.random.default_rng(seed)
    A = size * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    eig = linalg.eig_general(A, math.inf)
    resid = np.linalg.norm(A @ eig.right - eig.right * eig.values, axis=0)
    worst = float(resid.max())
    assume(worst > 0.0)
    for k in MULTIPLES:
        tol = worst / (k * max(exact(A), 1.0))
        reference = not np.any(resid > tol * max(exact(A), 1.0))
        with svd_calls() as calls:
            got = decided(lambda: linalg.eig_general(A, tol), NonDiagonalizable)
        assert got == reference
        assert not calls or straddles(lambda s: (worst, tol * max(s, 1.0)), A)


@SETTINGS
@given(seed=seeds, dim=dims, size=sizes, both=st.booleans())
def test_check_pt_symmetry(seed, dim, size, both):
    rng = np.random.default_rng(seed)
    base = random_pt_hamiltonian(rng, dim)
    # a real symmetric X keeps conj(H) = H^dag and breaks only the parity
    X = rng.normal(size=(dim, dim)) + (1j * rng.normal(size=(dim, dim)) if both else 0.0)
    X = X if both else (X + X.T) / 2.0
    H = size * (base.H + 1e-3 * X)
    Hd = H.conj().T
    parity, time = base.P @ H @ base.P - Hd, H.conj() - Hd
    worst = max(exact(parity), exact(time))
    for k in MULTIPLES:
        tol = worst / (k * max(exact(H), 1.0))
        scale = max(exact(H), 1.0)
        reference = exact(parity) <= tol * scale and exact(time) <= tol * scale
        ham = PtHamiltonian(H=H, P=base.P)
        with svd_calls() as calls:
            assert pt_core.check_pt_symmetry(ham, tol) == reference
        assert not calls or any(straddles(within(tol), d, H) for d in (parity, time))


@SETTINGS
@given(seed=seeds, dim=dims, size=sizes)
def test_spectrum_classification(seed, dim, size):
    rng = np.random.default_rng(seed)
    H = size * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    values = pt_core.spectrum(PtHamiltonian(H=H, P=exchange_parity(dim))).eigenvalues
    imag = float(np.max(np.abs(values.imag)))
    for k in MULTIPLES:
        eps = imag / (k * max(exact(H), 1.0))
        reference = imag <= eps * max(exact(H), 1.0)
        ham = PtHamiltonian(H=H, P=exchange_parity(dim))
        pt_core.spectrum(ham, eps_spec=math.inf)  # the eigensystem, outside the count
        with svd_calls() as calls:
            got = pt_core.spectrum(ham, eps).classification is PhaseClass.REAL
        assert got == reference
        assert not calls or straddles(lambda s: (imag, eps * max(s, 1.0)), H)


@SETTINGS
@given(seed=seeds, dim=dims, size=sizes)
def test_biorthonormal_gap(seed, dim, size):
    rng = np.random.default_rng(seed)
    energies = np.sort(rng.uniform(-1.0, 1.0, size=dim)) * size
    Q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    i = int(rng.integers(dim - 1))
    for k in MULTIPLES:
        levels = energies.copy()
        levels[i + 1] = levels[i] + k * pt_core.DEFAULT_EPS_SPEC * max(size, 1.0)
        H = (Q * levels) @ Q.T
        H = (H + H.T) / 2.0
        ham = PtHamiltonian(H=H, P=np.eye(dim))
        values = pt_core.spectrum(ham).eigenvalues.real  # memoized, as the basis uses
        gap = float(np.min(np.diff(values)))
        reference = not (gap <= pt_core.DEFAULT_EPS_SPEC * max(exact(H), 1.0))
        with svd_calls() as calls:
            got = decided(lambda: pt_core.biorthonormal_basis(ham), DegenerateSpectrum)
        assert got == reference
        rule = lambda s: (gap, pt_core.DEFAULT_EPS_SPEC * max(s, 1.0))  # noqa: E731
        assert not calls or straddles(rule, H)


@SETTINGS
@given(seed=seeds, dim=dims, size=sizes, matched=st.booleans())
def test_hermitian_representation(seed, dim, size, matched):
    rng = np.random.default_rng(seed)
    ham = random_pt_hamiltonian(rng, dim)
    ham = PtHamiltonian(H=size * ham.H, P=ham.P)
    # an unmatched map leaves a defect far above rounding
    cmap = pt_core.canonical_transform(ham if matched else random_pt_hamiltonian(rng, dim))
    h = cmap.T @ ham.H @ cmap.T_inv
    defect = h - h.conj().T
    assume(defect.any())
    for k in MULTIPLES:
        tol = exact(defect) / (k * max(exact(ham.H), 1.0))
        reference = not (exact(defect) > tol * max(exact(ham.H), 1.0))
        fresh = PtHamiltonian(H=ham.H, P=ham.P)
        with svd_calls() as calls:
            got = decided(lambda: pt_core.hermitian_representation(fresh, cmap, tol), NotHermitian)
        assert got == reference
        assert not calls or straddles(within(tol), defect, ham.H)


@SETTINGS
@given(seed=seeds, dim_s=st.integers(2, 4), dim_b=st.integers(1, 6), sizes=st.tuples(sizes, sizes))
def test_build_composite_dephasing(seed, dim_s, dim_b, sizes):
    rng = np.random.default_rng(seed)
    h_S = random_hermitian(rng, dim_s, sizes[0])
    V_B = random_hermitian(rng, dim_b, sizes[1])
    V_S = h_S + 1e-3 * random_hermitian(rng, dim_s, sizes[0])
    V_S = (V_S + V_S.conj().T) / 2.0
    comm = h_S @ V_S - V_S @ h_S
    H_B = random_hermitian(rng, dim_b)

    def rule(c, v_b, h, v_s):
        return c * v_b, tol * max(h * max(v_s * v_b, 1.0), 1.0)

    for k in MULTIPLES:
        base = max(exact(h_S) * max(exact(V_S) * exact(V_B), 1.0), 1.0)
        tol = exact(comm) * exact(V_B) / (k * base)
        reference = exact(comm) * exact(V_B) <= tol * max(
            exact(h_S) * max(exact(V_S) * exact(V_B), 1.0), 1.0
        )
        with svd_calls() as calls:
            assert channel.build_composite(h_S, H_B, V_S, V_B, tol).dephasing == reference
        assert not calls or straddles(rule, comm, V_B, h_S, V_S)


def test_hermitization_at_n16_takes_no_svd(rng, monkeypatch):
    # a gain/loss chain: reflection-symmetric hoppings, gain at one end and
    # loss at the other, well inside the unbroken phase
    n = 16
    hop = rng.uniform(0.8, 1.2, size=n - 1)
    hop = (hop + hop[::-1]) / 2.0
    H = np.diag(hop, 1) + np.diag(hop, -1) + 0j
    H[0, 0], H[-1, -1] = 0.3j, -0.3j
    calls = count_spectral_norms(monkeypatch)
    ham = PtHamiltonian(H=H, P=exchange_parity(n))
    assert pt_core.check_pt_symmetry(ham)
    assert pt_core.spectrum(ham).classification is PhaseClass.REAL
    pt_core.biorthonormal_basis(ham)
    cmap = pt_core.canonical_transform(ham)
    pt_core.hermitian_representation(ham, cmap)
    assert calls == []
