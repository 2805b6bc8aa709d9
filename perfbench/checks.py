"""Independent correctness checks of each workload's outputs.

These run in the benchmark's parent process, after the timed children have
exited, and never import ptdeco. References:

- ``gamma(t)`` from the Hurwitz-zeta closed form in mpmath,
  ``J0 Gamma(mu) beta^-mu Re[2(zeta(mu,a) - zeta(mu,b)) - (a^-mu - b^-mu)]``
  with ``a = 1/(beta omega_c)`` and ``b = a - i t/beta``;
- the discrete-bath ``gamma_N`` from the midpoint bath written out here;
- eigenvalues, Kraus completeness and Choi positivity recomputed with numpy.

Each check returns a :class:`Verdict`: the item ids that fail a check, the
problems found, and diagnostics. Any problem makes the run incorrect.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

#: Points of the mpmath reference per checked output.
REFERENCE_POINTS = 12


@dataclass
class Verdict:
    failed_items: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def fail(self, items, problem):
        self.failed_items.update(items)
        if len(self.problems) < 20:
            self.problems.append(problem)


def near_pole(mu: float) -> bool:
    """The zeta reference has poles at mu = 0 (Gamma) and mu = 1 (zeta)."""
    return abs(mu) < 1e-2 or abs(mu - 1.0) < 1e-2


def gamma_reference(j0: float, mu: float, omega_c: float, beta: float, t: float) -> float:
    """gamma(t) from the Hurwitz-zeta closed form, by mpmath.

    The real part cancels to second order in ``t omega_c``, so the working
    precision grows by two digits per decade of ``t omega_c`` below 1.
    """
    import mpmath

    if t == 0.0:
        return 0.0
    extra = max(0, math.ceil(-2.0 * math.log10(t * omega_c)))
    with mpmath.workdps(30 + extra):
        mu_m, beta_m, t_m = mpmath.mpf(mu), mpmath.mpf(beta), mpmath.mpf(t)
        a = 1 / (beta_m * mpmath.mpf(omega_c))
        b = a - 1j * t_m / beta_m
        bracket = 2 * (mpmath.zeta(mu_m, a) - mpmath.zeta(mu_m, b)) - (a ** (-mu_m) - b ** (-mu_m))
        return float(j0 * mpmath.gamma(mu_m) * beta_m ** (-mu_m) * mpmath.re(bracket))


def read_csv(path):
    """(comment lines, column names, float rows) of a ptdeco CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    columns = body[0].split(",")
    rows = np.array(
        [[float(x) if x else math.nan for x in ln.split(",")] for ln in body[1:]], dtype=float
    ).reshape(len(body) - 1, len(columns))
    return comments, columns, rows


def check_figure1(spec, path, rng) -> Verdict:
    """D(t; alpha) CSV: layout, D in (0, 1], ordering in |alpha|, zeta reference.

    Items are the D cells, numbered row-major.
    """
    v = Verdict()
    alphas = spec["alphas"]
    n, k = spec["n_points"], len(alphas)
    all_cells = range(n * k)
    _, columns, rows = read_csv(path)
    labels = [float(c.split("=", 1)[1]) if "=" in c else math.nan for c in columns[1:]]
    if columns[0] != "t" or labels != alphas or rows.shape != (n, k + 1):
        v.fail(all_cells, f"layout: columns {columns[:3]}... shape {rows.shape}")
        return v
    t, D = rows[:, 0], rows[:, 1:]
    if not np.allclose(t, np.linspace(0.0, spec["t_end"], n), rtol=0.0, atol=1e-12 * spec["t_end"]):
        v.fail(all_cells, "time grid differs from linspace(0, t_end, n_points)")

    def cells(mask):
        return {int(i) * k + int(j) for i, j in zip(*np.nonzero(mask))}

    bad = ~(np.isfinite(D) & (D > 0.0) & (D <= 1.0))
    if bad.any():
        v.fail(cells(bad), f"{int(bad.sum())} D values outside (0, 1]")
    for j, a in enumerate(alphas):
        if abs(a) == 1.0 and np.any(D[:, j] != 1.0):
            mask = np.zeros_like(D, dtype=bool)
            mask[:, j] = D[:, j] != 1.0
            v.fail(cells(mask), f"D != 1 at |alpha| = 1 (alpha={a})")
    order = sorted(range(k), key=lambda j: abs(alphas[j]))
    for lo, hi in zip(order, order[1:]):
        if abs(alphas[lo]) < abs(alphas[hi]):
            wrong = D[:, lo] > D[:, hi] * (1.0 + 1e-12)
        else:
            wrong = np.abs(D[:, lo] - D[:, hi]) > 1e-15 * D[:, hi]
        if wrong.any():
            mask = np.zeros_like(D, dtype=bool)
            mask[wrong, lo] = mask[wrong, hi] = True
            v.fail(cells(mask), f"D not ordered in |alpha| between {alphas[lo]} and {alphas[hi]}")

    mu = spec["mu"]
    rows_ref = np.sort(rng.choice(np.arange(1, n), size=min(REFERENCE_POINTS, n - 1), replace=False))
    v.info["reference_points"] = 0
    v.info["reference_skipped_poles"] = 0
    if near_pole(mu):
        v.info["reference_skipped_poles"] = len(rows_ref)
        return v
    worst = 0.0
    for i in rows_ref:
        g = gamma_reference(spec["j0"], mu, spec["omega_c"], spec["beta"], float(t[i]))
        v.info["reference_points"] += 1
        for j, a in enumerate(alphas):
            if abs(a) >= 1.0 or not D[i, j] > 0.0:
                continue
            x_ref = (1.0 - a * a) * g
            err = abs(-math.log(D[i, j]) - x_ref) / max(1.0, x_ref)
            worst = max(worst, err)
            if err > 1e-8:
                v.fail({int(i) * k + j}, f"D(t={t[i]}, alpha={a}) off the zeta reference by {err:.2e}")
    v.info["reference_max_rel_err"] = worst
    return v


def closed_form_state(alpha: float, im12: float, t: float, d: float) -> np.ndarray:
    """The exact hermitian-representation state for r11(0) = 1/2, r12(0) = i im12."""
    e1 = -math.sqrt(1.0 - alpha * alpha)
    rot = 1j * im12 * complex(math.cos(e1 * t), -math.sin(e1 * t))
    r11 = 0.5 - rot.real * d
    r12 = 1j * rot.imag * d
    return np.array([[r11, r12], [r12.conjugate(), 1.0 - r11]], dtype=complex)


def check_gamma_domain(spec, arrays, outputs, failed_items, rng) -> Verdict:
    """States: trace and hermiticity of every returned state, PT-state trace,
    and a seeded subsample against the zeta reference."""
    v = Verdict()
    states, pt_states = outputs["states"], outputs["pt_states"]
    n = spec["items"]
    ok = np.ones(n, dtype=bool)
    ok[list(failed_items)] = False
    finite = np.isfinite(states).all(axis=(1, 2))
    if np.any(ok & ~finite):
        v.fail(np.nonzero(ok & ~finite)[0].tolist(), "returned state is not finite")
    ok &= finite
    trace = states[:, 0, 0] + states[:, 1, 1]
    herm = np.abs(states - np.conj(np.transpose(states, (0, 2, 1)))).max(axis=(1, 2))
    bad = ok & ((np.abs(trace - 1.0) > 1e-12) | (herm > 1e-12))
    if bad.any():
        v.fail(np.nonzero(bad)[0].tolist(), f"{int(bad.sum())} states fail trace or hermiticity")
    to_pt = arrays["to_pt"] & ok
    pt_trace = pt_states[:, 0, 0] + pt_states[:, 1, 1]
    bad = to_pt & ~(np.abs(pt_trace - 1.0) <= 1e-9)
    if bad.any():
        v.fail(np.nonzero(bad)[0].tolist(), f"{int(bad.sum())} PT states lose the trace")

    candidates = np.nonzero(ok)[0]
    picked = rng.choice(candidates, size=min(2 * REFERENCE_POINTS, candidates.size), replace=False)
    v.info["reference_points"] = 0
    v.info["reference_skipped_poles"] = 0
    worst = 0.0
    for i in np.sort(picked):
        mu, beta, t = float(arrays["mu"][i]), float(arrays["beta"][i]), float(arrays["t"][i])
        alpha, im12 = float(arrays["alpha"][i]), float(arrays["im12"][i])
        if near_pole(mu):
            v.info["reference_skipped_poles"] += 1
            continue
        if t == 0.0 or abs(alpha) == 1.0:
            d = 1.0
        else:
            g = gamma_reference(spec["j0"], mu, spec["omega_c"], beta, t)
            d = math.exp(-(1.0 - alpha * alpha) * g)
        v.info["reference_points"] += 1
        err = float(np.max(np.abs(states[i] - closed_form_state(alpha, im12, t, d))))
        worst = max(worst, err)
        if err > 1e-8:
            v.fail({int(i)}, f"item {i} (mu={mu}, beta={beta}, t={t}) off the zeta reference by {err:.2e}")
    v.info["reference_max_abs_err"] = worst
    return v


def gamma_discrete_reference(spec, modes: int, t) -> np.ndarray:
    """gamma_N(t) of the midpoint bath on [0, omega_max] with `modes` bins."""
    d_omega = spec["omega_max"] / modes
    w = (np.arange(modes) + 0.5) * d_omega
    g2 = spec["j0"] * w ** (1.0 + spec["mu"]) * np.exp(-w / spec["omega_c"]) * d_omega
    coth = 1.0 / np.tanh(0.5 * spec["beta"] * w)
    t = np.asarray(t, dtype=float)[:, None]
    return np.sum(g2 / w**2 * 2.0 * np.sin(0.5 * w * t) ** 2 * coth, axis=1)


_POOLED = re.compile(r"# pooled fitted c = (\S+) pooled residual = (\S+)")


def check_oracle(spec, calls) -> Verdict:
    """Per shape: the analytic column from our own gamma_N, D_brute in [0, 1],
    and the pooled fit and PASS/FAIL status recomputed from the CSV.

    Items are the (alpha, t) rows, numbered across shapes in call order.
    """
    v = Verdict()
    n = spec["n_points"]
    times = np.linspace(0.0, spec["t_end"], n)
    per_call = 2 * n
    v.info["fitted_c"] = {}
    for k, (shape, call) in enumerate(zip(spec["shapes"], calls)):
        items = range(k * per_call, (k + 1) * per_call)
        name = f"{shape['modes']}x{shape['fock_dim']}"
        comments, columns, rows = read_csv(call["out"])
        pooled = [m for m in map(_POOLED.match, comments) if m]
        expected_alpha = np.repeat(shape["alphas"], n)
        if (
            columns != ["alpha", "t", "exponent", "D_analytic", "D_brute", "dev_D", "dev_rho"]
            or rows.shape != (per_call, 7)
            or not pooled
            or np.any(rows[:, 0] != expected_alpha)
            or not np.allclose(rows[:, 1], np.tile(times, 2), rtol=0.0, atol=1e-12 * spec["t_end"])
        ):
            v.fail(items, f"{name}: CSV layout differs from the requested run")
            continue
        c_csv, resid_csv = float(pooled[0].group(1)), float(pooled[0].group(2))
        v.info["fitted_c"][name] = c_csv
        alpha = rows[:, 0]
        x_ref = (1.0 - alpha**2) * np.tile(gamma_discrete_reference(spec, shape["modes"], times), 2)
        x, d_an, d_br, dev = rows[:, 2], rows[:, 3], rows[:, 4], rows[:, 5]
        checks = {
            "exponent differs from E1^2 gamma_N": np.abs(x - x_ref) > 1e-14 + 1e-11 * x_ref,
            "D_analytic differs from exp(-E1^2 gamma_N)": np.abs(d_an - np.exp(-x_ref))
            > 1e-11 * np.exp(-x_ref),
            "D_brute outside [0, 1]": ~((d_br >= 0.0) & (d_br <= 1.0 + 1e-9)),
            "dev_D differs from |D_analytic - D_brute|": np.abs(dev - np.abs(d_an - d_br)) > 1e-15,
        }
        for problem, mask in checks.items():
            if mask.any():
                v.fail({items[i] for i in np.nonzero(mask)[0]}, f"{name}: {problem}")
        use = d_br > 0.0
        c = float(x[use] @ -np.log(d_br[use])) / float(x[use] @ x[use])
        resid = float(np.max(np.abs(d_br - np.exp(-c * x))))
        if abs(c - c_csv) > 1e-9 * abs(c) or abs(resid - resid_csv) > 1e-9 * max(resid, 1e-12):
            v.fail(items, f"{name}: pooled fit c={c_csv}, residual={resid_csv} but CSV gives {c}, {resid}")
        if (call["rc"] == 0) != (resid <= spec["compare_tol"]):
            v.fail(items, f"{name}: exit {call['rc']} disagrees with residual {resid}")
    return v


def _norm(m) -> float:
    return float(np.linalg.norm(m, 2))


def check_hermitize_kraus(spec, arrays, outputs, failed_items) -> Verdict:
    """Matrices: PT flags, h hermitian with the eigenvalues of H (those of
    the generator's A), spectrum, C^2 = I. Channels: Kraus completeness,
    Choi positivity, the channel applied, and the PT family consistent."""
    v = Verdict()
    worst = {"herm": 0.0, "eig": 0.0, "C2": 0.0, "complete": 0.0, "pt": 0.0}
    item = 0
    for n in spec["dims"]:
        if item not in failed_items:
            A = arrays[f"A{n}"]
            scale = max(_norm(A), 1.0)
            h, C = outputs[f"h{n}"], outputs[f"C{n}"]
            ref = np.linalg.eigvalsh(A)
            herm = _norm(h - h.conj().T) / scale
            eig = max(
                float(np.max(np.abs(np.linalg.eigvalsh((h + h.conj().T) / 2.0) - ref))),
                float(np.max(np.abs(np.sort(outputs[f"eig{n}"].real) - ref))),
            ) / scale
            c2 = _norm(C @ C - np.eye(n))
            worst["herm"], worst["eig"], worst["C2"] = (
                max(worst["herm"], herm), max(worst["eig"], eig), max(worst["C2"], c2),
            )
            if not outputs[f"flags{n}"].all():
                v.fail({item}, f"n={n}: not reported PT-symmetric with a real spectrum")
            if herm > 1e-9 or eig > 1e-8 or c2 > 1e-6:
                v.fail({item}, f"n={n}: hermiticity {herm:.1e}, eigenvalues {eig:.1e}, C^2-I {c2:.1e}")
        item += 1
    for i, ch in enumerate(spec["channels"]):
        if item not in failed_items:
            ds = ch["dim_s"]
            K, L, R = outputs[f"c{i}_K"], outputs[f"c{i}_L"], outputs[f"c{i}_R"]
            T, T_inv = outputs[f"c{i}_T"], outputs[f"c{i}_Tinv"]
            rho = arrays[f"c{i}_rho"]
            eye = np.eye(ds)
            complete = _norm(sum(k.conj().T @ k for k in K) - eye)
            vecs = np.stack([k.T.reshape(-1) for k in K])
            choi_min = float(np.linalg.eigvalsh(vecs.T @ vecs.conj()).min())
            out_ref = sum(k @ rho @ k.conj().T for k in K)
            out = outputs[f"c{i}_out"]
            pt_cond = _norm(T) * _norm(T_inv)
            pt = max(
                _norm(sum(r @ l for l, r in zip(L, R)) - eye),
                _norm(outputs[f"c{i}_outpt"] - T_inv @ out @ T) / max(_norm(out), 1.0),
            ) / pt_cond**2
            worst["complete"], worst["pt"] = max(worst["complete"], complete), max(worst["pt"], pt)
            if not bool(outputs[f"c{i}_cp"]) or choi_min < -1e-9:
                v.fail({item}, f"channel {i}: not completely positive (Choi min {choi_min:.1e})")
            if complete > 1e-8 or _norm(out - out_ref) > 1e-10 or abs(np.trace(out) - 1.0) > 1e-8:
                v.fail({item}, f"channel {i}: completeness {complete:.1e} or applied state wrong")
            if pt > 1e-10:
                v.fail({item}, f"channel {i}: PT family inconsistent ({pt:.1e})")
        item += 1
    v.info["max_defects"] = worst
    return v
